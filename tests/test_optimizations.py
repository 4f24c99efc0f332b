"""End-to-end tests for the paper's §5 optimizations.

Page splitting (§5.1), data forwarding (§5.2) and the split-merge
correctness escape hatch are exercised with the access patterns that the
paper's Table 1 uses, on small scaled-down sizes.
"""

from repro import Cluster, CostModel, DQEMUConfig
from repro.workloads.common import emit_fanout_main, workload_builder

# Test-scale knobs: lighter protocol costs so ping-pong cycles are short and
# detector triggers fire within small iteration counts.
FAST = dict(cost=CostModel(dsm_service_ns=30_000), splitting_trigger=6)


def seq_reader_program(npages=40):
    """One worker walks `npages` pages with sequential 8-byte loads."""
    b = workload_builder()
    emit_fanout_main(b, 1)
    b.label("worker")
    b.la("t0", "arr")
    b.li("t1", 0)
    b.li("t2", npages * 4096 // 8)
    b.label(".r_loop")
    b.slli("t3", "t1", 3)
    b.add("t3", "t3", "t0")
    b.ld("t4", 0, "t3")
    b.addi("t1", "t1", 1)
    b.blt("t1", "t2", ".r_loop")
    b.li("a0", 0)
    b.ret()
    b.bss()
    b.align(4096)
    b.label("arr")
    b.space(npages * 4096)
    b.text()
    return b.assemble()


def false_sharing_program(iters=60_000, n_threads=2, section=2048, post_join=None):
    """Each worker read-modify-writes its own 128-byte slice of ONE page,
    slices `section` bytes apart — the Table 1 false-sharing pattern."""
    b = workload_builder()
    emit_fanout_main(b, n_threads, post_join=post_join)
    b.label("worker")
    b.li("t0", section)
    b.mul("t0", "a0", "t0")
    b.la("t1", "arr")
    b.add("t1", "t1", "t0")
    b.li("t2", 0)
    b.li("t6", iters)
    b.label(".fs_loop")
    b.andi("t3", "t2", 127)
    b.add("t4", "t1", "t3")
    b.lbu("t5", 0, "t4")
    b.addi("t5", "t5", 1)
    b.sb("t5", 0, "t4")
    b.addi("t2", "t2", 1)
    b.blt("t2", "t6", ".fs_loop")
    b.li("a0", 0)
    b.ret()
    b.bss()
    b.align(4096)
    b.label("arr")
    b.space(4096)
    b.text()
    return b.assemble()


def split_then_share_program(iters1, iters2):
    """Worker ``i`` read-modify-writes bytes ``2048*i + (j & 127)`` for
    ``iters1`` trips, then bytes ``256*i + (j & 127)`` for ``iters2`` trips,
    all in ONE page; ``main`` prints the byte sum of the three slices."""
    b = workload_builder()

    def post(bb):
        bb.la("t0", "arr")
        bb.li("t1", 0)
        for base in (0, 256, 2048):
            bb.li("t2", 0)
            bb.label(f".sum_{base}")
            bb.add("t3", "t0", "t2")
            bb.lbu("t4", base, "t3")
            bb.add("t1", "t1", "t4")
            bb.addi("t2", "t2", 1)
            bb.li("t5", 128)
            bb.blt("t2", "t5", f".sum_{base}")
        bb.mv("a0", "t1")
        bb.call("rt_print_u64_ln")
        bb.li("a0", 0)

    emit_fanout_main(b, 2, post_join=post)
    b.label("worker")
    b.la("t1", "arr")
    for phase, (section, iters) in enumerate(((2048, iters1), (256, iters2))):
        b.li("t0", section)
        b.mul("t0", "a0", "t0")
        b.add("t0", "t1", "t0")
        b.li("t2", 0)
        b.li("t6", iters)
        b.label(f".phase{phase}")
        b.andi("t3", "t2", 127)
        b.add("t4", "t0", "t3")
        b.lbu("t5", 0, "t4")
        b.addi("t5", "t5", 1)
        b.sb("t5", 0, "t4")
        b.addi("t2", "t2", 1)
        b.blt("t2", "t6", f".phase{phase}")
    b.li("a0", 0)
    b.ret()
    b.bss()
    b.align(4096)
    b.label("arr")
    b.space(4096)
    b.text()
    return b.assemble()


class TestForwarding:
    def test_sequential_stream_gets_pushed(self):
        prog = seq_reader_program()
        r = Cluster(1, DQEMUConfig(forwarding_enabled=True)).run(
            prog, max_virtual_ms=60_000
        )
        assert r.stats.protocol.pages_forwarded > 20

    def test_forwarding_reduces_fault_latency_and_time(self):
        from repro.analysis.metrics import mean_fault_latency_us

        prog = seq_reader_program()
        base = Cluster(1, DQEMUConfig()).run(prog, max_virtual_ms=60_000)
        fwd = Cluster(1, DQEMUConfig(forwarding_enabled=True)).run(
            prog, max_virtual_ms=60_000
        )
        # A demand fault is satisfied by the in-flight push (§5.2), so the
        # request count barely changes but the wait per fault collapses.
        assert mean_fault_latency_us(fwd) < mean_fault_latency_us(base) / 2
        assert fwd.virtual_ns < base.virtual_ns / 1.25

    def test_forwarded_pages_arrive_shared_and_correct(self):
        """Push a data pattern and make the reader checksum it."""
        b = workload_builder()

        def post(bb):
            bb.la("a0", "total")
            bb.ld("a0", 0, "a0")
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        emit_fanout_main(b, 1, post_join=post)
        b.label("worker")
        b.la("t0", "arr")
        b.li("t1", 0)
        b.li("t2", 10 * 512)  # 10 pages of qwords
        b.li("t5", 0)
        b.label(".r_loop")
        b.slli("t3", "t1", 3)
        b.add("t3", "t3", "t0")
        b.ld("t4", 0, "t3")
        b.add("t5", "t5", "t4")
        b.addi("t1", "t1", 1)
        b.blt("t1", "t2", ".r_loop")
        b.la("t0", "total")
        b.sd("t5", 0, "t0")
        b.li("a0", 0)
        b.ret()
        b.data()
        b.align(4096)
        b.label("arr")
        for page in range(10):
            b.quad(page + 1)
            b.space(4088)
        b.align(8)
        b.label("total")
        b.quad(0)
        b.text()
        prog = b.assemble()
        r = Cluster(1, DQEMUConfig(forwarding_enabled=True)).run(
            prog, max_virtual_ms=60_000
        )
        assert r.stdout == f"{sum(range(1, 11))}\n"


class TestSplitting:
    def test_false_sharing_triggers_split(self):
        prog = false_sharing_program()
        cfg = DQEMUConfig(splitting_enabled=True, **FAST)
        r = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stats.protocol.splits == 1
        assert r.stats.protocol.split_retry_replies >= 1

    def test_split_disabled_never_splits(self):
        prog = false_sharing_program()
        cfg = DQEMUConfig(splitting_enabled=False, **FAST)
        r = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stats.protocol.splits == 0

    def test_split_improves_time_and_traffic(self):
        prog = false_sharing_program()
        base = Cluster(2, DQEMUConfig(**FAST)).run(prog, max_virtual_ms=600_000)
        split = Cluster(2, DQEMUConfig(splitting_enabled=True, **FAST)).run(
            prog, max_virtual_ms=600_000
        )
        assert split.virtual_ns < base.virtual_ns / 1.5
        assert split.stats.protocol.page_requests < base.stats.protocol.page_requests

    def test_split_preserves_data(self):
        """After the run, the main thread re-reads both slices through the
        split table and prints their byte sums — must equal the work done."""
        iters = 60_000

        def post(bb):
            # sum bytes 0..127 and 2048..2175 of arr
            bb.la("t0", "arr")
            bb.li("t1", 0)  # acc
            for base_off in (0, 2048):
                bb.li("t2", 0)
                lbl = f".chk_{base_off}"
                bb.label(lbl)
                bb.addi("t3", "t2", base_off)
                bb.la("t0", "arr")
                bb.add("t3", "t3", "t0")
                bb.lbu("t4", 0, "t3")
                bb.add("t1", "t1", "t4")
                bb.addi("t2", "t2", 1)
                bb.li("t5", 128)
                bb.blt("t2", "t5", lbl)
            bb.mv("a0", "t1")
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        prog = false_sharing_program(iters=iters, post_join=post)
        cfg = DQEMUConfig(splitting_enabled=True, **FAST)
        r = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stats.protocol.splits == 1
        expected = 2 * sum(((iters - j + 127) // 128) % 256 for j in range(128))
        assert r.stdout == f"{expected}\n"

    def test_four_node_section_split(self):
        prog = false_sharing_program(iters=40_000, n_threads=4, section=1024)
        cfg = DQEMUConfig(splitting_enabled=True, **FAST)
        r = Cluster(4, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stats.protocol.splits == 1


class TestMerge:
    def test_region_crossing_access_merges_back(self):
        iters = 60_000

        def post(bb):
            bb.la("t0", "arr")
            bb.ld("a0", 2044, "t0")  # straddles the 2048-byte region boundary
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        prog = false_sharing_program(iters=iters, post_join=post)
        cfg = DQEMUConfig(splitting_enabled=True, **FAST)
        r = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stats.protocol.splits == 1
        assert r.stats.protocol.merges == 1
        # Exact value across the merged boundary: low half untouched zeros,
        # high half = worker 1's per-byte counters.
        val = 0
        for k, off in enumerate(range(2044, 2052)):
            byte = 0 if off < 2048 else ((iters - (off - 2048) + 127) // 128) % 256
            val |= byte << (8 * k)
        assert r.stdout == f"{val}\n"

    def test_merged_page_continues_working(self):
        """After a merge, further writes to the page still behave."""
        iters = 60_000

        def post(bb):
            bb.la("t0", "arr")
            bb.ld("t1", 2044, "t0")  # force merge
            bb.li("t2", 0x55)
            bb.sb("t2", 2044, "t0")  # then write through the merged page
            bb.lbu("a0", 2044, "t0")
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        prog = false_sharing_program(iters=iters, post_join=post)
        cfg = DQEMUConfig(splitting_enabled=True, **FAST)
        r = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stats.protocol.merges == 1
        assert r.stdout == f"{0x55}\n"

    def test_a_ping_ponging_shadow_reverts_the_split_for_good(self):
        """Two workers write their own 2 KiB halves of one page, so it is
        split in two; then both write inside the first half, 256 bytes
        apart, so that half's shadow ping-pongs between the nodes.  The
        split was mis-inferred: the master merges it back (the adaptive
        revert, not a region-crossing merge request) and never splits the
        page again, though the second pattern fits 16 regions."""
        iters1, iters2 = 10_000, 40_000
        prog = split_then_share_program(iters1, iters2)
        cfg = DQEMUConfig(splitting_enabled=True, cost=FAST["cost"], splitting_trigger=3)
        cluster = Cluster(2, cfg, trace=True)
        r = cluster.run(prog, max_virtual_ms=600_000)
        assert (r.stats.protocol.splits, r.stats.protocol.merges) == (1, 1)
        page = prog.symbol("arr") // 4096
        reverts = [ev.what for ev in cluster.tracer.filter(category="split", page=page)]
        assert reverts == ["split into 2 x 2048B shadows",
                           "shadow still ping-ponging: revert + blacklist", "merged back"]
        assert cluster.jobs[0].runtime.master.splitting._split_blacklist == {page}

        def count(n, k):  # increments of byte k by a loop of n trips over 128 bytes
            return (n - k + 127) // 128

        want = sum((count(iters1, k) + count(iters2, k)) % 256  # worker 0, both phases
                   + count(iters2, k) % 256 + count(iters1, k) % 256 for k in range(128))
        assert r.stdout == f"{want}\n"
        assert Cluster(0, DQEMUConfig(pure_qemu=True)).run(prog).stdout == r.stdout
