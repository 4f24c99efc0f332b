"""Tests for the master's manager mailboxes (``master_shards``): routing
invariants, per-mailbox shadow numbering, single-mailbox bit-identity, the
paths that cross mailboxes (read-ahead pushes, multi-page syscall buffers,
split-table broadcasts), queue-wait attribution, and post-finish frame-drop
accounting."""

import dataclasses

import pytest

from repro import Cluster, DQEMUConfig
from repro.core.master import MasterRuntime
from repro.core.node import NodeRuntime
from repro.core.scheduler import ThreadPlacer
from repro.core.stats import RunStats
from repro.errors import ConfigError
from repro.kernel.syscalls import SystemState
from repro.mem.layout import PAGE_SIZE, SHADOW_BASE
from repro.mem.pagestore import PageStore
from repro.mem.sharding import ShadowPageAllocator, shard_of
from repro.net.fabric import Fabric
from repro.net.messages import PageRequest
from repro.sim import Simulator
from repro.workloads import memaccess, mutex_bench
from repro.workloads.common import emit_fanout_main, workload_builder
from tests.conftest import assert_directory_mirrors


def run_mutex(**config_kw):
    prog = mutex_bench.build(n_threads=4, iters=200, private=False)
    cfg = DQEMUConfig(**config_kw)
    return Cluster(n_slaves=2, config=cfg).run(prog)


def cross_mailbox_program(iters: int, stream_pages: int = 24):
    """Two workers false-share one page (slots 2048 bytes apart, as in
    ``tests.test_optimizations.false_sharing_program``).  Then worker 0
    walks ``stream_pages`` pages with sequential loads, and worker 1 writes
    ``ABCDEFGHIJKLMNOP`` into 16 bytes that straddle a page boundary.
    After the joins, main ``write``s those 16 bytes to stdout and prints
    the false-shared slots' byte sum."""
    b = workload_builder()

    def post(bb):
        bb.la("a1", "span")
        bb.li("t0", 4096 - 8)
        bb.add("a1", "a1", "t0")
        bb.li("a0", 1)
        bb.li("a2", 16)
        bb.syscall(64)  # write: the kernel reads both pages
        bb.li("t1", 0)
        for base_off in (0, 2048):
            lbl = f".chk_{base_off}"
            bb.li("t2", 0)
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

    emit_fanout_main(b, 2, post_join=post)
    b.label("worker")
    b.li("t0", 2048)
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
    b.bnez("a0", ".w_span")
    b.la("t0", "stream")
    b.li("t1", 0)
    b.li("t2", stream_pages * 4096 // 8)
    b.label(".w_stream")
    b.slli("t3", "t1", 3)
    b.add("t3", "t3", "t0")
    b.ld("t4", 0, "t3")
    b.addi("t1", "t1", 1)
    b.blt("t1", "t2", ".w_stream")
    b.j(".w_done")
    b.label(".w_span")
    b.la("t0", "span")
    b.li("t1", 4096 - 8)
    b.add("t0", "t0", "t1")
    b.li("t2", 0)
    b.li("t6", 16)
    b.label(".w_letter")
    b.addi("t3", "t2", ord("A"))
    b.add("t4", "t0", "t2")
    b.sb("t3", 0, "t4")
    b.addi("t2", "t2", 1)
    b.blt("t2", "t6", ".w_letter")
    b.label(".w_done")
    b.li("a0", 0)
    b.ret()
    b.bss()
    b.align(4096)
    b.label("arr")
    b.space(4096)
    b.label("span")
    b.space(2 * 4096)
    b.label("stream")
    b.space(stream_pages * 4096)
    b.text()
    return b.assemble()


# ---------------------------------------------------------------------------
# Routing invariants
# ---------------------------------------------------------------------------


class TestShardOf:
    def test_total_partition(self):
        """Every page maps to exactly one shard, always in range."""
        for nshards in (1, 2, 3, 4, 7):
            for page in [0, 1, 2, 5, 1000, SHADOW_BASE // PAGE_SIZE, 2**36 - 1]:
                s = shard_of(page, nshards)
                assert 0 <= s < nshards
                assert shard_of(page, nshards) == s  # deterministic

    def test_single_shard_maps_everything_to_zero(self):
        assert all(shard_of(p, 1) == 0 for p in range(1000))

    def test_interleaves_contiguous_ranges(self):
        """Consecutive pages round-robin across shards (a streamed working
        set spreads over every pool instead of hammering one)."""
        shards = [shard_of(p, 4) for p in range(8)]
        assert shards == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigError):
            shard_of(1, 0)


class TestShadowPageAllocator:
    def test_shadow_lands_on_own_shard(self):
        """A split page's shadows must live on the original's shard: the
        merge lock set stays intra-shard (deadlock-freedom argument)."""
        for nshards in (1, 2, 3, 4):
            for shard in range(nshards):
                alloc = ShadowPageAllocator(shard, nshards)
                for _ in range(32):
                    assert shard_of(alloc.alloc(), nshards) == shard

    def test_single_shard_matches_legacy_cursor(self):
        """With one shard the allocator is the pre-sharding shadow cursor:
        SHADOW_BASE up, step 1 (bit-identity of existing runs)."""
        alloc = ShadowPageAllocator(0, 1)
        base = SHADOW_BASE // PAGE_SIZE
        assert [alloc.alloc() for _ in range(4)] == [base, base + 1, base + 2, base + 3]

    def test_allocations_disjoint_across_shards(self):
        allocs = [ShadowPageAllocator(s, 4) for s in range(4)]
        pages = [a.alloc() for a in allocs for _ in range(16)]
        assert len(set(pages)) == len(pages)

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ConfigError):
            ShadowPageAllocator(2, 2)


# ---------------------------------------------------------------------------
# Single-shard bit-identity and sharded functional equivalence
# ---------------------------------------------------------------------------


class TestShardedRuns:
    def test_single_shard_is_bit_identical_to_default(self):
        """master_shards=1 (the default) takes the unsharded code paths:
        two runs — one default config, one explicit — agree on every
        RunStats counter and every fabric counter."""
        base = run_mutex()
        explicit = run_mutex(master_shards=1)
        assert base.exit_code == explicit.exit_code == 0
        assert dataclasses.asdict(base.stats) == dataclasses.asdict(explicit.stats)
        assert vars(base.fabric) == vars(explicit.fabric)
        # Single shard: no per-shard sub-breakdown beyond shard 0.
        for svc in base.stats.services.values():
            assert set(svc.shards) <= {0}

    def test_sharded_run_is_functionally_equivalent(self):
        """master_shards=4 changes timing (parallel pools) but never guest
        semantics: the sequential walk computes the same checksum."""
        prog = memaccess.build_seq_walk(npages=64)
        base = Cluster(1, DQEMUConfig()).run(prog)
        sharded = Cluster(1, DQEMUConfig(master_shards=4)).run(prog)
        assert sharded.exit_code == base.exit_code == 0
        _, base_sum = memaccess.parse_output(base.stdout)
        _, sharded_sum = memaccess.parse_output(sharded.stdout)
        assert sharded_sum == base_sum
        # The mutex worst case exercises syscalls/futexes across shards too.
        assert run_mutex(master_shards=4).exit_code == 0

    def test_sharded_splitting_preserves_semantics(self):
        """Page splitting under a sharded master: splits happen, shadows are
        shard-affine by construction, and the guest exits cleanly."""
        from tests.test_optimizations import FAST, false_sharing_program

        prog = false_sharing_program()
        cfg = DQEMUConfig(splitting_enabled=True, master_shards=2, **FAST)
        sharded = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert sharded.exit_code == 0
        assert sharded.stats.protocol.splits == 1
        assert sharded.stats.protocol.split_retry_replies >= 1

    CROSS_ITERS = 20_000
    #: virtual_ns of cross_mailbox_program(CROSS_ITERS) at K = 1, 2 and 4, as
    #: read when every mailbox had its own directory and split table.
    CROSS_MAILBOX_NS = 6_202_163

    @pytest.mark.parametrize("nshards", [1, 2, 4])
    def test_cross_mailbox_paths(self, nshards):
        """One run exercises every path that reaches pages of several
        mailboxes: a read-ahead stream (consecutive pages route to
        consecutive mailboxes), a global ``write`` whose buffer spans two
        pages (two mailboxes when K > 1), and a split with its split-table
        broadcast.  The guest prints the oracle, the directory mirrors the
        nodes, and the virtual time is what it always was at each K."""
        from tests.test_optimizations import FAST

        iters = self.CROSS_ITERS
        cfg = DQEMUConfig(
            master_shards=nshards, forwarding_enabled=True, splitting_enabled=True, **FAST
        )
        cluster = Cluster(2, cfg)
        r = cluster.run(cross_mailbox_program(iters), max_virtual_ms=600_000)
        assert_directory_mirrors(cluster)
        fs_sum = 2 * sum(((iters - j + 127) // 128) % 256 for j in range(128))
        assert r.exit_code == 0
        assert r.stdout == f"ABCDEFGHIJKLMNOP{fs_sum}\n"
        assert r.stats.protocol.pages_forwarded > 0
        assert r.stats.protocol.splits >= 1
        assert r.virtual_ns == self.CROSS_MAILBOX_NS
        # Every node got the table, and each shadow routes to the mailbox
        # of its original page.
        for node in cluster._fleet.nodes.values():
            entries = node.tenants[0].memory.split.entries()
            assert len(entries) == r.stats.protocol.splits - r.stats.protocol.merges
            for e in entries:
                routes = {shard_of(p, nshards) for p in (e.orig_page, *e.shadow_pages)}
                assert len(routes) == 1

    def test_shard_breakdown_sums_to_aggregate(self):
        """Per-shard rows partition the aggregate exactly for dispatched
        (master-side, sharded) services."""
        r = run_mutex(master_shards=4)
        for name in ("coherence", "splitting"):
            svc = r.stats.services[name]
            assert sum(s.requests for s in svc.shards.values()) == svc.requests
            assert sum(s.busy_ns for s in svc.shards.values()) == svc.busy_ns
            assert (
                sum(s.queue_wait_ns for s in svc.shards.values())
                == svc.queue_wait_ns
            )

    def test_queue_wait_is_measured(self):
        """The contended-mutex worst case backs up the master managers:
        coherence queue wait is nonzero and billed per shard."""
        r = run_mutex()
        assert r.stats.services["coherence"].queue_wait_ns > 0


# ---------------------------------------------------------------------------
# Node-side service-time billing (satellite: busy_ns was 0 for control work)
# ---------------------------------------------------------------------------


class TestServiceTimeBilling:
    def test_futex_and_node_control_bill_busy_time(self):
        r = run_mutex()
        services = r.stats.services
        # The futex storm bills its frames' serialization time as busy time.
        assert services["futex"].requests > 0
        assert services["futex"].busy_ns > 0
        # Node-side control handling (futex wakes, shutdown) bills the
        # per-command service timeout via started_at.
        assert services["node.control"].requests > 0
        assert services["node.control"].busy_ns > 0


# ---------------------------------------------------------------------------
# Post-finish frame drops (satellite: silent swallow -> counted drop)
# ---------------------------------------------------------------------------


class TestPostFinishDrops:
    def _make_master(self, nshards=1):
        sim = Simulator()
        cfg = DQEMUConfig(master_shards=nshards)
        fabric = Fabric(sim, cfg.cost)
        stats = RunStats()
        node = NodeRuntime(sim, fabric, 0, cfg, stats)
        state = SystemState(brk_start=0x10000, stdin=b"")
        master = MasterRuntime(
            sim, cfg, node, [0], PageStore(), state,
            ThreadPlacer(cfg.scheduler, [0]), stats, sim.event(),
        )
        return sim, node, master, stats

    @pytest.mark.parametrize("nshards", [1, 4])
    def test_post_finish_frames_are_counted(self, nshards):
        sim, node, master, stats = self._make_master(nshards)
        master.start()
        node.start()
        master.finish(0)
        node.endpoint.request(0, PageRequest(page=5, write=False))
        sim.run()
        assert stats.protocol.post_finish_drops == 1
        assert stats.protocol.page_requests == 0  # never reached the service

    def test_pre_finish_frames_are_served(self):
        sim, node, master, stats = self._make_master()
        master.start()
        node.start()
        node.endpoint.request(0, PageRequest(page=5, write=False))
        sim.run()
        assert stats.protocol.post_finish_drops == 0
        assert stats.protocol.page_requests == 1
