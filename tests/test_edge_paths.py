"""Edge-path integration tests: kernel access through split pages,
interpreter-mode clusters, shutdown with parked threads."""

from repro import Cluster, CostModel, DQEMUConfig, assemble
from repro.kernel.sysnums import SYS
from repro.workloads.common import emit_fanout_main, workload_builder

LONG = dict(max_virtual_ms=600_000)

FAST_SPLIT = dict(cost=CostModel(dsm_service_ns=30_000), splitting_trigger=6)


def split_then_syscall_program(iters=60_000):
    """Two workers false-share one page until it splits; then the main
    thread write()s a buffer that lives INSIDE the split page — the master
    kernel must read it through the shadow-page translation."""
    b = workload_builder()

    def post_join(bb):
        # write(1, arr+8, 4): the kernel reads guest memory from region 0
        bb.li("a0", 1)
        bb.la("a1", "arr")
        bb.addi("a1", "a1", 8)
        bb.li("a2", 4)
        bb.li("a7", SYS.WRITE)
        bb.ecall()
        bb.li("a0", 0)

    emit_fanout_main(b, 2, post_join=post_join)
    b.label("worker")
    b.addi("sp", "sp", -16)
    b.sd("ra", 8, "sp")
    b.sd("s0", 0, "sp")
    b.mv("s0", "a0")
    # worker 0 seeds the message bytes once, at its section start + 8
    b.bnez("s0", ".seeded")
    b.la("t0", "arr")
    b.li("t1", 0x4B4F)  # "OK"
    b.sh("t1", 8, "t0")
    b.li("t1", 0x0A21)  # "!\n"
    b.sh("t1", 10, "t0")
    b.label(".seeded")
    b.li("t0", 2048)
    b.mul("t0", "s0", "t0")
    b.la("t1", "arr")
    b.add("t1", "t1", "t0")
    b.li("t2", 0)
    b.li("t6", iters)
    b.label(".loop")
    b.andi("t3", "t2", 63)
    b.addi("t3", "t3", 64)  # offsets 64..127: keep clear of the message
    b.add("t4", "t1", "t3")
    b.lbu("t5", 0, "t4")
    b.addi("t5", "t5", 1)
    b.sb("t5", 0, "t4")
    b.addi("t2", "t2", 1)
    b.blt("t2", "t6", ".loop")
    b.li("a0", 0)
    b.ld("ra", 8, "sp")
    b.ld("s0", 0, "sp")
    b.addi("sp", "sp", 16)
    b.ret()
    b.bss()
    b.align(4096)
    b.label("arr")
    b.space(4096)
    b.text()
    return b.assemble()


class TestKernelThroughSplitPages:
    def test_write_syscall_reads_split_page(self):
        prog = split_then_syscall_program()
        cfg = DQEMUConfig(splitting_enabled=True, **FAST_SPLIT)
        r = Cluster(2, cfg).run(prog, **LONG)
        assert r.stats.protocol.splits == 1
        assert r.stdout == "OK!\n"

    def test_futex_word_on_split_page(self):
        """Futex wait/wake on a word inside a split page: the master's
        value check must go through the shadow translation."""
        b = workload_builder()

        def post_join(bb):
            bb.la("t0", "arr")
            bb.ld("a0", 0, "t0")  # flag value after wake handshake
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        emit_fanout_main(b, 2, post_join=post_join)
        b.label("worker")
        b.addi("sp", "sp", -16)
        b.sd("ra", 8, "sp")
        b.sd("s0", 0, "sp")
        b.mv("s0", "a0")
        b.li("t0", 2048)
        b.mul("t0", "s0", "t0")
        b.la("t1", "arr")
        b.add("t1", "t1", "t0")
        # churn to trigger the split (both workers, different regions)
        b.li("t2", 0)
        b.li("t6", 60_000)
        b.label(".churn")
        b.andi("t3", "t2", 63)
        b.addi("t3", "t3", 64)
        b.add("t4", "t1", "t3")
        b.lbu("t5", 0, "t4")
        b.addi("t5", "t5", 1)
        b.sb("t5", 0, "t4")
        b.addi("t2", "t2", 1)
        b.blt("t2", "t6", ".churn")
        b.bnez("s0", ".waker")
        # worker 0: futex_wait on arr[0] (region 0 of the split page)
        b.label(".wait")
        b.la("t0", "arr")
        b.ld("t1", 0, "t0")
        b.bnez("t1", ".done")
        b.la("a0", "arr")
        b.li("a1", 0)
        b.li("a2", 0)
        b.li("a7", SYS.FUTEX)
        b.ecall()
        b.j(".wait")
        b.label(".waker")
        # worker 1: set the flag and wake
        b.la("t0", "arr")
        b.li("t1", 77)
        b.sd("t1", 0, "t0")
        b.la("a0", "arr")
        b.li("a1", 1)
        b.li("a2", 8)
        b.li("a7", SYS.FUTEX)
        b.ecall()
        b.label(".done")
        b.li("a0", 0)
        b.ld("ra", 8, "sp")
        b.ld("s0", 0, "sp")
        b.addi("sp", "sp", 16)
        b.ret()
        b.bss()
        b.align(4096)
        b.label("arr")
        b.space(4096)
        b.text()
        cfg = DQEMUConfig(splitting_enabled=True, **FAST_SPLIT)
        r = Cluster(2, cfg).run(b.assemble(), **LONG)
        assert r.stdout == "77\n"


class TestInterpreterMode:
    def test_cluster_runs_in_interp_mode(self):
        from tests.test_cluster_integration import counter_program

        prog = counter_program(4, 100, "mutex")
        r = Cluster(2, DQEMUConfig(mode="interp")).run(prog, **LONG)
        assert r.stdout == "400\n"

    def test_interp_slower_than_dbt_on_compute(self):
        from repro.workloads import pi_taylor

        prog = pi_taylor.build(n_threads=4, terms=500, reps=4)
        cfg = DQEMUConfig().time_scaled(1000)  # make compute dominate
        dbt = Cluster(1, cfg).run(prog, **LONG)
        interp = Cluster(1, cfg.with_options(mode="interp")).run(prog, **LONG)
        assert interp.stdout == dbt.stdout == pi_taylor.reference_output(500)
        # interpretation bills ~10 cycles for every translated cycle; with
        # compute dominating, a large gap must appear in the execute
        # component (and a clear one end-to-end)
        assert interp.virtual_ns > 2 * dbt.virtual_ns
        assert (
            interp.stats.totals()["execute_ns"]
            > 4 * dbt.stats.totals()["execute_ns"]
        )


class TestShutdownEdge:
    def test_exit_group_with_sibling_parked_in_futex(self):
        """One worker sleeps forever on a futex; main exits the program —
        the run must terminate cleanly (exit_group wins)."""
        b = workload_builder()
        b.label("main")
        b.addi("sp", "sp", -16)
        b.sd("ra", 8, "sp")
        b.la("a0", "worker")
        b.li("a1", 0)
        b.call("rt_thread_create")
        # don't join: exit immediately with status 9
        b.li("a0", 9)
        b.ld("ra", 8, "sp")
        b.addi("sp", "sp", 16)
        b.ret()
        b.label("worker")
        b.la("a0", "cell")
        b.li("a1", 0)
        b.li("a2", 0)
        b.li("a7", SYS.FUTEX)
        b.ecall()
        b.li("a0", 0)
        b.ret()
        b.data().align(8).label("cell").quad(0).text()
        r = Cluster(2).run(b.assemble(), **LONG)
        assert r.exit_code == 9
