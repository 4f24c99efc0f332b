"""Live thread migration (sched_setaffinity) and nanosleep tests."""

from repro import Cluster, CostModel, DQEMUConfig, FaultPlan
from repro.baselines import run_qemu
from repro.kernel.sysnums import SYS
from repro.workloads.common import emit_fanout_main, workload_builder

LONG = dict(max_virtual_ms=600_000)


def migrating_program(target_node: int, iters: int = 200):
    """Worker: count a bit, migrate to `target_node`, count some more,
    record gettid+final count; main prints them."""
    b = workload_builder()

    def post_join(bb):
        bb.la("t0", "out")
        bb.ld("a0", 0, "t0")
        bb.call("rt_print_u64_ln")
        bb.la("t0", "out")
        bb.ld("a0", 8, "t0")
        bb.call("rt_print_u64_ln")

        bb.li("a0", 0)

    emit_fanout_main(b, 1, post_join=post_join)
    b.label("worker")
    b.addi("sp", "sp", -32)
    b.sd("ra", 24, "sp")
    b.sd("s0", 16, "sp")
    b.li("s0", 0)
    b.li("t1", iters)
    b.label(".pre")
    b.addi("s0", "s0", 1)
    b.blt("s0", "t1", ".pre")
    # sched_setaffinity(0, 8, &mask) with mask = 1 << target_node
    b.li("t0", 1 << target_node)
    b.sd("t0", 0, "sp")
    b.li("a0", 0)
    b.li("a1", 8)
    b.mv("a2", "sp")
    b.li("a7", SYS.SCHED_SETAFFINITY)
    b.ecall()
    b.sd("a0", 8, "sp")  # syscall retval
    # keep counting on the new node
    b.li("t1", iters)
    b.label(".post")
    b.addi("s0", "s0", 1)
    b.li("t2", 2)
    b.mul("t1", "t1", "t2")
    b.srli("t1", "t1", 1)  # t1 stays `iters`; exercises post-migration compute
    b.li("t3", 2 * iters)
    b.blt("s0", "t3", ".post")
    b.la("t0", "out")
    b.sd("s0", 0, "t0")
    b.ld("t4", 8, "sp")
    b.sd("t4", 8, "t0")
    b.li("a0", 0)
    b.ld("ra", 24, "sp")
    b.ld("s0", 16, "sp")
    b.addi("sp", "sp", 32)
    b.ret()
    b.data()
    b.align(8)
    b.label("out").quad(0, 0)
    b.text()
    return b.assemble()


class TestMigration:
    def test_thread_moves_and_computation_continues(self):
        prog = migrating_program(target_node=2, iters=200)
        r = Cluster(2, trace=True).run(prog, **LONG)
        lines = r.stdout.splitlines()
        assert int(lines[0]) == 400  # counting survived the move
        assert int(lines[1]) == 0  # setaffinity returned 0
        assert r.stats.protocol.thread_migrations == 1
        moved = [ev for ev in r.trace.filter(category="thread") if "migrated" in ev.what]
        assert any(ev.node == 2 for ev in moved)
        # the worker's stats record its final home
        worker = [t for t in r.stats.threads.values() if t.tid != 1][0]
        assert worker.node == 2

    def test_migrate_to_current_node_is_noop(self):
        prog = migrating_program(target_node=1, iters=50)
        r = Cluster(1).run(prog, **LONG)
        assert r.stdout.splitlines()[0] == "100"
        assert r.stats.protocol.thread_migrations == 0

    def test_migrate_to_unknown_node_einval(self):
        prog = migrating_program(target_node=9, iters=50)
        r = Cluster(1).run(prog, **LONG)
        retval = int(r.stdout.splitlines()[1])
        assert retval == (-22) & (2**64 - 1)  # -EINVAL
        assert r.stats.protocol.thread_migrations == 0

    def test_migrate_to_draining_node_einval(self):
        # A draining node is closed for new work (docs/PROTOCOL.md "Failure
        # domains"): the guest's setaffinity fails with EINVAL instead of
        # stranding the thread on a node that is being evacuated.
        prog = migrating_program(target_node=2, iters=200)
        cfg = DQEMUConfig(
            rpc_timeout_ns=100_000, rpc_max_retries=6,
            rpc_backoff_base_ns=10_000, rpc_backoff_jitter_ns=2_000,
            evacuation_enabled=True, health_aware_placement=True,
            fault_plan=FaultPlan.drain(2, 0),
        ).time_scaled(100.0)
        r = Cluster(2, cfg).run(prog, **LONG)
        lines = r.stdout.splitlines()
        assert int(lines[0]) == 400  # counting continued on the old node
        assert int(lines[1]) == (-22) & (2**64 - 1)  # -EINVAL
        assert r.stats.protocol.thread_migrations == 0
        # The placer also refused the drained node for the worker's spawn.
        assert r.placement_skips.get("n2:draining", 0) >= 1

    def test_pure_qemu_treats_affinity_as_noop(self):
        prog = migrating_program(target_node=0, iters=50)
        r = run_qemu(prog, **LONG)
        assert r.stdout.splitlines()[0] == "100"
        assert int(r.stdout.splitlines()[1]) == 0


class TestNanosleep:
    def test_sleep_advances_virtual_time(self):
        b = workload_builder()
        b.label("main")
        b.addi("sp", "sp", -32)
        b.sd("ra", 24, "sp")
        b.sd("s0", 16, "sp")
        b.call("rt_time_ns")
        b.mv("s0", "a0")
        # nanosleep({2s, 500ns})
        b.li("t0", 2)
        b.sd("t0", 0, "sp")
        b.li("t0", 500)
        b.sd("t0", 8, "sp")
        b.mv("a0", "sp")
        b.li("a1", 0)
        b.li("a7", SYS.NANOSLEEP)
        b.ecall()
        b.call("rt_time_ns")
        b.sub("a0", "a0", "s0")
        b.call("rt_print_u64_ln")
        b.li("a0", 0)
        b.ld("ra", 24, "sp")
        b.ld("s0", 16, "sp")
        b.addi("sp", "sp", 32)
        b.ret()
        r = Cluster(1).run(b.assemble(), max_virtual_ms=10_000)
        elapsed = int(r.stdout)
        assert elapsed >= 2_000_000_500

    def test_sleeping_thread_does_not_hold_a_core(self):
        """A sleeper and a worker on a 1-core node: the worker finishes
        while the sleeper sleeps."""
        b = workload_builder()

        def post_join(bb):
            bb.la("t0", "done")
            bb.ld("a0", 0, "t0")
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        emit_fanout_main(b, 2, post_join=post_join)
        b.label("worker")
        b.addi("sp", "sp", -32)
        b.sd("ra", 24, "sp")
        b.bnez("a0", ".busy")
        # thread 0 sleeps 50ms
        b.sd("zero", 0, "sp")
        b.li("t0", 50_000_000)
        b.sd("t0", 8, "sp")
        b.mv("a0", "sp")
        b.li("a7", SYS.NANOSLEEP)
        b.ecall()
        b.j(".done")
        b.label(".busy")
        b.la("t0", "done")
        b.li("t1", 1)
        b.amoadd("t2", "t1", "t0")
        b.label(".done")
        b.li("a0", 0)
        b.ld("ra", 24, "sp")
        b.addi("sp", "sp", 32)
        b.ret()
        b.data().align(8).label("done").quad(0).text()
        cfg = DQEMUConfig(cost=CostModel(node_cores={1: 1}))
        r = Cluster(1, cfg).run(b.assemble(), **LONG)
        assert r.stdout == "1\n"
        assert r.virtual_ns >= 50_000_000  # the sleep really happened
