"""End-to-end cluster integration tests.

These run real multi-threaded guest programs through the full stack:
assembler → DBT → per-node cores → DSM coherence → syscall delegation →
futex/clone — on clusters of varying size, asserting exact results.
"""

import tracemalloc
from types import SimpleNamespace

import pytest

from repro import Cluster, DQEMUConfig, assemble
from repro.core.jobs import JobState
from repro.errors import GuestFault, SimulationError
from repro.sim import Simulator
from repro.workloads.common import emit_fanout_main, workload_builder

HELLO = """
_start:
    la a1, msg
    li a0, 1
    li a2, 6
    li a7, 64
    ecall
    li a0, 7
    li a7, 94
    ecall
.data
msg: .asciz "hello\\n"
"""


def counter_program(n_threads, iters, lock_kind="mutex"):
    """N workers increment a shared counter `iters` times under a lock."""
    b = workload_builder()

    def post_join(bb):
        bb.la("a0", "counter")
        bb.ld("a0", 0, "a0")
        bb.call("rt_print_u64_ln")
        bb.li("a0", 0)

    emit_fanout_main(b, n_threads, post_join=post_join)
    b.label("worker")
    b.addi("sp", "sp", -16)
    b.sd("ra", 8, "sp")
    b.sd("s0", 0, "sp")
    b.li("s0", 0)
    b.label(".w_loop")
    if lock_kind == "atomic":
        b.la("t0", "counter")
        b.li("t1", 1)
        b.amoadd("t2", "t1", "t0")
    else:
        b.la("a0", "lock")
        b.call("rt_mutex_lock" if lock_kind == "mutex" else "rt_spin_lock")
        b.la("t0", "counter")
        b.ld("t1", 0, "t0")
        b.addi("t1", "t1", 1)
        b.sd("t1", 0, "t0")
        b.la("a0", "lock")
        b.call("rt_mutex_unlock" if lock_kind == "mutex" else "rt_spin_unlock")
    b.addi("s0", "s0", 1)
    b.li("t2", iters)
    b.blt("s0", "t2", ".w_loop")
    b.li("a0", 0)
    b.ld("ra", 8, "sp")
    b.ld("s0", 0, "sp")
    b.addi("sp", "sp", 16)
    b.ret()
    b.data()
    b.align(8)
    b.label("counter").quad(0)
    b.label("lock").quad(0)
    return b.assemble()


class TestBasics:
    def test_hello_world_exit_code_and_stdout(self):
        r = Cluster(1).run(assemble(HELLO), max_virtual_ms=100)
        assert r.stdout == "hello\n"
        assert r.exit_code == 7

    def test_qemu_baseline_matches_output(self):
        r = Cluster(0, DQEMUConfig(pure_qemu=True)).run(assemble(HELLO))
        assert r.stdout == "hello\n"
        assert r.exit_code == 7

    def test_cluster_is_reusable(self):
        # A Cluster is a long-lived fleet: sequential runs are admitted as
        # successive tenants on the same nodes and stay fully isolated.
        c = Cluster(1)
        first = c.run(assemble(HELLO), max_virtual_ms=100)
        second = c.run(assemble(HELLO), max_virtual_ms=100)
        assert (first.exit_code, first.stdout) == (7, "hello\n")
        assert (second.exit_code, second.stdout) == (7, "hello\n")
        assert first.tenant == 0 and second.tenant == 1
        # Each result's virtual_ns is job-relative, so equal workloads on a
        # warm fleet report comparable durations.
        assert second.virtual_ns > 0

    def test_qemu_baseline_rejects_slaves(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Cluster(2, DQEMUConfig(pure_qemu=True))

    def test_file_io_through_delegation(self):
        src = """
        _start:
            # fd = openat(0, path, O_RDONLY)
            li a0, 0
            la a1, path
            li a2, 0
            li a7, 56
            ecall
            mv s0, a0
            # read(fd, buf, 5)
            mv a0, s0
            la a1, buf
            li a2, 5
            li a7, 63
            ecall
            # write(1, buf, 5)
            li a0, 1
            la a1, buf
            li a2, 5
            li a7, 64
            ecall
            li a0, 0
            li a7, 94
            ecall
        .data
        path: .asciz "input.txt"
        .align 8
        buf: .space 16
        """
        r = Cluster(1).run(
            assemble(src), files={"input.txt": b"12345"}, max_virtual_ms=100
        )
        assert r.stdout == "12345"

    def test_streaming_file_read_wordcount(self):
        """Chunked delegated read()s over a multi-page file: the guest
        counts spaces and bytes and writes both to stdout."""
        src = """
        main:
            addi sp, sp, -16
            sd ra, 8(sp)
            li a0, 0
            la a1, path
            li a2, 0
            li a7, 56          # openat
            ecall
            mv s0, a0          # fd
            li s1, 0           # total bytes
            li s2, 0           # spaces
        read_loop:
            mv a0, s0
            la a1, buf
            li a2, 256
            li a7, 63          # read
            ecall
            beqz a0, report
            mv s3, a0
            add s1, s1, a0
            la t0, buf
            li t1, 0
        scan:
            add t2, t0, t1
            lbu t3, 0(t2)
            li t4, 32          # ' '
            bne t3, t4, next
            addi s2, s2, 1
        next:
            addi t1, t1, 1
            blt t1, s3, scan
            j read_loop
        report:
            mv a0, s1
            call rt_print_u64_ln
            mv a0, s2
            call rt_print_u64_ln
            li a0, 0
            ld ra, 8(sp)
            addi sp, sp, 16
            ret
        .data
        path: .asciz "corpus.txt"
        .align 8
        buf: .space 256
        .text
        """
        from repro.guestlib import emit_runtime
        from repro.isa import AsmBuilder

        # merge the hand-written program with the runtime library it calls
        b = AsmBuilder()
        for line in src.splitlines():
            b.raw(line)
        emit_runtime(b)
        program = b.assemble()
        corpus = (b"word " * 1000) + b"end"
        r = Cluster(1).run(program, files={"corpus.txt": corpus},
                           max_virtual_ms=600_000)
        assert r.stdout == f"{len(corpus)}\n1000\n"

    def test_stdin_read(self):
        src = """
        _start:
            li a0, 0
            la a1, buf
            li a2, 4
            li a7, 63
            ecall
            li a0, 1
            la a1, buf
            li a2, 4
            li a7, 64
            ecall
            li a0, 0
            li a7, 94
            ecall
        .data
        buf: .space 8
        """
        r = Cluster(1).run(assemble(src), stdin=b"ping", max_virtual_ms=100)
        assert r.stdout == "ping"


#: A 1 GiB ``.bss`` of which the program writes the first and the last byte,
#: then exits with the last one.
SPARSE = """
_start:
    la t0, buf
    li t1, 7
    sb t1, 0(t0)
    la t2, last
    li t1, 42
    sb t1, 0(t2)
    lbu a0, 0(t2)
    li a7, 94
    ecall
.bss
buf: .space %d
last: .space 1
""" % ((1 << 30) - 1)


class TestSparseMemory:
    """Guest memory is demand-zero: an untouched region costs no host memory,
    on the DSM cluster and on the pure-QEMU baseline alike."""

    @pytest.mark.parametrize(
        "slaves,config", [(2, None), (0, DQEMUConfig(pure_qemu=True))], ids=["dsm", "qemu"]
    )
    def test_gigabyte_bss_costs_only_the_pages_touched(self, slaves, config):
        tracemalloc.start()
        try:
            prog = assemble(SPARSE)
            r = Cluster(slaves, config).run(prog, max_virtual_ms=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.exit_code == 42
        assert prog.load_end == prog.sections[".bss"].base + (1 << 30)
        assert peak < 16 << 20


class TestThreading:
    @pytest.mark.parametrize("n_slaves", [0, 1, 3])
    def test_mutex_counter_exact(self, n_slaves):
        prog = counter_program(4, 400, "mutex")
        r = Cluster(n_slaves).run(prog, max_virtual_ms=60_000)
        assert r.stdout == "1600\n"
        assert r.exit_code == 0

    @pytest.mark.parametrize("n_slaves", [0, 2])
    def test_spinlock_counter_exact(self, n_slaves):
        prog = counter_program(4, 150, "spin")
        r = Cluster(n_slaves).run(prog, max_virtual_ms=60_000)
        assert r.stdout == "600\n"

    @pytest.mark.parametrize("n_slaves", [0, 2])
    def test_amoadd_counter_exact(self, n_slaves):
        prog = counter_program(6, 500, "atomic")
        r = Cluster(n_slaves).run(prog, max_virtual_ms=60_000)
        assert r.stdout == "3000\n"

    def test_qemu_baseline_counter(self):
        prog = counter_program(4, 400, "mutex")
        r = Cluster(0, DQEMUConfig(pure_qemu=True)).run(prog, max_virtual_ms=60_000)
        assert r.stdout == "1600\n"

    def test_threads_actually_distributed(self):
        prog = counter_program(6, 50, "atomic")
        r = Cluster(3).run(prog, max_virtual_ms=60_000)
        assert r.placements == {1: 2, 2: 2, 3: 2}
        assert r.stats.protocol.remote_thread_spawns == 6

    def test_barrier_phases(self):
        """Each worker adds its index, everyone barriers, then adds again:
        after both phases the total is exactly 2 * sum(range(n))."""
        n = 4
        b = workload_builder()

        def pre(bb):
            bb.la("a0", "bar")
            bb.li("a1", n)
            bb.call("rt_barrier_init")

        def post(bb):
            bb.la("a0", "total")
            bb.ld("a0", 0, "a0")
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        emit_fanout_main(b, n, pre_create=pre, post_join=post)
        b.label("worker")
        b.addi("sp", "sp", -16)
        b.sd("ra", 8, "sp")
        b.sd("s0", 0, "sp")
        b.mv("s0", "a0")
        for _phase in range(2):
            b.la("t0", "total")
            b.amoadd("t1", "s0", "t0")
            b.la("a0", "bar")
            b.call("rt_barrier_wait")
        b.li("a0", 0)
        b.ld("ra", 8, "sp")
        b.ld("s0", 0, "sp")
        b.addi("sp", "sp", 16)
        b.ret()
        b.data()
        b.align(8)
        b.label("total").quad(0)
        b.label("bar").quad(0, 0, 0)
        prog = b.assemble()
        r = Cluster(2).run(prog, max_virtual_ms=60_000)
        assert r.stdout == f"{2 * sum(range(n))}\n"

    def test_malloc_per_thread_buffers(self):
        """Each worker mallocs a buffer, fills it, and sums it back."""
        n = 3
        b = workload_builder()

        def post(bb):
            bb.la("a0", "total")
            bb.ld("a0", 0, "a0")
            bb.call("rt_print_u64_ln")
            bb.li("a0", 0)

        emit_fanout_main(b, n, post_join=post)
        b.label("worker")
        b.addi("sp", "sp", -24)
        b.sd("ra", 16, "sp")
        b.sd("s0", 8, "sp")
        b.sd("s1", 0, "sp")
        b.li("a0", 256)
        b.call("rt_malloc")
        b.mv("s0", "a0")
        # fill 32 qwords with 1..32 and sum
        b.li("s1", 0)
        b.li("t0", 0)
        b.label(".mw_fill")
        b.slli("t1", "t0", 3)
        b.add("t1", "t1", "s0")
        b.addi("t2", "t0", 1)
        b.sd("t2", 0, "t1")
        b.addi("t0", "t0", 1)
        b.li("t3", 32)
        b.blt("t0", "t3", ".mw_fill")
        b.li("t0", 0)
        b.label(".mw_sum")
        b.slli("t1", "t0", 3)
        b.add("t1", "t1", "s0")
        b.ld("t2", 0, "t1")
        b.add("s1", "s1", "t2")
        b.addi("t0", "t0", 1)
        b.li("t3", 32)
        b.blt("t0", "t3", ".mw_sum")
        b.la("t0", "total")
        b.amoadd("t1", "s1", "t0")
        b.li("a0", 0)
        b.ld("ra", 16, "sp")
        b.ld("s0", 8, "sp")
        b.ld("s1", 0, "sp")
        b.addi("sp", "sp", 24)
        b.ret()
        b.data()
        b.align(8)
        b.label("total").quad(0)
        prog = b.assemble()
        r = Cluster(2).run(prog, max_virtual_ms=60_000)
        assert r.stdout == f"{n * sum(range(1, 33))}\n"


class TestScheduling:
    def test_hint_scheduler_colocates_groups(self):
        prog_b = workload_builder()
        emit_fanout_main(prog_b, 8, hint=("div", 4))  # 2 groups of 4
        prog_b.label("worker")
        prog_b.li("a0", 0)
        prog_b.ret()
        prog = prog_b.assemble()
        cfg = DQEMUConfig(scheduler="hint")
        r = Cluster(2, cfg).run(prog, max_virtual_ms=60_000)
        # group 0 -> one node x4, group 1 -> the other x4
        assert sorted(r.placements.values()) == [4, 4]

    def test_round_robin_spreads(self):
        prog_b = workload_builder()
        emit_fanout_main(prog_b, 8, hint=("div", 4))
        prog_b.label("worker")
        prog_b.li("a0", 0)
        prog_b.ret()
        prog = prog_b.assemble()
        r = Cluster(2, DQEMUConfig(scheduler="round_robin")).run(
            prog, max_virtual_ms=60_000
        )
        assert sorted(r.placements.values()) == [4, 4]  # still balanced


class TestFailureModes:
    def test_guest_deadlock_detected(self):
        src = """
        _start:
            la a0, cell
            li a1, 0
            li a2, 0
            li a7, 98      # futex_wait on value 0 (matches) — nobody wakes
            ecall
            li a7, 94
            ecall
        .data
        cell: .quad 0
        """
        with pytest.raises(SimulationError, match="deadlock"):
            Cluster(1).run(assemble(src), max_virtual_ms=100)

    def test_guest_ebreak_surfaces_as_fault(self):
        with pytest.raises(GuestFault, match="ebreak"):
            Cluster(1).run(assemble("_start:\n ebreak\n"), max_virtual_ms=100)

    def test_virtual_time_budget_enforced(self):
        src = "_start:\n j _start\n"
        with pytest.raises(SimulationError, match="budget"):
            Cluster(1).run(assemble(src), max_virtual_ms=1.0)


class TestDriver:
    """``Cluster._drive`` over both of the kernel's containers: work due now
    is pending work, and it never crosses a deadline."""

    @staticmethod
    def _driver(deadline_ns=None):
        cluster, sim = Cluster(0), Simulator()
        cluster._fleet = SimpleNamespace(sim=sim, deadline_ns=deadline_ns, active=[])
        return cluster, sim, SimpleNamespace(state=JobState.RUNNING)

    def test_work_due_now_is_not_a_deadlock(self):
        cluster, sim, job = self._driver()
        finish = sim.event()
        finish.add_callback(lambda _e: setattr(job, "state", JobState.FINISHED))
        finish.succeed()
        assert not sim._heap and sim.pending == 1
        cluster._drive([job])
        assert job.state is JobState.FINISHED

    def test_deadlock_once_both_containers_are_empty(self):
        cluster, sim, job = self._driver()
        sim.timeout(3).add_callback(lambda _e: sim.event().succeed())
        with pytest.raises(SimulationError, match="deadlocked at t=3 ns"):
            cluster._drive([job])
        assert sim.pending == 0

    def test_a_deadline_passes_after_the_work_due_at_it(self):
        cluster, sim, job = self._driver(deadline_ns=5)
        seen = []

        def chain(k):
            seen.append((sim.now, k))
            if k < 3:
                sim.timeout(0).add_callback(lambda _e: chain(k + 1))

        sim.timeout(5).add_callback(lambda _e: chain(0))
        sim.timeout(6).add_callback(lambda _e: seen.append("late"))
        with pytest.raises(SimulationError, match=r"budget exceeded \(5 ns\)"):
            cluster._drive([job])
        assert seen == [(5, 0), (5, 1), (5, 2), (5, 3)] and sim.now == 5


class TestDeterminism:
    def test_identical_runs_identical_virtual_time(self):
        prog = counter_program(4, 100, "mutex")
        r1 = Cluster(2).run(prog, max_virtual_ms=60_000)
        r2 = Cluster(2).run(prog, max_virtual_ms=60_000)
        assert r1.virtual_ns == r2.virtual_ns
        assert r1.stdout == r2.stdout
        assert r1.stats.protocol.page_requests == r2.stats.protocol.page_requests


class TestProtocolCounters:
    def test_counters_populated(self):
        prog = counter_program(4, 100, "mutex")
        r = Cluster(2).run(prog, max_virtual_ms=60_000)
        p = r.stats.protocol
        assert p.page_requests > 0
        assert p.write_requests > 0
        assert p.delegated_syscalls > 0
        assert p.invalidations > 0
        assert r.fabric.messages_sent > 0
        assert r.stats.insns_executed > 0

    def test_thread_breakdowns_cover_wall_time(self):
        prog = counter_program(2, 100, "mutex")
        r = Cluster(1).run(prog, max_virtual_ms=60_000)
        for ts in r.stats.threads.values():
            assert ts.execute_ns >= 0
            assert ts.busy_ns <= r.virtual_ns + 1
