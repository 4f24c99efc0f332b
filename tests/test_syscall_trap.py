"""One syscall trap for every node (paper §4.3).

The local syscalls are served in ``NodeRuntime._local_syscall`` on every
node, the pure-QEMU baseline included; the global ones are answered with a
``SyscallReply`` the trap applies the same way whether the master or the
baseline's in-node kernel produced it.  One guest runs the eight local
syscalls on a worker thread, then clone, futex wait/wake and exit through
the join, on both; the guest-visible answers must agree.
"""

import functools
from dataclasses import dataclass

import pytest

from repro import Cluster
from repro.baselines import run_qemu
from repro.core.node import NodeRuntime
from repro.kernel.classify import LOCAL_SYSCALLS
from repro.kernel.sysnums import SYS
from repro.workloads.common import emit_fanout_main, workload_builder

SLEEP_NS = 1_000_500

#: The worker's answers, one quadword each, in this order.
ANSWERS = (
    "getpid", "gettid", "clock_sec", "clock_nsec", "clock_ret",
    "tod_sec", "tod_usec", "tod_ret", "sched_yield", "mprotect", "madvise",
    "nanosleep",
)
SLOT = {name: 8 * k for k, name in enumerate(ANSWERS)}


def trap_program():
    """main clones one worker and joins it (futex wait; the worker's exit
    wakes it), then prints the worker's answers one per line."""
    b = workload_builder()

    def post_join(bb):
        for name in ANSWERS:
            bb.la("t0", "out")
            bb.ld("a0", SLOT[name], "t0")
            bb.call("rt_print_u64_ln")
        bb.li("a0", 0)

    emit_fanout_main(b, 1, post_join=post_join)

    def syscall(sysno, store=None, **regs):
        for reg, value in regs.items():
            if isinstance(value, str):
                b.la(reg, value)
            else:
                b.li(reg, value)
        b.li("a7", sysno)
        b.ecall()
        if store is not None:
            b.la("t0", "out")
            b.sd("a0", SLOT[store], "t0")

    b.label("worker")
    b.addi("sp", "sp", -16)
    b.sd("ra", 8, "sp")
    syscall(SYS.GETPID, "getpid")
    syscall(SYS.GETTID, "gettid")
    b.la("t1", "out")
    b.addi("a1", "t1", SLOT["clock_sec"])
    syscall(SYS.CLOCK_GETTIME, "clock_ret", a0=0)
    b.la("t1", "out")
    b.addi("a0", "t1", SLOT["tod_sec"])
    syscall(SYS.GETTIMEOFDAY, "tod_ret", a1=0)
    syscall(SYS.SCHED_YIELD, "sched_yield")
    syscall(SYS.MPROTECT, "mprotect", a0=0, a1=0, a2=0)
    syscall(SYS.MADVISE, "madvise", a0=0, a1=0, a2=0)
    syscall(SYS.NANOSLEEP, "nanosleep", a0="sleep_spec", a1=0)
    b.li("a0", 0)
    b.ld("ra", 8, "sp")
    b.addi("sp", "sp", 16)
    b.ret()
    # sleep_spec shares a page with out, which the worker holds Modified by
    # then: reading the request faults nowhere, so the sleep is all it costs.
    b.data().align(8)
    b.label("sleep_spec").quad(SLEEP_NS // 1_000_000_000, SLEEP_NS % 1_000_000_000)
    b.label("out").quad(*([0] * len(ANSWERS)))
    b.text()
    return b.assemble()


@dataclass(frozen=True)
class Trap:
    """One local syscall as ``_local_syscall`` served it."""

    node: int
    tid: int
    sysno: int
    entered_ns: int
    left_ns: int


@functools.cache
def trapped_run(mode: str):
    """(answers by name, the worker's local-syscall traps by number) of one
    run on the baseline ("qemu") or a 2-slave cluster ("cluster")."""
    traps = []
    served = NodeRuntime._local_syscall

    def spy(node, th, sysno, args):
        entered = node.sim.now
        yield from served(node, th, sysno, args)
        traps.append(Trap(node.node_id, th.tid, sysno, entered, node.sim.now))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NodeRuntime, "_local_syscall", spy)
        result = run_qemu(trap_program()) if mode == "qemu" else Cluster(2).run(trap_program())
    assert result.exit_code == 0
    answers = dict(zip(ANSWERS, map(int, result.stdout.split())))
    return answers, {t.sysno: t for t in traps}, result.stats.protocol


@pytest.fixture(params=["qemu", "cluster"])
def run(request):
    return (request.param, *trapped_run(request.param)[:2])


class TestSyscallTrapParity:
    def test_every_local_syscall_is_served_in_the_trap(self, run):
        mode, _, traps = run
        assert set(traps) == LOCAL_SYSCALLS
        nodes = {t.node for t in traps.values()}
        if mode == "qemu":
            assert nodes == {0}
        else:  # the worker is cloned onto a slave and traps there
            assert len(nodes) == 1 and 0 not in nodes

    def test_getpid_and_gettid(self, run):
        _, answers, traps = run
        assert answers["getpid"] == 1
        assert answers["gettid"] == traps[SYS.GETTID].tid == 2  # main is tid 1

    def test_clocks_read_virtual_time_at_the_trap(self, run):
        _, answers, traps = run
        clock_at = traps[SYS.CLOCK_GETTIME].entered_ns
        assert answers["clock_sec"] * 10**9 + answers["clock_nsec"] == clock_at
        tod_at = traps[SYS.GETTIMEOFDAY].entered_ns
        assert answers["tod_sec"] * 10**6 + answers["tod_usec"] == tod_at // 1000
        assert answers["clock_ret"] == answers["tod_ret"] == 0

    def test_sched_yield_and_memory_hints_return_zero(self, run):
        _, answers, _ = run
        assert answers["sched_yield"] == answers["mprotect"] == answers["madvise"] == 0

    def test_nanosleep_advances_virtual_time_by_the_request(self, run):
        _, answers, traps = run
        sleep = traps[SYS.NANOSLEEP]
        assert answers["nanosleep"] == 0
        assert sleep.left_ns - sleep.entered_ns == SLEEP_NS


def test_guest_visible_answers_agree_across_modes():
    """Everything but the clock readings is identical on the baseline and a
    2-slave cluster (the clocks differ only because the cluster is slower);
    only the cluster delegates."""
    (qemu, _, qemu_proto), (cluster, _, cluster_proto) = map(trapped_run, ("qemu", "cluster"))
    clocks = {"clock_sec", "clock_nsec", "tod_sec", "tod_usec"}
    assert {k: v for k, v in qemu.items() if k not in clocks} == {
        k: v for k, v in cluster.items() if k not in clocks
    }
    assert qemu_proto.delegated_syscalls == 0 < cluster_proto.delegated_syscalls
