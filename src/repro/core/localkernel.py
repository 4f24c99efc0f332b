"""Single-node fast syscall path (vanilla-QEMU baseline).

User-mode QEMU traps guest syscalls and issues the equivalent host syscall
directly — no delegation, no network.  This class gives the baseline node
the same behaviour: syscalls execute inline against a local
:class:`~repro.kernel.syscalls.SystemState`, futexes park/wake threads on
the node's own run queue, and clone always lands on this node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.gthread import GuestThread, GuestThreadState
from repro.core.migration import build_child_context
from repro.dbt.cpu import CPUState
from repro.kernel.syscalls import SyscallExecutor, SyscallResult, SystemState
from repro.kernel.sysnums import CLONE_CHILD_CLEARTID, CLONE_CHILD_SETTID, CLONE_PARENT_SETTID
from repro.mem.api import M64

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import NodeRuntime

__all__ = ["LocalKernel"]

A0 = 10


class LocalKernel:
    def __init__(self, node: "NodeRuntime", state: SystemState,
                 finish: Callable[[int], None]):
        self.node = node
        self.state = state
        self.finish = finish
        self.executor = SyscallExecutor(state, node)  # the node is the KernelMemory

    def handle(self, node: "NodeRuntime", th: GuestThread, sysno: int,
               args: tuple[int, ...]):
        cpu = th.cpu
        result: SyscallResult = yield from self.executor.execute(
            cpu.tid, node.node_id, sysno, args
        )

        if result.action == "clone":
            yield from self._clone(node, th, result)
            return
        if result.action == "migrate":
            # single-node baseline: affinity is trivially satisfied
            cpu.regs[A0] = 0
            node._requeue(th)
            return

        for waiter in result.woken:
            node._wake_thread(waiter.tid, 0)

        if result.action == "blocked":
            th.state = GuestThreadState.BLOCKED
            th.blocked_at = node.sim.now
            return
        if result.action == "exit":
            th.state = GuestThreadState.EXITED
            th.stats.finished_ns = node.sim.now
            cpu.halted = True
            node.threads.pop(cpu.tid, None)
            return
        if result.action == "exit_group":
            th.state = GuestThreadState.EXITED
            th.stats.finished_ns = node.sim.now
            self.finish(result.exit_status)
            return
        cpu.regs[A0] = result.retval & M64
        node._requeue(th)

    def _clone(self, node: "NodeRuntime", th: GuestThread, result: SyscallResult):
        clone = result.clone
        hint = th.cpu.hint_group
        ctid = clone.ctid if clone.flags & CLONE_CHILD_CLEARTID else 0
        rec = self.state.threads.create(
            node=node.node_id, parent_tid=clone.parent_tid, ctid=ctid, hint_group=hint
        )
        if clone.flags & CLONE_PARENT_SETTID and clone.ptid:
            yield from node.write_guest(clone.ptid, rec.tid.to_bytes(8, "little"))
        if clone.flags & CLONE_CHILD_SETTID and clone.ctid:
            yield from node.write_guest(clone.ctid, rec.tid.to_bytes(8, "little"))
        child_cpu = CPUState.from_snapshot(
            build_child_context(th.cpu.snapshot(), clone, rec.tid, hint)
        )
        node.add_thread(child_cpu)
        th.cpu.regs[A0] = rec.tid
        node._requeue(th)
