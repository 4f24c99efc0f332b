"""Global syscall execution (paper §4.3): the master's delegated-syscall
service and the pure-QEMU baseline's in-node kernel.  Both answer with a
``SyscallReply`` that the node's syscall trap applies the same way.

:class:`SyscallService` executes each ``syscall_request`` against the
centralized system state, migrating pointer-argument pages home through the
coherence layer's guest-memory accessor.  Thread-lifecycle results (clone
placement, live migration, exit_group) are resolved here; futex park/wake
delivery is delegated to the futex service.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.migration import create_child, returning_zero
from repro.core.services.base import MasterService
from repro.core.services.coherence import CoherentGuestMemory
from repro.dbt.cpu import CPUState
from repro.kernel.syscalls import SyscallExecutor, SyscallResult, SystemState
from repro.kernel.sysnums import ERRNO, sys_name
from repro.net.messages import SyscallReply

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gthread import GuestThread
    from repro.core.master import MasterRuntime
    from repro.core.node import NodeRuntime

__all__ = ["SyscallService", "LocalKernel"]


class SyscallService(MasterService):
    name = "syscall"
    handled_kinds = frozenset({"syscall_request"})

    def __init__(self, master: "MasterRuntime") -> None:
        super().__init__(master)
        self.state = master.state
        self.guest_mem = CoherentGuestMemory(master)
        self.executor = SyscallExecutor(self.state, self.guest_mem)

    # -- delegated syscalls (§4.3) ---------------------------------------------------

    def handle(self, msg):
        yield self.sim.sleep(self.config.cost.syscall_service_ns)
        self.trace.emit("syscall", msg.src, sys_name(msg.sysno), tid=msg.tid)
        result: SyscallResult = yield from self.executor.execute(
            msg.tid, msg.src, msg.sysno, msg.args
        )

        if result.action == "clone":
            yield from self._handle_clone(msg, result)
            return
        if result.action == "migrate":
            yield from self._handle_migrate(msg, result)
            return

        self.master.futexes.wake(result.woken)

        if result.action == "blocked":
            rec = self.state.threads.get(msg.tid)
            if rec.exit_status is not None:
                # The node died mid-call and the recovery pass already reaped
                # this thread as lost: un-park it, no reply to the corpse.
                self.state.futexes.remove(rec)
                self.run_stats.protocol.dead_peer_skips += 1
                return
            # A parked thread's context lives on its master record, which
            # is what makes it evacuable after its node dies
            # (docs/PROTOCOL.md "Failure domains").
            rec.context = msg.context
            self.master.futexes.park(msg)
        elif result.action == "exit":
            self.endpoint.reply(msg, SyscallReply(exited=True))
        elif result.action == "exit_group":
            self.endpoint.reply(msg, SyscallReply(exited=True))
            self.master.finish(result.exit_status)
        else:
            self.endpoint.reply(msg, SyscallReply(retval=result.retval))

    def _handle_clone(self, msg, result: SyscallResult):
        hint = msg.context.get("hint_group")
        node_id = self.master.placer.place(hint)
        tid, child = yield from create_child(
            self.state, self.guest_mem, msg.context, result.clone, node_id
        )
        node_id = yield from self.land(tid, child, node_id, f"clone: placed (hint={hint})")
        if node_id != self.node_id:
            self.run_stats.protocol.remote_thread_spawns += 1
        self.endpoint.reply(msg, SyscallReply(retval=tid))

    def _handle_migrate(self, msg, result: SyscallResult):
        """Live thread migration (sched_setaffinity): re-place the calling
        thread.  The syscall request already carries the CPU context, so the
        move reuses the remote-creation path: ship the context to the target
        node and tell the source node to forget the thread.  The thread's
        data follows through the coherence protocol, as at creation (§4.1).
        """
        target = result.migrate_to
        unusable = self.view is not None and not self.view.usable(target)
        if target not in self.master.node_ids or unusable:
            # Unknown node, or a known-dead/draining one: migrating there
            # would strand the thread, so the guest gets EINVAL either way.
            self.endpoint.reply(
                msg, SyscallReply(retval=(-ERRNO.EINVAL) & 0xFFFF_FFFF_FFFF_FFFF)
            )
            return
        if target == msg.src:
            self.endpoint.reply(msg, SyscallReply(retval=0))
            return
        yield from self.land(
            msg.tid, returning_zero(msg.context), target, f"migrated from n{msg.src}"
        )
        self.run_stats.protocol.thread_migrations += 1
        self.endpoint.reply(msg, SyscallReply(migrated=True))


class LocalKernel:
    """The pure-QEMU baseline's global syscalls, executed in the node's trap.

    User-mode QEMU issues the host syscall directly, so this bills no wire
    or service time: it executes against the job's own :class:`SystemState`,
    wakes futex waiters on the node's own run queue and starts every clone
    child on this node.  ``exit_group`` stops the node and fires ``done``,
    the job's completion event, with the exit status.
    """

    def __init__(self, node: "NodeRuntime", state: SystemState):
        self.node = node
        self.state = state
        self.done = node.sim.event()
        self.executor = SyscallExecutor(state, node)  # the node is the KernelMemory

    def execute(self, th: "GuestThread", sysno: int, args: tuple[int, ...]):
        """Run one global syscall; returns the :class:`SyscallReply` the trap
        applies, exactly as it would apply the master's."""
        node = self.node
        result: SyscallResult = yield from self.executor.execute(
            th.tid, node.node_id, sysno, args
        )
        action = result.action
        if action == "clone":
            tid, child = yield from create_child(
                self.state, node, th.cpu.snapshot(), result.clone, node.node_id
            )
            node.add_thread(CPUState.from_snapshot(child), th.tenant)
            return SyscallReply(retval=tid)
        if action == "migrate":
            return SyscallReply()  # one node: affinity is trivially satisfied
        for rec in result.woken:
            node._wake_thread(rec.tid, 0, th.tenant)
        if action == "blocked":
            return SyscallReply(parked=True)
        if action == "exit_group":
            node.shutdown = True
            for _ in range(node.n_cores):
                node.runqueue.put(None)
            if not self.done.triggered:
                self.done.succeed(result.exit_status & 0xFF)
        if action in ("exit", "exit_group"):
            return SyscallReply(exited=True)
        return SyscallReply(retval=result.retval)
