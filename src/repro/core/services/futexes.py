"""Master futex service: distributed wait/wake delivery (paper §4.4).

The distributed futex *table* lives in the kernel layer
(:class:`~repro.kernel.futex.FutexTable`, part of the centralized system
state); this service is the runtime half — parking a waiter's delegated
request and delivering ``FutexWake`` frames to each woken waiter's node.
The syscall service drives it from futex syscall results; no wire frame
routes here directly on the master.

A wake is a *notification* (:meth:`~repro.net.rpc.RpcChannel.notify`): the
RPC channel decides how it travels.  By default it is a fire-and-forget
send (the paper's lossless-fabric assumption, and the cheapest thing that
works); where timeouts are armed it is an acked request watched by a guarded
process, so a wake swallowed by the fabric fails the run loudly as a
timeout naming the futex service instead of leaving the waiter parked
forever.  The node acknowledges it through the same channel rule, so the
default wire traffic — and therefore every timing — stays bit-identical.
"""

from __future__ import annotations

from repro.core.services.base import MasterService
from repro.kernel.threads import ThreadRecord
from repro.net.messages import FutexWake, Message, SyscallReply

__all__ = ["FutexService"]


class FutexService(MasterService):
    name = "futex"
    handled_kinds = frozenset()  # internal: driven by the syscall service

    def _bill_frame(self, msg: Message) -> None:
        """Attribute a delivered frame's wire-serialization time as busy time.

        Wake delivery and park replies have no handler span of their own
        (they run inside the syscall service's dispatch), so their master-link
        consumption is billed as the frame's serialization cost on the shared
        uplink — without advancing the clock, which keeps every existing run
        bit-identical while making futex-heavy load visible in the service
        breakdown instead of reporting busy_ns = 0.
        """
        stats = self.run_stats.service(self.name)
        stats.busy_ns += self.endpoint.fabric.serialization_ns(msg.size_bytes())

    def wake(self, woken: list[ThreadRecord]) -> None:
        """Deliver a ``FutexWake`` to each woken thread's node."""
        proto = self.run_stats.protocol
        stats = self.run_stats.service(self.name)
        for rec in woken:
            proto.futex_wakes += 1
            stats.requests += 1
            wake = FutexWake(tid=rec.tid, retval=0)
            self._bill_frame(wake)
            ack = self.notify(rec.node, wake)
            if ack is not None:
                self.master.spawn(
                    self._await_ack(ack), f"futex-wake-ack@tid{rec.tid}"
                )

    def _await_ack(self, ack):
        if (yield from self._reply_or_none(ack)) is None:
            # The sleeper's node died before the wake landed; the recovery
            # pass owns that thread's fate now (evacuated or reaped), so a
            # lost wake is accounting, not an abort.
            self.run_stats.protocol.lost_wakes += 1

    def park(self, msg: Message) -> None:
        """Answer a delegated ``futex_wait`` with a parked reply."""
        self.run_stats.protocol.futex_waits += 1
        self.run_stats.service(self.name).requests += 1
        reply = SyscallReply(parked=True)
        self._bill_frame(reply)
        self.endpoint.reply(msg, reply)
