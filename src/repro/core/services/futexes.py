"""Master futex service: distributed wait/wake delivery (paper §4.4).

The distributed futex *table* lives in the kernel layer
(:class:`~repro.kernel.futex.FutexTable`, part of the centralized system
state); this service is the runtime half — parking a waiter's delegated
request and delivering ``FutexWake`` frames to each woken waiter's node.
The syscall service drives it from futex syscall results; no wire frame
routes here directly on the master.

Delivery mode follows ``DQEMUConfig.rpc_timeout_ns``: by default wakes are
fire-and-forget sends (the paper's lossless-fabric assumption, and the
cheapest thing that works).  With a timeout armed, each wake becomes an
acked request watched by a guarded process, so a wake swallowed by the
fabric fails the run loudly as a timeout naming the futex service
instead of leaving the waiter parked forever.  The node side mirrors the
same gate (:class:`~repro.core.services.nodeside.NodeControlService` only
acks wakes when timeouts are armed), keeping the default wire traffic —
and therefore every timing — bit-identical.
"""

from __future__ import annotations

from repro.core.services.base import MasterService
from repro.kernel.futex import Waiter
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

    def wake(self, waiters: list[Waiter]) -> None:
        """Deliver a ``FutexWake`` to each waiter's node."""
        proto = self.run_stats.protocol
        stats = self.run_stats.service(self.name)
        timeout_ns = self.config.rpc_timeout_ns
        for waiter in waiters:
            proto.futex_wakes += 1
            stats.requests += 1
            wake = FutexWake(tid=waiter.tid, retval=0)
            self._bill_frame(wake)
            if timeout_ns is None:
                self.send(waiter.node, wake)
            else:
                self.master.spawn(
                    self._await_ack(self.request(waiter.node, wake), waiter.node),
                    f"futex-wake-ack@tid{waiter.tid}",
                )

    def _await_ack(self, ack, peer: int):
        if (yield from self._reply_or_none(peer, ack)) is None:
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
