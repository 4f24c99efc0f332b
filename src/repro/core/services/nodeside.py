"""Slave-side services: the node communicator's protocol subsystems.

Every node's communicator process is a dispatcher over three services
mirroring the master-side decomposition: the coherence client (invalidate /
write-back / forwarded pages), the split-table client, and thread control
(remote spawn, futex wake, drain order, shutdown).  Services keep a
reference to their :class:`~repro.core.node.NodeRuntime` because the state
they act on (page store, run queue, guest threads) is shared with the
execution engine.

Beside them, :class:`NodeFailureDomain` owns a slave's drain, built when
the drain order lands; it handles no frame, so no dispatcher knows it.

Every handler resolves the frame's tenant bundle first: page stores, split
tables and thread tables are per-job namespaces on a multi-tenant node, and
a master command only ever touches the slice of the job that sent it.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.dbt.cpu import CPUState
from repro.mem.msi import MSIState
from repro.mem.splitmap import SplitEntry
from repro.net.messages import (
    Ack,
    DrainComplete,
    EvacuateThread,
    InvalidateAck,
    SpawnAck,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gthread import GuestThread
    from repro.core.node import NodeRuntime, NodeTenant

__all__ = [
    "NodeCoherenceService",
    "NodeSplitTableService",
    "NodeControlService",
    "NodeFailureDomain",
]


class _NodeService:
    """Shared plumbing: a per-kind method table over the owning node."""

    name = "node"
    handled_kinds: frozenset[str] = frozenset()

    def __init__(self, node: "NodeRuntime") -> None:
        self.node = node
        self.endpoint = node.endpoint

    def _bundle(self, msg) -> "NodeTenant":
        return self.node.bundle(msg.tenant)

    def handle(self, msg):
        yield from getattr(self, "_on_" + msg.kind)(msg)


class NodeCoherenceService(_NodeService):
    """Coherence commands from the master against the local page store."""

    name = "node.coherence"
    handled_kinds = frozenset({"invalidate", "write_back", "page_push"})

    def _on_invalidate(self, msg):
        bundle = self._bundle(msg)
        data = bundle.memory.invalidate(msg.page)
        bundle.engine.cache.invalidate_page(msg.page)
        self.endpoint.reply(msg, InvalidateAck(page=msg.page, data=data))
        return
        yield  # pragma: no cover - generator protocol

    def _on_write_back(self, msg):
        store = self._bundle(msg).memory.pages
        # An Exclusive copy that was never written is clean by definition —
        # the master's home copy is still current, so the downgrade acks
        # without the 4 KiB payload (MESI's cheap E→S).  A silently
        # upgraded copy is Modified by then and writes back as usual.
        # The Shared copy left behind is the snapshot sent: node, frame
        # and home hold one buffer.
        clean = store.state(msg.page) is MSIState.EXCLUSIVE
        store.set_state(msg.page, MSIState.SHARED)
        data = None if clean else store.snapshot(msg.page)
        self.endpoint.reply(msg, InvalidateAck(page=msg.page, data=data))
        return
        yield  # pragma: no cover - generator protocol

    def _on_page_push(self, msg):
        bundle = self._bundle(msg)
        store = bundle.memory.pages
        if store.state(msg.page) is MSIState.INVALID:
            store.install(msg.page, msg.data, MSIState.SHARED)
            gate = bundle.push_gates.pop(msg.page, None)
            if gate is not None and not gate.triggered:
                gate.succeed()
        return
        yield  # pragma: no cover - generator protocol


class NodeSplitTableService(_NodeService):
    """Split-table broadcasts: keep the local shadow-page table current."""

    name = "node.split_table"
    handled_kinds = frozenset({"split_table_update"})

    def _on_split_table_update(self, msg):
        self._apply_split_table(self._bundle(msg), msg.entries)
        self.endpoint.reply(msg, Ack())
        return
        yield  # pragma: no cover - generator protocol

    @staticmethod
    def _apply_split_table(
        bundle: "NodeTenant", entries: tuple[SplitEntry, ...]
    ) -> None:
        """Install the master's full split table, dropping stale copies."""
        memory = bundle.memory
        new = {e.orig_page: e for e in entries}
        old = {e.orig_page: e for e in memory.split.entries()}
        for orig, entry in old.items():
            if orig not in new:
                # merged back: local shadow copies are stale
                memory.split.remove(orig)
                for shadow in entry.shadow_pages:
                    memory.invalidate(shadow)
        for orig, entry in new.items():
            if orig not in old:
                memory.split.install(entry)
                memory.invalidate(orig)


class NodeControlService(_NodeService):
    """Thread control: remote spawns, futex wakeups, drain, and shutdown."""

    name = "node.control"
    handled_kinds = frozenset(
        {"spawn_thread", "futex_wake", "start_drain", "shutdown"}
    )

    def _on_spawn_thread(self, msg):
        cpu = CPUState.from_snapshot(msg.context)
        self.node.add_thread(cpu, tenant=msg.tenant)
        self.endpoint.reply(msg, SpawnAck(tid=msg.tid))
        return
        yield  # pragma: no cover - generator protocol

    def _on_futex_wake(self, msg):
        self.node._wake_thread(msg.tid, msg.retval, tenant=msg.tenant)
        self.endpoint.rpc.acknowledge(msg)  # a notification (FutexService.wake)
        return
        yield  # pragma: no cover - generator protocol

    def _on_start_drain(self, msg):
        # Cooperative drain (docs/PROTOCOL.md "Failure domains"): from now
        # on every thread reaching a scheduling point is evacuated back to
        # the master instead of being run or requeued.  Coherence service
        # stays up — the node's pages migrate away lazily.
        domain = self.node.failure_domain = NodeFailureDomain(self.node)
        self.endpoint.reply(msg, Ack())
        domain.check_drain_complete()
        return
        yield  # pragma: no cover - generator protocol

    def _on_shutdown(self, msg):
        # Tenant-scoped: the sending job is over, but the node — and any
        # other job running on it — lives on.  Threads of the finished
        # tenant leave the node here; one still queued or mid-quantum is
        # dropped by its core at its next scheduling point (via the
        # bundle's finished flag); no
        # sentinel goes into the run queue, so the cores survive to serve
        # the remaining tenants.  (In a single-job run the master's
        # ``done`` fires before this frame is even delivered, so the old
        # whole-node shutdown was already dead code on that path.)
        bundle = self._bundle(msg)
        bundle.finished = True
        for th in list(bundle.threads.values()):
            self.node.leave(th, "job finished")
        self.endpoint.reply(msg, Ack())
        return
        yield  # pragma: no cover - generator protocol


class NodeFailureDomain:
    """A slave's cooperative drain (docs/PROTOCOL.md "Failure domains").

    Built when the master's ``StartDrain`` order lands, so a node has one
    exactly while it drains: from then on every thread reaching a
    scheduling point (requeued or dequeued) is evacuated instead of run."""

    def __init__(self, node: "NodeRuntime") -> None:
        self.node = node
        self.evacuating = 0  # evacuation RPCs still in flight
        self.drain_sent = False

    def evacuates(self, th: "GuestThread") -> bool:
        """True if ``th``, at a scheduling point (requeued or just dequeued),
        was evacuated instead of run."""
        if not self.node.shutdown:
            self.evacuate(th)
            return True
        return False

    # -- drain evacuation -------------------------------------------------------

    def evacuate(self, th: "GuestThread") -> None:
        """Hand a thread back to the master, whose failure-domain service
        lands it on a usable node."""
        node = self.node
        self.evacuating += 1
        node.leave(th, "evacuating (drain)")
        node.spawn(self._evacuate_rpc(th.cpu, node.tenants[th.tenant]), f"evac@{node.node_id}")

    def _evacuate_rpc(self, cpu, bundle: "NodeTenant"):
        node = self.node
        yield node._request(
            bundle, NodeControlService.name, node.master_id,
            EvacuateThread(tid=cpu.tid, context=cpu.snapshot(), tenant=bundle.tenant),
        )
        self.evacuating -= 1
        self.check_drain_complete()

    def check_drain_complete(self) -> None:
        """Announce drain completion once no thread remains on this node.

        Parked threads stay local until their futex wake diverts them, so a
        drain completes lazily — when the last local incarnation is gone and
        every evacuation RPC has been acknowledged."""
        node = self.node
        if (
            self.drain_sent
            or node.shutdown
            or any(b.threads for b in node.tenants.values())
            or self.evacuating
        ):
            return
        self.drain_sent = True
        node.spawn(self._send_drain_complete(), f"drained@{node.node_id}")

    def _send_drain_complete(self):
        node = self.node
        done = DrainComplete()  # drains are single-job (tenant 0) territory
        ack = node.endpoint.rpc.notify(
            node.master_id, done, partial(node._request, node.tenants[0], NodeControlService.name)
        )
        if ack is not None:
            yield ack
