"""Active liveness: lease-based heartbeat failure detection
(docs/PROTOCOL.md "Failure detection").

The failure detector that shipped with the failure domain is *passive*: it
only learns a peer died when some RPC aimed at it times out.  A crash on a
quiet victim — a node nobody happens to call — therefore goes undetected
and the join hangs forever (ROADMAP, pre-existing since PR 5).  This module
adds the active half:

* :class:`NodeHeartbeatService` (node side) — every slave sends a
  fire-and-forget :class:`~repro.net.messages.Heartbeat` frame to the
  master every ``heartbeat_interval_ns`` of virtual time.  No reply, no
  retransmit state: nothing ever accumulates against a corpse, and the
  frames ride the fabric's fault seam so drop/delay/duplicate/partition
  plans exercise the detector directly.

* :class:`HeartbeatService` (master side) — each renewal re-arms a
  per-peer lease (``heartbeat_lease_ns`` of tolerated silence)
  and feeds the shared :class:`~repro.net.health.HealthTracker` as
  positive evidence.  A monitor process checks every interval; a peer
  whose lease has expired accrues one *missed-lease* count per check,
  escalated through the same ``suspect_after`` / ``down_after``
  thresholds as missed RPC timeout windows — heartbeat and RPC evidence
  merge in one health view instead of forking a second one.  The DOWN
  transition fires the tracker's ``on_down`` callbacks, driving
  :meth:`FailureDomainService.node_failed` exactly as an RPC-detected
  death does: directory re-homing, waiter evacuation and reaping all
  run without any tenant traffic touching the corpse.

Detection latency is bounded by
:meth:`DQEMUConfig.heartbeat_detection_bound_ns`: one in-flight renewal's
wire latency, plus a full lease, plus ``HealthTracker.down_after`` (+1 tick of
phase) monitor intervals.  Because the lease covers four intervals and
misses escalate through ``suspect`` first, a single delayed, dropped or
duplicated renewal can never false-positive a healthy node, and
a renewal that lands before the DOWN threshold demotes suspicion back to
``up``.

Both halves are built only when ``heartbeat_interval_ns`` is set, so
default runs create no service rows, send no frames, and stay
bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.services.base import MasterService
from repro.net.messages import Heartbeat

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime
    from repro.core.node import NodeRuntime

__all__ = ["HeartbeatService", "NodeHeartbeatService"]


class HeartbeatService(MasterService):
    """Master half: per-peer lease tracking on the simulated clock."""

    name = "heartbeat"
    handled_kinds = frozenset({"heartbeat"})
    originates_requests = False  # only receives

    def __init__(self, master: "MasterRuntime") -> None:
        super().__init__(master)
        self.interval_ns = self.config.heartbeat_interval_ns
        self.lease_ns = self.config.heartbeat_lease_ns
        #: Per-peer lease expiry on the simulated clock: the instant after
        #: which silence becomes failure evidence.
        self.deadlines: dict[int, int] = {}

    def start(self) -> None:
        """Arm every slave's initial lease and spawn the monitor.

        The first renewal arrives one interval (plus wire latency) after
        boot; the lease invariant (>= 2 intervals) guarantees the initial
        grant outlives it, so a healthy slave never starts suspected.
        """
        for nid in self.master.node_ids:
            if nid != self.node_id:
                self.deadlines[nid] = self.sim.now + self.lease_ns
        self.master.spawn(
            self._monitor(), f"heartbeat-monitor@{self.node_id}"
        )

    def _monitor(self):
        """Check every peer's lease once per renewal interval.

        Each check of an expired lease is one unit of failure evidence —
        the analogue of one missed RPC timeout window — so a peer goes
        ``up -> suspect -> down`` over ``HealthTracker.down_after`` silent
        intervals rather than being shot on first expiry.
        """
        while True:
            yield self.sim.sleep(self.interval_ns)
            if self.master.finished:
                return
            for nid in sorted(self.deadlines):
                if self.view.is_failed(nid):
                    continue  # already latched; recovery ran
                if self.sim.now < self.deadlines[nid]:
                    continue
                was = self.view.state_of(nid)
                # Lease evidence is booked per peer (lease_misses) and
                # merges with RPC evidence in the one tracker.
                # May fire on_down synchronously -> FailureDomainService
                # .node_failed, exactly as an exhausted RPC budget does.
                self.view.lease_missed(nid)
                now_state = self.view.state_of(nid)
                if now_state is not was:
                    overdue = self.sim.now - self.deadlines[nid]
                    self.trace.emit(
                        "node", nid,
                        f"lease overdue {overdue}ns: "
                        f"{was.value} -> {now_state.value}",
                    )

    # -- inbound frames ---------------------------------------------------------

    def handle(self, msg):
        # A posthumous renewal (delayed in the fabric, or racing the
        # detector) is refused at dispatch: it must not resurrect a
        # latched-failed peer whose state recovery already re-homed.
        self.deadlines[msg.src] = self.sim.now + self.lease_ns
        self.run_stats.protocol.heartbeats_received += 1
        # Positive liveness evidence: demotes suspect back to up, exactly
        # as an answered RPC would.
        self.view.heard_from(msg.src)
        return
        yield  # pragma: no cover - generator protocol


class NodeHeartbeatService:
    """Node half: the periodic lease-renewal sender.

    Not a frame handler — the master never messages the sender — so no
    dispatcher knows it; its stats row exists exactly when it does.  Master
    node 0 never sends: its liveness is axiomatic (the cluster has no run
    without it).
    """

    name = "node.heartbeat"

    def __init__(self, node: "NodeRuntime") -> None:
        self.node = node
        self.seq = 0

    def start(self) -> None:
        node = self.node
        node.spawn(self._sender(), f"heartbeat@{node.node_id}")

    def _sender(self):
        node = self.node
        interval = node.config.heartbeat_interval_ns
        stats = node.run_stats.service(self.name)
        proto = node.run_stats.protocol
        while not node.crashed and not node.shutdown:
            yield node.sim.sleep(interval)
            if node.crashed or node.shutdown:
                return
            self.seq += 1
            stats.requests += 1
            proto.heartbeats_sent += 1
            node.endpoint.send(node.master_id, Heartbeat(seq=self.seq))
