"""Per-peer health tracking fed by the RPC reliability layer.

The retransmit layer (:mod:`repro.net.rpc`) distinguishes three things about
a peer: it answered (heard from), it missed a timeout window and forced a
retransmit (maybe slow, maybe gone), or it exhausted a call's whole retry
budget (as good as dead for that call).  This module turns those signals
into a cluster-wide per-peer view — :class:`PeerState` ``up`` / ``suspect``
/ ``down`` with consecutive-failure counts and last-heard-from timestamps —
so experiments and services can tell a slow peer from a dead one without
parsing exception strings.

One :class:`HealthTracker` serves the whole cluster: every endpoint's
:class:`~repro.net.rpc.RpcChannel` reports into it through
``Fabric.health`` (mirroring how ``Fabric.fault_stats`` is attached), and
entries are keyed by the *peer being judged*, merging observations from all
of its clients.  The tracker is pure bookkeeping — it never schedules a
simulator event — so attaching it cannot perturb event ordering, and every
run (retries armed or not) can carry one for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from repro.sim.engine import Simulator

__all__ = ["PeerState", "PeerHealth", "HealthTracker", "ClusterHealthView"]


class PeerState(str, Enum):
    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"


@dataclass
class PeerHealth:
    """One peer's record, merged across every endpoint that talks to it."""

    node: int
    state: PeerState = PeerState.UP
    #: Timeout windows missed since the peer last answered anyone.
    consecutive_failures: int = 0
    retransmits: int = 0  # retransmits ever aimed at this peer
    recoveries: int = 0  # calls that recovered after retransmitting to it
    exhausted: int = 0  # calls that ran out their whole retry budget
    #: Whole heartbeat leases that expired with no renewal (0 unless the
    #: heartbeat detector is armed; see repro.core.services.heartbeat).
    lease_misses: int = 0
    last_heard_ns: Optional[int] = None
    last_failure_ns: Optional[int] = None
    #: The failure signal that caused (or would cause) the most recent
    #: demotion: "rpc-timeout" (missed retransmit windows / exhausted
    #: budgets) or "lease-expiry" (the heartbeat monitor).  Read at the
    #: DOWN transition to attribute which evidence fired first.
    last_evidence: str = ""
    #: ``on_down`` already fired for this peer.  Exactly-once latch:
    #: racing rpc-timeout and lease-expiry evidence — or a heal/re-demote
    #: cycle against an already-latched failure — must not re-run the
    #: failure domain's recovery for the same peer.
    down_reported: bool = False


@dataclass
class HealthTracker:
    """Cluster-wide peer states: up until proven slow, down when exhausted.

    ``suspect_after`` consecutive missed timeout windows demote a peer to
    ``suspect``; ``down_after`` (or any call exhausting its retry budget)
    demote it to ``down``.  Any answered call resets the peer to ``up`` —
    a healed partition heals the health view too.
    """

    sim: Simulator
    suspect_after: int = 2
    down_after: int = 5
    peers: dict[int, PeerHealth] = field(default_factory=dict)
    #: Called with the peer's node id each time a peer *transitions* into
    #: DOWN (not on repeat confirmations).  The master's failure detector
    #: subscribes here to promote peer-level DOWN into a cluster-level
    #: NodeFailed event.  Callbacks run synchronously inside the RPC timer
    #: expiry, *before* the failing call's exception is delivered, so by the
    #: time a handler observes the timeout the cluster view already reflects
    #: the failure.
    on_down: list[Callable[[int], None]] = field(default_factory=list)

    def peer(self, node: int) -> PeerHealth:
        if node not in self.peers:
            self.peers[node] = PeerHealth(node=node)
        return self.peers[node]

    def _went_down(self, p: PeerHealth, was: PeerState) -> None:
        if was is PeerState.DOWN or p.state is not PeerState.DOWN:
            return
        if p.down_reported:
            return
        # Latch before notifying: a callback that re-enters the tracker
        # (the failure domain aborts pending calls, which can record more
        # evidence against the same peer) must not re-fire.
        p.down_reported = True
        for cb in list(self.on_down):
            cb(p.node)

    # -- signals from the RPC layer ------------------------------------------

    def heard_from(self, node: int) -> None:
        p = self.peers.get(node) or self.peer(node)
        p.last_heard_ns = self.sim.now
        p.consecutive_failures = 0
        p.state = PeerState.UP

    def record_success(self, node: int) -> None:
        """Positive liveness evidence from any source — an answered RPC, a
        heartbeat lease renewal: resets the peer to ``up``.  A
        slow-but-alive node that was ``suspect`` (or even transiently
        ``down``) recovers the moment it proves itself again."""
        self.heard_from(node)

    def retransmitted(self, node: int) -> None:
        p = self.peer(node)
        was = p.state
        p.retransmits += 1
        p.consecutive_failures += 1
        p.last_failure_ns = self.sim.now
        p.last_evidence = "rpc-timeout"
        if p.consecutive_failures >= self.down_after:
            p.state = PeerState.DOWN
        elif p.consecutive_failures >= self.suspect_after:
            p.state = PeerState.SUSPECT
        self._went_down(p, was)

    def recovered(self, node: int) -> None:
        p = self.peer(node)
        p.recoveries += 1
        # heard_from() runs alongside and resets state/failure counts.

    def exhausted_budget(self, node: int) -> None:
        p = self.peer(node)
        was = p.state
        p.exhausted += 1
        p.last_failure_ns = self.sim.now
        p.last_evidence = "rpc-timeout"
        p.state = PeerState.DOWN
        self._went_down(p, was)

    # -- signals from the heartbeat monitor ----------------------------------

    def lease_missed(self, node: int) -> None:
        """A whole heartbeat lease expired with no renewal: failure
        evidence, escalated through the same consecutive-failure
        thresholds as a missed RPC timeout window — heartbeat and RPC
        evidence merge in one view instead of forking a second health
        state (docs/PROTOCOL.md "Failure detection")."""
        p = self.peer(node)
        was = p.state
        p.lease_misses += 1
        p.consecutive_failures += 1
        p.last_failure_ns = self.sim.now
        p.last_evidence = "lease-expiry"
        if p.consecutive_failures >= self.down_after:
            p.state = PeerState.DOWN
        elif p.consecutive_failures >= self.suspect_after:
            p.state = PeerState.SUSPECT
        self._went_down(p, was)

    # -- queries ----------------------------------------------------------------

    def down_evidence(self, node: int) -> str:
        """Which evidence demoted ``node``: "rpc-timeout" or "lease-expiry".

        Defaults to "rpc-timeout" for peers with no recorded evidence —
        the only demotion path that existed before evidence tracking.
        """
        p = self.peers.get(node)
        if p is None or not p.last_evidence:
            return "rpc-timeout"
        return p.last_evidence

    def state_of(self, node: int) -> PeerState:
        p = self.peers.get(node)
        return p.state if p is not None else PeerState.UP

    def states(self) -> dict[int, PeerState]:
        return {node: p.state for node, p in sorted(self.peers.items())}

    def describe(self) -> str:
        if not self.peers:
            return "no peers observed"
        return "; ".join(
            f"n{node}={p.state.value}"
            f"(fails={p.consecutive_failures}, retx={p.retransmits})"
            for node, p in sorted(self.peers.items())
        )


@dataclass
class ClusterHealthView:
    """Cluster-level failure view layered over the per-peer tracker.

    The :class:`HealthTracker` state is transient — an answered call heals a
    ``down`` peer back to ``up`` — which is the right semantics for a
    partition but the wrong one for a crash: a node declared *failed* must
    stay failed even if a stale reply trickles in.  The view therefore keeps
    two latched sets on top of the tracker: ``failed`` (crashed nodes the
    failure detector gave up on) and ``draining`` (nodes being evacuated
    cooperatively; healthy, but closed for new placements).

    Shared by the :class:`~repro.core.scheduler.ThreadPlacer` and the
    master's degradation-aware services; pure bookkeeping, no simulator
    events.
    """

    tracker: HealthTracker
    failed: set[int] = field(default_factory=set)
    draining: set[int] = field(default_factory=set)

    # -- state transitions (master failure detector) -------------------------

    def mark_failed(self, node: int) -> None:
        self.failed.add(node)
        self.draining.discard(node)

    def mark_draining(self, node: int) -> None:
        if node not in self.failed:
            self.draining.add(node)

    # -- queries -------------------------------------------------------------

    def is_failed(self, node: int) -> bool:
        return node in self.failed

    def is_draining(self, node: int) -> bool:
        return node in self.draining

    def is_suspect(self, node: int) -> bool:
        return self.tracker.state_of(node) is PeerState.SUSPECT

    def unusable_reason(self, node: int) -> Optional[str]:
        """Why this node must not receive new work (None = usable)."""
        if node in self.failed:
            return "down"
        if node in self.draining:
            return "draining"
        if self.tracker.state_of(node) is PeerState.DOWN:
            return "down"
        return None

    def usable(self, node: int) -> bool:
        return self.unusable_reason(node) is None

    def state_of(self, node: int) -> PeerState:
        if node in self.failed:
            return PeerState.DOWN
        return self.tracker.state_of(node)
