"""Cluster-wide peer health, fed by the RPC reliability layer and the
heartbeat monitor.

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
of its clients.  It is also the master's failure view: the failure domain
latches nodes ``failed`` or ``draining`` in it, and the placer and services
ask it which nodes may take new work.  The tracker is pure bookkeeping — it
never schedules a simulator event — so attaching it cannot perturb event
ordering, and every run (retries armed or not) can carry one for free.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from repro.sim.engine import Simulator

__all__ = ["PeerState", "PeerHealth", "HealthTracker"]


class PeerState(str, Enum):
    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"


@dataclass
class PeerHealth:
    """One peer's record, merged across every endpoint that talks to it."""

    node: int
    state: PeerState = PeerState.UP
    #: Missed windows (RPC timeouts or expired leases) since the peer last
    #: answered anyone.
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
    """Cluster-wide peer health: transient states plus two latched sets.

    ``suspect_after`` consecutive missed windows — RPC timeout windows and
    expired heartbeat leases alike — demote a peer to ``suspect``;
    ``down_after`` (or any call exhausting its retry budget) demote it to
    ``down``.  Any answered call or lease renewal resets the peer to ``up``
    — a healed partition heals the health view too.

    That is the wrong semantics for a crash: a node declared *failed* must
    stay failed even if a stale reply trickles in.  The master's failure
    domain therefore latches nodes in ``failed`` (crashed nodes the
    detector gave up on) and ``draining`` (nodes being evacuated
    cooperatively; healthy, but closed for new placements), and the
    queries below read both layers.
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
    failed: set[int] = field(default_factory=set)
    draining: set[int] = field(default_factory=set)

    def peer(self, node: int) -> PeerHealth:
        if node not in self.peers:
            self.peers[node] = PeerHealth(node=node)
        return self.peers[node]

    # -- evidence -------------------------------------------------------------

    def heard_from(self, node: int) -> None:
        """Positive liveness evidence — an answered RPC, a lease renewal:
        resets the peer to ``up``.  A slow-but-alive node that was
        ``suspect`` (or even transiently ``down``) recovers the moment it
        proves itself again."""
        p = self.peers.get(node) or self.peer(node)
        p.last_heard_ns = self.sim.now
        p.consecutive_failures = 0
        p.state = PeerState.UP

    def recovered(self, node: int) -> None:
        self.peer(node).recoveries += 1
        # heard_from() runs alongside and resets state/failure counts.

    def retransmitted(self, node: int) -> None:
        """A call to ``node`` missed a timeout window."""
        p = self.peer(node)
        p.retransmits += 1
        self._missed(p, "rpc-timeout")

    def lease_missed(self, node: int) -> None:
        """A whole heartbeat lease expired with no renewal: the same weight
        as a missed RPC timeout window (docs/PROTOCOL.md "Failure
        detection")."""
        p = self.peer(node)
        p.lease_misses += 1
        self._missed(p, "lease-expiry")

    def exhausted_budget(self, node: int) -> None:
        """A call to ``node`` ran out its whole retry budget: down at once."""
        p = self.peer(node)
        p.exhausted += 1
        self._demote(p, PeerState.DOWN, "rpc-timeout")

    def _missed(self, p: PeerHealth, evidence: str) -> None:
        """One missed window of either kind, escalated through the shared
        thresholds."""
        p.consecutive_failures += 1
        if p.consecutive_failures >= self.down_after:
            state = PeerState.DOWN
        elif p.consecutive_failures >= self.suspect_after:
            state = PeerState.SUSPECT
        else:
            state = p.state
        self._demote(p, state, evidence)

    def _demote(self, p: PeerHealth, state: PeerState, evidence: str) -> None:
        """Record failure evidence; the first transition into ``down``
        fires ``on_down``, once per peer ever."""
        was = p.state
        p.state = state
        p.last_failure_ns = self.sim.now
        p.last_evidence = evidence
        if state is not PeerState.DOWN or was is PeerState.DOWN or p.down_reported:
            return
        # Latch before notifying: a callback that re-enters the tracker
        # (the failure domain aborts pending calls, which can record more
        # evidence against the same peer) must not re-fire.
        p.down_reported = True
        for cb in list(self.on_down):
            cb(p.node)

    # -- latches (the master's failure domain) --------------------------------

    def mark_failed(self, node: int) -> None:
        self.failed.add(node)
        self.draining.discard(node)

    def mark_draining(self, node: int) -> None:
        if node not in self.failed:
            self.draining.add(node)

    # -- queries ----------------------------------------------------------------

    def is_failed(self, node: int) -> bool:
        return node in self.failed

    def state_of(self, node: int) -> PeerState:
        """``down`` once latched failed; the transient state otherwise."""
        if node in self.failed:
            return PeerState.DOWN
        p = self.peers.get(node)
        return p.state if p is not None else PeerState.UP

    def unusable_reason(self, node: int) -> Optional[str]:
        """Why this node must not receive new work (None = usable)."""
        if node in self.failed:
            return "down"
        if node in self.draining:
            return "draining"
        if self.state_of(node) is PeerState.DOWN:
            return "down"
        return None

    def usable(self, node: int) -> bool:
        return self.unusable_reason(node) is None

    def usable_pool(
        self, candidates: Iterable[int], exclude: int = -1,
        skips: Optional[Counter] = None,
    ) -> list[int]:
        """The ``candidates`` that may take new work, healthy before suspect.

        Failed, draining and down nodes are left out.  A *suspect* node
        (missed windows, not yet confirmed dead) is a bad bet — placing
        there risks a second evacuation moments later — so suspect nodes
        are pressed into service only when no healthy candidate is left.
        ``skips`` counts each ``(node, reason)`` the result bypasses.
        """
        healthy: list[int] = []
        suspect: list[int] = []
        for n in candidates:
            if n == exclude:
                continue
            reason = self.unusable_reason(n)
            if reason is not None:
                if skips is not None:
                    skips[(n, reason)] += 1
            elif self.state_of(n) is PeerState.SUSPECT:
                suspect.append(n)
            else:
                healthy.append(n)
        if not healthy:
            return suspect
        if skips is not None:
            for n in suspect:
                skips[(n, "suspect")] += 1
        return healthy

    def down_evidence(self, node: int) -> str:
        """Which evidence demoted ``node``: "rpc-timeout" or "lease-expiry".

        Defaults to "rpc-timeout" for peers with no recorded evidence —
        the only demotion path that existed before evidence tracking.
        """
        p = self.peers.get(node)
        if p is None or not p.last_evidence:
            return "rpc-timeout"
        return p.last_evidence

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
