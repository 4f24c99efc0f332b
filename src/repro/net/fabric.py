"""Simulated cluster interconnect.

Models the paper's testbed: a store-and-forward Gigabit switch in a star
topology.  Each node has a full-duplex link; a frame is serialized onto the
sender's uplink, crosses the switch with a fixed one-way latency, and is
serialized again on the receiver's downlink.  Per-direction link occupancy is
tracked so concurrent traffic queues realistically — this is what produces
the master-link bottleneck visible in the paper's worst-case mutex test.

Link bandwidth and latencies come from a :class:`~repro.cost.CostModel`,
by default the paper's testbed (``tests/test_calibration.py`` derives its
control-frame round trip).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.cost import TESTBED, CostModel
from repro.errors import NetworkError
from repro.net.health import HealthTracker
from repro.net.messages import Message
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.endpoint import Endpoint
    from repro.net.faults import FaultStats

__all__ = ["Fabric", "FabricStats"]


class FabricStats:
    """Aggregate traffic counters, queryable per experiment.

    The fabric books each frame once, into ``frames[(kind, src, dst)] =
    [frames, bytes]``; the six counters below are folds over that record,
    computed on read.  ``tx_bytes_by_node`` / ``rx_bytes_by_node`` attribute
    wire load to the sending/receiving node — on a star topology the master's
    rows are the bottleneck links the paper's worst-case mutex test saturates.
    """

    def __init__(self) -> None:
        self.frames: dict[tuple[str, int, int], list[int]] = {}

    def _fold(self, part: int, column: int) -> Counter:
        total: Counter = Counter()
        for key, record in self.frames.items():
            total[key[part]] += record[column]
        return total

    messages_sent = property(lambda self: sum(r[0] for r in self.frames.values()))
    bytes_sent = property(lambda self: sum(r[1] for r in self.frames.values()))
    by_kind = property(lambda self: self._fold(0, 0))
    bytes_by_kind = property(lambda self: self._fold(0, 1))
    tx_bytes_by_node = property(lambda self: self._fold(1, 1))
    rx_bytes_by_node = property(lambda self: self._fold(2, 1))

    def add(self, other: "FabricStats") -> None:
        """Fold another slice's counters into this one."""
        frames = self.frames
        for key, (count, size) in other.frames.items():
            record = frames.get(key)
            if record is None:
                frames[key] = [count, size]
            else:
                record[0] += count
                record[1] += size


class Fabric:
    """Star-topology switch connecting DQEMU node endpoints."""

    def __init__(self, sim: Simulator, cost: CostModel = TESTBED) -> None:
        self.sim = sim
        self.cost = cost
        self._endpoints: dict[int, "Endpoint"] = {}
        self._uplink_free: dict[int, int] = {}
        self._downlink_free: dict[int, int] = {}
        #: Per-tenant traffic slices: every frame is recorded once, in its
        #: tenant's slice, so each job's ``RunResult.fabric`` is exact
        #: attribution, not an estimate; the fleet-wide ``stats`` is their sum
        #: plus ``retired_stats``.
        self.tenant_stats: dict[int, FabricStats] = {}
        #: The traffic of every retired tenant, folded into one total when
        #: its job retires (:meth:`retire`); its result keeps its own copy.
        self.retired_stats = FabricStats()
        #: Request-id sequence for every endpoint attached to this fabric
        #: (``next(fabric.req_ids)``).  Owning the counter here (instead of a
        #: module global) makes req ids — and the retry backoff jitter keyed
        #: on them — a function of the fleet alone, however many clusters
        #: the process builds.
        self.req_ids = itertools.count(1)
        #: Injection counters, set by ``FaultInjector.attach``; ``None`` on a
        #: lossless (un-instrumented) fabric.
        self.fault_stats: Optional["FaultStats"] = None
        #: The fleet's one health view (docs/PROTOCOL.md "Failure domains"):
        #: fed by every endpoint's RPC channel and the heartbeat monitor,
        #: latched by the master's failure domain, read by the placer, the
        #: services and every dispatcher.
        self.health = HealthTracker(sim)
        #: Tenants whose job retired (docs/PROTOCOL.md "Job lifecycle"): a
        #: request or command still addressed to one is dropped on arrival
        #: and counted in ``late_frames``; replies still complete their calls.
        self.retired: set[int] = set()
        self.late_frames = 0

    # -- wiring -------------------------------------------------------------

    def attach(self, endpoint: "Endpoint") -> None:
        node_id = endpoint.node_id
        if node_id in self._endpoints:
            raise NetworkError(f"node {node_id} already attached")
        self._endpoints[node_id] = endpoint
        self._uplink_free[node_id] = 0
        self._downlink_free[node_id] = 0

    def endpoint(self, node_id: int) -> "Endpoint":
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise NetworkError(f"no endpoint attached for node {node_id}") from None

    def retire(self, tenant: int) -> None:
        """``tenant``'s job retired: its slice joins the retired total, and a
        request still addressed to it will be dropped on arrival."""
        self.retired.add(tenant)
        slice_ = self.tenant_stats.pop(tenant, None)
        if slice_ is not None:
            self.retired_stats.add(slice_)

    @property
    def stats(self) -> FabricStats:
        """Fleet-wide traffic totals: a fresh sum over the tenant slices and
        the retired total."""
        total = FabricStats()
        for slice_ in (self.retired_stats, *self.tenant_stats.values()):
            total.add(slice_)
        return total

    def stats_for(self, tenant: int) -> FabricStats:
        """The tenant's traffic slice (created on first use)."""
        try:
            return self.tenant_stats[tenant]
        except KeyError:
            slice_ = self.tenant_stats[tenant] = FabricStats()
            return slice_

    # -- transmission -------------------------------------------------------

    def serialization_ns(self, size_bytes: int) -> int:
        return int(round(size_bytes * 8 / self.cost.bandwidth_bps * 1e9))

    def downlink_backlog_ns(self, node_id: int) -> int:
        """How far ahead of now the node's downlink is already booked.

        Used by the data forwarder to pace pushes so demand replies are not
        stuck behind a burst of forwarded pages.  Asking about a node that
        was never attached is a wiring bug and raises, exactly like
        :meth:`endpoint` — silently answering 0 would let forwarder pacing
        errors hide.
        """
        try:
            free = self._downlink_free[node_id]
        except KeyError:
            raise NetworkError(f"no endpoint attached for node {node_id}") from None
        return max(0, free - self.sim.now)

    def transmit(self, msg: Message) -> int:
        """Schedule delivery of ``msg``; returns the arrival time (ns).

        Loopback traffic (``src == dst``, the master talking to itself)
        bypasses the switch with a small fixed cost.
        """
        src, dst = msg.src, msg.dst
        endpoints = self._endpoints
        try:
            dest = endpoints[dst]
        except KeyError:
            raise NetworkError(f"message to unknown node {dst}") from None
        if src not in endpoints:
            raise NetworkError(f"message from unknown node {src}")
        size = msg.size_bytes()
        try:
            frames = self.tenant_stats[msg.tenant].frames
        except KeyError:
            frames = (
                self.retired_stats if msg.tenant in self.retired
                else self.stats_for(msg.tenant)
            ).frames
        key = (msg.kind, src, dst)
        try:
            record = frames[key]
        except KeyError:
            frames[key] = [1, size]
        else:
            record[0] += 1
            record[1] += size
        sim = self.sim
        now = sim.now
        cost = self.cost
        if src == dst:
            arrival = now + cost.loopback_latency_ns
        else:
            ser = int(round(size * 8 / cost.bandwidth_bps * 1e9))  # serialization_ns
            # Each link is busy until its ``*_free`` time: a frame starts when
            # both it and the link are ready (``max``, spelled inline).
            free = self._uplink_free[src]
            tx_end = (free if free > now else now) + ser
            self._uplink_free[src] = tx_end
            at_switch = tx_end + cost.one_way_latency_ns
            free = self._downlink_free[dst]
            arrival = (free if free > at_switch else at_switch) + ser
            self._downlink_free[dst] = arrival
        # A delivery is one heap entry calling the destination's own bound
        # method with the frame: no event, no closure per frame.
        sim.schedule(arrival - now, dest.on_arrival, msg)
        return arrival
