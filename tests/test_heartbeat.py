"""Active liveness: lease-based heartbeat failure detection.

Covers the heartbeat configuration surface (validation, derived lease,
detection bound, time scaling), the :class:`HealthTracker` evidence-merging
and exactly-once guarantees the detector relies on, the quiet-victim
regression (a crash on a node nobody calls hangs the run with only passive
detection and completes degraded within the bound once heartbeats are on),
and the detector's behavior under every wire-fault primitive — a single delayed,
duplicated, or reordered renewal must never produce a false ``node_failed``,
and a healed partition or drop window must demote and then recover the peer.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import DQEMUConfig
from repro.errors import SimulationError
from repro.net.faults import FaultPlan, delay, drop, duplicate, reorder
from repro.net.health import HealthTracker, PeerState
from repro.net.messages import Heartbeat
from repro.sim.engine import Simulator
from repro.workloads import pi_taylor

RUN_KW = dict(max_virtual_ms=60_000_000)


# ---------------------------------------------------------------------------
# Configuration surface
# ---------------------------------------------------------------------------


class TestHeartbeatConfig:
    # Validation rows live in tests/test_config.py; these pin the derived
    # quantities the detector is built from.

    def test_defaults_off(self):
        cfg = DQEMUConfig()
        assert cfg.heartbeat_interval_ns is None
        assert cfg.heartbeat_lease_ns is None
        assert cfg.heartbeat_detection_bound_ns() is None

    def test_lease_is_four_intervals(self):
        cfg = DQEMUConfig(heartbeat_interval_ns=1000,
                          evacuation_enabled=True, rpc_timeout_ns=1000)
        assert cfg.heartbeat_lease_ns == 4000

    def test_detection_bound_formula(self):
        cfg = DQEMUConfig(heartbeat_interval_ns=1000,
                          evacuation_enabled=True, rpc_timeout_ns=1000)
        # lease + (down_after + 1) monitor checks + one-way delivery.
        expected = (
            4000
            + (HealthTracker.down_after + 1) * 1000
            + cfg.cost.one_way_latency_ns
        )
        assert cfg.heartbeat_detection_bound_ns() == expected


# ---------------------------------------------------------------------------
# HealthTracker: evidence merging + exactly-once down reporting
# ---------------------------------------------------------------------------


class TestHealthEvidence:
    def tracker(self, **kw):
        fired = []
        t = HealthTracker(sim=Simulator(), **kw)
        t.on_down.append(fired.append)
        return t, fired

    def test_lease_misses_escalate_like_rpc_windows(self):
        t, fired = self.tracker(suspect_after=2, down_after=3)
        t.lease_missed(4)
        assert t.state_of(4) is PeerState.UP
        t.lease_missed(4)
        assert t.state_of(4) is PeerState.SUSPECT
        assert fired == []
        t.lease_missed(4)
        assert t.state_of(4) is PeerState.DOWN
        assert fired == [4]
        assert t.down_evidence(4) == "lease-expiry"
        assert t.peer(4).lease_misses == 3

    def test_rpc_and_lease_evidence_merge(self):
        # Evidence of both kinds accumulates in ONE consecutive-failure
        # count; the demotion is attributed to whichever fired last.
        t, fired = self.tracker(suspect_after=2, down_after=3)
        t.lease_missed(2)
        t.retransmitted(2)
        t.lease_missed(2)
        assert t.state_of(2) is PeerState.DOWN
        assert fired == [2]
        assert t.down_evidence(2) == "lease-expiry"

    def test_exhausted_budget_attributes_rpc(self):
        t, fired = self.tracker()
        t.exhausted_budget(3)
        assert fired == [3]
        assert t.down_evidence(3) == "rpc-timeout"

    def test_down_evidence_defaults_to_rpc(self):
        t, _ = self.tracker()
        assert t.down_evidence(9) == "rpc-timeout"

    def test_on_down_fires_exactly_once_across_racing_evidence(self):
        # Satellite: the failure domain's recovery must run once per peer
        # even when rpc-timeout and lease-expiry evidence race, and even
        # when the tracker state heals and relapses afterwards.
        t, fired = self.tracker(suspect_after=1, down_after=2)
        t.lease_missed(5)
        t.exhausted_budget(5)  # transitions DOWN, fires
        t.lease_missed(5)  # already down: no re-fire
        t.exhausted_budget(5)  # already down: no re-fire
        assert fired == [5]
        t.heard_from(5)  # heals the tracker state...
        assert t.state_of(5) is PeerState.UP
        t.exhausted_budget(5)  # ...but a relapse must not re-run recovery
        assert t.state_of(5) is PeerState.DOWN
        assert fired == [5]

    def test_heard_from_recovers_suspect(self):
        # Satellite: a renewal that arrives in time demotes suspicion back
        # to up and clears the accumulated evidence.
        t, fired = self.tracker(suspect_after=2, down_after=5)
        t.lease_missed(1)
        t.lease_missed(1)
        assert t.state_of(1) is PeerState.SUSPECT
        t.heard_from(1)
        assert t.state_of(1) is PeerState.UP
        assert t.peer(1).consecutive_failures == 0
        assert fired == []
        # The healed peer needs the full threshold again to go down.
        t.lease_missed(1)
        assert t.state_of(1) is PeerState.UP


# ---------------------------------------------------------------------------
# Quiet-victim regression (end-to-end)
# ---------------------------------------------------------------------------

N_SLAVES = 3
VICTIM = 3


def _cfg(**kw):
    return DQEMUConfig(
        rpc_timeout_ns=5_000_000,
        rpc_max_retries=4,
        rpc_backoff_base_ns=10_000,
        rpc_backoff_jitter_ns=2_000,
        evacuation_enabled=True,
        health_aware_placement=True,
        **kw,
    ).time_scaled(100.0)


def _quiet_prog():
    return pi_taylor.build(n_threads=3, terms=600, reps=2)


class TestQuietVictim:
    """Satellite: the regression the heartbeat detector exists to fix."""

    @pytest.fixture(scope="class")
    def clean(self):
        result = Cluster(N_SLAVES, _cfg()).run(_quiet_prog(), **RUN_KW)
        assert result.exit_code == 0
        return result

    def plan(self, clean):
        return FaultPlan.crash(VICTIM, int(0.5 * clean.virtual_ns), seed=7)

    def test_passive_only_hangs(self, clean):
        # Nobody has a call outstanding against the victim, so the generous
        # retry budget never trips and the join starves: the simulator runs
        # out of events with threads still blocked.
        with pytest.raises(SimulationError, match="deadlock|budget"):
            Cluster(N_SLAVES, _cfg(fault_plan=self.plan(clean))).run(
                _quiet_prog(), **RUN_KW
            )

    def test_heartbeat_bounds_detection(self, clean):
        interval = max(1, clean.virtual_ns // 50)
        config = _cfg(fault_plan=self.plan(clean)).with_options(
            heartbeat_interval_ns=interval
        )
        result = Cluster(N_SLAVES, config).run(_quiet_prog(), **RUN_KW)
        assert result.exit_code == 0  # completes degraded
        rec = result.failures.nodes[VICTIM]
        assert rec.kind == "crash"
        assert rec.evidence == "lease-expiry"
        detection = rec.detected_ns - int(0.5 * clean.virtual_ns)
        assert 0 < detection <= config.heartbeat_detection_bound_ns()
        assert result.failures.lease_detections == 1
        assert result.failures.rpc_detections == 0
        # The victim's running worker died with it; the run degrades.
        assert result.failures.lost_threads > 0
        proto = result.stats.protocol
        assert proto.heartbeats_sent > 0
        assert proto.heartbeats_received > 0
        # Both are folds: lease expiries are booked per peer, and every
        # renewal is one fixed-size frame on the wire.
        assert sum(p.lease_misses for p in result.health.peers.values()) > 0
        hb_bytes = proto.heartbeats_sent * Heartbeat().size_bytes()
        assert hb_bytes == result.fabric.bytes_by_kind["heartbeat"] > 0
        # Both service rows exist: the master detector and the node sender.
        assert "heartbeat" in result.stats.services
        assert "node.heartbeat" in result.stats.services


# ---------------------------------------------------------------------------
# Heartbeats under wire faults: no false positives, partitions heal
# ---------------------------------------------------------------------------


class TestHeartbeatUnderWireFaults:
    """Satellite: the detector must tolerate every FaultPlan primitive."""

    @pytest.fixture(scope="class")
    def clean(self):
        result = Cluster(N_SLAVES, _cfg()).run(_quiet_prog(), **RUN_KW)
        assert result.exit_code == 0
        return result

    def run_with(self, plan, clean, **hb_kw):
        interval = max(1, clean.virtual_ns // 50)
        config = _cfg(fault_plan=plan).with_options(
            heartbeat_interval_ns=interval, **hb_kw
        )
        result = Cluster(N_SLAVES, config).run(_quiet_prog(), **RUN_KW)
        return result, config

    def interval(self, clean):
        return max(1, clean.virtual_ns // 50)

    def test_single_delayed_renewal_no_false_positive(self, clean):
        # One renewal held for three intervals: within the default 4x
        # lease, so the peer never even turns suspect.
        iv = self.interval(clean)
        plan = FaultPlan.of(
            delay(3 * iv, kinds={"heartbeat"}, src=1, max_count=1), seed=11
        )
        result, _ = self.run_with(plan, clean)
        assert result.exit_code == 0
        assert result.failures is None or not result.failures.nodes
        assert result.health.state_of(1) is PeerState.UP
        assert result.health.peer(1).lease_misses == 0

    def test_duplicated_renewals_are_harmless(self, clean):
        plan = FaultPlan.of(duplicate(copies=2, kinds={"heartbeat"}), seed=12)
        result, _ = self.run_with(plan, clean)
        assert result.exit_code == 0
        assert result.failures is None or not result.failures.nodes
        # Extra copies hit the dispatcher's req-id dedup, not the lease.
        dups = result.stats.services["heartbeat"].duplicates
        assert dups > 0

    def test_reordered_renewals_are_harmless(self, clean):
        iv = self.interval(clean)
        plan = FaultPlan.of(
            reorder(hold_ns=iv // 2, kinds={"heartbeat"}), seed=13
        )
        result, _ = self.run_with(plan, clean)
        assert result.exit_code == 0
        assert result.failures is None or not result.failures.nodes

    def test_drop_window_suspects_then_heals(self, clean):
        # Silence one slave's renewals for a window longer than the lease:
        # suspicion accrues, but renewals resume before the down threshold
        # and the peer recovers — no node_failed.
        iv = self.interval(clean)
        lease = 4 * iv
        start = int(0.2 * clean.virtual_ns)
        plan = FaultPlan.of(
            drop(kinds={"heartbeat"}, src=2,
                 after_ns=start, until_ns=start + lease + 3 * iv),
            seed=14,
        )
        result, _ = self.run_with(plan, clean)
        assert result.exit_code == 0
        assert result.failures is None or not result.failures.nodes
        assert result.health.state_of(2) is PeerState.UP
        assert result.health.peer(2).lease_misses > 0  # it was noticed

    def test_partition_heals_back_to_up(self, clean):
        iv = self.interval(clean)
        lease = 4 * iv
        start = int(0.2 * clean.virtual_ns)
        plan = FaultPlan.partition([2], start, start + lease + 2 * iv, seed=15)
        result, _ = self.run_with(plan, clean)
        assert result.exit_code == 0
        assert result.failures is None or not result.failures.nodes
        assert result.health.state_of(2) is PeerState.UP
        assert result.health.peer(2).lease_misses > 0
