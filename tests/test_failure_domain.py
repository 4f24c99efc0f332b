"""Failure domains: health-aware placement, crash tolerance, drain.

Unit coverage for the pieces docs/PROTOCOL.md "Failure domains" composes —
:class:`ThreadPlacer` health filtering, the latched failed/draining sets
of the :class:`HealthTracker` over its transient peer states,
``FaultPlan.crash``/``drain`` schedules, directory re-homing via
``evict_node``, ``RpcChannel.abort_peer`` — plus end-to-end cluster runs:
a mid-run crash aborts the seed configuration, completes degraded with the
failure domain armed, and a cooperative drain completes with nothing lost.
"""

import functools

import pytest

from repro import Cluster, DQEMUConfig, FaultPlan, ServiceTimeout
from repro.analysis.reporting import FAILURE_COLUMNS, render_service_breakdown
from repro.core.scheduler import ThreadPlacer
from repro.cost import CostModel
from repro.errors import ConfigError, InvalidInstruction
from repro.kernel import FUTEX_WAIT, SYS
from repro.mem.directory import Directory
from repro.net import Endpoint, Fabric
from repro.net.faults import FaultInjector, drop
from repro.net.health import HealthTracker, PeerState
from repro.net.messages import PageRequest, SyscallRequest
from repro.net.rpc import RetryPolicy, RpcTimeout
from repro.sim import Simulator
from repro.workloads import blackscholes, memaccess, pi_taylor
from tests.conftest import mirrored_run

RETRY = RetryPolicy(max_retries=3, backoff_base_ns=10_000)


def make_tracker(suspect_after=2, down_after=5):
    return HealthTracker(Simulator(), suspect_after=suspect_after, down_after=down_after)


# -- health-aware placement (§5.3 + failure domains) ---------------------------


class TestHealthAwarePlacer:
    def test_round_robin_ignores_health_when_unarmed(self):
        p = ThreadPlacer("round_robin", [1, 2, 3])
        assert [p.place() for _ in range(6)] == [1, 2, 3, 1, 2, 3]
        assert p.skip_counts() == {}

    def test_failed_and_draining_candidates_are_skipped(self):
        tracker = make_tracker()
        p = ThreadPlacer("round_robin", [1, 2, 3], health=tracker, fallback=0)
        tracker.mark_failed(2)
        tracker.mark_draining(3)
        assert [p.place() for _ in range(3)] == [1, 1, 1]
        skips = p.skip_counts()
        assert skips["n2:down"] == 3 and skips["n3:draining"] == 3

    def test_tracker_down_is_skipped_without_latching(self):
        tracker = make_tracker(suspect_after=1, down_after=2)
        p = ThreadPlacer("round_robin", [1, 2], health=tracker, fallback=0)
        tracker.retransmitted(2)
        tracker.retransmitted(2)
        assert tracker.state_of(2) is PeerState.DOWN
        assert p.place() == 1
        # An answered call heals the tracker and the pool widens again —
        # the round-robin cursor keeps walking as if nothing happened.
        tracker.heard_from(2)
        assert p.place() == 2

    def test_suspect_deprioritized_until_no_healthy_left(self):
        tracker = make_tracker(suspect_after=1, down_after=3)
        p = ThreadPlacer("round_robin", [1, 2], health=tracker, fallback=0)
        tracker.retransmitted(2)
        assert tracker.state_of(2) is PeerState.SUSPECT
        assert p.place() == 1
        assert p.skip_counts() == {"n2:suspect": 1}
        # The only healthy peer goes down: the suspect is pressed back
        # into service rather than refusing to place at all.
        for _ in range(3):
            tracker.retransmitted(1)
        assert tracker.state_of(1) is PeerState.DOWN
        assert p.place() == 2

    def test_fallback_absorbs_when_nothing_usable(self):
        tracker = make_tracker()
        p = ThreadPlacer("round_robin", [1, 2], health=tracker, fallback=0)
        tracker.mark_failed(1)
        tracker.mark_failed(2)
        assert p.place() == 0
        assert p.skip_counts()["n0:fallback"] == 1
        # Off-candidate placements are counted, not KeyError'd.
        assert p.distribution() == {1: 0, 2: 0, 0: 1}

    def test_no_fallback_raises(self):
        tracker = make_tracker()
        p = ThreadPlacer("round_robin", [1], health=tracker)
        tracker.mark_failed(1)
        with pytest.raises(ConfigError):
            p.place()

    def test_hint_policy_respects_health_filter(self):
        tracker = make_tracker()
        p = ThreadPlacer("hint", [1, 2, 3], health=tracker, fallback=0)
        tracker.mark_failed(2)
        # Group hashing walks the filtered pool [1, 3].
        assert p.place(hint_group=0) == 1
        assert p.place(hint_group=1) == 3

    def test_hinted_group_rehomes_deterministically_when_home_down(self):
        # Group 1's home with a healthy pool [1, 2, 3] is node 2.  With the
        # home failed, every placement of the group lands on the *same*
        # replacement node — locality degrades, determinism doesn't.
        tracker = make_tracker()
        p = ThreadPlacer("hint", [1, 2, 3], health=tracker, fallback=0)
        assert p.place(hint_group=1) == 2  # healthy home
        tracker.mark_failed(2)
        rehomed = [p.place(hint_group=1) for _ in range(4)]
        assert rehomed == [3, 3, 3, 3]  # pool [1, 3], group 1 -> index 1
        assert p.skip_counts()["n2:down"] == 4
        # A sibling group keeps its own (deterministic) re-homed node too.
        assert p.place(hint_group=0) == 1

    def test_hinted_group_rehomes_when_home_draining(self):
        tracker = make_tracker()
        p = ThreadPlacer("hint", [1, 2], health=tracker, fallback=0)
        assert p.place(hint_group=0) == 1
        tracker.mark_draining(1)
        assert [p.place(hint_group=0) for _ in range(3)] == [2, 2, 2]
        assert p.skip_counts() == {"n1:draining": 3}

    def test_hinted_group_falls_back_when_every_candidate_unusable(self):
        tracker = make_tracker()
        p = ThreadPlacer("hint", [1, 2], health=tracker, fallback=0)
        tracker.mark_failed(1)
        tracker.mark_draining(2)
        assert p.place(hint_group=5) == 0
        skips = p.skip_counts()
        assert skips["n1:down"] == 1
        assert skips["n2:draining"] == 1
        assert skips["n0:fallback"] == 1
        assert p.placements == [(5, 0)]

    def test_hinted_group_returns_home_after_tracker_heals(self):
        # Tracker-driven DOWN (unlike a latched failure) heals; the group
        # resumes its original home once the peer answers again.
        tracker = make_tracker(suspect_after=1, down_after=2)
        p = ThreadPlacer("hint", [1, 2], health=tracker, fallback=0)
        tracker.retransmitted(2)
        tracker.retransmitted(2)
        assert p.place(hint_group=1) == 1  # re-homed while node 2 is down
        tracker.heard_from(2)
        assert p.place(hint_group=1) == 2  # home again

    def test_unhinted_threads_round_robin_over_filtered_pool(self):
        tracker = make_tracker()
        p = ThreadPlacer("hint", [1, 2, 3], health=tracker, fallback=0)
        tracker.mark_draining(2)
        assert [p.place() for _ in range(4)] == [1, 3, 1, 3]

    def test_rr_offset_staggers_tenant_cursors(self):
        # Concurrent jobs get placers with staggered cursors so their first
        # workers interleave across the fleet instead of stacking on node 1.
        p0 = ThreadPlacer("round_robin", [1, 2, 3], rr_offset=0)
        p1 = ThreadPlacer("round_robin", [1, 2, 3], rr_offset=1)
        assert [p0.place() for _ in range(3)] == [1, 2, 3]
        assert [p1.place() for _ in range(3)] == [2, 3, 1]


# -- latched failed/draining sets over the transient peer states --------------


class TestLatchedHealth:
    def test_failure_latches_over_tracker_healing(self):
        tracker = make_tracker(suspect_after=1, down_after=2)
        tracker.retransmitted(3)
        tracker.retransmitted(3)
        tracker.mark_failed(3)
        tracker.heard_from(3)  # a stale reply trickles in post-mortem
        assert tracker.peer(3).state is PeerState.UP
        assert tracker.is_failed(3)
        assert not tracker.usable(3)
        assert tracker.unusable_reason(3) == "down"
        assert tracker.state_of(3) is PeerState.DOWN

    def test_draining_and_failed_interplay(self):
        tracker = make_tracker()
        tracker.mark_failed(1)
        tracker.mark_draining(1)  # no-op: the node is already gone
        assert 1 not in tracker.draining
        tracker.mark_draining(2)
        assert tracker.unusable_reason(2) == "draining"
        tracker.mark_failed(2)  # a crash mid-drain upgrades the verdict
        assert tracker.unusable_reason(2) == "down"
        assert 2 not in tracker.draining


class TestHealthTrackerHealing:
    def test_down_heals_on_answered_call(self):
        sim = Simulator()
        t = HealthTracker(sim, suspect_after=2, down_after=3)
        fired = []
        t.on_down.append(fired.append)
        for _ in range(3):
            t.retransmitted(4)
        assert t.state_of(4) is PeerState.DOWN
        assert fired == [4]
        t.retransmitted(4)  # repeat confirmation: no refire
        assert fired == [4]
        assert "n4=down" in t.describe()
        # One answered call heals the peer completely (partition semantics).
        t.heard_from(4)
        assert t.state_of(4) is PeerState.UP
        assert t.states() == {4: PeerState.UP}
        assert t.peer(4).consecutive_failures == 0
        # A relapse demotes the peer again, but on_down stays exactly-once
        # per peer: the failure domain's recovery must never re-run for a
        # node it already wrote off, no matter how evidence races or heals.
        for _ in range(3):
            t.retransmitted(4)
        assert t.state_of(4) is PeerState.DOWN
        assert fired == [4]


# -- fault-plan schedules ------------------------------------------------------


class TestFaultPlanSchedules:
    def test_crash_schedule_and_wire_rules(self):
        plan = FaultPlan.crash(2, 5_000)
        assert plan.crashes == ((2, 5_000),)
        assert [r.label for r in plan.rules] == ["crash:n2:out", "crash:n2:in"]
        assert all(r.until_ns is None for r in plan.rules)  # never heals
        assert "crash:n2@5000ns" in plan.describe()

    def test_drain_keeps_the_wire_clean(self):
        plan = FaultPlan.drain(1, 2_000)
        assert plan.drains == ((1, 2_000),)
        assert plan.rules == ()
        assert "drain:n1@2000ns" in plan.describe()

    def test_master_cannot_crash_or_drain(self):
        with pytest.raises(ConfigError):
            FaultPlan.crash(0, 1_000)
        with pytest.raises(ConfigError):
            FaultPlan.drain(0, 1_000)
        with pytest.raises(ConfigError):
            FaultPlan.crash(1, -1)

    def test_schedule_entries_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(crashes=((1, "soon"),))
        with pytest.raises(ConfigError):
            FaultPlan(drains=((-1, 5),))


# -- directory re-homing -------------------------------------------------------


class TestDirectoryRehoming:
    def test_evict_exclusive_grantee_counts_page_lost(self):
        # An Exclusive-clean grantee is recorded as an owner: it may have
        # silently upgraded to Modified without telling the master, so
        # eviction must write the page off conservatively, exactly like a
        # Modified owner.
        d = Directory()
        d.commit(3, page=1, write=False, exclusive=True)
        d.commit(3, page=2, write=False)  # plain Shared copy on the victim
        rehomed, lost = d.evict_node(3)
        assert lost == [1]
        assert rehomed == [2]
        assert d.peek(1).is_idle()

    def test_evict_node_promotes_shared_and_counts_modified(self):
        d = Directory()
        d.commit(3, page=1, write=True)  # n3 owns page 1 (Modified)
        d.commit(3, page=2, write=False)  # n3 shares page 2 with n1
        d.commit(1, page=2, write=False)
        d.commit(1, page=3, write=True)  # untouched bystander
        rehomed, lost = d.evict_node(3)
        assert rehomed == [2] and lost == [1]
        # The Modified page's stale home copy is promoted (owner cleared);
        # the Shared page simply loses one sharer.
        assert d.owner(1) is None
        assert d.sharers(2) == frozenset({1})
        assert d.owner(3) == 1
        # Eviction is idempotent once the node holds nothing.
        assert d.evict_node(3) == ([], [])


# -- abort_peer: detection cuts cascading timeouts -----------------------------


class TestAbortPeer:
    def _mini(self, plan=None):
        sim = Simulator()
        fabric = Fabric(sim, CostModel(one_way_latency_ns=100, loopback_latency_ns=10))
        if plan is not None:
            FaultInjector(sim, plan).attach(fabric)
        return sim, [Endpoint(sim, fabric, i) for i in range(2)]

    def test_abort_peer_fails_pending_calls_without_waiting_out_budget(self):
        # A handler mid-call against a corpse must fail the moment the
        # detector declares the peer dead, not after its own retry budget —
        # otherwise the handler's *clients* (whose budgets started earlier)
        # expire first and a recoverable crash cascades into an abort.
        plan = FaultPlan.of(drop(dst=1))  # black hole
        sim, (a, _b) = self._mini(plan)
        outcome = []

        def caller():
            try:
                yield a.request(1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY)
            except RpcTimeout as exc:
                outcome.append((sim.now, exc))

        def detector():
            yield sim.timeout(2_000)
            a.rpc.abort_peer(1)

        sim.spawn(caller())
        sim.spawn(detector())
        sim.run()
        [(failed_at, exc)] = outcome
        assert failed_at == 2_000  # at detection, well inside the budget
        assert isinstance(exc, RpcTimeout)


# -- end-to-end crash / drain runs ---------------------------------------------

PROG_KW = dict(n_threads=6, n_options=2040, reps=4)
RELIABLE = dict(
    rpc_timeout_ns=20_000, rpc_max_retries=4,
    rpc_backoff_base_ns=10_000, rpc_backoff_jitter_ns=2_000,
)


def _run(n_slaves=3, trace=False, **cfg_kw):
    prog = blackscholes.build(**PROG_KW)
    cfg = DQEMUConfig(**cfg_kw).time_scaled(100.0)
    return mirrored_run(Cluster(n_slaves, cfg, trace=trace), prog, max_virtual_ms=60_000_000)


def _failure_row(result):
    """The rendered service breakdown's ``failure`` row, header -> cell."""
    failures = {key: getattr(result.failures, key) for key in FAILURE_COLUMNS.values()}
    lines = render_service_breakdown(result.stats, failures).splitlines()
    headers = [h.strip() for h in lines[1].split(" | ")]
    rows = [[c.strip() for c in line.split(" | ")] for line in lines[3:]]
    (row,) = [r for r in rows if r[0] == "failure" and r[1] == "all"]
    return dict(zip(headers, row))


@functools.lru_cache(maxsize=None)
def _clean():
    return _run()


#: A short retry budget and a health-blind placer: a clone can be placed on a
#: node that is already dead.
CORPSE = dict(
    rpc_timeout_ns=2_000_000, rpc_max_retries=2, rpc_backoff_base_ns=10_000,
    evacuation_enabled=True,
)


def _pi(cfg, trace=False):
    return mirrored_run(
        Cluster(3, cfg, trace=trace), pi_taylor.build(n_threads=6, terms=300, reps=2)
    )


#: What each configuration arms, and the ``RunStats.services`` rows a run of
#: it reports, in order: the master dispatcher's services, whether the master has
#: a failure view, the slaves with a ``NodeFailureDomain`` and with a
#: heartbeat sender, whether the placer consults health.
_EVAC = dict(rpc_timeout_ns=5_000_000, rpc_max_retries=4, evacuation_enabled=True)
_MASTER = "coherence splitting syscall forwarding futex"
_NODE = "node.coherence node.split_table node.control"
_ARMED_ROWS = _NODE + " node.syscall {node} coherence splitting futex syscall failure forwarding"
ARMING = {
    "default": (
        {}, _MASTER, False, [], [], False, _NODE + " " + _MASTER,
    ),
    "placement": (
        dict(health_aware_placement=True),
        _MASTER, False, [], [], True, _NODE + " " + _MASTER,
    ),
    "evacuation": (
        _EVAC, _MASTER + " failure", True, [], [], False,
        _ARMED_ROWS.format(node=""),
    ),
    "heartbeat": (
        dict(_EVAC, heartbeat_interval_ns=20_000),
        _MASTER + " failure heartbeat", True, [], [1, 2, 3], False,
        _ARMED_ROWS.format(node="node.heartbeat") + " heartbeat",
    ),
    "drain": (
        dict(fault_plan=FaultPlan.drain(2, 50_000)),
        _MASTER + " failure", True, [2], [], False,
        _NODE + " " + _MASTER + " failure",
    ),
}


class TestArming:
    """One table of what each failure-handling knob builds: a part armed by
    the wrong condition adds or drops a stats row in a committed table."""

    @pytest.mark.parametrize("case", ARMING)
    def test_arming(self, case):
        cfg_kw, master_svcs, view, domains, senders, placer_health, rows = ARMING[case]
        cluster = Cluster(3, DQEMUConfig(**cfg_kw).time_scaled(100.0))
        r = cluster.run(
            pi_taylor.build(n_threads=3, terms=600, reps=2), max_virtual_ms=60_000_000
        )
        assert r.exit_code == 0
        runtime = cluster.jobs[0].runtime
        nodes = cluster._fleet.nodes.items()
        assert [s.name for s in runtime.master.dispatcher.services] == master_svcs.split()
        assert (runtime.master.failure_view is not None) == view
        assert [n for n, node in nodes if node.failure_domain is not None] == domains
        assert [n for n, node in nodes if node.heartbeat_sender is not None] == senders
        assert (runtime.placer.health is not None) == placer_health
        assert list(r.stats.services) == rows.split()


class TestCrashTolerance:
    def test_crash_aborts_without_failure_domain(self):
        # Seed behavior: retries alone cannot ride out a fail-stop crash.
        plan = FaultPlan.crash(1, int(_clean().virtual_ns * 0.35), seed=1)
        with pytest.raises(ServiceTimeout) as excinfo:
            _run(fault_plan=plan, **RELIABLE)
        assert "no reply" in str(excinfo.value)

    def test_crash_with_evacuation_completes_degraded(self):
        crash_at = int(_clean().virtual_ns * 0.35)
        plan = FaultPlan.crash(1, crash_at, seed=1)
        r = _run(
            fault_plan=plan,
            evacuation_enabled=True,
            health_aware_placement=True,
            **RELIABLE,
        )
        assert r.exit_code == 0
        assert r.failures is not None
        rec = r.failures.nodes[1]
        assert rec.kind == "crash"
        assert rec.detected_ns >= crash_at
        assert rec.recovered_ns is not None and rec.recovery_ns >= 0
        # Everything the victim held is accounted for: evacuated or lost.
        assert len(rec.evacuated) + len(rec.lost) > 0
        assert "n1 crash" in r.failures.describe()
        # The detector's verdict sticks for the rest of the run.
        assert r.health.state_of(1) is PeerState.DOWN
        # The breakdown's failure row is this recovery's FailureStats.
        row = _failure_row(r)
        assert row["evacuated"] == str(len(rec.evacuated))
        assert row["lost threads"] == str(len(rec.lost))
        assert row["rehomed pages"] == str(rec.rehomed_pages)
        assert row["lost M pages"] == str(rec.lost_pages)

    def test_drain_completes_without_loss(self):
        drain_at = int(_clean().virtual_ns * 0.35)
        plan = FaultPlan.drain(2, drain_at, seed=2)
        r = _run(
            fault_plan=plan,
            evacuation_enabled=True,
            health_aware_placement=True,
            **RELIABLE,
        )
        assert r.exit_code == 0
        assert r.stdout == _clean().stdout  # nothing lost: same answers
        rec = r.failures.nodes[2]
        assert rec.kind == "drain"
        assert rec.evacuated and not rec.lost
        assert rec.rehomed_pages == 0 and rec.lost_pages == 0
        assert rec.recovered_ns is not None
        assert all(target != 2 for _tid, target in rec.evacuated)

    def test_untimed_drain_completes_without_loss(self):
        # Timeouts off: the drained node announces drain_complete as a plain
        # frame, not an acked request.
        clean = _pi(DQEMUConfig())
        r = _pi(DQEMUConfig(fault_plan=FaultPlan.drain(3, clean.virtual_ns // 3)))
        assert r.stdout == clean.stdout
        rec = r.failures.nodes[3]
        assert (rec.kind, len(rec.evacuated), rec.lost) == ("drain", 2, [])
        assert rec.recovered_ns is not None

    @pytest.mark.parametrize("crash_frac, heartbeat_ns, evacuated", [
        # Crashed right as the drain order goes out: the order's own request
        # must tolerate the corpse, not abort the run.
        (0.35, None, 0),
        (0.35, 5_000, 0),
        (0.355, None, 0),  # mid-drain; was a ServiceTimeout on the corpse
        (0.37, 5_000, 1),  # mid-drain, quiet victim; was a hang
        (0.6, 5_000, 2),  # after the drain; its directory entries stayed
    ])
    def test_crash_during_or_after_drain_is_recovered(
        self, crash_frac, heartbeat_ns, evacuated
    ):
        # The drain record must not hide the crash: the node is latched
        # failed, its directory evicted, and its record turns into a crash
        # record that keeps what the drain evacuated.
        drain_at = int(_clean().virtual_ns * 0.35)
        crash_at = int(_clean().virtual_ns * crash_frac)
        plan = FaultPlan(
            rules=FaultPlan.crash(2, crash_at).rules,
            crashes=((2, crash_at),), drains=((2, drain_at),),
        )
        cfg = DQEMUConfig(
            fault_plan=plan, evacuation_enabled=True, health_aware_placement=True,
            heartbeat_interval_ns=heartbeat_ns, **RELIABLE,
        ).time_scaled(100.0)
        r = mirrored_run(Cluster(3, cfg), blackscholes.build(**PROG_KW), max_virtual_ms=5)
        assert r.exit_code == 0
        rec = r.failures.nodes[2]
        assert rec.kind == "crash" and rec.detected_ns >= crash_at
        assert rec.recovered_ns is not None and rec.rehomed_pages > 0
        assert len(rec.evacuated) == evacuated
        assert all(target != 2 for _tid, target in rec.evacuated)
        assert r.health.is_failed(2) and 2 not in r.health.draining

    def test_default_run_is_untouched_by_the_machinery(self):
        armed = _run(**RELIABLE)
        plain = _clean()
        assert plain.failures is None and armed.failures is None
        assert plain.placement_skips == {}
        # The failure service row never appears unless the domain is armed,
        # keeping the committed breakdown tables bit-identical.
        assert "failure" not in plain.stats.services
        assert "failure" not in armed.stats.services
        assert armed.virtual_ns == plain.virtual_ns


# -- landing: the one way a thread reaches a node -----------------------------


class TestLanding:
    """``MasterService.land``: a thread whose target is latched failed while
    its ``SpawnThread`` is outstanding is re-placed on the next
    ``pick_target`` node by its landing, and not also reaped by recovery."""

    def test_clone_onto_a_corpse_runs_once(self):
        clean = _pi(DQEMUConfig(**CORPSE))
        r = _pi(DQEMUConfig(fault_plan=FaultPlan.crash(2, 1), **CORPSE), trace=True)
        assert r.exit_code == 0
        assert r.stdout == clean.stdout
        assert r.failures.nodes[2].lost == []
        assert r.stats.protocol.spawn_failovers > 0
        # tid 3 is placed on node 2 and ends once, by its own exit.
        ends = [
            ev.what for ev in r.trace.events
            if ev.tid == 3 and ev.category == "thread"
            and ev.what in ("exit", "lost in crash (reaped)")
        ]
        assert ends == ["exit"]

    def test_drain_evacuation_onto_a_corpse_fails_over(self):
        # Node 1 dies the instant node 2 is ordered to drain, so the first
        # evacuation is aimed at node 1 before anything suspects it.
        at = int(_clean().virtual_ns * 0.35)
        plan = FaultPlan(
            rules=FaultPlan.crash(1, at).rules, crashes=((1, at),), drains=((2, at),),
        )
        r = _run(fault_plan=plan, evacuation_enabled=True, **RELIABLE)
        assert r.exit_code == 0
        assert r.stats.protocol.spawn_failovers > 0
        drained = r.failures.nodes[2]
        assert drained.kind == "drain" and drained.evacuated
        assert all(target == 3 for _tid, target in drained.evacuated)
        # An evacuee in flight to node 1 was not running there: not reaped.
        lost = {tid for tid, _reason in r.failures.nodes[1].lost}
        assert lost.isdisjoint(tid for tid, _target in drained.evacuated)


class TestReapedMidFutexWait:
    """The recovery pass reaps a thread while the master is still reading
    the futex word of its ``futex_wait``: the syscall service finds the
    record exited, un-parks it and answers nobody."""

    def test_reaped_waiter_is_neither_parked_nor_answered(self, monkeypatch):
        cluster = Cluster(2, DQEMUConfig(**_EVAC))
        runtime = cluster.submit(pi_taylor.build(n_threads=1, terms=10, reps=1)).runtime
        master, state = runtime.master, runtime.state
        waiter = state.threads.create(node=1)
        service = master.syscalls

        class CrashingRead:
            """Node 1 is declared dead while the word is in flight, as when
            the fetch from its owner times out; the word reads 0."""

            def read_guest(self, addr, size):
                master.failure_domain.node_failed(1)
                return bytes(size)
                yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(service.executor, "mem", CrashingRead())
        replies = []
        monkeypatch.setattr(master.endpoint, "reply", lambda to, msg: replies.append(msg))
        proto = master.run_stats.protocol
        skips = proto.dead_peer_skips
        msg = SyscallRequest(
            src=1, tid=waiter.tid, sysno=SYS.FUTEX, args=(0x8000, FUTEX_WAIT, 0),
            context={"regs": [0] * 32, "pc": 0x1000, "tid": waiter.tid},
        )
        handle = service.handle(msg)
        next(handle)  # the syscall service time
        with pytest.raises(StopIteration):
            handle.send(None)

        assert waiter.tid not in [t.tid for t in state.threads.alive()]
        assert waiter.exit_status == 137
        assert waiter.futex is None and waiter.context is None
        assert state.futexes.n_sleeping == 0
        assert replies == [] and proto.futex_waits == 0
        assert proto.dead_peer_skips == skips + 1
        assert runtime.failure_domain.failures.nodes[1].lost == [
            (waiter.tid, "context lost in crash")
        ]


# -- coherence protocols × failure domains -------------------------------------


class TestCoherenceProtocolCrashes:
    """The non-MSI protocols must ride out the same crashes MSI does."""

    RMW_KW = dict(n_threads=6, n_nodes=3, pages_per_thread=4, passes=3,
                  bcast_beat=8)

    def _rmw_run(self, protocol, trace=False, **cfg_kw):
        prog = memaccess.build_private_rmw(**self.RMW_KW)
        # Readers racing the broadcast writer keep its write-acquisition
        # streak short, so trigger at 3 to make the home migration fire.
        cfg = DQEMUConfig(
            coherence_protocol=protocol, adaptive_window=8,
            migration_trigger=3, **cfg_kw
        ).time_scaled(100.0)
        return mirrored_run(Cluster(3, cfg, trace=trace), prog, max_virtual_ms=60_000_000)

    def test_crash_with_exclusive_pages_completes_degraded(self):
        # The victim holds Exclusive-clean grants when it dies; eviction
        # writes them off conservatively and the run still finishes.
        clean = self._rmw_run("mesi")
        assert clean.stats.protocol.exclusive_grants > 0
        plan = FaultPlan.crash(2, int(clean.virtual_ns * 0.4), seed=3)
        r = self._rmw_run(
            "mesi", fault_plan=plan,
            evacuation_enabled=True, health_aware_placement=True, **RELIABLE,
        )
        assert r.exit_code == 0
        rec = r.failures.nodes[2]
        assert rec.kind == "crash"
        assert r.stats.protocol.exclusive_grants > 0

    def test_migrated_home_on_crashed_node_reverts(self):
        # Find where the home migration lands, then kill exactly that node:
        # the policy must revert the page's home to the master and the run
        # must still complete.
        clean = self._rmw_run("migrate", trace=True)
        migrations = [
            ev for ev in clean.trace.events if ev.what == "home migrated"
        ]
        assert migrations, "workload no longer triggers a home migration"
        victim = migrations[0].node
        crash_at = int(migrations[0].ts_ns + 1)
        plan = FaultPlan.crash(victim, crash_at, seed=4)
        r = self._rmw_run(
            "migrate", trace=True, fault_plan=plan,
            evacuation_enabled=True, health_aware_placement=True, **RELIABLE,
        )
        assert r.exit_code == 0
        reverted = [
            ev for ev in r.trace.events if ev.what == "home reverted to master"
        ]
        assert reverted and all(ev.node == victim for ev in reverted)
        # Once reverted, no later request is billed against the dead home.
        assert r.failures.nodes[victim].kind == "crash"

    def test_adaptive_rides_out_crash(self):
        clean = self._rmw_run("adaptive")
        plan = FaultPlan.crash(1, int(clean.virtual_ns * 0.5), seed=5)
        r = self._rmw_run(
            "adaptive", fault_plan=plan,
            evacuation_enabled=True, health_aware_placement=True, **RELIABLE,
        )
        assert r.exit_code == 0
        assert r.failures.nodes[1].kind == "crash"


# -- evacuation target selection (health-latched) ------------------------------


class TestEvacuationTargeting:
    """Regression: the failure domain's round-robin cursor must consult the
    latched health view — an evacuated thread landing on a
    suspect or draining node risks a second evacuation moments later."""

    def _svc(self, tracker, candidates=(1, 2, 3)):
        """The service over a fake runtime: taking the runtime is what lets a
        test hand in only the parts target selection reads."""
        from types import SimpleNamespace

        from repro.core.services.failure import FailureDomainService
        from repro.core.stats import RunStats

        runtime = SimpleNamespace(
            sim=Simulator(), config=DQEMUConfig(), failure_view=tracker,
            placer=SimpleNamespace(candidates=list(candidates)),
            node=SimpleNamespace(node_id=0),
            endpoint=None, trace=None, run_stats=RunStats(), tenant=0, state=None,
        )
        return FailureDomainService(runtime)

    def test_pick_target_skips_suspect_nodes(self):
        tracker = make_tracker(suspect_after=1, down_after=5)
        svc = self._svc(tracker)
        tracker.retransmitted(2)
        assert [svc.pick_target() for _ in range(4)] == [1, 3, 1, 3]

    def test_pick_target_never_lands_on_draining_or_failed(self):
        tracker = make_tracker()
        svc = self._svc(tracker)
        tracker.mark_failed(1)
        tracker.mark_draining(3)
        assert [svc.pick_target() for _ in range(3)] == [2, 2, 2]

    def test_suspect_pressed_into_service_when_no_healthy_left(self):
        tracker = make_tracker(suspect_after=1, down_after=5)
        svc = self._svc(tracker)
        tracker.mark_failed(1)
        tracker.mark_failed(3)
        tracker.retransmitted(2)
        assert svc.pick_target() == 2

    def test_exhausted_pool_falls_back_to_master(self):
        tracker = make_tracker()
        svc = self._svc(tracker, candidates=(1,))
        assert svc.pick_target(exclude=1) == 0


# -- heartbeats under a fault-heavy guest -------------------------------------

def _loaded(pages_per_thread=32):
    """The host benchmark's fault_storm guest: every worker read-increment-
    writes its private pages, plus its byte of one shared page every 8 steps.
    Closed-form checksum: 8 * 4 * pages + 8 * (4 * pages // 8) = 36 * pages."""
    return memaccess.build_private_rmw(
        n_threads=8, n_nodes=4, pages_per_thread=pages_per_thread, passes=1,
        stride=1024, shared_beat=8,
    )


#: The host benchmark's reliability settings, with a 2 ms lease.
LIVENESS = dict(
    rpc_timeout_ns=50_000_000,
    rpc_max_retries=4,
    rpc_backoff_base_ns=10_000,
    rpc_backoff_jitter_ns=2_000,
    evacuation_enabled=True,
    health_aware_placement=True,
    heartbeat_interval_ns=500_000,
)
#: Every correct default-off feature armed at once (the host benchmark's
#: full-stack config).
FULL_STACK = DQEMUConfig(
    **LIVENESS,
    master_shards=2,
    coherence_protocol="adaptive",
    forwarding_enabled=True,
    splitting_enabled=True,
    superblock_threshold=8,
    fusion_enabled=True,
)


class TestHeartbeatsUnderLoad:
    """A fault-free run prints the oracle's checksum and latches no node:
    the guest's page traffic never starves a healthy slave's renewals."""

    @pytest.mark.parametrize("protocol", ["adaptive", "msi"])
    @pytest.mark.parametrize("pages", [32, 128])
    def test_full_stack(self, pages, protocol):
        r = mirrored_run(
            Cluster(4, FULL_STACK.with_options(coherence_protocol=protocol)), _loaded(pages)
        )
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == str(36 * pages)
        assert not r.failures.nodes


class TestHeartbeatMute:
    """Slave 1 stays alive but its renewals are dropped from ``mute_ns`` on.
    The run must print the oracle, or latch exactly node 1 on lease expiry
    and account for its threads: never an error nobody attributed."""

    @pytest.mark.parametrize("protocol, mute_ns", [
        ("msi", 5_000_000),
        pytest.param("msi", 1_000_000, marks=pytest.mark.xfail(
            strict=True, raises=InvalidInstruction,
            reason="unattributed InvalidInstruction: undefined opcode 0x0",
        )),
        ("adaptive", 10_000_000),
    ])
    def test_mute_is_latched_or_harmless(self, protocol, mute_ns):
        plan = FaultPlan.of(drop(kinds=("heartbeat",), src=1, after_ns=mute_ns))
        cfg = DQEMUConfig(**LIVENESS, coherence_protocol=protocol, fault_plan=plan)
        r = mirrored_run(Cluster(4, cfg), _loaded())
        if r.exit_code == 0 and r.stdout.splitlines()[-1] == str(36 * 32) and not r.failures.nodes:
            return
        assert list(r.failures.nodes) == [1]
        rec = r.failures.nodes[1]
        assert rec.kind == "crash" and rec.evidence == "lease-expiry"
        assert len(rec.evacuated) + len(rec.lost) > 0
