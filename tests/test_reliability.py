"""Reliable delivery: retry policy, retransmission, reply replay, health.

Unit coverage for the RPC reliability layer (docs/PROTOCOL.md "Reliable
delivery") plus the tombstone-sweep boundary cases it leans on: backoff
determinism, timer cancellation on completion and re-arm, retransmission
recovering dropped requests *and* dropped replies (server reply cache),
budget exhaustion escalating to :class:`RpcTimeout`, per-peer health state
transitions, and end-to-end cluster runs that ride out a network partition.
"""

import pytest

from repro import Cluster, DQEMUConfig, FaultPlan, ServiceTimeout
from repro.core.stats import ServiceStats
from repro.cost import CostModel
from repro.errors import ConfigError
from repro.net import Endpoint, Fabric
from repro.net.faults import FaultInjector, drop
from repro.net.health import HealthTracker, PeerState
from repro.net.messages import PageRequest, SyscallReply
from repro.net.rpc import RetryPolicy, RpcTimeout
from repro.sim import Simulator
from repro.workloads import blackscholes

RETRY = RetryPolicy(max_retries=3, backoff_base_ns=10_000)


def make_cluster(n=2, plan=None, health=False):
    # Latency far below the tests' 5 us timeout windows, so a retransmit can
    # only ever come from an injected fault, never from wire delay.
    sim = Simulator()
    fabric = Fabric(sim, CostModel(one_way_latency_ns=100, loopback_latency_ns=10))
    injector = None
    if plan is not None:
        injector = FaultInjector(sim, plan).attach(fabric)
    if health:
        fabric.health = HealthTracker(sim)
    eps = [Endpoint(sim, fabric, i) for i in range(n)]
    return sim, fabric, injector, eps


def echo_server(ep, kind="page_request", retval=7):
    q = ep.subscribe(kind)
    while True:
        msg = yield q.get()
        ep.reply(msg, SyscallReply(retval=retval))


# -- policy -------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError, match="non-negative"):
            RetryPolicy(max_retries=1, backoff_base_ns=-1)

    def test_backoff_doubles_per_attempt(self):
        p = RetryPolicy(max_retries=5, backoff_base_ns=1000)
        assert [p.backoff_ns(k, req_id=9) for k in range(4)] == [
            1000, 2000, 4000, 8000,
        ]

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(max_retries=5, backoff_base_ns=1000, backoff_jitter_ns=500)
        twin = RetryPolicy(max_retries=5, backoff_base_ns=1000, backoff_jitter_ns=500)
        for attempt in range(4):
            for req_id in (1, 2, 77):
                d = p.backoff_ns(attempt, req_id)
                assert d == twin.backoff_ns(attempt, req_id)  # pure function
                assert 1000 << attempt <= d <= (1000 << attempt) + 500

    def test_jitter_varies_with_request_id(self):
        p = RetryPolicy(max_retries=5, backoff_base_ns=1000, backoff_jitter_ns=499)
        spreads = {p.backoff_ns(0, req_id) for req_id in range(32)}
        assert len(spreads) > 1  # the hash actually spreads

    def test_retry_without_timeout_rejected(self):
        sim, _fabric, _inj, eps = make_cluster()
        with pytest.raises(ConfigError, match="needs timeout_ns"):
            eps[0].request(1, PageRequest(page=1), retry=RETRY)

    def test_config_retry_policy_construction(self):
        assert DQEMUConfig().retry_policy() is None
        cfg = DQEMUConfig(
            rpc_timeout_ns=5_000, rpc_max_retries=2,
            rpc_backoff_base_ns=1_000, rpc_backoff_jitter_ns=100,
        )
        policy = cfg.retry_policy()
        assert policy == RetryPolicy(
            max_retries=2, backoff_base_ns=1_000, backoff_jitter_ns=100
        )


# -- retransmission ------------------------------------------------------------


class TestRetransmission:
    def test_dropped_request_is_retransmitted_and_recovers(self):
        plan = FaultPlan.of(drop(kinds={"page_request"}, max_count=1))
        sim, _fabric, inj, eps = make_cluster(plan=plan, health=True)
        a, b = eps
        sim.spawn(echo_server(b))
        replies = []
        sink = ServiceStats(name="svc")

        def caller():
            reply = yield a.request(
                1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY, stats=sink
            )
            replies.append(reply)

        sim.spawn(caller())
        sim.run()
        assert [r.retval for r in replies] == [7]
        assert inj.stats.dropped == 1
        assert sink.retransmits == 1
        assert sink.recoveries == 1
        # Recovery latency spans first send -> reply: at least the timeout
        # window plus the first backoff.
        assert sink.recovery_wait_ns >= 5_000 + 10_000

    def test_dropped_reply_is_recovered_by_retransmit(self):
        plan = FaultPlan.of(drop(kinds={"syscall_reply"}, max_count=1))
        sim, _fabric, inj, eps = make_cluster(plan=plan)
        a, b = eps
        sim.spawn(echo_server(b))
        replies = []
        sink = ServiceStats(name="svc")

        def caller():
            reply = yield a.request(
                1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY, stats=sink
            )
            replies.append(reply)

        sim.spawn(caller())
        sim.run()
        assert [r.retval for r in replies] == [7]
        assert inj.stats.dropped == 1
        assert sink.retransmits == 1 and sink.recoveries == 1

    def test_budget_exhaustion_escalates_with_retry_count(self):
        plan = FaultPlan.of(drop(kinds={"page_request"}))  # nothing gets through
        sim, _fabric, _inj, eps = make_cluster(plan=plan, health=True)
        a, b = eps
        sim.spawn(echo_server(b))
        failures = []
        sink = ServiceStats(name="svc")

        def caller():
            try:
                yield a.request(
                    1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY, stats=sink
                )
            except RpcTimeout as exc:
                failures.append(exc)

        sim.spawn(caller())
        sim.run()
        assert len(failures) == 1
        assert failures[0].retries == RETRY.max_retries
        assert "after 3 retransmits" in str(failures[0])
        assert sink.retransmits == 3
        assert a.rpc.exhausted == 1 and sink.recoveries == 0
        assert a.rpc._calls == {}  # no call (or its timer) outlives the failure

    def test_completion_cancels_timer(self):
        sim, _fabric, _inj, eps = make_cluster()
        a, b = eps
        sim.spawn(echo_server(b))
        replies = []

        armed = []
        sink = ServiceStats(name="svc")

        def caller():
            ev = a.request(
                1, PageRequest(page=1), timeout_ns=1_000_000, retry=RETRY, stats=sink
            )
            armed.extend(a.rpc._calls.values())
            replies.append((yield ev))

        sim.spawn(caller())
        sim.run()
        assert len(replies) == 1
        [call] = armed
        assert call.timer is None and a.rpc._calls == {}
        assert sink.retransmits == 0
        # The cancelled timeout still advances the clock to its expiry (the
        # heap entry stays), but fires no retransmission.
        assert sim.now >= 1_000_000

    def test_stats_sink_receives_attributed_counts(self):
        sink = ServiceStats(name="svc")
        plan = FaultPlan.of(drop(kinds={"page_request"}, max_count=2))
        sim, _fabric, _inj, eps = make_cluster(plan=plan)
        a, b = eps
        sim.spawn(echo_server(b))

        def caller():
            yield a.request(
                1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY, stats=sink
            )

        sim.spawn(caller())
        sim.run()
        assert sink.retransmits == 2
        assert sink.recoveries == 1
        assert sink.recovery_wait_ns > 0

    def test_retransmit_without_stats_row_rejected(self):
        # Retransmits are booked only on the issuing service's row, so a
        # call that would retransmit without one is a configuration error.
        plan = FaultPlan.of(drop(kinds={"page_request"}, max_count=1))
        sim, _fabric, _inj, eps = make_cluster(plan=plan)
        a, b = eps
        sim.spawn(echo_server(b))

        def caller():
            yield a.request(1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY)

        sim.spawn(caller())
        with pytest.raises(ConfigError, match="stats row"):
            sim.run()


# -- server-side reply cache ---------------------------------------------------


class TestReplyCache:
    """The server side of at-most-once: ``first_delivery`` remembers what
    this endpoint served and answers a replay from the reply cache."""

    def _served_pair(self):
        sim, fabric, _inj, eps = make_cluster()
        a, b = eps
        b.rpc.arm(faults=False, retries=True, acks=False)
        req = PageRequest(page=1)
        req.req_id, req.src, req.dst = 11, 0, 1
        assert b.rpc.first_delivery(req) is True
        b.rpc.reply(req, SyscallReply(retval=5))
        return fabric, a, b, req

    def test_replay_resends_cached_clone(self):
        fabric, _a, b, req = self._served_pair()
        assert b.rpc.cached_replies == 1
        assert b.rpc.first_delivery(req) is False
        assert b.rpc.reply_replays == 1
        assert fabric.stats.messages_sent == 2  # the reply, then its replay

    def test_disabled_cache_replays_nothing(self):
        sim, fabric, _inj, eps = make_cluster()
        b = eps[1]
        req = PageRequest(page=1)
        req.req_id, req.src, req.dst = 11, 0, 1
        assert b.rpc.first_delivery(req) is True
        b.rpc.reply(req, SyscallReply(retval=5))
        assert b.rpc.cached_replies == 0
        assert b.rpc.first_delivery(req) is False  # still refused...
        assert b.rpc.reply_replays == 0  # ...but nothing to answer it with
        assert fabric.stats.messages_sent == 1

    def test_cache_is_fifo_bounded(self):
        _fabric, _a, b, _req = self._served_pair()
        for i in range(b.rpc.REPLY_CACHE_LIMIT + 50):
            req = PageRequest(page=1)
            req.req_id, req.src, req.dst = 100 + i, 0, 1
            b.rpc.reply(req, SyscallReply(retval=0))
        assert b.rpc.cached_replies == b.rpc.REPLY_CACHE_LIMIT

    def test_served_ids_are_fifo_bounded(self):
        _fabric, _a, b, first = self._served_pair()
        for i in range(b.rpc.SERVED_LIMIT):
            req = PageRequest(page=1)
            req.req_id, req.src = 100 + i, 0
            assert b.rpc.first_delivery(req) is True
        assert len(b.rpc._served) == b.rpc.SERVED_LIMIT
        # The oldest id was evicted: it is served again, as a new request.
        assert b.rpc.first_delivery(first) is True


# -- tombstone sweep boundaries ------------------------------------------------


class TestTombstoneBoundaries:
    def test_entry_exactly_at_horizon_survives(self):
        sim, _fabric, _inj, eps = make_cluster()
        ch = eps[0].rpc
        ch._remember(1, "expired")  # stamped t=0
        # At t == TTL the horizon is exactly 0: the entry is not yet stale.
        sim.timeout(ch.TOMBSTONE_TTL_NS).add_callback(
            lambda _e: ch._remember(2, "completed")
        )
        sim.run()
        assert ch.tombstones == 2

    def test_entry_one_ns_past_horizon_is_swept(self):
        sim, _fabric, _inj, eps = make_cluster()
        ch = eps[0].rpc
        ch._remember(1, "expired")
        sim.timeout(ch.TOMBSTONE_TTL_NS + 1).add_callback(
            lambda _e: ch._remember(2, "completed")
        )
        sim.run()
        assert ch.tombstones == 1
        assert 2 in ch._tombstones and 1 not in ch._tombstones

    def test_cap_evicts_oldest_first_across_mixed_kinds(self):
        sim, _fabric, _inj, eps = make_cluster()
        ch = eps[0].rpc
        overflow = 10
        for req_id in range(ch.TOMBSTONE_LIMIT + overflow):
            ch._remember(req_id, "expired" if req_id % 2 else "completed")
        assert ch.tombstones == ch.TOMBSTONE_LIMIT
        # Insertion order governs eviction, not the expired/completed kind:
        # exactly the oldest `overflow` ids are gone.
        assert all(req_id not in ch._tombstones for req_id in range(overflow))
        assert overflow in ch._tombstones
        assert (ch.TOMBSTONE_LIMIT + overflow - 1) in ch._tombstones

    def test_late_first_reply_after_retransmit_is_deduped(self):
        sim, _fabric, _inj, eps = make_cluster()
        a, b = eps
        replies = []
        sink = ServiceStats(name="svc")

        def slow_then_fast_server():
            q = b.subscribe("page_request")
            first = yield q.get()
            # Past the client's timeout + first backoff (5 + 10 us) but
            # inside the re-armed window: exactly one retransmit goes out
            # before the late first reply lands.
            yield sim.timeout(18_000)
            b.reply(first, SyscallReply(retval=1))  # the *late* first reply
            second = yield q.get()  # the retransmitted clone
            b.reply(second, SyscallReply(retval=2))

        def caller():
            reply = yield a.request(
                1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY, stats=sink
            )
            replies.append(reply)

        sim.spawn(slow_then_fast_server())
        sim.spawn(caller())
        sim.run()
        # Delivered exactly once (the late first reply wins the race); the
        # second server reply hits a completed tombstone, not the caller.
        assert [r.retval for r in replies] == [1]
        assert a.rpc.duplicate_replies == 1
        assert sink.retransmits == 1 and sink.recoveries == 1


# -- peer health ---------------------------------------------------------------


class TestPeerHealth:
    def test_state_transitions(self):
        sim = Simulator()
        h = HealthTracker(sim)
        assert h.state_of(2) is PeerState.UP
        h.retransmitted(2)
        assert h.state_of(2) is PeerState.UP  # one failure: below suspicion
        h.retransmitted(2)
        assert h.state_of(2) is PeerState.SUSPECT
        for _ in range(3):
            h.retransmitted(2)
        assert h.state_of(2) is PeerState.DOWN
        h.heard_from(2)
        assert h.state_of(2) is PeerState.UP
        assert h.peer(2).consecutive_failures == 0

    def test_exhausted_budget_marks_down(self):
        sim = Simulator()
        h = HealthTracker(sim)
        h.exhausted_budget(1)
        assert h.state_of(1) is PeerState.DOWN
        assert h.peer(1).exhausted == 1

    def test_channel_feeds_tracker(self):
        plan = FaultPlan.of(drop(kinds={"page_request"}))
        sim, fabric, _inj, eps = make_cluster(plan=plan, health=True)
        a, b = eps
        sim.spawn(echo_server(b))

        def caller():
            try:
                yield a.request(
                    1, PageRequest(page=1), timeout_ns=5_000, retry=RETRY,
                    stats=ServiceStats(name="svc"),
                )
            except RpcTimeout:
                pass

        sim.spawn(caller())
        sim.run()
        peer = fabric.health.peer(1)
        assert peer.retransmits == 3
        assert peer.exhausted == 1
        assert peer.state is PeerState.DOWN
        assert "down" in fabric.health.describe()


# -- cluster end-to-end --------------------------------------------------------


PROG_KW = dict(n_threads=4, n_options=2040, reps=4)
# Timeout comfortably above this workload's worst legitimate reply latency
# (clone storms queue SpawnThread calls for tens of us), so a retransmit in
# the bit-identity test could only come from a real loss.
RELIABLE = dict(
    rpc_timeout_ns=100_000, rpc_max_retries=6,
    rpc_backoff_base_ns=10_000, rpc_backoff_jitter_ns=2_000,
)


class TestClusterReliability:
    def _run(self, **cfg_kw):
        prog = blackscholes.build(**PROG_KW)
        cfg = DQEMUConfig(**cfg_kw).time_scaled(100.0)
        return Cluster(2, cfg).run(prog, max_virtual_ms=60_000_000)

    def test_arming_retries_changes_nothing_without_loss(self):
        plain = self._run()
        timeout_only = self._run(rpc_timeout_ns=RELIABLE["rpc_timeout_ns"])
        armed = self._run(**RELIABLE)
        # Timings are identical all the way down to the default config...
        assert armed.virtual_ns == plain.virtual_ns
        assert armed.stats.insns_executed == plain.stats.insns_executed
        # ...and relative to a timeout-only run (which already acks futex
        # wakes), the retry budget adds not a single frame.
        assert armed.fabric.messages_sent == timeout_only.fabric.messages_sent
        assert armed.fabric.by_kind == timeout_only.fabric.by_kind
        assert armed.rpc.retransmits == 0 and armed.rpc.recoveries == 0

    def test_background_loss_is_ridden_out(self):
        plan = FaultPlan.of(drop(every_nth=50, loopback=False), seed=5)
        result = self._run(fault_plan=plan, **RELIABLE)
        assert result.exit_code == 0
        assert result.faults.dropped > 0
        assert result.rpc.retransmits > 0
        assert result.rpc.recoveries > 0
        assert all(p.state is PeerState.UP for p in result.health.peers.values())

    def test_lossy_jittered_run_repeats_bit_identically(self):
        # Req ids restart at every Cluster.run, so the jittered backoff
        # schedule — and with it the whole run — reproduces even for
        # back-to-back runs in one process.
        def go():
            plan = FaultPlan.of(drop(every_nth=50, loopback=False), seed=5)
            return self._run(fault_plan=plan, **RELIABLE)

        first, second = go(), go()
        assert first.rpc.retransmits > 0
        assert first.virtual_ns == second.virtual_ns
        assert first.rpc.retransmits == second.rpc.retransmits
        assert first.rpc.recovery_wait_ns == second.rpc.recovery_wait_ns

    def test_partition_aborts_without_retries_heals_with(self):
        clean = self._run()
        start = clean.virtual_ns // 3
        plan = FaultPlan.partition([2], start, start + 100_000)
        with pytest.raises(ServiceTimeout) as excinfo:
            self._run(rpc_timeout_ns=20_000, fault_plan=plan)
        assert "no reply" in str(excinfo.value)

        healed = self._run(fault_plan=plan, **RELIABLE)
        assert healed.exit_code == 0
        assert healed.rpc.recoveries > 0
        assert healed.rpc.recovery_wait_ns > 0
        assert all(p.state is PeerState.UP for p in healed.health.peers.values())

    def test_service_stats_attribute_retransmits(self):
        plan = FaultPlan.of(drop(every_nth=50, loopback=False), seed=5)
        result = self._run(fault_plan=plan, **RELIABLE)
        attributed = sum(
            s.retransmits for s in result.stats.services.values()
        )
        assert attributed > 0
        assert attributed == result.rpc.retransmits
        recovered = [
            s for s in result.stats.services.values() if s.recoveries
        ]
        assert recovered and all(s.recovery_wait_ns > 0 for s in recovered)
