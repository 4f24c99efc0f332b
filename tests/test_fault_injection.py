"""Fault injection, runtime RPC timeouts, and replay tolerance.

Covers the injector's actions and predicates at the fabric level, the RPC
channel's tombstone bookkeeping, the dispatcher's replay dedup, and
end-to-end cluster runs under lossy plans: a dead message kind must fail
the run loudly with a :class:`ServiceTimeout` naming the service and peer,
while duplication/delay plans must be absorbed correctly.  A final
regression pins the no-fault guarantee: attaching an empty plan changes
nothing, bit for bit.
"""

from collections import Counter

import pytest

from repro import Cluster, DQEMUConfig, FaultPlan, ServiceTimeout
from repro.core.services.coherence import CoherenceService
from repro.core.services.nodeside import NodeCoherenceService
from repro.errors import ConfigError, NetworkError
from repro.net import Endpoint, Fabric
from repro.net.faults import FaultInjector, clone_frame, delay, drop, duplicate, reorder
from repro.net.messages import Ack, PageData, PageRequest, SyscallReply
from repro.net.rpc import RetryPolicy, RpcTimeout
from repro.sim import Simulator
from repro.workloads import mutex_bench


def make_cluster(n=3, plan=None, **kw):
    sim = Simulator()
    fabric = Fabric(sim, **kw)
    injector = None
    if plan is not None:
        injector = FaultInjector(sim, plan).attach(fabric)
    eps = [Endpoint(sim, fabric, i) for i in range(n)]
    return sim, fabric, injector, eps


def collect(sim, ep, kind, out):
    """Subscriber process appending (arrival_ns, msg) tuples to ``out``."""
    q = ep.subscribe(kind)
    while True:
        msg = yield q.get()
        out.append((sim.now, msg))


# -- rule / plan validation -----------------------------------------------------


class TestRuleValidation:
    def test_unknown_action_rejected(self):
        from repro.net.faults import FaultRule

        with pytest.raises(ConfigError, match="unknown fault action"):
            FaultRule(action="corrupt")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError, match="every_nth"):
            drop(every_nth=0)
        with pytest.raises(ConfigError, match="max_count"):
            drop(max_count=0)
        with pytest.raises(ConfigError, match="window is empty"):
            drop(after_ns=100, until_ns=100)
        with pytest.raises(ConfigError, match="delay rule needs"):
            delay(0)
        with pytest.raises(ConfigError, match="copies"):
            duplicate(copies=0)
        with pytest.raises(ConfigError, match="hold_ns"):
            reorder(hold_ns=-1)

    def test_kinds_coerced_to_frozenset(self):
        rule = drop(kinds=["ack", "page_data"])
        assert rule.kinds == frozenset({"ack", "page_data"})

    def test_plan_coerces_and_validates_rules(self):
        plan = FaultPlan(rules=[drop(kinds={"ack"})])
        assert isinstance(plan.rules, tuple)
        with pytest.raises(ConfigError, match="must be FaultRule"):
            FaultPlan(rules=("not a rule",))

    def test_describe_is_readable(self):
        plan = FaultPlan.of(drop(kinds={"page_data"}, every_nth=3, max_count=2))
        text = plan.describe()
        assert "drop" in text and "page_data" in text and "every 3th" in text
        assert FaultPlan().describe() == "no faults"

    def test_config_rejects_bad_fault_settings(self):
        with pytest.raises(ConfigError, match="rpc_timeout_ns"):
            DQEMUConfig(rpc_timeout_ns=0)
        with pytest.raises(ConfigError, match="fault_plan"):
            DQEMUConfig(fault_plan=[drop()])  # a bare list is not a plan


# -- injector actions at the fabric level ---------------------------------------


class TestInjectorActions:
    def test_drop_swallows_frame_and_skips_fabric_stats(self):
        sim, fabric, inj, eps = make_cluster(plan=FaultPlan.of(drop(kinds={"ack"})))
        got = []
        sim.spawn(collect(sim, eps[1], "ack", got))
        sim.spawn(collect(sim, eps[1], "page_request", got))
        eps[0].send(1, Ack())
        eps[0].send(1, PageRequest(page=1))
        sim.run(until=1_000_000)
        kinds = [m.kind for _, m in got]
        assert kinds == ["page_request"]
        assert inj.stats.dropped == 1
        assert inj.stats.by_kind["ack"] == 1
        # Dropped frames never reach the wire: fabric counted only one send.
        assert fabric.stats.messages_sent == 1
        assert "ack" not in fabric.stats.by_kind

    def test_delay_shifts_arrival_deterministically(self):
        def arrival(seed):
            plan = FaultPlan.of(
                delay(10_000, jitter_ns=5_000, kinds={"ack"}), seed=seed
            )
            sim, _fabric, inj, eps = make_cluster(plan=plan)
            got = []
            sim.spawn(collect(sim, eps[1], "ack", got))
            eps[0].send(1, Ack())
            sim.run(until=1_000_000)
            assert inj.stats.delayed == 1
            assert inj.stats.delay_added_ns >= 10_000
            return got[0][0]

        # Same seed, same jitter, same arrival — and the delay is visible.
        assert arrival(7) == arrival(7)
        base_sim, _f, _i, base_eps = make_cluster()
        base = []
        base_sim.spawn(collect(base_sim, base_eps[1], "ack", base))
        base_eps[0].send(1, Ack())
        base_sim.run(until=1_000_000)
        assert arrival(7) >= base[0][0] + 10_000

    def test_duplicate_delivers_copies_that_do_not_alias(self):
        plan = FaultPlan.of(duplicate(copies=2, kinds={"page_data"}))
        sim, _fabric, inj, eps = make_cluster(plan=plan)
        got = []
        sim.spawn(collect(sim, eps[1], "page_data", got))
        eps[0].send(1, PageData(page=9, data=b"x" * 16))
        sim.run(until=1_000_000)
        assert len(got) == 3
        assert inj.stats.duplicated == 2
        frames = [m for _, m in got]
        assert len({id(m) for m in frames}) == 3  # distinct instances
        frames[0].page = 12345  # mutating one delivery reaches no other
        assert frames[1].page == 9 and frames[2].page == 9

    def test_reorder_lets_next_frame_overtake(self):
        plan = FaultPlan.of(reorder(kinds={"ack"}, max_count=1))
        sim, _fabric, inj, eps = make_cluster(plan=plan)
        got = []
        sim.spawn(collect(sim, eps[1], "ack", got))
        sim.spawn(collect(sim, eps[1], "page_request", got))
        eps[0].send(1, Ack())  # held
        eps[0].send(1, PageRequest(page=1))  # overtakes, releasing the hold
        sim.run(until=1_000_000)
        kinds = [m.kind for _, m in got]
        assert kinds == ["page_request", "ack"]
        assert inj.stats.reordered == 1

    def test_reorder_flushes_on_quiet_link(self):
        plan = FaultPlan.of(reorder(hold_ns=50_000, kinds={"ack"}))
        sim, _fabric, _inj, eps = make_cluster(plan=plan)
        got = []
        sim.spawn(collect(sim, eps[1], "ack", got))
        eps[0].send(1, Ack())
        sim.run(until=1_000_000)
        assert len(got) == 1
        assert got[0][0] >= 50_000  # delivered, but only after the hold

    def test_attach_twice_rejected(self):
        sim = Simulator()
        f1, f2 = Fabric(sim), Fabric(sim)
        inj = FaultInjector(sim, FaultPlan())
        inj.attach(f1)
        with pytest.raises(NetworkError, match="already attached"):
            inj.attach(f2)


class TestInjectorPredicates:
    def test_every_nth_and_max_count(self):
        plan = FaultPlan.of(drop(kinds={"ack"}, every_nth=2, max_count=2))
        sim, _fabric, inj, eps = make_cluster(plan=plan)
        got = []
        sim.spawn(collect(sim, eps[1], "ack", got))
        for _ in range(8):
            eps[0].send(1, Ack())
        sim.run(until=10_000_000)
        # Frames 2 and 4 dropped, then max_count exhausts the rule.
        assert inj.stats.dropped == 2
        assert len(got) == 6

    def test_src_dst_and_window(self):
        plan = FaultPlan.of(drop(kinds={"ack"}, src=0, dst=1, until_ns=1))
        sim, _fabric, inj, eps = make_cluster(plan=plan)
        got = []
        sim.spawn(collect(sim, eps[1], "ack", got))
        sim.spawn(collect(sim, eps[2], "ack", got))
        eps[0].send(1, Ack())  # matches (t=0, src 0 -> dst 1): dropped
        eps[0].send(2, Ack())  # wrong dst
        eps[2].send(1, Ack())  # wrong src

        def late():
            yield sim.timeout(10)
            eps[0].send(1, Ack())  # outside the window

        sim.spawn(late())
        sim.run(until=10_000_000)
        assert inj.stats.dropped == 1
        assert len(got) == 3

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.of(
            delay(10_000, kinds={"ack"}), drop(kinds={"ack"})
        )
        sim, _fabric, inj, eps = make_cluster(plan=plan)
        got = []
        sim.spawn(collect(sim, eps[1], "ack", got))
        eps[0].send(1, Ack())
        sim.run(until=1_000_000)
        assert inj.stats.delayed == 1 and inj.stats.dropped == 0
        assert len(got) == 1

    def test_injected_copies_bypass_matching(self):
        # A duplicate rule's own output must not be re-duplicated.
        plan = FaultPlan.of(duplicate(copies=1))
        sim, _fabric, inj, eps = make_cluster(plan=plan)
        got = []
        sim.spawn(collect(sim, eps[1], "ack", got))
        eps[0].send(1, Ack())
        sim.run(until=1_000_000)
        assert len(got) == 2
        assert inj.stats.matched == 1


# -- RPC channel: tombstones, duplicate replies, timeouts -----------------------


class TestRpcRobustness:
    def _pair(self):
        sim, _fabric, _inj, eps = make_cluster(2)
        return sim, eps[0], eps[1]

    def test_timeout_fails_call_and_late_reply_is_dropped(self):
        sim, a, b = self._pair()
        failures = []

        def caller():
            try:
                yield a.request(1, PageRequest(page=1), timeout_ns=5_000)
            except RpcTimeout as exc:
                failures.append(exc)

        def sleepy_server():
            q = b.subscribe("page_request")
            msg = yield q.get()
            yield sim.timeout(1_000_000)  # long past the caller's patience
            b.reply(msg, SyscallReply(retval=0))

        sim.spawn(caller())
        sim.spawn(sleepy_server())
        sim.run()
        assert len(failures) == 1
        assert "page_request" in str(failures[0]) and "node 1" in str(failures[0])
        # The late reply found its tombstone instead of crashing the channel.
        assert a.rpc.dropped_replies == 1
        assert a.rpc.in_flight == 0

    def test_duplicated_reply_is_deduplicated(self):
        plan = FaultPlan.of(duplicate(copies=1, kinds={"syscall_reply"}))
        sim, _fabric, _inj, eps = make_cluster(2, plan=plan)
        a, b = eps
        replies = []

        def caller():
            reply = yield a.request(1, PageRequest(page=1))
            replies.append(reply)

        def server():
            q = b.subscribe("page_request")
            msg = yield q.get()
            b.reply(msg, SyscallReply(retval=42))

        sim.spawn(caller())
        sim.spawn(server())
        sim.run()
        assert len(replies) == 1 and replies[0].retval == 42
        assert a.rpc.duplicate_replies == 1

    def test_a_retry_without_timeout_is_refused_before_anything_is_sent(self):
        sim, fabric, _inj, (a, b) = make_cluster(2)
        got = []
        sim.spawn(collect(sim, b, "page_request", got))
        with pytest.raises(ConfigError, match="needs timeout_ns"):
            a.rpc.call(1, PageRequest(page=1), retry=RetryPolicy(2))
        sim.run()
        assert a.rpc.in_flight == 0
        assert fabric.stats.messages_sent == 0 and got == []

    def test_reply_to_unknown_request_still_raises(self):
        sim, a, _b = self._pair()
        with pytest.raises(NetworkError, match="unknown request"):
            a.rpc.complete(SyscallReply(in_reply_to=424242))

    def test_tombstones_are_bounded(self):
        sim, a, _b = self._pair()
        ch = a.rpc
        for req_id in range(ch.TOMBSTONE_LIMIT * 2):
            ch._remember(req_id, "completed")
        assert ch.tombstones <= ch.TOMBSTONE_LIMIT

    def test_tombstones_expire_after_ttl(self):
        sim, a, _b = self._pair()
        ch = a.rpc
        ch._remember(1, "expired")
        sim.timeout(ch.TOMBSTONE_TTL_NS + 1).add_callback(
            lambda _e: ch._remember(2, "expired")
        )
        sim.run()
        assert ch.tombstones == 1  # the old entry was swept

    def test_clone_frame_copies(self):
        msg = PageData(page=3, data=b"abc")
        twin = clone_frame(msg)
        assert twin is not msg
        assert twin.page == 3 and twin.data == b"abc"
        twin.page = 4
        assert msg.page == 3


class TestDispatcherReplayDedup:
    def test_replayed_frame_is_served_once(self):
        from repro.core.services.base import Dispatcher
        from repro.core.stats import RunStats

        class Once:
            name = "once"
            handled_kinds = frozenset({"page_request"})
            served = 0

            def handle(self, msg):
                self.served += 1
                return None
                yield  # pragma: no cover - generator protocol

        sim = Simulator()
        stats = RunStats()
        d = Dispatcher(Endpoint(sim, Fabric(sim), 0), stats)  # a bare channel replays
        svc = d.register(Once())
        msg = PageRequest(page=1)
        msg.req_id = 7  # as stamped by the owning fabric at first transmit
        sim.spawn(d.dispatch(msg))
        sim.spawn(d.dispatch(clone_frame(msg)))  # replayed copy, same req_id
        sim.run()
        assert svc.served == 1
        assert stats.services["once"].requests == 1
        assert stats.services["once"].duplicates == 1


# -- fabric edge case (satellite): unknown node ---------------------------------


class TestFabricUnknownNode:
    def test_downlink_backlog_raises_for_unattached_node(self):
        sim, fabric, _inj, eps = make_cluster(2)
        assert fabric.downlink_backlog_ns(1) == 0
        with pytest.raises(NetworkError, match="no endpoint attached for node 9"):
            fabric.downlink_backlog_ns(9)
        with pytest.raises(NetworkError, match="node 9"):
            fabric.endpoint(9)


# -- end-to-end: lossy plans against a real cluster -----------------------------

TIMEOUT_NS = 10_000_000  # 10 ms: far beyond any healthy round trip
RUN_KW = dict(max_virtual_ms=2_000)


def lossy_config(*rules, **kw):
    return DQEMUConfig(
        rpc_timeout_ns=TIMEOUT_NS, fault_plan=FaultPlan.of(*rules), **kw
    )


class TestClusterUnderFaults:
    def test_dropped_page_data_times_out_with_named_service(self):
        """A dead reply path must terminate the run loudly — naming the
        waiting service and the silent peer — instead of hanging."""
        prog = mutex_bench.build(n_threads=2, iters=5)
        cluster = Cluster(n_slaves=2, config=lossy_config(drop(kinds={"page_data"})))
        with pytest.raises(ServiceTimeout) as info:
            cluster.run(prog, **RUN_KW)
        exc = info.value
        assert exc.service == "node.coherence"
        assert exc.request.kind == "page_request"
        msg = str(exc)
        assert "node.coherence" in msg and "page_request" in msg and "node 0" in msg

    def test_dropped_spawn_ack_attributes_to_outermost_waiter(self):
        # The lost ack stalls the master's syscall service, which in turn
        # stalls the clone()'s delegated syscall_request.  With one uniform
        # timeout the outermost waiter's timer (started first) fires first,
        # so cascaded stalls deterministically attribute to the requester.
        prog = mutex_bench.build(n_threads=2, iters=5)
        cluster = Cluster(n_slaves=2, config=lossy_config(drop(kinds={"spawn_ack"})))
        with pytest.raises(ServiceTimeout) as info:
            cluster.run(prog, **RUN_KW)
        assert info.value.service == "node.syscall"
        assert info.value.request.kind == "syscall_request"

    def test_dropped_syscall_reply_attributes_to_node_syscall(self):
        prog = mutex_bench.build(n_threads=2, iters=5)
        cluster = Cluster(
            n_slaves=2, config=lossy_config(drop(kinds={"syscall_reply"}))
        )
        with pytest.raises(ServiceTimeout) as info:
            cluster.run(prog, **RUN_KW)
        assert info.value.service == "node.syscall"

    def test_dropped_futex_wake_attributes_to_futex_service(self):
        # With timeouts armed, wakes are acked requests: a swallowed wake
        # surfaces as the futex service's timeout, not a silent deadlock.
        prog = mutex_bench.build(n_threads=2, iters=20, private=False)
        cluster = Cluster(
            n_slaves=2, config=lossy_config(drop(kinds={"futex_wake"}))
        )
        with pytest.raises(ServiceTimeout) as info:
            cluster.run(prog, **RUN_KW)
        assert info.value.service == "futex"
        assert info.value.request.kind == "futex_wake"

    def test_dropped_invalidate_ack_fails_the_faulting_reader(self):
        # Same cascade shape: the master's coherence service stalls waiting
        # for the lost invalidation ack, and the page fault that triggered
        # it times out first on the requesting node.
        prog = mutex_bench.build(n_threads=2, iters=10, private=False)
        cluster = Cluster(
            n_slaves=2, config=lossy_config(drop(kinds={"invalidate_ack"}))
        )
        with pytest.raises(ServiceTimeout) as info:
            cluster.run(prog, **RUN_KW)
        assert info.value.service == "node.coherence"
        assert info.value.request.kind == "page_request"

    def test_duplication_storm_is_absorbed(self):
        """Duplicating every frame must not change program results: the
        dispatcher and RPC channel drop the replays."""
        clean = Cluster(n_slaves=2).run(
            mutex_bench.build(n_threads=2, iters=10), **RUN_KW
        )
        noisy_cfg = DQEMUConfig(fault_plan=FaultPlan.of(duplicate(copies=1)))
        noisy = Cluster(n_slaves=2, config=noisy_cfg).run(
            mutex_bench.build(n_threads=2, iters=10), **RUN_KW
        )
        assert noisy.exit_code == clean.exit_code
        # stdout line 1 is the guest's self-measured elapsed time, which
        # legitimately shifts when faults add wire traffic; the computed
        # result lines must not.
        assert noisy.stdout.splitlines()[1:] == clean.stdout.splitlines()[1:]
        assert noisy.faults is not None and noisy.faults.duplicated > 0
        # Replayed requests were caught at the dispatcher seam and billed.
        assert sum(s.duplicates for s in noisy.stats.services.values()) > 0

    def test_delay_and_reorder_only_shift_timing(self):
        clean = Cluster(n_slaves=2).run(
            mutex_bench.build(n_threads=2, iters=10), **RUN_KW
        )
        plan = FaultPlan.of(
            delay(20_000, jitter_ns=10_000, kinds={"page_data"}, every_nth=2),
            reorder(kinds={"invalidate"}, every_nth=3),
        )
        shifted = Cluster(
            n_slaves=2, config=DQEMUConfig(fault_plan=plan)
        ).run(mutex_bench.build(n_threads=2, iters=10), **RUN_KW)
        assert shifted.exit_code == clean.exit_code
        assert shifted.stdout.splitlines()[1:] == clean.stdout.splitlines()[1:]
        assert shifted.faults.injected > 0

    def test_generous_timeout_lets_healthy_run_finish(self):
        cfg = DQEMUConfig(rpc_timeout_ns=1_000_000_000)
        result = Cluster(n_slaves=2, config=cfg).run(
            mutex_bench.build(n_threads=2, iters=10), **RUN_KW
        )
        assert result.exit_code == 0


class TestBookkeepingArming:
    """What a run remembers about settled calls and served requests exists
    only where a frame can still read it: tombstones where a reply can come
    late or twice (a call that armed a timeout, or a FaultPlan), served ids
    where a request can arrive twice (retries or a FaultPlan), cached replies
    where a retransmit waits for one (retries).  Each node arms its own
    channel; notifications are acked exactly where a timeout is armed.  No
    page lock outlives its transaction."""

    #: config -> (channels remember every settled call, channels remember
    #: served ids, reply cache on, notifications acked); and whether a run
    #: leaves tombstones, served ids and cached replies behind.
    ROWS = {
        "default": ({}, (False, False, False, False), (False, False, False)),
        "timeout only": (
            dict(rpc_timeout_ns=TIMEOUT_NS),
            (False, False, False, True), (True, False, False),
        ),
        "retries": (
            dict(rpc_timeout_ns=TIMEOUT_NS, rpc_max_retries=2),
            (False, True, True, True), (True, True, True),
        ),
        "fault plan": (
            dict(fault_plan=FaultPlan()), (True, True, False, False), (True, True, False),
        ),
    }

    @pytest.mark.parametrize("case", ROWS)
    def test_arming(self, case):
        cfg_kw, armed, kept = self.ROWS[case]
        cluster = Cluster(n_slaves=2, config=DQEMUConfig(**cfg_kw))
        result = cluster.run(mutex_bench.build(n_threads=2, iters=10), **RUN_KW)
        assert result.exit_code == 0
        channels = [node.endpoint.rpc for node in cluster._fleet.nodes.values()]
        locks = cluster.jobs[0].runtime.master.coherence.locks
        for ch in channels:
            assert (ch.frames_repeat, ch.replays, ch._reply_cache_enabled, ch.acks) == armed
        assert (
            sum(ch.tombstones for ch in channels) > 0,
            sum(len(ch._served) for ch in channels) > 0,
            sum(ch.cached_replies for ch in channels) > 0,
        ) == kept
        assert len(locks) == 0


class TestChannelDecidesDelivery:
    """At-most-once service and notification acks are the RPC channel's:
    one served table per endpoint, whichever dispatcher serves the frame,
    and one ack rule for every notification."""

    def test_one_served_table_per_endpoint(self, monkeypatch):
        # Node 0's endpoint carries two manager mailboxes per node on the
        # master's dispatcher and its own node-side dispatcher; a replay to
        # either kind is served once.
        handled = Counter()
        for cls in (CoherenceService, NodeCoherenceService):
            def handle(self, msg, inner=cls.handle):
                handled[self.name, msg.dst, msg.req_id] += 1
                return (yield from inner(self, msg))
            monkeypatch.setattr(cls, "handle", handle)
        plan = FaultPlan.of(
            duplicate(kinds={"page_request"}, max_count=1),
            duplicate(kinds={"invalidate"}, dst=0, max_count=1),
        )
        cluster = Cluster(n_slaves=2, config=DQEMUConfig(master_shards=2, fault_plan=plan))
        result = cluster.run(mutex_bench.build(n_threads=2, iters=10, private=False), **RUN_KW)
        assert result.exit_code == 0 and result.faults.duplicated == 2
        assert max(handled.values()) == 1
        billed = {name: row.duplicates for name, row in result.stats.services.items()}
        assert billed["coherence"] == billed["node.coherence"] == 1
        assert sum(billed.values()) == 2
        served = cluster._fleet.nodes[0].endpoint.rpc._served
        assert all(req_id in served for (_name, dst, req_id) in handled if dst == 0)

    @pytest.mark.parametrize("timed", [False, True])
    def test_notifications_are_acked_exactly_when_timeouts_are_armed(self, timed):
        cfg = DQEMUConfig(
            fault_plan=FaultPlan.drain(3, 150_000),
            rpc_timeout_ns=TIMEOUT_NS if timed else None,
        )
        result = Cluster(n_slaves=3, config=cfg).run(
            mutex_bench.build(n_threads=4, iters=20, private=False), **RUN_KW
        )
        assert result.exit_code == 0
        frames = Counter()
        for (kind, src, dst), (count, _bytes) in result.fabric.frames.items():
            frames[kind, src, dst] += count
        # The requests always answered with an Ack (Shutdown's acks land
        # after the exit the result is taken at), plus the notifications.
        answered = ["start_drain", "evacuate_thread", "split_table_update", "merge_request"]
        if timed:
            answered += ["futex_wake", "drain_complete"]
        assert sum(n for (kind, *_), n in frames.items() if kind == "futex_wake") >= 4
        assert frames["drain_complete", 3, 0] == 1
        nodes = range(4)
        for x in nodes:
            for y in nodes:
                want = sum(frames[kind, y, x] for kind in answered)
                assert frames["ack", x, y] == want, (x, y)


class TestNoFaultRegression:
    def test_empty_plan_is_bit_identical(self):
        """Attaching the injection machinery with nothing to inject must not
        perturb the simulation at all."""
        prog_kw = dict(n_threads=2, iters=10, private=False)
        plain = Cluster(n_slaves=2).run(mutex_bench.build(**prog_kw), **RUN_KW)
        armed = Cluster(
            n_slaves=2, config=DQEMUConfig(fault_plan=FaultPlan())
        ).run(mutex_bench.build(**prog_kw), **RUN_KW)

        assert armed.exit_code == plain.exit_code
        assert armed.stdout == plain.stdout
        assert armed.virtual_ns == plain.virtual_ns
        assert armed.stats == plain.stats  # dataclass equality, all counters
        assert armed.fabric.messages_sent == plain.fabric.messages_sent
        assert armed.fabric.bytes_sent == plain.fabric.bytes_sent
        assert armed.fabric.by_kind == plain.fabric.by_kind
        assert armed.faults is not None and armed.faults.injected == 0
        assert plain.faults is None
