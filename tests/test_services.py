"""Tests for the runtime service layer: dispatcher routing, the typed RPC
channel, per-service counters, and the protocol frame inventory."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import Cluster, DQEMUConfig, assemble
from repro.core.services.base import Dispatcher
from repro.core.services.coherence import CoherenceService
from repro.core.services.splitting import SplittingService
from repro.core.stats import RunStats
from repro.core.trace import NULL_TRACER
from repro.errors import NetworkError, ProtocolError
from repro.mem.pagestore import PageStore
from repro.net import Endpoint, Fabric
from repro.net.messages import (
    HEADER_BYTES,
    Ack,
    InvalidateAck,
    Message,
    PageData,
    PageRequest,
)
from repro.net.rpc import RpcTimeout
from repro.sim import Simulator


def make_cluster(n=3, **kw):
    sim = Simulator()
    fabric = Fabric(sim, **kw)
    eps = [Endpoint(sim, fabric, i) for i in range(n)]
    return sim, fabric, eps


class StubService:
    def __init__(self, name, kinds, sim=None, delay_ns=0):
        self.name = name
        self.handled_kinds = frozenset(kinds)
        self.sim = sim
        self.delay_ns = delay_ns
        self.seen = []

    def handle(self, msg):
        self.seen.append(msg.kind)
        if self.delay_ns:
            yield self.sim.timeout(self.delay_ns)
        return msg.kind
        yield  # generator protocol when delay_ns == 0


def make_dispatcher(stats=None, **kw):
    """A dispatcher behind a bare endpoint (node 0 of a one-node fabric)."""
    sim = Simulator()
    endpoint = Endpoint(sim, Fabric(sim), 0)
    return sim, Dispatcher(endpoint, RunStats() if stats is None else stats, **kw)


class TestDispatcher:
    def test_routes_by_kind(self):
        stats = RunStats()
        sim, d = make_dispatcher(stats)
        a = d.register(StubService("a", {"page_request"}))
        b = d.register(StubService("b", {"ack", "shutdown"}))
        sim.spawn(d.dispatch(PageRequest(page=1)))
        sim.spawn(d.dispatch(Ack()))
        sim.run()
        assert a.seen == ["page_request"]
        assert b.seen == ["ack"]
        assert d.service_for("shutdown") is b

    def test_unknown_kind_raises_protocol_error(self):
        _sim, d = make_dispatcher()
        d.register(StubService("a", {"page_request"}))
        gen = d.dispatch(Ack())
        with pytest.raises(ProtocolError, match="no service registered for kind 'ack'"):
            next(gen)
        with pytest.raises(ProtocolError):
            d.service_for("ack")

    def test_conflicting_kind_claim_rejected(self):
        _sim, d = make_dispatcher()
        d.register(StubService("a", {"page_request"}))
        with pytest.raises(ProtocolError, match="claimed by both"):
            d.register(StubService("b", {"page_request"}))

    def test_per_service_counters(self):
        stats = RunStats()
        sim, d = make_dispatcher(stats)
        d.register(StubService("slow", {"page_request"}, sim=sim, delay_ns=500))
        d.register(StubService("idle", {"ack"}))
        for _ in range(3):
            sim.spawn(d.dispatch(PageRequest(page=1)))
        sim.run()
        assert stats.services["slow"].requests == 3
        assert stats.services["slow"].busy_ns == 3 * 500
        # Registration alone creates the stats entry, at zero.
        assert stats.services["idle"].requests == 0


#: Every kind a master-side service handles: the frames a slave sends in.
MASTER_KINDS = (
    "page_request", "syscall_request", "heartbeat",
    "evacuate_thread", "drain_complete", "merge_request",
)


def test_master_kinds_are_every_master_handled_kind():
    from repro.core.services.base import MasterService

    handled = set()
    for info in pkgutil.iter_modules(importlib.import_module("repro.core.services").__path__):
        module = importlib.import_module(f"repro.core.services.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, MasterService):
                handled |= cls.handled_kinds
    assert handled == set(MASTER_KINDS)


class TestDeadSenderRefusal:
    """A dispatcher refuses a frame whose sender the fleet's health view has
    latched failed: billed and counted once, never handled."""

    @pytest.mark.parametrize("kind", MASTER_KINDS)
    def test_latched_sender_is_billed_and_refused(self, kind):
        sim = Simulator()
        stats = RunStats()
        fabric = Fabric(sim)
        fabric.health.mark_failed(2)
        d = Dispatcher(Endpoint(sim, fabric, 0), stats)
        stub = d.register(StubService("svc", MASTER_KINDS))
        cls = {c.kind: c for c in all_message_types()}[kind]
        dead, live = cls(src=2, req_id=1), cls(src=1, req_id=2)
        sim.run(until=40)
        dead._arrived_ns = live._arrived_ns = 10
        sim.spawn(d.dispatch(dead, shard=0))
        assert stub.seen == []
        row = stats.services["svc"]
        assert (row.requests, row.queue_wait_ns, row.busy_ns) == (1, 30, 0)
        assert (row.shard(0).requests, row.shard(0).queue_wait_ns) == (1, 30)
        assert stats.protocol.dead_peer_skips == 1
        sim.spawn(d.dispatch(live, shard=0))  # a live sender is served as ever
        assert stub.seen == [kind]
        assert stats.protocol.dead_peer_skips == 1


class TestRpc:
    def test_correlation_under_concurrent_in_flight_requests(self):
        """Several outstanding calls from one endpoint resolve to the right
        replies even when the servers answer out of order."""
        sim, fabric, (client, s1, s2) = make_cluster()
        results = {}

        def server(ep, delay_ns):
            q = ep.subscribe("page_request")
            msg = yield q.get()
            yield sim.timeout(delay_ns)
            ep.reply(msg, PageData(page=msg.page, data=b""))

        def client_proc():
            ev1 = client.request(1, PageRequest(page=11))
            ev2 = client.request(2, PageRequest(page=22))
            assert client.pending_requests == 2
            r2 = yield ev2  # node 2 answers first (shorter delay)
            r1 = yield ev1
            results["pages"] = (r1.page, r2.page)
            assert client.pending_requests == 0

        sim.spawn(server(s1, 500_000))
        sim.spawn(server(s2, 0))
        sim.spawn(client_proc())
        sim.run()
        assert results["pages"] == (11, 22)

    def test_many_in_flight_to_one_server(self):
        sim, fabric, (client, server, _) = make_cluster()
        got = []

        def server_proc():
            q = server.subscribe("page_request")
            pending = []
            for _ in range(4):
                pending.append((yield q.get()))
            for msg in reversed(pending):  # reply LIFO
                server.reply(msg, PageData(page=msg.page, data=b""))

        def client_proc(page):
            reply = yield client.request(1, PageRequest(page=page))
            got.append((page, reply.page))

        sim.spawn(server_proc())
        for page in range(4):
            sim.spawn(client_proc(page))
        sim.run()
        assert sorted(got) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_timeout_hook_fails_request(self):
        sim, fabric, (client, server, _) = make_cluster()
        server.subscribe("page_request")  # swallow the request, never reply
        outcome = {}

        def client_proc():
            try:
                yield client.request(1, PageRequest(page=5), timeout_ns=10_000)
            except RpcTimeout as exc:
                outcome["err"] = exc

        sim.spawn(client_proc())
        sim.run()
        assert outcome["err"].timeout_ns == 10_000
        assert client.pending_requests == 0

    def test_late_reply_after_timeout_is_dropped(self):
        sim, fabric, (client, server, _) = make_cluster()
        outcome = {}

        def server_proc():
            q = server.subscribe("page_request")
            msg = yield q.get()
            yield sim.timeout(1_000_000)  # well past the client's timeout
            server.reply(msg, PageData(page=msg.page, data=b""))

        def client_proc():
            try:
                yield client.request(1, PageRequest(page=5), timeout_ns=10_000)
            except RpcTimeout:
                outcome["timed_out"] = True

        sim.spawn(server_proc())
        sim.spawn(client_proc())
        sim.run()  # the late reply must not raise "unknown request"
        assert outcome["timed_out"]

    def test_unknown_reply_still_raises(self):
        sim, fabric, (a, b, _) = make_cluster()
        b.send(0, PageData(page=1, in_reply_to=999_999_999, data=b""))
        with pytest.raises(NetworkError, match="unknown request"):
            sim.run()


class TestGather:
    """``MasterService.gather`` is the one dead-peer-tolerant await: driven
    here through every route that used to carry its own copy — a coherence
    invalidation, a split-table broadcast, and a page request's
    invalidations — against two peers, one of which may stay silent.  After
    each outcome the directory keeps the transaction's rules: no latched
    node listed, no peer that acked an ``Invalidate`` still listed, an owner
    XOR sharers.

    Every master reads the fleet's health view; ``distrusted`` runs a case
    with peer 2 already demoted ``down`` in it but not latched, which must
    change nothing: only a latch makes a peer's timeout tolerable."""

    TIMEOUT_NS = 1_000_000
    PAGE = 7
    REQUESTER = 3  # the page_request route's writer

    def _rig(self, route, distrusted, silent, latch=(), peers=(1, 2), slow=None):
        """``latch``: nodes the view latches failed the moment the first
        ``Invalidate`` reaches a peer (mid-handler).  ``slow``: peer ->
        how long it takes to answer; its calls wait three timeouts."""
        sim, fabric, eps = make_cluster(5)
        view = fabric.health
        if distrusted:
            view.exhausted_budget(2)
        slow = slow or {}
        runtime = SimpleNamespace(
            sim=sim, config=DQEMUConfig(rpc_timeout_ns=self.TIMEOUT_NS),
            endpoint=eps[0], trace=NULL_TRACER, run_stats=RunStats(), tenant=0,
            node=SimpleNamespace(node_id=0), node_ids=list(peers),
            home=PageStore(), acked=set(), reply=None,
        )
        runtime.coherence = CoherenceService(runtime)
        runtime.splitting = SplittingService(runtime)

        def peer(ep):
            ep.set_router(lambda _msg: "inbox")
            q = ep.subscribe("inbox")
            while ep.node_id not in silent:
                msg = yield q.get()
                if ep.node_id in slow:
                    yield sim.timeout(slow[ep.node_id])
                if msg.kind == "invalidate":
                    for n in latch:
                        view.mark_failed(n)
                    runtime.acked.add(ep.node_id)
                    ep.reply(msg, InvalidateAck(page=msg.page))
                else:
                    ep.reply(msg, Ack())

        for n in peers:
            sim.spawn(peer(eps[n]))

        if route == "broadcast":
            service = runtime.splitting
            operation = service._broadcast()
        else:
            service = runtime.coherence
            for n in peers:
                service.directory.commit(n, self.PAGE, write=False)
            if route == "invalidate":
                operation = service.pull_home_and_invalidate(self.PAGE)
            else:
                inbox = eps[0].subscribe("page_request")
                runtime.reply = eps[self.REQUESTER].request(
                    0, PageRequest(page=self.PAGE, write=True)
                )

                def serve():
                    yield from service.handle((yield inbox.get()))

                operation = serve()

        gathered, raised = [], []
        inner, request = service.gather, service.request

        def recording_gather(peers, make_msg, **kw):
            result = yield from inner(peers, make_msg, **kw)
            gathered.append(result)
            return result

        def patient_request(dst, msg):
            if dst not in slow:
                return request(dst, msg)
            return eps[0].request(dst, msg, timeout_ns=3 * self.TIMEOUT_NS)

        service.gather, service.request = recording_gather, patient_request

        def driver():
            try:
                yield from operation
            except RpcTimeout as exc:
                raised.append((sim.now, exc))

        sim.spawn(driver())
        return sim, runtime, gathered, raised

    def _assert_directory(self, runtime):
        directory = runtime.coherence.directory
        directory.check_invariants()  # owner XOR sharers, no latched node
        holders = set(directory.holders(self.PAGE))
        assert not holders & runtime.endpoint.fabric.health.failed
        assert not holders & runtime.acked
        return directory

    ROUTES = ["invalidate", "broadcast", "page_request"]

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("distrusted", [False, True])
    def test_all_peers_ack(self, route, distrusted):
        sim, runtime, gathered, raised = self._rig(route, distrusted, silent=())
        sim.run()
        [(acks, skipped)] = gathered
        assert len(acks) == 2 and skipped == 0 and not raised
        assert runtime.run_stats.protocol.dead_peer_skips == 0
        directory = self._assert_directory(runtime)
        if route == "page_request":
            assert directory.owner(self.PAGE) == self.REQUESTER
            assert runtime.reply.value.write

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("distrusted", [False, True])
    def test_silent_live_peer_raises(self, route, distrusted):
        # Nothing latched, the peer distrusted or not: a slow peer is not a
        # dead one.
        sim, runtime, gathered, raised = self._rig(route, distrusted, silent={2})
        sim.run()
        assert not gathered
        assert [exc.request.dst for _, exc in raised] == [2]
        # The copy that was taken away is unlisted, the silent one stays.
        if route != "broadcast":
            assert self._assert_directory(runtime).holders(self.PAGE) == (2,)

    def test_live_peer_timeout_ends_the_gather_at_once(self):
        # Peer 4 is silent; peer 1, earlier in peer order, answers only after
        # peer 4's timeout.  The gather ends when that timeout lands, having
        # recorded the one reply that had landed by then (peer 2's): peer 1's
        # later ack is not waited for, so its copy stays listed.
        sim, runtime, gathered, raised = self._rig(
            "invalidate", False, silent={4}, peers=(1, 2, 4),
            slow={1: 2 * self.TIMEOUT_NS},
        )
        sim.run()
        assert not gathered
        [(at, exc)] = raised
        assert (at, exc.request.dst) == (self.TIMEOUT_NS, 4)
        directory = runtime.coherence.directory
        directory.check_invariants()
        assert directory.holders(self.PAGE) == (1, 4)
        assert runtime.acked == {1, 2}  # peer 1 did answer, too late

    @pytest.mark.parametrize("route", ROUTES)
    def test_peer_latched_failed_mid_call_is_skipped_and_reported(self, route):
        sim, runtime, gathered, raised = self._rig(route, False, silent={2})
        sim.timeout(self.TIMEOUT_NS // 2).add_callback(
            lambda _e: runtime.endpoint.fabric.health.mark_failed(2)
        )
        sim.run()
        [(acks, skipped)] = gathered
        assert len(acks) == 1 and skipped == 1 and not raised
        # Billing stays with the caller: coherence counts the skip, the
        # split-table broadcast does not.
        billed = runtime.run_stats.protocol.dead_peer_skips
        assert billed == (0 if route == "broadcast" else 1)
        directory = self._assert_directory(runtime)
        if route == "page_request":
            assert directory.owner(self.PAGE) == self.REQUESTER

    def test_requester_latched_mid_handler_keeps_what_was_done(self):
        # The requester dies while its invalidations are out: the handler
        # returns without a reply, the acked copies are unlisted and the
        # grant is refused.
        sim, runtime, gathered, raised = self._rig(
            "page_request", False, silent=(), latch={self.REQUESTER}
        )
        sim.run()
        [(acks, skipped)] = gathered
        assert len(acks) == 2 and skipped == 0 and not raised
        assert runtime.run_stats.protocol.dead_peer_skips == 1
        assert not runtime.reply.triggered
        assert self._assert_directory(runtime).peek(self.PAGE).is_idle()


def all_message_types(cls=Message):
    for sub in cls.__subclasses__():
        # ``dataclass(slots=True)`` replaces the class its body built; the
        # discarded one lingers among the subclasses until a collection.
        if getattr(sys.modules[sub.__module__], sub.__name__, None) is not sub:
            continue
        yield sub
        yield from all_message_types(sub)


class TestMessageInventory:
    def test_every_subclass_round_trips_and_sizes(self):
        """Every protocol frame survives a field-level encode/decode round
        trip and bills at least the frame header on the wire."""
        subclasses = list(all_message_types())
        assert len(subclasses) >= 15  # the full §4 protocol surface
        for cls in subclasses:
            msg = cls()
            wire = dataclasses.asdict(msg)  # "encode"
            back = cls(**wire)  # "decode"
            assert back == msg, cls.__name__
            assert msg.size_bytes() >= HEADER_BYTES
            assert msg.size_bytes() == HEADER_BYTES + msg.payload_bytes()

    def test_kinds_are_unique(self):
        kinds = [cls.kind for cls in all_message_types()]
        assert len(kinds) == len(set(kinds))

    def test_payload_carrying_frames_bill_their_payload(self):
        assert PageData(data=bytes(100)).size_bytes() == HEADER_BYTES + 100


class TestRuntimeDecomposition:
    def test_master_has_no_kind_dispatch_chain(self):
        """All routing goes through the Dispatcher: the composition roots
        must not hand-match message kinds."""
        import repro.core.master as master
        import repro.core.node as node

        assert "msg.kind ==" not in inspect.getsource(master)
        assert "msg.kind ==" not in inspect.getsource(node)

    def test_the_channel_alone_decides_delivery(self):
        """No service but ``base.py`` reads ``config.rpc_timeout_ns`` (whether
        a notification is acked is the RPC channel's rule), and the
        dispatcher keeps no served-id table (the channel's ``first_delivery``
        is the one)."""
        services = Path(inspect.getsourcefile(importlib.import_module("repro.core.services")))
        readers = {
            path.name
            for path in services.parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "rpc_timeout_ns"
        }
        assert readers == {"base.py"}
        sim, d = make_dispatcher()
        d.register(StubService("svc", {"page_request"}))
        msg = PageRequest(page=1, req_id=7)
        for _ in range(2):
            sim.spawn(d.dispatch(msg))
        sim.run()
        assert d.run_stats.services["svc"].duplicates == 1
        assert 7 in d._rpc._served
        held = [v for v in vars(d).values() if isinstance(v, (dict, set)) and 7 in v]
        assert held == [] and not hasattr(Dispatcher, "DEDUP_LIMIT")

    MASTER_SIDE = [
        Path(inspect.getsourcefile(importlib.import_module("repro.core.master"))),
        *sorted(
            Path(inspect.getsourcefile(importlib.import_module("repro.core.services")))
            .parent.glob("*.py")
        ),
    ]

    def test_master_services_are_not_bind_wired(self):
        for path in self.MASTER_SIDE:
            assert "def bind" not in path.read_text(), path.name

    def test_one_function_names_the_rpc_budget(self):
        """``timeout_ns=`` is passed by ``MasterService.request`` and nowhere
        else on the master side."""
        sites = []
        for path in self.MASTER_SIDE:
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef):
                    sites += [
                        (path.name, fn.name)
                        for node in ast.walk(fn)
                        if isinstance(node, ast.keyword) and node.arg == "timeout_ns"
                    ]
        assert sites == [("base.py", "request")]

    def test_tenant_endpoint_is_gone(self):
        import repro.net
        import repro.net.endpoint

        assert not hasattr(repro.net.endpoint, "TenantEndpoint")
        assert not hasattr(repro.net, "TenantEndpoint")

    def test_services_are_built_from_their_runtime(self):
        """Every service takes its runtime (and at most one more argument:
        the baseline kernel its state).  ``Dispatcher`` is the router both
        runtimes share, not a service, and keeps its optional hooks."""
        import repro.core.services as pkg

        classes = []
        for info in pkgutil.iter_modules(pkg.__path__):
            module = importlib.import_module(f"{pkg.__name__}.{info.name}")
            classes += [
                cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if cls.__module__ == module.__name__ and cls is not Dispatcher
            ]
        assert len(classes) > 10
        for cls in classes:
            params = list(inspect.signature(cls.__init__).parameters)[1:]
            assert len(params) <= 2, (cls.__name__, params)

    def test_run_surfaces_per_service_counters(self):
        prog = assemble(
            """
            _start:
                la a1, msg
                li a0, 1
                li a2, 6
                li a7, 64
                ecall
                li a0, 7
                li a7, 94
                ecall
            .data
            msg: .asciz "hello\\n"
            """
        )
        result = Cluster(n_slaves=1, config=DQEMUConfig()).run(prog)
        assert result.exit_code == 7
        services = result.stats.services
        # Master-side and node-side services all registered...
        for name in (
            "coherence", "syscall", "splitting", "forwarding", "futex",
            "node.coherence", "node.split_table", "node.control",
        ):
            assert name in services, name
        # ...and the exercised ones attribute their load.
        assert services["syscall"].requests >= 2  # write + exit_group
        assert services["syscall"].busy_ns > 0
        assert services["coherence"].requests == result.stats.protocol.page_requests

    def test_node_side_services_attribute_remote_traffic(self):
        """Remote spawns, futex wakes and invalidations land in the
        node-side and futex service counters."""
        from repro.workloads.mutex_bench import build

        prog = build(n_threads=2, iters=5)
        result = Cluster(n_slaves=2, config=DQEMUConfig()).run(prog)
        services = result.stats.services
        proto = result.stats.protocol
        assert services["node.control"].requests >= 2  # remote spawns + wakes
        assert services["node.coherence"].requests > 0  # invalidate/write-back
        assert services["futex"].requests == proto.futex_wakes + proto.futex_waits
