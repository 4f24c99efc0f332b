"""Unit tests for core components: LL/SC table, scheduler, forwarding,
splitting, the node's read-fault wait, the image loader."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import ServiceTimeout
from repro.core.cluster import Cluster
from repro.core.config import DQEMUConfig
from repro.core.forwarding import ReadAheadEngine
from repro.core.llsc import LLSCTable
from repro.core.node import NodeRuntime
from repro.core.scheduler import ThreadPlacer
from repro.core.services.coherence import CoherenceService
from repro.core.splitting import FalseSharingDetector
from repro.core.stats import RunStats
from repro.core.trace import NULL_TRACER
from repro.errors import ConfigError
from repro.isa.program import Program, Section
from repro.mem import FlatMemory, MSIState, PageStall, PageStore
from repro.mem.layout import PAGE_SIZE, page_of
from repro.mem.pagestore import ZERO_PAGE
from repro.net import Endpoint, Fabric
from repro.net.messages import PageData, PagePush, PageRequest
from repro.net.rpc import RetryPolicy, RpcTimeout
from repro.sim import Simulator


class TestLLSCTable:
    def test_reserve_validate_consume(self):
        t = LLSCTable()
        t.reserve(0x1000, 1)
        assert t.validate(0x1000, 1)
        assert not t.validate(0x1000, 2)
        assert t.consume(0x1000, 1)
        assert not t.consume(0x1000, 1)  # gone

    def test_successful_sc_kills_other_reservations(self):
        t = LLSCTable()
        t.reserve(0x1000, 1)
        t.reserve(0x1000, 2)
        assert t.consume(0x1000, 1)
        assert not t.validate(0x1000, 2)

    def test_store_kills_overlapping(self):
        t = LLSCTable()
        t.reserve(0x1000, 1)
        t.kill_store(0x1004, 1)
        assert not t.validate(0x1000, 1)

    def test_page_invalidation_false_positive(self):
        """Paper §4.4: page invalidation conservatively kills reservations."""
        t = LLSCTable()
        t.reserve(0x1000, 1)
        t.reserve(0x1008, 2)
        t.reserve(0x2000, 3)  # different page
        killed = t.kill_page(0x1)
        assert killed == 2
        assert t.spurious_kills == 2
        assert t.validate(0x2000, 3)


class TestThreadPlacer:
    def test_round_robin_equal_spread(self):
        p = ThreadPlacer("round_robin", [1, 2, 3])
        nodes = [p.place() for _ in range(9)]
        assert nodes == [1, 2, 3] * 3
        assert p.distribution() == {1: 3, 2: 3, 3: 3}

    def test_round_robin_ignores_hints(self):
        p = ThreadPlacer("round_robin", [1, 2])
        assert [p.place(hint_group=5) for _ in range(2)] == [1, 2]

    def test_hint_groups_colocate(self):
        p = ThreadPlacer("hint", [1, 2, 3])
        a = [p.place(hint_group=0) for _ in range(4)]
        b = [p.place(hint_group=1) for _ in range(4)]
        assert len(set(a)) == 1
        assert len(set(b)) == 1
        assert a[0] != b[0]

    def test_hint_fallback_round_robin(self):
        p = ThreadPlacer("hint", [1, 2])
        assert [p.place() for _ in range(4)] == [1, 2, 1, 2]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigError):
            ThreadPlacer("round_robin", [])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ThreadPlacer("mystery", [1])


class TestReadAhead:
    def test_no_push_below_trigger(self):
        ra = ReadAheadEngine(trigger=4, initial_window=4, max_window=32)
        assert ra.record(1, 10) == []
        assert ra.record(1, 11) == []
        assert ra.record(1, 12) == []

    def test_trigger_starts_window(self):
        ra = ReadAheadEngine(trigger=4, initial_window=4, max_window=32)
        for p in (10, 11, 12):
            ra.record(1, p)
        assert ra.record(1, 13) == [14, 15, 16, 17]
        assert ra.streams_detected == 1

    def test_window_doubles_and_continues_past_pushed_range(self):
        ra = ReadAheadEngine(trigger=4, initial_window=4, max_window=32)
        for p in (10, 11, 12, 13):
            ra.record(1, p)
        # pushed through 17; next miss is 18
        pushes = ra.record(1, 18)
        assert pushes[0] == 19
        assert len(pushes) == 8  # window doubled

    def test_window_caps_at_max(self):
        ra = ReadAheadEngine(trigger=2, initial_window=4, max_window=8)
        ra.record(1, 0)
        page = 1
        for _ in range(6):
            pushes = ra.record(1, page)
            page = (pushes[-1] if pushes else page) + 1
        assert max(s.window for s in ra.streams_of(1)) == 8

    def test_jump_starts_second_stream(self):
        ra = ReadAheadEngine(trigger=3, initial_window=4, max_window=32)
        ra.record(1, 10)
        ra.record(1, 11)
        ra.record(1, 99)  # jump: new stream, old one kept
        assert ra.record(1, 100) == []
        assert len(ra.streams_of(1)) == 2
        # the original stream can still trigger
        assert ra.record(1, 12) != []

    def test_interleaved_streams_both_detected(self):
        """Two guest threads on one node streaming different regions."""
        ra = ReadAheadEngine(trigger=3, initial_window=4, max_window=32)
        out = []
        for k in range(4):
            out.append(ra.record(1, 100 + k))
            out.append(ra.record(1, 500 + k))
        assert any(p and p[0] > 100 and p[0] < 200 for p in out)
        assert any(p and p[0] > 500 for p in out)

    def test_streams_tracked_per_node(self):
        ra = ReadAheadEngine(trigger=2, initial_window=2, max_window=4)
        ra.record(1, 10)
        ra.record(2, 50)
        assert ra.record(1, 11) != []
        assert ra.record(2, 51) != []

    def test_repeat_request_neutral(self):
        ra = ReadAheadEngine(trigger=2, initial_window=2, max_window=4)
        ra.record(1, 10)
        assert ra.record(1, 10) == []
        assert ra.streams_of(1)[0].run_length == 1

    def test_stream_table_bounded(self):
        ra = ReadAheadEngine(trigger=2, initial_window=2, max_window=4,
                             max_streams_per_node=4)
        for k in range(20):
            ra.record(1, 1000 * k)
        assert len(ra.streams_of(1)) <= 4


class TestFalseSharingDetector:
    def _pingpong(self, det, page=7, rounds=12):
        decision = None
        for i in range(rounds):
            node = 1 + (i % 4)
            offset = (node - 1) * 1024 + (i % 16)
            decision = det.record(page, node, offset, 1) or decision
        return decision

    def test_fires_after_trigger_with_separable_regions(self):
        det = FalseSharingDetector(trigger=10, history=64, max_regions=32)
        decision = self._pingpong(det, rounds=16)
        assert decision is not None
        assert decision.regions == 4
        assert decision.region_bytes == 1024

    def test_single_node_never_fires(self):
        det = FalseSharingDetector(trigger=4, history=64, max_regions=32)
        for i in range(50):
            assert det.record(7, 1, i % PAGE_SIZE, 1) is None

    def test_same_offset_pingpong_is_true_sharing_not_counted(self):
        """All nodes hammering the same offset is true sharing: no conflicts."""
        det = FalseSharingDetector(trigger=4, history=64, max_regions=32)
        fired = [det.record(7, 1 + (i % 3), 128, 8) for i in range(40)]
        assert all(f is None for f in fired)

    def test_unseparable_pattern_rejected(self):
        """Two nodes writing the *same* offsets (true sharing) cannot be
        separated into single-node regions at any granularity."""
        det = FalseSharingDetector(trigger=4, history=64, max_regions=32)
        fired = []
        offsets = [0, 64]
        for i in range(30):
            node = 1 + (i % 2)
            fired.append(det.record(7, node, offsets[(i // 2 + i) % 2], 8))
        assert all(f is None for f in fired)
        assert det.rejected >= 1

    def test_interleaved_sections_split_at_fine_granularity(self):
        """Paper Table 1 layout: 128-byte sections interleaved over nodes."""
        det = FalseSharingDetector(trigger=10, history=64, max_regions=32)
        decision = None
        for i in range(80):
            section = i % 32
            node = 1 + (section % 4)  # adjacent sections on different nodes
            decision = det.record(5, node, section * 128 + (i % 100), 1) or decision
        assert decision is not None
        assert decision.regions == 32
        assert decision.region_bytes == 128

    def test_two_nodes_two_regions(self):
        det = FalseSharingDetector(trigger=6, history=64, max_regions=32)
        decision = None
        for i in range(20):
            node = 1 + (i % 2)
            decision = det.record(9, node, (node - 1) * 2048 + i, 1) or decision
        assert decision is not None
        assert decision.regions == 2

    def test_forget_clears_history(self):
        det = FalseSharingDetector(trigger=4, history=64, max_regions=32)
        det.record(7, 1, 0, 1)
        det.forget(7)
        assert det._pages.get(7) is None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, PAGE_SIZE - 8)),
        min_size=1,
        max_size=100,
    )
)
def test_detector_decisions_are_well_formed(accesses):
    det = FalseSharingDetector(trigger=5, history=32, max_regions=32)
    for node, off in accesses:
        decision = det.record(3, node, off, 8)
        if decision is not None:
            assert decision.regions >= 2
            assert decision.region_bytes * decision.regions == PAGE_SIZE


# -- the node's read-fault wait ------------------------------------------------

PAGE = 0x40
PUSHED, REPLIED = b"\x01" * PAGE_SIZE, b"\x02" * PAGE_SIZE


class _Slave:
    """One slave node facing a scripted master endpoint (node 0)."""

    def __init__(self, **options):
        self.sim = Simulator()
        fabric = Fabric(self.sim)
        self.master = Endpoint(self.sim, fabric, 0)
        self.requests = self.master.subscribe("page_request")
        self.node = NodeRuntime(
            self.sim, fabric, 1, DQEMUConfig(**options), RunStats()
        )
        self.node.start()
        self.bundle = self.node.bundle(0)
        self.store = self.bundle.memory.pages

    def fault(self, write=False):
        """A thread's stalled access to PAGE, as its own process."""
        return self.sim.spawn(self.node._resolve_stall(PageStall(PAGE, write, 0), 0))

    def page(self):
        return bytes(self.store.raw(PAGE))


class TestReadFaultWait:
    def test_push_first_completes_the_fault_and_the_late_reply_installs_nothing(self):
        s = _Slave(forwarding_enabled=True)
        done_at = []

        def master():
            request = yield s.requests.get()
            s.master.send(1, PagePush(page=PAGE, data=PUSHED))
            yield s.sim.timeout(500_000)
            s.master.reply(request, PageData(page=PAGE, data=REPLIED))

        s.sim.spawn(master())
        s.fault().add_callback(lambda _e: done_at.append(s.sim.now))
        assert PAGE in s.bundle.push_gates  # armed while the request is out
        s.sim.run()
        assert done_at and done_at[0] < 500_000  # the push, not the reply
        assert s.page() == PUSHED and s.store.state(PAGE) is MSIState.SHARED
        assert PAGE not in s.bundle.push_gates and not s.bundle.inflight
        assert s.node.endpoint.pending_requests == 0  # the reply was consumed

    def test_reply_first_discards_the_gate_and_a_later_push_is_ignored(self):
        s = _Slave(forwarding_enabled=True)

        def master():
            request = yield s.requests.get()
            s.master.reply(request, PageData(page=PAGE, data=REPLIED))
            yield s.sim.timeout(500_000)
            s.master.send(1, PagePush(page=PAGE, data=PUSHED))

        s.sim.spawn(master())
        fault = s.fault()
        s.sim.run(until=fault)
        assert s.page() == REPLIED
        assert PAGE not in s.bundle.push_gates and not s.bundle.inflight
        s.sim.run()  # the push lands on a page already held: dropped
        assert s.page() == REPLIED

    def test_without_forwarding_the_fault_waits_on_its_reply_alone(self):
        s = _Slave()  # forwarding is off by default: no push can arrive

        def master():
            request = yield s.requests.get()
            yield s.sim.timeout(500_000)
            s.master.reply(request, PageData(page=PAGE, data=REPLIED))

        s.sim.spawn(master())
        fault = s.fault()
        assert not s.bundle.push_gates and PAGE in s.bundle.inflight
        s.sim.run(until=fault)
        assert s.sim.now > 500_000 and s.page() == REPLIED
        assert not s.bundle.inflight

    @pytest.mark.parametrize("forwarding", [False, True])
    def test_two_threads_on_one_page_issue_one_request_and_both_resume(self, forwarding):
        s = _Slave(forwarding_enabled=forwarding)
        seen = []

        def master():
            while True:
                request = yield s.requests.get()
                seen.append(request)
                yield s.sim.timeout(10_000)
                s.master.reply(request, PageData(page=PAGE, data=REPLIED))

        s.sim.spawn(master())
        first, second = s.fault(), s.fault()
        s.sim.run(until=s.sim.all_of([first, second]))
        assert [type(m) for m in seen] == [PageRequest]
        assert s.page() == REPLIED and not s.bundle.inflight

    def test_unwatched_fault_marker_costs_no_event(self):
        """With one thread on the page nobody waits on the in-flight marker,
        so it is never made: the table holds ``None``, and the fault is done
        in the very step that delivers the reply."""
        s = _Slave()

        def master():
            request = yield s.requests.get()
            s.master.reply(request, PageData(page=PAGE, data=REPLIED))

        s.sim.spawn(master())
        fault = s.fault()
        assert s.bundle.inflight == {PAGE: None}
        s.sim.run(until=fault)
        assert s.page() == REPLIED and not s.bundle.inflight and not s.sim.pending

    def test_a_second_thread_makes_the_marker_and_is_woken_through_it(self):
        s = _Slave()

        def master():
            request = yield s.requests.get()
            s.master.reply(request, PageData(page=PAGE, data=REPLIED))

        s.sim.spawn(master())
        first, second = s.fault(), s.fault()
        marker = s.bundle.inflight[PAGE]
        assert marker is not None and not marker.triggered
        s.sim.run(until=s.sim.all_of([first, second]))
        assert marker.processed and s.page() == REPLIED and not s.bundle.inflight


class TestTimeoutAttribution:
    """A timeout names the service that issued the request, on both of the
    channel's failure paths; a call that names none fails with ``None``."""

    RETRY = RetryPolicy(max_retries=2, backoff_base_ns=100)

    def _failure(self, service, *, abort=False):
        sim = Simulator()
        fabric = Fabric(sim)
        client, server = Endpoint(sim, fabric, 0), Endpoint(sim, fabric, 1)
        server.subscribe("page_request")  # heard, never answered
        failures = []

        def caller():
            try:
                yield client.request(
                    1, PageRequest(page=1), timeout_ns=1000, retry=self.RETRY,
                    stats=RunStats().service("any"), service=service,
                )
            except RpcTimeout as exc:
                failures.append(exc)

        sim.spawn(caller())
        if abort:
            client.rpc.abort_peer(1)
        sim.run()
        (exc,) = failures
        return exc

    def test_budget_exhaustion_names_the_issuer(self):
        exc = self._failure("node.coherence")
        assert isinstance(exc, ServiceTimeout) and exc.service == "node.coherence"
        assert str(exc) == (
            f"service 'node.coherence': no reply to 'page_request' "
            f"(req {exc.request.req_id}) from node 1 within 1000 ns after 2 retransmits"
        )

    def test_abort_peer_names_the_issuer(self):
        exc = self._failure("coherence", abort=True)
        assert exc.service == "coherence" and exc.retries == 0
        assert str(exc).startswith("service 'coherence': no reply to 'page_request'")

    def test_a_call_naming_no_service_fails_unattributed(self):
        for abort in (False, True):
            exc = self._failure(None, abort=abort)
            assert exc.service is None
            assert str(exc).startswith("rpc: no reply to 'page_request'")


def test_page_stall_formats_its_text_on_demand():
    stall = PageStall(0x999, False, 8)
    assert (stall.page, stall.write, stall.offset, stall.size) == (0x999, False, 8, 8)
    assert str(stall) == "page stall: page=0x999 write=False"
    assert repr(stall) == "PageStall('page stall: page=0x999 write=False')"


def _shared_mutable_parts(a, b, path="stats"):
    """Yield the path of every mutable part (container or record) that two
    counter trees share, walking every instance attribute, so a field added
    later is checked without naming it here."""
    if isinstance(a, (list, dict, set)) or hasattr(a, "__dict__"):
        if a is b:
            yield path
    if hasattr(a, "__dict__"):
        for name, value in vars(a).items():
            yield from _shared_mutable_parts(value, getattr(b, name), f"{path}.{name}")
    elif isinstance(a, dict):
        for key, value in a.items():
            yield from _shared_mutable_parts(value, b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _shared_mutable_parts(x, y, f"{path}[{i}]")


def test_a_stats_copy_shares_no_mutable_part():
    live = RunStats(tenant=3)
    live.thread(1).quanta = 2
    live.protocol.page_requests = 5
    live.service("node.control").shard(0).requests = 7
    live.dbt.fusion_hits["li"] = 1
    record = live.copy()
    assert record == live
    assert list(_shared_mutable_parts(record, live)) == []
    live.thread(2)
    live.service("master.new")
    assert list(record.threads) == [1] and list(record.services) == ["node.control"]


# -- image load ----------------------------------------------------------------


class TestImageLoad:
    """Sections are loaded through read-only views (no section-sized copy);
    what lands in memory is what the copying loader put there.  A ``.bss``
    is a length: nothing loads it, it reads as zeros, and the home holds no
    page of it until something writes one."""

    #: Starts mid-page and spans three pages, none of them loaded.
    BSS = Section(".bss", 0x2BFF8, zero_fill=2 * PAGE_SIZE + 13)

    @staticmethod
    def _program():
        def pattern(n, salt):
            return bytearray((i * 31 + salt) & 0xFF or 1 for i in range(n))

        return Program(
            sections={
                ".text": Section(".text", 0x10000, pattern(40, 3)),
                # Odd bases and lengths: first and last pages are partial, and
                # .sdata starts inside the page .data ends in.
                ".data": Section(".data", 0x20FF3, pattern(2 * PAGE_SIZE + 29, 5)),
                ".sdata": Section(".sdata", 0x23010, pattern(3 * PAGE_SIZE - 7, 7)),
                ".bss": TestImageLoad.BSS,
                ".empty": Section(".empty", 0x30000),
            },
            symbols={}, entry=0x10000,
        )

    @staticmethod
    def _reference(program):
        """Byte-at-a-time load of a copy of each section: page -> contents."""
        pages = {}
        for sec in program.sections.values():
            for i, byte in enumerate(bytes(sec.data)):
                addr = sec.base + i
                pages.setdefault(page_of(addr), bytearray(PAGE_SIZE))[addr % PAGE_SIZE] = byte
        return pages

    def test_segments_are_readonly_views_of_the_sections(self):
        program = self._program()
        segments = list(program.iter_load_segments())
        assert [base for base, _ in segments] == [0x10000, 0x20FF3, 0x23010]
        for (_, view), name in zip(segments, (".text", ".data", ".sdata")):
            assert view.obj is program.sections[name].data and view.readonly
            assert view == program.sections[name].data

    def test_home_store_matches_the_copying_loader(self):
        program = self._program()
        home = PageStore()
        for vaddr, data in program.iter_load_segments():
            Cluster._load_segment(home, vaddr, data)
        expected = self._reference(program)
        assert set(home.pages()) == set(expected)
        for page, contents in expected.items():
            assert home.raw(page) == contents
            assert home.state(page) is MSIState.SHARED

    def test_bss_is_a_length_the_home_fills_on_demand(self):
        program = self._program()
        assert program.overlapping_sections() == []
        program.sections[".zeros"] = Section(".zeros", self.BSS.end - 1, zero_fill=1)
        assert program.overlapping_sections() == [(".bss", ".zeros")]
        home = PageStore()
        for vaddr, data in program.iter_load_segments():
            Cluster._load_segment(home, vaddr, data)
        sim = Simulator()
        master = SimpleNamespace(
            sim=sim, config=DQEMUConfig(), endpoint=Endpoint(sim, Fabric(sim), 0),
            trace=NULL_TRACER, run_stats=RunStats(), tenant=0,
            node=SimpleNamespace(node_id=0), home=home,
        )
        co = CoherenceService(master)
        bss_pages = range(page_of(self.BSS.base), page_of(self.BSS.end - 1) + 1)
        for page in bss_pages:
            # A grant of a page never written is the one shared zero page.
            assert co.home_snapshot(page) is ZERO_PAGE
            assert page not in home
        # The kernel reading guest memory is the first access that fills it.
        assert co.home_bytes(self.BSS.end - 5, 5) == bytes(5)
        assert page in home
        co.home_write(self.BSS.base, b"\x05")
        assert co.home_snapshot(page_of(self.BSS.base))[self.BSS.base % PAGE_SIZE] == 5

    def test_flat_memory_matches_the_copying_loader(self):
        program = self._program()
        mem = FlatMemory()
        mem.load_image(program.iter_load_segments())
        expected = self._reference(program)
        assert set(mem.pages.pages()) == set(expected)
        for page, contents in expected.items():
            assert mem.pages.raw(page) == contents
        assert mem.load(self.BSS.base, 8, False) == 0
        assert mem.load(self.BSS.end - 1, 1, False) == 0
