"""Unit tests for core components: LL/SC table, scheduler, forwarding, splitting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.forwarding import ReadAheadEngine
from repro.core.llsc import LLSCTable
from repro.core.scheduler import ThreadPlacer
from repro.core.splitting import FalseSharingDetector
from repro.errors import ConfigError
from repro.mem.layout import PAGE_SIZE


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
