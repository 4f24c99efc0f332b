"""Protocol-tracing tests."""

from repro import Cluster, DQEMUConfig, assemble
from repro.core.trace import NULL_TRACER, TraceEvent, Tracer
from tests.test_cluster_integration import counter_program

HELLO = """
_start:
    li a0, 0
    li a7, 94
    ecall
"""


class TestTracerUnit:
    def test_emit_and_filter(self):
        t = Tracer()
        t.bind_clock(lambda: 42)
        t.emit("page", 1, "grant S", page=0x10)
        t.emit("page", 2, "invalidate", page=0x10)
        t.emit("thread", 1, "start", tid=5)
        assert len(t) == 3
        assert len(t.filter(category="page")) == 2
        assert len(t.filter(node=1)) == 2
        assert t.filter(tid=5)[0].what == "start"
        assert t.pages_touched() == {0x10}
        assert t.counts_by_category() == {"page": 2, "thread": 1}

    def test_capacity_bound(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.emit("page", 0, f"e{i}")
        assert len(t) == 2
        assert t.dropped == 3
        assert "dropped" in t.render()

    def test_render_event(self):
        ev = TraceEvent(1_500_000, "page", 3, "grant M", page=0x20, tid=7)
        text = ev.render()
        assert "1.500000ms" in text
        assert "n3" in text and "page=0x20" in text and "tid=7" in text

    def test_null_tracer_ignores(self):
        NULL_TRACER.emit("page", 0, "x")
        assert len(NULL_TRACER) == 0


class TestClusterTracing:
    def test_disabled_by_default(self):
        r = Cluster(1).run(assemble(HELLO), max_virtual_ms=100)
        assert r.trace is None

    def test_traces_a_threaded_run(self):
        prog = counter_program(4, 50, "mutex")
        r = Cluster(2, trace=True).run(prog, max_virtual_ms=600_000)
        tr = r.trace
        assert tr is not None
        cats = tr.counts_by_category()
        assert cats.get("page", 0) > 0
        assert cats.get("syscall", 0) > 0
        assert cats.get("thread", 0) >= 4  # starts at least
        assert cats.get("run", 0) == 1  # exit_group
        # timestamps are monotonically nondecreasing
        times = [ev.ts_ns for ev in tr.events]
        assert times == sorted(times)
        # clone placements traced with tids
        clones = [ev for ev in tr.filter(category="thread") if "clone" in ev.what]
        assert len(clones) == 4

    def test_trace_shows_optimization_events(self):
        from repro.workloads import memaccess

        prog = memaccess.build_seq_walk(npages=32)
        r = Cluster(1, DQEMUConfig(forwarding_enabled=True), trace=True).run(
            prog, max_virtual_ms=600_000
        )
        pushes = r.trace.filter(category="push")
        assert pushes
        assert all(ev.what == "forwarded" for ev in pushes)

    def test_render_is_limited(self):
        prog = counter_program(2, 50, "mutex")
        r = Cluster(1, trace=True).run(prog, max_virtual_ms=600_000)
        text = r.trace.render(limit=5)
        assert text.count("\n") <= 6
        # Any iterable of events renders the same, a one-shot generator included.
        events = r.trace.events
        more = f"... ({len(events) - 5} more events)"
        assert text.endswith(more)
        assert r.trace.render(events, limit=5) == text
        assert r.trace.render((ev for ev in events), limit=5) == text
