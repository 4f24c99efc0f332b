"""Protocol tracing.

Enable with ``Cluster(..., trace=True)``: every coherence transaction,
delegated syscall, thread lifecycle event and optimization action is
recorded with its virtual timestamp.  An untraced cluster emits into
:data:`NULL_TRACER`, the one off-switch.  The trace is
what you want when a DSM protocol misbehaves — `result.trace.render()`
gives a readable timeline, and the query helpers slice it by page, node or
category.

Categories:

======== =====================================================
page     page requests/grants/invalidations/write-backs
push     data forwarding (§5.2)
split    page splitting / merging / blacklisting (§5.1)
syscall  delegated and local syscalls
thread   create/park/wake/exit
run      program-level events (start, shutdown)
======== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER"]


@dataclass(frozen=True)
class TraceEvent:
    ts_ns: int
    category: str
    node: int
    what: str
    page: Optional[int] = None
    tid: Optional[int] = None

    def render(self) -> str:
        parts = [f"{self.ts_ns / 1e6:12.6f}ms", f"[{self.category:<7}]", f"n{self.node}"]
        if self.page is not None:
            parts.append(f"page={self.page:#x}")
        if self.tid is not None:
            parts.append(f"tid={self.tid}")
        parts.append(self.what)
        return " ".join(parts)


class Tracer:
    """Bounded in-memory event log with query helpers."""

    def __init__(self, *, capacity: int = 200_000):
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self._clock: Callable[[], int] = lambda: 0

    def bind_clock(self, clock: Callable[[], int]) -> None:
        self._clock = clock

    # -- recording ----------------------------------------------------------

    def emit(self, category: str, node: int, what: str, *, page: Optional[int] = None,
             tid: Optional[int] = None) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(self._clock(), category, node, what, page=page, tid=tid)
        )

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def filter(self, *, category: Optional[str] = None, page: Optional[int] = None,
               node: Optional[int] = None, tid: Optional[int] = None) -> list[TraceEvent]:
        out = []
        for ev in self.events:
            if category is not None and ev.category != category:
                continue
            if page is not None and ev.page != page:
                continue
            if node is not None and ev.node != node:
                continue
            if tid is not None and ev.tid != tid:
                continue
            out.append(ev)
        return out

    def pages_touched(self) -> set[int]:
        return {ev.page for ev in self.events if ev.page is not None}

    def counts_by_category(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.category] = out.get(ev.category, 0) + 1
        return out

    def render(self, events: Optional[Iterable[TraceEvent]] = None,
               limit: int = 200) -> str:
        rows = self.events if events is None else list(events)  # any iterable, read once
        body = "\n".join(ev.render() for ev in rows[:limit])
        footer = ""
        if len(rows) > limit:
            footer = f"\n... ({len(rows) - limit} more events)"
        if self.dropped:
            footer += f"\n... ({self.dropped} events dropped at capacity)"
        return body + footer


class _NullTracer(Tracer):
    """The tracer of every untraced run: records nothing."""

    def emit(self, *args, **kwargs) -> None:
        return

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Keeps no clock: one process-wide object must not pin the fleet
        whose clock it would read."""


NULL_TRACER = _NullTracer()
