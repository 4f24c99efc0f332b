"""Plain-text rendering of experiment results (paper-style rows/series)."""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "render_table", "render_series", "render_service_breakdown", "FAILURE_COLUMNS", "format_value",
]


def format_value(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.1f}"
        if abs(v) >= 10:
            return f"{v:.2f}"
        return f"{v:.3f}"
    return str(v)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None) -> str:
    cells = [[format_value(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(name: str, xs: Sequence[Any], series: dict[str, Sequence[float]]) -> str:
    """Render figure-style data: one x column, one column per series."""
    headers = ["x"] + list(series)
    rows = [[x, *(vals[i] for vals in series.values())] for i, x in enumerate(xs)]
    return render_table(headers, rows, title=name)


#: The failure-domain columns: header -> ``RunResult.failures`` aggregate.
FAILURE_COLUMNS = {
    "evacuated": "evacuated_threads",
    "lost threads": "lost_threads",
    "rehomed pages": "rehomed_pages",
    "lost M pages": "lost_pages",
}


def render_service_breakdown(stats, failures: Optional[Mapping[str, int]] = None) -> str:
    """Per-service load attribution from a run's ``RunStats.services``.

    One row per runtime service (master + node side), sorted by busy time —
    a direct read on which protocol subsystem eats the master-link budget.
    ``queue-wait`` is time served frames sat in the handling process's
    mailbox before dispatch (head-of-line blocking).  Services dispatched on
    more than one master shard get per-shard sub-rows under the aggregate,
    exposing shard load imbalance.

    The reliability columns (retransmits / recoveries / mean recovery
    latency, fed by the RPC retransmit layer) appear only when some service
    actually retried — zero-loss tables keep rendering byte-identically.
    ``failures`` (the run's ``FailureStats`` aggregates, keyed as in
    :data:`FAILURE_COLUMNS`) fills the failure-domain columns on the
    ``failure`` row, 0 on the others; they appear only when a node actually
    crashed or drained mid-run.
    """
    services = sorted(
        stats.services.values(), key=lambda s: (-s.busy_ns, -s.requests, s.name)
    )
    reliable = any(s.retransmits or s.recoveries for s in services)
    failed = [failures[key] for key in FAILURE_COLUMNS.values()] if failures else []
    failure = any(failed)
    headers = ["service", "shard", "requests", "busy (us)", "queue-wait (us)"]
    if reliable:
        headers += ["retransmits", "recovered", "mean recovery (us)"]
    if failure:
        headers += list(FAILURE_COLUMNS)
    rows = []
    for s in services:
        row = [s.name, "all", s.requests, s.busy_ns / 1e3, s.queue_wait_ns / 1e3]
        if reliable:
            mean = s.recovery_wait_ns / s.recoveries / 1e3 if s.recoveries else 0.0
            row += [s.retransmits, s.recoveries, mean]
        if failure:
            row += failed if s.name == "failure" else [0] * len(failed)
        rows.append(row)
        if len(s.shards) > 1:
            for k in sorted(s.shards):
                sh = s.shards[k]
                sub = [s.name, k, sh.requests, sh.busy_ns / 1e3, sh.queue_wait_ns / 1e3]
                if reliable:
                    # Retransmit counters are per service, not per shard.
                    sub += ["", "", ""]
                if failure:
                    # Failure accounting is per run, not per shard.
                    sub += [""] * len(failed)
                rows.append(sub)
    return render_table(headers, rows, title="Runtime service load")
