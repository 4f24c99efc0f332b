"""Views: how an experiment's records become its committed text table.

A view is a function ``records -> str`` assembled from the combinators
below on top of :mod:`repro.analysis.reporting`.  Columns are
``(header, getter)`` pairs; a getter is a dotted record path (missing
counters read as 0, so an aborted run's row renders) or a callable.
Cells are grouped by label convention: ``"<group>/<row>"``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Union

from repro.analysis.metrics import throughput_mbps
from repro.analysis.reporting import render_series, render_service_breakdown, render_table
from repro.core.stats import RunStats, ServiceStats, ShardLoadStats
from repro.workloads import memaccess

__all__ = [
    "get", "us", "group", "bandwidth_mbps",
    "table", "series", "stacked", "failure_footer", "breakdown",
]

Getter = Union[str, Callable[[dict], Any]]
View = Callable[[list], str]


def get(record: dict, path: str, default: Any = None) -> Any:
    """``record["a"]["b"]`` for path ``"a.b"``; ``default`` where the path
    is absent or ``None`` (an aborted run, a feature that was not armed)."""
    value: Any = record
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
        if value is None:
            return default
    return value


def us(path: str) -> Callable[[dict], Any]:
    """A nanosecond field shown in microseconds, ``-`` when it has no value."""
    return lambda r: "-" if (ns := get(r, path)) is None else ns / 1e3


def group(records: Sequence[dict], name: str) -> list[dict]:
    """The records labelled ``name`` or ``name/<row>``."""
    return [r for r in records if r["label"] == name or r["label"].startswith(name + "/")]


def bandwidth_mbps(record: dict) -> float:
    """Table 1's throughput column, from the guest's own timestamps: bytes
    walked per elapsed time (sequential walk) or the sum of per-thread
    section bandwidths (false sharing)."""
    params = record["cell"]["params"]
    if record["cell"]["workload"] == "seq_walk":
        elapsed_ns, _checksum = memaccess.parse_output(record["stdout"])
        return throughput_mbps(memaccess.seq_walk_bytes(params["npages"]), elapsed_ns)
    elapsed, _checksum = memaccess.parse_false_sharing_output(record["stdout"])
    return memaccess.aggregate_bandwidth_mbps(elapsed, params["iters"])


def table(title: str, columns: Sequence[tuple[str, Getter]],
          rows: Callable[[list], list] = list) -> View:
    def value(record: dict, getter: Getter) -> Any:
        return get(record, getter, 0) if isinstance(getter, str) else getter(record)

    return lambda records: render_table(
        [header for header, _ in columns],
        [[value(r, getter) for _, getter in columns] for r in rows(records)],
        title=title,
    )


def series(title: str, names: Sequence[str], value: Callable[[dict, list], float]) -> View:
    """Figure-style data: x = slave count, one column per label group; a
    one-cell group (the single-node QEMU comparator) draws a flat line."""
    def view(records: list) -> str:
        xs = [r["cell"]["n_slaves"] for r in group(records, names[0])]
        lines = {}
        for name in names:
            ys = [value(r, records) for r in group(records, name)]
            lines[name] = ys * len(xs) if len(ys) == 1 else ys
        return render_series(title, xs, lines)

    return view


def stacked(*views: View) -> View:
    return lambda records: "\n\n".join(view(records) for view in views)


def breakdown(label: str) -> View:
    """Per-service load table of the cell ``label`` (run with ``services``)."""
    def view(records: list) -> str:
        (record,) = group(records, label)
        services = {
            name: ServiceStats(**{
                **s, "shards": {int(k): ShardLoadStats(**sh) for k, sh in s["shards"].items()},
            })
            for name, s in record["services"].items()
        }
        return render_service_breakdown(RunStats(services=services), record["failures"])

    return view


def failure_footer(body: View, caption: str, labels: Sequence[str]) -> View:
    """``body``, then why each aborted run died, the final peer-health view
    of the run ``labels[0]``, and the service breakdown of each of ``labels``."""
    def view(records: list) -> str:
        lines = [body(records), ""]
        lines += [f"{r['label']}: {r['failure']}" for r in records if not r["completed"]]
        (healthy,) = group(records, labels[0])
        peers = sorted(healthy["peers"].items(), key=lambda kv: int(kv[0]))
        lines.append(
            f"peer health after {caption}: " + ", ".join(f"n{n}={state}" for n, state in peers)
        )
        for label in labels:
            lines += ["", breakdown(label)(records)]
        return "\n".join(lines)

    return view
