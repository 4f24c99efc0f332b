"""The one experiment runner: a plain-data ``Cell`` in, a flat record out.

Every table and figure of the evaluation is the same shape — run a workload
on a cluster under some configuration, read counters — so there is one
function that does it.  A :class:`Cell` is pure data (it prints, hashes and
round-trips through JSON); :func:`run_cell` builds its config, runs one
fresh :class:`~repro.core.cluster.Cluster` and returns one JSON-serialisable
record of *virtual-time* quantities.  Host time is deliberately absent: it
would break the committed tables' drift check and belongs to
``benchmarks/host/``.

Scale notes: where an experiment's *compute* is scaled down by k, its cells
set ``comm_scale=k`` so communication costs shrink by the same factor
(``DQEMUConfig.time_scaled``) and the compute:communication ratio — and
therefore the curve shape — is preserved.  Cells that measure the
communication costs themselves (Table 1, Fig. 6/8) leave it ``None``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.analysis.metrics import mean_fault_latency_us
from repro.baselines.qemu import qemu_config
from repro.core.cluster import Cluster, RunResult
from repro.core.config import DQEMUConfig
from repro.cost import CostModel
from repro.net.rpc import RpcTimeout
from repro.errors import SimulationError
from repro.net.faults import FaultPlan, drop
from repro.workloads import (
    blackscholes,
    fluidanimate,
    memaccess,
    mutex_bench,
    pi_taylor,
    swaptions,
    x264,
)

__all__ = ["Cell", "Fault", "RUN_KW", "WORKLOADS", "build_config", "run_cell"]

#: Virtual-time budget of every run; only the quiet-victim hang reaches it.
RUN_KW = dict(max_virtual_ms=60_000_000)
MAIN_TID = 1

WORKLOADS = {
    "blackscholes": blackscholes.build,
    "false_sharing": memaccess.build_false_sharing,
    "fluidanimate": fluidanimate.build,
    "mutex_bench": mutex_bench.build,
    "pi_taylor": pi_taylor.build,
    "private_rmw": memaccess.build_private_rmw,
    "seq_walk": memaccess.build_seq_walk,
    "swaptions": swaptions.build,
    "x264": x264.build,
}


@dataclass(frozen=True)
class Fault:
    """A fault schedule as data.  ``at_frac`` places a crash, drain or
    partition start at that fraction of the reference cell's duration."""

    kind: str  # "drop" | "partition" | "crash" | "drain"
    node: Optional[int] = None
    at_frac: Optional[float] = None
    window_ns: Optional[int] = None  # partition length
    every_nth: Optional[int] = None  # background drop rate
    seed: int = 0

    def at_ns(self, ref: Optional[dict]) -> Optional[int]:
        return None if self.at_frac is None else int(self.at_frac * ref["virtual_ns"])

    def plan(self, ref: Optional[dict]) -> FaultPlan:
        at = self.at_ns(ref)
        if self.kind == "drop":
            return FaultPlan.of(drop(every_nth=self.every_nth, loopback=False), seed=self.seed)
        if self.kind == "partition":
            return FaultPlan.partition([self.node], at, at + self.window_ns, seed=self.seed)
        if self.kind == "crash":
            return FaultPlan.crash(self.node, at, seed=self.seed)
        if self.kind == "drain":
            return FaultPlan.drain(self.node, at, seed=self.seed)
        raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class Cell:
    """One run of the experiment matrix.

    The only dependency between cells is "a fraction of a clean run's
    duration": ``ref`` names that run's cell by label, ``fault.at_frac`` and
    ``ref_fracs`` (config field -> fraction) are resolved against its record.
    """

    label: str
    workload: str = ""
    params: dict = field(default_factory=dict)  # workload build arguments
    n_slaves: int = 1
    config: dict = field(default_factory=dict)  # DQEMUConfig/CostModel overrides
    comm_scale: Optional[float] = None  # DQEMUConfig.time_scaled factor
    fault: Optional[Fault] = None
    ref: Optional[str] = None
    ref_fracs: dict = field(default_factory=dict)
    baseline: bool = False  # the single-node vanilla-QEMU comparator
    #: Multi-tenant rows: (workload, params) jobs submitted to one fleet,
    #: replacing ``workload``/``params``.
    jobs: tuple = ()
    services: bool = False  # record per-service stats (breakdown tables)

    @classmethod
    def from_json(cls, data: dict) -> "Cell":
        """Inverse of ``dataclasses.asdict`` after a trip through JSON."""
        fault = Fault(**data["fault"]) if data["fault"] else None
        jobs = tuple((name, params) for name, params in data["jobs"])
        return cls(**{**data, "fault": fault, "jobs": jobs})

    def __hash__(self) -> int:
        return hash(json.dumps(asdict(self), sort_keys=True))


def build_config(cell: Cell, ref: Optional[dict] = None) -> DQEMUConfig:
    opts = dict(cell.config)
    if cell.fault is not None:
        opts["fault_plan"] = cell.fault.plan(ref)
    for name, frac in cell.ref_fracs.items():
        opts[name] = max(1, int(frac * ref["virtual_ns"]))
    costs = {k: opts.pop(k) for k in list(opts) if k in CostModel.__dataclass_fields__}
    if costs:
        opts["cost"] = CostModel(**costs)
    cfg = DQEMUConfig(**opts)
    if cell.comm_scale is not None:
        cfg = cfg.time_scaled(cell.comm_scale)
    return qemu_config(cfg) if cell.baseline else cfg


def run_cell(cell: Cell, ref: Optional[dict] = None) -> dict:
    """Run ``cell`` on a fresh cluster; ``ref`` is its reference cell's record.

    A run the fault schedule kills is a result, not an error: the record
    then says ``completed=False`` and carries the failure text.
    """
    cfg = build_config(cell, ref)
    cluster = Cluster(0 if cell.baseline else cell.n_slaves, cfg)
    record = {"label": cell.label, "cell": asdict(cell), "completed": True, "failure": ""}
    try:
        jobs = [
            cluster.submit(WORKLOADS[name](**params), name=name, **RUN_KW)
            for name, params in cell.jobs or [(cell.workload, cell.params)]
        ]
        results = cluster.join(jobs)
    except (RpcTimeout, SimulationError) as exc:
        return {**record, "completed": False, "failure": str(exc)}
    return {**record, **_measure(cell, cfg, results, ref)}


def _percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def _measure(cell: Cell, cfg: DQEMUConfig, results: list[RunResult], ref: Optional[dict]) -> dict:
    """Fleet-level fields cover every job of the cell; the per-layer counter
    groups are the first job's (the only job outside the multi-tenant rows)."""
    first = results[0]
    stats = first.stats
    virtual_ns = max(r.queue_wait_ns + r.virtual_ns for r in results)
    insns = sum(r.stats.insns_executed for r in results)
    waits = [r.queue_wait_ns for r in results]
    workers = [tid for tid in stats.threads if tid != MAIN_TID]
    dbt = stats.dbt
    dbt_cycles = dbt.execute_cycles + dbt.translate_cycles
    record = {
        "exit_codes": [r.exit_code for r in results],
        "stdout": first.stdout,
        "virtual_ns": virtual_ns,
        "virtual_ms": virtual_ns / 1e6,
        "insns": insns,
        "goodput_mips": insns * 1e3 / virtual_ns,
        "queue_wait_ns": waits,
        "mean_queue_wait_ms": sum(waits) / len(waits) / 1e6,
        "p99_queue_wait_ms": _percentile(waits, 99) / 1e6,
        "queued_jobs": sum(1 for w in waits if w > 0),
        "fault_latency_us": mean_fault_latency_us(first),
        "worker_fault_latency_us": mean_fault_latency_us(first, workers),
        "worker_breakdown_ns": stats.mean_breakdown(workers),
        "protocol": asdict(stats.protocol),
        "dbt": {
            **asdict(dbt),
            "lookups_per_kinsn": dbt.lookups * 1e3 / insns,
            "dispatches_per_kinsn": dbt.dispatches * 1e3 / insns,
            "lookup_hit_rate": dbt.lookup_hit_rate,
            "translate_share": dbt.translate_cycles / dbt_cycles if dbt_cycles else 0.0,
            "cpi": dbt_cycles / insns,
        },
        "rpc": {**asdict(first.rpc), "mean_recovery_us": first.rpc.mean_recovery_us},
        "faults": first.faults and {
            k: getattr(first.faults, k)
            for k in ("matched", "dropped", "delayed", "duplicated", "reordered")
        },
        "failures": _failures(first, cell.fault, ref),
        "heartbeat": cfg.heartbeat_interval_ns and {
            "interval_ns": cfg.heartbeat_interval_ns,
            "lease_ns": cfg.heartbeat_lease_ns,
            "detection_bound_ns": cfg.heartbeat_detection_bound_ns(),
        },
        "peers": {str(nid): peer.state.value for nid, peer in first.health.peers.items()},
    }
    if cell.services:
        record["services"] = {
            name: {**asdict(s), "shards": {str(k): asdict(sh) for k, sh in s.shards.items()}}
            for name, s in stats.services.items()
        }
    return record


def _failures(result: RunResult, fault: Optional[Fault], ref: Optional[dict]) -> Optional[dict]:
    """Failure-domain accounting, plus the scheduled victim's own record with
    its detection latency (fault time -> detected/ordered) and recovery span."""
    failures = result.failures
    if failures is None:
        return None
    node = failures.nodes.get(fault.node) if fault is not None else None
    return {
        **{
            k: getattr(failures, k)
            for k in ("evacuated_threads", "lost_threads", "rehomed_pages", "lost_pages",
                      "lease_detections")
        },
        "victim": node and {
            **asdict(node),
            "detection_ns": node.detected_ns - fault.at_ns(ref),
            "recovery_ns": node.recovery_ns,
        },
    }
