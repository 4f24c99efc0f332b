"""The experiment registry: every table/figure of the evaluation as data.

An :class:`Experiment` is a name (the stem of its two artifacts,
``benchmarks/results/<name>.json`` and ``<name>.txt``), a list of
:class:`~repro.analysis.runner.Cell` and a view.  ``repro-experiments``,
``benchmarks/test_*.py`` and the CI smoke matrix all read this one registry;
EXPERIMENTS.md records paper-vs-measured for every row.  Iteration counts
are scaled down from the paper's (see the runner's scale notes); the
parameter roles and series are the paper's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from repro.analysis.metrics import speedup
from repro.analysis.runner import Cell, Fault, run_cell
from repro.analysis.views import (
    bandwidth_mbps, breakdown, failure_footer, get, group, series, stacked, table, us,
)
from repro.net.messages import Heartbeat
from repro.workloads import mutex_bench

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment", "render", "save"]


@dataclass(frozen=True)
class Experiment:
    name: str
    cells: tuple[Cell, ...]
    view: Callable[[list], str]


EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(name: str, cells, view: Callable[[list], str]) -> None:
    EXPERIMENTS[name] = Experiment(name, tuple(cells), view)


def run_experiment(name: str) -> list[dict]:
    """Run every cell in order (a reference cell precedes its dependants)."""
    records: dict[str, dict] = {}
    for cell in EXPERIMENTS[name].cells:
        records[cell.label] = run_cell(cell, records.get(cell.ref))
    return list(records.values())


def render(name: str, records: list[dict]) -> str:
    return EXPERIMENTS[name].view(records)


def save(name: str, records: list[dict], out_dir: Union[str, Path]) -> str:
    """The one artifact rule: ``<name>.json`` holds the records and
    ``<name>.txt`` is rendered from exactly what the JSON holds."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    (out / f"{name}.json").write_text(text)
    rendered = render(name, json.loads(text))
    (out / f"{name}.txt").write_text(rendered + "\n")
    return rendered


SLAVES = (1, 2, 3, 4, 5, 6)
EVACUATION = dict(evacuation_enabled=True, health_aware_placement=True)


def _reliable(timeout_ns: int, retries: int) -> dict:
    return dict(
        rpc_timeout_ns=timeout_ns, rpc_max_retries=retries,
        rpc_backoff_base_ns=10_000, rpc_backoff_jitter_ns=2_000,
    )


#: The fault tables' leading columns; an aborted run has no duration.
SCENARIO_COLUMNS = [
    ("scenario", "label"),
    ("completed", lambda r: "yes" if r["completed"] else "ABORTED"),
    ("time (us)", us("virtual_ns")),
]


# -- Fig. 5 / Fig. 7: speedup over one DQEMU slave vs slave nodes ------------


def _speedup_figure(name: str, title: str, series_opts: dict, qemu: str, **run) -> None:
    """One line per config in ``series_opts`` plus the flat single-node QEMU
    line, all normalized to the first series at one slave."""
    _experiment(
        name,
        (
            *(Cell(f"{line}/{n}", n_slaves=n, config=opts, **run)
              for line, opts in series_opts.items() for n in SLAVES),
            Cell(qemu, baseline=True, **run),
        ),
        series(
            title, [*series_opts, qemu],
            lambda r, records: speedup(records[0]["virtual_ns"], r["virtual_ns"]),
        ),
    )


# Paper: 120 threads x 64 K series, no sharing; compute and communication are
# both scaled down by ~the same factor.
_speedup_figure(
    "fig5_scalability", "Fig. 5 — speedup vs slave nodes (pi-Taylor, no sharing)",
    {"DQEMU": {}}, "QEMU-4.2.0",
    workload="pi_taylor", params=dict(n_threads=48, terms=1500, reps=22), comm_scale=1000.0,
)

# The Fig. 7 ablation series.  blackscholes slices are deliberately not page
# multiples: result-array boundary pages false-share between adjacent threads,
# as in the real kernel.
FIG7_SERIES = {
    "origin": {},
    "forwarding": dict(forwarding_enabled=True),
    "forwarding+splitting": dict(forwarding_enabled=True, splitting_enabled=True),
}
for _workload, _params in (
    ("blackscholes", dict(n_options=16320, reps=16)),
    ("swaptions", dict(n_swaptions=256, trials=2000)),
):
    _speedup_figure(
        f"fig7_{_workload}",
        f"Fig. 7 — {_workload}: speedup vs slave nodes (normalized to 1 slave, origin)",
        FIG7_SERIES, "qemu-4.2.0",
        workload=_workload, params=dict(n_threads=16, **_params), comm_scale=100.0,
    )

# -- Fig. 5 (sharded): master-shard sweep at the high end of the node range --
# pi-Taylor shares no data, so its manager mailboxes never back up; the sweep
# uses the Fig. 7 blackscholes kernel, whose boundary false sharing sustains
# coherence traffic on many distinct pages per node for the whole run —
# the load where one manager per node serializes unrelated requests.


_experiment(
    "services_fig5_sharded",
    (
        Cell(f"{n} slaves/{k} shards", "blackscholes", dict(n_threads=16, n_options=16320, reps=16),
             n_slaves=n, config=dict(master_shards=k), comm_scale=100.0, services=True)
        for n in (4, 6) for k in (1, 2, 4)
    ),
    table(
        "Fig. 5 (sharded) — master-shard sweep: coherence mailbox queue wait vs shard count",
        [
            ("slaves", "cell.n_slaves"),
            ("shards", "cell.config.master_shards"),
            ("time (ms)", "virtual_ms"),
            ("coherence reqs", "services.coherence.requests"),
            ("queue-wait (us)", us("services.coherence.queue_wait_ns")),
            ("mean wait (us)", lambda r: r["services"]["coherence"]["queue_wait_ns"]
             / r["services"]["coherence"]["requests"] / 1e3),
        ],
    ),
)

# -- Fig. 5 (partition): reliable delivery under loss and a mid-run partition
# Same blackscholes kernel, so any fault window hits in-flight RPCs.  The
# retry budget must out-span the partition: the final retransmit of a call
# first sent at the window's start goes out timeout * retries + sum(backoffs)
# ~ 750 us later, comfortably past the 150 us window.  The partitioned node
# is the highest slave id; the window opens mid-kernel.


def _faulted(label, workload, params, n_slaves, config, **kw) -> Cell:
    """A 100x-scaled cell of a fault experiment."""
    return Cell(label, workload, params, n_slaves=n_slaves, config=config, comm_scale=100.0, **kw)


_BS8 = ("blackscholes", dict(n_threads=8, n_options=8160, reps=8))
_PARTITION = Fault("partition", node=2, at_frac=0.35, window_ns=150_000, seed=3)

_experiment(
    "services_fig5_partition",
    (
        _faulted("no faults", *_BS8, 2, _reliable(20_000, 6)),
        *(
            _faulted(f"drop 1/{every}", *_BS8, 2, _reliable(20_000, 6),
                     fault=Fault("drop", every_nth=every, seed=3))
            for every in (120, 40)
        ),
        _faulted("partition (no retry)", *_BS8, 2, dict(rpc_timeout_ns=20_000),
                 fault=_PARTITION, ref="no faults"),
        _faulted("partition + retry", *_BS8, 2, _reliable(20_000, 6),
                 fault=_PARTITION, ref="no faults", services=True),
    ),
    failure_footer(
        table(
            "Fig. 5 (partition) — goodput vs drop rate and partition-then-heal recovery",
            [
                *SCENARIO_COLUMNS,
                ("goodput (MIPS)", lambda r: get(r, "goodput_mips", "-")),
                ("drops", "faults.dropped"),
                ("retransmits", "rpc.retransmits"),
                ("recovered", "rpc.recoveries"),
                ("mean recovery (us)", "rpc.mean_recovery_us"),
            ],
        ),
        "healed run", "partition + retry",
    ),
)

# -- Fig. 5 (crash): node-crash tolerance — evacuate, re-home, drain ---------
# The highest slave fails (or drains) at 0.35 of the clean run — mid-kernel.

_CRASH_CFG = {**_reliable(20_000, 4), **EVACUATION}
_CRASH = Fault("crash", node=3, at_frac=0.35, seed=3)

_experiment(
    "services_fig5_crash",
    (
        _faulted("no faults", *_BS8, 3, _reliable(20_000, 4)),
        _faulted("crash (no evacuation)", *_BS8, 3, _reliable(20_000, 4),
                 fault=_CRASH, ref="no faults"),
        _faulted("crash + evacuation", *_BS8, 3, _CRASH_CFG,
                 fault=_CRASH, ref="no faults", services=True),
        _faulted("cooperative drain", *_BS8, 3, _CRASH_CFG,
                 fault=Fault("drain", node=3, at_frac=0.35), ref="no faults"),
    ),
    failure_footer(
        table(
            "Fig. 5 (crash) — node-crash tolerance: evacuation, re-homing, "
            "graceful degradation",
            [
                *SCENARIO_COLUMNS,
                ("evacuated", "failures.evacuated_threads"),
                ("lost threads", "failures.lost_threads"),
                ("rehomed pages", "failures.rehomed_pages"),
                ("lost M pages", "failures.lost_pages"),
                ("detection (us)", us("failures.victim.detection_ns")),
                ("recovery (us)", us("failures.victim.recovery_ns")),
            ],
        ),
        "crash+evacuation run", "crash + evacuation",
    ),
)

# -- Fig. 5 (heartbeat): active liveness — detection bound vs renewal cost ---
# The quiet victim is the failure the passive detector cannot see: pi-Taylor
# shares no pages, so once the victim's worker is running no peer addresses
# it again, and rpc_timeout_ns is generous enough to make the passive path
# hopeless within the budget.  Heartbeat intervals are fractions of the clean
# duration (lease = 4x).  The busy victim is blackscholes with tight retry
# budgets and a slack lease, so RPC evidence wins the race.

_QUIET = ("pi_taylor", dict(n_threads=3, terms=600, reps=2))
_QUIET_CFG = {**_reliable(5_000_000, 4), **EVACUATION}
_QUIET_CRASH = Fault("crash", node=3, at_frac=0.5, seed=7)
_BUSY = ("blackscholes", dict(n_threads=6, n_options=2040, reps=4))
_HEARTBEAT_BYTES = Heartbeat().size_bytes()  # every renewal is the same size

_experiment(
    "services_fig5_heartbeat",
    (
        _faulted("quiet: no faults", *_QUIET, 3, _QUIET_CFG),
        _faulted("quiet: crash (no heartbeat)", *_QUIET, 3, _QUIET_CFG,
                 fault=_QUIET_CRASH, ref="quiet: no faults"),
        *(
            _faulted(f"quiet: crash + hb ({frac:g}x)", *_QUIET, 3, _QUIET_CFG,
                     fault=_QUIET_CRASH, ref="quiet: no faults",
                     ref_fracs=dict(heartbeat_interval_ns=frac), services=frac == 0.01)
            for frac in (0.01, 0.02, 0.05)
        ),
        _faulted("busy: no faults", *_BUSY, 3, _CRASH_CFG),
        _faulted("busy: crash + slack hb", *_BUSY, 3, _CRASH_CFG,
                 fault=Fault("crash", node=3, at_frac=0.35, seed=7), ref="busy: no faults",
                 ref_fracs=dict(heartbeat_interval_ns=0.2)),
    ),
    failure_footer(
        table(
            "Fig. 5 (heartbeat) — lease-based liveness: detection "
            "latency vs renewal overhead, quiet and busy victims",
            [
                *SCENARIO_COLUMNS,
                ("hb interval (us)", us("heartbeat.interval_ns")),
                ("lease (us)", us("heartbeat.lease_ns")),
                ("bound (us)", us("heartbeat.detection_bound_ns")),
                ("detection (us)", us("failures.victim.detection_ns")),
                ("evidence", lambda r: get(r, "failures.victim.evidence") or "-"),
                ("lost threads", "failures.lost_threads"),
                ("hb frames", "protocol.heartbeats_sent"),
                ("hb wire (B)", lambda r: get(r, "protocol.heartbeats_sent", 0) * _HEARTBEAT_BYTES),
            ],
        ),
        "shortest-interval run", "quiet: crash + hb (0.01x)",
    ),
)

# -- Fig. 6: mutex performance, global lock (worst) vs private locks (best) --
# Paper: 32 threads; 5 000 ops on one global lock, 500 000 on private locks
# (scaled down here; per-op costs are iteration-count independent).

_MUTEX = {
    "1": dict(n_threads=32, iters=5_000, private=False),
    "2": dict(n_threads=32, iters=15_000, private=True),
}
_QUANTUM = dict(quantum_cycles=5_000)

_experiment(
    "fig6_mutex",
    (
        *(
            Cell(f"DQEMU-{case} ({lock} lock)/{n}", "mutex_bench", _MUTEX[case],
                 n_slaves=n, config=_QUANTUM)
            for n in SLAVES for case, lock in (("1", "global"), ("2", "private"))
        ),
        *(Cell(f"QEMU-{c}", "mutex_bench", _MUTEX[c], config=_QUANTUM, baseline=True)
          for c in _MUTEX),
    ),
    series(
        "Fig. 6 — mutex elapsed time (ms) vs slave nodes",
        ["DQEMU-1 (global lock)", "DQEMU-2 (private lock)", "QEMU-1", "QEMU-2"],
        lambda r, _records: mutex_bench.elapsed_ns(r["stdout"]) / 1e6,
    ),
)

# -- Fig. 6 (coherence): MSI / MESI / home migration / adaptive --------------
# On the real §6.1 network constants: the sweep measures protocol round trips.
# One workload per protocol's case: single-writer pages (MESI's silent E->M),
# the global-lock pessimum (upgrade acks), and a mix no fixed protocol fits.

_RMW = dict(n_threads=8, n_nodes=4, pages_per_thread=8, passes=4)
COHERENCE_WORKLOADS = {
    "single-writer": ("private_rmw", _RMW, {}),
    "mutex-worst": ("mutex_bench", dict(n_threads=8, iters=2_000, private=False), {}),
    "mixed-sharded": (
        "private_rmw", dict(_RMW, shared_beat=16, bcast_beat=16), dict(master_shards=2),
    ),
}
COHERENCE_COLUMNS = [
    ("protocol", "cell.config.coherence_protocol"),
    ("time_ms", "virtual_ms"),
    ("mean_wait_us", "fault_latency_us"),
    *((name, f"protocol.{name}") for name in (
        "page_requests", "write_upgrades", "exclusive_grants", "silent_upgrades",
        "upgrade_acks", "home_migrations", "home_local_hits", "home_remote_misses",
    )),
    ("reclassifications", "protocol.adaptive_reclassifications"),
]

_experiment(
    "fig6_coherence",
    (
        Cell(f"{name}/{proto}", workload, params, n_slaves=4,
             config=dict(coherence_protocol=proto, adaptive_window=8, **extra))
        for proto in ("msi", "mesi", "migrate", "adaptive")
        for name, (workload, params, extra) in COHERENCE_WORKLOADS.items()
    ),
    stacked(*(
        table(f"Fig. 6 (coherence) — {name}", COHERENCE_COLUMNS,
              rows=lambda records, name=name: group(records, name))
        for name in COHERENCE_WORKLOADS
    )),
)

# -- Table 1: memory performance (sequential walk, false sharing) ------------
# Paper: a 1 GB sequential walk and a 32-thread false-sharing walk over one
# page's 128-byte sections, on the real §6.1 network constants.

_SEQ = ("seq_walk", dict(npages=256))
_FS = ("false_sharing", dict(n_threads=32, n_nodes=4, iters=400_000, warmup_iters=40_000))


def _remote_latency_us(record: dict):
    cell = record["cell"]
    remote_walk = cell["workload"] == "seq_walk" and not cell["baseline"]
    return record["worker_fault_latency_us"] if remote_walk else "-"


_experiment(
    "table1_memory",
    (
        Cell("QEMU Sequential Access", *_SEQ, baseline=True),
        Cell("Remote Sequential Access", *_SEQ),
        Cell("Page forwarding Enabled", *_SEQ, config=dict(forwarding_enabled=True)),
        Cell("QEMU Access of 128 bytes", *_FS, baseline=True),
        Cell("False Sharing of 1 Page", *_FS, n_slaves=4),
        Cell("Page Splitting Enabled", *_FS, n_slaves=4, config=dict(splitting_enabled=True)),
    ),
    table(
        "Table 1 — memory performance",
        [("Access Type", "label"), ("Throughput(MB/s)", bandwidth_mbps),
         ("Latency(us)", _remote_latency_us)],
    ),
)

# -- Fig. 8: per-thread time breakdown, hint scheduling vs round-robin -------
# 128 threads; hints co-locate a group.  x264: the largest power-of-two group
# with >= 2 groups per node (the paper embeds several groupings and picks by
# node count); fluidanimate: one block of neighbours per node.

BREAKDOWN_KEYS = ("execute_ns", "pagefault_ns", "syscall_ns")


def _x264_params(n_nodes: int) -> dict:
    group_size = 2
    while group_size * 2 * (2 * n_nodes) <= 128:
        group_size *= 2
    return dict(n_frames=128, group_size=group_size, pages_per_frame=2, passes=6,
                hint=["div", group_size])


def _fluidanimate_params(n_nodes: int) -> dict:
    return dict(n_threads=128, iters=4, hint=["div", 128 // n_nodes])


def _normalized_to_qemu(records: list) -> list:
    (qemu,) = group(records, "qemu")
    qemu_mean_ns = sum(qemu["worker_breakdown_ns"][k] for k in BREAKDOWN_KEYS)
    return [
        dict(r, norm={k: r["worker_breakdown_ns"][k] / qemu_mean_ns for k in BREAKDOWN_KEYS})
        for r in records if r is not qemu
    ]


for _workload, _params in (("x264", _x264_params), ("fluidanimate", _fluidanimate_params)):
    _experiment(
        f"fig8_{_workload}",
        (
            *(Cell(f"{n}/{sched}", _workload, _params(n), n_slaves=n, config=dict(scheduler=sched))
              for n in SLAVES[1:] for sched in ("hint", "round_robin")),
            Cell("qemu", _workload, _params(SLAVES[1]), baseline=True),
        ),
        table(
            f"Fig. 8 — {_workload}: mean per-thread time breakdown, normalized to QEMU-4.2.0",
            [
                ("nodes", "cell.n_slaves"),
                ("scheduler", "cell.config.scheduler"),
                ("execute", "norm.execute_ns"),
                ("pagefault", "norm.pagefault_ns"),
                ("syscall", "norm.syscall_ns"),
                ("total", lambda r: sum(r["norm"].values())),
            ],
            _normalized_to_qemu,
        ),
    )

# -- Ablations: the §4/§5 design choices the paper motivates qualitatively ---

_experiment(
    "ablation_forwarding_window",  # window 0 disables forwarding entirely
    (
        Cell(f"{w}", "seq_walk", dict(npages=128), config=dict(
            forwarding_enabled=w > 0,
            forwarding_initial_window=max(w // 2, 1),
            forwarding_max_window=max(w, 1),
        ))
        for w in (0, 4, 16, 64, 256)
    ),
    table(
        "Ablation — forwarding window cap (sequential walk)",
        [
            ("max window", "label"),
            ("MB/s", bandwidth_mbps),
            ("fault latency us", "fault_latency_us"),
            ("pages pushed", "protocol.pages_forwarded"),
        ],
    ),
)

# Reduced protocol-service scale, so ownership ping-pong cycles are short
# enough for every trigger to be reachable; 10_000 is "never split".
_experiment(
    "ablation_splitting_trigger",
    (
        Cell(f"trigger {t}", "false_sharing",
             dict(n_threads=8, n_nodes=2, iters=80_000, warmup_iters=80_000), n_slaves=2,
             config=dict(splitting_enabled=True, splitting_trigger=t, dsm_service_ns=30_000))
        for t in (5, 10, 20, 10_000)
    ),
    table(
        "Ablation — false-sharing trigger count",
        [
            ("trigger", "cell.config.splitting_trigger"),
            ("aggregate MB/s", bandwidth_mbps),
            ("splits", "protocol.splits"),
            ("merges", "protocol.merges"),
        ],
    ),
)

_experiment(
    "ablation_quantum",
    (
        Cell(f"quantum {q}", "mutex_bench", dict(n_threads=8, iters=10_000, private=False),
             n_slaves=2, config=dict(quantum_cycles=q))
        for q in (5_000, 20_000, 50_000, 200_000)
    ),
    table(
        "Ablation — scheduling quantum vs contended global lock",
        [
            ("quantum cycles", "cell.config.quantum_cycles"),
            ("lock phase ms", lambda r: mutex_bench.elapsed_ns(r["stdout"]) / 1e6),
            ("futex waits", "protocol.futex_waits"),
        ],
    ),
)

# The gap between the 40 us wire bound and the paper's measured 410 us.
_experiment(
    "ablation_dsm_service",
    (
        Cell(f"{s}", "seq_walk", dict(npages=64), config=dict(dsm_service_ns=s * 1000))
        for s in (40, 160, 320, 640)
    ),
    table(
        "Ablation — master protocol service time vs remote-page latency",
        [
            ("service us", "label"),
            ("fault latency us", "fault_latency_us"),
            ("MB/s", bandwidth_mbps),
        ],
    ),
)

# -- DBT hot path: chaining -> superblocks + idiom fusion --------------------
# The headline column is dbt_cpi — DBT cycles (execute + translate) per guest
# instruction: loop-heavy workloads amortize trace compilation; the short
# blackscholes run shows the flip side, where one-off translation dominates.

DBT_CONFIGS = {
    "baseline": {},
    "hotpath": dict(superblock_threshold=8, fusion_enabled=True),
}
DBT_WORKLOADS = {
    "blackscholes": dict(n_threads=4, n_options=16),
    "mutex_bench": dict(n_threads=4, iters=40),
    "pi_taylor": dict(n_threads=8, terms=400, reps=4),
    "x264": dict(n_frames=32, group_size=4, pages_per_frame=1),
}

_experiment(
    "dbt_hotpath",
    (
        Cell(f"{workload}/{name}", workload, params, n_slaves=2, config=config)
        for workload, params in DBT_WORKLOADS.items() for name, config in DBT_CONFIGS.items()
    ),
    table(
        "dbt hot path: chaining (baseline) -> "
        "superblocks+fusion (hotpath, threshold=8; 2 slaves)",
        [
            ("workload", "cell.workload"),
            ("config", lambda r: r["label"].split("/")[1]),
            ("lookups/ki", "dbt.lookups_per_kinsn"),
            ("disp/ki", "dbt.dispatches_per_kinsn"),
            ("dbt_cpi", "dbt.cpi"),
            ("tx share", "dbt.translate_share"),
            ("sblocks", "dbt.superblocks_formed"),
            ("fuse hits", lambda r: sum(r["dbt"]["fusion_hits"].values())),
            ("saved cyc", lambda r: int(
                r["dbt"]["superblock_saved_cycles"] + r["dbt"]["fusion_saved_cycles"]
            )),
        ],
    ),
)

# -- Fig. 9: multi-tenant admission (beyond the paper) -----------------------
# Streams of up to max_concurrent_jobs run concurrently; deeper streams queue.

TENANT_MIX = (
    ("blackscholes", dict(n_threads=4, n_options=16)),
    ("mutex_bench", dict(n_threads=4, iters=40)),
    ("x264", dict(n_frames=8, group_size=4, pages_per_frame=1)),
)
MAX_CONCURRENT_JOBS = 3


_experiment(
    "fig9_multitenant",
    (
        Cell(f"{n} tenants", n_slaves=2,
             config=dict(max_concurrent_jobs=MAX_CONCURRENT_JOBS, admission_queue_depth=16),
             jobs=tuple(TENANT_MIX[i % len(TENANT_MIX)] for i in range(n)))
        for n in (1, 2, 3, 4, 6)
    ),
    table(
        "fig9: multi-tenant job admission (mixed blackscholes/mutex_bench/x264 "
        f"stream, 2 slaves, max_concurrent_jobs={MAX_CONCURRENT_JOBS})",
        [
            ("tenants", lambda r: len(r["cell"]["jobs"])),
            ("makespan_ms", "virtual_ms"),
            ("goodput_mips", "goodput_mips"),
            ("mean_wait_ms", "mean_queue_wait_ms"),
            ("p99_wait_ms", "p99_queue_wait_ms"),
            ("queued", "queued_jobs"),
        ],
    ),
)

# -- Per-service load attribution: byte-stable, so load shifting between ----
# subsystems shows up in review as table drift.

_experiment(
    "services_mutex",
    (Cell("mutex", "mutex_bench", dict(n_threads=4, iters=200, private=False),
          n_slaves=2, services=True),),
    breakdown("mutex"),
)
_experiment(
    "services_seq_forwarding",
    (Cell("seq", "seq_walk", dict(npages=64), config=dict(forwarding_enabled=True),
          services=True),),
    breakdown("seq"),
)
