"""Host-time benchmark driver.

Two ways in, one set of workloads and metrics:

* the whole suite — ``PYTHONPATH=src python -m benchmarks.host.run [--seed N]
  [--reps N] [--out DIR]`` runs all six workloads (one discarded warm-up and
  ``--reps`` measured reps each, interleaved round-robin so slow machine drift
  is spread over every row), one profiled pass per workload and the
  microbenchmarks; prints every metric by name with its unit, writes
  ``DIR/host_bench.json`` and exits non-zero if any run failed;
* one run of one workload, the form ``BENCHMARK.json`` names —
  ``python3 benchmarks/host/run.py --workload W --seed N --seconds S --trace
  0|1`` measures for about S seconds and prints one JSON object last:
  end-to-end medians with ``--trace 0``, every per-layer metric with
  ``--trace 1``.

Either way the emulator is measured strictly from outside: closed loop, one
client, one worker process at a time (the emulator is single-threaded, so one
busy process is the whole load), tracing off in every timed rep.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the tree

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
# Run as a script, only this directory is importable; the emulator under test
# lives in src/ and this package is addressed from the repository root.
sys.path[:0] = [p for p in (str(SRC), str(ROOT)) if p not in sys.path]

from benchmarks.host import metrics, micro, workloads  # noqa: E402

DEFAULT_OUT = HERE / "out"
DEFAULT_REPS = 10
#: A single-workload run keeps launching reps while they fit in --seconds,
#: but never measures fewer than this many.
MIN_RUN_REPS = 5
WORKER_TIMEOUT_S = 150


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def rep_line(record: dict) -> str:
    return f"{record.get('host_s', float('nan')):.3f} s {'; '.join(record['problems'])}"


def labelled(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {metric: {"unit": units[metric], "value": value} for metric, value in values.items()}


# -- one rep ------------------------------------------------------------------


def run_worker(name: str, seed: int, *flags: str) -> dict:
    """One fresh worker process, waited for.  A rep that raised, exited
    non-zero or printed no result comes back as a record with ``problems``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "benchmarks.host.worker", name, "--seed", str(seed),
        "--spawned-at", repr(time.monotonic()), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # run() has already killed and reaped it
        return {"problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"problems": [f"worker exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


# -- folding reps into one workload's section ----------------------------------


def summarise(name: str, seed: int, smoke: bool, reps: list[dict]) -> dict:
    """One workload's metrics from its run records.  Every record counts as an
    attempted run and must be correct; only plain reps are timed — not the
    warm-up (``warmup: True``) and not the profiled pass (it carries
    ``profile``), which feeds the ``prof.*`` metrics instead."""
    digests = collections.Counter(r["digest"] for r in reps if not r["problems"])
    digest = digests.most_common(1)[0][0] if digests else None
    for r in reps:
        # All runs of a workload must share one digest: simulated statistics
        # are deterministic, so a second value means something leaked in.
        if not r["problems"] and r["digest"] != digest:
            r["problems"].append(f"sim digest {r['digest'][:12]} differs from {digest[:12]}")
    failed = [r for r in reps if r["problems"]]
    good = [r for r in reps if not r["problems"]]
    timed = [r for r in good if not r.get("warmup") and "profile" not in r]
    profiled = next((r for r in good if "profile" in r), None)
    section: dict = {
        "sizes": workloads.sizes_for(name, seed, smoke),
        "attempted": len(reps),
        "failed": len(failed),
        "problems": [p for r in failed for p in r["problems"]],
        "sim_digest": digest,
    }
    if not timed:
        return section
    samples = {
        "host_s": [r["host_s"] for r in timed],
        "guest_mips": [r["insns"] / r["host_s"] / 1e6 for r in timed],
        "host_cal_s": [r["host_cal_s"] for r in timed],
        "guest_cal_mips": [r["insns"] / r["host_cal_s"] / 1e6 for r in timed],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
    }
    end_to_end = {
        metric: {"unit": metrics.END_TO_END[metric][0], **metrics.spread(values), "values": values}
        for metric, values in samples.items()
    }
    end_to_end["virt_ms"] = {"unit": "sim_ms", "value": timed[0]["virt_ns"] / 1e6}
    end_to_end["failed_share"] = {"unit": "fraction", "value": len(failed) / len(reps)}
    section["end_to_end"] = end_to_end
    host_s = end_to_end["host_s"]["median"]
    per_layer = timed[0]["counts"] | metrics.derived(
        timed[0]["counts"], host_s, timed[0]["virt_ns"]
    )
    if profiled is not None:
        per_layer |= metrics.profile_metrics(profiled["profile"], profiled["host_s"], host_s)
    section["per_layer"] = labelled(per_layer, metrics.WORKLOAD_LAYER_UNITS)
    return section


# -- the form BENCHMARK.json names: one workload, one run -----------------------


def single_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()

    def elapsed() -> float:
        return time.monotonic() - started

    reps: list[dict] = []
    if trace:
        reps += [run_worker(name, seed), run_worker(name, seed, "--profile")]
        # The microbenchmarks fill what is left of --seconds.
        batches = 3
        batch_s = (seconds - elapsed()) / (len(micro.UNITS) + 1) / batches
        layer_values = micro.run_all(min(0.2, max(0.005, batch_s)), batches)
    else:
        # Discarded: the first process after idling finds cold file caches.
        run_worker(name, seed, "--setup-only")
        longest = 0.0
        while len(reps) < MIN_RUN_REPS or elapsed() + longest <= seconds:
            t0 = time.monotonic()
            reps.append(run_worker(name, seed))
            longest = max(longest, time.monotonic() - t0)
            log(f"{name} rep {len(reps)}: {rep_line(reps[-1])}")
    section = summarise(name, seed, False, reps)
    for problem in section["problems"]:
        log(f"FAILED {name}: {problem}")
    if trace:
        if "prof.overhead_x" not in section.get("per_layer", ()):
            return 1  # the untraced rep or the profiled pass is missing: no result
        reported = section["per_layer"] | labelled(layer_values, micro.UNITS)
    else:
        if "end_to_end" not in section:
            return 1  # nothing measured: no result
        reported = {
            m: {"unit": metrics.END_TO_END[m][0], "value": section["end_to_end"][m]["median"]}
            for m in metrics.GATED
        }
    log(f"{name}: {section['attempted']} runs in {elapsed():.1f} s")
    print(json.dumps({
        "correct": section["failed"] == 0,
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": reported,
    }))
    return 0


# -- the whole suite ------------------------------------------------------------


def environment(load_start: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
        "git_commit": commit,
    }


def fmt(value: float) -> str:
    return f"{value:.5g}"


def print_tables(result: dict) -> None:
    names = list(result["workloads"])
    sections = result["workloads"]
    print("\nmicrobenchmarks (best batch)")
    for metric, m in result["micro"].items():
        print(f"  {metric:<40} {fmt(m['value']):>12} {m['unit']}")
    print("\nper-layer, by workload (exact counts; prof.* from the one profiled pass)")
    print(f"  {'metric':<36} {'unit':<8} " + " ".join(f"{n[:12]:>12}" for n in names))
    for metric, unit in metrics.WORKLOAD_LAYER_UNITS.items():
        cells = [sections[n].get("per_layer", {}).get(metric) for n in names]
        print(f"  {metric:<36} {unit:<8} "
              + " ".join(f"{fmt(c['value']) if c else '-':>12}" for c in cells))
    print("\nend to end (median [q1, q3] n; n < 20, so no tail percentile is reported)")
    for n in names:
        s = sections[n]
        print(f"  {n}  digest {str(s['sim_digest'])[:12]}  failed {s['failed']}/{s['attempted']}")
        for metric, m in s.get("end_to_end", {}).items():
            if "median" in m:
                cell = f"{fmt(m['median'])} [{fmt(m['q1'])}, {fmt(m['q3'])}] n={m['n']}"
            else:
                cell = fmt(m["value"])
            print(f"    {metric:<14} {m['unit']:<8} {cell}")
        for problem in s["problems"]:
            print(f"    FAILED: {problem}")


def suite(seed: int, n_reps: int, out_dir: pathlib.Path, smoke: bool) -> int:
    started = time.monotonic()
    load_start = os.getloadavg()[0]
    names = list(workloads.WORKLOADS)
    flags = ("--smoke",) if smoke else ()
    reps: dict[str, list[dict]] = {n: [] for n in names}
    for round_no in range(n_reps + 1):
        for n in names:  # rep k of every workload before rep k+1 of any
            record = run_worker(n, seed, *flags)
            record["warmup"] = round_no == 0
            reps[n].append(record)
            log(f"round {round_no}/{n_reps} {n}: {rep_line(record)}")
    sections = {}
    for n in names:
        reps[n].append(run_worker(n, seed, "--profile", *flags))
        log(f"profiled {n}: {rep_line(reps[n][-1])}")
        sections[n] = summarise(n, seed, smoke, reps[n])
    micro_values = micro.run_all(0.005, 1) if smoke else micro.run_all(0.2, 5)
    result = {
        "benchmark": "host",
        "seed": seed,
        "reps": n_reps,
        "smoke": smoke,
        "workloads": sections,
        "micro": labelled(micro_values, micro.UNITS),
        "environment": environment(load_start),
        "wall_s": time.monotonic() - started,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / "host_bench.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    print_tables(result)
    failed = sum(s["failed"] for s in sections.values())
    attempted = sum(s["attempted"] for s in sections.values())
    print(f"\n{attempted} runs, {failed} failed, {result['wall_s']:.0f} s wall; wrote {out_file}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    ap.add_argument("--reps", type=int, default=DEFAULT_REPS,
                    help="measured reps per workload in a suite run (a warm-up is added)")
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS),
                    help="measure this one workload and print one JSON result")
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload:
        return single_run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    return suite(args.seed, args.reps, args.out, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
