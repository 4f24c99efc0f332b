"""Compare two suite results: ``python -m benchmarks.host.compare A.json B.json``.

One row per (workload, timed end-to-end metric): both medians with quartiles
and n, the ratio B/A (its base is A's median), the bound, and a verdict:

* ``ok``         B is no worse than A by more than the bound;
* ``worse``      it is;
* ``unresolved`` either side's inter-quartile distance is wider than the
  bound, so the two medians cannot be told apart at that resolution.  The
  answer to ``unresolved`` is more reps, never a wider bound.

Simulated statistics are not measurements and get no tolerance: ``virt_ms``,
the sim digest and every exact count must be equal.  Exits non-zero unless
every row is ``ok`` and every exact value matches.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from benchmarks.host import metrics


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    ratio = b["median"] / a["median"]
    if any((m["q3"] - m["q1"]) / m["median"] > bound for m in (a, b)):
        return ratio, "unresolved"
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    return ratio, "worse" if worse_by > bound else "ok"


def cell(m: dict) -> str:
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] n={m['n']}"


def compare(a: dict, b: dict) -> int:
    bad = 0
    print(f"{'workload':<20} {'metric':<15} {'A median [q1, q3] n':<34} "
          f"{'B median [q1, q3] n':<34} {'B/A':>6} {'bound':>6}  verdict")
    for name, sa in a["workloads"].items():
        sb = b["workloads"].get(name)
        if sb is None or "end_to_end" not in sa or "end_to_end" not in sb:
            print(f"{name:<20} missing or unmeasured on one side")
            bad += 1
            continue
        for metric in metrics.TIMED:
            _unit, better, bound = metrics.END_TO_END[metric]
            ma, mb = sa["end_to_end"][metric], sb["end_to_end"][metric]
            ratio, word = verdict(ma, mb, better, bound)
            bad += word != "ok"
            print(f"{name:<20} {metric:<15} {cell(ma):<34} {cell(mb):<34} "
                  f"{ratio:>6.3f} {bound:>6.0%}  {word}")
        exact = {"sim_digest": (sa["sim_digest"], sb["sim_digest"])}
        for metric in ("virt_ms", "failed_share"):
            exact[metric] = (sa["end_to_end"][metric]["value"], sb["end_to_end"][metric]["value"])
        for metric in metrics.COUNT_UNITS:
            exact[metric] = (sa["per_layer"][metric]["value"], sb["per_layer"][metric]["value"])
        differing = {m: pair for m, pair in exact.items() if pair[0] != pair[1]}
        bad += len(differing)
        for metric, (va, vb) in differing.items():
            print(f"{name:<20} {metric}: A {va} != B {vb}  (must be equal)")
        if not differing:
            print(f"{name:<20} virt_ms, sim digest, failed_share and {len(metrics.COUNT_UNITS)} "
                  "exact counts: equal")
    print("every row ok" if not bad else f"{bad} rows not ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=pathlib.Path)
    ap.add_argument("b", type=pathlib.Path)
    args = ap.parse_args(argv)
    return compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))


if __name__ == "__main__":
    sys.exit(main())
