"""CI perf guard: Python calls per 1000 guest instructions must not creep up.

``prof.py_calls_per_kinsn`` (benchmarks/host/README.md, per-layer metrics (C))
is a count read off one profiled pass and repeats exactly on any machine, so
it can gate where a timing cannot: a change that puts a call back on the
translated-code hot path — a resident access leaving the generated function,
a per-block bookkeeping frame in the dispatch loop — moves it by hundreds.

Each ceiling is the value measured by the PR that last lowered it, plus 5 %.
Lower a ceiling when a PR lowers the count; raise one only with a reason.
"""

import json
import subprocess
import sys

#: workload -> ceiling (PR 17 measured 830.0, 703.4 and 1964.3).
CEILINGS = {"mem_read_walk": 871.5, "mem_rmw_walk": 738.6, "fp_compute": 2062.5}
METRIC = "prof.py_calls_per_kinsn"


def measure(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, "benchmarks/host/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "6", "--trace", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        sys.exit(f"{workload}: benchmark run failed: {result['failed']}/{result['attempted']}")
    return result["metrics"][METRIC]["value"]


def main() -> int:
    over = 0
    for workload, ceiling in CEILINGS.items():
        value = measure(workload)
        verdict = "ok" if value <= ceiling else "OVER"
        print(f"{workload:<16} {METRIC} {value:8.1f}  ceiling {ceiling:8.1f}  {verdict}")
        over += value > ceiling
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
