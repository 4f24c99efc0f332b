"""CI perf guard: exact counts off one profiled pass must not creep up.

``prof.py_calls_per_kinsn`` (benchmarks/host/README.md, per-layer metrics (C))
is a count read off one profiled pass and repeats exactly on any machine, so
it can gate where a timing cannot: a change that puts a call back on the
translated-code hot path — a resident access leaving the generated function,
a per-block bookkeeping frame in the dispatch loop — moves it by hundreds.
``prof.dbt.blocks_compiled`` on ``cold_start`` is the same kind of number for
translation: 255 distinct blocks are compiled once each for the whole process
(``repro.dbt.memo``); translating per node and per job again makes it 2050.

``fault_storm`` is the row for host work per *message* rather than per guest
instruction: ``prof.sim.events`` counts kernel events (``Simulator.step``), so
a closure, a property or an idle event put back on the fault path moves it or
``prof.py_calls_per_kinsn`` by thousands.  ``prof.net.transmits`` and
``prof.core.dispatches`` are asserted *equal* there: a change to either means
a frame or a dispatch was added or lost, not saved.

Each ceiling is the value measured by the PR that last lowered it, plus 5 %.
Lower a ceiling when a PR lowers the count; raise one only with a reason.
"""

import json
import subprocess
import sys

CALLS = "prof.py_calls_per_kinsn"
#: workload -> metric -> ceiling (PR 17 measured 830.0, 703.4 and 1964.3;
#: PR 18 measured 2071.0 and 255 on cold_start, 2736 and 2050 before it;
#: PR 19 measured 17432.7 and 85904 on fault_storm, 23781.0 and 113493
#: before it, and 1835.4 on cold_start).
CEILINGS = {
    "mem_read_walk": {CALLS: 871.5},
    "mem_rmw_walk": {CALLS: 738.6},
    "fp_compute": {CALLS: 2062.5},
    "cold_start": {CALLS: 1927.2, "prof.dbt.blocks_compiled": 268},
    "fault_storm": {CALLS: 18304.3, "prof.sim.events": 90199},
}
#: workload -> metric -> the exact value it must keep.
EQUALITIES = {
    "fault_storm": {"prof.net.transmits": 20905, "prof.core.dispatches": 27933},
}


def measure(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "benchmarks/host/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "6", "--trace", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        sys.exit(f"{workload}: benchmark run failed: {result['failed']}/{result['attempted']}")
    return result["metrics"]


def main() -> int:
    bad = 0
    for workload, ceilings in CEILINGS.items():
        metrics = measure(workload)
        for metric, ceiling in ceilings.items():
            value = metrics[metric]["value"]
            verdict = "ok" if value <= ceiling else "OVER"
            print(f"{workload:<16} {metric:<26} {value:8.1f}  ceiling {ceiling:8.1f}  {verdict}")
            bad += value > ceiling
        for metric, exact in EQUALITIES.get(workload, {}).items():
            value = metrics[metric]["value"]
            verdict = "ok" if value == exact else "MOVED"
            print(f"{workload:<16} {metric:<26} {value:8.1f}  exactly {exact:8.1f}  {verdict}")
            bad += value != exact
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
