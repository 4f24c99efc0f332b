"""CI perf guard: exact counts off one profiled pass must not creep up.

``prof.py_calls_per_kinsn`` (benchmarks/host/README.md, per-layer metrics (C))
is a count read off one profiled pass and repeats exactly on any machine, so
it can gate where a timing cannot: a change that puts a call back on the
translated-code hot path — a resident access leaving the generated function,
a per-block bookkeeping frame in the dispatch loop — moves it by hundreds.
``prof.dbt.blocks_compiled`` on ``cold_start`` is the same kind of number for
translation: 255 distinct blocks are compiled once each for the whole process
(``repro.dbt.memo``); translating per node and per job again makes it 2050.

``full_stack_pipeline`` is the only row that runs the armed paths — its
superblocks loop in place and bill their fused groups per complete entry —
and two of its counts are asserted *equal*: ``prof.sim.events`` moves when a
change to the engine's allowance rule adds or loses a quantum (every quantum
is a kernel event), ``prof.dbt.blocks_compiled`` when promotion fires on a
different entry and grows a different trace.

``fault_storm`` is the row for host work per *message* rather than per guest
instruction: ``prof.sim.events`` counts calls of ``Simulator.step``, so a
closure, a property or an idle event put back on the fault path moves
``prof.py_calls_per_kinsn`` by thousands.  Its ``prof.sim.events``,
``prof.net.transmits``, ``prof.core.dispatches`` and ``prof.dbt.quanta`` are
asserted *equal*: a change to one means an event, a frame, a dispatch or a
quantum was added or lost, not saved — the kernel processes an entry without
a ``step()`` of its own (a hand-off, a process going on in place) exactly
when that entry is the very next one in ``(time, seq)`` order, so which call
processes an entry follows from the entries and the rule alone, never from
timing (docs/SIMULATION.md "Event kernel").

``MEMO_BYTES_PER_ENTRY`` is the memory twin of the translation counts: the
bytes ``repro.dbt.memo`` holds per entry after ``cold_start``'s 22 jobs (seed
0, 255 entries), traced in-process with ``tracemalloc`` — what a memo entry
frees when the memo is cleared.  An entry keeps the compiled function and the
words it was made from; keeping a by-product of translation again (the
block's IR, its source text) moves it by kilobytes, and giving a template the
empty chain, back-link and edge containers only a block an engine runs needs
moves it by 344 bytes.  Allocation sizes depend on the Python version; the
ceiling is for the 3.11 CI runs.

Every measurement runs in a child process that reads no bytecode cache: its
``PYTHONPYCACHEPREFIX`` is a fresh, empty directory and it writes no
bytecode, so each module is compiled from source.  Whether ``__pycache__``
directories exist in the checkout (they moved the memo bytes by ~28 per
entry) then changes no number here.

Each ceiling is the value measured by the PR that last lowered it, plus 5 %.
Lower a ceiling when a PR lowers the count; raise one only with a reason.
"""

import gc
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[2]

CALLS = "prof.py_calls_per_kinsn"
#: workload -> metric -> ceiling (PR 18 measured 255 blocks on cold_start,
#: 2050 before it; PR 21 measured the calls: 21.3, 163.2, 1033.8, 1358.6,
#: 15602.9 and 550.6 in table order, against 22.9, 166.9, 1036.6, 1419.8,
#: 17223.0 and 577.7 before it; the table-driven assembler measured 1089.5 on
#: cold_start, against 1356.6 before it; attributing timeouts where they fire
#: and refusing dead senders at dispatch measured 15172.4 on fault_storm and
#: 538.9 on full_stack_pipeline, against 15458.1 and 544.5 before it; inline
#: FP conversions and back-edge liveness measured 367.6 on fp_compute and
#: 1060.8 on cold_start, against 1033.1 and 1076.9 before them; sharing one
#: buffer per page version measured 20.4, 162.1, 367.6, 1059.9, 15032.6 and
#: 538.0 in table order, against 20.9, 162.3, 367.6, 1060.8, 15172.4 and 538.9
#: before it; one shared cost model instead of a timing record per engine
#: measured 15032.5 on fault_storm, against 15032.6 before it; hand-offs,
#: frames and sleeps as heap entries and a page stall returned from
#: generated code measured 17.3, 155.5, 362.8, 944.8, 11742.3 and 472.2 in
#: table order,
#: against 20.4, 162.1, 367.6, 1059.9, 15032.5 and 538.0 before them; keeping
#: only the bookkeeping a frame can still read (page locks while held, one
#: object per distinct sharer set, tombstones and served ids only where frames
#: can repeat) measured 17.2, 155.1, 362.4, 936.4, 11449.2 and 472.2, against
#: 17.3, 155.5, 362.8, 944.8, 11742.3 and 472.2 before it; a memo entry that
#: keeps no IR or source, with a superblock's members lowered again from their
#: words on a miss, measured 17.2, 155.2, 362.5, 940.2, 11451.5 and 473.9,
#: against 17.2, 155.2, 362.5, 940.6, 11450.5 and 472.6 before it; integers
#: kept in host locals until observed, loops counted with ``for`` and the
#: emitter's invariants asserted at translation time measured 17.4, 155.7,
#: 362.7, 944.7, 11461.4 and 475.7, against 17.2, 155.2, 362.5, 940.0, 11451.5
#: and 473.9 before them: translation-time calls, since a trip makes none; one
#: directory transaction per coherence exit path, written by one ``apply``,
#: measured 17.3, 155.7, 362.7, 945.9, 11451.5 and 476.1, against 17.4,
#: 155.7, 362.7, 944.7, 11461.4 and 475.7 before it; at-most-once delivery
#: asked of the RPC channel (one call per armed dispatch) and the view-binding
#: assertion at translation time measured 17.4, 155.7, 362.7, 946.5, 11452.7
#: and 477.1; FP results stored as floats, kept out of the register file across
#: the back edge, measured 17.4, 155.8, 196.9, 945.6, 11453.2 and 477.1,
#: against 17.4, 155.7, 362.7, 946.5, 11452.7 and 477.1 before it; one master
#: record per guest thread, its park held on it, measured 17.4, 155.7, 196.9,
#: 944.5, 11452.5 and 476.1; a resident loop that tests each page once per call
#: and books its in-place entries in closed form measured 17.9, 40.6, 114.3,
#: 896.9, 11453.2 and 476.8, against 17.4, 155.7, 196.9, 944.5, 11452.5 and
#: 476.1 before it: a store trip no longer calls ``S.get``, and a long replay
#: makes four calls where it made none).
CEILINGS = {
    "mem_read_walk": {CALLS: 18.1},
    "mem_rmw_walk": {CALLS: 42.6},
    "fp_compute": {CALLS: 120.0},
    "cold_start": {CALLS: 941.7, "prof.dbt.blocks_compiled": 268},
    "fault_storm": {CALLS: 12021.7},
    "full_stack_pipeline": {CALLS: 495.8},
}
#: Ceiling on the memo's traced bytes per entry after ``cold_start``'s jobs
#: (dropping the retained IR and source text measured 3,352.3, against 9,534.0
#: before it; templates without execution containers measured 3,017.4; FP
#: results stored as floats measured 3,021.2, against 3,018.2 before it).
MEMO_BYTES_PER_ENTRY = 3168
#: workload -> metric -> the exact value it must keep.
EQUALITIES = {
    "fault_storm": {
        "prof.sim.events": 51199, "prof.net.transmits": 20905,
        "prof.core.dispatches": 27933, "prof.dbt.quanta": 8350,
    },
    "full_stack_pipeline": {"prof.sim.events": 24948, "prof.dbt.blocks_compiled": 67},
}


def run_child(args: list[str]) -> str:
    """Run ``python args...`` from the repository root with no bytecode
    cache to read or write; returns its stdout."""
    with tempfile.TemporaryDirectory(prefix="pycache-") as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env,
            check=True, capture_output=True, text=True,
        ).stdout


def measure(workload: str) -> dict:
    out = run_child(
        ["benchmarks/host/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "6", "--trace", "1"]
    )
    result = json.loads(out.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        sys.exit(f"{workload}: benchmark run failed: {result['failed']}/{result['attempted']}")
    return result["metrics"]


def memo_bytes_per_entry() -> float:
    """Traced bytes the translation memo frees per entry when it is cleared
    after ``cold_start``'s jobs (seed 0), each built and run in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.host import workloads
    from repro import Cluster
    from repro.dbt import memo

    tracemalloc.start()
    try:
        for job in workloads.plan("cold_start", 0):
            Cluster(job.n_slaves, job.config).run(job.build())
        gc.collect()
        entries = len(memo._translations)
        held = tracemalloc.get_traced_memory()[0]
        memo.clear()
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / entries
    finally:
        tracemalloc.stop()


def main() -> int:
    bad = 0
    value = float(run_child([str(pathlib.Path(__file__).resolve()), "--memo-bytes"]))
    verdict = "ok" if value <= MEMO_BYTES_PER_ENTRY else "OVER"
    print(f"{'cold_start':<16} {'memo bytes per entry':<26} {value:8.1f}  "
          f"ceiling {MEMO_BYTES_PER_ENTRY:8.1f}  {verdict}")
    bad += value > MEMO_BYTES_PER_ENTRY
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
    if sys.argv[1:] == ["--memo-bytes"]:
        print(memo_bytes_per_entry())
        sys.exit(0)
    sys.exit(main())
