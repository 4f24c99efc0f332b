"""One rep of one workload, in a process of its own.

``python -m benchmarks.host.worker <workload> --seed S`` — launched by
``run.py``, one at a time.  A fresh process per rep means every rep pays the
same cold code cache and allocator state, ``ru_maxrss`` is the rep's own, and
set-up (interpreter start, ``import repro``, first build, first ``Cluster``)
is measured on every rep.  Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import struct
import sys
import time

from repro import Cluster

from benchmarks.host import layers, workloads


def _digest(named_results) -> str:
    """sha256 over the simulated statistics of every job, in job-name order
    so ``cold_start``'s shuffle does not move it.  A change meant only to
    speed up the emulator must leave this identical."""
    h = hashlib.sha256()
    for name, r in sorted(named_results, key=lambda nr: nr[0]):
        h.update(repr((
            name, r.virtual_ns, r.stats.insns_executed, r.stats.insns_translated,
            r.stats.protocol.page_requests, r.fabric.messages_sent, r.fabric.bytes_sent,
            r.exit_code, r.stdout,
        )).encode())
    return h.hexdigest()


def _counts(results) -> dict[str, float]:
    """Exact per-workload counts from the ``RunResult``s, summed over jobs."""
    def total(get):
        return sum(get(r) for r in results)

    insns = total(lambda r: r.stats.insns_executed)
    lookups = total(lambda r: r.stats.dbt.lookups)
    follows = total(lambda r: r.stats.dbt.chain_follows)
    coherence_wait_ns = total(
        lambda r: r.stats.services["coherence"].queue_wait_ns
        if "coherence" in r.stats.services else 0
    )
    return {
        "dbt.translated_insns": total(lambda r: r.stats.insns_translated),
        "dbt.lookups_per_kinsn": lookups / (insns / 1000),
        "dbt.chain_follow_share": follows / (lookups + follows),
        "dbt.superblocks_formed": total(lambda r: r.stats.dbt.superblocks_formed),
        "dbt.fusion_hits": total(lambda r: r.stats.dbt.total_fusion_hits),
        "core.page_requests": total(lambda r: r.stats.protocol.page_requests),
        "core.delegated_syscalls": total(lambda r: r.stats.protocol.delegated_syscalls),
        "core.futex_waits": total(lambda r: r.stats.protocol.futex_waits),
        "core.coherence_queue_wait_virt_us": coherence_wait_ns / 1e3,
        "net.messages_sent": total(lambda r: r.fabric.messages_sent),
        "net.bytes_sent": total(lambda r: r.fabric.bytes_sent),
        "net.heartbeats_sent": total(lambda r: r.stats.protocol.heartbeats_sent),
        "net.retransmits": total(lambda r: r.rpc.retransmits),
    }


def _problems(jobs, results, expected) -> list[str]:
    """Why this rep counts as failed (empty: it does not)."""
    found = []
    for job, r in zip(jobs, results):
        if r.exit_code != 0:
            found.append(f"{job.name}: exit code {r.exit_code}")
        if not job.verify(r.stdout, expected[job.name]):
            found.append(f"{job.name}: guest stdout {r.stdout[-80:]!r} != oracle "
                         f"{expected[job.name]!r} ({job.check})")
        # Silent-corruption guard: these workloads are fault-free, so a
        # recorded node failure or a retransmit means the emulator hurt itself.
        if r.failures is not None and r.failures.nodes:
            found.append(f"{job.name}: node failures {r.failures.describe()}")
        if r.rpc.retransmits:
            found.append(f"{job.name}: {r.rpc.retransmits} retransmits on a fault-free run")
    return found


CALIBRATION_PASSES = 9
#: ``host_cal_s`` is ``host_s`` scaled to a machine that runs one calibration
#: pass in this time — the 2-core sandbox's usual pace, so the two read alike
#: when the machine is in its usual mood.
CALIBRATION_REFERENCE_S = 0.011
#: ``cold_start`` is many short runs, so the pace is sampled between them too.
JOBS_PER_CALIBRATION = 11
_PACK_Q = struct.Struct("<q").pack
_UNPACK_D = struct.Struct("<d").unpack


class _Cell:
    __slots__ = ("acc",)

    def __init__(self) -> None:
        self.acc = 0

    def step(self, i: int) -> int:
        self.acc = (self.acc + i) & 0xFFFF
        return self.acc


def calibration_pass_s() -> float:
    """Seconds per pass of a fixed pure-Python loop: how fast this machine is
    running interpreter-shaped work *right now*.

    The sandbox's speed swings by tens of percent in phases lasting from
    milliseconds to minutes, and the emulator's wall time swings with it.
    Timing this loop immediately before and after every timed stretch lets
    ``host_cal_s`` divide the machine's mood out (README.md "Noise").  The
    loop does what an emulator written in Python does — method calls, dict
    and list traffic, bytearray slices, int/bytes and struct conversions —
    because a bare arithmetic loop tracked the emulator's slow-downs only
    half as well.  It shares no code with ``src/`` and is part of the
    metric's definition: changing it changes what every calibrated number
    means.
    """
    cell = _Cell()
    table = {i: i for i in range(4096)}
    page = bytearray(65536)
    floats = [0.0] * 512
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_PASSES):
        for i in range(12_000):
            k = cell.step(i) & 4095
            table[k] = table.get(k, 0) + 1
            off = (k * 16) & 0xFFF0
            word = int.from_bytes(page[off:off + 8], "little")
            page[off:off + 8] = ((word + i) & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little")
            floats[i & 511] = _UNPACK_D(_PACK_Q(i))[0]
    return (time.perf_counter() - t0) / CALIBRATION_PASSES


def measure(jobs, first_program, cold: bool, profiler):
    """Run every job; returns ``(results, host_s, host_cal_s)``.

    ``cold`` builds each job's program inside the timed region; otherwise the
    one job runs the program that set-up already built.  The profiler, when
    given, sees the timed stretches only, never the calibration loop.
    """
    results = []
    host_s = host_cal_s = 0.0
    pace = calibration_pass_s()
    for start in range(0, len(jobs), JOBS_PER_CALIBRATION):
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        for job in jobs[start:start + JOBS_PER_CALIBRATION]:
            program = job.build() if cold else first_program
            results.append(Cluster(job.n_slaves, job.config).run(program))
        if profiler is not None:
            profiler.disable()
        spent = time.perf_counter() - t0
        before, pace = pace, calibration_pass_s()
        host_s += spent
        host_cal_s += spent * CALIBRATION_REFERENCE_S / ((before + pace) / 2)
    return results, host_s, host_cal_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="the parent's time.monotonic() just before it spawned this process")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop once ready to emulate")
    ap.add_argument("--profile", action="store_true", help="run the timed region under cProfile")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    jobs = workloads.plan(args.workload, args.seed, args.smoke)
    program = jobs[0].build()
    Cluster(jobs[0].n_slaves, jobs[0].config)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp compares.
    setup_s = None if args.spawned_at is None else time.monotonic() - args.spawned_at
    out: dict = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    expected = workloads.expected_outputs(args.workload, args.seed, jobs, args.smoke)
    profiler = cProfile.Profile() if args.profile else None
    gc.collect()  # GC stays enabled, as users run; only the starting heap is levelled
    results, host_s, host_cal_s = measure(jobs, program, workload.cold, profiler)

    insns = sum(r.stats.insns_executed for r in results)
    out.update(
        host_s=host_s,
        host_cal_s=host_cal_s,
        insns=insns,
        virt_ns=sum(r.virtual_ns for r in results),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        digest=_digest(zip((j.name for j in jobs), results)),
        counts=_counts(results),
        problems=_problems(jobs, results, expected),
    )
    if profiler is not None:
        out["profile"] = layers.fold(profiler, insns)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
