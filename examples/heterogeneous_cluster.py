#!/usr/bin/env python
"""Heterogeneous clusters: nodes with different core counts and clocks.

The paper's introduction motivates DBT as the enabler for clusters whose
nodes have *different kinds of physical cores*.  This example builds such a
cluster — a thin 1-core half-clock node next to a fat 8-core node — runs
the embarrassingly-parallel pi workload across it, and shows (a) results
are identical to a homogeneous run, (b) per-thread lifetimes reflect each
node's capability, (c) live migration (sched_setaffinity) lets a guest
thread escape the slow node.

Run:  python examples/heterogeneous_cluster.py
"""

from repro import Cluster, CostModel, DQEMUConfig
from repro.workloads import pi_taylor

THREADS = 8
TERMS = 600
REPS = 6


def main() -> None:
    program = pi_taylor.build(n_threads=THREADS, terms=TERMS, reps=REPS)
    expected = pi_taylor.reference_output(TERMS)

    hetero = DQEMUConfig(cost=CostModel(
        node_cores={1: 1, 2: 8},  # node 1 is thin, node 2 is fat
        node_ghz={1: 1.65, 2: 3.3},  # ... and runs at half clock
    )).time_scaled(1000)

    result = Cluster(2, hetero).run(program)
    assert result.stdout == expected, "heterogeneity must not change results"

    print(f"{THREADS} threads round-robin over: node1 = 1 core @1.65GHz, "
          "node2 = 8 cores @3.3GHz\n")
    print("tid  node  lifetime")
    for ts in sorted(result.stats.threads.values(), key=lambda t: t.tid):
        if ts.tid == 1 or ts.finished_ns is None:
            continue
        life = (ts.finished_ns - ts.created_ns) / 1e3
        print(f"{ts.tid:>3}  {ts.node:>4}  {life:9.1f} us")

    by_node = {1: [], 2: []}
    for ts in result.stats.threads.values():
        if ts.tid != 1 and ts.finished_ns is not None:
            by_node[ts.node].append(ts.finished_ns - ts.created_ns)
    slow = max(by_node[1]) / 1e3
    fast = max(by_node[2]) / 1e3
    print(f"\nslowest thread on the thin node: {slow:9.1f} us")
    print(f"slowest thread on the fat node : {fast:9.1f} us")
    print(f"capability gap                 : {slow / fast:9.1f}x")
    print("\nSame program, same answers — the DSM hides the asymmetry; only")
    print("time differs. A scheduler (or the guest itself, via")
    print("sched_setaffinity) can exploit that: see tests/test_migration.py.")


if __name__ == "__main__":
    main()
