"""Fig. 6 — mutex performance (worst case: global lock; best case: private).

Paper: 32 threads.  Worst case (5 000 acquire/release on one global lock):
best outcome at ONE slave node (5.2 s), degrading as nodes are added (up to
25.6 s at 6) — far above single-node QEMU (0.48 s).  Best case (private
locks, 500 000 ops): identical to QEMU on one node and improving with more
nodes as CPU contention drops (4.0 s → 1.2 s; QEMU 3.4 s).
"""

from benchmarks.conftest import regenerate
from repro.analysis.views import group
from repro.workloads import mutex_bench


def test_fig6_mutex(benchmark):
    records = regenerate(benchmark, "fig6_mutex")
    elapsed = lambda r: mutex_bench.elapsed_ns(r["stdout"])
    worst = [elapsed(r) for r in group(records.values(), "DQEMU-1 (global lock)")]
    best = [elapsed(r) for r in group(records.values(), "DQEMU-2 (private lock)")]
    qemu_worst, qemu_best = elapsed(records["QEMU-1"]), elapsed(records["QEMU-2"])

    # Worst case: one slave node is the best multi-node configuration, and
    # adding nodes makes the global lock substantially more expensive.
    assert worst[0] == min(worst)
    assert max(worst) > 1.8 * worst[0]
    # Worst case is an order of magnitude above the QEMU baseline
    # (paper: 5.2 s vs 0.48 s ~ 11x; we accept >= 5x).
    assert worst[0] > 5 * qemu_worst
    # Best case: more nodes = more cores = faster (paper: 4.0 -> 1.2 s).
    assert best[-1] < best[0] / 2
    # Best case at one node is in the same ballpark as QEMU (paper 4.0 vs 3.4).
    assert best[0] < 2 * qemu_best
    # Worst case dwarfs best case at every node count.
    assert all(w > 5 * b for w, b in zip(worst, best))
