"""Fig. 7 — PARSEC blackscholes & swaptions speedups with ablation series.

Paper: both programs scale with node count (blackscholes near-linear, to
~4-5x at 6 nodes); data forwarding improves blackscholes 15.7-22.7 %
(avg 17.98 %); page splitting improves swaptions 6.1-14.7 %; vanilla QEMU
sits at a flat 1.26 relative to one-slave DQEMU.
"""

from benchmarks.conftest import regenerate
from repro.analysis.metrics import speedup
from repro.analysis.views import group


def _speedups(records, name):
    base = records["origin/1"]["virtual_ns"]
    return [speedup(base, r["virtual_ns"]) for r in group(records.values(), name)]


def test_fig7_blackscholes(benchmark):
    records = regenerate(benchmark, "fig7_blackscholes")
    origin = _speedups(records, "origin")
    fwd = _speedups(records, "forwarding")
    # Scales with node count (monotone non-decreasing, clearly > 1 at the top).
    assert origin[-1] >= 1.8
    assert origin[-1] >= origin[0]
    # Forwarding helps the data-intensive regular access pattern (paper:
    # 15.7-22.7 %; at our compute-heavier scale we require a consistent,
    # smaller gain: never a regression, >= 2 % on average).
    gains = [f / o for f, o in zip(fwd, origin)]
    assert all(g > 0.995 for g in gains)
    assert sum(gains) / len(gains) > 1.02
    # QEMU line is flat and modest (paper: 1.26).
    assert 1.0 <= _speedups(records, "qemu-4.2.0")[0] <= 1.6


def test_fig7_swaptions(benchmark):
    records = regenerate(benchmark, "fig7_swaptions")
    origin = _speedups(records, "origin")
    both = _speedups(records, "forwarding+splitting")
    # Little data, little sharing: clear multi-node scaling (the origin
    # series dips at high node counts where result-page ping-pong bites —
    # which is precisely what splitting repairs).
    assert max(origin) >= 1.9
    assert both[-1] >= 2.0
    # Page splitting improves the result-array false sharing at multi-node
    # counts (paper: 6.1-14.7 %).
    gains = [b / o for b, o in zip(both[1:], origin[1:])]
    assert max(gains) > 1.04
    assert 1.0 <= _speedups(records, "qemu-4.2.0")[0] <= 1.3
