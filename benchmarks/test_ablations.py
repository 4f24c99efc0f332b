"""Ablation benchmarks for DQEMU's design choices (beyond the paper's own
evaluation — these quantify the §4/§5 design decisions DESIGN.md calls out).
"""

from benchmarks.conftest import regenerate
from repro.analysis.views import bandwidth_mbps
from repro.workloads import mutex_bench


def test_ablation_forwarding_window(benchmark):
    records = regenerate(benchmark, "ablation_forwarding_window")
    mbps = [bandwidth_mbps(r) for r in records.values()]
    # Forwarding off is worst; bandwidth grows monotonically-ish with the cap.
    assert mbps[0] == min(mbps)
    assert max(mbps) > 4 * mbps[0]


def test_ablation_splitting_trigger(benchmark):
    records = regenerate(benchmark, "ablation_splitting_trigger")
    mbps = [bandwidth_mbps(r) for r in records.values()]
    splits = [r["protocol"]["splits"] for r in records.values()]
    # Reachable triggers split and beat the never-split configuration.
    assert splits[0] >= 1
    assert splits[1] >= 1  # the paper's trigger=10 fires too
    assert splits[-1] == 0
    assert mbps[0] > 1.5 * mbps[-1]
    assert mbps[1] > 1.5 * mbps[-1]


def test_ablation_quantum(benchmark):
    records = regenerate(benchmark, "ablation_quantum")
    times = [mutex_bench.elapsed_ns(r["stdout"]) for r in records.values()]
    # Coarse quanta batch whole critical-section bursts per page hold, so the
    # contended lock finishes sooner but with less interleaving fidelity; the
    # sweep must at least show a consistent, strong effect of the knob.
    assert max(times) > 1.5 * min(times)


def test_ablation_dsm_service(benchmark):
    records = regenerate(benchmark, "ablation_dsm_service")
    lat = [r["fault_latency_us"] for r in records.values()]
    # Fault latency tracks the master's protocol software cost ~affinely —
    # the paper's point that the 410 us >> 40 us wire bound is software.
    assert lat[0] < lat[-1]
    assert lat[-1] - lat[0] > 400  # ~ (640-40)us of added service, visible
