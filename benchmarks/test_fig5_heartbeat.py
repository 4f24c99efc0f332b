"""Active-liveness experiment (lease-based heartbeat failure detection).

``test_fig5_heartbeat`` regenerates the detection-latency/overhead table
(``benchmarks/results/services_fig5_heartbeat.txt`` and ``.json``) and
asserts its shape claims: a quiet victim — a slave that crashes while nobody
has a call outstanding against it — hangs the run when only the passive
RPC-timeout detector is armed, completes degraded within the configured
detection bound once lease-renewal heartbeats are on, and across the
interval sweep detection latency grows with the renewal interval while
renewal wire bytes shrink.  A busy victim with a slack lease is detected by
the RPC retry budget first, so the failure record's evidence reads
``rpc-timeout`` — both detectors merge into the same per-peer health view
instead of racing each other.
"""

from benchmarks.conftest import regenerate
from repro.analysis.views import breakdown
from repro.net.messages import Heartbeat


def test_fig5_heartbeat(benchmark):
    records = regenerate(benchmark, "services_fig5_heartbeat")

    # Heartbeats default off: the clean baseline sends not a single frame.
    clean = records["quiet: no faults"]
    assert clean["completed"]
    assert clean["protocol"]["heartbeats_sent"] == 0

    # The quiet victim is invisible to the passive detector: with no call
    # aimed at the corpse the retry budget never trips and the run starves.
    hung = records["quiet: crash (no heartbeat)"]
    assert not hung["completed"]
    assert "deadlock" in hung["failure"] or "budget" in hung["failure"]

    # Interval sweep: every armed run completes degraded, detection is
    # attributed to the lease and lands within the configured bound.
    sweep = [r for r in records.values() if r["label"].startswith("quiet: crash + hb")]
    assert len(sweep) >= 2
    for r in sweep:
        assert r["completed"]
        assert r["failures"]["victim"]["evidence"] == "lease-expiry"
        assert r["failures"]["lost_threads"] > 0
        assert r["failures"]["lease_detections"] == 1
        detection_ns = r["failures"]["victim"]["detection_ns"]
        assert 0 < detection_ns <= r["heartbeat"]["detection_bound_ns"]
    # The latency/overhead tradeoff: a longer renewal interval detects
    # later but spends fewer wire bytes keeping the lease warm.
    by_interval = sorted(sweep, key=lambda r: r["heartbeat"]["interval_ns"])
    detections = [r["failures"]["victim"]["detection_ns"] for r in by_interval]
    assert detections == sorted(detections)
    hb_bytes = [r["protocol"]["heartbeats_sent"] * Heartbeat().size_bytes() for r in by_interval]
    assert hb_bytes == sorted(hb_bytes, reverse=True)

    # Evidence merging: the busy victim's retry budget exhausts well inside
    # the slack lease, so the passive detector wins the race — same health
    # view, same failure-domain path, different first evidence.
    busy = records["busy: crash + slack hb"]
    assert busy["completed"]
    assert busy["failures"]["victim"]["evidence"] == "rpc-timeout"
    assert busy["protocol"]["heartbeats_sent"] > 0  # heartbeats were armed, just slack

    # The committed breakdown carries both heartbeat service rows; the
    # detector's verdict sticks in the final health view.
    shortest = by_interval[0]
    heartbeat_breakdown = breakdown(shortest["label"])(list(records.values()))
    assert "heartbeat" in heartbeat_breakdown
    assert "node.heartbeat" in heartbeat_breakdown
    victim = str(shortest["cell"]["fault"]["node"])
    assert shortest["peers"][victim] == "down"
    assert all(state == "up" for nid, state in shortest["peers"].items() if nid != victim)
