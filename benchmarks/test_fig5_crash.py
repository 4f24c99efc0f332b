"""Node-crash tolerance experiment (crash / evacuate / checkpoint / drain).

``test_fig5_crash`` regenerates the crash-tolerance table
(``benchmarks/results/services_fig5_crash.txt`` and ``.json``) and asserts
its shape claims: a mid-kernel crash of one slave aborts the run with a
``ServiceTimeout`` when the failure domain is disarmed (the seed behavior),
completes degraded when evacuation is armed (threads whose contexts died
with the node are reaped and reported lost, its directory footprint is
re-homed), completes without casualties under a cooperative drain, and —
across the checkpoint-interval sweep — restores the victim's threads from
their last snapshots, trading checkpoint wire bytes against rollback
distance.
"""

from benchmarks.conftest import regenerate
from repro.analysis.views import breakdown


def test_fig5_crash(benchmark):
    records = regenerate(benchmark, "services_fig5_crash")

    clean = records["no faults"]
    assert clean["completed"]

    # Seed behavior: a dead slave with no failure domain kills the run.
    bare = records["crash (no evacuation)"]
    assert not bare["completed"]
    assert "no reply" in bare["failure"]

    # Evacuation: the run completes degraded.  The victim's threads were
    # mid-kernel (running, contexts on their cores), so they are lost with
    # per-thread attribution; its directory footprint is reclaimed.
    evac = records["crash + evacuation"]
    assert evac["completed"]
    assert evac["failures"]["lost_threads"] > 0
    assert evac["failures"]["rehomed_pages"] > 0
    victim = evac["failures"]["victim"]
    assert victim["detection_ns"] > 0
    assert victim["recovery_ns"] is not None
    # Detection is bounded by one call's retry budget against the corpse.
    cfg = evac["cell"]["config"]
    windows = cfg["rpc_timeout_ns"] * (cfg["rpc_max_retries"] + 1)
    backoffs = sum(
        (cfg["rpc_backoff_base_ns"] << k) + cfg["rpc_backoff_jitter_ns"]
        for k in range(cfg["rpc_max_retries"])
    )
    assert victim["detection_ns"] <= windows + backoffs
    # Losing a node costs wall time but not the run.
    assert evac["virtual_ns"] > clean["virtual_ns"]
    # The detector's verdict sticks: the victim ends the run down.
    assert evac["peers"][str(evac["cell"]["fault"]["node"])] == "down"

    # Cooperative drain: every thread is handed back, nothing is lost.
    drain = records["cooperative drain"]
    assert drain["completed"]
    assert drain["failures"]["evacuated_threads"] > 0
    assert drain["failures"]["lost_threads"] == 0 and drain["failures"]["lost_pages"] == 0
    assert drain["failures"]["victim"]["recovery_ns"] > 0

    # Checkpoint-interval sweep: snapshots turn the same crash's casualties
    # into rollbacks.  Some finite interval achieves zero loss, and the
    # interval trades checkpoint wire bytes against rollback distance.
    sweep = [r for r in records.values() if r.get("checkpoint_interval_ns")]
    assert len(sweep) >= 2
    assert all(r["completed"] for r in sweep)
    assert any(
        r["failures"]["lost_threads"] == 0 and r["failures"]["restored_threads"] > 0
        for r in sweep
    )
    by_interval = sorted(sweep, key=lambda r: r["checkpoint_interval_ns"])
    wire_bytes = [r["protocol"]["checkpoint_bytes"] for r in by_interval]
    assert wire_bytes == sorted(wire_bytes, reverse=True)
    # Every restored thread rolled back a positive span: at most one
    # detection span plus one checkpoint interval (its snapshot was the newest).
    rollbacks = [
        r["failures"]["mean_rollback_ns"] for r in by_interval
        if r["failures"]["mean_rollback_ns"] is not None
    ]
    assert rollbacks and rollbacks[-1] > rollbacks[0]
    assert all(rollback > 0 for rollback in rollbacks)

    # The committed tables carry the failure-domain columns; the restored
    # column appears in the checkpoint run's breakdown.
    evacuated_breakdown = breakdown("crash + evacuation")(list(records.values()))
    checkpoint_breakdown = breakdown("crash + checkpoint (0.02x)")(list(records.values()))
    assert "lost threads" in evacuated_breakdown
    assert "rehomed pages" in evacuated_breakdown
    assert "restored" in checkpoint_breakdown
    assert "checkpoint" in checkpoint_breakdown
    # The default (no-checkpoint) breakdown gains no checkpoint service row.
    assert "checkpoint" not in evacuated_breakdown
