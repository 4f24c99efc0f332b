"""Node-crash tolerance experiment (crash / evacuate / drain).

``test_fig5_crash`` regenerates the crash-tolerance table
(``benchmarks/results/services_fig5_crash.txt`` and ``.json``) and asserts
its shape claims: a mid-kernel crash of one slave aborts the run with a
``ServiceTimeout`` when the failure domain is disarmed (the seed behavior),
completes degraded when evacuation is armed (threads whose contexts died
with the node are reaped and reported lost, its directory footprint is
re-homed), and completes without casualties under a cooperative drain.
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

    # The committed tables carry the failure-domain columns.
    evacuated_breakdown = breakdown("crash + evacuation")(list(records.values()))
    assert "lost threads" in evacuated_breakdown
    assert "rehomed pages" in evacuated_breakdown
    # There is no checkpoint service, so the breakdown has no such row.
    assert "checkpoint" not in evacuated_breakdown
