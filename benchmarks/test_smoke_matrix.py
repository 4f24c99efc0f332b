"""The CI smoke matrix: 22 sub-second cells across the fault, crash, liveness,
tenant, DBT and coherence dimensions, all through ``run_cell``.

Every cell is a registry cell (``repro.analysis.experiments``) — taken as is,
or shrunk / re-aimed with ``dataclasses.replace`` — so the matrix exercises
the same declarations the committed tables come from.  None of these tests
use the benchmark fixture, so the main benchmarks job (``--benchmark-only``)
skips them and the ``smoke-matrix`` CI job runs exactly this file.
"""

from dataclasses import replace

import pytest

from repro.analysis.experiments import EXPERIMENTS, MAX_CONCURRENT_JOBS
from repro.analysis.runner import Fault, run_cell


def _cells(experiment):
    return {cell.label: cell for cell in EXPERIMENTS[experiment].cells}


PARTITION = _cells("services_fig5_partition")
HEARTBEAT = _cells("services_fig5_heartbeat")
TENANTS = _cells("fig9_multitenant")
DBT = _cells("dbt_hotpath")
COHERENCE = _cells("fig6_coherence")


def _completed(cell, ref=None):
    record = run_cell(cell, ref)
    assert record["completed"], record["failure"]
    assert not any(record["exit_codes"])
    return record


@pytest.fixture(scope="module")
def busy_clean():
    return _completed(HEARTBEAT["busy: no faults"])


@pytest.fixture(scope="module")
def quiet_clean():
    return _completed(HEARTBEAT["quiet: no faults"])


@pytest.mark.parametrize("every,seed", [(90, 1), (45, 2), (30, 7)])
def test_seeded_loss_is_ridden_out(every, seed):
    record = _completed(replace(
        PARTITION["drop 1/120"],
        params=dict(n_threads=4, n_options=2040, reps=4),
        fault=Fault("drop", every_nth=every, seed=seed),
    ))
    assert record["faults"]["dropped"] > 0
    # Every dropped frame belonged to a retried call (or its reply), so the
    # run rode out all of them.
    assert record["rpc"]["retransmits"] > 0
    assert record["rpc"]["recoveries"] > 0


@pytest.mark.parametrize("heartbeat", [False, True])
@pytest.mark.parametrize("victim", [1, 2, 3])
def test_busy_victim_crash_is_recovered(busy_clean, victim, heartbeat):
    fracs = {}
    if heartbeat:
        # A slack lease: the busy victim's RPC retry budget must still win
        # the detection race (heartbeats are a backstop here).
        fracs["heartbeat_interval_ns"] = 0.2
    record = _completed(
        replace(
            HEARTBEAT["busy: crash + slack hb"],
            fault=Fault("crash", node=victim, at_frac=0.35, seed=victim),
            ref_fracs=fracs, services=True,
        ),
        busy_clean,
    )
    failed = record["failures"]["victim"]
    assert failed["kind"] == "crash"
    assert failed["recovered_ns"] is not None
    # Everything the victim held is accounted for: evacuated or lost.
    assert len(failed["evacuated"]) + len(failed["lost"]) > 0
    if heartbeat:
        # Both detectors were armed; on a chatty victim the passive one
        # fires first, and the merged health view records that.
        assert failed["evidence"] == "rpc-timeout"
        assert record["protocol"]["heartbeats_sent"] > 0
    else:
        assert record["protocol"]["heartbeats_sent"] == 0


def test_clone_onto_a_corpse_runs_once(busy_clean):
    # Node 2 is dead from the start and the placer is health-blind, so clones
    # keep being placed on it: each spawn fails over to a live node, and the
    # recovery pass reaps none of them as lost.
    cell = HEARTBEAT["busy: crash + slack hb"]
    record = _completed(
        replace(
            cell, label="clone onto a corpse",
            config={**cell.config, "health_aware_placement": False},
            fault=Fault("crash", node=2, at_frac=0.0), ref_fracs={},
        ),
        busy_clean,
    )
    assert record["stdout"] == busy_clean["stdout"]
    assert record["failures"]["lost_threads"] == 0
    assert record["protocol"]["spawn_failovers"] > 0


def test_quiet_victim_hangs_without_heartbeats(quiet_clean):
    # Passive-only detection: the quiet victim's crash is never seen and the
    # join deadlocks (the pre-heartbeat behavior).
    record = run_cell(HEARTBEAT["quiet: crash (no heartbeat)"], quiet_clean)
    assert not record["completed"]
    assert "deadlocked" in record["failure"]


def test_quiet_victim_is_detected_by_lease_expiry(quiet_clean):
    record = _completed(HEARTBEAT["quiet: crash + hb (0.02x)"], quiet_clean)
    failed = record["failures"]["victim"]
    assert failed["kind"] == "crash"
    assert failed["evidence"] == "lease-expiry"
    assert 0 < failed["detection_ns"] <= record["heartbeat"]["detection_bound_ns"]
    assert record["protocol"]["heartbeats_sent"] > 0
    assert record["failures"]["lease_detections"] == 1


@pytest.mark.parametrize("tenants", [1, 3, 6])
def test_mixed_job_stream_is_admitted(tenants):
    # At 6 jobs retire while others run and more wait to be admitted.
    record = _completed(TENANTS[f"{tenants} tenants"])
    assert len(record["exit_codes"]) == tenants
    assert record["goodput_mips"] > 0
    if tenants <= MAX_CONCURRENT_JOBS:
        assert record["queued_jobs"] == 0
    else:
        assert record["queued_jobs"] > 0


@pytest.mark.parametrize("config", ["baseline", "hotpath"])
def test_superblocks_form_only_when_armed(config):
    cell = replace(DBT[f"x264/{config}"], params=dict(n_frames=4, group_size=2, pages_per_frame=1))
    record = _completed(cell)
    if cell.config.get("superblock_threshold"):
        assert record["dbt"]["superblocks_formed"] > 0
    else:
        assert record["dbt"]["superblocks_formed"] == 0


@pytest.mark.parametrize("protocol", ["msi", "mesi", "adaptive"])
def test_each_protocol_serves_the_rmw_sweep(protocol):
    record = _completed(replace(
        COHERENCE[f"single-writer/{protocol}"],
        params=dict(n_threads=4, n_nodes=4, pages_per_thread=4, passes=2),
    ))
    p = record["protocol"]
    if protocol == "msi":
        assert p["exclusive_grants"] == 0 and p["silent_upgrades"] == 0
    else:
        assert p["exclusive_grants"] > 0
        assert p["silent_upgrades"] > 0
