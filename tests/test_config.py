"""DQEMUConfig's field table and the three loops that read it.

One row per bound, choice set and ``requires`` edge plus the three
hand-written rules (``__post_init__``), exactly the ``scaled`` fields moved
by exactly the documented arithmetic (``time_scaled``), and one flag per
scalar field (``repro-run``'s parser).
"""

from dataclasses import fields

import pytest

from repro import DQEMUConfig
from repro.cli import run
from repro.errors import ConfigError

ARMED = dict(rpc_timeout_ns=10_000, evacuation_enabled=True)

#: (kwargs, start of the ConfigError message).
INVALID = [
    # -- bounds --
    (dict(cores_per_node=0), "cores_per_node must be >= 1"),
    (dict(cpu_ghz=0), "cpu_ghz must be > 0"),
    (dict(bandwidth_bps=0), "bandwidth_bps must be > 0"),
    (dict(cpi_dbt=0), "cpi_dbt must be > 0"),  # never exhausts a quantum; a divisor
    (dict(cpi_dbt=-1.0), "cpi_dbt must be > 0"),  # runs the clock backwards
    (dict(cpi_interp=0), "cpi_interp must be > 0"),
    (dict(translate_per_insn=-5), "translate_per_insn must be >= 0"),
    (dict(quantum_cycles=0), "quantum_cycles must be >= 1"),
    (dict(superblock_threshold=-1), "superblock_threshold must be >= 0"),
    (dict(migration_trigger=0), "migration_trigger must be >= 1"),
    (dict(migration_penalty_ns=-1), "migration_penalty_ns must be >= 0"),
    (dict(adaptive_window=1), "adaptive_window must be >= 2"),
    (dict(forwarding_trigger=0), "forwarding_trigger must be >= 1"),
    (dict(splitting_trigger=0), "splitting_trigger must be >= 1"),
    (dict(master_shards=0), "master_shards must be >= 1"),
    (dict(rpc_timeout_ns=0), "rpc_timeout_ns must be >= 1"),
    (dict(rpc_max_retries=-1), "rpc_max_retries must be >= 0"),
    (dict(rpc_backoff_base_ns=-1), "rpc_backoff_base_ns must be >= 0"),
    (dict(rpc_backoff_jitter_ns=-1), "rpc_backoff_jitter_ns must be >= 0"),
    (dict(health_suspect_after=0), "health_suspect_after must be >= 1"),
    (dict(checkpoint_interval_ns=0, **ARMED), "checkpoint_interval_ns must be >= 1"),
    (dict(checkpoint_service_ns=-1), "checkpoint_service_ns must be >= 0"),
    (dict(heartbeat_interval_ns=0, **ARMED), "heartbeat_interval_ns must be >= 1"),
    (dict(max_concurrent_jobs=0), "max_concurrent_jobs must be >= 1"),
    (dict(admission_queue_depth=-1), "admission_queue_depth must be >= 0"),
    # -- choice sets --
    (dict(mode="jit"), "unknown mode 'jit'"),
    (dict(scheduler="best-fit"), "unknown scheduler 'best-fit'"),
    (dict(coherence_protocol="mosi"), "unknown coherence_protocol 'mosi'"),
    # -- requires edges: timeout -> retries / evacuation -> the rest --
    (dict(rpc_max_retries=1), "rpc_max_retries needs rpc_timeout_ns"),
    (dict(evacuation_enabled=True), "evacuation_enabled needs rpc_timeout_ns"),
    (dict(checkpoint_interval_ns=10_000, rpc_timeout_ns=10_000),
     "checkpoint_interval_ns needs evacuation_enabled"),
    (dict(heartbeat_interval_ns=1_000, rpc_timeout_ns=10_000),
     "heartbeat_interval_ns needs evacuation_enabled"),
    # -- the hand-written rules --
    (dict(health_suspect_after=3, health_down_after=3), "health_down_after must exceed"),
    (dict(fault_plan="drop everything"), "fault_plan must be"),
    (dict(node_cores={1: 0}), "node 1: cores must be >= 1"),
    (dict(node_ghz={1: 0.0}), "node 1: clock must be positive"),
]

RULE_WORDING = {
    "min": "{} must be >= ", "above": "{} must be > ",
    "choices": "unknown {} ", "requires": "{} needs ",
}

#: The modelled communication quantities; everything else is either CPU-side
#: (scales with guest work) or a duration the user chose.
SCALED = {
    "bandwidth_bps", "one_way_latency_ns", "loopback_latency_ns", "dsm_service_ns",
    "dsm_fast_service_ns", "migration_penalty_ns", "slave_coherence_service_ns",
    "syscall_service_ns", "checkpoint_service_ns", "forwarding_push_ns", "split_service_ns",
    "merge_service_ns",
}

#: Fields with no command-line spelling (dict-valued, or a FaultPlan).
UNFLAGGED = {"node_cores", "node_ghz", "fault_plan"}


@pytest.mark.parametrize("kwargs, message", INVALID, ids=[m for _, m in INVALID])
def test_invalid_config_is_rejected_with_its_reason(kwargs, message):
    with pytest.raises(ConfigError) as err:
        DQEMUConfig(**kwargs)
    assert str(err.value).startswith(message)


def test_every_tabled_rule_has_a_row():
    messages = [message for _, message in INVALID]
    for f in fields(DQEMUConfig):
        for rule, wording in RULE_WORDING.items():
            if rule in f.metadata:
                start = wording.format(f.name)
                assert any(m.startswith(start) for m in messages), (f.name, rule)


def test_the_whole_dependency_chain_armed_is_valid():
    cfg = DQEMUConfig(
        rpc_max_retries=2, health_suspect_after=3, health_down_after=9,
        checkpoint_interval_ns=10_000, heartbeat_interval_ns=1_000, **ARMED,
    )
    assert (cfg.health_suspect_after, cfg.health_down_after) == (3, 9)
    assert cfg.heartbeat_lease_ns == 4_000


@pytest.mark.parametrize("k", [0.5, 10.0, 1000.0, 1e9])
def test_time_scaled_moves_exactly_the_scaled_fields(k):
    assert {f.name for f in fields(DQEMUConfig) if "scaled" in f.metadata} == SCALED
    cfg = DQEMUConfig(
        rpc_max_retries=2, checkpoint_interval_ns=7_000, heartbeat_interval_ns=3,
        coherence_protocol="migrate", **ARMED,
    )
    scaled = cfg.time_scaled(k)
    for f in fields(DQEMUConfig):
        before, after = getattr(cfg, f.name), getattr(scaled, f.name)
        if f.name == "bandwidth_bps":
            assert after == before * k
        elif f.name in SCALED:
            assert after == max(1, int(before / k)), f.name
        else:
            assert after == before, f.name
    with pytest.raises(ConfigError, match="scale factor"):
        cfg.time_scaled(0)


def test_every_scalar_field_has_exactly_one_flag():
    names = {f.name for f in fields(DQEMUConfig)}
    dests = [a.dest for a in run.build_parser()._actions if a.dest in names]
    assert sorted(dests) == sorted(names - UNFLAGGED)
    with pytest.raises(SystemExit):
        run.build_parser().parse_args(["prog.s", "--coherence-protocol", "mosi"])


HELLO = """
_start:
    li a0, 0
    li a7, 94
    ecall
"""


def test_flags_build_the_config_they_name(tmp_path, monkeypatch):
    # The armed stack the CLI could not express while its flags were restated
    # by hand (no --rpc-max-retries), plus the historic short spellings.
    armed = dict(
        rpc_timeout_ns=50_000_000, rpc_max_retries=4, evacuation_enabled=True,
        heartbeat_interval_ns=500_000, master_shards=2, coherence_protocol="adaptive",
        cores_per_node=2, forwarding_enabled=True, splitting_enabled=True, fusion_enabled=True,
    )
    argv = [
        "--rpc-timeout-ns", "50000000", "--rpc-max-retries", "4", "--evacuation",
        "--heartbeat-interval-ns", "500000", "--master-shards", "2",
        "--coherence-protocol", "adaptive",
        "--cores", "2", "--forwarding", "--splitting", "--fusion",
    ]
    built = []

    def spy(n_slaves, config, **kw):
        built.append(config)
        return real_cluster(n_slaves, config, **kw)

    real_cluster = run.Cluster
    monkeypatch.setattr(run, "Cluster", spy)
    prog = tmp_path / "hello.s"
    prog.write_text(HELLO)
    assert run.main([str(prog), "--slaves", "2", *argv]) == 0
    assert built == [DQEMUConfig(**armed)]
    assert run.main([str(prog), "--qemu"]) == 0
    assert built[1] == DQEMUConfig(pure_qemu=True)
