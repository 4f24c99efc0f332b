"""DQEMUConfig's field table and the loops that read it, and CostModel's rule.

One row per bound, choice set and ``requires`` edge plus the hand-written
rule (``DQEMUConfig.__post_init__``); one row per cost (``CostModel``: every
cost >= 0, clocks, core counts, bandwidth and CPIs > 0); exactly the
communication costs moved by exactly the documented arithmetic
(``CostModel.scaled``), and one flag per scalar field (``repro-run``'s
parser).
"""

from dataclasses import fields, replace

import pytest

from repro import CostModel, DQEMUConfig
from repro.cli import run
from repro.cost import TESTBED
from repro.errors import ConfigError

ARMED = dict(rpc_timeout_ns=10_000, evacuation_enabled=True)

#: (class, kwargs, start of the ConfigError message).
INVALID = [
    # -- costs: one rule, one row per field --
    (CostModel, dict(cores_per_node=0), "cores_per_node must be > 0"),
    (CostModel, dict(cpu_ghz=0), "cpu_ghz must be > 0"),
    (CostModel, dict(node_cores={1: 0}), "node_cores[1] must be > 0"),
    (CostModel, dict(node_ghz={1: 0.0}), "node_ghz[1] must be > 0"),
    (CostModel, dict(bandwidth_bps=0), "bandwidth_bps must be > 0"),
    (CostModel, dict(one_way_latency_ns=-5), "one_way_latency_ns must be >= 0"),
    (CostModel, dict(loopback_latency_ns=-1), "loopback_latency_ns must be >= 0"),
    # A zero CPI never exhausts a quantum, and a CPI is a divisor.
    (CostModel, dict(cpi_dbt=0), "cpi_dbt must be > 0"),
    (CostModel, dict(cpi_dbt=-1.0), "cpi_dbt must be > 0"),  # runs the clock backwards
    (CostModel, dict(cpi_interp=0), "cpi_interp must be > 0"),
    (CostModel, dict(cpi_superblock=0), "cpi_superblock must be > 0"),
    (CostModel, dict(translate_per_insn=-5), "translate_per_insn must be >= 0"),
    # A negative wait used to be accepted here and kill the run later.
    (CostModel, dict(page_fault_trap_cycles=-10), "page_fault_trap_cycles must be >= 0"),
    (CostModel, dict(dsm_service_ns=-1), "dsm_service_ns must be >= 0"),
    (CostModel, dict(dsm_fast_service_ns=-1), "dsm_fast_service_ns must be >= 0"),
    (CostModel, dict(migration_penalty_ns=-1), "migration_penalty_ns must be >= 0"),
    (CostModel, dict(slave_coherence_service_ns=-1), "slave_coherence_service_ns must be >= 0"),
    (CostModel, dict(syscall_service_ns=-3), "syscall_service_ns must be >= 0"),
    (CostModel, dict(forwarding_push_ns=-1), "forwarding_push_ns must be >= 0"),
    (CostModel, dict(split_service_ns=-1), "split_service_ns must be >= 0"),
    (CostModel, dict(merge_service_ns=-1), "merge_service_ns must be >= 0"),
    # A fractional ns entered the clock through Timeout and crashed the run
    # far away (the guest's clock syscall); a count must be whole too.
    (CostModel, dict(dsm_service_ns=320_000.5), "dsm_service_ns must be an integer"),
    (CostModel, dict(one_way_latency_ns=27_400.0), "one_way_latency_ns must be an integer"),
    (CostModel, dict(page_fault_trap_cycles=2e3), "page_fault_trap_cycles must be an integer"),
    (CostModel, dict(cores_per_node=4.0), "cores_per_node must be an integer"),
    (CostModel, dict(node_cores={1: 2.5}), "node_cores[1] must be an integer"),
    (CostModel, dict(merge_service_ns=True), "merge_service_ns must be an integer"),
    # -- bounds --
    (DQEMUConfig, dict(quantum_cycles=0), "quantum_cycles must be >= 1"),
    (DQEMUConfig, dict(superblock_threshold=-1), "superblock_threshold must be >= 0"),
    (DQEMUConfig, dict(migration_trigger=0), "migration_trigger must be >= 1"),
    (DQEMUConfig, dict(adaptive_window=1), "adaptive_window must be >= 2"),
    # A zero window used to push nothing, or cap nothing.
    (DQEMUConfig, dict(forwarding_initial_window=0), "forwarding_initial_window must be >= 1"),
    (DQEMUConfig, dict(forwarding_max_window=0), "forwarding_max_window must be >= 1"),
    (DQEMUConfig, dict(splitting_trigger=0), "splitting_trigger must be >= 1"),
    (DQEMUConfig, dict(master_shards=0), "master_shards must be >= 1"),
    (DQEMUConfig, dict(rpc_timeout_ns=0), "rpc_timeout_ns must be >= 1"),
    (DQEMUConfig, dict(rpc_max_retries=-1), "rpc_max_retries must be >= 0"),
    (DQEMUConfig, dict(rpc_backoff_base_ns=-1), "rpc_backoff_base_ns must be >= 0"),
    (DQEMUConfig, dict(rpc_backoff_jitter_ns=-1), "rpc_backoff_jitter_ns must be >= 0"),
    (DQEMUConfig, dict(heartbeat_interval_ns=0, **ARMED), "heartbeat_interval_ns must be >= 1"),
    (DQEMUConfig, dict(max_concurrent_jobs=0), "max_concurrent_jobs must be >= 1"),
    (DQEMUConfig, dict(admission_queue_depth=-1), "admission_queue_depth must be >= 0"),
    # -- choice sets --
    (DQEMUConfig, dict(mode="jit"), "unknown mode 'jit'"),
    (DQEMUConfig, dict(scheduler="best-fit"), "unknown scheduler 'best-fit'"),
    (DQEMUConfig, dict(coherence_protocol="mosi"), "unknown coherence_protocol 'mosi'"),
    # -- requires edges: timeout -> retries / evacuation -> the rest --
    (DQEMUConfig, dict(rpc_max_retries=1), "rpc_max_retries needs rpc_timeout_ns"),
    (DQEMUConfig, dict(evacuation_enabled=True), "evacuation_enabled needs rpc_timeout_ns"),
    (DQEMUConfig, dict(heartbeat_interval_ns=1_000, rpc_timeout_ns=10_000),
     "heartbeat_interval_ns needs evacuation_enabled"),
    # -- the hand-written rule --
    (DQEMUConfig, dict(fault_plan="drop everything"), "fault_plan must be"),
]

RULE_WORDING = {"min": "{} must be >= ", "choices": "unknown {} ", "requires": "{} needs "}

#: The modelled communication costs; everything else is either CPU-side
#: (scales with guest work) or a duration the user chose.
SCALED = {
    "bandwidth_bps", "one_way_latency_ns", "loopback_latency_ns", "dsm_service_ns",
    "dsm_fast_service_ns", "migration_penalty_ns", "slave_coherence_service_ns",
    "syscall_service_ns", "forwarding_push_ns", "split_service_ns", "merge_service_ns",
}

#: Fields with no command-line spelling (the cost model, a FaultPlan).
UNFLAGGED = {"cost", "fault_plan"}


@pytest.mark.parametrize("cls, kwargs, message", INVALID, ids=[m for *_, m in INVALID])
def test_invalid_config_is_rejected_with_its_reason(cls, kwargs, message):
    with pytest.raises(ConfigError) as err:
        cls(**kwargs)
    assert str(err.value).startswith(message)


def test_every_tabled_rule_has_a_row():
    messages = [message for _, _, message in INVALID]
    for f in fields(DQEMUConfig):
        for rule, wording in RULE_WORDING.items():
            if rule in f.metadata:
                start = wording.format(f.name)
                assert any(m.startswith(start) for m in messages), (f.name, rule)
    for f in fields(CostModel):
        assert any(m.startswith((f"{f.name} must be", f"{f.name}[")) for m in messages), f.name


def test_the_whole_dependency_chain_armed_is_valid():
    cfg = DQEMUConfig(rpc_max_retries=2, heartbeat_interval_ns=1_000, **ARMED)
    assert cfg.heartbeat_lease_ns == 4_000


def test_every_config_shares_the_one_testbed():
    assert DQEMUConfig().cost is DQEMUConfig(mode="interp").cost is TESTBED
    assert TESTBED == CostModel()


@pytest.mark.parametrize("k", [0.5, 10.0, 1000.0, 1e9])
def test_time_scaled_moves_exactly_the_scaled_fields(k):
    # A zero cost stays zero; it used to become 1 ns.
    cost = CostModel(migration_penalty_ns=0, node_cores={1: 2}, node_ghz={1: 1.0})
    scaled = cost.scaled(k)
    for f in fields(CostModel):
        before, after = getattr(cost, f.name), getattr(scaled, f.name)
        if f.name == "bandwidth_bps":
            assert after == before * k
        elif f.name in SCALED:
            assert after == (max(1, int(before / k)) if before else 0), f.name
        else:
            assert after == before, f.name
    assert scaled.migration_penalty_ns == 0
    # A duration the user chose means what it says at any scale.
    cfg = DQEMUConfig(
        rpc_max_retries=2, rpc_backoff_base_ns=7_000, heartbeat_interval_ns=3,
        coherence_protocol="migrate", **ARMED,
    )
    assert cfg.time_scaled(k) == replace(cfg, cost=cfg.cost.scaled(k))
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
        forwarding_enabled=True, splitting_enabled=True, fusion_enabled=True,
    )
    argv = [
        "--rpc-timeout-ns", "50000000", "--rpc-max-retries", "4", "--evacuation",
        "--heartbeat-interval-ns", "500000", "--master-shards", "2",
        "--coherence-protocol", "adaptive",
        "--forwarding", "--splitting", "--fusion",
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
