"""The experiment runner: cells as data, records as JSON, tables from JSON.

Fast checks only — the full sweeps live in ``benchmarks/``.  The cells run
here are the heartbeat experiment's (sub-second each).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.analysis.experiments import EXPERIMENTS, render
from repro.analysis.runner import Cell, Fault, build_config, run_cell
from repro.core.config import DQEMUConfig

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
HEARTBEAT = {cell.label: cell for cell in EXPERIMENTS["services_fig5_heartbeat"].cells}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_committed_table_is_rendered_from_committed_json(name):
    records = json.loads((RESULTS / f"{name}.json").read_text())
    assert render(name, records) + "\n" == (RESULTS / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_committed_records_describe_the_registered_cells(name):
    records = json.loads((RESULTS / f"{name}.json").read_text())
    assert tuple(Cell.from_json(r["cell"]) for r in records) == EXPERIMENTS[name].cells


def test_cells_round_trip_through_json():
    for cell in (c for e in EXPERIMENTS.values() for c in e.cells):
        copy = Cell.from_json(json.loads(json.dumps(dataclasses.asdict(cell))))
        assert copy == cell and hash(copy) == hash(cell)


class TestFailuresAreRecords:
    @pytest.fixture(scope="class")
    def clean(self):
        return run_cell(HEARTBEAT["busy: no faults"])

    def test_crash_without_evacuation_reports_the_service_timeout(self, clean):
        armed = HEARTBEAT["busy: crash + slack hb"]
        config = {k: v for k, v in armed.config.items() if k.startswith("rpc_")}
        record = run_cell(dataclasses.replace(armed, config=config, ref_fracs={}), clean)
        assert record["completed"] is False
        assert "no reply" in record["failure"] and "retransmits" in record["failure"]
        assert "virtual_ns" not in record
        json.dumps(record)

    def test_quiet_victim_reports_the_deadlock(self):
        quiet_clean = run_cell(HEARTBEAT["quiet: no faults"])
        record = run_cell(HEARTBEAT["quiet: crash (no heartbeat)"], quiet_clean)
        assert record["completed"] is False
        assert "deadlocked" in record["failure"]

    def test_a_completed_record_is_json_and_keeps_its_cell(self, clean):
        assert clean["completed"] and clean["failure"] == ""
        stored = json.loads(json.dumps(clean))
        assert stored["virtual_ns"] == clean["virtual_ns"] > 0
        assert Cell.from_json(stored["cell"]) == HEARTBEAT["busy: no faults"]
        assert "services" not in clean  # only breakdown cells carry them


class TestReferenceFractions:
    REF = {"virtual_ns": 1_000_001}

    def test_fault_time_is_a_fraction_of_the_reference_run(self):
        cell = Cell("c", fault=Fault("crash", node=2, at_frac=0.35, seed=5), ref="clean",
                    config=dict(rpc_timeout_ns=20_000))
        plan = build_config(cell, self.REF).fault_plan
        assert plan.crashes == ((2, int(0.35 * 1_000_001)),)
        assert plan.seed == 5

    def test_partition_window_opens_at_the_fraction(self):
        fault = Fault("partition", node=1, at_frac=0.5, window_ns=700)
        rule = fault.plan(self.REF).rules[0]
        assert (rule.after_ns, rule.until_ns) == (500_000, 500_700)

    def test_reference_fractions_are_applied_after_time_scaling(self):
        cell = Cell(
            "c", comm_scale=100.0, ref="clean",
            config=dict(rpc_timeout_ns=20_000, evacuation_enabled=True),
            ref_fracs=dict(heartbeat_interval_ns=0.01, rpc_backoff_base_ns=0.1),
        )
        cfg = build_config(cell, self.REF)
        # Post-scale: 1% of the reference run, not 1% / 100.
        assert cfg.heartbeat_interval_ns == 10_000
        assert cfg.rpc_backoff_base_ns == 100_000
        # ...while the fabric constants did scale.
        assert cfg.cost.one_way_latency_ns == DQEMUConfig().cost.one_way_latency_ns // 100

    def test_baseline_cells_run_the_single_node_qemu_model(self):
        cfg = build_config(Cell("q", baseline=True, config=dict(forwarding_enabled=True)))
        assert cfg.pure_qemu and not cfg.forwarding_enabled
