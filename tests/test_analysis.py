"""Analysis-layer tests: metrics, reporting, migration, config, baselines."""

import pytest

from repro.analysis.metrics import speedup, throughput_mbps
from repro.analysis.reporting import format_value, render_series, render_table
from repro.baselines import qemu_config, run_qemu
from repro.core.config import DQEMUConfig
from repro.core.migration import build_child_context
from repro.core.node import NodeRuntime
from repro.core.stats import RunStats
from repro.cost import QEMU_CPI_DISCOUNT
from repro.dbt.cpu import CPUState
from repro.isa import assemble
from repro.kernel.syscalls import CloneRequest
from repro.net import Fabric
from repro.sim import Simulator


class TestMetrics:
    def test_speedup(self):
        assert speedup(200, 100) == 2.0
        with pytest.raises(ValueError):
            speedup(100, 0)

    def test_throughput(self):
        # 1 MB in 1 ms = 1000 MB/s
        assert throughput_mbps(1_000_000, 1_000_000) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            throughput_mbps(1, 0)


class TestReporting:
    def test_table_alignment(self):
        text = render_table(["a", "bbbb"], [[1, 2.5], [333, 4]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_series(self):
        text = render_series("title", [1, 2], {"s1": [1.0, 2.0], "s2": [3.0, 4.0]})
        assert "title" in text
        assert "s1" in text and "s2" in text

    def test_format_value(self):
        assert format_value(1234.5) == "1,234.5"
        assert format_value(12.345) == "12.35"
        assert format_value(0.5) == "0.500"
        assert format_value("x") == "x"
        assert format_value(0.0) == "0"


class TestMigration:
    def test_child_context(self):
        parent = CPUState(pc=0x1000, tid=1, sp=0x7000)
        parent.regs[10] = 99  # a0
        parent.regs[15] = 7
        clone = CloneRequest(flags=0, child_stack=0x9000, ptid=0, tls=0,
                             ctid=0x5000)
        snap = build_child_context(parent.snapshot(), clone, child_tid=5,
                                   hint_group=3)
        child = CPUState.from_snapshot(snap)
        assert child.tid == 5
        assert child.pc == 0x1000
        assert child.regs[10] == 0  # clone returns 0 in the child
        assert child.regs[2] == 0x9000  # sp = child stack
        assert child.regs[15] == 7  # other registers inherited
        assert child.hint_group == 3

    def test_zero_stack_keeps_parent_sp(self):
        parent = CPUState(pc=4, tid=1, sp=0x7000)
        clone = CloneRequest(flags=0, child_stack=0, ptid=0, tls=0, ctid=0)
        child = CPUState.from_snapshot(
            build_child_context(parent.snapshot(), clone, 2, None)
        )
        assert child.regs[2] == 0x7000


class TestConfig:
    def test_with_options_copies(self):
        a = DQEMUConfig()
        b = a.with_options(forwarding_enabled=True)
        assert not a.forwarding_enabled and b.forwarding_enabled

    def test_qemu_discount_only_in_pure_mode(self):
        def engine_cpi(cfg):
            sim = Simulator()
            node = NodeRuntime(sim, Fabric(sim), 0, cfg, RunStats())
            return node.bundle(0).engine.cost.cpi_dbt

        assert engine_cpi(DQEMUConfig()) == 3.0
        assert engine_cpi(DQEMUConfig(pure_qemu=True)) == 3.0 * QEMU_CPI_DISCOUNT


class TestBaselines:
    def test_qemu_config_flags(self):
        cfg = qemu_config()
        assert cfg.pure_qemu
        assert not cfg.forwarding_enabled and not cfg.splitting_enabled

    def test_run_qemu_executes(self):
        prog = assemble("_start:\n li a0, 3\n li a7, 94\n ecall\n")
        r = run_qemu(prog, max_virtual_ms=100)
        assert r.exit_code == 3
        # No network traffic at all in the baseline beyond loopback-free paths.
        assert r.stats.protocol.delegated_syscalls == 0
