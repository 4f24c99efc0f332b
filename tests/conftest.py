"""Shared test helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.dbt import CPUState, ExecutionEngine, StopKind
from repro.isa import assemble
from repro.mem import STACK_TOP, FlatMemory

# `pytest --hypothesis-profile=ci` widens every property test that leaves its
# example count to the profile (the FP bit-exactness differential does).
settings.register_profile("ci", max_examples=2000, derandomize=True, deadline=None)


def run_to_ecall(source: str, *, mode: str = "dbt", regs: dict | None = None,
                 max_quanta: int = 10_000):
    """Assemble and run a program until the first ecall; returns (cpu, mem, engine).

    The ecall is treated as program end — full syscall handling lives in the
    kernel layer and has its own tests.
    """
    prog = assemble(source)
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=STACK_TOP - 64)
    engine = ExecutionEngine(mem, mode=mode)
    for _ in range(max_quanta):
        stop = engine.run_quantum(cpu, 1_000_000)
        if stop.kind is StopKind.SYSCALL:
            return cpu, mem, engine
        if stop.kind is not StopKind.QUANTUM:
            raise AssertionError(f"unexpected stop: {stop.kind} ({stop.info})")
    raise AssertionError("program did not reach ecall")


@pytest.fixture
def run():
    return run_to_ecall
