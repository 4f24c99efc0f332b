"""DQEMU reproduction: a scalable distributed dynamic binary translator.

This package reimplements the system of *DQEMU: A Scalable Emulator with
Retargetable DBT on Distributed Platforms* (Zhao et al., ICPP 2020) on a
deterministic discrete-event cluster simulator, together with every
substrate the paper depends on: a guest RISC ISA and assembler, a QEMU-like
DBT engine, a page-level directory-based DSM, a delegated syscall kernel,
and the paper's three optimizations (page splitting, data forwarding,
hint-based locality-aware scheduling).

Quickstart::

    from repro import Cluster, DQEMUConfig, assemble

    program = assemble('''
    _start:
        la a1, msg
        li a0, 1          # stdout
        li a2, 14
        li a7, 64         # write
        ecall
        li a0, 0
        li a7, 94         # exit_group
        ecall
    .data
    msg: .asciz "hello cluster\\n"
    ''')
    result = Cluster(n_slaves=2).run(program)
    assert result.stdout == "hello cluster\\n"
"""

from repro.core.cluster import Cluster, RunResult
from repro.core.config import DQEMUConfig
from repro.core.jobs import Job, JobState
from repro.cost import CostModel
from repro.errors import AdmissionError
from repro.isa import AsmBuilder, Program, assemble
from repro.net.faults import FaultPlan, FaultRule
from repro.net.rpc import RpcTimeout as ServiceTimeout

__version__ = "1.0.0"

__all__ = [
    "AdmissionError",
    "AsmBuilder",
    "Cluster",
    "CostModel",
    "DQEMUConfig",
    "FaultPlan",
    "FaultRule",
    "Job",
    "JobState",
    "Program",
    "RunResult",
    "ServiceTimeout",
    "assemble",
    "__version__",
]
