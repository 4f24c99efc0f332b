"""QEMU-like DBT engine: frontend → TCG IR → generated host code + code cache."""

from repro.dbt.backend import Backend, TranslationBlock
from repro.dbt.codecache import CacheStats, CodeCache
from repro.dbt.cpu import CPUState
from repro.dbt.engine import ExecutionEngine
from repro.dbt.frontend import BlockIR, Frontend
from repro.dbt.interp import Interpreter
from repro.dbt.stop import RC_BREAK, RC_NEXT, RC_SYSCALL, StopEvent, StopKind

__all__ = [
    "Backend",
    "BlockIR",
    "CPUState",
    "CacheStats",
    "CodeCache",
    "ExecutionEngine",
    "Frontend",
    "Interpreter",
    "RC_BREAK",
    "RC_NEXT",
    "RC_SYSCALL",
    "StopEvent",
    "StopKind",
    "TranslationBlock",
]
