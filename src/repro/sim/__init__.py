"""Deterministic discrete-event simulation kernel (virtual nanoseconds)."""

from repro.sim.engine import AllOf, AnyOf, Event, Process, Simulator, Timeout
from repro.sim.sync import LockTable, SimQueue

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "LockTable",
    "Process",
    "SimQueue",
    "Simulator",
    "Timeout",
]
