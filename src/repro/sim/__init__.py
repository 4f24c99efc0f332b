"""Deterministic discrete-event simulation kernel (virtual nanoseconds)."""

from repro.sim.engine import AllOf, AnyOf, Event, Process, Simulator, Timeout
from repro.sim.sync import Gate, LockTable, SimLock, SimQueue, SimSemaphore

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Gate",
    "LockTable",
    "Process",
    "SimLock",
    "SimQueue",
    "SimSemaphore",
    "Simulator",
    "Timeout",
]
