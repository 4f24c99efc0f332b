"""Synchronization primitives for simulation processes.

These are *simulation-level* primitives used by the DQEMU infrastructure
(manager threads, NIC queues, per-page directory locks) — they are distinct
from the *guest-level* futex/LL-SC machinery, which is part of the system
under study.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["SimLock", "SimSemaphore", "SimQueue", "Gate"]


class SimLock:
    """FIFO mutex for simulation processes.

    Usage (the grant is yielded the moment it is asked for)::

        yield lock.acquire()
        try: ...
        finally: lock.release()

    An uncontended grant is ``sim.granted``, an event already processed:
    it allocates nothing, and the acquirer goes on in place when nothing
    else is due now, else it takes the hop a late subscription takes
    (:meth:`~repro.sim.engine.Process._resume`) — from the FIFO's tail,
    where an immediate grant event would have waited.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        if not self._locked:
            self._locked = True
            return self.sim.granted
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if not self._locked:
            raise SimulationError("release of unlocked SimLock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False

    def held(self) -> Generator[Event, Any, "SimLock"]:
        """Convenience coroutine: ``lock = yield from lock.held()``."""
        yield self.acquire()
        return self


class SimSemaphore:
    """Counting semaphore with FIFO wakeup order."""

    def __init__(self, sim: Simulator, value: int = 0):
        if value < 0:
            raise SimulationError("semaphore value must be >= 0")
        self.sim = sim
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        ev = Event(self.sim)
        if self._value > 0:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self, n: int = 1) -> None:
        for _ in range(n):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._value += 1


class SimQueue:
    """Unbounded FIFO channel between simulation processes.

    ``put`` is immediate; ``get`` returns an event that fires with the next
    item.  Used for NIC receive queues and manager-thread mailboxes.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (diagnostics only)."""
        return list(self._items)


class Gate:
    """A repeatable broadcast condition.

    ``wait()`` returns an event that fires at the next ``open()``; every
    waiter registered before the open is released at once.  Used for
    "thread state changed" notifications.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def open(self, value: Any = None) -> int:
        """Release all current waiters; returns how many were released."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)
