"""Synchronization primitives for simulation processes.

These are *simulation-level* primitives used by the DQEMU infrastructure
(manager threads, NIC queues, the master's page locks) — they are distinct
from the *guest-level* futex/LL-SC machinery, which is part of the system
under study.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Hashable

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["LockTable", "SimQueue"]


class LockTable:
    """FIFO mutexes keyed by any hashable, holding only what is held.

    Usage (the grant is yielded the moment it is asked for)::

        yield locks.acquire(page)
        try: ...
        finally: locks.release(page)

    A key is in the table only while it is held, its waiters a tuple that
    is the shared ``()`` while nobody waits, so a run keeps one entry per
    lock in use, not a lock per key ever locked.  An uncontended grant is
    ``sim.granted``, an event already processed: it allocates nothing, and
    the acquirer goes on in place when nothing else is due now, else it
    takes the hop a late subscription takes
    (:meth:`~repro.sim.engine.Process._resume`) — from the FIFO's tail,
    where an immediate grant event would have waited.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: key -> its waiters' grant events, oldest first, for every key held.
        self._held: dict[Hashable, tuple[Event, ...]] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._held

    def __len__(self) -> int:
        return len(self._held)

    def acquire(self, key: Hashable) -> Event:
        waiters = self._held.get(key)
        if waiters is None:
            self._held[key] = ()
            return self.sim.granted
        ev = Event(self.sim)
        self._held[key] = waiters + (ev,)
        return ev

    def release(self, key: Hashable) -> None:
        waiters = self._held.pop(key, None)
        if waiters is None:
            raise SimulationError(f"release of unheld lock {key!r}")
        if waiters:  # hand the lock to the oldest waiter
            self._held[key] = waiters[1:]
            waiters[0].succeed()


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
