"""Distributed futex table (paper §4.4).

Linux keeps a per-address wait queue for futexes; DQEMU emulates that with a
futex table on the master so threads on any node can sleep on and wake guest
addresses.  The table itself is pure bookkeeping: the *value check* of
FUTEX_WAIT (compare the word at uaddr against the expected value) is done by
the syscall executor, which can read guest memory through the coherence
protocol.  Every admitted job gets its own table (built into its own
``SystemState``), so identical uaddrs in different guests can never wake
each other — isolation is structural, not filtered.
"""

from __future__ import annotations

from itertools import islice

from repro.kernel.threads import ThreadRecord

__all__ = ["FutexTable"]


class FutexTable:
    """uaddr → the thread records parked on it, in FIFO order.

    The table keeps only the wait order; what is parked where, with which
    context, is on the records themselves (``ThreadRecord.futex`` and
    ``context``), so each operation is one lookup.
    """

    def __init__(self) -> None:
        self._queues: dict[int, dict[int, ThreadRecord]] = {}

    def enqueue(self, rec: ThreadRecord, uaddr: int) -> None:
        """Park ``rec`` at the tail of ``uaddr``'s queue."""
        rec.futex = uaddr
        self._queues.setdefault(uaddr, {})[rec.tid] = rec

    def wake(self, uaddr: int, count: int) -> list[ThreadRecord]:
        """Un-park up to ``count`` records in FIFO order."""
        queue = self._queues.get(uaddr)
        if not queue:
            return []
        woken = list(islice(queue.values(), max(count, 0)))
        for rec in woken:
            del queue[rec.tid]
            rec.futex = rec.context = None
        if not queue:
            del self._queues[uaddr]
        return woken

    def remove(self, rec: ThreadRecord) -> bool:
        """Un-park ``rec`` without a wake (thread killed or moved while
        waiting); the rest of its queue keeps its order."""
        queue = self._queues.get(rec.futex)
        if queue is None or queue.pop(rec.tid, None) is None:
            return False
        if not queue:
            del self._queues[rec.futex]
        rec.futex = rec.context = None
        return True

    def waiters(self, uaddr: int) -> tuple[ThreadRecord, ...]:
        return tuple(self._queues.get(uaddr, {}).values())

    @property
    def n_sleeping(self) -> int:
        return sum(len(q) for q in self._queues.values())
