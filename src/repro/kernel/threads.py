"""Guest thread table (master-side global state).

One :class:`ThreadRecord` is everything the master knows of a guest thread:
which node runs it, whether it has exited, the ``clear_child_tid`` address
used for join (the kernel zeroes it and futex-wakes it on thread exit —
CLONE_CHILD_CLEARTID semantics, which is how pthread_join works on Linux and
in our guest runtime), its park while it sleeps in ``futex_wait`` and
whether a ``SpawnThread`` is still carrying it to its node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import KernelError

__all__ = ["ThreadRecord", "ThreadTable"]

MAIN_TID = 1


@dataclass
class ThreadRecord:
    tid: int
    node: int
    #: None while the thread is alive.
    exit_status: Optional[int] = None
    clear_child_tid: int = 0  # guest address, 0 = unset
    #: The futex word the thread is parked on (FIFO position kept by the
    #: :class:`~repro.kernel.futex.FutexTable`), None while it is not parked.
    futex: Optional[int] = None
    #: The CPU snapshot of a parked thread, as its delegated ``futex_wait``
    #: carried it: held here, not on its node, it makes the thread evacuable
    #: after the node dies.
    context: Optional[dict] = None
    #: Its ``SpawnThread`` is outstanding (``MasterService.land``): the
    #: failure domain's recovery pass leaves it to its landing.
    landing: bool = False


class ThreadTable:
    def __init__(self) -> None:
        self._threads: dict[int, ThreadRecord] = {}
        self._next_tid = MAIN_TID

    def create(self, *, node: int, ctid: int = 0) -> ThreadRecord:
        tid = self._next_tid
        self._next_tid += 1
        rec = ThreadRecord(tid=tid, node=node, clear_child_tid=ctid)
        self._threads[tid] = rec
        return rec

    def get(self, tid: int) -> ThreadRecord:
        try:
            return self._threads[tid]
        except KeyError:
            raise KernelError(f"unknown tid {tid}") from None

    def mark_exited(self, tid: int, status: int) -> ThreadRecord:
        rec = self.get(tid)
        rec.exit_status = status
        return rec

    # -- queries ----------------------------------------------------------------

    def alive(self) -> list[ThreadRecord]:
        return [t for t in self._threads.values() if t.exit_status is None]

    def on_node(self, node: int) -> list[ThreadRecord]:
        return [t for t in self.alive() if t.node == node]
