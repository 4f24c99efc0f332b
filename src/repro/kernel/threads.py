"""Guest thread table (master-side global state).

Tracks every guest thread in the cluster: which node runs it, its lifecycle
state, and the ``clear_child_tid`` address used for join (the kernel zeroes
it and futex-wakes it on thread exit — CLONE_CHILD_CLEARTID semantics, which
is how pthread_join works on Linux and in our guest runtime).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import KernelError

__all__ = ["ThreadState", "ThreadRecord", "ThreadTable"]

MAIN_TID = 1


class ThreadState(enum.Enum):
    RUNNING = "running"
    BLOCKED = "blocked"  # parked in futex_wait
    EXITED = "exited"


@dataclass
class ThreadRecord:
    tid: int
    node: int
    parent_tid: int
    state: ThreadState = ThreadState.RUNNING
    exit_status: Optional[int] = None
    clear_child_tid: int = 0  # guest address, 0 = unset
    hint_group: Optional[int] = None  # group at creation time (§5.3)


class ThreadTable:
    def __init__(self) -> None:
        self._threads: dict[int, ThreadRecord] = {}
        self._next_tid = MAIN_TID

    def create(self, *, node: int, parent_tid: int, ctid: int = 0,
               hint_group: Optional[int] = None) -> ThreadRecord:
        tid = self._next_tid
        self._next_tid += 1
        rec = ThreadRecord(tid=tid, node=node, parent_tid=parent_tid,
                           clear_child_tid=ctid, hint_group=hint_group)
        self._threads[tid] = rec
        return rec

    def get(self, tid: int) -> ThreadRecord:
        try:
            return self._threads[tid]
        except KeyError:
            raise KernelError(f"unknown tid {tid}") from None

    def set_state(self, tid: int, state: ThreadState) -> None:
        self.get(tid).state = state

    def mark_exited(self, tid: int, status: int) -> ThreadRecord:
        rec = self.get(tid)
        rec.state = ThreadState.EXITED
        rec.exit_status = status
        return rec

    def set_clear_child_tid(self, tid: int, addr: int) -> None:
        self.get(tid).clear_child_tid = addr

    def move(self, tid: int, node: int) -> None:
        self.get(tid).node = node

    # -- queries ----------------------------------------------------------------

    def alive(self) -> list[ThreadRecord]:
        return [t for t in self._threads.values() if t.state is not ThreadState.EXITED]

    def on_node(self, node: int) -> list[ThreadRecord]:
        return [t for t in self.alive() if t.node == node]

    def __len__(self) -> int:
        return len(self._threads)

    def __contains__(self, tid: int) -> bool:
        return tid in self._threads
