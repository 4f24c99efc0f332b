"""Guest-thread runtime object (node-side)."""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.stats import ThreadStats
from repro.dbt.cpu import CPUState

__all__ = ["GuestThreadState", "GuestThread"]


class GuestThreadState(enum.Enum):
    READY = "ready"  # in the node run queue
    RUNNING = "running"  # on a core (or in a fault/syscall handler)
    BLOCKED = "blocked"  # parked in futex_wait
    EXITED = "exited"


class GuestThread:
    """A guest thread as a DQEMU node sees it: vCPU context + accounting."""

    __slots__ = (
        "cpu", "stats", "state", "enqueued_at", "blocked_at", "tenant", "last_checkpoint_ns",
    )

    def __init__(self, cpu: CPUState, stats: ThreadStats, tenant: int = 0):
        self.cpu = cpu
        self.stats = stats
        self.state = GuestThreadState.READY
        self.enqueued_at: int = 0
        self.blocked_at: Optional[int] = None
        self.tenant = tenant
        #: Virtual time of the last checkpoint shipped for this thread
        #: (set to arrival time on spawn, so the first snapshot waits a
        #: full checkpoint_interval_ns).
        self.last_checkpoint_ns: int = 0

    @property
    def tid(self) -> int:
        return self.cpu.tid

    def __repr__(self) -> str:
        return (
            f"GuestThread(tid={self.tid}, tenant={self.tenant}, "
            f"state={self.state.value}, pc={self.cpu.pc:#x})"
        )
