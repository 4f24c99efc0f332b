"""Job admission and lifecycle for the multi-tenant cluster.

A long-lived :class:`~repro.core.cluster.Cluster` no longer runs one guest
program and dies; it *admits* jobs.  Each submitted program becomes a
:class:`Job` with a cluster-unique tenant id, and the :class:`JobManager`
decides when it actually starts:

* at most ``max_concurrent`` jobs run at once (each gets its own
  ``MasterRuntime``, system state, futex namespace, and per-node memory
  bundles — sharing nodes and wires, never state);
* up to ``queue_depth`` further submissions wait in a FIFO admission
  queue; a finishing job admits the head of the queue *at the virtual
  time it finishes*, so queue wait is a measurable simulated quantity;
* beyond that, :class:`~repro.errors.AdmissionError` — backpressure is
  explicit, not an unbounded queue.

The manager is deliberately simulation-agnostic: it never touches the
event loop.  The cluster hands it an ``admit`` callback that does the
actual runtime construction, and calls :meth:`JobManager.job_done` from
the job's completion callback, which is what makes admission order
deterministic (it happens inside the discrete-event timeline).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional

from collections import deque

from repro.errors import AdmissionError

__all__ = ["Job", "JobState", "JobManager"]


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass
class Job:
    """One admitted (or waiting) guest program.

    ``tenant`` is the cluster-unique id threaded through every layer: RPC
    frames, directories, futex tables, thread records, and stat rows
    all carry it, which is what keeps concurrent guests isolated on a
    shared fleet.

    ``program``, ``stdin`` and ``files`` are the job's inputs; they, like
    ``runtime``, become None once the job retires.
    """

    tenant: int
    name: str
    program: Any
    stdin: Optional[bytes] = b""
    files: Optional[dict[str, bytes]] = field(default_factory=dict)
    max_virtual_ms: Optional[float] = None

    state: JobState = JobState.QUEUED
    #: Virtual timestamps (ns).  ``submitted`` is when ``submit()`` was
    #: called (0 for jobs submitted before the fleet starts driving),
    #: ``admitted`` when the job actually started, ``finished`` when its
    #: done event fired.  ``admitted - submitted`` is the queue wait the
    #: multi-tenant benchmark reports at p99.
    submitted_ns: int = 0
    admitted_ns: int = 0
    finished_ns: int = 0

    result: Any = None          # RunResult once FINISHED
    error: Optional[BaseException] = None  # the failure once FAILED
    #: Cluster-private per-job runtime bundle (master, state, placer, ...).
    runtime: Any = None

    @property
    def queue_wait_ns(self) -> int:
        return max(0, self.admitted_ns - self.submitted_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Job(tenant={self.tenant}, name={self.name!r}, "
                f"state={self.state.value})")


class JobManager:
    """Admission control: bounded concurrency, bounded FIFO queue."""

    def __init__(self, max_concurrent: int, queue_depth: int,
                 admit: Callable[[Job], None]) -> None:
        self.max_concurrent = max_concurrent
        self.queue_depth = queue_depth
        self._admit = admit
        self.running: dict[int, Job] = {}
        self.queue: Deque[Job] = deque()
        self.admitted_total = 0
        self.rejected_total = 0

    def submit(self, job: Job) -> None:
        """Start ``job`` now if a slot is free, else queue it, else refuse."""
        if len(self.running) < self.max_concurrent:
            self._start(job)
        elif len(self.queue) < self.queue_depth:
            self.queue.append(job)
        else:
            self.rejected_total += 1
            raise AdmissionError(
                f"admission queue full: {len(self.running)} jobs running "
                f"(max_concurrent_jobs={self.max_concurrent}), "
                f"{len(self.queue)} queued "
                f"(admission_queue_depth={self.queue_depth})"
            )

    def job_done(self, job: Job) -> None:
        """Release ``job``'s slot and admit queued jobs into freed slots.

        Called from the job's done-event callback, i.e. *inside* the
        simulation timeline — the admitted job's startup events are pushed
        at the finishing job's completion time, deterministically.
        """
        self.running.pop(job.tenant, None)
        while self.queue and len(self.running) < self.max_concurrent:
            self._start(self.queue.popleft())

    def _start(self, job: Job) -> None:
        self.running[job.tenant] = job
        self.admitted_total += 1
        self._admit(job)

    @property
    def active(self) -> int:
        return len(self.running) + len(self.queue)
