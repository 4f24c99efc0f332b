"""Public entry point: build a DQEMU fleet and admit guest programs to it.

Usage::

    from repro import Cluster, DQEMUConfig, assemble

    cluster = Cluster(n_slaves=4, config=DQEMUConfig(forwarding_enabled=True))
    result = cluster.run(program)
    print(result.stdout, result.virtual_seconds)

A :class:`Cluster` is long-lived: it owns one simulated fleet (simulator,
fabric, nodes) and *admits* jobs onto it.  :meth:`Cluster.submit` hands a
program to the admission queue and returns a :class:`~repro.core.jobs.Job`;
:meth:`Cluster.join` drives the simulation until the given jobs settle.
Multiple concurrent guests share the nodes — each admitted job is a
*tenant* with its own master runtime, directory, system state, futex
namespace, and per-node memory bundles, so isolation is structural rather
than filtered.  At most ``config.max_concurrent_jobs`` run at once; up to
``config.admission_queue_depth`` more wait in FIFO order, and beyond that
``submit`` raises :class:`~repro.errors.AdmissionError`.  A settled job
leaves a :class:`RunResult` that is a record; once every node has acked its
Shutdown and nothing of it runs on the master any more, the job *retires*
and the fleet frees its state (docs/PROTOCOL.md "Job lifecycle").

:meth:`Cluster.run` survives as the one-job convenience wrapper (submit +
join); a single ``run`` on a fresh cluster is bit-identical to the
historical single-use behavior.  Fault plans, evacuation, and the
pure-QEMU baseline remain single-job per cluster — their schedules are
properties of one run, not of a shared fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import DQEMUConfig
from repro.core.jobs import Job, JobManager, JobState
from repro.core.master import MasterRuntime
from repro.core.node import NodeRuntime
from repro.core.scheduler import ThreadPlacer
from repro.core.services.syscalls import LocalKernel
from repro.core.stats import FailureStats, RunStats
from repro.core.trace import NULL_TRACER, Tracer
from repro.dbt.cpu import CPUState
from repro.errors import ConfigError, SimulationError
from repro.isa.program import Program
from repro.kernel.syscalls import SystemState
from repro.mem.layout import STACK_TOP, page_of
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.sharding import TenantDirectoryView
from repro.net.fabric import Fabric, FabricStats
from repro.net.faults import FaultInjector, FaultStats
from repro.net.health import HealthTracker
from repro.net.rpc import RpcStats
from repro.sim.engine import Event, Simulator

__all__ = ["Cluster", "RunResult", "Job", "JobState"]

_SETTLED = (JobState.FINISHED, JobState.FAILED)


@dataclass
class RunResult:
    """One job's outcome: every field is a record taken when the job
    settled, detached from the fleet, so a held result neither changes when
    the cluster runs on nor keeps the fleet alive.  The one exception is
    ``trace``, the cluster's live :class:`Tracer`: a traced result pins its
    fleet."""

    exit_code: int
    stdout: str
    stderr: str
    virtual_ns: int
    stats: RunStats
    fabric: Optional[FabricStats] = None
    faults: Optional[FaultStats] = None  # set when the run had a fault plan
    #: Reliability counters: the job's service rows plus the channels' delta.
    rpc: Optional[RpcStats] = None
    health: Optional[HealthTracker] = None  # per-peer up/suspect/down view
    #: Structured failure accounting (docs/PROTOCOL.md "Failure domains");
    #: only set when the failure domain was armed for the run.
    failures: Optional[FailureStats] = None
    placements: dict[int, int] = field(default_factory=dict)
    #: Placement decisions the health-aware placer diverted, keyed
    #: "n<node>:<reason>" (empty unless health_aware_placement skipped any).
    placement_skips: dict[str, int] = field(default_factory=dict)
    files: dict[str, bytes] = field(default_factory=dict)
    trace: Optional["Tracer"] = None  # set when the cluster ran with trace=True
    #: Which admitted job produced this result (0 for a fresh cluster's
    #: first — and a solo run's only — job).
    tenant: int = 0
    #: Virtual ns the job sat in the admission queue before starting.
    queue_wait_ns: int = 0

    @property
    def virtual_seconds(self) -> float:
        return self.virtual_ns / 1e9

    def __repr__(self) -> str:
        return (
            f"RunResult(exit_code={self.exit_code}, virtual_seconds="
            f"{self.virtual_seconds:.6f}, threads={len(self.stats.threads)})"
        )


@dataclass
class _JobRuntime:
    """Cluster-private per-job runtime bundle attached to ``Job.runtime``."""

    stats: RunStats
    done: Event
    state: SystemState
    placer: ThreadPlacer
    master: Optional[MasterRuntime]
    failure_domain: object  # Optional[FailureDomainService]
    rpc_base: RpcStats
    deadline_ns: Optional[int]


class _Fleet:
    """The long-lived shared substrate: simulator, fabric, nodes, health.

    Built lazily on the first admission so a fresh cluster's first run
    reproduces the historical construction order event-for-event.  Tenants
    come and go; the fleet persists until the :class:`Cluster` is dropped
    or a node-level failure marks it broken.
    """

    def __init__(self, cluster: "Cluster", first_stats: RunStats) -> None:
        cfg = cluster.config
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, cfg.cost)
        self.injector: Optional[FaultInjector] = None
        if cfg.fault_plan is not None:
            self.injector = FaultInjector(self.sim, cfg.fault_plan).attach(self.fabric)
        # Peer health is pure bookkeeping (no simulator events), so every
        # fleet carries a tracker; the RPC channels feed it via fabric.health.
        self.health = HealthTracker(self.sim)
        self.fabric.health = self.health
        cluster.tracer.bind_clock(lambda: self.sim.now)
        self.node_ids = list(range(cluster.n_slaves + 1))
        self.nodes = {
            nid: NodeRuntime(
                self.sim, self.fabric, nid, cfg, first_stats,
                on_failure=self.fail, tracer=cluster.tracer,
            )
            for nid in self.node_ids
        }
        #: Tenant-keyed read-only view of each job's directory.
        self.directories = TenantDirectoryView()
        #: Jobs currently running (admitted, not yet settled).
        self.active: list[Job] = []
        #: The earliest virtual-time budget among them, if any has one.
        self.deadline_ns: Optional[int] = None
        self.started = False
        self.broken_error: Optional[BaseException] = None

    def retime(self) -> None:
        """``active`` changed: recompute the deadline the driver checks."""
        budgets = [job.runtime.deadline_ns for job in self.active]
        self.deadline_ns = min((d for d in budgets if d is not None), default=None)

    def fail(self, exc: BaseException) -> None:
        """A node-level failure poisons every active job on the fleet."""
        self.broken_error = exc
        for job in list(self.active):
            done = job.runtime.done
            if not done.triggered:
                done.fail(exc)


class Cluster:
    """A master plus ``n_slaves`` slave nodes (paper Fig. 2), job-admitting."""

    def __init__(self, n_slaves: int = 0, config: Optional[DQEMUConfig] = None,
                 *, trace: bool = False):
        if n_slaves < 0:
            raise ConfigError("n_slaves must be >= 0")
        self.config = config or DQEMUConfig()
        if self.config.pure_qemu and n_slaves:
            raise ConfigError("the QEMU baseline is single-node (n_slaves=0)")
        self.n_slaves = n_slaves
        self.tracer = Tracer() if trace else NULL_TRACER
        self._fleet: Optional[_Fleet] = None
        self._next_tenant = 0
        self.jobs: list[Job] = []
        self.manager = JobManager(
            self.config.max_concurrent_jobs,
            self.config.admission_queue_depth,
            self._admit,
        )

    @property
    def directories(self) -> TenantDirectoryView:
        """Tenant-keyed read-only directory views (debugging, tests)."""
        if self._fleet is None:
            raise ConfigError("no jobs admitted yet")
        return self._fleet.directories

    # -- admission ------------------------------------------------------------

    @property
    def _single_job_fleet(self) -> bool:
        # Fault schedules, evacuation wiring, and the local-kernel baseline
        # are properties of one run; sharing a fleet under them is undefined.
        cfg = self.config
        return bool(cfg.pure_qemu or cfg.evacuation_enabled
                    or cfg.fault_plan is not None)

    def submit(
        self,
        program: Program,
        *,
        name: Optional[str] = None,
        stdin: bytes = b"",
        files: Optional[dict[str, bytes]] = None,
        max_virtual_ms: Optional[float] = None,
    ) -> Job:
        """Admit ``program`` as a new job (or queue it; or refuse).

        Returns immediately with the :class:`Job` handle; nothing executes
        until :meth:`join` (or another job's ``join``) drives the simulator.
        Raises :class:`~repro.errors.AdmissionError` when both the running
        set and the admission queue are full.
        """
        if self._fleet is not None and self._fleet.broken_error is not None:
            raise ConfigError(
                "cluster fleet has failed; build a new Cluster"
            ) from self._fleet.broken_error
        if self._single_job_fleet and self.jobs:
            raise ConfigError(
                "fault plans, evacuation, and the pure-QEMU baseline are "
                "single-job per Cluster; build a new one per run"
            )
        job = Job(
            tenant=self._next_tenant,
            name=name if name is not None else f"job{self._next_tenant}",
            program=program,
            stdin=bytes(stdin),
            files=dict(files or {}),
            max_virtual_ms=max_virtual_ms,
        )
        job.submitted_ns = self._fleet.sim.now if self._fleet is not None else 0
        self.manager.submit(job)  # may raise AdmissionError; nothing recorded
        self._next_tenant += 1
        self.jobs.append(job)
        return job

    def join(self, jobs: Optional[list[Job]] = None) -> list[RunResult]:
        """Drive the fleet until the given jobs (default: all) settle.

        Returns their results in the given (submission) order; re-raises
        the first failed job's error.
        """
        targets = list(jobs) if jobs is not None else list(self.jobs)
        if not targets:
            return []
        self._drive(targets)
        for job in targets:
            if job.error is not None:
                raise job.error
        return [job.result for job in targets]

    # -- one-job compatibility wrapper ---------------------------------------

    def run(
        self,
        program: Program,
        *,
        stdin: bytes = b"",
        files: Optional[dict[str, bytes]] = None,
        max_virtual_ms: Optional[float] = None,
    ) -> RunResult:
        """Submit one job and drive it to completion (the classic API)."""
        job = self.submit(
            program, stdin=stdin, files=files, max_virtual_ms=max_virtual_ms
        )
        self._drive([job])
        if job.error is not None:
            raise job.error
        return job.result

    # -- job lifecycle --------------------------------------------------------

    def _admit(self, job: Job) -> None:
        """Build and start one job's runtime on the (possibly new) fleet.

        Called by the :class:`JobManager` either synchronously from
        ``submit`` or from a finishing job's done callback — i.e. inside
        the simulation timeline, which is what makes queued-job admission
        deterministic.
        """
        cfg = self.config
        stats = RunStats(tenant=job.tenant)
        first = self._fleet is None
        if first:
            fleet = self._fleet = _Fleet(self, stats)
        else:
            fleet = self._fleet
            if fleet.broken_error is not None:
                job.state = JobState.FAILED
                job.error = fleet.broken_error
                return
            for node in fleet.nodes.values():
                node.add_tenant(job.tenant, stats)
        sim = fleet.sim
        job.state = JobState.RUNNING
        job.admitted_ns = sim.now
        program = job.program

        state = SystemState(brk_start=program.load_end, stdin=job.stdin)
        for path, data in job.files.items():
            state.vfs.add_file(path, data)

        # Workers go to slave nodes; the master runs the main thread (Fig. 2).
        candidates = fleet.node_ids[1:] if self.n_slaves else [0]
        placer = ThreadPlacer(
            cfg.scheduler, candidates,
            health=fleet.health if cfg.health_aware_placement else None,
            fallback=0,
            # Stagger each tenant's round-robin cursor so concurrent jobs
            # interleave across the slaves instead of piling onto node 1.
            rr_offset=job.tenant % len(candidates),
        )

        master: Optional[MasterRuntime] = None
        if cfg.pure_qemu:
            node0 = fleet.nodes[0]
            node0.local_kernel = LocalKernel(node0, state)
            done = node0.local_kernel.done
            # The baseline executes against its own private memory directly.
            node0.tenants[job.tenant].memory.load_image(program.iter_load_segments())
        else:
            done = sim.event()
            # Authoritative guest memory on the master (the "home" copies).
            home = PageStore()
            for vaddr, data in program.iter_load_segments():
                self._load_segment(home, vaddr, data)
            master = MasterRuntime(
                sim, cfg, fleet.nodes[0], fleet.node_ids, home, state, placer,
                stats, done, tenant=job.tenant,
                failure_view=fleet.health if cfg.failure_domain else None,
            )
            fleet.directories.add_tenant(job.tenant, master.coherence.directory)
            master.on_retire = lambda j=job: self._retire(j)

        # -- failure-domain wiring (docs/PROTOCOL.md "Failure domains") --------
        failure_domain = master.failure_domain if master is not None else None
        if first:
            if cfg.evacuation_enabled:
                if failure_domain is None:
                    raise ConfigError("evacuation_enabled requires a master runtime")
                # Promote peer-level DOWN (retry budget exhausted) into a
                # cluster-level node failure: latch the view, evict the
                # directory, recover the threads.
                fleet.health.on_down.append(failure_domain.node_failed)
            for node_id, at_ns in cfg.crashes:
                if node_id not in fleet.nodes or node_id == 0:
                    raise ConfigError(f"cannot crash node {node_id}")
                sim.timeout(at_ns).add_callback(
                    lambda _e, n=node_id: fleet.nodes[n].crash()
                )
            for node_id, at_ns in cfg.drains:
                if node_id not in fleet.nodes or node_id == 0:
                    raise ConfigError(f"cannot drain node {node_id}")
                if failure_domain is None:
                    raise ConfigError("drain schedules require a master runtime")
                sim.timeout(at_ns).add_callback(
                    lambda _e, n=node_id: failure_domain.start_drain(n)
                )

        # Main thread starts on the master (paper Fig. 2).
        main_rec = state.threads.create(node=0)
        main_cpu = CPUState(pc=program.entry, tid=main_rec.tid, sp=STACK_TOP - 64)

        job.runtime = _JobRuntime(
            stats=stats,
            done=done,
            state=state,
            placer=placer,
            master=master,
            failure_domain=failure_domain,
            # Channel counters are fleet-wide; a snapshot at admission lets
            # the result report this job's delta (its service rows start at 0).
            rpc_base=RpcStats.collect(
                n.endpoint.rpc for n in fleet.nodes.values()
            ),
            deadline_ns=(
                None if job.max_virtual_ms is None
                else job.admitted_ns + int(job.max_virtual_ms * 1e6)
            ),
        )
        fleet.active.append(job)
        fleet.retime()
        done.add_callback(lambda _ev, j=job: self._settle(j))

        if not fleet.started:
            fleet.started = True
            for node in fleet.nodes.values():
                node.start()
        if master is not None:
            master.start()
        fleet.nodes[0].add_thread(main_cpu, tenant=job.tenant)

    def _settle(self, job: Job) -> None:
        """Done-event callback: finalize the job and free its slot."""
        fleet = self._fleet
        done = job.runtime.done
        job.finished_ns = fleet.sim.now
        if done.ok:
            job.state = JobState.FINISHED
            job.result = self._build_result(job, done.value)
        else:
            job.state = JobState.FAILED
            job.error = done.value
        if job in fleet.active:
            fleet.active.remove(job)
            fleet.retime()
        # Freeing the slot may admit the queue head — at this virtual time.
        self.manager.job_done(job)

    def _retire(self, job: Job) -> None:
        """The job is over on the master and every node acked its Shutdown:
        free all of it but its record, and fold its fabric slice into the
        fleet's retired total (docs/PROTOCOL.md "Job lifecycle")."""
        fleet = self._fleet
        tenant = job.tenant
        fleet.fabric.retire(tenant)
        for node in fleet.nodes.values():
            del node.tenants[tenant]
        master = job.runtime.master
        for nid in fleet.node_ids:
            for shard in range(master.config.master_shards):
                master.endpoint.unsubscribe(("mgr", tenant, nid, shard))
        fleet.directories.remove(tenant)
        job.runtime = job.program = job.stdin = job.files = None

    def _build_result(self, job: Job, exit_code: int) -> RunResult:
        fleet = self._fleet
        rt: _JobRuntime = job.runtime
        stats = rt.stats
        stats.wall_ns = fleet.sim.now
        for node in fleet.nodes.values():
            engine = node.tenants[job.tenant].engine
            stats.insns_executed += engine.insns_executed
            stats.insns_translated += engine.insns_translated
            stats.dbt.add_engine(engine)
        rpc_total = RpcStats.collect(
            (node.endpoint.rpc for node in fleet.nodes.values()), stats.services.values()
        )
        # Copies: the live slice and stats still grow with this job's frames
        # in flight (its Shutdown acks) while later jobs run.
        fabric = FabricStats()
        fabric.add(fleet.fabric.stats_for(job.tenant))
        return RunResult(
            exit_code=exit_code,
            stdout=rt.state.vfs.stdout_text(),
            stderr=rt.state.vfs.stderr_text(),
            virtual_ns=fleet.sim.now - job.admitted_ns,
            stats=stats.copy(),
            fabric=fabric,
            faults=fleet.injector.stats if fleet.injector is not None else None,
            rpc=rpc_total.minus(rt.rpc_base),
            health=fleet.health.record(),
            failures=(
                rt.failure_domain.failures
                if rt.failure_domain is not None else None
            ),
            placements=rt.placer.distribution(),
            placement_skips=rt.placer.skip_counts(),
            files=rt.state.vfs.dump_files(),
            trace=self.tracer if self.tracer is not NULL_TRACER else None,
            tenant=job.tenant,
            queue_wait_ns=job.queue_wait_ns,
        )

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _load_segment(home: PageStore, vaddr: int, data: memoryview) -> None:
        pos = 0
        while pos < len(data):
            page = page_of(vaddr + pos)
            off = (vaddr + pos) & 0xFFF
            n = min(4096 - off, len(data) - pos)
            buf = home.ensure(page, MSIState.SHARED)
            buf[off : off + n] = data[pos : pos + n]
            pos += n

    def _drive(self, targets: list[Job]) -> None:
        fleet = self._fleet
        sim = fleet.sim
        heap, fifo, step = sim._heap, sim._fifo, sim.step
        # Per event: one state test on the target waited for, and the fleet
        # deadline as ``_admit``/``_settle`` left it.  Work due now never
        # crosses it: the clock only reaches times at or before the deadline,
        # and a new deadline is never earlier than its admission.
        pending = list(targets)
        while pending:
            if pending[-1].state in _SETTLED:
                pending.pop()
                continue
            if not fifo:
                if not heap:
                    raise SimulationError(
                        f"guest program deadlocked at t={sim.now} ns "
                        "(all threads blocked, no pending events)"
                    )
                deadline = fleet.deadline_ns
                if deadline is not None and heap[0][0] > deadline:
                    raise self._deadline_error(deadline)
            step()

    def _deadline_error(self, deadline: int) -> SimulationError:
        """Budget-exceeded report: how far we got and who was still running."""
        fleet = self._fleet
        sim = fleet.sim
        live = 0
        jobs_desc = []
        for job in fleet.active:
            alive = len(job.runtime.state.threads.alive())
            live += alive
            jobs_desc.append(
                f"{job.name} (tenant {job.tenant}, {alive} live thread(s))"
            )
        detail = "; ".join(jobs_desc) if jobs_desc else "no jobs running"
        return SimulationError(
            f"virtual-time budget exceeded ({deadline} ns): guest still "
            f"running — virtual time advanced to t={sim.now} ns, "
            f"{live} guest thread(s) still live; running job(s): {detail}"
        )
