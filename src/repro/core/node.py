"""A DQEMU instance: one node of the cluster (paper Fig. 2).

Each node runs:

* ``CostModel.cores_of(node)`` *core* processes executing guest (TCG-)threads in
  quanta through the DBT engine;
* one *communicator* process pumping inbound commands through a
  :class:`~repro.core.services.base.Dispatcher` over the node-side services
  (coherence client, split-table client, thread control — see
  :mod:`repro.core.services.nodeside`);
* per-fault/per-syscall handler processes (the two traps), so a thread
  waiting on a remote page or a delegated syscall frees its core for other
  runnable threads (the host OS would deschedule the blocked TCG thread the
  same way).  The syscall trap answers local syscalls itself and applies
  every other answer as a ``SyscallReply`` — the master's, or the pure-QEMU
  baseline's :class:`~repro.core.services.syscalls.LocalKernel`'s.

The same class is every node: the master is node 0 with a
:class:`~repro.core.master.MasterRuntime` attached, talking to itself over
the fabric's loopback path.

Multi-tenancy: a long-lived node hosts guest threads of several concurrent
jobs.  Everything address-space-shaped — page store, split table, LL/SC
reservations, DBT engine (whose code cache is keyed by guest PC), thread
table, in-flight fault tracking — lives in a per-tenant :class:`NodeTenant`
bundle, so jobs cannot see each other's pages or threads even though they
share the node's cores and NIC.  The cores themselves are shared hardware:
one run queue (tenant-fair, see
:class:`~repro.core.scheduler.FairRunQueue`) feeds every core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import DQEMUConfig
from repro.core.dsmmem import DSMMemory, MergeStall
from repro.core.gthread import GuestThread, GuestThreadState
from repro.core.services.base import Dispatcher
from repro.core.services.heartbeat import NodeHeartbeatService
from repro.core.services.nodeside import (
    NodeCoherenceService,
    NodeControlService,
    NodeFailureDomain,
    NodeSplitTableService,
)
from repro.core.stats import RunStats
from repro.cost import SYSCALL_TRAP_CYCLES
from repro.dbt.cpu import CPUState
from repro.dbt.engine import ExecutionEngine
from repro.dbt.stop import StopKind
from repro.errors import GuestFault, ProtocolError
from repro.kernel.classify import is_global
from repro.kernel.sysnums import SYS
from repro.mem.api import M64, PageStall
from repro.mem.flat import FlatMemory
from repro.mem.llsc import LLSCTable
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.sharding import shard_of
from repro.mem.splitmap import SplitMap
from repro.net.endpoint import Endpoint
from repro.net.fabric import Fabric
from repro.net.messages import MergeRequest, PageRequest, SyscallRequest
from repro.core.scheduler import FairRunQueue
from repro.sim.engine import Event, Process, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.services.syscalls import LocalKernel

__all__ = ["NodeRuntime", "NodeTenant"]

A0, A7 = 10, 17


def _reraise(exc: BaseException) -> None:
    """A bare node's failure policy: the crash fails the process itself."""
    raise exc


def _master_shard_key(msg, nshards: int) -> int:
    """Master manager mailbox a request frame routes to: page-keyed kinds go
    to their page's mailbox, control kinds (no ``page`` attribute — syscall
    delegation) to mailbox 0."""
    page = getattr(msg, "page", None)
    if page is None:
        return 0
    return shard_of(page, nshards)


class NodeTenant:
    """One job's private slice of a node.

    Page numbers and thread ids are per-job namespaces, so everything keyed
    by them is bundled here rather than on the node: two tenants both using
    page 5 or tid 2 must never collide.  The bundle also carries the job's
    :class:`RunStats`, which is how per-tenant attribution of node-side
    service work happens structurally.
    """

    __slots__ = (
        "tenant", "run_stats", "memory", "engine", "threads", "inflight",
        "push_gates", "finished",
    )

    def __init__(self, node: "NodeRuntime", tenant: int, run_stats: RunStats):
        config = node.config
        self.tenant = tenant
        self.run_stats = run_stats
        # Eager rows mirror Dispatcher.register: every tenant's RunStats
        # lists the node-side services even at zero requests.
        for name in (
            NodeCoherenceService.name,
            NodeSplitTableService.name,
            NodeControlService.name,
        ):
            run_stats.service(name)
        if node.heartbeat_sender is not None:
            # The lease-renewal sender's row exists exactly when it does.
            run_stats.service(NodeHeartbeatService.name)
        if node.rpc_retry is not None:
            # Where delegated syscalls bill their retransmits; not a
            # registered service, so default runs have no such row.
            run_stats.service("node.syscall")
        #: Owns the job's page copies, split table and LL/SC reservations.
        self.memory = (
            FlatMemory() if config.pure_qemu
            else DSMMemory(PageStore(), SplitMap(), LLSCTable())
        )
        self.engine = ExecutionEngine(
            self.memory,
            cost=config.cost.pure_qemu() if config.pure_qemu else config.cost,
            mode=config.mode,
            superblock_threshold=config.superblock_threshold,
            fusion=config.fusion_enabled,
        )
        self.threads: dict[int, GuestThread] = {}
        self.inflight: dict[int, tuple] = {}  # page -> (event, write)
        #: page -> event fired when a forwarded page (§5.2) is installed;
        #: lets an outstanding read fault complete as soon as the push lands.
        self.push_gates: dict[int, object] = {}
        #: The job finished (tenant-scoped Shutdown landed): threads of this
        #: bundle are dropped at their next scheduling point.
        self.finished = False


class NodeRuntime:
    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_id: int,
        config: DQEMUConfig,
        run_stats: RunStats,
        *,
        master_id: int = 0,
        on_failure: Optional[Callable[[BaseException], None]] = None,
        tracer=None,
    ) -> None:
        from repro.core.trace import NULL_TRACER

        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.master_id = master_id
        self.run_stats = run_stats
        self.trace = tracer if tracer is not None else NULL_TRACER
        self.on_failure = on_failure or _reraise

        self.endpoint = Endpoint(sim, fabric, node_id)
        # Keep only the bookkeeping a frame can read: only a FaultPlan
        # repeats, delays or drops frames, only a retry re-sends a request
        # (docs/PROTOCOL.md "Recover vs. fail loudly"); notifications are
        # acked exactly where a timeout can notice a lost one.
        self.endpoint.rpc.arm(
            faults=config.fault_plan is not None,
            retries=bool(config.rpc_max_retries),
            acks=config.rpc_timeout_ns is not None,
        )
        # Node-side services serve every tenant on this node; billing follows
        # the frame's tenant to that job's RunStats via the resolver.
        self.dispatcher = Dispatcher(
            self.endpoint, run_stats,
            stats_resolver=lambda msg: self.tenants[msg.tenant].run_stats,
        )
        for service in (
            NodeCoherenceService(self),
            NodeSplitTableService(self),
            NodeControlService(self),
        ):
            self.dispatcher.register(service)
        #: Lease-renewal sender (docs/PROTOCOL.md "Failure detection"):
        #: built only when heartbeats are armed, and only on slaves — the
        #: master never renews a lease with itself.
        self.heartbeat_sender: Optional[NodeHeartbeatService] = None
        if config.heartbeat_interval_ns is not None and node_id != master_id:
            self.heartbeat_sender = NodeHeartbeatService(self)
        command_kinds = self.dispatcher.kinds
        nshards = config.master_shards
        self.endpoint.set_router(
            lambda msg: "comm" if msg.kind in command_kinds
            else ("mgr", msg.tenant, msg.src, _master_shard_key(msg, nshards))
        )
        # Loss recovery for node-issued RPCs (see _request).
        self.rpc_retry = config.retry_policy()
        self.n_cores = config.cost.cores_of(node_id)
        self.ghz = config.cost.ghz_of(node_id)
        self._trap_ns = self._cycles_to_ns(config.cost.page_fault_trap_cycles)
        self._fault_name, self._sys_name = f"fault@{node_id}", f"sys@{node_id}"
        #: Tenant bundles; tenant 0 exists from birth so a bare node is
        #: immediately usable the way the single-job node always was.
        self.tenants: dict[int, NodeTenant] = {}
        self.add_tenant(0, run_stats)
        self.runqueue = FairRunQueue(sim)
        self.shutdown = False
        #: Fail-stop (set by FaultPlan.crash schedules, docs/PROTOCOL.md
        #: "Failure domains").
        self.crashed = False
        #: Drain duties; None where no drain is scheduled.
        self.failure_domain: Optional[NodeFailureDomain] = (
            NodeFailureDomain(self) if NodeFailureDomain.armed(self) else None
        )
        #: Set for the pure-QEMU baseline: global syscalls execute in the trap.
        self.local_kernel: Optional["LocalKernel"] = None

    # -- tenancy ------------------------------------------------------------

    def add_tenant(self, tenant: int, run_stats: RunStats) -> NodeTenant:
        """Provision a job's private slice of this node (idempotent per id)."""
        if tenant in self.tenants:
            raise ProtocolError(f"node {self.node_id}: tenant {tenant} already exists")
        bundle = NodeTenant(self, tenant, run_stats)
        self.tenants[tenant] = bundle
        return bundle

    def bundle(self, tenant: int) -> NodeTenant:
        return self.tenants[tenant]

    # -- node-issued RPCs -------------------------------------------------------

    def _request(self, bundle: NodeTenant, service: str, dst: int, msg):
        """Issue one node-side RPC with the configured timeout and retransmit
        budget; a timeout names ``service``, and retransmit traffic is billed
        to the tenant's ``service`` row (looked up only when retries are
        armed, so default runs create no extra RunStats rows).  Returns the
        reply event."""
        stats = bundle.run_stats.service(service) if self.rpc_retry is not None else None
        return self.endpoint.request(
            dst, msg, timeout_ns=self.config.rpc_timeout_ns, retry=self.rpc_retry,
            stats=stats, service=service,
        )

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self.spawn(self._communicator(), f"comm@{self.node_id}")
        for k in range(self.n_cores):
            self.spawn(self._core(k), f"core{k}@{self.node_id}")
        if self.heartbeat_sender is not None:
            self.heartbeat_sender.start()

    def spawn(self, gen, name: str):
        """Start a node or master process whose crash is a run failure."""
        return Process(self.sim, gen, name, self._crashed)

    def _crashed(self, exc: BaseException) -> None:
        if not self.crashed:  # a dead node's processes fail silently with it
            self.on_failure(exc)

    def crash(self) -> None:
        """Fail-stop this node (FaultPlan.crash): freeze it mid-flight.

        Cores stop at their next scheduling point, the RPC channel is
        neutered (no retransmit timers keep firing, calls issued by
        still-suspended processes go nowhere and never complete — exactly
        what death looks like to the process), and the permanent wire drop
        rules the crash plan installed take care of any frame already in
        flight.  Nothing is cleaned up: a crashed machine does not get to
        run recovery code.
        """
        if self.crashed:
            return
        self.crashed = True
        self.shutdown = True
        self.trace.emit("node", self.node_id, "crash")
        self.endpoint.rpc.halt()
        for _ in range(self.n_cores):
            self.runqueue.put(None)

    # -- thread management ------------------------------------------------------

    def add_thread(self, cpu: CPUState, tenant: int = 0) -> GuestThread:
        bundle = self.tenants[tenant]
        ts = bundle.run_stats.thread(cpu.tid)
        ts.node = self.node_id
        if ts.quanta == 0:  # fresh thread (not a live migration)
            ts.created_ns = self.sim.now
        th = GuestThread(cpu, ts, tenant)
        bundle.threads[cpu.tid] = th
        self.trace.emit("thread", self.node_id, "start", tid=cpu.tid)
        self._requeue(th)
        return th

    def _cycles_to_ns(self, cycles: float) -> int:
        return int(round(cycles / self.ghz))

    def _requeue(self, th: GuestThread) -> None:
        domain = self.failure_domain
        if domain is not None and domain.evacuates(th):
            return
        th.state = GuestThreadState.READY
        th.enqueued_at = self.sim.now
        self.runqueue.put(th)

    def _wake_thread(self, tid: int, retval: int, tenant: int = 0) -> None:
        th = self.tenants[tenant].threads.get(tid)
        if th is None or th.state is not GuestThreadState.BLOCKED:
            raise ProtocolError(f"node {self.node_id}: futex wake for non-blocked tid {tid}")
        if th.blocked_at is not None:
            th.stats.blocked_ns += self.sim.now - th.blocked_at
            th.blocked_at = None
        th.cpu.regs[A0] = retval & M64
        self.trace.emit("thread", self.node_id, "wake", tid=tid)
        self._requeue(th)

    def leave(self, th: GuestThread, why: str, *, finished: bool = False) -> None:
        """The one way a thread leaves this node — exit, live migration,
        evacuation or its job's shutdown.  ``finished``: the thread exited
        for good (its finish time is recorded)."""
        th.state = GuestThreadState.EXITED
        th.cpu.halted = True
        bundle = self.tenants.get(th.tenant)
        if bundle is not None:  # None: its job has retired
            bundle.threads.pop(th.tid, None)
        if finished:
            th.stats.finished_ns = self.sim.now
        self.trace.emit("thread", self.node_id, why, tid=th.tid)
        if self.failure_domain is not None:
            self.failure_domain.check_drain_complete()

    # -- core scheduling ------------------------------------------------------

    def _core(self, core_id: int):
        while True:
            th = yield self.runqueue.get()
            if th is None:  # shutdown sentinel
                return
            if th.state is not GuestThreadState.READY:
                continue
            domain = self.failure_domain
            if domain is not None and domain.evacuates(th):
                continue
            th.stats.runnable_wait_ns += self.sim.now - th.enqueued_at
            th.state = GuestThreadState.RUNNING
            yield from self._run_turn(th)

    def _run_turn(self, th: GuestThread):
        cfg = self.config
        cpu = th.cpu
        try:
            bundle = self.tenants[th.tenant]
        except KeyError:  # a late reply requeued a thread of a retired job
            return
        domain = self.failure_domain
        while not self.shutdown and not bundle.finished:
            stop = bundle.engine.run_quantum(cpu, cfg.quantum_cycles)
            ns = round(stop.cycles / self.ghz)  # _cycles_to_ns
            if ns:
                yield self.sim.sleep(ns)
            # Split the quantum's wall time into translation vs execution
            # mode for the Fig. 8 breakdown; the sum stays exactly ns.
            if stop.translate_cycles:
                tr_ns = min(ns, self._cycles_to_ns(stop.translate_cycles))
                th.stats.translate_ns += tr_ns
                ns -= tr_ns
            th.stats.execute_ns += ns
            th.stats.quanta += 1
            kind = stop.kind
            if kind is StopKind.QUANTUM:
                if len(self.runqueue) or (domain is not None and domain.draining):
                    self._requeue(th)  # other threads are waiting: yield the core
                    return
                continue
            if kind is StopKind.PAGE_STALL:
                self.spawn(self._resolve_stall(stop.info, th.tenant, th), self._fault_name)
                return
            if kind is StopKind.SYSCALL:
                self.spawn(self._syscall_handler(th), self._sys_name)
                return
            if kind is StopKind.BREAK:
                raise GuestFault(f"ebreak at pc={cpu.pc - 4:#x}", pc=cpu.pc - 4)
            raise stop.info  # StopKind.FAULT

    # -- page faults ------------------------------------------------------------

    def _resolve_stall(self, stall: PageStall, tenant: int, th: Optional[GuestThread] = None):
        """Do what the stalled access asked for; the access then re-executes.

        With ``th`` this is the thread's page-fault handler: the trap, the
        page, then the thread back on the run queue, all in one generator.
        A page is brought in at (at least) the needed state, deduplicating
        concurrent requests from the tenant's threads on this node: the
        first one's ``bundle.inflight`` entry stays ``None`` unless a second
        thread comes to wait on it, which makes it an event."""
        sim = self.sim
        bundle = self.tenants[tenant]
        if th is not None:
            t0 = sim.now
            yield sim.sleep(self._trap_ns)
        if isinstance(stall, MergeStall):
            yield self._request(
                bundle, NodeSplitTableService.name, self.master_id,
                MergeRequest(page=stall.orig_page, tenant=tenant),
            )
        else:
            page, write = stall.page, stall.write
            store = bundle.memory.pages
            inflight = bundle.inflight
            while True:
                if write and store.silently_upgrade(page):
                    # MESI: an Exclusive-clean copy becomes Modified right
                    # here — the fault costs the local trap, never a master
                    # round trip (docs/PROTOCOL.md "Coherence protocols").
                    bundle.run_stats.protocol.silent_upgrades += 1
                    break
                if store.has_write(page) or (not write and store.has_read(page)):
                    break
                if page in inflight:
                    ev = inflight[page]
                    if ev is None:
                        ev = inflight[page] = Event(sim)
                    yield ev
                    continue  # re-check: the finished request may not suffice
                inflight[page] = None
                try:
                    req = self._request(
                        bundle, NodeCoherenceService.name, self.master_id,
                        PageRequest(
                            page=page, write=write, offset=stall.offset, size=stall.size,
                            tenant=tenant,
                        ),
                    )
                    if write or not self.config.forwarding_enabled:
                        # No push can arrive: the reply alone completes the fault.
                        reply = yield req
                    else:
                        # A forwarded page may land while the demand request
                        # is in flight; whichever arrives first completes it.
                        gate = bundle.push_gates.get(page)
                        if gate is None:
                            gate = bundle.push_gates[page] = sim.event()
                        which, value = yield sim.any_of([req, gate])
                        reply = value if which == 0 else None
                finally:
                    bundle.push_gates.pop(page, None)
                    ev = inflight.pop(page)
                    if ev is not None:
                        ev.succeed()
                if reply is None or reply.ack_only or reply.retry:
                    # A push installed the page (or will momentarily), or the
                    # page was split/merged concurrently and the access
                    # re-translates against the updated table; either way a
                    # copy dropped meanwhile simply faults again.
                    pass
                elif reply.upgrade:
                    # Payload-free S→M upgrade ack: the local Shared copy is
                    # current, only its state flips.
                    if store.has_read(page):
                        store.set_state(page, MSIState.MODIFIED)
                elif reply.write:
                    store.install(page, reply.data, MSIState.MODIFIED)
                else:
                    store.install(
                        page, reply.data,
                        MSIState.EXCLUSIVE if reply.exclusive else MSIState.SHARED,
                    )
                break
        if th is not None:
            th.stats.pagefault_ns += sim.now - t0
            th.stats.page_faults += 1
            self._requeue(th)

    # -- syscalls ----------------------------------------------------------------

    def _syscall_handler(self, th: GuestThread):
        cpu = th.cpu
        bundle = self.tenants[th.tenant]
        t0 = self.sim.now
        yield self.sim.sleep(self._cycles_to_ns(SYSCALL_TRAP_CYCLES))
        sysno = cpu.regs[A7]
        args = tuple(cpu.regs[A0: A0 + 6])

        if not is_global(sysno):
            yield from self._local_syscall(th, sysno, args)
            th.stats.syscall_ns += self.sim.now - t0
            bundle.run_stats.protocol.local_syscalls += 1
            self._requeue(th)
            return

        kernel = self.local_kernel
        if kernel is not None:
            reply = yield from kernel.execute(th, sysno, args)
        else:
            bundle.run_stats.protocol.delegated_syscalls += 1
            reply = yield self._request(
                bundle, "node.syscall", self.master_id,
                SyscallRequest(
                    tid=cpu.tid, sysno=sysno, args=args, context=cpu.snapshot(),
                    tenant=th.tenant,
                ),
            )
        th.stats.syscall_ns += self.sim.now - t0
        if reply.exited:
            self.leave(th, "exit", finished=True)
        elif reply.parked:
            th.state = GuestThreadState.BLOCKED
            th.blocked_at = self.sim.now
            self.trace.emit("thread", self.node_id, "park", tid=cpu.tid)
        elif reply.migrated:
            # The thread now runs on another node (live migration); just
            # forget the local incarnation — no exit bookkeeping.
            self.leave(th, "migrated away")
        else:
            cpu.regs[A0] = reply.retval & M64
            self._requeue(th)

    def _local_syscall(self, th: GuestThread, sysno: int, args: tuple[int, ...]):
        """Paper §4.3: local syscalls are served without a master round trip."""
        cpu = th.cpu
        now = self.sim.now
        tenant = th.tenant
        if sysno == SYS.NANOSLEEP:
            spec = yield from self.read_guest(args[0], 16, tenant)
            sec, nsec = (int.from_bytes(spec[k : k + 8], "little") for k in (0, 8))
            yield self.sim.sleep(sec * 1_000_000_000 + nsec)
            cpu.regs[A0] = 0
        elif sysno == SYS.GETTID:
            cpu.regs[A0] = cpu.tid
        elif sysno == SYS.GETPID:
            cpu.regs[A0] = 1
        elif sysno in (SYS.SCHED_YIELD, SYS.MPROTECT, SYS.MADVISE):
            cpu.regs[A0] = 0
        elif sysno in (SYS.CLOCK_GETTIME, SYS.GETTIMEOFDAY):
            # struct timespec {sec, nsec} at a1, or struct timeval {sec, usec} at a0
            sec, ns = divmod(now, 1_000_000_000)
            timespec = sysno == SYS.CLOCK_GETTIME
            frac = ns if timespec else ns // 1000
            data = sec.to_bytes(8, "little") + frac.to_bytes(8, "little")
            yield from self.write_guest(args[1] if timespec else args[0], data, tenant)
            cpu.regs[A0] = 0
        else:  # pragma: no cover - classify() keeps this unreachable
            raise ProtocolError(f"syscall {sysno} not handled locally")

    # -- kernel access to guest memory (KernelMemory) ---------------------------

    def _guest_bytes(self, tenant: int, access, *args):
        """One byte-range access on the tenant's memory, resolving every stall
        it raises (the baseline's private memory raises none)."""
        while True:
            try:
                return access(*args)
            except PageStall as stall:
                yield from self._resolve_stall(stall, tenant)

    def read_guest(self, addr: int, size: int, tenant: int = 0):
        return self._guest_bytes(tenant, self.tenants[tenant].memory.read_bytes, addr, size)

    def write_guest(self, addr: int, data: bytes, tenant: int = 0):
        return self._guest_bytes(tenant, self.tenants[tenant].memory.write_bytes, addr, data)

    # -- communicator ------------------------------------------------------------

    def _communicator(self):
        q = self.endpoint.subscribe("comm")
        cfg = self.config
        while True:
            msg = yield q.get()
            # The per-command handling cost is spent before dispatch; passing
            # its start as started_at bills it as the handling service's busy
            # time (not mailbox queue wait) without changing any timing.
            started_at = self.sim.now
            yield self.sim.sleep(cfg.cost.slave_coherence_service_ns)
            yield from self.dispatcher.dispatch(msg, started_at=started_at)
            if self.shutdown:
                return
