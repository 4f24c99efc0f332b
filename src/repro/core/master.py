"""Master-node runtime (paper Fig. 2, §4.2–§4.4, §5).

The master owns the page directory, the centralized system state, and the
manager processes serving each node's requests (including its own — the
master's guest threads talk to their managers over the fabric's loopback).
The protocol work itself lives in the service layer
(:mod:`repro.core.services`); this class is the composition root: it
builds each service from itself and registers it on its one
:class:`~repro.core.services.base.Dispatcher`.

A job's master holds one of each piece of state: one coherence service
(directory, page locks, policy), one splitting service (split table), one
dispatcher.  ``DQEMUConfig.master_shards`` only splits each node's manager
mailbox: ``K`` managers per node, each subscribed to ``("mgr", tenant,
src, shard)``, where the endpoint's router sends page-keyed kinds by their
page's shard and control kinds to shard 0 (docs/PROTOCOL.md "Sharded
master").  Two requests from one node for pages on different shards then
never queue behind each other; a manager bills its work to its shard's
slice of the service row.  With the default ``master_shards = 1`` this is
the paper's one manager per node.

Multi-tenancy: one ``MasterRuntime`` per admitted job, all sharing node 0's
physical endpoint; the services' one send/request path
(:class:`~repro.core.services.base.MasterService`) stamps the job's tenant
id onto every frame the runtime originates.  Manager subscriptions are
keyed by tenant, so each job's managers only ever see its own frames, and
the whole service stack below them (directory, futexes, thread table,
system state) is per job by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import DQEMUConfig
from repro.core.node import NodeRuntime
from repro.core.scheduler import ThreadPlacer
from repro.core.services.base import Dispatcher
from repro.core.services.coherence import CoherenceService
from repro.core.services.failure import FailureDomainService
from repro.core.services.forwarding import ForwardingService
from repro.core.services.futexes import FutexService
from repro.core.services.heartbeat import HeartbeatService
from repro.core.services.splitting import SplittingService
from repro.core.services.syscalls import SyscallService
from repro.core.stats import RunStats
from repro.kernel.syscalls import SystemState
from repro.mem.pagestore import PageStore
from repro.net.messages import Shutdown
from repro.sim.engine import Event, Process, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.health import HealthTracker

__all__ = ["MasterRuntime"]


class MasterRuntime:
    """Composition root for one job's master services.

    Every service is built from this runtime and reads the shared state
    (``sim``, ``config``, ``state``, ``placer``, ``node_ids``, ``finished``,
    ...) and its sibling services from here at the time it needs them, so
    construction order below carries no wiring — only the
    ``RunStats.services`` row order (rows appear at registration and, with
    retries armed, when a request-issuing service is built).
    """

    def __init__(
        self,
        sim: Simulator,
        config: DQEMUConfig,
        node: NodeRuntime,  # the master's own node (id 0)
        node_ids: list[int],
        home: PageStore,
        state: SystemState,
        placer: ThreadPlacer,
        run_stats: RunStats,
        done: Event,
        *,
        failure_view: Optional["HealthTracker"] = None,
        tenant: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.node = node
        #: The job's tenant id, stamped onto every frame the services
        #: originate (replies inherit it from the request automatically).
        self.tenant = tenant
        self.endpoint = node.endpoint
        self.node_ids = list(node_ids)
        self.home = home
        self.state = state
        self.placer = placer
        self.run_stats = run_stats
        self.done = done
        self.trace = node.trace
        self.finished = False
        # The fleet's health tracker when the failure domain is armed (the
        # dispatcher refuses frames from the nodes it latched failed); None
        # keeps every service on its failure-blind, bit-identical code paths.
        self.failure_view = failure_view
        #: Called once, when the job is over on the master: ``finish`` ran,
        #: every node acked its Shutdown and ``in_flight`` is back to 0.
        self.on_retire: Optional[Callable[[], None]] = None
        #: This job's work the master still owes: manager dispatches and
        #: processes (:meth:`spawn`) running, Shutdown acks outstanding.
        self.in_flight = 0

        self.coherence = CoherenceService(self)
        self.splitting = SplittingService(self)
        self.forwarding = ForwardingService(self)
        self.futexes = FutexService(self)
        self.syscalls = SyscallService(self)

        # The failure domain exists only when armed: registering it eagerly
        # would add a zero "failure" row to every committed breakdown table.
        # Heartbeats (docs/PROTOCOL.md "Failure detection") require
        # evacuation_enabled, so they only come with it.
        self.failure_domain = (
            FailureDomainService(self) if failure_view is not None else None
        )
        self.heartbeat_service = (
            HeartbeatService(self) if config.heartbeat_interval_ns is not None else None
        )

        self.dispatcher = Dispatcher(self.endpoint, run_stats, failure_view=failure_view)
        for service in (
            self.coherence, self.splitting, self.syscalls, self.forwarding,
            self.futexes, self.failure_domain, self.heartbeat_service,
        ):
            if service is not None:
                self.dispatcher.register(service)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        shards = range(self.config.master_shards)
        for nid in self.node_ids:
            for shard in shards:
                self.node.spawn(self._manager(nid, shard), f"mgr{nid}.{shard}@master")
        if self.heartbeat_service is not None:
            self.heartbeat_service.start()

    def _manager(self, nid: int, shard: int):
        """One manager per (node, mailbox), serving that node's requests the
        router sends to mailbox ``shard`` (§4; docs/PROTOCOL.md "Sharded
        master")."""
        q = self.endpoint.subscribe(("mgr", self.tenant, nid, shard))
        dispatch = self.dispatcher.dispatch
        while True:
            msg = yield q.get()
            if self.finished:
                # The guest is gone; drop the frame but keep the drop visible
                # (a silently swallowed post-exit frame made races
                # undiagnosable).
                self.run_stats.protocol.post_finish_drops += 1
                continue
            self.in_flight += 1
            yield from dispatch(msg, shard=shard)
            self.in_flight -= 1  # work_done, inlined: no call per dispatch
            if self.finished and not self.in_flight:
                self._retire()

    def spawn(self, gen, name: str) -> Process:
        """Start a process of this job's master (a node process whose crash
        is a run failure); the job retires only after it has returned."""
        self.in_flight += 1
        return _MasterProcess(self, gen, name)

    def work_done(self, _ev: Optional[Event] = None) -> None:
        """One unit of ``in_flight`` ended: a process returned or a Shutdown
        was acked."""
        self.in_flight -= 1
        if self.finished and not self.in_flight:
            self._retire()

    def _retire(self) -> None:
        """The job is over on the master: retire it (docs/PROTOCOL.md "Job
        lifecycle") — once, though a second exit_group sends a second round
        of Shutdowns."""
        retire, self.on_retire = self.on_retire, None
        if retire is not None:
            retire()

    def finish(self, status: int) -> None:
        self.trace.emit("run", self.node.node_id, f"exit_group({status})")
        self.finished = True
        self.in_flight += len(self.node_ids)
        for nid in self.node_ids:
            # Un-timed and unawaited; the acks count out of ``in_flight``.
            self.endpoint.request(nid, Shutdown(tenant=self.tenant)).add_callback(
                self.work_done
            )
        if not self.done.triggered:
            self.done.succeed(status & 0xFF)


class _MasterProcess(Process):
    """A process of one job's master: returning counts it out of the job's
    ``in_flight``."""

    __slots__ = ("_master",)

    def __init__(self, master: MasterRuntime, gen, name: str) -> None:
        self._master = master  # before the first segment runs, which may return
        Process.__init__(self, master.sim, gen, name, master.node._crashed)

    def settle(self, value=None) -> None:
        Process.settle(self, value)
        self._master.work_done()
