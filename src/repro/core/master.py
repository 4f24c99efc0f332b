"""Master-node runtime (paper Fig. 2, §4.2–§4.4, §5).

The master owns the page directory, the centralized system state, and the
manager processes serving each node's requests (including its own — the
master's guest threads talk to their managers over the fabric's loopback).
The protocol work itself lives in the service layer
(:mod:`repro.core.services`); this class is the composition root wiring it
together.

The directory is partitioned across ``DQEMUConfig.master_shards``
independent *shard pools* (:class:`MasterShard`): shard ``s`` owns the
pages with ``page % K == s`` and runs its own coherence service (directory
partition + page locks), splitting service (split-table partition +
shard-affine shadow allocator), dispatcher, and one manager process per
node.  Inbound frames are routed to ``("mgr", src, shard)`` by the
endpoint's routing function (page-keyed kinds by their page's shard,
control kinds to shard 0), so two nodes' requests for pages on different
shards never queue behind each other.  Cross-shard work — split-table
broadcasts, multi-page guest-memory access from global syscalls, read-ahead
pushes — goes through the
:class:`~repro.core.services.coordinator.CrossShardCoordinator`.  With the
default ``master_shards = 1`` this collapses to the paper's
single-directory master, bit-for-bit.

Multi-tenancy: one ``MasterRuntime`` per admitted job, all sharing node 0's
physical endpoint through a :class:`~repro.net.endpoint.TenantEndpoint`
that stamps the job's tenant id onto every frame the runtime originates.
Manager subscriptions are keyed ``("mgr", tenant, src, shard)``, so each
job's managers only ever see its own frames, and the whole service stack
below them (directory, futexes, thread table, system state) is per job by
construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.config import DQEMUConfig
from repro.core.node import NodeRuntime
from repro.core.scheduler import ThreadPlacer
from repro.core.services.base import Dispatcher
from repro.core.services.checkpoint import CheckpointService
from repro.core.services.coherence import CoherenceService, CoherentGuestMemory
from repro.core.services.coordinator import CrossShardCoordinator
from repro.core.services.failure import FailureDomainService
from repro.core.services.forwarding import ForwardingService
from repro.core.services.futexes import FutexService
from repro.core.services.heartbeat import HeartbeatService
from repro.core.services.splitting import SplittingService
from repro.core.services.syscalls import SyscallService
from repro.core.stats import RunStats
from repro.kernel.syscalls import SystemState
from repro.mem.pagestore import PageStore
from repro.mem.sharding import ShardedDirectoryView, ShardedSplitView
from repro.net.endpoint import TenantEndpoint
from repro.net.messages import Shutdown
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.health import ClusterHealthView

__all__ = ["MasterRuntime", "MasterShard"]


class MasterShard:
    """One shard pool: directory partition, split partition, dispatcher.

    The shard's coherence and splitting services only ever see pages whose
    :func:`~repro.mem.sharding.shard_of` is this shard (routing enforces
    it), so their directory, split table, page locks, and shadow allocations
    are disjoint from every other shard's by construction.
    """

    def __init__(
        self,
        shard: int,
        sim: Simulator,
        config: DQEMUConfig,
        endpoint,
        trace,
        run_stats: RunStats,
        home: PageStore,
        node_ids: list[int],
        node_id: int,
        spawn_guarded,
        coordinator: CrossShardCoordinator,
        view: Optional["ClusterHealthView"] = None,
    ) -> None:
        self.shard = shard
        self.coherence = CoherenceService(
            sim, config, endpoint, trace, run_stats, home, view=view
        )
        self.splitting = SplittingService(
            sim, config, endpoint, trace, run_stats,
            node_ids, node_id, spawn_guarded, coordinator, shard,
        )
        self.dispatcher = Dispatcher(sim, run_stats, shard=shard, endpoint=endpoint)
        self.dispatcher.register(self.coherence)
        self.dispatcher.register(self.splitting)


class MasterRuntime:
    """Composition root for the master's shard pools and shared services."""

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
        failure_view: Optional["ClusterHealthView"] = None,
        tenant: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.node = node
        self.tenant = tenant
        # Every frame this runtime's services originate carries the job's
        # tenant id; replies inherit it from the request automatically.
        self.endpoint = TenantEndpoint(node.endpoint, tenant)
        self.node_ids = list(node_ids)
        self.home = home
        self.state = state
        self.placer = placer
        self.run_stats = run_stats
        self.done = done
        self.trace = node.trace
        self._finished = False
        # Cluster failure view; None keeps every service on its
        # failure-blind, bit-identical code paths.
        self.failure_view = failure_view

        spawn_guarded = self._spawn_guarded

        # -- shard pools (see docs/PROTOCOL.md "Sharded master") ----------------
        self.coordinator = CrossShardCoordinator(
            sim, config, self.endpoint, self.node_ids, view=failure_view
        )
        self.shards = [
            MasterShard(
                s, sim, config, self.endpoint, self.trace, run_stats, home,
                self.node_ids, node.node_id, spawn_guarded, self.coordinator,
                view=failure_view,
            )
            for s in range(config.master_shards)
        ]
        self.coordinator.bind(
            [shard.coherence for shard in self.shards],
            [shard.splitting for shard in self.shards],
        )

        # -- shared services (control shard 0) ---------------------------------
        # Forwarding spans the page space (consecutive stream pages interleave
        # over every shard); syscalls and futexes operate on the centralized
        # system state.  They live on shard 0's dispatcher, and control frames
        # (syscall_request has no page key) route there.
        self.forwarding = ForwardingService(
            sim, config, self.endpoint, self.trace, run_stats, spawn_guarded
        )
        self.futexes = FutexService(
            self.endpoint, run_stats, config, spawn_guarded, view=failure_view
        )
        guest_mem = CoherentGuestMemory(self.coordinator)
        self.syscalls = SyscallService(
            sim, config, self.endpoint, self.trace, run_stats,
            state, placer, self.node_ids, node.node_id,
            guest_mem, self.futexes, self._finish, view=failure_view,
        )
        for shard in self.shards:
            shard.coherence.bind(shard.splitting, self.forwarding)
            shard.splitting.bind(shard.coherence)
        self.forwarding.bind(self.coordinator)

        # The failure domain exists only when armed: registering it eagerly
        # would add a zero "failure" row to every committed breakdown table.
        # Same rule for the checkpoint service (checkpoint_interval_ns set
        # implies evacuation_enabled, so failure_view is always there too).
        self.failure_domain: Optional[FailureDomainService] = None
        self.checkpoint_service: Optional[CheckpointService] = None
        self.heartbeat_service: Optional[HeartbeatService] = None
        if failure_view is not None and config.checkpoint_interval_ns is not None:
            self.checkpoint_service = CheckpointService(
                sim, config, self.endpoint, run_stats, failure_view,
            )
            self.checkpoint_service.bind(
                [shard.coherence for shard in self.shards]
            )
        if failure_view is not None:
            self.failure_domain = FailureDomainService(
                sim, config, self.endpoint, self.trace, run_stats,
                state, failure_view, placer.candidates, node.node_id,
                spawn_guarded, lambda: self._finished,
            )
            self.failure_domain.bind(
                [shard.coherence for shard in self.shards],
                self.syscalls.executor, self.futexes,
                checkpoints=self.checkpoint_service,
            )
        if failure_view is not None and config.heartbeat_interval_ns is not None:
            # Active liveness (docs/PROTOCOL.md "Failure detection"): lease
            # expiry escalates through the shared HealthTracker, whose
            # on_down callbacks the fleet wires to the failure domain —
            # exactly the path an exhausted RPC budget takes.
            self.heartbeat_service = HeartbeatService(
                sim, config, self.endpoint, self.trace, run_stats,
                node.endpoint.fabric.health, failure_view,
                self.node_ids, node.node_id,
                spawn_guarded, lambda: self._finished,
            )

        shard0 = self.shards[0]
        for service in (self.syscalls, self.forwarding, self.futexes):
            shard0.dispatcher.register(service)
        if self.failure_domain is not None:
            shard0.dispatcher.register(self.failure_domain)
        if self.checkpoint_service is not None:
            shard0.dispatcher.register(self.checkpoint_service)
        if self.heartbeat_service is not None:
            shard0.dispatcher.register(self.heartbeat_service)

        # Single-shard aliases (debugging, tests, unsharded call sites).
        self.coherence = shard0.coherence
        self.splitting = shard0.splitting
        self.dispatcher = shard0.dispatcher

    # -- convenience views (debugging, tests) ----------------------------------

    @property
    def directory(self):
        """The page directory: the raw partition for one shard, a read-only
        merged view across partitions otherwise."""
        if len(self.shards) == 1:
            return self.shards[0].coherence.directory
        return ShardedDirectoryView(
            [shard.coherence.directory for shard in self.shards]
        )

    @property
    def split(self):
        """The canonical split table (merged view when sharded)."""
        if len(self.shards) == 1:
            return self.shards[0].splitting.split
        return ShardedSplitView([shard.splitting.split for shard in self.shards])

    @property
    def executor(self):
        return self.syscalls.executor

    # -- lifecycle ------------------------------------------------------------

    def _spawn_guarded(self, gen, name: str):
        """Spawn a master process whose crashes surface as run failures."""
        return self.sim.spawn(self.node._guarded(gen), name=name)

    def start(self) -> None:
        # Node-major spawn order: with one shard this is exactly the
        # unsharded manager-per-node spawn sequence (bit-identity).
        for nid in self.node_ids:
            for shard in self.shards:
                self._spawn_guarded(
                    self._manager(nid, shard), f"mgr{nid}.{shard.shard}@master"
                )
        if self.heartbeat_service is not None:
            self.heartbeat_service.start()

    def _manager(self, nid: int, shard: MasterShard):
        """One manager per (node, shard), serving that node's requests for
        that shard's pages (§4; sharding per docs/PROTOCOL.md)."""
        q = self.endpoint.subscribe(("mgr", self.tenant, nid, shard.shard))
        while True:
            msg = yield q.get()
            if self._finished:
                # The guest is gone; drop the frame but keep the drop visible
                # (a silently swallowed post-exit frame made races
                # undiagnosable).
                self.run_stats.protocol.post_finish_drops += 1
                continue
            yield from shard.dispatcher.dispatch(msg)

    def _finish(self, status: int) -> None:
        self.trace.emit("run", self.node.node_id, f"exit_group({status})")
        self._finished = True
        for nid in self.node_ids:
            self.endpoint.request(nid, Shutdown())  # acks intentionally unawaited
        if not self.done.triggered:
            self.done.succeed(status & 0xFF)
