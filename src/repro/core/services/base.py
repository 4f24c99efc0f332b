"""Service protocol and message dispatcher for the runtime service layer.

The master and node runtimes are composition roots over a set of
*services*: each service owns one protocol subsystem (coherence, syscall
delegation, futexes, splitting, forwarding, ...), declares the message
kinds it handles, and exposes a generator ``handle(msg)`` run inside the
owning runtime's manager/communicator process.  Master-side services
derive from :class:`MasterService`, which builds them from their runtime
and owns the one path by which they originate frames.  The :class:`Dispatcher`
routes inbound frames by kind and keeps uniform per-service counters
(requests served, virtual-ns busy time) in
:class:`~repro.core.stats.RunStats` so experiments can attribute
master-link load per subsystem.

Every request names the service issuing it (:meth:`MasterService.request`,
``NodeRuntime._request``), so when ``DQEMUConfig.rpc_timeout_ns`` arms the
RPC layer and a peer never answers, the :class:`~repro.net.rpc.RpcTimeout`
already names that service where it fires: a dead or partitioned node fails
the run loudly and attributably instead of deadlocking it.

The dispatcher routes, bills and refuses; it decides no delivery rule.
Two frames are refused before any handler runs, both billed:

* **Replays** — where a request can arrive twice (``RpcChannel.replays``: a
  FaultPlan or retries), the dispatcher asks its endpoint's RPC channel
  whether this is the frame's first delivery
  (:meth:`~repro.net.rpc.RpcChannel.first_delivery`, which remembers the
  served ids and answers a replay of an answered request from its reply
  cache); a replay is billed to the service's ``duplicates`` counter.
* **Dead senders** — every dispatcher refuses a frame whose sender the
  fleet's health view (``Fabric.health``) has latched failed (billed,
  counted once in ``dead_peer_skips``, never handled): recovery for that
  node already ran, and serving its frame would re-admit it to the
  directory, the kernel state or the snapshot store.  Only the master's
  failure domain latches a node, and only slaves are latched, so on a
  node-side dispatcher the test never holds.

This module is also the one place on the master side that reads
``rpc_timeout_ns``: :meth:`MasterService.request` issues every call with it,
and :meth:`MasterService.notify` leaves whether a notification is acked to
the channel.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Generator, Optional, Protocol, Sequence,
    runtime_checkable,
)

from repro.core.stats import RunStats
from repro.errors import ProtocolError
from repro.net.messages import SpawnThread
from repro.net.rpc import RpcTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime
    from repro.net.endpoint import Endpoint
    from repro.net.messages import Message

__all__ = ["Service", "MasterService", "Dispatcher"]


@runtime_checkable
class Service(Protocol):
    """One protocol subsystem of a runtime.

    ``name`` keys the service's :class:`~repro.core.stats.ServiceStats`
    entry; ``handled_kinds`` is the set of message kinds routed to it (may
    be empty for internal services driven by their peers, e.g. the master's
    futex service, which is invoked by the syscall service rather than by a
    wire frame).
    """

    name: str
    handled_kinds: frozenset[str]

    def handle(self, msg: Any) -> Generator[Any, Any, Any]:
        ...


class MasterService:
    """Shared plumbing of the master-side services — the twin of
    :class:`~repro.core.services.nodeside._NodeService`.

    A service is built from the :class:`~repro.core.master.MasterRuntime` it
    belongs to and reads shared state (``master.state``, ``master.placer``,
    ``master.node_ids``, ``master.finished``, ...) and its sibling services
    (``master.forwarding``, ``master.coherence``, ...) from there when it
    needs them.  What every handler touches per frame is copied onto the
    service once, here.

    This class is also the one path by which the master originates frames:
    :meth:`send`, :meth:`request` and :meth:`notify` stamp the job's tenant
    id, and :meth:`request` carries the configured timeout and retransmit
    budget; awaiting :meth:`request`,
    :meth:`ask` and :meth:`gather` are the three ways of waiting on a reply,
    and :meth:`land` is the one way of putting a thread on a node.
    """

    name = "master"
    handled_kinds: frozenset[str] = frozenset()
    #: False on the services that never issue a request (forwarding only
    #: pushes; heartbeat only receives): they get no
    #: retransmit counter sink, so their stats row appears at registration
    #: whether or not retries are armed.
    originates_requests = True

    def __init__(self, master: "MasterRuntime") -> None:
        self.master = master
        self.sim = master.sim
        self.config = master.config
        self.endpoint = master.endpoint
        self.trace = master.trace
        self.run_stats = master.run_stats
        self.tenant = master.tenant
        self.node_id = master.node.node_id
        # The fleet's health view: work touching a peer it has latched
        # failed degrades (skip it, count it) instead of aborting the run.
        # Only the failure domain latches, so without one nothing is skipped.
        self.view = self.endpoint.fabric.health
        # Loss recovery for the requests this service issues.  Resolved
        # once; the stats row is looked up only when armed, so default runs
        # create no extra RunStats entries.
        self.retry = (
            self.config.nested_retry_policy() if self.originates_requests else None
        )
        self.retry_stats = self.run_stats.service(self.name) if self.retry else None

    def handle(self, msg):
        """Default for the internal services driven by their siblings."""
        raise NotImplementedError(f"{self.name} service handles no inbound kinds")
        yield  # pragma: no cover - generator protocol

    # -- failure view -----------------------------------------------------------

    def _dead(self, node: int) -> bool:
        return node in self.view.failed

    def live(self, peers: Sequence[int]) -> Sequence[int]:
        """``peers`` minus the ones the failure view has latched failed
        (``peers`` itself while nothing is latched: no list, no call)."""
        failed = self.view.failed
        return [n for n in peers if n not in failed] if failed else peers

    def _died(self, exc: BaseException) -> bool:
        """``exc`` is what an await of a reply tolerates: a timeout against a
        peer the failure detector has confirmed dead.  Timeouts against live
        peers are failures — a slow peer is not a dead one."""
        return isinstance(exc, RpcTimeout) and exc.request.dst in self.view.failed

    # -- originating frames -----------------------------------------------------

    def send(self, dst: int, msg: "Message") -> None:
        """Fire-and-forget transmission on behalf of this job."""
        msg.tenant = self.tenant
        self.endpoint.send(dst, msg)

    def request(self, dst: int, msg: "Message"):
        """Issue one RPC with the configured timeout and retransmit budget
        (retransmits billed to this service's row, a timeout naming it);
        returns the reply event."""
        msg.tenant = self.tenant
        return self.endpoint.request(
            dst, msg, timeout_ns=self.config.rpc_timeout_ns,
            retry=self.retry, stats=self.retry_stats, service=self.name,
        )

    def notify(self, dst: int, msg: "Message"):
        """Deliver a notification the channel's rule makes a plain send or an
        acked :meth:`request`; returns the ack event, or ``None`` when
        unacked (:meth:`~repro.net.rpc.RpcChannel.notify`)."""
        msg.tenant = self.tenant
        return self.endpoint.rpc.notify(dst, msg, self.request)

    def _reply_or_none(self, reply_event):
        """Await a request's reply event: the reply, or ``None`` when the call
        timed out against a peer that died mid-call (:meth:`_died`)."""
        try:
            return (yield reply_event)
        except RpcTimeout as exc:
            if not self._died(exc):
                raise
            return None

    def ask(self, peer: int, msg: "Message"):
        """Request/await; ``None`` if ``peer`` died mid-call."""
        return (yield from self._reply_or_none(self.request(peer, msg)))

    def gather(self, peers: Sequence[int], make_msg: Callable[[int], "Message"],
               landed: Optional[Callable[["Message"], None]] = None):
        """Issue ``make_msg(peer)`` to every peer, then await them all.

        Returns ``(acks, skipped)``: the replies in peer order and how many
        peers died mid-call and were skipped (the caller decides whether
        that is billed).  All requests go out before any is awaited, in one
        ``all_of`` that tolerates what :meth:`ask` tolerates, so a peer's
        death costs its ack, not the transaction; any other failure ends the
        gather the moment it lands.  ``landed`` is called with every reply
        that has landed when the gather ends, also when a failure ends it,
        so a caller records what each answering peer did."""
        requests = [self.request(n, make_msg(n)) for n in peers]
        done = self.sim.all_of(requests, tolerate=self._died)
        try:
            replies = yield done
        finally:
            if landed is not None:
                for ev in requests:
                    if ev.triggered and ev.ok:
                        landed(ev.value)
        skipped = done.tolerated
        if skipped:
            replies = [ack for ack in replies if ack is not None]
        return replies, skipped

    # -- placing threads --------------------------------------------------------

    def land(self, tid: int, context, target: int, why: str):
        """Put thread ``tid`` on ``target`` — the one way the master places a
        thread (clone, migration, evacuation); returns the node it
        landed on.

        Moves its record there, emits ``why`` and ships ``context`` in a
        ``SpawnThread``.  Until that is acked the record is ``landing``,
        which the failure domain's recovery pass skips: if the target is
        latched failed mid-call, the thread is re-placed here on
        ``failure_domain.pick_target`` (``spawn_failovers``), not also
        reaped.  A timeout against a live target still raises, naming this
        service.
        """
        rec = self.master.state.threads.get(tid)
        attempts = len(self.master.node_ids) + 1
        rec.landing = True
        for _ in range(attempts):
            rec.node = target
            self.trace.emit("thread", target, why, tid=tid)
            ack = yield from self.ask(target, SpawnThread(tid=tid, context=context))
            if ack is not None:
                rec.landing = False
                return target
            self.run_stats.protocol.spawn_failovers += 1
            why = f"spawn failover: n{target} died mid-spawn"
            target = self.master.failure_domain.pick_target(exclude=target)
        raise RuntimeError(f"spawn of tid {tid} failed over more than {attempts} times")


class Dispatcher:
    """Routes inbound messages to the service registered for their kind."""

    def __init__(
        self,
        endpoint: "Endpoint",
        run_stats: RunStats,
        *,
        stats_resolver=None,
    ):
        self.sim = endpoint.sim
        self.run_stats = run_stats
        #: Optional ``msg -> RunStats`` hook for dispatchers whose services
        #: serve several tenants (the node-side ones): billing follows the
        #: frame's tenant instead of the dispatcher's default RunStats.
        self.stats_resolver = stats_resolver
        #: The endpoint's RPC channel: its ``replays`` says whether a request
        #: can arrive twice, and its ``first_delivery`` whether this one has.
        self._rpc = endpoint.rpc
        #: The nodes the fleet's health view has latched failed (its
        #: ``failed`` set, never rebound): a frame from one is refused, at
        #: the cost of one set test.
        self._failed = endpoint.fabric.health.failed
        self.services: list[Service] = []
        self._routes: dict[str, Service] = {}

    def register(self, service: Service) -> Service:
        """Add a service, claiming its ``handled_kinds``; returns it."""
        for kind in service.handled_kinds:
            other = self._routes.get(kind)
            if other is not None:
                raise ProtocolError(
                    f"kind {kind!r} claimed by both {other.name!r} and {service.name!r}"
                )
            self._routes[kind] = service
        self.services.append(service)
        # Eager stats entry: every registered service shows up in RunStats,
        # including ones that served zero requests this run.
        self.run_stats.service(service.name)
        return service

    @property
    def kinds(self) -> frozenset[str]:
        """Every message kind some registered service handles."""
        return frozenset(self._routes)

    def service_for(self, kind: str) -> Service:
        try:
            return self._routes[kind]
        except KeyError:
            raise ProtocolError(f"no service registered for kind {kind!r}") from None

    # -- dispatch ----------------------------------------------------------------

    def dispatch(
        self, msg: Any, started_at: Optional[int] = None, shard: Optional[int] = None
    ) -> Generator[Any, Any, Any]:
        """Route ``msg`` to its service, billing requests, busy time, and
        mailbox queue wait (endpoint arrival stamp → dispatch start).

        ``shard`` is the master mailbox the frame came from (``None`` on
        node-side pumps): the work is also billed to the service's
        per-shard slice, so mailbox imbalance is visible.

        ``started_at`` lets a pump that spends modeled service time *before*
        dispatching (the node communicator's per-command cost) bill that
        span as the service's busy time rather than as queue wait.

        A replayed frame (one the channel has delivered before) is billed to
        ``duplicates`` and dropped without reaching the handler.  A frame
        whose sender the failure view has latched failed is billed, counted
        in ``dead_peer_skips`` and refused: it was still in the mailbox (or
        the fabric) when its node was declared dead, recovery already ran
        against the state as it was, and its reply would be unroutable.
        """
        service = self._routes.get(msg.kind)
        if service is None:
            raise ProtocolError(
                f"no service registered for kind {msg.kind!r} (from node {msg.src})"
            )
        run_stats = (
            self.run_stats if self.stats_resolver is None else self.stats_resolver(msg)
        )
        stats = run_stats.service(service.name)
        rpc = self._rpc
        if rpc.replays and not rpc.first_delivery(msg):
            stats.duplicates += 1
            return None
        t0 = self.sim.now if started_at is None else started_at
        arrived = getattr(msg, "_arrived_ns", None)
        waited = t0 - arrived if arrived is not None else 0
        stats.requests += 1
        stats.queue_wait_ns += waited
        shard_stats = None if shard is None else stats.shard(shard)
        if shard_stats is not None:
            shard_stats.requests += 1
            shard_stats.queue_wait_ns += waited
        if msg.src in self._failed:
            run_stats.protocol.dead_peer_skips += 1
            return None
        try:
            result = yield from service.handle(msg)
        finally:
            busy = self.sim.now - t0
            stats.busy_ns += busy
            if shard_stats is not None:
                shard_stats.busy_ns += busy
        return result
