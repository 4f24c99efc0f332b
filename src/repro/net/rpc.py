"""Typed request–reply layer over the fabric (RPC correlation + reliability).

Every node's :class:`~repro.net.endpoint.Endpoint` owns one
:class:`RpcChannel`.  A *call* stamps the outbound frame with a correlation
id (``req_id``), registers a per-request completion :class:`Event` in the
channel's one table of outstanding calls, and transmits; the reply frame
carries ``in_reply_to`` and completes the event with the reply message as
its value.  Reply routing therefore never touches the endpoint's subscriber
queues — requests and replies are distinct planes, mirroring the paper's
manager/communicator split (§4, Fig. 2).

The channel alone decides delivery: besides correlating calls it keeps the
served-id table every dispatcher behind the endpoint asks before a request
reaches a handler (:meth:`RpcChannel.first_delivery`), and the one rule for
*notifications*, frames their receiver only acknowledges (a futex wake, a
drain completion): :meth:`RpcChannel.notify` sends one plainly, or as an
acked call once timeouts are armed, and :meth:`RpcChannel.acknowledge`
answers it accordingly.

An optional per-call timeout hook fails the completion event with
:class:`RpcTimeout`, naming the service that issued the call, if no reply
arrives in time.  The production protocol
never times out on a lossless fabric, but ``DQEMUConfig.rpc_timeout_ns``
arms the hook on every service-issued request so fault-injection
experiments (:mod:`repro.net.faults`) and slave-death detection hang off
it.

On top of the timeout sits the *reliability layer* (docs/PROTOCOL.md
"Reliable delivery"): a per-call :class:`RetryPolicy` turns each timeout
expiry into a retransmission of a **cloned** frame (the endpoint stamps the
caller's object in place, so re-sending the same instance would alias
protocol state across deliveries — see ``endpoint.transmit``) after an
exponential backoff with deterministic jitter, escalating to
:class:`RpcTimeout` only once the whole budget is spent.  Retransmits keep
the original ``req_id``, so the server side can deduplicate replays (the
served-id table, one bounded FIFO per endpoint) and the client side can
deduplicate a late first reply (tombstones); a retransmit whose original
request was already *served* is answered from the server channel's bounded
reply cache instead of being silently dropped, which is what makes a lost
**reply** recoverable too.
Together the three mechanisms give at-most-once execution with
effectively-once delivery under loss.

Settled correlation ids — timed out or completed — are remembered as
*tombstones* so a late reply to a timed-out request, or a replayed copy of
a reply already delivered (duplication faults), is dropped silently instead
of crashing the channel.  The tombstone table is bounded: entries are
swept once they are older than any frame's possible flight time, and the
table is capped outright, so long runs with timeouts cannot grow memory
without limit.

Each node runtime arms its channel from its config (:meth:`RpcChannel.arm`),
so these tables exist only where a frame can read them; a bare channel keeps
them all and sends notifications unacked.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Iterable, Optional

from repro.errors import ConfigError, NetworkError
from repro.net.faults import clone_frame
from repro.net.messages import Ack, Message
from repro.sim.engine import Event, Simulator

__all__ = ["RpcChannel", "RpcTimeout", "RetryPolicy", "RpcStats"]


class RpcTimeout(NetworkError):
    """A request's timeout (and retry budget, if any) expired unanswered.

    ``service`` names the runtime service that issued the request (the name
    it passed to :meth:`RpcChannel.call`), so slave death surfaces as e.g.
    ``service 'coherence': no reply to 'invalidate' ... from node 3``.  It is
    ``None`` only for calls that name no service.  Exported publicly as
    ``repro.ServiceTimeout``.
    """

    def __init__(
        self, msg: Message, timeout_ns: int, retries: int = 0,
        service: Optional[str] = None,
    ):
        detail = f" after {retries} retransmits" if retries else ""
        who = "rpc" if service is None else f"service {service!r}"
        super().__init__(
            f"{who}: no reply to {msg.kind!r} (req {msg.req_id}) from node "
            f"{msg.dst} within {timeout_ns} ns{detail}"
        )
        self.service = service
        self.request = msg
        self.timeout_ns = timeout_ns
        self.retries = retries


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a deterministic integer hash (no wall clock)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-call retransmission budget with deterministic backoff.

    On the k-th timeout expiry (k = 0 for the original transmission) the
    call waits ``backoff_base_ns << k`` plus a jitter in
    ``[0, backoff_jitter_ns]`` drawn from a splitmix64 hash of
    ``(req_id, k, seed)`` — fully determined by simulation state, never by
    wall-clock randomness — then retransmits a cloned frame and re-arms the
    same ``timeout_ns``.  After ``max_retries`` retransmits the next expiry
    fails the call with :class:`RpcTimeout`.
    """

    max_retries: int
    backoff_base_ns: int = 50_000
    backoff_jitter_ns: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_ns < 0 or self.backoff_jitter_ns < 0:
            raise ConfigError("backoff delays must be non-negative")

    def backoff_ns(self, attempt: int, req_id: int) -> int:
        delay = self.backoff_base_ns << attempt
        if self.backoff_jitter_ns:
            h = _mix64((req_id << 20) ^ (attempt << 8) ^ self.seed)
            delay += h % (self.backoff_jitter_ns + 1)
        return delay


#: Counters each :class:`RpcChannel` books itself.
_ON_CHANNEL = ("dropped_replies", "duplicate_replies", "exhausted", "reply_replays")
#: Counters booked on the issuing service's ``ServiceStats`` row.
_ON_SERVICE = ("retransmits", "recoveries", "recovery_wait_ns")


@dataclass
class RpcStats:
    """Aggregate reliability counters of a run (``RunResult.rpc``).

    Each counter has one book.  A call's retransmits and recoveries are
    booked on the calling service's ``ServiceStats`` row; the replies a
    channel dropped or replayed, and the calls that exhausted their budget,
    on each endpoint's :class:`RpcChannel`.  :meth:`collect` sums both so
    experiments read one place.  ``recovery_wait_ns`` accumulates, for each
    recovered call, the span from its *first* transmission to the reply
    that finally landed — ``mean_recovery_us`` is the recovery-latency
    column of the partition experiment.
    """

    dropped_replies: int = 0
    duplicate_replies: int = 0
    retransmits: int = 0
    recoveries: int = 0
    exhausted: int = 0
    reply_replays: int = 0
    recovery_wait_ns: int = 0

    @property
    def mean_recovery_us(self) -> float:
        if not self.recoveries:
            return 0.0
        return self.recovery_wait_ns / self.recoveries / 1e3

    @classmethod
    def collect(cls, channels: Iterable["RpcChannel"], services: Iterable = ()) -> "RpcStats":
        """The channel counters summed over ``channels``, the rest over
        ``services`` (duck-typed ``ServiceStats`` rows)."""
        channels, services = list(channels), list(services)
        return cls(
            **{name: sum(getattr(ch, name) for ch in channels) for name in _ON_CHANNEL},
            **{name: sum(getattr(s, name) for s in services) for name in _ON_SERVICE},
        )

    def minus(self, base: "RpcStats") -> "RpcStats":
        """Counter delta since ``base`` — a job's share of shared channels.

        Channels are per node, not per tenant, so a job's channel counters
        (``dropped_replies``, ``duplicate_replies``, ``exhausted``,
        ``reply_replays``) are the fleet totals between its admission and
        its finish; overlapping jobs show up in each other's window (a
        documented attribution caveat, not a bug).  The service-row counters
        are per tenant and exact.
        """
        return RpcStats(**{
            f.name: getattr(self, f.name) - getattr(base, f.name) for f in fields(self)
        })


@dataclass
class _Call:
    """Client-side state of one armed (timeout-carrying) call."""

    event: Event  # completes with the reply, or fails with RpcTimeout
    dst: int
    msg: Message
    timeout_ns: int
    retry: Optional[RetryPolicy]
    stats: object  # duck-typed ServiceStats; required once the call retransmits
    service: Optional[str]  # the issuing service, named by its timeout
    first_sent_ns: int
    attempt: int = 0  # retransmits sent so far
    #: The key of the one live timer (timeout window or backoff); a timer
    #: whose key is no longer this one is stale and ignored.
    timer: Optional[tuple[int, int]] = None


class RpcChannel:
    """One endpoint's delivery rules: outstanding calls, served requests,
    notification acks."""

    #: Hard cap on remembered tombstones; the oldest are evicted first.
    TOMBSTONE_LIMIT = 4096
    #: Tombstones older than this are swept whenever a new one is recorded —
    #: far beyond any frame's flight time through the fabric, so a late or
    #: replayed reply always finds its tombstone while it can still arrive.
    TOMBSTONE_TTL_NS = 1_000_000_000
    #: Bound on cached outbound replies (reply replay for retransmitted
    #: requests whose original was already served); FIFO eviction, same
    #: rationale as the tombstone cap.
    REPLY_CACHE_LIMIT = 1024
    #: Bound on remembered served request ids (replay detection); FIFO
    #: eviction (ids are globally unique, so an evicted one cannot collide).
    SERVED_LIMIT = 4096

    def __init__(self, sim: Simulator, endpoint):
        self.sim = sim
        self.endpoint = endpoint
        #: req_id -> an outstanding call: its completion event, or the
        #: :class:`_Call` holding it when the call is armed (timeout and/or
        #: retries).
        self._calls: dict[int, Event | _Call] = {}
        #: req_id -> (settled-at ns, "expired" | "completed"), oldest first.
        self._tombstones: OrderedDict[int, tuple[int, str]] = OrderedDict()
        #: No tombstone is older than this (the oldest one's stamp as of the
        #: last sweep): lets :meth:`_remember` skip a sweep that would find
        #: nothing.
        self._oldest_tomb_ns = 0
        #: req_id -> the reply frame we sent, for replay to retransmits.
        #: Only populated where calls retransmit (:meth:`arm`) — default
        #: runs keep zero extra state and zero extra wire traffic.
        self._sent_replies: OrderedDict[int, Message] = OrderedDict()
        self._reply_cache_enabled = False
        #: Request ids served here, oldest first (:meth:`first_delivery`).
        self._served: OrderedDict[int, None] = OrderedDict()
        #: What frames can do here (:meth:`arm`; a bare channel assumes the
        #: worst): any reply may come late or twice, so every settled call
        #: leaves a tombstone; a request may arrive twice, so the dispatchers
        #: behind this endpoint ask :meth:`first_delivery` before serving it.
        self.frames_repeat = True
        self.replays = True
        #: Notifications are acked calls rather than plain sends.
        self.acks = False
        self._halted = False
        self.dropped_replies = 0  # late replies to timed-out requests
        self.duplicate_replies = 0  # replayed replies to completed requests
        self.exhausted = 0  # calls that failed after their whole budget
        self.reply_replays = 0  # cached replies re-sent to retransmits

    # -- client side ----------------------------------------------------------

    def arm(self, *, faults: bool, retries: bool, acks: bool) -> None:
        """Keep only the bookkeeping a frame can read: ``faults`` says the
        fabric has a :class:`~repro.net.faults.FaultPlan`, ``retries`` that
        calls retransmit (which also arms the reply cache).  ``acks`` makes
        notifications acked calls (:meth:`notify`)."""
        self.frames_repeat = faults
        self.replays = faults or retries
        self._reply_cache_enabled = retries
        self.acks = acks

    def call(
        self,
        dst: int,
        msg: Message,
        *,
        timeout_ns: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        stats=None,
        service: Optional[str] = None,
    ) -> Event:
        """Send ``msg`` to ``dst``; the returned event fires with the reply.

        With ``timeout_ns`` set, the event instead *fails* with
        :class:`RpcTimeout` if the reply does not arrive in time (a late
        reply to a timed-out request is then dropped silently); the timeout
        names ``service``, the service issuing the call.  A ``retry``
        policy turns each expiry into a backoff + retransmission of a cloned
        frame until the budget runs out.  ``stats`` (a duck-typed
        :class:`~repro.core.stats.ServiceStats`) is the one book of the
        call's ``retransmits`` / ``recoveries`` / ``recovery_wait_ns``: a
        call that has to retransmit without one raises
        :class:`~repro.errors.ConfigError`, as a retry without
        ``timeout_ns`` does.
        """
        if retry is not None and timeout_ns is None:
            raise ConfigError("a retry policy needs timeout_ns to detect loss")
        ev = Event(self.sim)
        if self._halted:
            # The owning node crashed: the call goes nowhere and never
            # completes, which is what issuing an RPC from a dead machine
            # looks like.  No timer is armed — dead nodes do not retransmit.
            return ev
        # Transmit before registering: the call table is keyed by the req
        # id the endpoint stamps, and nothing is delivered synchronously.
        self.endpoint.transmit(dst, msg)
        if timeout_ns is None:
            self._calls[msg.req_id] = ev
        else:
            call = self._calls[msg.req_id] = _Call(
                event=ev, dst=dst, msg=msg, timeout_ns=timeout_ns, retry=retry,
                stats=stats, service=service, first_sent_ns=self.sim.now,
            )
            self._arm(call, timeout_ns, self._expired)
        return ev

    def notify(self, dst: int, msg: Message, request) -> Optional[Event]:
        """Send notification ``msg`` plainly (returns ``None``), or where
        notifications are acked issue it through ``request(dst, msg)``, the
        sender's budgeted call, and return that call's reply event."""
        if self.acks:
            return request(dst, msg)
        self.endpoint.transmit(dst, msg)
        return None

    def _arm(self, call: _Call, delay: int, fire) -> None:
        # A timer is one heap entry carrying a fresh key (req id, attempt):
        # it names the call by id, so a stale one keeps nothing alive, and
        # disarming is forgetting the key (``call.timer = None``).
        call.timer = key = (call.msg.req_id, call.attempt)
        self.sim.schedule(delay, fire, key)

    def _live(self, key: tuple[int, int]) -> Optional[_Call]:
        """The call the timer ``key`` fired for, unless that call settled
        (completed, failed or aborted) or re-armed meanwhile."""
        call = self._calls.get(key[0])
        if call.__class__ is not _Call or call.timer is not key:
            return None
        call.timer = None
        return call

    def _expired(self, key: tuple[int, int]) -> None:
        """One timeout window elapsed: retransmit (after backoff) or fail."""
        call = self._live(key)
        if call is None:
            return
        req_id = key[0]
        if call.retry is not None and call.attempt < call.retry.max_retries:
            if call.stats is None:
                # Every retransmit is booked on a service row, or
                # RunResult.rpc, their sum, would miss it.
                raise ConfigError("a retransmitting call needs a stats row to book it on")
            self._arm(
                call, call.retry.backoff_ns(call.attempt, req_id), self._retransmit
            )
            return
        # Budget exhausted (or no retry policy): fail the call.
        del self._calls[req_id]
        self._remember(req_id, "expired")
        if call.attempt:
            self.exhausted += 1
        health = self.endpoint.fabric.health
        if health is not None:
            # Retries or not, an unanswered budget means the peer is gone as
            # far as this call is concerned.
            health.exhausted_budget(call.dst)
        call.event.fail(RpcTimeout(call.msg, call.timeout_ns, call.attempt, call.service))

    def _retransmit(self, key: tuple[int, int]) -> None:
        """Backoff elapsed: re-send a clone and re-arm the timeout window."""
        call = self._live(key)
        if call is None:
            return
        call.attempt += 1
        call.stats.retransmits += 1
        health = self.endpoint.fabric.health
        if health is not None:
            health.retransmitted(call.dst)
        # Clone per the endpoint aliasing contract: the original instance is
        # owned by the fabric from its first transmission.
        self.endpoint.transmit(call.dst, clone_frame(call.msg))
        self._arm(call, call.timeout_ns, self._expired)

    def abort_peer(self, node: int) -> None:
        """Fail every pending armed call aimed at ``node``, right now.

        Invoked by the failure detector once a peer is declared dead: calls
        still waiting out their retry budgets against it cannot succeed, and
        letting each burn its full budget stalls the handler it blocks —
        long enough for *that* handler's clients to exhaust their own
        budgets in turn, cascading one node's death into a cluster-wide
        abort.  Tolerant handlers catch the early :class:`RpcTimeout`, see
        the peer latched as failed, and degrade instead.
        """
        doomed = [
            rid for rid, call in self._calls.items()
            if call.__class__ is _Call and call.dst == node
        ]
        for rid in doomed:
            call = self._calls.pop(rid)
            call.timer = None
            self._remember(rid, "expired")
            ev = call.event
            if not ev.triggered:
                # Absorb first: a call nobody awaited yet must not raise out
                # of the engine when its failure is processed (a later yield
                # still delivers the error into the awaiting process).
                ev.add_callback(lambda _e: None)
                ev.fail(RpcTimeout(call.msg, call.timeout_ns, call.attempt, call.service))

    def halt(self) -> None:
        """Kill the channel in place (the owning node crashed).

        Forgets all in-flight calls, so every armed timer is stale and a dead
        node's retransmit machinery cannot keep firing — a crashed machine
        does not report its peers as down, and its abandoned calls must
        suspend forever rather than raise into the node's service loops.
        Subsequent inbound replies are swallowed by :meth:`complete`.
        """
        self._calls.clear()
        self._halted = True

    # -- server side ----------------------------------------------------------

    def first_delivery(self, msg: Message) -> bool:
        """Whether request ``msg`` reaches a handler: true the first time its
        id arrives here (or when it has none, never having crossed the
        fabric).  A replay is not served again (side effects are not
        idempotent) but answered from the reply cache, since a retransmit
        means its reply was lost.  Asked only where :attr:`replays` is set."""
        req_id = msg.req_id
        served = self._served
        if req_id in served:
            # Nothing cached means the cache is off or evicted, or the
            # original dispatch is still running: its eventual reply, or the
            # client's next retransmit, covers that.
            cached = self._sent_replies.get(req_id)
            if cached is not None:
                self.reply_replays += 1
                self.endpoint.transmit(msg.src, clone_frame(cached))
            return False
        if req_id:
            served[req_id] = None
            if len(served) > self.SERVED_LIMIT:
                served.popitem(last=False)
        return True

    def reply(self, to: Message, msg: Message) -> None:
        """Send ``msg`` as the reply correlated with request ``to``.

        The reply inherits the request's tenant, so per-tenant traffic
        attribution holds on both halves of every RPC no matter which layer
        built the reply frame.
        """
        msg.in_reply_to = to.req_id
        msg.tenant = to.tenant
        if self._reply_cache_enabled:
            cache = self._sent_replies
            cache[to.req_id] = msg
            cache.move_to_end(to.req_id)
            while len(cache) > self.REPLY_CACHE_LIMIT:
                cache.popitem(last=False)
        self.endpoint.transmit(to.src, msg)

    def acknowledge(self, msg: Message) -> None:
        """Answer notification ``msg`` (:meth:`notify`): an ``Ack`` where
        notifications are acked calls, nothing where they are plain sends —
        replying to a fire-and-forget frame would be a protocol error."""
        if self.acks:
            self.reply(msg, Ack())

    # -- delivery (called by the endpoint) -------------------------------------

    def complete(self, msg: Message) -> None:
        """Resolve the pending request that ``msg`` replies to."""
        if self._halted:
            return  # the node is dead; whatever arrives no longer matters
        req_id = msg.in_reply_to
        call = self._calls.pop(req_id, None)
        if call is None:
            tomb = self._tombstones.get(req_id)
            if tomb is not None:
                if tomb[1] == "expired":
                    self.dropped_replies += 1  # late reply, dropped
                else:
                    self.duplicate_replies += 1  # replayed frame, dropped
                return
            raise NetworkError(
                f"node {self.endpoint.node_id}: reply to unknown request {req_id}"
            )
        health = self.endpoint.fabric.health
        if health is not None:
            health.heard_from(msg.src)
        if call.__class__ is _Call:  # an armed call: disarm it, count a recovery
            call.timer = None
            if call.attempt:
                call.stats.recoveries += 1
                call.stats.recovery_wait_ns += self.sim.now - call.first_sent_ns
            self._remember(req_id, "completed")
            call.event.succeed(msg)
        else:
            if self.frames_repeat:
                self._remember(req_id, "completed")
            call.succeed(msg)

    # -- tombstones -------------------------------------------------------------

    def _remember(self, req_id: int, why: str) -> None:
        """Record a settled correlation id, sweeping stale tombstones.

        Eviction is two-tier: anything older than the TTL goes (its reply can
        no longer be in flight), and the table never exceeds the hard cap
        even inside the TTL window.
        """
        tombs = self._tombstones
        now = self.sim.now
        if req_id in tombs:
            # Settled before (a re-issued frame keeps its id): young again.
            # Ids are otherwise new here, and a new key lands at the end.
            del tombs[req_id]
        tombs[req_id] = (now, why)
        horizon = now - self.TOMBSTONE_TTL_NS
        if len(tombs) <= self.TOMBSTONE_LIMIT and self._oldest_tomb_ns >= horizon:
            return
        while tombs:
            stamp, _why = next(iter(tombs.values()))
            if stamp >= horizon and len(tombs) <= self.TOMBSTONE_LIMIT:
                self._oldest_tomb_ns = stamp
                break
            tombs.popitem(last=False)

    @property
    def in_flight(self) -> int:
        return len(self._calls)

    @property
    def tombstones(self) -> int:
        return len(self._tombstones)

    @property
    def cached_replies(self) -> int:
        return len(self._sent_replies)
