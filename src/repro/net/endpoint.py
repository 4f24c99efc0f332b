"""Per-node network interface with kind-based routing and an RPC channel.

Each DQEMU instance owns one :class:`Endpoint`.  Outbound messages are
stamped with the node id; inbound messages are routed either to the
endpoint's :class:`~repro.net.rpc.RpcChannel` (``in_reply_to`` set) or to
the subscriber queue for a routing key.  The default routing key is the
message *kind*; the master overrides this to route each slave's requests to
that slave's dedicated manager thread, mirroring the paper's
one-manager-per-slave design (§4, Fig. 2).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.errors import NetworkError
from repro.net.fabric import Fabric
from repro.net.messages import Message
from repro.net.rpc import RpcChannel
from repro.sim.engine import Event, Simulator
from repro.sim.sync import SimQueue

__all__ = ["Endpoint"]


class Endpoint:
    """A node's NIC: send/request/reply plus subscriber queues."""

    def __init__(self, sim: Simulator, fabric: Fabric, node_id: int):
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.rpc = RpcChannel(sim, self)
        self._queues: dict[Hashable, SimQueue] = {}
        self._route: Callable[[Message], Hashable] = lambda msg: msg.kind
        self._default_queue: Optional[SimQueue] = None
        fabric.attach(self)

    # -- configuration ------------------------------------------------------

    def set_router(self, route: Callable[[Message], Hashable]) -> None:
        """Replace the routing-key function for non-reply inbound messages."""
        self._route = route

    def subscribe(self, key: Hashable) -> SimQueue:
        """Queue receiving every inbound message whose routing key is ``key``."""
        if key not in self._queues:
            self._queues[key] = SimQueue(self.sim)
        return self._queues[key]

    def subscribe_default(self) -> SimQueue:
        """Queue receiving inbound messages with no subscribed key."""
        if self._default_queue is None:
            self._default_queue = SimQueue(self.sim)
        return self._default_queue

    # -- sending ------------------------------------------------------------

    def transmit(self, dst: int, msg: Message) -> None:
        """Stamp addressing and put ``msg`` on the wire (no correlation).

        The frame gets a request id from the fabric's sequence unless it
        already carries one (a retransmit clone, a cached-reply resend), so
        deduplication by id still works.  The caller's object is stamped *in
        place* and owned by the fabric from here on — anything re-injecting a
        frame (the fault injector's duplicate action, a hypothetical
        retransmit layer) must send a copy
        (:func:`repro.net.faults.clone_frame`), never the same instance.
        """
        if not msg.req_id:
            msg.req_id = self.fabric.next_req_id()
        msg.src = self.node_id
        msg.dst = dst
        self.fabric.transmit(msg)

    def send(self, dst: int, msg: Message) -> None:
        """Fire-and-forget transmission."""
        self.transmit(dst, msg)

    def request(
        self,
        dst: int,
        msg: Message,
        *,
        timeout_ns: Optional[int] = None,
        retry=None,
        stats=None,
        service: Optional[str] = None,
    ) -> Event:
        """Send ``msg`` and return an event firing with the reply message.

        ``retry`` (a :class:`~repro.net.rpc.RetryPolicy`) arms loss recovery
        on top of the timeout; ``stats`` receives the per-service
        retransmit/recovery counts and ``service``, the issuing service's
        name, is what a timeout names (see :meth:`RpcChannel.call`).
        """
        return self.rpc.call(
            dst, msg, timeout_ns=timeout_ns, retry=retry, stats=stats, service=service
        )

    def reply(self, to: Message, msg: Message) -> None:
        """Send ``msg`` as the reply correlated with request ``to``."""
        self.rpc.reply(to, msg)

    # -- receiving (called by the fabric) ------------------------------------

    def on_arrival(self, timer: Event) -> None:
        """The fabric's delivery callback (the frame is the timer's value):
        hand the frame to the RPC channel or a subscriber queue."""
        msg = timer._value
        if msg.in_reply_to:
            self.rpc.complete(msg)
            return
        # Mailbox-arrival stamp: dispatchers subtract this from their dispatch
        # start to attribute queue wait (head-of-line blocking) per service.
        # A declared slot, not a frame field — it never hits the wire model
        # and re-stamps naturally on injected duplicates.
        msg._arrived_ns = self.sim.now
        key = self._route(msg)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._default_queue
        if queue is None:
            raise NetworkError(
                f"node {self.node_id}: no subscriber for key {key!r} (kind={msg.kind})"
            )
        queue.put(msg)

    def deliver(self, msg: Message) -> None:
        """Hand ``msg`` on exactly as if the fabric had just delivered it."""
        carrier = Event(self.sim)
        carrier._value = msg
        self.on_arrival(carrier)

    @property
    def pending_requests(self) -> int:
        return self.rpc.in_flight
