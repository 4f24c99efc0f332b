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
from repro.sim.engine import Simulator
from repro.sim.sync import SimQueue

__all__ = ["Endpoint"]


class Endpoint:
    """A node's NIC: send/request/reply plus subscriber queues."""

    def __init__(self, sim: Simulator, fabric: Fabric, node_id: int):
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.rpc = RpcChannel(sim, self)
        #: ``request(dst, msg, *, timeout_ns, retry, stats, service)``: send
        #: ``msg`` and return an event firing with the reply message — the
        #: channel's :meth:`~repro.net.rpc.RpcChannel.call`, which documents
        #: the reliability options.
        self.request = self.rpc.call
        #: ``reply(to, msg)``: send ``msg`` as the reply correlated with
        #: request ``to`` (:meth:`~repro.net.rpc.RpcChannel.reply`).
        self.reply = self.rpc.reply
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
            msg.req_id = next(self.fabric.req_ids)
        msg.src = self.node_id
        msg.dst = dst
        self.fabric.transmit(msg)

    #: Fire-and-forget transmission.
    send = transmit

    # -- receiving (called by the fabric) ------------------------------------

    def on_arrival(self, msg: Message) -> None:
        """The fabric's delivery callback: hand the frame to the RPC channel
        or a subscriber queue."""
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

    #: Hand a frame on exactly as if the fabric had just delivered it.
    deliver = on_arrival

    @property
    def pending_requests(self) -> int:
        return self.rpc.in_flight
