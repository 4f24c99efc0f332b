"""Protocol frames exchanged between DQEMU instances.

The DQEMU master/slave protocol (paper §4) is message-based: page requests and
contents, invalidations, syscall delegation, remote thread creation, futex
wakeups, split-table broadcasts and forwarded pages.  Each frame knows its
wire size so the fabric can model serialization delay; a 64-byte header
approximates Ethernet + IP + TCP framing for the small control messages the
paper measures (55 µs RTT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional

__all__ = [
    "Message",
    "PageRequest",
    "PageData",
    "Invalidate",
    "InvalidateAck",
    "WriteBack",
    "PagePush",
    "SyscallRequest",
    "SyscallReply",
    "MergeRequest",
    "Ack",
    "SpawnThread",
    "SpawnAck",
    "FutexWake",
    "SplitTableUpdate",
    "Shutdown",
    "StartDrain",
    "EvacuateThread",
    "DrainComplete",
    "Checkpoint",
    "Heartbeat",
    "HEADER_BYTES",
]

HEADER_BYTES = 64


class _Frame:
    """What a frame carries besides its fields: the receiving endpoint's
    mailbox-arrival stamp (``Endpoint.on_arrival``), unset until the frame
    is queued.  A declared slot, so it is no field — not compared, not in
    ``repr``, not copied by :func:`~repro.net.faults.clone_frame`."""

    __slots__ = ("_arrived_ns",)


@dataclass(kw_only=True, slots=True)
class Message(_Frame):
    """Base protocol frame.

    ``src`` is stamped by the sending endpoint; ``req_id`` / ``in_reply_to``
    implement RPC correlation.  ``req_id`` starts unassigned (0) and is
    stamped from the owning :class:`~repro.net.fabric.Fabric`'s sequence the
    first time the frame is transmitted — frames cloned for retransmission
    keep their id so receivers can deduplicate.  ``tenant`` names the job the
    frame belongs to (0 for single-job runs); it rides inside the fixed
    64-byte header, so tagging adds no wire cost.
    """

    kind: ClassVar[str] = "message"

    src: int = -1
    dst: int = -1
    req_id: int = 0
    in_reply_to: int = 0
    tenant: int = 0

    def payload_bytes(self) -> int:
        return 0

    def size_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes()


@dataclass(kw_only=True, slots=True)
class PageRequest(Message):
    """Slave → master: bring a guest page to ``src`` in S (read) or M (write).

    ``offset`` is the faulting offset within the page — the master's
    false-sharing detector clusters offsets to decide on page splitting.
    """

    kind: ClassVar[str] = "page_request"
    page: int = 0
    write: bool = False
    offset: int = 0
    size: int = 8  # faulting access width (false-sharing geometry inference)


@dataclass(kw_only=True, slots=True)
class PageData(Message):
    """Master → slave: page content grant (reply to :class:`PageRequest`).

    ``retry=True`` means the requested page was split (or merged) since the
    request was sent; the node must re-translate the address against its
    freshly broadcast split table and fault again.
    """

    kind: ClassVar[str] = "page_data"
    page: int = 0
    write: bool = False
    data: bytes = b""
    retry: bool = False
    #: The node already holds the page (a demand fault raced a forwarded
    #: page): no payload needed, the frame is a bare directory ack.
    ack_only: bool = False
    #: MESI Exclusive-clean read grant (docs/PROTOCOL.md "Coherence
    #: protocols"): no other node holds the page, so the receiver installs
    #: it E and may later upgrade E→M locally with no master round trip.
    #: Never set under the default MSI protocol.
    exclusive: bool = False
    #: Payload-free Shared→Modified upgrade grant: the requester already
    #: holds a current copy (it was a sharer), so the reply carries no
    #: data — it just flips the local state to M.  Never set under MSI.
    upgrade: bool = False

    def payload_bytes(self) -> int:
        return len(self.data)


@dataclass(kw_only=True, slots=True)
class Invalidate(Message):
    """Master → sharer/owner: drop the page (I state); owner sends data back."""

    kind: ClassVar[str] = "invalidate"
    page: int = 0
    want_data: bool = False


@dataclass(kw_only=True, slots=True)
class InvalidateAck(Message):
    """Reply to :class:`Invalidate`; carries the page if it was Modified."""

    kind: ClassVar[str] = "invalidate_ack"
    page: int = 0
    data: Optional[bytes] = None

    def payload_bytes(self) -> int:
        return len(self.data) if self.data else 0


@dataclass(kw_only=True, slots=True)
class WriteBack(Message):
    """Master → owner: downgrade M → S, returning the current content."""

    kind: ClassVar[str] = "write_back"
    page: int = 0


@dataclass(kw_only=True, slots=True)
class PagePush(Message):
    """Master → slave: unsolicited forwarded page in Shared state (§5.2)."""

    kind: ClassVar[str] = "page_push"
    page: int = 0
    data: bytes = b""

    def payload_bytes(self) -> int:
        return len(self.data)


@dataclass(kw_only=True, slots=True)
class SyscallRequest(Message):
    """Slave → master: delegate a global syscall (§4.3).

    Carries the syscall number, raw argument registers and the CPU context
    size the paper mentions (we bill a fixed context payload).
    """

    kind: ClassVar[str] = "syscall_request"
    tid: int = 0
    sysno: int = 0
    args: tuple[int, ...] = ()
    context: Any = None  # guest CPU snapshot (paper: "includes guest CPU context")

    def payload_bytes(self) -> int:
        return 8 * (2 + len(self.args)) + 256  # regs + context snapshot


@dataclass(kw_only=True, slots=True)
class SyscallReply(Message):
    kind: ClassVar[str] = "syscall_reply"
    retval: int = 0
    parked: bool = False  # futex_wait: thread sleeps until a FutexWake
    exited: bool = False  # exit/exit_group: the calling thread is finished
    migrated: bool = False  # sched_setaffinity: thread now runs on another node

    def payload_bytes(self) -> int:
        return 16


@dataclass(kw_only=True, slots=True)
class SpawnThread(Message):
    """Master → slave: create a guest thread remotely with a cloned context."""

    kind: ClassVar[str] = "spawn_thread"
    tid: int = 0
    context: Any = None  # CPUState snapshot (billed as fixed-size blob)

    def payload_bytes(self) -> int:
        return 1024  # registers + thread metadata


@dataclass(kw_only=True, slots=True)
class SpawnAck(Message):
    kind: ClassVar[str] = "spawn_ack"
    tid: int = 0


@dataclass(kw_only=True, slots=True)
class FutexWake(Message):
    """Master → slave: wake a thread parked in futex_wait on that node."""

    kind: ClassVar[str] = "futex_wake"
    tid: int = 0
    retval: int = 0


@dataclass(kw_only=True, slots=True)
class SplitTableUpdate(Message):
    """Master → all slaves: new shadow-page mapping entries (§5.1)."""

    kind: ClassVar[str] = "split_table_update"
    entries: tuple = ()  # tuple of SplitEntry

    def payload_bytes(self) -> int:
        return 32 * len(self.entries)


@dataclass(kw_only=True, slots=True)
class MergeRequest(Message):
    """Slave → master: an access spans split-region boundaries — merge the
    shadow pages back into the original page (§5.1 correctness escape hatch)."""

    kind: ClassVar[str] = "merge_request"
    page: int = 0  # original (pre-split) page


@dataclass(kw_only=True, slots=True)
class Ack(Message):
    """Generic acknowledgement (split-table installs, shutdown)."""

    kind: ClassVar[str] = "ack"


@dataclass(kw_only=True, slots=True)
class Shutdown(Message):
    """Master → slave: guest program finished; stop service loops."""

    kind: ClassVar[str] = "shutdown"


@dataclass(kw_only=True, slots=True)
class StartDrain(Message):
    """Master → slave: stop running guest threads; evacuate them instead.

    The node keeps serving coherence traffic (its pages migrate away lazily)
    but every thread that reaches a scheduling point is shipped back to the
    master as an :class:`EvacuateThread` for re-placement on a healthy peer.
    """

    kind: ClassVar[str] = "start_drain"


@dataclass(kw_only=True, slots=True)
class EvacuateThread(Message):
    """Slave → master: re-home this live thread; carries its full context."""

    kind: ClassVar[str] = "evacuate_thread"
    tid: int = 0
    context: Any = None  # CPUState snapshot, same blob as SpawnThread

    def payload_bytes(self) -> int:
        return 1024  # registers + thread metadata


@dataclass(kw_only=True, slots=True)
class DrainComplete(Message):
    """Slave → master: the drained node's last guest thread is gone."""

    kind: ClassVar[str] = "drain_complete"


@dataclass(kw_only=True, slots=True)
class Checkpoint(Message):
    """Slave → master: periodic snapshot of one running thread.

    Carries the register context plus byte-copies of every page the tenant
    holds Modified on the sending node, taken synchronously at a quantum
    boundary — the write-back barrier that makes the snapshot a consistent
    cut (docs/PROTOCOL.md "Checkpoint/restore").  ``taken_ns`` orders
    checkpoints for the same tid; the master keeps only the newest.
    """

    kind: ClassVar[str] = "checkpoint"
    tid: int = 0
    taken_ns: int = 0
    context: Any = None  # CPUState snapshot, same blob as SpawnThread
    pages: tuple = ()  # tuple of (page_no, bytes)

    def payload_bytes(self) -> int:
        return 1024 + sum(16 + len(data) for _, data in self.pages)


@dataclass(kw_only=True, slots=True)
class Heartbeat(Message):
    """Slave → master: lease-renewal liveness frame (docs/PROTOCOL.md
    "Failure detection").

    Fire-and-forget — no reply, no retransmit state — so nothing ever
    accumulates against a corpse, and the frame rides the fabric's fault
    seam like every other: a drop/delay/partition plan exercises the
    detector directly.  ``seq`` orders a sender's renewals for telemetry;
    the master only cares that *a* renewal landed inside the lease.
    """

    kind: ClassVar[str] = "heartbeat"
    seq: int = 0

    def payload_bytes(self) -> int:
        return 16  # sequence number + sender clock sample
