"""Memory interface between the DBT engine and a memory system.

The execution engine is memory-system agnostic: it runs against anything
implementing :class:`MemoryAPI`.  Unit tests, the differential oracle and
the single-node QEMU baseline use :class:`~repro.mem.flat.FlatMemory`; DQEMU
nodes use its subclass :class:`~repro.core.dsmmem.DSMMemory`, whose accesses
can raise :class:`PageStall` when the coherence protocol must fetch a page —
the software equivalent of the page-protection faults DQEMU relies on (§4.2).

GA64 access rules enforced here:

* any alignment within one page is legal; an access crossing a page boundary
  raises :class:`UnalignedAccess` (statically-linked guests keep data aligned);
* atomics must be 8-byte aligned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.errors import UnalignedAccess
from repro.mem.layout import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.dbt.cpu import CPUState
    from repro.mem.msi import MSIState

__all__ = ["PageStall", "MemoryAPI", "check_span", "sign_extend", "M64"]

M64 = 0xFFFF_FFFF_FFFF_FFFF


class PageStall(Exception):
    """A guest access needs a page the local node does not hold (or holds in
    an insufficient state).  Carries what the DSM client needs to issue the
    page request; the faulting instruction is re-executed afterwards.

    Deliberately *not* a ReproError: it is control flow, not a failure.
    """

    __slots__ = ("page", "write", "offset", "size")

    def __init__(self, page: int, write: bool, offset: int, size: int = 8):
        self.page = page
        self.write = write
        self.offset = offset
        self.size = size  # access width — the false-sharing detector needs it

    # Raised on every fault and read by nobody on the way: the text is built
    # only when something (a traceback, a log line) asks for it.
    def __str__(self) -> str:
        return f"page stall: page={self.page:#x} write={self.write}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


def check_span(addr: int, size: int, *, pc: int | None = None) -> None:
    """Reject accesses that cross a page boundary."""
    if (addr & (PAGE_SIZE - 1)) + size > PAGE_SIZE:
        raise UnalignedAccess(
            f"access of {size} bytes at {addr:#x} crosses a page boundary",
            pc=pc,
            addr=addr,
        )


def sign_extend(value: int, size: int) -> int:
    """Sign-extend a ``size``-byte little-endian value to unsigned 64-bit."""
    sign = 1 << (8 * size - 1)
    return ((value & (sign - 1)) - (value & sign)) & M64


class MemoryAPI(Protocol):
    """What the interpreter and translated code require of memory.

    Resident-access view.  Translated code does not call :meth:`load` /
    :meth:`store` for an access the page already permits: it tests these four
    containers inline and indexes the page's buffer itself
    (:mod:`repro.dbt.backend`).  A load hits iff ``split_pages`` is empty, the
    span stays inside the page and the page has an entry in ``page_states``; a
    store iff additionally ``reservations`` is empty and the state is
    Modified.  Everything else calls the method (translated code through
    ``miss_load`` / ``miss_store``, which may return a page stall instead of
    raising it — ``FlatMemory.miss_load``), which is therefore the miss arm
    (and the interpreter's only path) and must behave exactly as if every
    access came through it.  Generated functions read the four attributes
    from their ``mem`` argument on entry and the memory mutates them in place
    for its whole life, so none may ever be rebound.
    """

    #: page → coherence state; a page with no entry is Invalid.
    page_states: dict[int, "MSIState"]
    #: page → its bytes; every page in ``page_states`` has one, a
    #: ``bytearray`` while Modified (``repro.mem.pagestore``'s buffer rule).
    page_bufs: dict[int, "bytes | bytearray"]
    #: Non-empty while any page is split into shadow pages (§5.1).
    split_pages: dict
    #: Non-empty while any LL reservation is armed (§4.4).
    reservations: dict

    def load(self, addr: int, size: int, signed: bool) -> int:
        """Read ``size`` bytes; returns the 64-bit (sign/zero extended) value."""
        ...

    def store(self, addr: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value``."""
        ...

    def fetch_code(self, addr: int, size: int) -> bytes:
        """Instruction fetch (read-shared); used by the DBT frontend."""
        ...

    def load_reserved(self, cpu: "CPUState", addr: int) -> int:
        """LL: 64-bit load plus reservation registration (§4.4)."""
        ...

    def store_conditional(self, cpu: "CPUState", addr: int, value: int) -> bool:
        """SC: store iff the reservation survives; returns success."""
        ...

    def atomic_cas(self, cpu: "CPUState", addr: int, expected: int, desired: int) -> int:
        """CAS: returns the old value; stores ``desired`` on match."""
        ...

    def atomic_add(self, cpu: "CPUState", addr: int, operand: int) -> int:
        ...

    def atomic_swap(self, cpu: "CPUState", addr: int, operand: int) -> int:
        ...
