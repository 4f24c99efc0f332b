"""Guest memory: the one implementation of what a guest access does.

:class:`FlatMemory` implements :class:`~repro.mem.api.MemoryAPI` over one
:class:`~repro.mem.pagestore.PageStore` and one
:class:`~repro.mem.llsc.LLSCTable`.  An access whose page already permits it
is served inline — span check, state lookup, ``bytearray`` slice; everything
else goes through :meth:`FlatMemory._resolve`, the only thing a variant
overrides.  Here memory is private to one emulator (DBT unit tests, the
differential interpreter oracle, the single-node QEMU baseline where the host
hardware keeps memory coherent), so a miss zero-fills a Modified page;
:class:`~repro.core.dsmmem.DSMMemory` turns the miss into the page fault that
drives the coherence protocol.

Translated code makes the same inline test itself, on the same containers
(the resident-access view of :class:`~repro.mem.api.MemoryAPI`), and calls
:meth:`~FlatMemory.load` / :meth:`~FlatMemory.store` only when it fails: the
two methods are the DBT's miss arm and the interpreter's only path, and must
stay correct for every access either way.

LL/SC semantics follow the paper's intra-node scheme: a reservation table
keyed by address; any store to a reserved cell kills the reservation
(conservative, like QEMU's emulation).  The store check is only performed
while the table is non-empty — the paper makes the same observation that the
LL→SC window is short so checks are rare (§4.4).
"""

from __future__ import annotations

from struct import Struct
from typing import TYPE_CHECKING, Iterator

from repro.errors import UnalignedAccess
from repro.mem.api import M64, check_span, sign_extend
from repro.mem.layout import PAGE_SHIFT, PAGE_SIZE
from repro.mem.llsc import LLSCTable
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.dbt.cpu import CPUState

__all__ = ["FlatMemory", "UNPACK", "PACK"]

OFFSET_MASK = PAGE_SIZE - 1
MODIFIED = MSIState.MODIFIED

#: The wide accessors, one table for both sides of the hit test: the methods
#: below and the hit arms of translated code (which holds the same callables
#: in its globals) read and write a 2/4/8-byte little-endian value in place in
#: a page's ``bytearray`` — no slice, no intermediate ``bytes``.
#: ``UNPACK[size, signed](buf, off)[0]`` is the value (negative when a signed
#: narrow one has its top bit set: mask to 64 bits); ``PACK[size](buf, off, v)``
#: stores ``v``, already reduced to ``size`` bytes.  One byte is an index.
UNPACK = {
    (2, False): Struct("<H").unpack_from, (2, True): Struct("<h").unpack_from,
    (4, False): Struct("<I").unpack_from, (4, True): Struct("<i").unpack_from,
    (8, False): Struct("<Q").unpack_from,  # 8 signed bytes are the register as it is
}
PACK = {2: Struct("<H").pack_into, 4: Struct("<I").pack_into, 8: Struct("<Q").pack_into}
_UNPACK8 = UNPACK[8, False]
_PACK8 = PACK[8]


class FlatMemory:
    """Sparse private memory: every page local, writable, zero until written."""

    def __init__(self) -> None:
        self._own(PageStore(), LLSCTable())

    def _own(self, pages: PageStore, llsc: LLSCTable) -> None:
        self.pages = pages
        self.llsc = llsc
        # The resident-access view (MemoryAPI): neither container ever rebinds
        # its dicts, so this path and translated code test and index them
        # directly instead of paying a call per lookup.
        self.page_bufs = pages._pages
        self.page_states = pages._states
        self.reservations = llsc._res
        self.split_pages: dict = {}  # private memory never splits a page

    def _resolve(self, addr: int, size: int, write: bool) -> int:
        """Make the page of ``[addr, addr+size)`` permit the access and return
        the address that serves it.  This is what a permission miss does, and
        all a variant changes: private memory zero-fills the page Modified."""
        check_span(addr, size)
        page = addr >> PAGE_SHIFT
        if self.page_states.get(page) is not MODIFIED:
            self.pages.ensure(page, MODIFIED)
        return addr

    # -- MemoryAPI ------------------------------------------------------------

    def load(self, addr: int, size: int, signed: bool) -> int:
        off = addr & OFFSET_MASK
        page = addr >> PAGE_SHIFT
        if off + size > PAGE_SIZE or page not in self.page_states:
            # A shadow page keeps the original's offsets, so ``off`` stands.
            page = self._resolve(addr, size, False) >> PAGE_SHIFT
        if size == 1:
            value = self.page_bufs[page][off]
            return sign_extend(value, 1) if signed else value
        if size == 8:
            return _UNPACK8(self.page_bufs[page], off)[0]
        return UNPACK[size, signed](self.page_bufs[page], off)[0] & M64

    def store(self, addr: int, size: int, value: int) -> None:
        off = addr & OFFSET_MASK
        page = addr >> PAGE_SHIFT
        if off + size > PAGE_SIZE or self.page_states.get(page) is not MODIFIED:
            addr = self._resolve(addr, size, True)
            page = addr >> PAGE_SHIFT
        if size == 1:
            self.page_bufs[page][off] = value & 255
        else:
            PACK[size](self.page_bufs[page], off, value & ((1 << (8 * size)) - 1))
        if self.reservations:
            self.llsc.kill_store(addr, size)

    def fetch_code(self, addr: int, size: int) -> bytes:
        addr = self._resolve(addr, size, False)
        off = addr & OFFSET_MASK
        return bytes(self.page_bufs[addr >> PAGE_SHIFT][off : off + size])

    # -- atomics (two-level scheme, §4.4) --------------------------------------

    def _cell(self, addr: int, write: bool) -> tuple[int, bytearray, int]:
        """An atomic's 8-byte cell: (serving address, page buffer, offset)."""
        if addr % 8:
            raise UnalignedAccess(f"atomic access to unaligned address {addr:#x}", addr=addr)
        addr = self._resolve(addr, 8, write)
        return addr, self.page_bufs[addr >> PAGE_SHIFT], addr & OFFSET_MASK

    def _put_cell(self, addr: int, buf: bytearray, off: int, value: int) -> None:
        _PACK8(buf, off, value & M64)
        self.llsc.kill_store(addr, 8)

    def load_reserved(self, cpu: "CPUState", addr: int) -> int:
        addr, buf, off = self._cell(addr, False)
        self.llsc.reserve(addr, cpu.tid)
        return _UNPACK8(buf, off)[0]

    def store_conditional(self, cpu: "CPUState", addr: int, value: int) -> bool:
        # SC stores, so it needs the page Modified — this is what makes one
        # node's spinlock exclusive cluster-wide (Fig. 3).
        addr, buf, off = self._cell(addr, True)
        if not self.llsc.consume(addr, cpu.tid):
            return False
        _PACK8(buf, off, value & M64)
        return True

    def atomic_cas(self, cpu: "CPUState", addr: int, expected: int, desired: int) -> int:
        addr, buf, off = self._cell(addr, True)
        old = _UNPACK8(buf, off)[0]
        if old == (expected & M64):
            self._put_cell(addr, buf, off, desired)
        return old

    def atomic_add(self, cpu: "CPUState", addr: int, operand: int) -> int:
        addr, buf, off = self._cell(addr, True)
        old = _UNPACK8(buf, off)[0]
        self._put_cell(addr, buf, off, old + operand)
        return old

    def atomic_swap(self, cpu: "CPUState", addr: int, operand: int) -> int:
        addr, buf, off = self._cell(addr, True)
        old = _UNPACK8(buf, off)[0]
        self._put_cell(addr, buf, off, operand)
        return old

    # -- byte ranges (loader, kernel) --------------------------------------------

    def _pieces(self, addr: int, size: int, write: bool) -> Iterator[tuple[int, int]]:
        """``[addr, addr+size)`` cut at page boundaries: (serving address,
        length) per piece, each resolved like any other access."""
        while size > 0:
            n = min(size, PAGE_SIZE - (addr & OFFSET_MASK))
            yield self._resolve(addr, n, write), n
            addr += n
            size -= n

    def read_bytes(self, addr: int, size: int) -> bytes:
        out = bytearray()
        for at, n in self._pieces(addr, size, False):
            off = at & OFFSET_MASK
            out += self.page_bufs[at >> PAGE_SHIFT][off : off + n]
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        pos = 0
        for at, n in self._pieces(addr, len(data), True):
            off = at & OFFSET_MASK
            self.page_bufs[at >> PAGE_SHIFT][off : off + n] = data[pos : pos + n]
            if self.reservations:
                self.llsc.kill_store(at, n)
            pos += n

    def load_image(self, segments) -> None:
        """Copy ``(vaddr, bytes-like)`` segments (e.g. Program sections) in."""
        for vaddr, data in segments:
            self.write_bytes(vaddr, data)
