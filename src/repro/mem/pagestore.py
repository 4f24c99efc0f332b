"""Per-node page storage.

Each DQEMU instance holds copies of the guest pages it currently caches,
tagged with their MSI coherence state.  The store is a dict of 4 KiB page
buffers — sparse, so a 1 GB guest region costs nothing until touched (the
paper's Table 1 experiment reserves 1 GB on the master).

A page costs host memory once per version, not once per holder.  The buffer
rule: a Modified page's buffer is a ``bytearray`` this store alone writes;
any other page's buffer is an immutable ``bytes`` that every store holding
the same version may share (a home copy, the frame that carried it and the
node copies it was granted to are one object).  Every way a page becomes
writable — :meth:`set_state` to Modified, :meth:`silently_upgrade`,
:meth:`ensure`, :meth:`raw` — first makes the buffer a private
``bytearray``; a page that is not Modified but still a ``bytearray`` (a home
page the loader or a syscall wrote) is frozen into the ``bytes`` the next
:meth:`snapshot` returns.  Reads never convert.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import SegmentationFault
from repro.mem.layout import PAGE_SIZE, page_of, page_offset
from repro.mem.msi import MSIState

__all__ = ["PageStore", "ZERO_PAGE"]

#: The content of every page nobody has written, shared by all who read one.
ZERO_PAGE = bytes(PAGE_SIZE)


class PageStore:
    """Sparse page container with per-page MSI state."""

    def __init__(self) -> None:
        # Never rebound, and a page with no entry in ``_states`` is Invalid:
        # FlatMemory exposes both dicts as MemoryAPI's resident-access view,
        # and its access path and translated code rely on that.
        self._pages: dict[int, bytes | bytearray] = {}
        self._states: dict[int, MSIState] = {}

    # -- state bookkeeping ----------------------------------------------------

    def state(self, page: int) -> MSIState:
        return self._states.get(page, MSIState.INVALID)

    def set_state(self, page: int, state: MSIState) -> None:
        if state is MSIState.INVALID:
            self._states.pop(page, None)
        else:
            if state is MSIState.MODIFIED and page in self._pages:
                self.raw(page)
            self._states[page] = state

    def has_read(self, page: int) -> bool:
        return self._states.get(page, MSIState.INVALID) is not MSIState.INVALID

    def has_write(self, page: int) -> bool:
        return self._states.get(page) is MSIState.MODIFIED

    def silently_upgrade(self, page: int) -> bool:
        """MESI's silent E→M transition: an Exclusive-clean copy becomes
        Modified with no master round trip (docs/PROTOCOL.md "Coherence
        protocols").  Returns whether the upgrade happened — the caller
        counts it as a saved round trip.  Any other state is untouched."""
        if self._states.get(page) is MSIState.EXCLUSIVE:
            self.raw(page)
            self._states[page] = MSIState.MODIFIED
            return True
        return False

    # -- page installation ------------------------------------------------------

    def install(self, page: int, data: bytes, state: MSIState) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page data must be {PAGE_SIZE} bytes, got {len(data)}")
        # ``bytes(data)`` is ``data`` itself when it already is a bytes.
        self._pages[page] = bytearray(data) if state is MSIState.MODIFIED else bytes(data)
        self.set_state(page, state)

    def ensure(self, page: int, state: MSIState) -> bytearray:
        """Get-or-create a zeroed page in ``state`` and return its writable
        buffer (master-side allocation, the loader, private memory)."""
        if page not in self._pages:
            self._pages[page] = bytearray(PAGE_SIZE)
        self.set_state(page, state)
        return self.raw(page)

    def drop(self, page: int) -> Optional[bytes]:
        """Invalidate: remove the local copy, returning it (for write-back)."""
        self._states.pop(page, None)
        buf = self._pages.pop(page, None)
        return bytes(buf) if buf is not None else None

    def snapshot(self, page: int) -> bytes:
        """The page's current version as an immutable buffer the caller may
        hand on; a copy nobody is writing is frozen into it and shared."""
        buf = self._buffer(page)
        if buf.__class__ is bytes:
            return buf
        snap = bytes(buf)
        if self._states.get(page) is not MSIState.MODIFIED:
            self._pages[page] = snap
        return snap

    def raw(self, page: int) -> bytearray:
        """Direct (mutable) access to the page's own buffer, first copied out
        of a shared ``bytes`` if it is one."""
        buf = self._buffer(page)
        if buf.__class__ is bytes:
            buf = self._pages[page] = bytearray(buf)
        return buf

    def _buffer(self, page: int) -> "bytes | bytearray":
        try:
            return self._pages[page]
        except KeyError:
            raise SegmentationFault(f"no copy of page {page:#x}") from None

    # -- data access (caller has already checked coherence state) ----------------

    def read(self, addr: int, size: int) -> int:
        buf = self._buffer(page_of(addr))
        off = page_offset(addr)
        return int.from_bytes(buf[off : off + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        buf = self.raw(page_of(addr))
        off = page_offset(addr)
        buf[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def read_bytes(self, addr: int, size: int) -> bytes:
        buf = self._buffer(page_of(addr))
        off = page_offset(addr)
        return bytes(buf[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        buf = self.raw(page_of(addr))
        off = page_offset(addr)
        buf[off : off + len(data)] = data

    # -- iteration ------------------------------------------------------------

    def pages(self) -> Iterator[int]:
        return iter(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def __len__(self) -> int:
        return len(self._pages)
