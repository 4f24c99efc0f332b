"""Per-node page storage.

Each DQEMU instance holds copies of the guest pages it currently caches,
tagged with their MSI coherence state.  The store is a dict of 4 KiB
bytearrays — sparse, so a 1 GB guest region costs nothing until touched
(the paper's Table 1 experiment reserves 1 GB on the master).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import SegmentationFault
from repro.mem.layout import PAGE_SIZE, page_of, page_offset
from repro.mem.msi import MSIState

__all__ = ["PageStore"]


class PageStore:
    """Sparse page container with per-page MSI state."""

    def __init__(self) -> None:
        # Never rebound, and a page with no entry in ``_states`` is Invalid:
        # FlatMemory exposes both dicts as MemoryAPI's resident-access view,
        # and its access path and translated code rely on that.
        self._pages: dict[int, bytearray] = {}
        self._states: dict[int, MSIState] = {}

    # -- state bookkeeping ----------------------------------------------------

    def state(self, page: int) -> MSIState:
        return self._states.get(page, MSIState.INVALID)

    def set_state(self, page: int, state: MSIState) -> None:
        if state is MSIState.INVALID:
            self._states.pop(page, None)
        else:
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
            self._states[page] = MSIState.MODIFIED
            return True
        return False

    # -- page installation ------------------------------------------------------

    def install(self, page: int, data: bytes, state: MSIState) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page data must be {PAGE_SIZE} bytes, got {len(data)}")
        self._pages[page] = bytearray(data)
        self.set_state(page, state)

    def ensure(self, page: int, state: MSIState) -> bytearray:
        """Get-or-create a zeroed page in ``state`` (master-side allocation)."""
        buf = self._pages.get(page)
        if buf is None:
            buf = bytearray(PAGE_SIZE)
            self._pages[page] = buf
        self.set_state(page, state)
        return buf

    def drop(self, page: int) -> Optional[bytes]:
        """Invalidate: remove the local copy, returning it (for write-back)."""
        self._states.pop(page, None)
        buf = self._pages.pop(page, None)
        return bytes(buf) if buf is not None else None

    def snapshot(self, page: int) -> bytes:
        try:
            return bytes(self._pages[page])
        except KeyError:
            raise SegmentationFault(f"no copy of page {page:#x}") from None

    def raw(self, page: int) -> bytearray:
        """Direct (mutable) access for the access fast path."""
        try:
            return self._pages[page]
        except KeyError:
            raise SegmentationFault(f"no copy of page {page:#x}") from None

    # -- data access (caller has already checked coherence state) ----------------

    def read(self, addr: int, size: int) -> int:
        buf = self.raw(page_of(addr))
        off = page_offset(addr)
        return int.from_bytes(buf[off : off + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        buf = self.raw(page_of(addr))
        off = page_offset(addr)
        buf[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def read_bytes(self, addr: int, size: int) -> bytes:
        buf = self.raw(page_of(addr))
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
