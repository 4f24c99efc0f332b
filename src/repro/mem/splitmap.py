"""Shadow-page translation table for page splitting (paper §5.1, Fig. 4).

A false-sharing page is split into N shadow pages; shadow page *k* holds the
bytes of region *k* **at the same page offset** as in the original page, so
the translated address is simply ``shadow_base[k] + page_offset``.  Every
node holds a copy of the table (the master broadcasts updates) and applies
the translation during the guest→host address translation step, which is why
the runtime overhead is a single dict lookup.

An access that spans two regions cannot be served by any single shadow page;
:meth:`translate_span` reports it as a :class:`SplitCrossing` so the master
can *merge* the page back (the detector avoids splitting pages where such
accesses were ever observed, so merges are rare).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.mem.layout import PAGE_SIZE, page_base, page_of, page_offset

__all__ = ["SplitEntry", "SplitCrossing", "SplitMap"]


class SplitCrossing(Exception):
    """An access spans a region boundary of a split page (control flow)."""

    def __init__(self, page: int, offset: int, size: int):
        super().__init__(f"access crosses split-region boundary: page={page:#x} off={offset}")
        self.page = page
        self.offset = offset
        self.size = size


@dataclass(frozen=True)
class SplitEntry:
    """One split page: original page number → shadow page per region."""

    orig_page: int
    shadow_pages: tuple[int, ...]  # one per region, in region order
    region_bytes: int

    def __post_init__(self):
        n = len(self.shadow_pages)
        if n < 2 or self.region_bytes * n != PAGE_SIZE:
            raise ProtocolError(
                f"bad split geometry: {n} regions x {self.region_bytes} bytes"
            )

    def region_of(self, offset: int) -> int:
        return offset // self.region_bytes


class SplitMap:
    """Per-node copy of the shadow-page translation table."""

    def __init__(self) -> None:
        #: orig page -> entry; never rebound (MemoryAPI.split_pages), so a
        #: memory and translated code test "is anything split?" without a call.
        self.by_orig: dict[int, SplitEntry] = {}
        self._shadow_owner: dict[int, tuple[int, int]] = {}  # shadow -> (orig, region)

    def __len__(self) -> int:
        return len(self.by_orig)

    def __contains__(self, page: int) -> bool:
        return page in self.by_orig

    def entry(self, page: int) -> SplitEntry | None:
        return self.by_orig.get(page)

    def install(self, entry: SplitEntry) -> None:
        if entry.orig_page in self.by_orig:
            raise ProtocolError(f"page {entry.orig_page:#x} already split")
        for shadow in entry.shadow_pages:
            if shadow in self._shadow_owner:
                raise ProtocolError(f"shadow page {shadow:#x} reused")
        self.by_orig[entry.orig_page] = entry
        for region, shadow in enumerate(entry.shadow_pages):
            self._shadow_owner[shadow] = (entry.orig_page, region)

    def remove(self, orig_page: int) -> SplitEntry:
        entry = self.by_orig.pop(orig_page, None)
        if entry is None:
            raise ProtocolError(f"page {orig_page:#x} is not split")
        for shadow in entry.shadow_pages:
            self._shadow_owner.pop(shadow, None)
        return entry

    # -- translation (the hot path) ------------------------------------------

    def translate_span(self, addr: int, size: int) -> int:
        """Translate ``addr`` if its page is split; raises
        :class:`SplitCrossing` when ``[addr, addr+size)`` spans regions."""
        entry = self.by_orig.get(page_of(addr))
        if entry is None:
            return addr
        off = page_offset(addr)
        region = off // entry.region_bytes
        if (off + size - 1) // entry.region_bytes != region:
            raise SplitCrossing(entry.orig_page, off, size)
        return page_base(entry.shadow_pages[region]) + off

    def shadow_to_orig(self, shadow_page: int) -> tuple[int, int] | None:
        """Reverse lookup: shadow page → (original page, region index)."""
        return self._shadow_owner.get(shadow_page)

    def entries(self) -> tuple[SplitEntry, ...]:
        return tuple(self.by_orig.values())

    def clone_state(self) -> tuple[SplitEntry, ...]:
        """Serializable form for SplitTableUpdate broadcasts."""
        return self.entries()
