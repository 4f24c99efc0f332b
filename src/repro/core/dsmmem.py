"""The memory a DQEMU instance's engine executes against.

:class:`DSMMemory` is :class:`~repro.mem.flat.FlatMemory` with the DSM layer
in front of the miss: the guest→host address translation step applies the
shadow-page split table (§5.1), then the page-protection check — an access to
a page the node does not hold (or holds in an insufficient MSI state) raises
:class:`~repro.mem.api.PageStall`, the software analogue of the
page-protection faults DQEMU drives its coherence state machine with (§4.2).
Everything an access does once its page permits it is the base class's; the
vanilla single-node QEMU baseline runs on that base class directly.
"""

from __future__ import annotations

from typing import Optional

from repro.mem.api import PageStall, check_span
from repro.mem.flat import MODIFIED, OFFSET_MASK, FlatMemory
from repro.mem.layout import PAGE_SHIFT
from repro.mem.llsc import LLSCTable
from repro.mem.pagestore import PageStore
from repro.mem.splitmap import SplitCrossing, SplitMap

__all__ = ["MergeStall", "DSMMemory"]


class MergeStall(PageStall):
    """An access straddles split regions: the node must ask the master to
    merge the shadow pages back before the access can proceed."""

    def __init__(self, orig_page: int, offset: int):
        super().__init__(orig_page, True, offset)
        self.orig_page = orig_page


class DSMMemory(FlatMemory):
    """MemoryAPI over a node's page cache, split table and LL/SC table."""

    def __init__(self, store: PageStore, split: SplitMap, llsc: LLSCTable):
        self._own(store, llsc)
        self.split = split
        self.split_pages = split.by_orig  # never rebound: truthy while any page is split

    def _resolve(self, addr: int, size: int, write: bool) -> int:
        """Translation + protection: the serving address, or the stall that
        brings the page in (resp. merges it back)."""
        if self.split_pages:
            try:
                addr = self.split.translate_span(addr, size)
            except SplitCrossing as sc:
                raise MergeStall(sc.page, sc.offset) from None
        check_span(addr, size)
        page = addr >> PAGE_SHIFT
        state = self.page_states.get(page)
        if (state is not MODIFIED) if write else (state is None):
            raise PageStall(page, write, addr & OFFSET_MASK, size)
        return addr

    # The per-access entry points of a cluster node: translated code's miss
    # arm, the interpreter's only path.  With no page split they add nothing;
    # with one, the access is translated (and checked) first so the shared
    # path sees only an address its page already permits.

    def load(self, addr: int, size: int, signed: bool) -> int:
        if self.split_pages:
            addr = self._resolve(addr, size, False)
        return FlatMemory.load(self, addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        if self.split_pages:
            addr = self._resolve(addr, size, True)
        FlatMemory.store(self, addr, size, value)

    def invalidate(self, page: int) -> Optional[bytes]:
        """Page teardown: drop the local copy and kill every reservation on it
        (the paper's false-positive SC scheme).  Returns the copy if it was
        Modified — the only content the home lacks; Shared and Exclusive-clean
        copies drop without payload."""
        dirty = self.page_states.get(page) is MODIFIED
        copy = self.pages.drop(page)
        self.llsc.kill_page(page)
        return copy if dirty else None
