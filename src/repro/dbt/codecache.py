"""Translation-block cache with block chaining and page-wise invalidation.

QEMU keeps translated code in a code cache keyed by guest pc and chains
blocks whose successor is static so the dispatch loop is skipped.  We keep
the same structure: ``lookup`` is the slow path, each block records direct
references to its statically-known successors once resolved
(:meth:`CodeCache.chain`), and invalidation drops every block overlapping a
guest page (needed if guest code pages are ever written, and used by
tests).  Dropping a block also severs every chain reference pointing at it
— a chained predecessor must fall back to ``lookup`` and re-translate
rather than run stale code.

Hot blocks can be *promoted*: :meth:`CodeCache.promote` replaces the cached
entry at a trace head's pc with the superblock compiled from the trace.
The superblock is indexed under the union of its members' pages, so
invalidating any member's page demotes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dbt.backend import TranslationBlock

__all__ = ["CodeCache", "CacheStats"]


@dataclass
class CacheStats:
    translations: int = 0
    lookups: int = 0
    misses: int = 0
    invalidations: int = 0
    #: Dispatches that followed a direct chain reference (no lookup).
    chain_follows: int = 0
    #: Chain references severed by invalidation or promotion.
    unchains: int = 0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.misses / self.lookups if self.lookups else 0.0

    @property
    def dispatches(self) -> int:
        """Total block dispatches: slow-path lookups plus chain follows."""
        return self.lookups + self.chain_follows


class CodeCache:
    """pc → :class:`TranslationBlock` map with page index."""

    def __init__(self) -> None:
        self._blocks: dict[int, TranslationBlock] = {}
        self._by_page: dict[int, set[int]] = {}
        self.stats = CacheStats()

    def lookup(self, pc: int) -> Optional[TranslationBlock]:
        self.stats.lookups += 1
        tb = self._blocks.get(pc)
        if tb is None:
            self.stats.misses += 1
        return tb

    def peek(self, pc: int) -> Optional[TranslationBlock]:
        """Uncounted lookup (trace formation, tests)."""
        return self._blocks.get(pc)

    def insert(self, tb: TranslationBlock) -> None:
        self._blocks[tb.pc] = tb
        self.stats.translations += 1
        for page in tb.pages:
            self._by_page.setdefault(page, set()).add(tb.pc)

    # -- chaining ----------------------------------------------------------

    def chain(self, prev: TranslationBlock, pc: int, tb: TranslationBlock) -> None:
        """Record a direct successor reference ``prev --pc--> tb``."""
        prev.chain[pc] = tb
        tb.chained_from.add(prev)

    def _unchain(self, tb: TranslationBlock) -> None:
        """Sever every chain reference into and out of ``tb``."""
        for pred in tuple(tb.chained_from):
            stale = [pc for pc, target in pred.chain.items() if target is tb]
            for pc in stale:
                del pred.chain[pc]
                self.stats.unchains += 1
        tb.chained_from.clear()
        for succ in tb.chain.values():
            succ.chained_from.discard(tb)
        tb.chain.clear()

    # -- promotion ---------------------------------------------------------

    def promote(self, sb: TranslationBlock) -> None:
        """Replace the entry at ``sb.pc`` with a superblock.

        The old head is unchained so predecessors re-dispatch through
        ``lookup`` and find the superblock; non-head members stay cached
        for mid-trace entries.
        """
        old = self._blocks.get(sb.pc)
        if old is not None:
            self._unchain(old)
            self._drop_page_index(old)
        self._blocks[sb.pc] = sb
        self.stats.translations += 1
        for page in sb.pages:
            self._by_page.setdefault(page, set()).add(sb.pc)

    # -- invalidation ------------------------------------------------------

    def _drop_page_index(self, tb: TranslationBlock, skip_page: Optional[int] = None) -> None:
        for page in tb.pages:
            if page == skip_page:
                continue
            pcs = self._by_page.get(page)
            if pcs is not None:
                pcs.discard(tb.pc)
                if not pcs:
                    del self._by_page[page]

    def invalidate_page(self, page: int) -> int:
        """Drop all blocks overlapping ``page``; returns how many.

        A block indexed under several pages (a superblock whose members
        span pages, or any block crossing a boundary) is removed from
        *every* page set it was indexed under — otherwise a later
        re-translation at the same pc would be wrongly dropped (and
        ``invalidations`` miscounted) when a neighboring page is
        invalidated.
        """
        pcs = self._by_page.pop(page, set())
        count = 0
        for pc in pcs:
            tb = self._blocks.get(pc)
            if tb is None:
                continue
            if page not in tb.pages:
                # Stale index entry from an older block at this pc; the
                # current block does not overlap the invalidated page.
                continue
            del self._blocks[pc]
            count += 1
            self._unchain(tb)
            self._drop_page_index(tb, skip_page=page)
        self.stats.invalidations += count
        return count

    def flush(self) -> None:
        for tb in self._blocks.values():
            tb.chain.clear()
            tb.chained_from.clear()
        self._blocks.clear()
        self._by_page.clear()

    def __len__(self) -> int:
        return len(self._blocks)
