"""Per-node global LL/SC hash table (paper §4.4).

Each DQEMU instance keeps a hash table of live load-linked reservations:
``address → {thread ids}``.  Plain stores check the table only while it is
non-empty (the LL→SC window is short, so this is rare).  Cross-node stores
are *not* tracked; instead, when the coherence protocol invalidates a page,
every reservation on that page is killed — the paper's false-positive
scheme: an SC may fail spuriously, costing a retry, never correctness.
"""

from __future__ import annotations

from repro.mem.layout import page_of

__all__ = ["LLSCTable"]


class LLSCTable:
    def __init__(self) -> None:
        self._res: dict[int, set[int]] = {}  # never rebound (MemoryAPI.reservations)
        self.spurious_kills = 0  # reservations killed by page invalidation

    def __len__(self) -> int:
        return len(self._res)

    def reserve(self, addr: int, tid: int) -> None:
        self._res.setdefault(addr, set()).add(tid)

    def validate(self, addr: int, tid: int) -> bool:
        holders = self._res.get(addr)
        return bool(holders and tid in holders)

    def consume(self, addr: int, tid: int) -> bool:
        """SC: check-and-clear.  A successful SC removes every reservation at
        the address (its store would kill them anyway)."""
        if not self.validate(addr, tid):
            return False
        del self._res[addr]
        return True

    def kill_store(self, addr: int, size: int) -> None:
        """A store touching [addr, addr+size) kills the reservations on every
        8-byte cell it overlaps, whoever stored (conservative, like QEMU)."""
        for cell in range(addr & ~7, addr + size, 8):
            self._res.pop(cell, None)

    def kill_page(self, page: int) -> int:
        """Page invalidated by the coherence protocol: kill its reservations.

        Returns how many addresses were cleared (the paper's false-positive
        SC failures originate here).
        """
        doomed = [a for a in self._res if page_of(a) == page]
        for a in doomed:
            del self._res[a]
        self.spurious_kills += len(doomed)
        return len(doomed)
