"""Guest address-space management: brk heap and anonymous mmap.

A bump allocator is enough for the benchmarks (thread stacks and malloc
arenas are allocated once and the workloads run to completion); munmap
tracks the region so double-unmap is caught, but addresses are not recycled
— the 64-bit guest space makes that a non-issue, the same argument the
paper makes for shadow pages (§5.1).
"""

from __future__ import annotations

from repro.kernel.sysnums import ERRNO
from repro.mem.layout import MMAP_BASE, PAGE_SIZE, SHADOW_BASE

__all__ = ["MemoryManager"]


def _page_align_up(n: int) -> int:
    return (n + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


class MemoryManager:
    def __init__(self, *, brk_start: int):
        self._brk_start = _page_align_up(brk_start)
        self._brk = self._brk_start
        self._mmap_cursor = MMAP_BASE
        self._regions: dict[int, int] = {}  # addr -> length

    # -- brk --------------------------------------------------------------

    def brk(self, addr: int) -> int:
        """Linux brk: 0 or bad address returns the current break."""
        if addr >= self._brk_start and addr < MMAP_BASE:
            self._brk = addr
        return self._brk

    # -- mmap --------------------------------------------------------------

    def mmap(self, length: int) -> int:
        """Anonymous private mapping; returns the address or -errno."""
        if length <= 0:
            return -ERRNO.EINVAL
        length = _page_align_up(length)
        addr = self._mmap_cursor
        if addr + length > SHADOW_BASE:
            return -ERRNO.ENOMEM  # would collide with the shadow-page area
        self._mmap_cursor = addr + length
        self._regions[addr] = length
        return addr

    def munmap(self, addr: int, length: int) -> int:
        known = self._regions.get(addr)
        if known is None or _page_align_up(length) != known:
            return -ERRNO.EINVAL
        del self._regions[addr]
        return 0
