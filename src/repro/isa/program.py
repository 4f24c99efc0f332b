"""Guest program image.

A :class:`Program` is the output of the assembler: named sections with base
addresses and contents, a symbol table, and an entry point.  It plays the
role of the statically linked ELF binaries the paper runs — DQEMU's loader
copies the sections into the guest memory region of the master node and the
coherence protocol distributes pages on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import AssemblerError

__all__ = ["Section", "Program", "DEFAULT_TEXT_BASE"]

DEFAULT_TEXT_BASE = 0x0001_0000


@dataclass
class Section:
    """``data`` followed by ``zero_fill`` zero bytes that are a length only
    (``.bss``): guest memory is demand-zero, so nothing loads them."""

    name: str
    base: int
    data: bytearray = field(default_factory=bytearray)
    zero_fill: int = 0

    @property
    def size(self) -> int:
        return len(self.data) + self.zero_fill

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass
class Program:
    """An assembled guest binary image."""

    sections: dict[str, Section]
    symbols: dict[str, int]
    entry: int

    @property
    def text(self) -> Section:
        return self.sections[".text"]

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise AssemblerError(f"unknown symbol {name!r}") from None

    def iter_load_segments(self) -> Iterator[tuple[int, memoryview]]:
        """Yield ``(vaddr, contents)`` pairs in ascending address order.

        The contents are a read-only view of the section's data, not a copy:
        loaders slice it page by page, and a slice of a view copies nothing
        either.  A section's ``zero_fill`` is not yielded — every page reads
        zero until something writes it.
        """
        for sec in sorted(self.sections.values(), key=lambda s: s.base):
            if sec.data:
                yield sec.base, memoryview(sec.data).toreadonly()

    @property
    def load_end(self) -> int:
        """First address past all loaded sections (start of the heap)."""
        return max((sec.end for sec in self.sections.values()), default=0)

    def overlapping_sections(self) -> list[tuple[str, str]]:
        """Sanity check used by tests: section pairs that overlap."""
        secs = sorted(self.sections.values(), key=lambda s: s.base)
        bad = []
        for a, b in zip(secs, secs[1:]):
            if a.end > b.base and a.size and b.size:
                bad.append((a.name, b.name))
        return bad
