"""Stop conditions shared by translated blocks, the interpreter and engine."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["RC_NEXT", "RC_SYSCALL", "RC_BREAK", "StopKind", "StopEvent"]

# Return codes from translated-block functions / interpreter steps.
RC_NEXT = 0  # keep executing at cpu.pc
RC_SYSCALL = 1  # ecall hit; cpu.pc already points past it
RC_BREAK = 2  # ebreak hit


class StopKind(enum.Enum):
    """Why the engine returned control to its caller."""

    QUANTUM = "quantum"  # cycle budget exhausted
    SYSCALL = "syscall"
    BREAK = "break"
    PAGE_STALL = "page_stall"  # DSM must fetch a page; re-run afterwards
    FAULT = "fault"  # guest crashed (segfault, illegal instruction...)


@dataclass(slots=True)
class StopEvent:
    """Engine exit record: what stopped the vCPU and the cycles it used."""

    kind: StopKind
    cycles: int
    info: Optional[Any] = None  # PageStall, GuestFault, ... depending on kind
    #: Portion of ``cycles`` spent in translation mode (block/superblock
    #: compilation) this quantum; the rest is execution.
    translate_cycles: int = 0
