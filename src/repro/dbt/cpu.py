"""Guest CPU (vCPU) state.

Each guest thread is encapsulated in an emulated CPU context (paper §2): 32
integer registers, a program counter, the thread id, and the scheduling-hint
group set by the most recent ``hint`` instruction (§5.3).  Contexts are
cheap to snapshot/restore — exactly what DQEMU ships over the network when
it creates a thread on a remote node (§4.1).
"""

from __future__ import annotations

from typing import Optional

from repro.isa.registers import NUM_REGS, SP

__all__ = ["CPUState"]

M64 = 0xFFFF_FFFF_FFFF_FFFF


class CPUState:
    """Mutable per-thread guest CPU context."""

    __slots__ = (
        "regs",
        "pc",
        "tid",
        "hint_group",
        "block_ic",
        "block_runs",
        "cycle_frac",
        "halted",
        "exit_status",
    )

    def __init__(self, *, pc: int = 0, tid: int = 0, sp: Optional[int] = None):
        self.regs: list[int] = [0] * NUM_REGS
        self.pc = pc
        self.tid = tid
        #: Group id announced by the last `hint` instruction; consumed by the
        #: locality-aware scheduler when this thread clones a child.
        self.hint_group: Optional[int] = None
        #: Scratch used by translated blocks to report executed-instruction
        #: counts to the engine (precise even across page stalls).
        self.block_ic = 0
        #: Scratch a looping block reports its entries through: on return how
        #: many it made (the last one's count is ``block_ic``), at a fault
        #: how many it completed before the faulting one.
        self.block_runs = 0
        #: Fractional virtual-cycle remainder carried between quanta so the
        #: engine's long-run totals match the per-instruction model exactly.
        self.cycle_frac = 0.0
        self.halted = False
        self.exit_status: Optional[int] = None
        if sp is not None:
            self.regs[SP] = sp & M64

    # -- register helpers ---------------------------------------------------

    @property
    def sp(self) -> int:
        return self.regs[SP]

    # -- migration support ----------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable context for remote thread creation (§4.1)."""
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "tid": self.tid,
            "hint_group": self.hint_group,
            "cycle_frac": self.cycle_frac,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "CPUState":
        cpu = cls(pc=snap["pc"], tid=snap["tid"])
        cpu.regs = list(snap["regs"])
        cpu.hint_group = snap.get("hint_group")
        cpu.cycle_frac = snap.get("cycle_frac", 0.0)
        return cpu

    def __repr__(self) -> str:
        return f"CPUState(tid={self.tid}, pc={self.pc:#x}, halted={self.halted})"
