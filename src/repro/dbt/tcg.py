"""TCG-style intermediate representation.

The DBT frontend lowers each guest instruction to a short sequence of
micro-ops over an infinite temp register file plus the guest register file;
the backend then emits host code from the micro-ops.  This mirrors QEMU's
guest → TCG IR → host pipeline and is what makes the translator retargetable:
adding a guest ISA means writing a new frontend; adding a host means a new
backend.

Operands are tagged pairs: ``("g", i)`` guest register, ``("t", i)`` temp,
``("i", v)`` immediate constant.  A temp lives within one :class:`InstrIR`: it
is written before it is read there and means nothing to the next instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "Operand",
    "TCGOp",
    "InstrIR",
    "guest",
    "temp",
    "imm",
    "BINOPS",
    "SETCONDS",
    "FBINOPS",
    "FUNOPS",
    "FSETCONDS",
    "TERMINALS",
]

Operand = Tuple[str, int]


def guest(i: int) -> Operand:
    return ("g", i)


def temp(i: int) -> Operand:
    return ("t", i)


def imm(v: int) -> Operand:
    return ("i", v)


#: Integer binary micro-ops (dst, a, b).
BINOPS = frozenset(
    {
        "add", "sub", "and", "or", "xor",
        "shl", "shr", "sar",
        "mul", "mulh", "mulhu", "div", "divu", "rem", "remu",
    }
)

#: Conditions for setcond/brcond.
SETCONDS = frozenset({"eq", "ne", "lt", "ge", "ltu", "geu"})

#: FP binary ops (dst, a, b, op).
FBINOPS = frozenset({"fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"})

#: FP unary ops (dst, a, op).
FUNOPS = frozenset({"fsqrt", "fcvt_l_d", "fcvt_d_l"})

FSETCONDS = frozenset({"feq", "flt", "fle"})

#: Ops that end a translation block.
TERMINALS = frozenset({"brcond", "jmp", "jmp_ind", "exit"})


@dataclass(frozen=True)
class TCGOp:
    """One micro-op.  ``args`` layout depends on ``name``:

    ====================  ============================================
    name                  args
    ====================  ============================================
    mov                   (dst, src)
    <binop>               (dst, a, b)
    setcond               (dst, a, b, cond)
    fbin                  (dst, a, b, op)
    fun                   (dst, a, op)
    fsetcond              (dst, a, b, cond)
    ld                    (dst, addr, size, signed)
    st                    (val, addr, size)
    lr                    (dst, addr)
    sc                    (dst, val, addr)
    cas                   (dst, expected, val, addr)
    amoadd / amoswap      (dst, val, addr)
    hint                  (imm_value,)
    fence                 ()
    brcond                (a, b, cond, target_pc, fallthrough_pc)
    jmp                   (target_pc,)
    jmp_ind               (addr,)
    exit                  (rc,)
    ====================  ============================================

    The FP ops (``fbin``, ``fun``, ``fsetcond``) take guest registers only:
    the backend shadows them by register number as host floats.
    """

    name: str
    args: tuple

    def __repr__(self) -> str:
        return f"TCGOp({self.name}, {', '.join(map(repr, self.args))})"


@dataclass
class InstrIR:
    """IR for one guest instruction (the precise-exception unit).

    Read-only once lowered: translations are shared between engines
    (:mod:`repro.dbt.memo`), so a pass that rewrites an instruction builds a
    new ``InstrIR`` instead of editing ``ops``.
    """

    pc: int
    mnemonic: str
    ops: list[TCGOp]
    can_fault: bool  # touches memory → the backend makes state precise where it can fault
