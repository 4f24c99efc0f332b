"""GA64 register file definition and ABI names.

GA64 is the guest architecture of this reproduction: a 64-bit RISC ISA in the
RISC-V/ARM mould (the paper's guest is ARM).  There are 32 integer registers;
``x0`` is hardwired to zero.  Floating point (double precision) shares the
integer register file via bit patterns, which keeps the register state a
single 32-element vector — convenient for fast context snapshots during
remote thread migration.
"""

from __future__ import annotations

__all__ = [
    "NUM_REGS",
    "ZERO",
    "RA",
    "SP",
    "GP",
    "TP",
    "ABI_NAMES",
    "REG_BY_NAME",
    "reg_name",
]

NUM_REGS = 32

ZERO = 0
RA = 1
SP = 2
GP = 3
TP = 4

#: Canonical ABI name for each register number (RISC-V convention).
ABI_NAMES: tuple[str, ...] = (
    "zero", "ra", "sp", "gp", "tp",
    "t0", "t1", "t2",
    "s0", "s1",
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
    "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
    "t3", "t4", "t5", "t6",
)

assert len(ABI_NAMES) == NUM_REGS

#: Accepts both ABI names, the alias "fp" (= s0), and raw "x<N>" names.
REG_BY_NAME: dict[str, int] = {name: i for i, name in enumerate(ABI_NAMES)}
REG_BY_NAME["fp"] = 8
for _i in range(NUM_REGS):
    REG_BY_NAME[f"x{_i}"] = _i

# Argument/return registers for the syscall and call ABI.
A0 = 10
A7 = 17


def reg_name(num: int) -> str:
    """ABI name for a register number."""
    return ABI_NAMES[num]
