"""GA64 instruction set specification.

Every instruction is described by an :class:`InstrSpec` row; the tables here
are the single source of truth shared by the encoder, decoder, assembler,
disassembler, interpreter and DBT frontend.

Formats (32-bit words, little-endian):

====  =======================================  =========================
fmt   fields                                   examples
====  =======================================  =========================
R     op rd rs1 rs2                            add, fmul, lr, sc, cas
I     op rd rs1 imm14                          addi, ld, jalr, hint
S     op rs1 rs2 imm14                         sd  (mem[rs1+imm] = rs2)
B     op rs1 rs2 imm14 (pc-relative bytes)     beq, blt
M     op rd hw imm16                           movz, movk
J     op rd imm19 (pc-relative bytes)          jal
SYS   op                                       ecall, ebreak, fence
====  =======================================  =========================

Atomic semantics (paper §3.4/§4.4 relies on these):

* ``lr rd, (rs1)``    — load-linked 64-bit, sets a reservation.
* ``sc rd, rs2, (rs1)`` — store-conditional; rd := 0 on success, 1 on failure.
* ``cas rd, rs2, (rs1)`` — compare-and-swap; compares memory with *rd*,
  stores rs2 on match, always returns the old memory value in rd.
* ``amoadd/amoswap rd, rs2, (rs1)`` — fetch-and-op, always succeed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Fmt", "Flag", "InstrSpec", "SPECS", "BY_OPCODE", "Instruction"]


class Fmt(enum.Enum):
    R = "R"
    I = "I"
    S = "S"
    B = "B"
    M = "M"
    J = "J"
    SYS = "SYS"


class Flag(enum.Flag):
    NONE = 0
    LOAD = enum.auto()
    STORE = enum.auto()
    ATOMIC = enum.auto()
    BRANCH = enum.auto()  # may change pc
    FP = enum.auto()
    SYSCALL = enum.auto()
    FENCE = enum.auto()
    HINT = enum.auto()


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one GA64 instruction."""

    mnemonic: str
    opcode: int
    fmt: Fmt
    flags: Flag = Flag.NONE
    access_bytes: int = 0  # memory access width (loads/stores/atomics)
    signed: bool = True  # sign-extend loaded value?

    @property
    def is_load(self) -> bool:
        return bool(self.flags & Flag.LOAD)

    @property
    def is_store(self) -> bool:
        return bool(self.flags & Flag.STORE)

    @property
    def is_atomic(self) -> bool:
        return bool(self.flags & Flag.ATOMIC)


def _build_specs() -> dict[str, InstrSpec]:
    rows: list[tuple] = []
    # (mnemonic, fmt, flags, access_bytes, signed)
    R, I, S, B, M, J, SYS = Fmt.R, Fmt.I, Fmt.S, Fmt.B, Fmt.M, Fmt.J, Fmt.SYS
    F = Flag

    # Integer register-register.
    for m in ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
              "mul", "mulh", "mulhu", "div", "divu", "rem", "remu",
              "slt", "sltu"):
        rows.append((m, R, F.NONE, 0, True))
    # Double-precision float on integer registers (bit patterns).
    for m in ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax",
              "feq", "flt", "fle"):
        rows.append((m, R, F.FP, 0, True))
    rows.append(("fsqrt", R, F.FP, 0, True))       # unary: rs2 ignored
    rows.append(("fcvt.d.l", R, F.FP, 0, True))    # int -> double bits
    rows.append(("fcvt.l.d", R, F.FP, 0, True))    # double bits -> int
    # Atomics (64-bit, 8-byte aligned).
    rows.append(("lr", R, F.LOAD | F.ATOMIC, 8, True))
    rows.append(("sc", R, F.STORE | F.ATOMIC, 8, True))
    rows.append(("cas", R, F.LOAD | F.STORE | F.ATOMIC, 8, True))
    rows.append(("amoadd", R, F.LOAD | F.STORE | F.ATOMIC, 8, True))
    rows.append(("amoswap", R, F.LOAD | F.STORE | F.ATOMIC, 8, True))
    # Integer immediates.
    for m in ("addi", "andi", "ori", "xori", "slli", "srli", "srai",
              "slti", "sltiu"):
        rows.append((m, I, F.NONE, 0, True))
    # Loads.
    rows.append(("lb", I, F.LOAD, 1, True))
    rows.append(("lh", I, F.LOAD, 2, True))
    rows.append(("lw", I, F.LOAD, 4, True))
    rows.append(("ld", I, F.LOAD, 8, True))
    rows.append(("lbu", I, F.LOAD, 1, False))
    rows.append(("lhu", I, F.LOAD, 2, False))
    rows.append(("lwu", I, F.LOAD, 4, False))
    # Stores.
    rows.append(("sb", S, F.STORE, 1, True))
    rows.append(("sh", S, F.STORE, 2, True))
    rows.append(("sw", S, F.STORE, 4, True))
    rows.append(("sd", S, F.STORE, 8, True))
    # Control flow.
    rows.append(("jalr", I, F.BRANCH, 0, True))
    rows.append(("jal", J, F.BRANCH, 0, True))
    for m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
        rows.append((m, B, F.BRANCH, 0, True))
    # Wide immediates.
    rows.append(("movz", M, F.NONE, 0, True))
    rows.append(("movk", M, F.NONE, 0, True))
    rows.append(("movn", M, F.NONE, 0, True))  # rd = ~(imm16 << 16*hw)
    # System.
    rows.append(("ecall", SYS, F.SYSCALL, 0, True))
    rows.append(("ebreak", SYS, F.NONE, 0, True))
    rows.append(("fence", SYS, F.FENCE, 0, True))
    # Scheduling hint: no-op carrying a thread-group id in imm (paper §5.3).
    rows.append(("hint", I, F.HINT, 0, True))

    specs: dict[str, InstrSpec] = {}
    for opcode, (mnemonic, fmt, flags, nbytes, signed) in enumerate(rows, start=1):
        specs[mnemonic] = InstrSpec(
            mnemonic=mnemonic,
            opcode=opcode,
            fmt=fmt,
            flags=flags,
            access_bytes=nbytes,
            signed=signed,
        )
    return specs


#: mnemonic -> spec
SPECS: dict[str, InstrSpec] = _build_specs()
#: opcode -> spec
BY_OPCODE: dict[int, InstrSpec] = {s.opcode: s for s in SPECS.values()}


@dataclass(frozen=True)
class Instruction:
    """A decoded GA64 instruction (operands resolved to numbers)."""

    spec: InstrSpec
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    hw: int = 0  # 16-bit halfword index for movz/movk (0..3)

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    def __repr__(self) -> str:  # compact, for assertions/debugging
        return (
            f"Instruction({self.spec.mnemonic}, rd={self.rd}, rs1={self.rs1},"
            f" rs2={self.rs2}, imm={self.imm}, hw={self.hw})"
        )
