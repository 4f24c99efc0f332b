"""Binary encoding/decoding of GA64 instructions.

Word layout (bit 31 = MSB):

====  ==========  ==========  ==========  =================
fmt   [31:24]     [23:19]     [18:14]     [13:0]
====  ==========  ==========  ==========  =================
R     opcode      rd          rs1         rs2 in [13:9]
I     opcode      rd          rs1         imm14 (signed)
S/B   opcode      rs1         rs2         imm14 (signed)
M     opcode      rd          hw [18:17]  imm16 in [16:1]*
J     opcode      rd          imm19 in [18:0] (signed)
SYS   opcode      0           0           0
====  ==========  ==========  ==========  =================

(*) For M-format the 16-bit immediate occupies bits [15:0] and the halfword
selector bits [17:16]; bit 18 is reserved-zero.

Branch/jump immediates are signed *byte* offsets relative to the branch
instruction's own address and must be 4-byte aligned.
"""

from __future__ import annotations

from repro.errors import EncodingError, InvalidInstruction
from repro.isa.instructions import BY_OPCODE, Fmt, Instruction
from repro.isa.registers import NUM_REGS

__all__ = [
    "encode",
    "decode",
    "IMM14_MIN",
    "IMM14_MAX",
    "IMM19_MIN",
    "IMM19_MAX",
    "INSTR_BYTES",
]

INSTR_BYTES = 4

IMM14_MIN, IMM14_MAX = -(1 << 13), (1 << 13) - 1
IMM19_MIN, IMM19_MAX = -(1 << 18), (1 << 18) - 1


def _bad_reg(**fields: int) -> None:
    for what, value in fields.items():
        if not 0 <= value < NUM_REGS:
            raise EncodingError(f"{what} out of range: {value}")


# Per-format field encoders: the assembler calls them directly and
# :func:`encode` is a wrapper over them, so there is one set of range checks.
# ``(a | b) >> 5`` is non-zero exactly when a register is outside 0..31.


def encode_r(opcode: int, rd: int, rs1: int, rs2: int) -> int:
    if (rd | rs1 | rs2) >> 5:
        _bad_reg(rd=rd, rs1=rs1, rs2=rs2)
    return opcode << 24 | rd << 19 | rs1 << 14 | rs2 << 9


def encode_i(opcode: int, rd: int, rs1: int, imm: int) -> int:
    if (rd | rs1) >> 5:
        _bad_reg(rd=rd, rs1=rs1)
    if not IMM14_MIN <= imm <= IMM14_MAX:
        raise EncodingError(f"imm14 out of range [{IMM14_MIN}, {IMM14_MAX}]: {imm}")
    return opcode << 24 | rd << 19 | rs1 << 14 | (imm & 0x3FFF)


def encode_s(opcode: int, rs1: int, rs2: int, imm: int) -> int:
    if (rs1 | rs2) >> 5:
        _bad_reg(rs1=rs1, rs2=rs2)
    if not IMM14_MIN <= imm <= IMM14_MAX:
        raise EncodingError(f"imm14 out of range [{IMM14_MIN}, {IMM14_MAX}]: {imm}")
    return opcode << 24 | rs1 << 19 | rs2 << 14 | (imm & 0x3FFF)


def encode_b(opcode: int, rs1: int, rs2: int, imm: int) -> int:
    word = encode_s(opcode, rs1, rs2, imm)
    if imm % 4:
        raise EncodingError(f"branch offset not 4-aligned: {imm}")
    return word


def encode_m(opcode: int, rd: int, imm: int, hw: int) -> int:
    if rd >> 5:
        _bad_reg(rd=rd)
    if not 0 <= hw <= 3:
        raise EncodingError(f"halfword index out of range: {hw}")
    if not 0 <= imm <= 0xFFFF:
        raise EncodingError(f"imm16 out of range: {imm}")
    return opcode << 24 | rd << 19 | hw << 16 | imm


def encode_j(opcode: int, rd: int, imm: int) -> int:
    if rd >> 5:
        _bad_reg(rd=rd)
    if not IMM19_MIN <= imm <= IMM19_MAX:
        raise EncodingError(f"imm19 out of range [{IMM19_MIN}, {IMM19_MAX}]: {imm}")
    if imm % 4:
        raise EncodingError(f"jump offset not 4-aligned: {imm}")
    return opcode << 24 | rd << 19 | (imm & 0x7FFFF)


def encode(instr: Instruction) -> int:
    """Encode an :class:`Instruction` into its 32-bit word."""
    spec = instr.spec
    opcode, fmt = spec.opcode, spec.fmt
    if fmt is Fmt.R:
        return encode_r(opcode, instr.rd, instr.rs1, instr.rs2)
    if fmt is Fmt.I:
        return encode_i(opcode, instr.rd, instr.rs1, instr.imm)
    if fmt is Fmt.S:
        return encode_s(opcode, instr.rs1, instr.rs2, instr.imm)
    if fmt is Fmt.B:
        return encode_b(opcode, instr.rs1, instr.rs2, instr.imm)
    if fmt is Fmt.M:
        return encode_m(opcode, instr.rd, instr.imm, instr.hw)
    if fmt is Fmt.J:
        return encode_j(opcode, instr.rd, instr.imm)
    return opcode << 24  # SYS


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def decode(word: int, *, pc: int | None = None) -> Instruction:
    """Decode a 32-bit word into an :class:`Instruction`.

    Raises :class:`InvalidInstruction` for undefined opcodes so the engine
    can deliver a guest fault at ``pc``.
    """
    if not 0 <= word <= 0xFFFFFFFF:
        raise EncodingError(f"not a 32-bit word: {word:#x}")
    opcode = (word >> 24) & 0xFF
    spec = BY_OPCODE.get(opcode)
    if spec is None:
        raise InvalidInstruction(f"undefined opcode {opcode:#x} in word {word:#010x}", pc=pc)
    fmt = spec.fmt
    if fmt is Fmt.R:
        return Instruction(
            spec,
            rd=(word >> 19) & 0x1F,
            rs1=(word >> 14) & 0x1F,
            rs2=(word >> 9) & 0x1F,
        )
    if fmt is Fmt.I:
        return Instruction(
            spec,
            rd=(word >> 19) & 0x1F,
            rs1=(word >> 14) & 0x1F,
            imm=_sext(word & 0x3FFF, 14),
        )
    if fmt in (Fmt.S, Fmt.B):
        return Instruction(
            spec,
            rs1=(word >> 19) & 0x1F,
            rs2=(word >> 14) & 0x1F,
            imm=_sext(word & 0x3FFF, 14),
        )
    if fmt is Fmt.M:
        return Instruction(
            spec,
            rd=(word >> 19) & 0x1F,
            hw=(word >> 16) & 0x3,
            imm=word & 0xFFFF,
        )
    if fmt is Fmt.J:
        return Instruction(
            spec,
            rd=(word >> 19) & 0x1F,
            imm=_sext(word & 0x7FFFF, 19),
        )
    return Instruction(spec)  # SYS
