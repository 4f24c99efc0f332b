"""GA64 guest instruction set: spec, codec, assembler, disassembler, builder."""

from repro.isa.assembler import Assembler, assemble
from repro.isa.builder import AsmBuilder
from repro.isa.disassembler import disassemble_block, disassemble_word, format_instruction
from repro.isa.encoding import INSTR_BYTES, decode, encode
from repro.isa.instructions import BY_OPCODE, SPECS, Flag, Fmt, Instruction, InstrSpec
from repro.isa.program import DEFAULT_TEXT_BASE, Program, Section
from repro.isa.registers import ABI_NAMES, NUM_REGS, reg_name

__all__ = [
    "ABI_NAMES",
    "Assembler",
    "AsmBuilder",
    "BY_OPCODE",
    "DEFAULT_TEXT_BASE",
    "Flag",
    "Fmt",
    "INSTR_BYTES",
    "Instruction",
    "InstrSpec",
    "NUM_REGS",
    "Program",
    "SPECS",
    "Section",
    "assemble",
    "decode",
    "disassemble_block",
    "disassemble_word",
    "encode",
    "format_instruction",
    "reg_name",
]
