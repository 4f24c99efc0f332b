"""DBT frontend: decode GA64 guest code into TCG micro-ops.

A translation block extends from its entry pc to the first control-flow or
trap instruction (branch, jal, jalr, ecall, ebreak), up to
``max_block_insns``, never crossing a guest page (translated code is
invalidated page-wise, as in QEMU).

Building a block is two steps.  :meth:`Frontend.fetch_block` reads the
block's instruction words through the memory system and finds its end from
the opcode byte alone — every stall and fault a translation can raise is
raised here.  :meth:`Frontend.lower_block` turns ``(pc, words)`` into IR and
touches no memory: it is a pure function, which is what lets
:mod:`repro.dbt.memo` reuse one translation wherever the same words sit at
the same pc.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dbt.stop import RC_BREAK, RC_SYSCALL
from repro.dbt.tcg import InstrIR, TCGOp, guest, imm, temp
from repro.isa.encoding import INSTR_BYTES, decode
from repro.isa.instructions import BY_OPCODE, Flag, Instruction
from repro.mem.api import MemoryAPI
from repro.mem.layout import PAGE_SIZE

__all__ = ["BlockIR", "Frontend"]

M64 = 0xFFFF_FFFF_FFFF_FFFF

_BRANCH_COND = {
    "beq": "eq", "bne": "ne", "blt": "lt", "bge": "ge", "bltu": "ltu", "bgeu": "geu",
}
_INT_BINOPS = {
    "add": "add", "sub": "sub", "and": "and", "or": "or", "xor": "xor",
    "sll": "shl", "srl": "shr", "sra": "sar",
    "mul": "mul", "mulh": "mulh", "mulhu": "mulhu",
    "div": "div", "divu": "divu", "rem": "rem", "remu": "remu",
    "slt": None, "sltu": None,  # handled via setcond
}
_IMM_BINOPS = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slli": "shl", "srli": "shr", "srai": "sar",
}

#: Opcodes whose lowering ends in a :data:`~repro.dbt.tcg.TERMINALS` micro-op.
_ENDS_BLOCK = frozenset(
    spec.opcode
    for spec in BY_OPCODE.values()
    if spec.flags & Flag.BRANCH or spec.mnemonic in ("ecall", "ebreak")
)


@dataclass
class BlockIR:
    """IR for a whole translation block.

    Read-only once built: one ``BlockIR`` (and its ``InstrIR``s) is shared by
    every engine whose memory holds ``words`` at ``pc`` and by every
    superblock stitched from it, so passes that rewrite instructions work on
    a copy of the list (``find_fusions`` does).
    """

    pc: int
    instrs: list[InstrIR]
    next_pc: int  # static fallthrough if the block has no terminal
    #: The instruction words ``instrs`` was lowered from; with ``pc``, the
    #: block's identity in the translation memo.
    words: tuple[int, ...]


class Frontend:
    """Guest-instruction decoder/lowerer."""

    def __init__(self, mem: MemoryAPI, *, max_block_insns: int = 64):
        self.mem = mem
        self.max_block_insns = max_block_insns

    def build_block(self, pc: int) -> BlockIR:
        return self.lower_block(pc, self.fetch_block(pc))

    def fetch_block(self, pc: int) -> tuple[int, ...]:
        """Instruction words of the block entered at ``pc``, fetched one
        ``fetch_code`` per instruction in address order; raises what the
        memory raises (``PageStall``, ``MergeStall``) and
        :class:`~repro.errors.InvalidInstruction` at an undefined opcode."""
        fetch = self.mem.fetch_code
        words: list[int] = []
        cur = pc
        # The block stops at its page's edge and at ``max_block_insns``.
        end = min((pc // PAGE_SIZE + 1) * PAGE_SIZE, pc + self.max_block_insns * INSTR_BYTES)
        while cur < end:
            word = int.from_bytes(fetch(cur, INSTR_BYTES), "little")
            opcode = word >> 24
            if opcode not in BY_OPCODE:
                decode(word, pc=cur)  # raises the guest fault at ``cur``
            words.append(word)
            cur += INSTR_BYTES
            if opcode in _ENDS_BLOCK:
                break
        return tuple(words)

    @staticmethod
    def lower_block(pc: int, words: tuple[int, ...]) -> BlockIR:
        """IR of the block ``words`` forms at ``pc``; reads no memory, so it
        needs no frontend to call it."""
        next_pc = pc + len(words) * INSTR_BYTES
        instrs = [
            Frontend.lower(decode(word, pc=cur), cur)
            for cur, word in zip(range(pc, next_pc, INSTR_BYTES), words)
        ]
        return BlockIR(pc=pc, instrs=instrs, next_pc=next_pc, words=words)

    # -- lowering ----------------------------------------------------------------

    @staticmethod
    def lower(instr: Instruction, pc: int) -> InstrIR:
        """Lower one guest instruction to micro-ops."""
        ops: list[TCGOp] = []
        m = instr.spec.mnemonic
        rd, rs1, rs2 = guest(instr.rd), guest(instr.rs1), guest(instr.rs2)
        iv = instr.imm
        next_pc = pc + INSTR_BYTES
        can_fault = False

        def op(name, *args):
            ops.append(TCGOp(name, args))

        if m in _INT_BINOPS:
            if m == "slt":
                op("setcond", rd, rs1, rs2, "lt")
            elif m == "sltu":
                op("setcond", rd, rs1, rs2, "ltu")
            else:
                op(_INT_BINOPS[m], rd, rs1, rs2)
        elif m in _IMM_BINOPS:
            shift_ops = ("slli", "srli", "srai")
            value = iv & 63 if m in shift_ops else iv
            op(_IMM_BINOPS[m], rd, rs1, imm(value))
        elif m == "slti":
            op("setcond", rd, rs1, imm(iv), "lt")
        elif m == "sltiu":
            op("setcond", rd, rs1, imm(iv), "ltu")
        elif instr.spec.is_load and not instr.spec.is_atomic:
            addr = temp(0)
            op("add", addr, rs1, imm(iv))
            op("ld", rd, addr, instr.spec.access_bytes, instr.spec.signed)
            can_fault = True
        elif instr.spec.is_store and not instr.spec.is_atomic:
            addr = temp(0)
            op("add", addr, rs1, imm(iv))
            op("st", rs2, addr, instr.spec.access_bytes)
            can_fault = True
        elif m == "movz":
            op("mov", rd, imm(iv << (16 * instr.hw)))
        elif m == "movn":
            op("mov", rd, imm((~(iv << (16 * instr.hw))) & M64))
        elif m == "movk":
            mask = 0xFFFF << (16 * instr.hw)
            t0 = temp(0)
            op("and", t0, rd, imm((~mask) & M64))
            op("or", rd, t0, imm(iv << (16 * instr.hw)))
        elif m == "jal":
            op("mov", rd, imm(next_pc))
            op("jmp", (pc + iv) & M64)
        elif m == "jalr":
            target = temp(0)
            op("add", target, rs1, imm(iv))
            op("and", target, target, imm(M64 & ~1))
            op("mov", rd, imm(next_pc))  # link after target: rd may equal rs1
            op("jmp_ind", target)
        elif m in _BRANCH_COND:
            op("brcond", rs1, rs2, _BRANCH_COND[m], (pc + iv) & M64, next_pc)
        elif m in ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"):
            op("fbin", rd, rs1, rs2, m)
        elif m == "fsqrt":
            op("fun", rd, rs1, "fsqrt")
        elif m == "fcvt.d.l":
            op("fun", rd, rs1, "fcvt_d_l")
        elif m == "fcvt.l.d":
            op("fun", rd, rs1, "fcvt_l_d")
        elif m in ("feq", "flt", "fle"):
            op("fsetcond", rd, rs1, rs2, m)
        elif m == "lr":
            op("lr", rd, rs1)
            can_fault = True
        elif m == "sc":
            op("sc", rd, rs2, rs1)
            can_fault = True
        elif m == "cas":
            op("cas", rd, rd, rs2, rs1)
            can_fault = True
        elif m == "amoadd":
            op("amoadd", rd, rs2, rs1)
            can_fault = True
        elif m == "amoswap":
            op("amoswap", rd, rs2, rs1)
            can_fault = True
        elif m == "hint":
            # hint <imm> sets a literal group; hint <reg> (rs1 != x0) takes the
            # group id from a register so creation loops can vary it.
            if instr.rs1 != 0:
                op("hint_reg", rs1)
            else:
                op("hint", iv)
        elif m == "fence":
            op("fence")
        elif m == "ecall":
            op("exit", RC_SYSCALL)
        elif m == "ebreak":
            op("exit", RC_BREAK)
        else:  # pragma: no cover - table kept in sync with SPECS
            raise NotImplementedError(f"frontend cannot lower {m}")

        return InstrIR(pc=pc, mnemonic=m, ops=ops, can_fault=can_fault)
