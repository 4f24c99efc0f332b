"""DBT hot-path tier: chaining, trace superblocks, idiom fusion, and the
cycle-accounting/invalidation bugfixes that ride along.

Complements test_dbt_engine.py (baseline engine behaviour) and
test_dbt_differential.py (architectural identity).  Everything here drives
the engine directly against a flat memory, the way a single node's DBT
thread would.
"""

import itertools
import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cost import CostModel
from repro.dbt import Backend, CPUState, ExecutionEngine, Frontend, StopKind
from repro.dbt.backend import TranslationBlock
from repro.dbt.codecache import CodeCache
from repro.dbt.engine import _add_times
from repro.dbt.frontend import BlockIR
from repro.dbt.interp import Interpreter
from repro.dbt.stop import RC_SYSCALL
from repro.dbt.tcg import InstrIR, TCGOp, guest, imm, temp
from repro.isa import SPECS, Instruction, assemble, encode
from repro.mem import FlatMemory, PAGE_SIZE, PageStall, page_of
from tests.conftest import (
    OneEntryCache, StallingMemory, c_calls, engine_books, memory_image, python_calls,
)

TEXT = 0x1_0000

LOOP_SRC = """
_start:
  li t0, 0
loop:
  addi t0, t0, 1
  li t1, 200
  blt t0, t1, loop
  ecall
"""


def load(source):
    prog = assemble(source)
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
    return prog, mem, cpu


def run_to_syscall(engine, cpu, budget=100_000_000):
    stop = engine.run_quantum(cpu, budget)
    assert stop.kind is StopKind.SYSCALL, stop
    return stop


def synthetic_tb(pc, fn, *, n_insns=1, pages=None):
    """A block an engine can run: like every block a cache holds, a
    :meth:`~TranslationBlock.fresh` one, with execution containers of its own."""
    return TranslationBlock(
        pc=pc,
        n_insns=n_insns,
        end_pc=pc + 4 * n_insns,
        fn=fn,
        pages=pages if pages is not None else (pc // PAGE_SIZE,),
    ).fresh()


def emit_words(mem, addr, instrs):
    code = b"".join(encode(i).to_bytes(4, "little") for i in instrs)
    mem.write_bytes(addr, code)


# -- bugfix: multi-page invalidation ---------------------------------------


class TestMultiPageInvalidation:
    def test_spanning_block_removed_from_every_page_index(self):
        cache = CodeCache()
        pc = 0x10_0000
        page = pc // PAGE_SIZE
        spanning = synthetic_tb(pc, lambda cpu, mem, n: 0, pages=(page, page + 1))
        cache.insert(spanning)

        assert cache.invalidate_page(page) == 1
        assert cache.peek(pc) is None

        # Re-translate at the same pc, this time within one page.  The old
        # block's stale entry in page+1's index must not shoot it down.
        smaller = synthetic_tb(pc, lambda cpu, mem, n: 0, pages=(page,))
        cache.insert(smaller)
        assert cache.invalidate_page(page + 1) == 0
        assert cache.peek(pc) is smaller

    def test_invalidating_either_page_drops_a_spanning_block(self):
        cache = CodeCache()
        pc = 0x10_0000
        page = pc // PAGE_SIZE
        for victim in (page, page + 1):
            tb = synthetic_tb(pc, lambda cpu, mem, n: 0, pages=(page, page + 1))
            cache.insert(tb)
            assert cache.invalidate_page(victim) == 1
            assert cache.peek(pc) is None
            # The sibling page's index holds no leftover entry.
            other = page + 1 if victim == page else page
            assert cache.invalidate_page(other) == 0

    def test_invalidation_count_not_inflated_by_stale_entries(self):
        cache = CodeCache()
        pc = 0x10_0000
        page = pc // PAGE_SIZE
        cache.insert(synthetic_tb(pc, lambda cpu, mem, n: 0, pages=(page, page + 1)))
        cache.invalidate_page(page)
        cache.insert(synthetic_tb(pc, lambda cpu, mem, n: 0, pages=(page,)))
        cache.invalidate_page(page + 1)
        assert cache.stats.invalidations == 1


# -- bugfix: block_ic reset before tb.fn -----------------------------------


class TestBlockIcReset:
    def test_fault_before_first_checkpoint_bills_zero_insns(self):
        # A block that stalls before its first `cpu.block_ic = k` assignment
        # (as a fused or miscompiled prologue could) must not be billed the
        # previous block's completed-instruction count.
        def stalls_immediately(cpu, mem, n):
            raise PageStall(0x999, False, 0)

        mem = FlatMemory()
        cpu = CPUState(pc=TEXT, tid=1)
        engine = ExecutionEngine(
            mem, cost=CostModel(cpi_dbt=10.0, translate_per_insn=0.0)
        )
        engine.cache.insert(synthetic_tb(TEXT, stalls_immediately, n_insns=4))
        cpu.block_ic = 57  # stale count from a previous block
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        assert stop.cycles == 0
        assert engine.insns_executed == 0

    def test_stall_on_blocks_first_memory_op_after_full_block(self):
        # Regression shape from the issue: a full block completes (block_ic
        # left at its length), then the next block stalls on its very first
        # memory instruction.  Only the first block's instructions may bill.
        src = """
        _start:
          li a0, 1
          li a1, 2
          la t2, cell
          j touch
        touch:
          ld a3, 0(t2)
          ecall
        .data
        cell: .quad 5
        """
        prog = assemble(src)
        mem = StallingMemory([page_of(prog.symbol("cell"))])
        mem.load_image(prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        engine = ExecutionEngine(
            mem, cost=CostModel(cpi_dbt=10.0, translate_per_insn=0.0)
        )
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        # li + li + la(movz+3*movk) + j = 7 completed instructions; the
        # stalled ld contributes nothing.
        assert stop.cycles == 70
        stop2 = engine.run_quantum(cpu, 1_000_000)
        assert stop2.kind is StopKind.SYSCALL
        assert cpu.regs[13] == 5


# -- bugfix: exact fractional-cycle accounting ------------------------------


class TestExactCycleAccounting:
    def test_fractional_cpi_carries_remainder_across_quanta(self):
        prog, mem, cpu = load(LOOP_SRC.replace("li t1, 200", "li t1, 500"))
        timing = CostModel(cpi_dbt=2.88, translate_per_insn=800.0)
        engine = ExecutionEngine(mem, cost=timing)
        total = 0
        quanta = 0
        while True:
            stop = engine.run_quantum(cpu, 10)  # tiny budget: many stops
            total += stop.cycles
            quanta += 1
            if stop.kind is StopKind.SYSCALL:
                break
            assert stop.kind is StopKind.QUANTUM
        # Hundreds of stops: int-truncation at each would lose ~0.5 cycles
        # per stop.  The carried remainder keeps the long-run total equal to
        # the per-instruction model to within one cycle's rounding.
        assert quanta > 100
        model = (
            engine.insns_translated * timing.translate_per_insn
            + engine.insns_executed * timing.cpi_dbt
        )
        assert total + cpu.cycle_frac == pytest.approx(model, abs=1e-6)
        assert 0.0 <= cpu.cycle_frac < 1.0
        # The engine's own mode split agrees with the model as well.
        assert engine.translate_cycles + engine.execute_cycles == pytest.approx(
            model, abs=1e-6
        )

    def test_integral_cpi_never_accumulates_fraction(self):
        prog, mem, cpu = load(LOOP_SRC)
        engine = ExecutionEngine(mem)  # default timing: all-integer costs
        while engine.run_quantum(cpu, 100).kind is not StopKind.SYSCALL:
            assert cpu.cycle_frac == 0.0
        assert cpu.cycle_frac == 0.0

    def test_interp_mode_also_carries_remainder(self):
        prog, mem, cpu = load(LOOP_SRC)
        timing = CostModel(cpi_interp=30.5)
        engine = ExecutionEngine(mem, mode="interp", cost=timing)
        total = 0
        while True:
            stop = engine.run_quantum(cpu, 100)
            total += stop.cycles
            if stop.kind is StopKind.SYSCALL:
                break
        model = engine.insns_executed * timing.cpi_interp
        assert total + cpu.cycle_frac == pytest.approx(model, abs=1e-6)


# -- chaining and unchaining ------------------------------------------------


class TestUnchaining:
    def _two_page_program(self, mem, value):
        """Block A (jal) on one page jumps to block B (li a0; ecall) on the
        next page, so invalidating B's page leaves A cached."""
        b_pc = TEXT + PAGE_SIZE
        emit_words(mem, TEXT, [Instruction(SPECS["jal"], rd=0, imm=b_pc - TEXT)])
        emit_words(mem, b_pc, [
            Instruction(SPECS["addi"], rd=10, rs1=0, imm=value),
            Instruction(SPECS["ecall"]),
        ])
        return b_pc

    def test_invalidation_severs_chains_to_dropped_blocks(self):
        mem = FlatMemory()
        b_pc = self._two_page_program(mem, 1)
        engine = ExecutionEngine(mem)
        run_to_syscall(engine, CPUState(pc=TEXT, tid=1))
        a_tb = engine.cache.peek(TEXT)
        assert a_tb.chain  # A chained directly to B

        engine.cache.invalidate_page(b_pc // PAGE_SIZE)
        assert not a_tb.chain
        assert engine.cache.stats.unchains >= 1

        # Guest rewrites B: the chained reference must not resurrect the
        # stale translation.
        emit_words(mem, b_pc, [
            Instruction(SPECS["addi"], rd=10, rs1=0, imm=2),
            Instruction(SPECS["ecall"]),
        ])
        cpu = CPUState(pc=TEXT, tid=2)
        run_to_syscall(engine, cpu)
        assert cpu.regs[10] == 2

    def test_flush_clears_chain_references(self):
        mem = FlatMemory()
        self._two_page_program(mem, 1)
        engine = ExecutionEngine(mem)
        run_to_syscall(engine, CPUState(pc=TEXT, tid=1))
        a_tb = engine.cache.peek(TEXT)
        engine.cache.flush()
        assert not a_tb.chain and not a_tb.chained_from
        assert len(engine.cache) == 0


# -- superblock promotion and demotion --------------------------------------


class TestSuperblocks:
    # Long enough that the cheaper superblock CPI amortizes the one-off
    # trace-compilation cost (~max_blocks * body_insns * translate_per_insn).
    HOT_SRC = LOOP_SRC.replace("li t1, 200", "li t1, 20000")

    def test_hot_loop_promotes_and_matches_baseline_state(self):
        prog, mem, cpu = load(self.HOT_SRC)
        hot = ExecutionEngine(mem, superblock_threshold=4, superblock_max_blocks=6)
        stop_hot = run_to_syscall(hot, cpu)
        assert hot.superblocks_formed >= 1
        sbs = [tb for tb in hot.cache._blocks.values() if tb.is_superblock]
        assert sbs and sbs[0].exec_count > 0
        assert len(sbs[0].member_pcs) >= 2  # the loop body unrolled

        prog2, mem2, cpu2 = load(self.HOT_SRC)
        base = ExecutionEngine(mem2)
        stop_base = run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs and cpu.pc == cpu2.pc
        assert hot.insns_executed == base.insns_executed
        # Cheaper superblock CPI wins despite the extra trace compilation.
        assert stop_hot.cycles < stop_base.cycles
        assert hot.superblock_saved_cycles > 0

    def test_below_threshold_is_bit_identical_to_baseline(self):
        prog, mem, cpu = load(LOOP_SRC)
        off = ExecutionEngine(mem, superblock_threshold=0)
        stop_off = run_to_syscall(off, cpu)
        prog2, mem2, cpu2 = load(LOOP_SRC)
        base = ExecutionEngine(mem2)
        stop_base = run_to_syscall(base, cpu2)
        assert off.superblocks_formed == 0
        assert stop_off.cycles == stop_base.cycles
        assert cpu.regs == cpu2.regs

    def test_demotion_on_member_page_invalidation_then_repromotion(self):
        prog, mem, cpu = load(LOOP_SRC)
        engine = ExecutionEngine(mem, superblock_threshold=4, superblock_max_blocks=6)
        run_to_syscall(engine, cpu)
        sb = next(tb for tb in engine.cache._blocks.values() if tb.is_superblock)
        dropped = engine.cache.invalidate_page(sb.pages[0])
        assert dropped >= 1
        assert not any(tb.is_superblock for tb in engine.cache._blocks.values())

        formed_before = engine.superblocks_formed
        cpu2 = CPUState(pc=prog.entry, tid=2, sp=0x7000_0000)
        run_to_syscall(engine, cpu2)
        assert engine.superblocks_formed > formed_before
        assert cpu2.regs == cpu.regs

    def test_cross_page_trace_is_demoted_from_either_page(self):
        # A 1-instruction block at the tail of one page jumps to a block on
        # the next page, which jumps back: the promoted trace spans both
        # pages and must be indexed (and invalidatable) under each.
        mem = FlatMemory()
        a_pc = TEXT + PAGE_SIZE - 4
        b_pc = TEXT + PAGE_SIZE
        emit_words(mem, a_pc, [Instruction(SPECS["jal"], rd=0, imm=4)])
        emit_words(mem, b_pc, [
            Instruction(SPECS["addi"], rd=5, rs1=5, imm=1),
            Instruction(SPECS["jal"], rd=0, imm=a_pc - (b_pc + 4)),
        ])
        engine = ExecutionEngine(mem, superblock_threshold=3, superblock_max_blocks=4)
        stop = engine.run_quantum(CPUState(pc=a_pc, tid=1), 50_000)
        assert stop.kind is StopKind.QUANTUM
        sb = next(tb for tb in engine.cache._blocks.values() if tb.is_superblock)
        assert a_pc // PAGE_SIZE in sb.pages and b_pc // PAGE_SIZE in sb.pages
        engine.cache.invalidate_page(b_pc // PAGE_SIZE)
        assert not any(tb.is_superblock for tb in engine.cache._blocks.values())
        # No stale entry left under the first page either.
        assert engine.cache.peek(a_pc) is None or not engine.cache.peek(a_pc).is_superblock

    def test_trace_tail_may_end_in_a_syscall_block(self):
        src = """
        _start:
          li t0, 0
        loop:
          addi t0, t0, 1
          li t1, 50
          blt t0, t1, loop
          li a0, 42
          ecall
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem, superblock_threshold=2, superblock_max_blocks=8)
        run_to_syscall(engine, cpu)
        assert cpu.regs[10] == 42
        assert cpu.regs[5] == 50


# -- idiom fusion ------------------------------------------------------------


class TestFusion:
    def test_cmp_branch_fusion_hits_and_matches_baseline(self):
        src = """
        _start:
          li t0, 0
          li t6, 30
        loop:
          addi t0, t0, 1
          slt t5, t0, t6
          bne t5, zero, loop
          ecall
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        stop_f = run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("cmp_branch", 0) >= 29
        prog2, mem2, cpu2 = load(src)
        base = ExecutionEngine(mem2)
        stop_b = run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs and cpu.pc == cpu2.pc
        assert fused.insns_executed == base.insns_executed
        assert stop_f.cycles < stop_b.cycles
        assert fused.fusion_saved_cycles > 0

    def test_load_op_fusion_hits_and_matches_baseline(self):
        src = """
        _start:
          li s0, 0
          li t0, 0
          li t6, 16
        loop:
          la t2, table
          slli t3, t0, 3
          add t2, t2, t3
          ld t4, 0(t2)
          add s0, s0, t4
          addi t0, t0, 1
          blt t0, t6, loop
          ecall
        .data
        table: .quad 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("load_op", 0) >= 16
        assert cpu.regs[8] == sum(range(1, 17))
        prog2, mem2, cpu2 = load(src)
        base = ExecutionEngine(mem2)
        run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs

    def test_atomic_branch_fusion_on_spin_idiom(self):
        src = """
        _start:
          la a0, cell
          li t1, 1
        retry:
          lr t0, (a0)
          bne t0, zero, retry
          sc t2, t1, (a0)
          bne t2, zero, retry
          ld a1, 0(a0)
          ecall
        .data
        .align 8
        cell: .quad 0
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("atomic_branch", 0) >= 2
        assert cpu.regs[11] == 1  # the lock was taken

    def test_fusion_not_applied_when_setcond_clobbers_source(self):
        # slt t0, t0, t6 then bne t0: the branch must see the *new* t0, so
        # the pair cannot be rewritten to re-test the original operands.
        src = """
        _start:
          li t0, 5
          li t6, 30
          slt t0, t0, t6
          bne t0, zero, taken
          li a0, 111
          ecall
        taken:
          li a0, 222
          ecall
        """
        prog, mem, cpu = load(src)
        fused = ExecutionEngine(mem, fusion=True)
        run_to_syscall(fused, cpu)
        assert fused.fusion_hits.get("cmp_branch", 0) == 0
        assert cpu.regs[10] == 222

    def test_fusion_inside_superblocks_compounds(self):
        src = """
        _start:
          li t0, 0
          li t6, 100
        loop:
          addi t0, t0, 1
          slt t5, t0, t6
          bne t5, zero, loop
          ecall
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(
            mem, fusion=True, superblock_threshold=4, superblock_max_blocks=6
        )
        run_to_syscall(engine, cpu)
        assert engine.superblocks_formed >= 1
        assert engine.fusion_hits.get("cmp_branch", 0) > 50
        assert engine.superblock_saved_cycles > 0
        assert engine.fusion_saved_cycles > 0
        prog2, mem2, cpu2 = load(src)
        base = ExecutionEngine(mem2)
        run_to_syscall(base, cpu2)
        assert cpu.regs == cpu2.regs


# -- translation/execution mode split ---------------------------------------


class TestModeSplit:
    def test_stop_event_reports_translation_share(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n li a1, 2\n ecall\n")
        timing = CostModel(cpi_dbt=2.0, translate_per_insn=100.0)
        engine = ExecutionEngine(mem, cost=timing)
        stop = run_to_syscall(engine, cpu)
        assert stop.cycles == 306
        assert stop.translate_cycles == 300
        assert engine.translate_cycles == 300.0
        assert engine.execute_cycles == 6.0

    def test_quantum_with_no_translation_reports_zero(self):
        prog, mem, cpu = load(LOOP_SRC)
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 10_000)  # warm: all blocks translated
        stop = engine.run_quantum(cpu, 10_000)
        assert stop.translate_cycles == 0


# -- loop residency -----------------------------------------------------------
#
# A block whose exit re-enters it goes round inside its generated function and
# the engine books those entries afterwards (test_dbt_differential.py has the
# property).  Each case below is the smallest program that tells one line of
# that machinery from its absence; the reference is the same engine with its
# allowance pinned to one entry per call.

WALK = """
_start:
  la t0, region
  li t1, 24
  li t4, 0
  la a0, cell
  li a1, 3
loop:
  {access}
  add t4, t4, t5
  addi t0, t0, 256
  addi t1, t1, -1
  bnez t1, loop
  ecall
.data
.align 8
cell: .quad 0
.bss
.align 4096
region: .space 8192
"""

# An early exit makes the body two blocks: only the trace loops, and the exit
# is a side exit taken in a late trip.
EARLY_EXIT = """
_start:
  li t0, 0
  li t1, 60
  li t2, 41
loop:
  addi t0, t0, 1
  beq t0, t2, out
  slt t5, t0, t1
  bnez t5, loop
out:
  ecall
"""

# t0 is read before anything writes it, so the pre-header pins it: the ``li``
# must leave its constant in the local the next trip reads, not only in the
# register file (the ``addi`` makes the two differ if it does not).
PINNED_LI = """
_start:
  li t0, 7
  li t1, 9
  li t2, 0
loop:
  add t2, t2, t0
  addi t0, t0, 5
  li t0, 3
  addi t1, t1, -1
  bnez t1, loop
  ecall
"""

# a2 holds an integer sum, becomes an FP product, and is read as bits again.
FP_OVER_INT = """
_start:
  li a0, 0x3FF8000000000000
  li t0, 5
  li t1, 6
  li t2, 0
loop:
  add a2, t0, t1
  add t3, a2, a2
  fmul a2, a0, a0
  add t2, t2, a2
  add t2, t2, t3
  addi t1, t1, -1
  bnez t1, loop
  ecall
"""

# a2 is read as bits at the top of each trip and written as a float below it.
FP_CARRIED_AS_BITS = """
_start:
  li a0, 0x3FF8000000000000
  li a2, 0x3FF0000000000000
  li t1, 9
  li t2, 0
loop:
  add t2, t2, a2
  fmul a2, a2, a0
  addi t1, t1, -1
  bnez t1, loop
  ecall
"""

# a2 is read as a float at the top of each trip and edited as bits below it.
FP_READ_BITS_EDITED = """
_start:
  li a0, 0x3FF8000000000000
  li a2, 0x4008000000000000
  li t1, 9
  li t2, 0
loop:
  fadd a3, a2, a0
  add t2, t2, a3
  addi a2, a2, 1
  addi t1, t1, -1
  bnez t1, loop
  ecall
"""

# Reads of registers the body has already written are bound where they stand,
# never in the pre-header: a2 (integer, then read as a float) and a4 (a float
# committed by the atomic's fault point, then read as bits).
WRITTEN_THEN_READ = """
_start:
  li a0, 0x3FF8000000000000
  la a1, cell
  li t0, 0x4000000000000000
  li t1, 6
  li t2, 0
loop:
  add a2, t0, t1
  fadd a3, a2, a0
  fmul a4, a3, a0
  amoadd t5, t1, (a1)
  add t2, t2, a4
  add t2, t2, a3
  addi t1, t1, -1
  bnez t1, loop
  ecall
.data
.align 8
cell: .quad 0
"""

# Pointer chasing: the address register is the load's destination.
CHASE = """
_start:
  la t0, n0
  li t1, 12
loop:
  ld t0, 0(t0)
  addi t1, t1, -1
  bnez t1, loop
  ecall
.data
.align 8
n0: .quad n1
n1: .quad n2
n2: .quad n0
"""

# ``jalr t0, t0, 0``: the link overwrites the register the target came from.
JALR_SELF = """
_start:
  la t0, hop
  li t1, 0
  jalr t0, t0, 0
back:
  addi t1, t1, 100
  ecall
hop:
  addi t1, t1, 1
  jalr t0, t0, 0
"""

SELF_JUMP = "_start:\n  j _start\n"

# Back-edge liveness: a3 is a float left dirty at the back edge, and the store
# walks into the withheld second page of ``region`` on trip 4.  In the first
# loop the next trip overwrites a3 before anything can read it, so the back
# edge does not commit it; in the other two something reads it first — the
# store's miss arm, then the integer add.
FP_LIVENESS = """
_start:
  li a0, 0x3FF8000000000000
  li a4, 0
  li t2, 0
  la t0, region
  li t1, 8
loop:
{body}
  addi t0, t0, 1024
  addi t1, t1, -1
  bnez t1, loop
  ecall
.bss
.align 4096
region: .space 8192
"""
FP_DEAD_AT_BACK_EDGE = FP_LIVENESS.format(body="""\
  addi a3, t1, 3
  fcvt.d.l a3, a3
  fmul a3, a3, a0
  fadd a4, a4, a3
  sd a4, 0(t0)""")
FP_LIVE_INTO_MISS_ARM = FP_LIVENESS.format(body="""\
  sd a4, 0(t0)
  addi a3, t1, 3
  fcvt.d.l a3, a3
  fmul a3, a3, a0
  fadd a4, a4, a3""")
FP_READ_AS_INT_FIRST = FP_LIVENESS.format(body="""\
  add t2, t2, a3
  fcvt.d.l a3, t1
  fmul a3, a3, a0
  sd t2, 0(t0)""")
# The integer twins: a3 an integer dirty at the back edge.  It stays dirty
# across it when the trip's first write of it follows the store, whose miss arm
# must then commit the previous trip's value; but where the trip reads a3 as a
# float first, the back edge re-binds ``f13`` from ``R[13]`` and commits it.
INT_CARRIED_INTO_MISS_ARM = FP_LIVENESS.format(body="""\
  sd a4, 0(t0)
  addi a3, t1, 3
  add a4, a4, a3""")
INT_OVER_FLOAT_PIN = FP_LIVENESS.format(body="""\
  fadd a4, a4, a3
  addi a3, t1, 3
  sd a4, 0(t0)""")
# A float pin carried across the back edge: a4 is read as a float first and
# written before the store, the first observation point, so its sum stays a
# host float from trip to trip and only the store's miss arm and the exit
# commit it; a3, also read first but written after the store, is committed
# at the back edge.
FP_PIN_CARRIED = FP_LIVENESS.format(body="""\
  fadd a4, a4, a3
  sd a4, 0(t0)
  fcvt.d.l a3, t1""")

LOOPS = {
    "plain": (LOOP_SRC, ()),
    "walk-load": (WALK.format(access="lbu t5, 0(t0)"), ("region",)),
    "walk-store": (WALK.format(access="sd t1, 8(t0)"), ("region",)),
    "walk-atomic": (WALK.format(access="amoadd t5, a1, (a0)\n  sb t5, 0(t0)"), ("region",)),
    "atomic-stalls": (WALK.format(access="mv a0, t0\n  amoadd t5, a1, (a0)"), ("region",)),
    "early-exit": (EARLY_EXIT, ()),
    "pinned-li": (PINNED_LI, ()),
    "fp-over-int": (FP_OVER_INT, ()),
    "fp-carried-as-bits": (FP_CARRIED_AS_BITS, ()),
    "fp-read-bits-edited": (FP_READ_BITS_EDITED, ()),
    "written-then-read": (WRITTEN_THEN_READ, ()),
    "chase": (CHASE, ()),
    "jalr-self": (JALR_SELF, ()),
    "self-jump": (SELF_JUMP, ()),
    "fp-dead-at-back-edge": (FP_DEAD_AT_BACK_EDGE, ("region",)),
    "fp-live-into-miss-arm": (FP_LIVE_INTO_MISS_ARM, ("region",)),
    "fp-read-as-int-first": (FP_READ_AS_INT_FIRST, ("region",)),
    "int-carried-into-miss-arm": (INT_CARRIED_INTO_MISS_ARM, ("region",)),
    "int-over-float-pin": (INT_OVER_FLOAT_PIN, ("region",)),
    "fp-pin-carried": (FP_PIN_CARRIED, ("region",)),
}
HOT_TIERS = [
    {}, dict(fusion=True), dict(superblock_threshold=2), dict(superblock_threshold=8, fusion=True)
]


def quanta(source, stall, quantum, timing, **engine_options):
    """``source`` run quantum by quantum (to its ecall, or for 200,000 cycles)
    on a memory that withholds the second page of each ``stall`` label: what
    every stop shows, then the engine."""
    prog = assemble(source)
    mem = StallingMemory({page_of(prog.symbol(label)) + 1 for label in stall})
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
    engine = ExecutionEngine(mem, cost=timing, **engine_options)
    stops, spent = [], 0
    while spent < 200_000:
        stop = engine.run_quantum(cpu, quantum)
        spent += stop.cycles
        stops.append((stop.kind, stop.cycles, stop.translate_cycles, cpu.cycle_frac, cpu.pc,
                      list(cpu.regs), memory_image(mem)))
        if stop.kind is StopKind.SYSCALL:
            break
        assert stop.kind in (StopKind.QUANTUM, StopKind.PAGE_STALL), stop
    return stops, engine


#: Running totals: zero, subnormals, sums of cycles up to about 1e9, and whole
#: numbers just below 2**53, where a whole sum stops being exact.
_totals = (st.sampled_from([0.0, 5e-324, 2.0**-1022])
           | st.floats(0.0, 2.0**-1022, exclude_max=True) | st.floats(0.0, 1e9)
           | st.integers(0, 2**53).map(float)
           | st.integers(0, 2**20).map(lambda k: float(2**53 - k)))


@st.composite
def repeated_sums(draw):
    """``(total, other, term, times)``: two running totals and a whole term
    (a whole CPI times a block's length, or any whole number), a fractional
    CPI times a block's length, a term that ties in the total's binade, or
    any term; from no additions to 10**5."""
    total, other = draw(_totals), draw(_totals)
    kind = draw(st.sampled_from(["whole", "cpi", "tie", "any"]))
    if kind == "whole":
        term = float(draw(st.sampled_from([1, 3, 800]) | st.integers(0, 2**24))
                     * draw(st.integers(1, 64)))
    elif kind == "cpi":
        term = draw(st.sampled_from([2.88, 0.7, 0.96, 3.0])) * draw(st.integers(1, 64))
    elif kind == "tie":
        term = math.ulp(total) * (draw(st.integers(0, 2**20)) + 0.5)
    else:
        term = draw(st.floats(0.0, 1e6))
    return total, other, term, draw(st.integers(0, 40) | st.integers(0, 10**5))


class TestLoopResidency:
    @pytest.mark.parametrize("name", list(LOOPS))
    def test_in_place_trips_are_booked_as_the_dispatcher_books_them(self, name):
        source, stall = LOOPS[name]
        timing = CostModel(cpi_dbt=2.88, cpi_superblock=0.9, translate_per_insn=2.5)
        for hot in HOT_TIERS:
            for quantum in (53, 997, 10**6):
                stops, engine = quanta(source, stall, quantum, timing, **hot)
                want, pinned = quanta(source, stall, quantum, timing, cache=OneEntryCache(),
                                      **hot)
                assert stops == want, (hot, quantum)
                assert engine_books(engine) == engine_books(pinned), (hot, quantum)
        if name != "self-jump":  # and where it ends is where the interpreter ends
            oracle, _engine = quanta(source, stall, 10**6, timing, mode="interp")
            assert stops[-1][4:] == oracle[-1][4:]

    @pytest.mark.parametrize("name", ["plain", "walk-load", "fp-over-int", "chase"])
    def test_the_trips_really_are_made_in_place(self, name):
        source, stall = LOOPS[name]
        prog = assemble(source)
        mem = StallingMemory(())
        mem.load_image(prog.iter_load_segments())
        engine = ExecutionEngine(mem)
        calls = python_calls(engine.run_quantum, CPUState(pc=prog.entry, tid=1), 10**6)
        hot = engine.cache.peek(prog.symbol("loop"))
        assert hot.loops and hot.exec_count >= 5
        # Entered by the dispatcher twice — found by lookup, then chained to
        # itself — and never again.
        assert sum(file == f"<tb@{hot.pc:#x}>" for file, _name in calls) == 2

    def test_allowance_stops_where_the_block_is_promoted(self):
        """The trip that reaches the threshold must be the last of its call:
        promotion (and its translation bill) lands after the same entry, and
        every later trip runs at the superblock's CPI."""
        source = LOOP_SRC.replace("li t1, 200", "li t1, 2000")
        timing = CostModel(translate_per_insn=100.0)
        stops, engine = quanta(source, (), 10**6, timing, superblock_threshold=8)
        want, pinned = quanta(source, (), 10**6, timing, superblock_threshold=8,
                              cache=OneEntryCache())
        assert engine.superblocks_formed == 1
        assert [s[1:3] for s in stops] == [s[1:3] for s in want]
        assert engine.superblock_saved_cycles == pinned.superblock_saved_cycles > 0

    def test_fractional_cycles_are_replayed_add_for_add(self):
        """1157 trips of 8.64 cycles per quantum: their sum, added one at a
        time, is not ``1157 * 8.64`` in the last bits — and those bits are the
        remainder the vCPU carries into its next quantum."""
        source = LOOP_SRC.replace("li t1, 200", "li t1, 20000")
        timing = CostModel(cpi_dbt=2.88, translate_per_insn=0.0)
        stops, engine = quanta(source, (), 10_000, timing)
        want, pinned = quanta(source, (), 10_000, timing, cache=OneEntryCache())
        assert len(stops) > 15
        assert [s[3] for s in stops] == [s[3] for s in want]  # cycle_frac, to the bit
        assert engine.execute_cycles == pinned.execute_cycles

    @settings(deadline=None)  # example count comes from the profile (tests/conftest.py)
    @given(repeated_sums())
    @example((2.0**53 - 22, 0.0, 3.0, 7))  # whole, the last sum one below 2**53
    @example((2.0**53 - 21, 0.0, 3.0, 7))  # whole, the last sum 2**53 itself
    @example((2.0**53 - 1, 0.0, 1.0, 3))  # past 2**53 the additions stick; a product would not
    @example((0.0, 0.0, 2.88 * 7, 10**5))  # the pure-QEMU CPI, from zero
    @example((1000.0, 5.0, 3.0 * 7, 100))  # whole, both sums in one product
    @example((1000.0, 0.5, 3.0 * 7, 100))  # a whole term, one fractional sum
    @example((1000.0, 1000.0, math.ulp(1000.0) * 4.5, 100))  # ties from an even multiple
    @example((7 * 5e-324, 0.0, 3 * 5e-324, 1000))  # subnormal
    def test_a_replay_in_closed_form_is_its_additions_bit_for_bit(self, case):
        """Both arms of ``_replay`` (one product for whole sums below 2**53,
        one addition per entry otherwise) and of ``_add_times`` leave the
        bits of the additions one at a time."""
        total, other, term, times = case

        def added(start):
            for _ in range(times):
                start += term
            return start

        assert _add_times(total, term, times).hex() == added(total).hex()
        assert _add_times(other, term, times).hex() == added(other).hex()
        engine = ExecutionEngine(FlatMemory())
        tb = SimpleNamespace(pc=TEXT, n_insns=7, exec_count=0, fused=(), fused_counts=(),
                             is_superblock=False)
        cycles, execute = engine._replay(tb, times, term, total, other)
        assert (cycles.hex(), execute.hex()) == (added(total).hex(), added(other).hex())
        assert tb.exec_count == times and engine.insns_executed == 7 * times

    def test_a_whole_replay_makes_no_call(self):
        engine = ExecutionEngine(FlatMemory())
        tb = SimpleNamespace(pc=TEXT, n_insns=7, exec_count=0, fused=(), fused_counts=(),
                             is_superblock=False)
        assert python_calls(engine._replay, tb, 10**4, 21.0, 5.0, 1e6) == [
            (ExecutionEngine._replay.__code__.co_filename, "ExecutionEngine._replay")
        ]
        calls = c_calls(engine._replay, tb, 10**4, 21.0, 5.0, 1e6)
        assert [call for call in calls if call is not sys.setprofile] == []

    def test_a_non_positive_cpi_never_divides(self):
        prog, mem, cpu = load(LOOP_SRC)
        for cpi in (0.0, -1.0):
            # CostModel refuses such a CPI; the engine must not rely on that.
            cost = vars(CostModel(translate_per_insn=1.0))
            unchecked = SimpleNamespace(**{**cost, "cpi_dbt": cpi})
            engine = ExecutionEngine(mem, cost=unchecked)
            cpu = CPUState(pc=prog.entry, tid=1)
            assert engine.run_quantum(cpu, 10**6).kind is StopKind.SYSCALL
            assert cpu.regs[5] == 200


class TestBackEdgeLiveness:
    """A float shadow left dirty at the back edge is committed there only if
    the next trip can observe it before overwriting it, or could observe the
    register file before writing it; an integer only if the back edge
    re-binds its float pin from the register file.  Wherever either is
    observed — here the miss arm of a store whose page goes away on trip 4 —
    ``cpu.regs`` is the interpreter's, and a resident store of a float packs
    the float: its hit path casts nothing to bits."""

    CASES = {  # program, store's index in the body, of a3/a4 what the back edge commits
        "dead": (FP_DEAD_AT_BACK_EDGE, 4, set()),
        "live-into-miss-arm": (FP_LIVE_INTO_MISS_ARM, 0, {13, 14}),
        "read-as-int-first": (FP_READ_AS_INT_FIRST, 3, {13}),
        "int-carried-into-miss-arm": (INT_CARRIED_INTO_MISS_ARM, 0, set()),
        "int-over-float-pin": (INT_OVER_FLOAT_PIN, 2, {13}),
        "fp-pin-carried": (FP_PIN_CARRIED, 1, {13}),
    }
    STALL_TRIP = 4

    @staticmethod
    def _back_edge(source):
        """What a trip that goes round runs last: the loop body's lines after
        its ``break``."""
        tail = source.split(": break\n", 1)[1].splitlines()
        return "\n".join(itertools.takewhile(lambda ln: ln.startswith(" " * 8), tail))

    @pytest.mark.parametrize("superblock", [False, True], ids=["block", "superblock"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_stall_mid_loop_and_resume_match_the_interpreter(self, case, superblock):
        source, store_at, commits = self.CASES[case]
        prog = assemble(source)
        mem = StallingMemory([page_of(prog.symbol("region")) + 1])
        mem.load_image(prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
        head = prog.symbol("loop")
        prefix = (head - prog.entry) // 4
        Interpreter(mem).run(cpu, prefix)  # no memory access before the loop
        assert cpu.pc == head
        ir = Frontend(mem).build_block(head)
        backend = Backend()
        # A trace of the loop body twice over loops in place like the block.
        tb = backend.compile_superblock([ir, ir]) if superblock else backend.compile(ir)
        body = len(ir.instrs)
        assert tb.loops
        back = self._back_edge(tb.source)
        assert {v for v in (13, 14) if f"R[{v}] = " in back} == commits, tb.source
        hit = [ln for ln in tb.source.splitlines() if ln.lstrip().startswith(("elif ", "else: "))]
        assert hit and not any("QU(" in ln for ln in hit), tb.source

        oracle_mem = FlatMemory()
        oracle_mem.load_image(prog.iter_load_segments())
        oracle = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
        stalled_at = prefix + self.STALL_TRIP * body + store_at
        Interpreter(oracle_mem).run(oracle, stalled_at)

        with pytest.raises(PageStall):
            tb.fn(cpu, mem, 100)
        trips = 2 if superblock else 1  # per entry
        assert (cpu.pc, cpu.regs) == (oracle.pc, oracle.regs)
        assert cpu.block_runs == self.STALL_TRIP // trips
        assert cpu.block_ic == self.STALL_TRIP % trips * body + store_at

        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 10**6)
        assert stop.kind is StopKind.SYSCALL, stop
        assert Interpreter(oracle_mem).run(oracle) == RC_SYSCALL
        assert (cpu.pc, cpu.regs) == (oracle.pc, oracle.regs)
        assert cpu.block_ic == 1  # the ecall's own block ran last
        assert stalled_at + engine.insns_executed == prefix + 8 * body + 1


class TestKnownValues:
    def test_a_temp_keeps_the_value_its_register_had_when_copied(self):
        """The backend's contract with any frontend: a temp copied from a
        guest register (no statement is emitted for the copy) still holds the
        old value after the register is rewritten."""
        target, link = 0x2_0000, 0x1234
        for rewrite in (TCGOp("mov", (guest(5), imm(link))),
                        TCGOp("add", (guest(5), guest(6), imm(8))),
                        TCGOp("ld", (guest(5), guest(7), 8, False))):
            ops = [TCGOp("add", (temp(0), guest(5), imm(0))), rewrite,
                   TCGOp("jmp_ind", (temp(0),))]
            ir = BlockIR(pc=TEXT, instrs=[InstrIR(TEXT, "x", ops, False)], next_pc=TEXT + 4,
                         words=())
            tb = Backend().compile(ir)
            cpu = CPUState(pc=TEXT, tid=1)
            cpu.regs[5], cpu.regs[7] = target, 0x8000
            tb.fn(cpu, FlatMemory(), 1)
            assert cpu.pc == target and cpu.regs[5] != target, rewrite
