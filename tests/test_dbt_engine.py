"""Execution-engine behaviour: quanta, code cache, precise page stalls, faults."""

import gc

import pytest

from repro import Cluster, DQEMUConfig
from repro.cost import CostModel
from repro.dbt import Backend, CPUState, ExecutionEngine, Frontend, StopKind, fpu
from repro.dbt.interp import Interpreter
from repro.errors import InvalidInstruction, UnalignedAccess
from repro.isa import assemble
from repro.mem import FlatMemory, PAGE_SIZE, PageStall, page_of
from repro.mem.msi import MSIState
from repro.workloads import memaccess, swaptions
from tests.conftest import StallingMemory, c_calls, python_calls, resident_node_memory

TEXT = 0x1_0000


def load(source):
    prog = assemble(source)
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
    return prog, mem, cpu


class TestQuantum:
    def test_quantum_expires_on_infinite_loop(self):
        prog, mem, cpu = load("_start:\n j _start\n")
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 10_000)
        assert stop.kind is StopKind.QUANTUM
        assert stop.cycles >= 10_000

    def test_cycles_accounted_for_translated_code(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n li a1, 2\n ecall\n")
        timing = CostModel(cpi_dbt=2.0, translate_per_insn=100.0)
        engine = ExecutionEngine(mem, cost=timing)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.SYSCALL
        # 3 instructions: translation 300 + execution 6
        assert stop.cycles == 306
        assert engine.insns_executed == 3
        assert engine.insns_translated == 3

    def test_retranslation_not_charged_twice(self):
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 5
              blt t0, t1, loop
              ecall
            """
        )
        timing = CostModel(cpi_dbt=1.0, translate_per_insn=1000.0)
        engine = ExecutionEngine(mem, cost=timing)
        stop = engine.run_quantum(cpu, 10_000_000)
        assert stop.kind is StopKind.SYSCALL
        assert engine.cache.stats.translations == 3  # entry, loop body, exit


class TestCodeCache:
    def test_blocks_reused_across_loop_iterations(self):
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 100
              blt t0, t1, loop
              ecall
            """
        )
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 100_000_000)
        stats = engine.cache.stats
        assert stats.translations <= 4
        # Every loop iteration dispatches the body; chaining turns almost
        # all of those dispatches into direct chain follows.
        assert stats.dispatches > 100
        assert stats.chain_follows > 90
        assert stats.misses == stats.translations

    def test_chaining_disabled_pays_a_lookup_per_block(self):
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 100
              blt t0, t1, loop
              ecall
            """
        )
        engine = ExecutionEngine(mem, chaining=False)
        engine.run_quantum(cpu, 100_000_000)
        stats = engine.cache.stats
        assert stats.chain_follows == 0
        assert stats.lookups > 100
        assert stats.hit_rate > 0.9

    def test_invalidate_page_drops_blocks(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 1_000_000)
        assert len(engine.cache) > 0
        dropped = engine.cache.invalidate_page(TEXT // PAGE_SIZE)
        assert dropped > 0
        assert len(engine.cache) == 0

    def test_invalidated_block_is_retranslated(self):
        prog, mem, cpu = load("_start:\n li a0, 1\n ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 1_000_000)
        first = engine.cache.stats.translations
        engine.cache.invalidate_page(TEXT // PAGE_SIZE)
        cpu2 = CPUState(pc=prog.entry, tid=2)
        engine.run_quantum(cpu2, 1_000_000)
        assert engine.cache.stats.translations == 2 * first

    def test_block_does_not_cross_page_boundary(self):
        # straight-line code spanning a page edge must split into >= 2 blocks
        body = "\n".join("  addi t0, t0, 1" for _ in range(2000))
        prog, mem, cpu = load(f"_start:\n{body}\n  ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 100_000_000)
        for pc in list(engine.cache._blocks):
            tb = engine.cache._blocks[pc]
            last_insn_start = tb.end_pc - 4
            assert page_of(tb.pc) == page_of(last_insn_start)


class TestPreciseStalls:
    def test_stall_mid_block_resumes_exactly(self):
        src = """
        _start:
          li a0, 1
          li a1, 10
          la t2, cell
          sd a1, 0(t2)       # faults here on first touch
          addi a0, a0, 100
          ecall
        .data
        cell: .quad 0
        """
        prog = assemble(src)
        data_page = page_of(prog.symbol("cell"))
        mem = StallingMemory([data_page])
        mem.load_image(prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        assert stop.info.page == data_page
        assert stop.info.write is True
        # a0 committed by earlier instructions, the store not yet done
        assert cpu.regs[10] == 1
        # resume: the faulting sd re-executes, then the block completes
        stop2 = engine.run_quantum(cpu, 1_000_000)
        assert stop2.kind is StopKind.SYSCALL
        assert cpu.regs[10] == 101
        assert mem.load(prog.symbol("cell"), 8, False) == 10

    def test_stall_cycle_accounting_counts_completed_insns_only(self):
        src = """
        _start:
          li a0, 1
          la t2, cell
          ld a1, 0(t2)
          ecall
        .data
        cell: .quad 7
        """
        prog = assemble(src)
        data_page = page_of(prog.symbol("cell"))
        mem = StallingMemory([data_page])
        mem.load_image(prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        timing = CostModel(cpi_dbt=10.0, translate_per_insn=0.0)
        engine = ExecutionEngine(mem, cost=timing)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        # li (1) + la (4 = movz+3*movk) completed; ld not committed
        assert stop.cycles == 50

    def test_interp_mode_stalls_identically(self):
        src = """
        _start:
          la t2, cell
          ld a1, 0(t2)
          ecall
        .data
        cell: .quad 99
        """
        prog = assemble(src)
        mem = StallingMemory([page_of(prog.symbol("cell"))])
        mem.load_image(prog.iter_load_segments())
        cpu = CPUState(pc=prog.entry, tid=1)
        engine = ExecutionEngine(mem, mode="interp")
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.PAGE_STALL
        stop2 = engine.run_quantum(cpu, 1_000_000)
        assert stop2.kind is StopKind.SYSCALL
        assert cpu.regs[11] == 99


# FP state carried as host floats: a0/a1 live across iterations (and across
# superblock members), a0/a2/a4 are dirty at the store, a1 goes dirty after
# it.  The store walks from page A (iterations 0-1) onto page B (2-3).
FP_STALL_LOOP = """
_start:
  la t2, cells
  li a0, 0x3FF8000000000000   # 1.5
  li a1, 0x3FD0000000000000   # 0.25
  li t0, 4
  li t1, 2048
loop:
  fmul a2, a0, a1
  fadd a0, a2, a0
  fsqrt a4, a0
fault:
  sd a0, 0(t2)
  fsub a1, a1, a4
  add t2, t2, t1
  addi t0, t0, -1
  bnez t0, loop
  ecall
.bss
.align 4096
cells: .space 8192
"""


class TestPreciseFloatState:
    """A PageStall inside a block that holds FP values as host floats leaves
    ``cpu.regs`` exactly as the interpreter has them at that instruction —
    what the fault handler, migration and checkpoint capture read (§4.2)."""

    @pytest.mark.parametrize(
        "hot", [{}, dict(superblock_threshold=2, fusion=True)], ids=["blocks", "superblock"]
    )
    def test_stall_commits_every_dirty_shadow_and_resumes(self, hot):
        prog = assemble(FP_STALL_LOOP)
        cells, loop, fault = (prog.symbol(n) for n in ("cells", "loop", "fault"))
        page_a, page_b = page_of(cells), page_of(cells) + 1

        # Unfaulted run; with ``hot`` it also leaves the loop promoted.
        mem = resident_node_memory(prog)
        store = mem.pages
        engine = ExecutionEngine(mem, **hot)
        unfaulted = CPUState(pc=prog.entry, tid=1)
        assert engine.run_quantum(unfaulted, 10**9).kind is StopKind.SYSCALL
        want_cells = mem.read_bytes(cells, 2 * PAGE_SIZE)
        assert engine.cache.peek(loop).is_superblock == bool(hot)

        # Same engine, page B gone: iteration 2's store stalls.
        store.install(page_a, bytes(PAGE_SIZE), MSIState.MODIFIED)
        mem.invalidate(page_b)
        cpu = CPUState(pc=prog.entry, tid=1)
        before = engine.insns_executed
        stop = engine.run_quantum(cpu, 10**9)
        assert stop.kind is StopKind.PAGE_STALL
        assert (stop.info.page, stop.info.write) == (page_b, True)
        assert cpu.pc == fault
        # Three FP ops precede the store.  The entry block subsumes iteration
        # 0, so iteration 2 is the trace's second member (8 insns each).
        assert cpu.block_ic == (8 if hot else 0) + 3

        # The oracle, stepped over exactly the instructions that completed.
        oracle_mem = FlatMemory()
        oracle_mem.load_image(prog.iter_load_segments())
        oracle = CPUState(pc=prog.entry, tid=1)
        Interpreter(oracle_mem).run(oracle, engine.insns_executed - before)
        assert oracle.pc == fault
        assert cpu.regs == oracle.regs

        # The page arrives; the run ends where the unfaulted one did.
        store.install(page_b, bytes(PAGE_SIZE), MSIState.MODIFIED)
        assert engine.run_quantum(cpu, 10**9).kind is StopKind.SYSCALL
        assert cpu.regs == unfaulted.regs
        assert mem.read_bytes(cells, 2 * PAGE_SIZE) == want_cells


    def test_stall_in_the_third_trip_of_an_in_function_loop(self):
        """The loop block goes round in place; its store walks onto the absent
        page in the third trip of one call.  The two complete trips are
        reported next to the faulting instruction's pc and count, every dirty
        float is committed, and the books say exactly what ran."""
        # Seven stores 1024 bytes apart, the first at cells + 1024.
        source = (FP_STALL_LOOP.replace("li t0, 4", "li t0, 7")
                  .replace("li t1, 2048", "li t1, 1024")
                  .replace("la t2, cells", "la t2, cells\n  addi t2, t2, 1024"))
        prog = assemble(source)
        cells, loop, fault = (prog.symbol(n) for n in ("cells", "loop", "fault"))
        mem = resident_node_memory(prog)
        engine = ExecutionEngine(mem)
        warm = CPUState(pc=prog.entry, tid=1)
        assert engine.run_quantum(warm, 10**9).kind is StopKind.SYSCALL
        assert engine.cache.peek(loop).chain[loop] is engine.cache.peek(loop)

        mem.invalidate(page_of(cells) + 1)
        cpu = CPUState(pc=prog.entry, tid=1)
        before = engine.insns_executed
        stop = engine.run_quantum(cpu, 10**9)
        # The entry block subsumes iteration 0; the loop block is called once
        # and makes iterations 1 and 2, then stalls in iteration 3.
        assert stop.kind is StopKind.PAGE_STALL and cpu.pc == fault
        assert (cpu.block_runs, cpu.block_ic) == (2, 3)
        ran = engine.insns_executed - before
        assert ran == (loop - prog.entry) // 4 + 3 * 8 + 3  # set-up, three whole trips, a part
        assert stop.cycles == ran * engine.cost.cpi_dbt

        oracle_mem = FlatMemory()
        oracle_mem.load_image(prog.iter_load_segments())
        oracle = CPUState(pc=prog.entry, tid=1)
        Interpreter(oracle_mem).run(oracle, ran)
        assert oracle.pc == fault
        assert cpu.regs == oracle.regs

        mem.pages.install(page_of(cells) + 1, bytes(PAGE_SIZE), MSIState.MODIFIED)
        assert engine.run_quantum(cpu, 10**9).kind is StopKind.SYSCALL
        assert cpu.regs == warm.regs


def _cyclic_garbage(fn):
    """Run ``fn`` with the collector off, then collect: the objects only a
    cycle kept alive, by type name.  The collector's state is restored."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = fn()
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


class TestStallsLeaveNoGarbage:
    """A stall reaches the node without its traceback: kept, the traceback
    would hold the engine's frame, which holds the stall — one reference
    cycle per fault, left for the cycle collector."""

    LEAKS = {"PageStall", "traceback", "frame"}

    @pytest.mark.parametrize("mode", ["dbt", "interp"])
    def test_a_fault_storm_leaves_no_stall_cycles(self, mode):
        prog = memaccess.build_private_rmw(
            n_threads=8, n_nodes=4, pages_per_thread=12, passes=1, stride=1024, shared_beat=8
        )

        def storm():
            result = Cluster(4, DQEMUConfig(mode=mode)).run(prog)
            assert result.exit_code == 0 and result.stats.protocol.page_requests > 100

        assert not _cyclic_garbage(storm) & self.LEAKS

    def test_a_code_fetch_stall_leaves_no_cycle(self):
        prog = assemble("_start:\n li a0, 1\n ecall\n")
        mem = StallingMemory([page_of(prog.entry)])
        mem.load_image(prog.iter_load_segments())
        engine = ExecutionEngine(mem)

        def fetch():
            stop = engine.run_quantum(CPUState(pc=prog.entry, tid=1), 1000)
            assert stop.kind is StopKind.PAGE_STALL and stop.info.__traceback__ is None

        assert not _cyclic_garbage(fetch) & self.LEAKS

    def test_a_guest_fault_keeps_its_traceback(self):
        mem = FlatMemory()
        mem.write_bytes(TEXT, b"\x00\x00\x00\x00")  # opcode 0 undefined
        stop = ExecutionEngine(mem).run_quantum(CPUState(pc=TEXT, tid=1), 1000)
        assert stop.kind is StopKind.FAULT
        assert stop.info.__traceback__ is not None  # the node re-raises it


class TestFaults:
    def test_invalid_instruction_faults(self):
        mem = FlatMemory()
        mem.write_bytes(TEXT, b"\x00\x00\x00\x00")  # opcode 0 undefined
        cpu = CPUState(pc=TEXT, tid=1)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1000)
        assert stop.kind is StopKind.FAULT
        assert isinstance(stop.info, InvalidInstruction)

    def test_page_crossing_access_faults(self):
        src = """
        _start:
          la t0, edge
          addi t0, t0, 4090
          ld a0, 0(t0)
          ecall
        .data
        .align 4096
        edge: .space 8192
        """
        # 'edge' begins page-aligned, +4090 crosses into the next page mid-load
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.FAULT
        assert isinstance(stop.info, UnalignedAccess)

    def test_unaligned_atomic_faults(self):
        src = """
        _start:
          la t0, cell
          addi t0, t0, 4
          lr a0, (t0)
          ecall
        .data
        .align 8
        cell: .quad 0
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.FAULT
        assert isinstance(stop.info, UnalignedAccess)

    def test_ebreak_stops_with_break(self):
        prog, mem, cpu = load("_start:\n ebreak\n")
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1000)
        assert stop.kind is StopKind.BREAK

    def test_fault_pc_is_precise(self):
        src = """
        _start:
          li a0, 3
          la t0, cell
          addi t0, t0, 1
          lr a1, (t0)
          ecall
        .data
        .align 8
        cell: .quad 0
        """
        prog, mem, cpu = load(src)
        engine = ExecutionEngine(mem)
        stop = engine.run_quantum(cpu, 1_000_000)
        assert stop.kind is StopKind.FAULT
        # pc parked at the faulting lr, with prior instructions committed
        assert cpu.regs[10] == 3
        lr_pc = prog.entry + 4 * (1 + 4 + 1)  # li(1) + la(4) + addi(1)
        assert cpu.pc == lr_pc


class TestGeneratedCode:
    def test_tb_source_is_recorded(self):
        prog, mem, cpu = load("_start:\n li a0, 7\n ecall\n")
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 1_000_000)
        tb = engine.cache.lookup(prog.entry)
        assert tb is not None
        assert "def tb_" in tb.source
        assert "R = cpu.regs" in tb.source

    @staticmethod
    def _fp_helper_calls(calls):
        return [name for file, name in calls if file.endswith("dbt/fpu.py")]

    @staticmethod
    def _casts(calls):
        """``(bits → float, float → bits)`` casts among ``c_calls``' calls."""
        return sum(f is fpu.QP for f in calls), sum(f is fpu.DP for f in calls)

    def test_swaptions_trial_block_casts_only_at_boundaries(self):
        """The fp_compute hot loop: per trial no Python-level FP call and no
        float → bits cast.  The sum it stores is packed as a float and crosses
        the back edge dirty; the payoff it leaves dirty is overwritten by the
        next trial before anything can read it; so only the exit casts the
        two.  The two loop-invariant operands and the sum are cast once, by
        the pre-header."""
        prog = swaptions.build(8, 16, trials=400)
        mem = resident_node_memory(prog)
        engine = ExecutionEngine(mem, cost=CostModel(translate_per_insn=0.0))
        cpu = CPUState(pc=prog.symbol("worker"), tid=1, sp=0x7000_0000)
        assert engine.run_quantum(cpu, 400).kind is StopKind.QUANTUM
        hot = engine.cache.peek(prog.symbol(".sw_trial"))
        assert hot.chain == {hot.pc: hot} and hot.loops and cpu.pc == hot.pc
        trials = 60
        assert self._fp_helper_calls(python_calls(hot.fn, cpu, mem, trials)) == []
        assert (cpu.pc, cpu.block_runs) == (hot.pc, trials)
        assert self._casts(c_calls(hot.fn, cpu, mem, trials)) == (3, 2)
        assert (cpu.pc, cpu.block_runs) == (hot.pc, trials)

    def test_an_fp_read_binds_from_the_newest_integer_value(self):
        """A load leaves ``ra``'s newest value in its host local and ``R[1]``
        stale, so the FP read that follows must take its bits from the local
        (a case the differential found: ``add x1,x0,x0; lb x1,0(x9);
        feq x1,x0,x1``; the loaded byte's bits are a subnormal, not 0.0)."""
        source = """
        _start:
          la s1, cell
          add ra, zero, zero
          lb ra, 0(s1)
          feq ra, zero, ra
          ecall
        .data
        cell: .byte 0x40
        """
        prog, mem, cpu = load(source)
        assert cpu.regs[1] == 0  # the stale bits read as 0.0, which feq would match
        oracle_mem = FlatMemory()
        oracle_mem.load_image(prog.iter_load_segments())
        oracle = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
        oracle.regs = list(cpu.regs)
        assert ExecutionEngine(mem).run_quantum(cpu, 10**6).kind is StopKind.SYSCALL
        Interpreter(oracle_mem).run(oracle)
        assert cpu.regs == oracle.regs and cpu.regs[1] == 0

    FP_CHAIN = """
    _start:
      fadd a2, a0, a1
      fmul a3, a2, a2
      fsub a2, a3, a0
      fsqrt a4, a2
      fmin zero, a4, a2
      sd a4, 0(sp)
      fdiv a5, a4, a3
      ecall
    """

    def test_fp_chain_materialises_bits_only_at_fault_point_and_exit(self):
        prog = assemble(self.FP_CHAIN)
        sp = 0x7000_0000
        for resident in (True, False):
            mem = resident_node_memory(prog)
            if resident:
                mem.pages.ensure(page_of(sp), MSIState.MODIFIED)
            tb = Backend().compile(Frontend(mem).build_block(prog.entry))
            # The fmin into x0 emits nothing: no host line before the next guest one.
            assert tb.source.split(": fmin\n", 1)[1].lstrip().startswith("# ")
            cpu = CPUState(pc=prog.entry, tid=1, sp=sp)
            cpu.regs[10], cpu.regs[11] = 0x4002_0000_0000_0000, 0x3FF8_0000_0000_0000  # 2.25, 1.5

            def run():
                try:
                    tb.fn(cpu, mem, 1)
                except PageStall:
                    assert not resident

            # Each run recomputes the chain from a0 and a1, which it never writes.
            assert self._fp_helper_calls(python_calls(run)) == []
            to_float, to_bits = self._casts(c_calls(run))
            assert to_float == 2  # a0 and a1, read once each
            # Every result is cast once, where its bits are first observable:
            # a4 for the store to read; a2 and a3 in the miss arm when the
            # store faults, else with a5 at the exit.  x0 is never committed.
            assert to_bits == (4 if resident else 3)
            oracle_mem = FlatMemory()
            oracle_mem.load_image(prog.iter_load_segments())
            oracle = CPUState(pc=prog.entry, tid=1, sp=sp)
            oracle.regs[10], oracle.regs[11] = cpu.regs[10], cpu.regs[11]
            Interpreter(oracle_mem).run(oracle, 7 if resident else 5)
            assert cpu.regs == oracle.regs and cpu.regs[0] == 0
            # Stopped at the store, resp. past the ecall with all 8 counted.
            assert (cpu.pc - prog.entry, cpu.block_ic) == ((32, 8) if resident else (20, 5))

    def test_exec_count_tracks_hot_blocks(self):
        prog, mem, cpu = load(
            """
            _start:
              li t0, 0
            loop:
              addi t0, t0, 1
              li t1, 50
              blt t0, t1, loop
              ecall
            """
        )
        engine = ExecutionEngine(mem)
        engine.run_quantum(cpu, 100_000_000)
        counts = sorted(tb.exec_count for tb in engine.cache._blocks.values())
        # The entry block subsumes the first iteration; the loop block runs 49x.
        assert counts[-1] == 49
