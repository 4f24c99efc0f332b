"""The process-wide translation memo (``repro.dbt.memo``).

Two things must hold.  *Warm equals cold*: a run whose blocks were all
translated before reports exactly what a run on an empty memo reports — every
simulated number, every stall and fault.  *Sharing does not leak*: engines
share functions, sources and IR, and nothing else; the key is the code's
bytes, so the same pc holding other bytes is another block.
"""

import dataclasses

import pytest

from repro import Cluster, DQEMUConfig
from repro.core.dsmmem import DSMMemory
from repro.dbt import Backend, CPUState, ExecutionEngine, Frontend, StopKind, memo
from repro.dbt.backend import _Emitter
from repro.dbt.frontend import _ENDS_BLOCK
from repro.dbt.tcg import TERMINALS
from repro.errors import InvalidInstruction
from repro.isa import SPECS, Instruction, assemble, encode
from repro.mem import PAGE_SIZE, FlatMemory, PageStall, PageStore, page_of
from repro.mem.llsc import LLSCTable
from repro.mem.splitmap import SplitMap
from repro.workloads import blackscholes, mutex_bench, pi_taylor, x264
from tests.conftest import resident_node_memory

TEXT = 0x1_0000
HOT = dict(superblock_threshold=8, fusion=True)

LOOP_SRC = """
_start:
  li s0, 0
  li t0, 0
  li t6, 300
outer:
  la t2, table
  andi t3, t0, 7
  slli t3, t3, 3
  add t2, t2, t3
  ld t4, 0(t2)
  add s0, s0, t4
  addi t0, t0, 1
  slt t5, t0, t6
  bne t5, zero, outer
  ecall
.data
table: .quad 3, 1, 4, 1, 5, 9, 2, 6
"""


def code(*instrs):
    return b"".join(encode(i).to_bytes(4, "little") for i in instrs)


def addi(rd, imm):
    return Instruction(SPECS["addi"], rd=rd, rs1=0, imm=imm)


ECALL = Instruction(SPECS["ecall"])


def flat(at, text):
    mem = FlatMemory()
    mem.write_bytes(at, text)
    return mem


def run(mem, pc=TEXT, *, budget=100_000_000, **engine_kwargs):
    cpu = CPUState(pc=pc, tid=1, sp=0x7000_0000)
    engine = ExecutionEngine(mem, **engine_kwargs)
    stop = engine.run_quantum(cpu, budget)
    return cpu, engine, stop


def engine_counters(engine):
    return (
        engine.insns_executed, engine.insns_translated, engine.superblocks_formed,
        engine.execute_cycles, engine.translate_cycles, engine.fusion_hits,
        engine.fusion_saved_cycles, engine.superblock_saved_cycles,
        dataclasses.asdict(engine.cache.stats),
    )


@pytest.fixture
def no_translation(monkeypatch):
    """Arms a trap on every step of the miss path: lowering, both compile
    entry points, and the ``compile()`` + ``exec`` behind them."""
    def arm():
        def trap(*_args, **_kwargs):
            raise AssertionError("translated on a warm memo")
        for owner, name in ((Frontend, "lower"), (Backend, "compile"),
                            (Backend, "compile_superblock"), (_Emitter, "function")):
            monkeypatch.setattr(owner, name, trap)
    return arm


# -- (a) warm equals cold, cluster level ----------------------------------------

CLUSTER_RUNS = {
    "mutex": (lambda: mutex_bench.build(4, 20, True), 3, DQEMUConfig()),
    "blackscholes": (lambda: blackscholes.build(8, 64), 3, DQEMUConfig()),
    "x264-hot-tier": (
        lambda: x264.build(16, 8, 2), 3,
        DQEMUConfig(superblock_threshold=8, fusion_enabled=True),
    ),
}


def simulated(result):
    """Everything a run reports that the memo could conceivably move."""
    return dict(
        virtual_ns=result.virtual_ns,
        exit_code=result.exit_code,
        stdout=result.stdout,
        insns_executed=result.stats.insns_executed,
        insns_translated=result.stats.insns_translated,
        dbt=dataclasses.asdict(result.stats.dbt),
        page_requests=result.stats.protocol.page_requests,
        messages_sent=result.fabric.messages_sent,
        bytes_sent=result.fabric.bytes_sent,
    )


@pytest.mark.parametrize("build,n_slaves,config", CLUSTER_RUNS.values(), ids=list(CLUSTER_RUNS))
def test_cluster_run_reports_the_same_cold_warm_and_after_another_program(
    build, n_slaves, config, no_translation
):
    memo.clear()
    cold = simulated(Cluster(n_slaves, config).run(build()))
    assert cold["insns_translated"] > 0 and cold["exit_code"] == 0
    # A different program first: it shares the guest runtime's blocks, so the
    # run under test finds a memo that is partly its own and partly not.
    memo.clear()
    Cluster(2, config).run(pi_taylor.build(4, 20, 1))
    assert simulated(Cluster(n_slaves, config).run(build())) == cold
    no_translation()
    assert simulated(Cluster(n_slaves, config).run(build())) == cold


def test_hot_tier_run_above_forms_superblocks():
    """The third workload is not a vacuous pass for the superblock route."""
    build, n_slaves, config = CLUSTER_RUNS["x264-hot-tier"]
    result = Cluster(n_slaves, config).run(build())
    assert result.stats.dbt.superblocks_formed > 0
    assert result.stats.dbt.total_fusion_hits > 0


# -- (b) stalls, faults and block extents, engine level ------------------------


class RecordingMemory(FlatMemory):
    def __init__(self):
        super().__init__()
        self.fetched: list[int] = []

    def fetch_code(self, addr, size):
        self.fetched.append(addr)
        return super().fetch_code(addr, size)


def test_every_word_is_fetched_in_address_order_cold_and_warm(no_translation):
    prog = assemble(LOOP_SRC)

    def fetches():
        mem = RecordingMemory()
        mem.load_image(prog.iter_load_segments())
        cpu, engine, stop = run(mem, prog.entry)
        assert stop.kind is StopKind.SYSCALL
        extents = [(tb.pc, tb.end_pc) for tb in engine.cache._blocks.values()]  # as inserted
        return mem.fetched, extents, engine_counters(engine), cpu.regs

    memo.clear()
    cold = fetches()
    no_translation()
    assert fetches() == cold
    fetched, extents, _counters, _regs = cold
    # Each translation read its own words one by one, upwards from its entry.
    assert fetched == [addr for pc, end_pc in extents for addr in range(pc, end_pc, 4)]


def test_absent_code_page_stalls_before_the_memo_can_answer():
    prog = assemble(LOOP_SRC)
    cpu, engine, stop = run(resident_node_memory(prog), prog.entry)
    assert stop.kind is StopKind.SYSCALL  # the memo now holds every block

    away = DSMMemory(PageStore(), SplitMap(), LLSCTable())  # holds no page at all
    cpu, engine, stop = run(away, prog.entry)
    assert stop.kind is StopKind.PAGE_STALL
    stall = stop.info
    assert isinstance(stall, PageStall)
    assert (stall.page, stall.write, stall.offset, stall.size) == (
        page_of(prog.entry), False, prog.entry % PAGE_SIZE, 4
    )
    assert cpu.pc == prog.entry and stop.cycles == 0
    assert engine.insns_translated == 0 and len(engine.cache) == 0


def test_undefined_opcode_faults_at_its_pc_behind_a_memoised_prefix():
    memo.clear()
    good = flat(TEXT, code(addi(10, 1), addi(11, 2), ECALL))
    for cut in (64, 2):  # both extents of the prefix are now memoised
        assert run(good, max_block_insns=cut)[2].kind is StopKind.SYSCALL

    bad = flat(TEXT, code(addi(10, 1), addi(11, 2)) + (0xFF << 24).to_bytes(4, "little"))
    for cut, translated in ((64, 0), (2, 2)):
        cpu, engine, stop = run(bad, max_block_insns=cut)
        assert stop.kind is StopKind.FAULT
        assert isinstance(stop.info, InvalidInstruction) and stop.info.pc == TEXT + 8
        # Whole-block translation fails outright; cut at 2, the shared prefix
        # runs (a hit) and the fault is the next block's.
        assert engine.insns_translated == translated
        assert cpu.regs[10] == (1 if translated else 0)


def test_a_block_cut_short_has_its_own_key():
    memo.clear()
    body = code(addi(10, 1), addi(11, 2), addi(12, 3), addi(13, 4), ECALL)
    at = TEXT + PAGE_SIZE - 8  # two instructions, then the page ends

    _, whole, _ = run(flat(TEXT, body))
    _, single, _ = run(flat(TEXT, body), max_block_insns=1)
    assert whole.cache.peek(TEXT).n_insns == 5
    assert [single.cache.peek(TEXT + 4 * k).n_insns for k in range(5)] == [1] * 5
    assert single.cache.peek(TEXT).fn is not whole.cache.peek(TEXT).fn

    cpu, edge, stop = run(flat(at, body), at)
    assert stop.kind is StopKind.SYSCALL
    assert cpu.regs[10:14] == [1, 2, 3, 4]
    assert edge.cache.peek(at).n_insns == 2 and edge.cache.peek(at).end_pc == at + 8
    assert edge.cache.peek(at + 8).n_insns == 3
    # The two-instruction head is what max_block_insns=2 makes of it as well.
    _, capped, _ = run(flat(at, body), at, max_block_insns=2)
    assert capped.cache.peek(at).fn is edge.cache.peek(at).fn


def test_block_end_read_off_the_opcode_table_is_the_lowerings():
    frontend = Frontend(FlatMemory())
    for spec in SPECS.values():
        ops = frontend.lower(Instruction(spec, rd=1, rs1=2, rs2=3), TEXT).ops
        assert (ops[-1].name in TERMINALS) == (spec.opcode in _ENDS_BLOCK), spec.mnemonic


# -- (c) same pc, different bytes -----------------------------------------------


def test_two_programs_at_one_pc_never_share_and_each_keeps_its_own():
    memo.clear()
    one = code(addi(10, 1), ECALL)
    two = code(addi(10, 2), ECALL)
    cpu_a, eng_a, _ = run(flat(TEXT, one))
    cpu_b, eng_b, _ = run(flat(TEXT, two))
    cpu_c, eng_c, _ = run(flat(TEXT, one))
    assert (cpu_a.regs[10], cpu_b.regs[10], cpu_c.regs[10]) == (1, 2, 1)
    fn_a, fn_b, fn_c = (e.cache.peek(TEXT).fn for e in (eng_a, eng_b, eng_c))
    assert fn_a is fn_c and fn_a is not fn_b


def test_rewritten_code_page_is_translated_from_its_new_bytes():
    memo.clear()
    one = code(addi(10, 1), ECALL)
    two = code(addi(10, 2), ECALL)
    mem = flat(TEXT, one)
    cpu = CPUState(pc=TEXT, tid=1)
    engine = ExecutionEngine(mem)
    assert engine.run_quantum(cpu, 1_000_000).kind is StopKind.SYSCALL
    old_fn = engine.cache.peek(TEXT).fn

    mem.write_bytes(TEXT, two)
    assert engine.cache.invalidate_page(page_of(TEXT)) == 1
    cpu.pc = TEXT
    assert engine.run_quantum(cpu, 1_000_000).kind is StopKind.SYSCALL
    assert cpu.regs[10] == 2 and engine.cache.peek(TEXT).fn is not old_fn

    # ...and wherever the old bytes still sit, their translation still serves.
    cpu_old, eng_old, _ = run(flat(TEXT, one))
    assert cpu_old.regs[10] == 1 and eng_old.cache.peek(TEXT).fn is old_fn


# -- (d) engines share translations, not execution state ----------------------------


def test_two_engines_share_functions_and_nothing_that_changes():
    memo.clear()
    prog = assemble(LOOP_SRC)
    loop_pc = prog.symbols["outer"]
    text_page = page_of(prog.entry)

    def node():
        mem = FlatMemory()
        mem.load_image(prog.iter_load_segments())
        return CPUState(pc=prog.entry, tid=1, sp=0x7000_0000), ExecutionEngine(mem)

    solo_cpu, solo = node()
    assert solo.run_quantum(solo_cpu, 100_000_000).kind is StopKind.SYSCALL
    memo.clear()

    cpu_a, a = node()
    cpu_b, b = node()
    # b stops mid-loop: its blocks are chained and counting.
    assert b.run_quantum(cpu_b, 25_000).kind is StopKind.QUANTUM
    tb_b = b.cache.peek(loop_pc)
    assert tb_b.exec_count > 0 and tb_b.chain and tb_b.chained_from
    before = (tb_b.exec_count, dict(tb_b.chain), set(tb_b.chained_from), dict(tb_b.edges),
              len(b.cache), engine_counters(b))

    # a runs the same code to the end, then loses its code page.
    assert a.run_quantum(cpu_a, 100_000_000).kind is StopKind.SYSCALL
    tb_a = a.cache.peek(loop_pc)
    assert tb_a is not tb_b and tb_a.fn is tb_b.fn and tb_a.source is tb_b.source
    assert tb_a.ir is tb_b.ir
    assert tb_a.chain is not tb_b.chain and tb_a.chained_from is not tb_b.chained_from
    assert tb_a.edges is not tb_b.edges and tb_a.exec_count != tb_b.exec_count
    assert all(t in a.cache._blocks.values() for t in tb_a.chain.values())
    assert a.cache.invalidate_page(text_page) == len(solo.cache)
    assert not tb_a.chain and not tb_a.chained_from

    # b saw none of it...
    assert before == (tb_b.exec_count, tb_b.chain, tb_b.chained_from, tb_b.edges,
                      len(b.cache), engine_counters(b))
    assert all(t is b.cache.peek(t.pc) for t in tb_b.chain.values())
    # ...and finishes with the books of an engine that ran alone on a cold memo.
    assert b.run_quantum(cpu_b, 100_000_000).kind is StopKind.SYSCALL
    assert cpu_b.regs == solo_cpu.regs == cpu_a.regs
    solo_counters, b_counters = engine_counters(solo), engine_counters(b)
    # (b ran two quanta, so only its chain-follow/lookup split may differ.)
    assert b_counters[:8] == solo_counters[:8]
    assert b_counters[8]["translations"] == solo_counters[8]["translations"]


def test_superblocks_are_shared_and_promotion_stays_per_engine(no_translation):
    memo.clear()
    prog = assemble(LOOP_SRC)
    loop_pc = prog.symbols["outer"]

    def image():
        mem = FlatMemory()
        mem.load_image(prog.iter_load_segments())
        return mem

    cpu_a, a, stop = run(image(), prog.entry, **HOT)
    assert stop.kind is StopKind.SYSCALL and a.superblocks_formed >= 1
    sb_a = a.cache.peek(loop_pc)
    assert sb_a.is_superblock

    no_translation()
    cpu_b, b, _ = run(image(), prog.entry, **HOT)
    sb_b = b.cache.peek(loop_pc)
    assert sb_b.is_superblock and sb_b is not sb_a and sb_b.fn is sb_a.fn
    assert cpu_b.regs == cpu_a.regs and engine_counters(b) == engine_counters(a)

    # Promotion is the engine's decision: same shared blocks, a threshold
    # never reached, no trace.
    _, cool, _ = run(image(), prog.entry, superblock_threshold=10_000, fusion=True)
    assert cool.superblocks_formed == 0 and not cool.cache.peek(loop_pc).is_superblock


# -- (e) the bound ----------------------------------------------------------------


def test_memo_is_bounded_and_an_evicted_block_translates_again(monkeypatch):
    memo.clear()
    monkeypatch.setattr(memo, "LIMIT", 4)
    images = [flat(TEXT, code(addi(10, k), ECALL)) for k in range(memo.LIMIT + 1)]

    def fn_of(k):
        cpu, engine, stop = run(images[k])
        assert stop.kind is StopKind.SYSCALL and cpu.regs[10] == k
        return engine.cache.peek(TEXT).fn

    first = fn_of(0)
    assert fn_of(0) is first  # a hit while it is held
    for k in range(1, memo.LIMIT + 1):
        fn_of(k)
    assert len(memo._translations) == memo.LIMIT  # the oldest went
    newest = fn_of(memo.LIMIT)
    assert fn_of(0) is not first  # translated afresh, and correct (checked in fn_of)
    assert len(memo._translations) == memo.LIMIT
    assert fn_of(memo.LIMIT) is newest  # eviction is oldest-first


# -- generated functions are named by content ------------------------------------


def test_equal_blocks_compile_to_equal_source_under_a_content_name():
    mem = flat(TEXT, code(addi(10, 1), ECALL))
    first = Backend().compile(Frontend(mem).build_block(TEXT))
    again = Backend().compile(Frontend(mem).build_block(TEXT))
    assert first.source == again.source and first.fn is not again.fn  # cold API: no memo
    assert first.fn.__name__ == f"tb_{TEXT:x}"
    assert first.fn.__code__.co_filename == f"<tb@{TEXT:#x}>"
    sb = Backend().compile_superblock([first.ir, first.ir])
    assert sb.fn.__name__ == f"sb_{TEXT:x}" and sb.fn.__code__.co_filename == f"<sb@{TEXT:#x}>"
