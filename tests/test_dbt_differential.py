"""Differential testing: translated code vs the reference interpreter.

Random straight-line instruction sequences are executed by both engines from
identical initial state; final registers and memory must match exactly.
This is the guard that keeps the DBT backend semantically equal to the
interpreter oracle across the whole ISA.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dsmmem import DSMMemory, MergeStall
from repro.cost import CostModel
from repro.dbt import Backend, CPUState, ExecutionEngine, Frontend, StopKind, memo
from repro.isa import SPECS, Instruction, assemble, encode
from repro.isa.instructions import Fmt
from repro.mem import FlatMemory, MSIState, PageStore
from repro.mem.llsc import LLSCTable
from repro.mem.splitmap import SplitEntry, SplitMap
from tests.conftest import OneEntryCache, engine_books, memory_image

TEXT = 0x1_0000
BUF = 0x10_0000  # data buffer page, preloaded in a fixed register
BUF_REG = 9  # s1 — never clobbered by generated code
M64 = 2**64 - 1

# Mnemonics safe in random straight-line blocks (no control flow / traps).
_COMPUTE = [
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra",
    "mul", "mulh", "mulhu", "div", "divu", "rem", "remu", "slt", "sltu",
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu",
    "movz", "movk", "movn",
    "fadd", "fsub", "fmul", "fdiv", "fmin", "fmax", "fsqrt",
    "fcvt.d.l", "fcvt.l.d", "feq", "flt", "fle",
]
_LOADS = ["lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"]
_STORES = ["sb", "sh", "sw", "sd"]
_ATOMICS = ["lr", "sc", "cas", "amoadd", "amoswap"]

# rd is drawn from registers that are not BUF_REG and not x0-only cases.
gp_regs = st.integers(1, 31).filter(lambda r: r != BUF_REG)
any_src = st.integers(0, 31)


@st.composite
def random_instr(draw):
    group = draw(st.sampled_from(["compute"] * 6 + ["load"] * 2 + ["store"] * 2 + ["atomic"]))
    if group == "compute":
        m = draw(st.sampled_from(_COMPUTE))
        spec = SPECS[m]
        if spec.fmt is Fmt.M:
            return Instruction(spec, rd=draw(gp_regs), imm=draw(st.integers(0, 0xFFFF)),
                               hw=draw(st.integers(0, 3)))
        if spec.fmt is Fmt.I:
            return Instruction(spec, rd=draw(gp_regs), rs1=draw(any_src),
                               imm=draw(st.integers(-(1 << 13), (1 << 13) - 1)))
        return Instruction(spec, rd=draw(gp_regs), rs1=draw(any_src), rs2=draw(any_src))
    if group == "load":
        m = draw(st.sampled_from(_LOADS))
        spec = SPECS[m]
        off = draw(st.integers(0, 500)) * 8  # aligned, within the buffer page
        return Instruction(spec, rd=draw(gp_regs), rs1=BUF_REG, imm=off)
    if group == "store":
        m = draw(st.sampled_from(_STORES))
        spec = SPECS[m]
        off = draw(st.integers(0, 500)) * 8
        return Instruction(spec, rs1=BUF_REG, rs2=draw(any_src), imm=off)
    m = draw(st.sampled_from(_ATOMICS))
    spec = SPECS[m]
    off = draw(st.integers(0, 500)) * 8
    # Atomics take the address from rs1 directly; stage it via BUF_REG + imm
    # is not possible, so use an addi into a temp first.
    addr_setup = Instruction(SPECS["addi"], rd=28, rs1=BUF_REG, imm=off)
    if m == "lr":
        return [addr_setup, Instruction(spec, rd=draw(gp_regs), rs1=28)]
    return [addr_setup,
            Instruction(spec, rd=draw(gp_regs.filter(lambda r: r != 28)),
                        rs1=28, rs2=draw(any_src))]


@st.composite
def programs(draw):
    instrs: list[Instruction] = []
    for item in draw(st.lists(random_instr(), min_size=1, max_size=30)):
        if isinstance(item, list):
            instrs.extend(item)
        else:
            instrs.append(item)
    return instrs


@st.composite
def initial_regs(draw):
    return [0] + [draw(st.integers(0, M64)) for _ in range(31)]


_BUF_INIT = bytes((i * 37 + 11) % 256 for i in range(4096))  # deterministic, non-zero


def _run(instrs, regs, mode, **engine_kwargs):
    mem = FlatMemory()
    words = b"".join(encode(i).to_bytes(4, "little") for i in instrs)
    ecall = encode(Instruction(SPECS["ecall"])).to_bytes(4, "little")
    mem.write_bytes(TEXT, words + ecall)
    mem.write_bytes(BUF, _BUF_INIT)
    cpu = CPUState(pc=TEXT, tid=1)
    cpu.regs = list(regs)
    cpu.regs[BUF_REG] = BUF
    engine = ExecutionEngine(mem, mode=mode, **engine_kwargs)
    stop = engine.run_quantum(cpu, 100_000_000)
    assert stop.kind is StopKind.SYSCALL, stop
    return cpu, mem


def at_least(n: int) -> int:
    """Tier-1's example count ``n``, or the loaded profile's where that is
    larger (``--hypothesis-profile=ci`` runs the two main differentials at its
    2,000)."""
    return max(n, settings.default.max_examples)


@settings(max_examples=at_least(150), deadline=None)
@given(programs(), initial_regs())
def test_dbt_matches_interpreter(instrs, regs):
    cpu_i, mem_i = _run(instrs, regs, "interp")
    cpu_d, mem_d = _run(instrs, regs, "dbt")
    assert cpu_i.regs == cpu_d.regs
    assert cpu_i.pc == cpu_d.pc
    assert mem_i.read_bytes(BUF, 4096) == mem_d.read_bytes(BUF, 4096)


@settings(max_examples=50, deadline=None)
@given(programs(), initial_regs())
def test_x0_never_modified(instrs, regs):
    cpu, _ = _run(instrs, regs, "dbt")
    assert cpu.regs[0] == 0


@settings(max_examples=50, deadline=None)
@given(programs(), initial_regs())
def test_all_registers_stay_64_bit(instrs, regs):
    cpu, _ = _run(instrs, regs, "dbt")
    assert all(0 <= r <= M64 for r in cpu.regs)


@settings(max_examples=at_least(100), deadline=None)
@given(programs(), initial_regs())
def test_fused_dbt_matches_interpreter(instrs, regs):
    """Idiom fusion must never change architectural state, whatever
    random combination of fusable pairs the generator produces."""
    cpu_i, mem_i = _run(instrs, regs, "interp")
    cpu_f, mem_f = _run(instrs, regs, "dbt", fusion=True)
    assert cpu_i.regs == cpu_f.regs
    assert cpu_i.pc == cpu_f.pc
    assert mem_i.read_bytes(BUF, 4096) == mem_f.read_bytes(BUF, 4096)


# -- FP values as host floats ---------------------------------------------------
#
# The backend keeps FP results as Python floats inside a generated function
# and materialises register bits only where they are observable.  A float
# and its bit pattern could part ways on signed zeros, infinities, quiet and
# signalling NaNs with payloads, denormals and the int64 conversion
# boundaries — so those are what registers and movz/movk immediates are drawn
# from here, with FP and integer instructions sharing four registers and the
# body looping so that blocks chain, get promoted and carry shadows across
# superblock members.

FP_SPECIALS = [
    0x0000_0000_0000_0000,  # +0.0
    0x8000_0000_0000_0000,  # -0.0 (and int64 min)
    0x7FF0_0000_0000_0000,  # +inf
    0xFFF0_0000_0000_0000,  # -inf
    0x7FF8_0000_0000_0000,  # canonical qNaN
    0xFFF8_0000_0000_0001,  # negative qNaN with a payload
    0x7FF8_DEAD_BEEF_CAFE,  # qNaN with a payload
    0x7FF0_0000_0000_0001,  # sNaN, smallest payload
    0x7FF4_0000_0BAD_F00D,  # sNaN with a payload
    0xFFF7_FFFF_FFFF_FFFF,  # negative sNaN, every payload bit
    0x0000_0000_0000_0001,  # smallest denormal
    0x800F_FFFF_FFFF_FFFF,  # largest-magnitude negative denormal
    0x0010_0000_0000_0000,  # smallest normal
    0x7FEF_FFFF_FFFF_FFFF,  # largest finite
    0x43E0_0000_0000_0000,  # 2^63: first double fcvt.l.d saturates
    0x43DF_FFFF_FFFF_FFFF,  # the double just below 2^63
    0xC3E0_0000_0000_0000,  # -2^63: exactly int64 min
    0xC3E0_0000_0000_0001,  # the double just below -2^63
    0x7FFF_FFFF_FFFF_FFFF,  # int64 max (a NaN read as a double)
    0x3FF0_0000_0000_0000,  # 1.0
    0xBFF8_0000_0000_0000,  # -1.5
]
fp_bits = st.sampled_from(FP_SPECIALS) | st.integers(0, M64)

_FP_OPS = ["fadd", "fsub", "fmul", "fdiv", "fmin", "fmax", "fsqrt",
           "fcvt.d.l", "fcvt.l.d", "feq", "flt", "fle"]
_INT_R_OPS = ["add", "sub", "xor", "and", "or", "sll", "srl", "slt", "sltu"]
_INT_I_OPS = ["addi", "xori", "slli", "srli", "slti"]
FP_POOL = [5, 6, 7, 28]  # few registers, so FP and integer ops collide on them
LOOP_REG = 18  # s2 — loop counter, never touched by the body
ADDR_REG = 29  # atomic address staging
fp_dst = st.sampled_from(FP_POOL + [0])  # x0 as a destination included
fp_src = st.sampled_from(FP_POOL + [0])
slot = st.integers(0, 3).map(lambda i: i * 8)  # few slots: loads see FP stores


@st.composite
def fp_mix_instr(draw):
    group = draw(st.sampled_from(["fp"] * 5 + ["int"] * 3 + ["const"] * 2 + ["mem"] * 2
                                 + ["atomic"]))
    if group == "fp":  # a float result, half the time stored at once from its shadow
        rd = draw(fp_dst)
        fp = [Instruction(SPECS[draw(st.sampled_from(_FP_OPS))],
                          rd=rd, rs1=draw(fp_src), rs2=draw(fp_src))]
        if draw(st.booleans()):
            fp.append(Instruction(SPECS["sd"], rs1=BUF_REG, rs2=rd, imm=draw(slot)))
        return fp
    if group == "int":
        if draw(st.booleans()):
            return [Instruction(SPECS[draw(st.sampled_from(_INT_R_OPS))],
                                rd=draw(fp_dst), rs1=draw(fp_src), rs2=draw(fp_src))]
        return [Instruction(SPECS[draw(st.sampled_from(_INT_I_OPS))],
                            rd=draw(fp_dst), rs1=draw(fp_src), imm=draw(st.integers(0, 63)))]
    if group == "const":
        rd, bits = draw(st.sampled_from(FP_POOL)), draw(fp_bits)
        parts = [(bits >> (16 * hw)) & 0xFFFF for hw in range(4)]
        shape = draw(st.sampled_from(["movz", "movk", "full"]))
        if shape == "movz":  # the whole register from one visible movz
            return [Instruction(SPECS["movz"], rd=rd, imm=parts[3], hw=3)]
        if shape == "movk":  # an integer edit of whatever value is live
            hw = draw(st.integers(0, 3))
            return [Instruction(SPECS["movk"], rd=rd, imm=parts[hw], hw=hw)]
        return [Instruction(SPECS["movz"], rd=rd, imm=parts[0], hw=0)] + [
            Instruction(SPECS["movk"], rd=rd, imm=parts[hw], hw=hw) for hw in (1, 2, 3)]
    if group == "mem":
        if draw(st.booleans()):
            return [Instruction(SPECS["sd"], rs1=BUF_REG, rs2=draw(fp_src), imm=draw(slot))]
        return [Instruction(SPECS["ld"], rd=draw(fp_dst), rs1=BUF_REG, imm=draw(slot))]
    return [Instruction(SPECS["addi"], rd=ADDR_REG, rs1=BUF_REG, imm=draw(slot)),
            Instruction(SPECS[draw(st.sampled_from(["amoswap", "amoadd", "cas"]))],
                        rd=draw(fp_dst), rs1=ADDR_REG, rs2=draw(fp_src))]


def _looped(body, iterations):
    """``iterations`` passes over ``body``, counted in LOOP_REG."""
    return (
        [Instruction(SPECS["addi"], rd=LOOP_REG, rs1=0, imm=iterations)]
        + body
        + [Instruction(SPECS["addi"], rd=LOOP_REG, rs1=LOOP_REG, imm=-1),
           Instruction(SPECS["bne"], rs1=LOOP_REG, rs2=0, imm=-4 * (len(body) + 1))]
    )


@st.composite
def fp_loops(draw, iterations=4):
    """``iterations`` passes over a random FP/integer body."""
    return _looped([i for group in draw(st.lists(fp_mix_instr(), min_size=1, max_size=16))
                    for i in group], iterations)


@st.composite
def fp_initial_regs(draw):
    return [0] + [draw(fp_bits) for _ in range(31)]


FP_ENGINES = [
    dict(max_block_insns=1),
    dict(max_block_insns=3),
    dict(max_block_insns=64),
    dict(max_block_insns=64, superblock_threshold=2, fusion=True),
    dict(max_block_insns=3, superblock_threshold=2, fusion=True),  # multi-member traces
]


#: A float result stored from its shadow every trip, made from a payload NaN
#: that no trip overwrites: the stored bytes must be the canonical NaN.  Drawn
#: programs reach this rarely, since a later trip's store of the same slot
#: usually holds bits the back edge already canonicalised.
_PAYLOAD_NAN_STORE = (
    _looped([Instruction(SPECS["fadd"], rd=6, rs1=5, rs2=5),
             Instruction(SPECS["sd"], rs1=BUF_REG, rs2=6, imm=0)], 4),
    [0] * 5 + [0x7FF8_DEAD_BEEF_CAFE] + [0] * 26,
)


@settings(deadline=None)  # example count comes from the profile (tests/conftest.py)
@given(fp_loops(), fp_initial_regs())
@example(*_PAYLOAD_NAN_STORE)
def test_fp_shadow_matches_interpreter_bit_for_bit(instrs, regs):
    cpu_i, mem_i = _run(instrs, regs, "interp")
    for kwargs in FP_ENGINES:
        cpu_d, mem_d = _run(instrs, regs, "dbt", **kwargs)
        assert cpu_d.regs == cpu_i.regs, kwargs
        assert cpu_d.pc == cpu_i.pc, kwargs
        assert mem_d.read_bytes(BUF, 4096) == mem_i.read_bytes(BUF, 4096), kwargs


# -- hot-path identity on looping programs -----------------------------------
#
# Hypothesis programs are straight-line, so chaining/superblocks barely
# trigger.  These crafted loops exercise every hot-path feature at once and
# diff the full architectural state against the interpreter.

HOT_LOOP = """
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

SPIN_LOOP = """
_start:
  la a0, cell
  li s0, 0
  li t0, 0
  li t6, 40
loop:
take:
  lr t1, (a0)
  bne t1, zero, take
  li t1, 1
  sc t2, t1, (a0)
  bne t2, zero, take
  ld t3, 0(a0)
  add s0, s0, t3
  sd zero, 0(a0)
  addi t0, t0, 1
  slt t5, t0, t6
  bne t5, zero, loop
  ecall
.data
.align 8
cell: .quad 0
"""


def _run_asm(source, mode, **engine_kwargs):
    prog = assemble(source)
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=0x7000_0000)
    engine = ExecutionEngine(mem, mode=mode, **engine_kwargs)
    stop = engine.run_quantum(cpu, 1_000_000_000)
    assert stop.kind is StopKind.SYSCALL, stop
    return cpu, engine


class TestHotPathIdentity:
    HOT = dict(superblock_threshold=8, superblock_max_blocks=8, fusion=True)

    def test_hot_loop_identical_under_full_hot_path(self):
        ref, _ = _run_asm(HOT_LOOP, "interp")
        hot, engine = _run_asm(HOT_LOOP, "dbt", **self.HOT)
        assert hot.regs == ref.regs and hot.pc == ref.pc
        # and the hot path actually engaged, this is not a vacuous pass:
        assert engine.superblocks_formed >= 1
        assert engine.fusion_hits.get("cmp_branch", 0) > 0
        assert engine.fusion_hits.get("load_op", 0) > 0

    def test_spin_loop_identical_under_full_hot_path(self):
        ref, _ = _run_asm(SPIN_LOOP, "interp")
        hot, engine = _run_asm(SPIN_LOOP, "dbt", **self.HOT)
        assert hot.regs == ref.regs and hot.pc == ref.pc
        assert engine.fusion_hits.get("atomic_branch", 0) > 0

    def test_each_feature_alone_is_identical(self):
        ref, _ = _run_asm(HOT_LOOP, "interp")
        for kwargs in (
            dict(chaining=False),
            dict(fusion=True),
            dict(superblock_threshold=4),
            dict(superblock_threshold=2, superblock_max_blocks=3),
        ):
            got, _ = _run_asm(HOT_LOOP, "dbt", **kwargs)
            assert got.regs == ref.regs and got.pc == ref.pc, kwargs


# -- a node's memory: stalls, upgrades, split pages, reservations --------------
#
# Translated code serves a resident access inline and calls ``mem.load`` /
# ``mem.store`` only when its inline test fails.  Everything that test must
# get right is varied here at once: two buffer pages (and the two shadow
# regions of the first, split or not) start absent, Shared, Exclusive or
# Modified; accesses of every width land anywhere up to and across the page
# and region edges; LL/SC cells sit under plain stores; FP results are stored
# straight from their float shadows, through the miss arms as much as the
# hits, with the loop carrying them round.  A tiny node plays
# the DSM's part between quanta, and the interpreter — which only ever calls
# the methods — is the oracle for everything observable.

DSM_PAGE = BUF >> 12
DSM_SHADOWS = (0x60000, 0x60001)  # the 2048-byte regions of DSM_PAGE when split
_CELLS = [0, 8, 2040, 2048, 4088, 4096]  # few, so plain stores land on reservations
_EDGES = [1, 7, 2041, 2045, 2047, 4081, 4089, 4093, 4095, 4097]
dsm_offset = st.sampled_from(_CELLS + _EDGES) | st.integers(0, 2 * 4096 - 1)
dsm_reg = st.sampled_from(FP_POOL)
page_state = st.sampled_from([None, MSIState.SHARED, MSIState.EXCLUSIVE, MSIState.MODIFIED])


@st.composite
def dsm_instr(draw):
    group = draw(st.sampled_from(["load"] * 3 + ["store"] * 3 + ["atomic"] * 2 + ["int"]
                                 + ["fp"] * 2))
    if group == "load":
        return [Instruction(SPECS[draw(st.sampled_from(_LOADS))],
                            rd=draw(dsm_reg), rs1=BUF_REG, imm=draw(dsm_offset))]
    if group == "store":
        return [Instruction(SPECS[draw(st.sampled_from(_STORES))],
                            rs1=BUF_REG, rs2=draw(dsm_reg), imm=draw(dsm_offset))]
    if group == "int":
        return [Instruction(SPECS[draw(st.sampled_from(["add", "xor", "sltu"]))],
                            rd=draw(dsm_reg), rs1=draw(dsm_reg), rs2=draw(dsm_reg))]
    if group == "fp":  # a float result, maybe stored at once from its shadow
        rd = draw(dsm_reg)
        fp = [Instruction(SPECS[draw(st.sampled_from(["fadd", "fmul", "fsub"]))],
                          rd=rd, rs1=draw(dsm_reg), rs2=draw(dsm_reg))]
        if draw(st.booleans()):
            fp.append(Instruction(SPECS["sd"], rs1=BUF_REG, rs2=rd, imm=draw(dsm_offset)))
        return fp
    stage = Instruction(SPECS["addi"], rd=ADDR_REG, rs1=BUF_REG,
                        imm=draw(st.sampled_from(_CELLS)))
    m = draw(st.sampled_from(_ATOMICS))
    if m == "lr":
        return [stage, Instruction(SPECS[m], rd=draw(dsm_reg), rs1=ADDR_REG)]
    return [stage, Instruction(SPECS[m], rd=draw(dsm_reg), rs1=ADDR_REG, rs2=draw(dsm_reg))]


@st.composite
def dsm_loops(draw):
    return _looped([i for group in draw(st.lists(dsm_instr(), min_size=1, max_size=12))
                    for i in group], 3)


def _page_bytes(page):
    return bytes((i * 37 + page % 251) % 256 for i in range(4096))


def _node(instrs, regs, states, split):
    """A node's memory holding ``instrs`` (then an ecall) at TEXT, the two
    buffer pages and the two shadows in ``states``, and a vCPU at TEXT."""
    store, table, llsc = PageStore(), SplitMap(), LLSCTable()
    mem = DSMMemory(store, table, llsc)
    code = b"".join(encode(i).to_bytes(4, "little") for i in instrs)
    code += encode(Instruction(SPECS["ecall"])).to_bytes(4, "little")
    store.install(TEXT >> 12, code.ljust(4096, b"\0"), MSIState.SHARED)
    for page, state in zip((DSM_PAGE, DSM_PAGE + 1) + DSM_SHADOWS, states):
        if state is not None:
            store.install(page, _page_bytes(page), state)
    if split:
        table.install(SplitEntry(DSM_PAGE, DSM_SHADOWS, 2048))
    cpu = CPUState(pc=TEXT, tid=1)
    cpu.regs = list(regs)
    cpu.regs[BUF_REG] = BUF
    return mem, cpu


def _serve(mem, stall):
    """The DSM's part between two quanta: what ``stall`` asked for happens."""
    store, table = mem.pages, mem.split
    if isinstance(stall, MergeStall):  # the master merges the page back
        merged = b"".join(
            (store.snapshot(s) if s in store else _page_bytes(s))[k * 2048:(k + 1) * 2048]
            for k, s in enumerate(DSM_SHADOWS)
        )
        for shadow in table.remove(DSM_PAGE).shadow_pages:
            mem.invalidate(shadow)
        store.install(DSM_PAGE, merged, MSIState.MODIFIED)
    else:  # the page arrives, or the copy held is upgraded in place
        data = store.snapshot(stall.page) if stall.page in store else _page_bytes(stall.page)
        store.install(stall.page, data, MSIState.MODIFIED if stall.write else MSIState.SHARED)


def _run_on_node(instrs, regs, states, split, mode, **engine_kwargs):
    """Run ``instrs`` to the ecall (or a guest fault) on a node's memory.
    ``states``: initial state of the two buffer pages and the two shadows."""
    mem, cpu = _node(instrs, regs, states, split)
    one = CostModel(cpi_dbt=1.0, cpi_interp=1.0, cpi_superblock=1.0, translate_per_insn=0.0)
    engine = ExecutionEngine(mem, mode=mode, cost=one, **engine_kwargs)
    events, cycles = [], 0
    while True:
        stop = engine.run_quantum(cpu, 1_000_000)
        cycles += stop.cycles
        if stop.kind is StopKind.SYSCALL:
            break
        if stop.kind is StopKind.FAULT:
            events.append((type(stop.info).__name__, cpu.pc))
            break
        stall = stop.info
        events.append((type(stall).__name__, cpu.pc, stall.page, stall.write, stall.offset,
                       stall.size))
        _serve(mem, stall)
    cycles += cpu.cycle_frac + engine.fusion_saved_cycles
    return dict(
        events=events, regs=cpu.regs, pc=cpu.pc,
        memory=memory_image(mem), insns=engine.insns_executed, cycles=cycles,
    )


DSM_ENGINES = [
    dict(max_block_insns=1),
    dict(max_block_insns=64),
    dict(max_block_insns=64, superblock_threshold=2, fusion=True),
]


def _ld(m, rd, off):
    return Instruction(SPECS[m], rd=rd, rs1=BUF_REG, imm=off)


def _st(m, rs2, off):
    return Instruction(SPECS[m], rs1=BUF_REG, rs2=rs2, imm=off)


def _assert_node_runs_agree(instrs, regs, states, split):
    want = _run_on_node(instrs, regs, states, split, "interp")
    for kwargs in DSM_ENGINES:
        got = _run_on_node(instrs, regs, states, split, "dbt", **kwargs)
        for key, value in want.items():
            assert got[key] == value, (key, kwargs)
    assert want["cycles"] == want["insns"]
    return want


_ALL_M = (MSIState.MODIFIED,) * 4
_REGS = [0] + [0x0123_4567_89AB_CDEF ^ (r * 0x1111) for r in range(1, 32)]
# One program per term of the inline test — each goes wrong if that term is
# dropped — with the stops it must make (body instruction k sits at TEXT+4+4k).
_GUARD_EXAMPLES = {
    # the original page is resident too, but its shadows hold the truth
    "split": ([_st("sd", 5, 2048), _ld("ld", 6, 2048), _ld("lbu", 7, 0)], _ALL_M, True, []),
    # a plain store on a Modified page must kill the reservation under it
    "armed": ([Instruction(SPECS["addi"], rd=ADDR_REG, rs1=BUF_REG, imm=8),
               Instruction(SPECS["lr"], rd=5, rs1=ADDR_REG), _st("sb", 6, 13),
               Instruction(SPECS["sc"], rd=7, rs1=ADDR_REG, rs2=6)], _ALL_M, False, []),
    # a store to a Shared or Exclusive copy is an upgrade fault
    "modified": ([_st("sw", 5, 4), _st("sb", 6, 4096 + 9), _ld("ld", 7, 0)],
                 (MSIState.SHARED, MSIState.EXCLUSIVE, None, None), False,
                 [("PageStall", TEXT + 4, DSM_PAGE, True, 4, 4),
                  ("PageStall", TEXT + 8, DSM_PAGE + 1, True, 9, 1)]),
    # the last bytes of a page serve narrow accesses only
    "span-load": ([_ld("lhu", 5, 4094), _st("sh", 5, 4094), _ld("lw", 6, 4093)], _ALL_M, False,
                  [("UnalignedAccess", TEXT + 12)]),
    "span-store": ([_st("sd", 5, 4088), _st("sd", 6, 4089)], _ALL_M, False,
                   [("UnalignedAccess", TEXT + 8)]),
}


@pytest.mark.parametrize("body,states,split,stops", _GUARD_EXAMPLES.values(),
                         ids=list(_GUARD_EXAMPLES))
def test_each_term_of_the_inline_test_is_observable(body, states, split, stops):
    assert _assert_node_runs_agree(_looped(body, 3), _REGS, states, split)["events"] == stops


@settings(deadline=None)  # example count comes from the profile (tests/conftest.py)
@given(dsm_loops(), initial_regs(), st.tuples(*[page_state] * 4), st.booleans())
def test_dbt_matches_interpreter_on_a_nodes_memory(instrs, regs, states, split):
    _assert_node_runs_agree(instrs, regs, states, split)


@settings(deadline=None)  # example count comes from the profile (tests/conftest.py)
@given(dsm_loops(), initial_regs(), st.tuples(*[page_state] * 4), st.booleans())
def test_dbt_matches_interpreter_on_a_cold_and_on_a_warm_memo(instrs, regs, states, split):
    """The translation memo is invisible: each example is run on an empty
    memo and again on the memo that run filled, and both must agree with the
    interpreter on every stop, register, byte, instruction and cycle."""
    memo.clear()
    _assert_node_runs_agree(instrs, regs, states, split)  # every engine misses
    _assert_node_runs_agree(instrs, regs, states, split)  # every engine hits


# -- loop residency: invisible to everything but the host clock ---------------
#
# A block whose exit re-enters it goes round inside its generated function for
# as many entries as the engine's allowance hands it, and the engine then books
# those entries as if its dispatcher had made them one by one.  Nothing
# simulated may tell the difference: an engine whose allowance is pinned to one
# entry per call, an unchained engine (which never has a chained re-entry to
# make in place) and the interpreter are the references, under quanta small
# enough to cut every loop mid-flight, fractional CPIs whose sums round, the
# superblock tier promoting in the middle of a loop, fusion, and a pointer
# that walks off its page into whatever state the next one is in.

WALK_REG = 30  # t5: the walking pointer (no pool register, not the counter)
ONE_REG = 31  # t6: holds a visible constant for the ``bge`` loop tail
_QUANTA = [7, 11, 13, 29, 53, 101, 211, 499, 997]
_LOOP_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
small_imm = st.sampled_from([0, 1, -1, 2, -2, 5, 8191, -8192]) | st.integers(-8192, 8191)


@st.composite
def walk_instr(draw):
    """An access through the walking pointer, or a step of it."""
    kind = draw(st.sampled_from(["load", "store", "step"]))
    near = draw(st.sampled_from([0, 0, 8, -8, 1]))
    if kind == "load":
        return [Instruction(SPECS[draw(st.sampled_from(_LOADS))],
                            rd=draw(dsm_reg), rs1=WALK_REG, imm=near)]
    if kind == "store":
        return [Instruction(SPECS[draw(st.sampled_from(_STORES))],
                            rs1=WALK_REG, rs2=draw(dsm_reg), imm=near)]
    return [Instruction(SPECS["addi"], rd=WALK_REG, rs1=WALK_REG,
                        imm=draw(st.sampled_from([1, 8, 264, 1032, 2048, -8])))]


@st.composite
def order_instr(draw):
    """Signed and unsigned order against registers, immediates and visible
    constants (an ``li`` a later compare or branch can fold)."""
    shape = draw(st.sampled_from(["slt", "sltu", "slti", "sltiu", "li"]))
    if shape == "li":
        return [Instruction(SPECS["addi"], rd=draw(dsm_reg), rs1=0, imm=draw(small_imm))]
    if shape in ("slt", "sltu"):
        return [Instruction(SPECS[shape], rd=draw(dsm_reg), rs1=draw(fp_src), rs2=draw(fp_src))]
    return [Instruction(SPECS[shape], rd=draw(dsm_reg), rs1=draw(fp_src), imm=draw(small_imm))]


@st.composite
def resident_loops(draw):
    """A counted loop over a random
    body — walking and fixed accesses of every width, atomics, FP, compares —
    with one of three tails, maybe an early exit out of the middle of the
    body, maybe a single-instruction self-branch behind it."""
    groups = draw(st.lists(
        st.one_of(walk_instr(), walk_instr(), dsm_instr(), fp_mix_instr(), order_instr()),
        min_size=1, max_size=8))
    body = [i for group in groups for i in group]
    iterations = draw(st.integers(2, 14))
    tail = [Instruction(SPECS["addi"], rd=LOOP_REG, rs1=LOOP_REG, imm=-1)]
    shape = draw(st.sampled_from(["bne", "blt", "bge"]))
    if shape == "bne":
        back = dict(rs1=LOOP_REG, rs2=0)  # counter != 0
    elif shape == "blt":
        back = dict(rs1=0, rs2=LOOP_REG)  # 0 < counter: the constant on the left
    else:
        tail.append(Instruction(SPECS["addi"], rd=ONE_REG, rs1=0, imm=1))
        back = dict(rs1=LOOP_REG, rs2=ONE_REG)  # counter >= 1: a visible constant
    if draw(st.booleans()):  # an early exit: the body becomes two blocks
        at = draw(st.integers(0, len(body)))
        body.insert(at, Instruction(
            SPECS[draw(st.sampled_from(_LOOP_BRANCHES))], rs1=draw(fp_src), rs2=draw(fp_src),
            imm=4 * (len(body) - at + len(tail) + 2)))
    loop = body + tail
    loop.append(Instruction(SPECS[shape], imm=-4 * len(loop), **back))
    start = draw(st.sampled_from([0, 2040, 4000, 4088, 4095])) - draw(st.sampled_from([0, 8, 2048]))
    instrs = [Instruction(SPECS["addi"], rd=LOOP_REG, rs1=0, imm=iterations),
              Instruction(SPECS["addi"], rd=WALK_REG, rs1=BUF_REG, imm=start)] + loop
    spin = draw(st.sampled_from([None, None, "jal", "beq", "bne", "blt", "bge"]))
    if spin == "jal":
        instrs.append(Instruction(SPECS["jal"], rd=0, imm=0))
    elif spin is not None:  # taken for ever or never: no register changes
        ra, rb = (0, 0) if spin == "beq" else (draw(fp_src), draw(fp_src))
        instrs.append(Instruction(SPECS[spin], rs1=ra, rs2=rb, imm=0))
    return instrs


def _trace_on_node(instrs, regs, states, split, quantum, timing, **engine_kwargs):
    """Run quantum by quantum; what every stop could show anyone, then the books."""
    mem, cpu = _node(instrs, regs, states, split)
    engine = ExecutionEngine(mem, cost=timing, **engine_kwargs)
    stops = []
    for _ in range(150):  # a self-branch taken once is taken for ever
        stop = engine.run_quantum(cpu, quantum)
        event = None
        if stop.kind is StopKind.PAGE_STALL:
            stall = stop.info
            event = (type(stall).__name__, cpu.pc, stall.page, stall.write, stall.offset,
                     stall.size)
        elif stop.kind is StopKind.FAULT:
            event = (type(stop.info).__name__, cpu.pc)
        stops.append((stop.kind, stop.cycles, stop.translate_cycles, cpu.cycle_frac, cpu.pc,
                      event, list(cpu.regs), memory_image(mem)))
        if stop.kind in (StopKind.SYSCALL, StopKind.FAULT):
            break
        if stop.kind is StopKind.PAGE_STALL:
            _serve(mem, stop.info)
    return stops, engine_books(engine)


def _assert_loops_are_invisible(instrs, regs, states, split, quantum, cpi, threshold, fusion):
    timing = CostModel(cpi_dbt=cpi, cpi_superblock=cpi / 3, translate_per_insn=2.5)
    where = dict(instrs=instrs, states=states, split=split, timing=timing, regs=regs)
    hot = dict(superblock_threshold=threshold, superblock_max_blocks=4, fusion=fusion)
    stops, books = _trace_on_node(quantum=quantum, **where, **hot)
    pinned = _trace_on_node(quantum=quantum, cache=OneEntryCache(), **where, **hot)
    assert stops == pinned[0]
    assert books == pinned[1]
    if not threshold:  # superblocks need chaining; everything else must not notice it
        plain_stops, plain_books = _trace_on_node(quantum=quantum, chaining=False, fusion=fusion,
                                                  **where)
        assert stops == plain_stops
        for side in (books, plain_books):  # the one thing chaining is allowed to move
            cache = side["cache"]
            cache["dispatches"] = cache.pop("lookups") + cache.pop("chain_follows")
            for pc, block in side["blocks"].items():
                side["blocks"][pc] = block[:-1]
        assert books == plain_books
    if stops[-1][0] in (StopKind.SYSCALL, StopKind.FAULT):  # it ends: where the oracle does
        want = _run_on_node(instrs, regs, states, split, "interp")
        assert [s[5] for s in stops if s[5] is not None] == want["events"]
        assert (stops[-1][4], stops[-1][6], stops[-1][7]) == (
            want["pc"], want["regs"], want["memory"])
        assert books["insns"] == want["insns"]


@settings(deadline=None)  # example count comes from the profile (tests/conftest.py)
@given(resident_loops(), fp_initial_regs(), st.tuples(*[page_state] * 4), st.booleans(),
       st.sampled_from(_QUANTA), st.sampled_from([3.0, 2.88, 0.7]), st.sampled_from([0, 2, 8]),
       st.booleans())
def test_loop_residency_is_invisible_to_everything_but_the_host_clock(
        loop, regs, states, split, quantum, cpi, threshold, fusion):
    _assert_loops_are_invisible(loop, regs, states, split, quantum, cpi, threshold, fusion)


# -- verified pages: what a loop's access site may keep between trips ----------
#
# In a looping block with no atomic, each plain access site keeps the page it
# verified on a hit of the full test and indexes that page's buffer on later
# trips.  One program per way that could go wrong, each run under the same
# references as the loops above, with whether its loop verifies at all.

_S, _M = MSIState.SHARED, MSIState.MODIFIED


def _walk(start):
    return Instruction(SPECS["addi"], rd=WALK_REG, rs1=BUF_REG, imm=start)


_VERIFIED_EXAMPLES = {
    # an atomic in the body: no site keeps a page.  Trips with an even count
    # leave an lr on the store's cell, odd ones none (their sc takes it), so
    # the store finds no reservation on one trip and must kill one on the next
    "atomic": ([], [
        _st("sd", 5, 8), Instruction(SPECS["andi"], rd=28, rs1=LOOP_REG, imm=1),
        Instruction(SPECS["xori"], rd=28, rs1=28, imm=1),
        Instruction(SPECS["slli"], rd=28, rs1=28, imm=3),
        Instruction(SPECS["add"], rd=ADDR_REG, rs1=BUF_REG, rs2=28),
        Instruction(SPECS["lr"], rd=6, rs1=ADDR_REG),
        Instruction(SPECS["sc"], rd=7, rs1=BUF_REG, rs2=6),
    ], [], (_M, _M, _M, _M), False, []),
    # the load verifies the Shared page for reading; the walking store reaches
    # it on the third trip and must still take the upgrade fault
    "shared-then-store": ([_walk(4096 + 2048)], [
        _ld("ld", 5, 0), Instruction(SPECS["sb"], rs1=WALK_REG, rs2=5, imm=0),
        Instruction(SPECS["addi"], rd=WALK_REG, rs1=WALK_REG, imm=-2048),
    ], [], (_S, _M, None, None), True,
        [("PageStall", TEXT + 12, DSM_PAGE, True, 2048, 1),
         ("PageStall", TEXT + 12, DSM_PAGE - 1, True, 2048, 1)]),
    # a reservation armed before the loop sends every store down the method,
    # which goes on in place (the cell it kills is another one); the loads
    # around it hit, and the sc after the loop sees the reservation survive
    "armed-store-between-hits": (
        [Instruction(SPECS["addi"], rd=ADDR_REG, rs1=BUF_REG, imm=32),
         Instruction(SPECS["lr"], rd=7, rs1=ADDR_REG)],
        [_ld("ld", 5, 0), _st("sd", 5, 8), _ld("lwu", 6, 16), _st("sw", 6, 4092)],
        [Instruction(SPECS["sc"], rd=28, rs1=ADDR_REG, rs2=5)], (_M, _M, _M, _M), True, []),
    # a verified page whose access walks off its end: the span is tested on
    # every trip, so the fourth trip's access leaves the page and faults
    "span-walk-load": ([_walk(4088)], [
        Instruction(SPECS["lw"], rd=5, rs1=WALK_REG, imm=0),
        Instruction(SPECS["addi"], rd=WALK_REG, rs1=WALK_REG, imm=2),
    ], [], _ALL_M, True, [("UnalignedAccess", TEXT + 8)]),
    "span-walk-store": ([_walk(4088)], [
        Instruction(SPECS["sw"], rs1=WALK_REG, rs2=6, imm=0),
        Instruction(SPECS["addi"], rd=WALK_REG, rs1=WALK_REG, imm=2),
    ], [], _ALL_M, True, [("UnalignedAccess", TEXT + 8)]),
    # a new page every trip: each access re-verifies, and the third page is
    # absent, so the loop stalls on it and goes on once it arrived
    "stride-4096": ([_walk(8)], [
        Instruction(SPECS["ld"], rd=5, rs1=WALK_REG, imm=0),
        Instruction(SPECS["sd"], rs1=WALK_REG, rs2=5, imm=8),
        Instruction(SPECS["addi"], rd=WALK_REG, rs1=WALK_REG, imm=4096),
    ], [], (_M, _M, None, None), True,
        [("PageStall", TEXT + 8 + 4 * write, DSM_PAGE + page, write, 8 + 8 * write, 8)
         for page in (2, 3, 4) for write in (False, True)]),
}


@pytest.mark.parametrize("before,body,after,states,verifies,stops", _VERIFIED_EXAMPLES.values(),
                         ids=list(_VERIFIED_EXAMPLES))
def test_a_verified_page_is_invisible(before, body, after, states, verifies, stops):
    """``before`` and ``after`` run once, around five trips of ``body``."""
    loop = _looped(body, 5)
    instrs = loop[:1] + before + loop[1:] + after
    mem, _cpu = _node(instrs, _REGS, states, False)
    tb = Backend().compile(Frontend(mem).build_block(TEXT + 4 * (1 + len(before))))
    assert tb.loops and ("vp0 = -1" in tb.source) == verifies, tb.source
    assert _run_on_node(instrs, _REGS, states, False, "interp")["events"] == stops
    for quantum, threshold in itertools.product((101, 10**6), (0, 2)):
        _assert_loops_are_invisible(instrs, _REGS, states, False, quantum, 2.88, threshold, False)
