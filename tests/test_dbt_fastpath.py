"""The resident fast path emitted into translated code.

Generated code tests the memory's resident-access view inline and calls
``mem.load`` / ``mem.store`` only as the miss arm (``repro.dbt.backend``,
``repro.mem.api.MemoryAPI``).  Pinned here: the inline predicate is exactly
"the out-of-line method would take no slow step", the two arms are
indistinguishable from the method, a steady-state hot block leaves the
generated function for nothing but its signed compares, and the emitted
source has the shape that makes that so.
"""

import itertools
import re

import pytest

from repro.core.dsmmem import DSMMemory
from repro.dbt import Backend, CPUState, EngineTiming, ExecutionEngine, Frontend, StopKind
from repro.errors import GuestFault
from repro.isa import SPECS, Instruction, encode
from repro.mem import PAGE_SIZE, FlatMemory, MSIState, PageStall
from repro.mem.llsc import LLSCTable
from repro.mem.pagestore import PageStore
from repro.mem.splitmap import SplitEntry, SplitMap
from repro.workloads import memaccess
from tests.conftest import memory_image, python_calls, resident_node_memory

TEXT = 0x1_0000
PAGE = 0x100
BASE = PAGE << 12
SHADOWS = (0x60000, 0x60001)  # the two 2048-byte regions of PAGE when split
ADDR_REG, DATA_REG, DISP = 9, 5, 16
STORED = 0x8899_AABB_CCDD_EEFF
LOADS = {(1, True): "lb", (2, True): "lh", (4, True): "lw", (8, True): "ld",
         (1, False): "lbu", (2, False): "lhu", (4, False): "lwu"}
STORES = {1: "sb", 2: "sh", 4: "sw", 8: "sd"}


def one_insn_block(instr):
    """The translated block of ``instr`` alone, compiled against a scratch
    memory: nothing about a memory is bound at compile time."""
    code = FlatMemory()
    code.write_bytes(TEXT, encode(instr).to_bytes(4, "little"))
    return Backend().compile(Frontend(code, max_block_insns=1).build_block(TEXT))


def pattern(seed):
    return bytes((i * 37 + seed) % 256 for i in range(PAGE_SIZE))


def node_memory(state, split, armed, addr):
    """A node's memory with PAGE (and its neighbour) in ``state``; with
    ``split`` PAGE is split and its shadows are resident with other bytes;
    with ``armed`` a reservation sits on the cell the access resolves to."""
    store, table, llsc = PageStore(), SplitMap(), LLSCTable()
    mem = DSMMemory(store, table, llsc)
    if state is not None:
        store.install(PAGE, pattern(11), state)
        store.install(PAGE + 1, pattern(12), state)
    if split:
        table.install(SplitEntry(PAGE, SHADOWS, PAGE_SIZE // 2))
        for k, shadow in enumerate(SHADOWS):
            store.install(shadow, pattern(21 + k), state or MSIState.SHARED)
    if armed:
        llsc.reserve(table.translate_span(addr, 1) & ~7, 7)
    return mem


def outcome(run, mem):
    """What an access did: its result or fault, and every byte, state and
    reservation it left behind."""
    try:
        result = run()
    except PageStall as stall:
        result = (type(stall), stall.page, stall.write, stall.offset, stall.size)
    except GuestFault as fault:
        result = (type(fault), fault.addr)
    return result, memory_image(mem)


def spy(obj, name, log):
    """Record calls to ``obj.name`` (an instance attribute shadows the method,
    for generated code's ``mem.load(...)`` as for any caller)."""
    inner = getattr(obj, name)

    def wrapper(*args):
        log.append(name)
        return inner(*args)

    setattr(obj, name, wrapper)


STATES = [None, MSIState.SHARED, MSIState.EXCLUSIVE, MSIState.MODIFIED]
ACCESSES = [("load", size, signed) for size, signed in LOADS] + [
    ("store", size, False) for size in STORES
]


@pytest.mark.parametrize("kind,size,signed", ACCESSES)
def test_inline_arm_is_taken_exactly_when_the_method_would_not_go_slow(kind, size, signed):
    if kind == "load":
        instr = Instruction(SPECS[LOADS[size, signed]], rd=DATA_REG, rs1=ADDR_REG, imm=DISP)
    else:
        instr = Instruction(SPECS[STORES[size]], rs1=ADDR_REG, rs2=DATA_REG, imm=DISP)
    tb = one_insn_block(instr)
    # In-page first and last position, a region-straddling one, a page-crossing one.
    offsets = (0, PAGE_SIZE - size, PAGE_SIZE // 2 - 1, PAGE_SIZE + 1 - size)
    for state, split, armed, off in itertools.product(
        STATES, (False, True), (False, True), offsets
    ):
        addr = BASE + off
        where = (hex(addr), state, split, armed)

        direct = node_memory(state, split, armed, addr)
        slow_steps: list[str] = []
        spy(direct, "_resolve", slow_steps)
        spy(direct.llsc, "kill_store", slow_steps)
        if kind == "load":
            want = outcome(lambda: direct.load(addr, size, signed), direct)
        else:
            want = outcome(lambda: direct.store(addr, size, STORED), direct)

        translated = node_memory(state, split, armed, addr)
        out_of_line: list[str] = []
        spy(translated, kind, out_of_line)
        cpu = CPUState(pc=TEXT, tid=1)
        cpu.regs[ADDR_REG] = addr - DISP
        cpu.regs[DATA_REG] = STORED

        def run():
            tb.fn(cpu, translated)
            return cpu.regs[DATA_REG] if kind == "load" else None

        assert outcome(run, translated) == want, where
        assert bool(out_of_line) == bool(slow_steps), (where, slow_steps)
        if isinstance(want[0], tuple):  # faulted: stopped precisely at the access
            assert (cpu.pc, cpu.block_ic) == (TEXT, 0), where


def test_memory_without_the_view_is_refused_at_construction():
    class Opaque:
        load = store = fetch_code = None

    with pytest.raises(AttributeError, match="page_states"):
        ExecutionEngine(Opaque())


# -- steady state: no call leaves the block for memory ------------------------


def test_hot_seq_walk_block_makes_no_memory_call_and_one_dispatch_call():
    prog = memaccess.build_seq_walk(npages=1)
    free_translation = EngineTiming(translate_per_insn=0.0)
    engine = ExecutionEngine(resident_node_memory(prog), timing=free_translation)
    cpu = CPUState(pc=prog.symbol(".sw_loop"), tid=1)
    cpu.regs[5] = prog.symbol("region")  # t0: base; t1 (index) and t5 (sum) start at 0
    cpu.regs[7] = PAGE_SIZE  # t2: bytes to walk
    per_block = 5 * engine.timing.cpi_dbt
    assert engine.run_quantum(cpu, int(20 * per_block)).kind is StopKind.QUANTUM
    hot = engine.cache.peek(prog.symbol(".sw_loop"))
    assert hot.chain == {hot.pc: hot}  # translated and chained to itself
    before = hot.exec_count

    calls = python_calls(engine.run_quantum, cpu, int(50 * per_block))

    ran = hot.exec_count - before
    assert ran >= 50

    def frames(suffix):  # bare names: co_qualname only exists on CPython >= 3.11
        return [name.rpartition(".")[2] for file, name in calls if file.endswith(suffix)]

    assert not [c for c in calls if "/repro/mem/" in c[0] or c[0].endswith("dsmmem.py")], calls
    # The dispatch loop's only call per chained plain block is the block; the
    # quantum's entry has no chain predecessor and pays the one cache lookup.
    assert frames("dbt/engine.py") == ["run_quantum", "_run_dbt", "_stop"]
    assert frames("dbt/codecache.py") == ["lookup"]
    assert sum(file.startswith("<tb@") for file, _name in calls) == ran
    # What is left: the block's two signed-compare helpers, and the StopEvent.
    assert frames("dbt/runtime.py") == ["s64"] * (2 * ran)
    assert len(calls) == 3 * ran + 5, calls[-8:]


# -- codegen shape -------------------------------------------------------------


def block_source(prog, label, **compile_options):
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    return Backend().compile(
        Frontend(mem).build_block(prog.symbol(label)), **compile_options
    ).source


@pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fused"])
def test_private_rmw_inner_block_shape(fusion):
    prog = memaccess.build_private_rmw(2, 2, pages_per_thread=2, passes=2, stride=8)
    src = block_source(prog, ".pr_step", fusion=fusion)
    # Zero-displacement address and immediate-only add carry no arithmetic.
    assert "t0 = R[28]\n" in src
    assert "R[30] = 8\n" in src
    assert not re.search(r"\+ 0\)|\(0 \+", src), src
    # The byte arms index the page buffer directly: no slice, no from_bytes.
    assert " else B[p][t0 & 4095]\n" in src
    assert "else: B[p][t0 & 4095] = R[29] & 255\n" in src
    assert "ifb(" not in src and "itb(" not in src
    # Every out-of-line access is a miss arm, behind the whole inline test.
    for line in src.splitlines():
        if "mem.load(" in line:
            assert re.search(r"= mem\.load\(t0, 1, False\) if X or p not in S else ", line), line
        if "mem.store(" in line:
            assert line.strip().startswith("if X or A or S.get(p) is not W: mem.store("), line
    assert src.count("mem.load(") == src.count("mem.store(") == 1
    # The view is read from the ``mem`` argument, once, on entry.
    assert src.splitlines()[1:6] == [
        "    R = cpu.regs", "    S = mem.page_states", "    B = mem.page_bufs",
        "    X = mem.split_pages", "    A = mem.reservations",
    ]


def test_wide_accesses_add_the_span_test_and_pure_blocks_bind_no_view():
    prog = memaccess.build_seq_walk(npages=1)
    worker = block_source(prog, "worker")  # sd ra, 8(sp) right after the prologue addi
    assert "if X or A or o > 4088 or S.get(p) is not W: mem.store(t0, 8, R[1])\n" in worker
    assert 'else: B[p][o:o + 8] = itb(R[1], 8, "little")\n' in worker
    arith = one_insn_block(Instruction(SPECS["add"], rd=5, rs1=6, rs2=7)).source
    assert "mem." not in arith
