"""The resident fast path emitted into translated code.

Generated code tests the memory's resident-access view inline and calls
``mem.miss_load`` / ``mem.miss_store`` only as the miss arm
(``repro.dbt.backend``, ``repro.mem.api.MemoryAPI``); a page stall there
comes back as ``RC_STALL`` with the stall in ``mem.stall``.  Pinned here, on what the code does and never on
its text: the inline predicate is exactly "the out-of-line method would take
no slow step", the two arms are indistinguishable from the method, a trip
round a hot one-block loop leaves the generated function for nothing, and
signed order — the last helper such a loop used to call — agrees with
``runtime.s64`` on every edge value.
"""

import itertools
import sys

import pytest

from repro.core.dsmmem import DSMMemory
from repro.cost import CostModel
from repro.dbt import Backend, CPUState, ExecutionEngine, Frontend, StopKind
from repro.dbt.backend import MEM_VIEW, _Emitter
from repro.dbt.frontend import BlockIR
from repro.dbt.runtime import s64
from repro.dbt.stop import RC_STALL
from repro.dbt.tcg import InstrIR, TCGOp, guest, imm
from repro.errors import GuestFault
from repro.isa import SPECS, Instruction, encode
from repro.mem import PAGE_SIZE, FlatMemory, MSIState, PageStall
from repro.mem.llsc import LLSCTable
from repro.mem.pagestore import PageStore
from repro.mem.splitmap import SplitEntry, SplitMap
from repro.workloads import memaccess, swaptions
from tests.conftest import c_calls, memory_image, python_calls, resident_node_memory

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
        spy(translated, f"miss_{kind}", out_of_line)
        cpu = CPUState(pc=TEXT, tid=1)
        cpu.regs[ADDR_REG] = addr - DISP
        cpu.regs[DATA_REG] = STORED

        def run():
            if tb.fn(cpu, translated, 1) == RC_STALL:
                raise translated.stall  # returned, where the method raises it
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


def test_resident_view_containers_are_never_rebound():
    """The containers a translated function binds at entry (``MEM_VIEW``) are
    the owners' own dicts, and stay the same objects across everything that
    changes what they hold: a split installed and merged, an invalidation, an
    LR/SC pair and a silent E->M upgrade."""
    store, table, llsc = PageStore(), SplitMap(), LLSCTable()
    mem = DSMMemory(store, table, llsc)

    def held():
        return {"page_states": store._states, "page_bufs": store._pages,
                "split_pages": table.by_orig, "reservations": llsc._res}

    owners = held()
    assert set(owners) == set(MEM_VIEW.values())

    def same(step):
        for attr, container in held().items():
            assert container is owners[attr] and getattr(mem, attr) is container, (step, attr)

    store.install(PAGE, pattern(11), MSIState.MODIFIED)
    table.install(SplitEntry(PAGE, SHADOWS, PAGE_SIZE // 2))
    assert mem.split_pages
    same("split installed")
    table.remove(PAGE)
    assert not mem.split_pages
    same("split merged")
    cpu = CPUState(pc=TEXT, tid=1)
    mem.load_reserved(cpu, BASE)
    assert mem.reservations
    assert mem.store_conditional(cpu, BASE, STORED)
    same("LR/SC pair")
    mem.invalidate(PAGE)
    assert PAGE not in mem.page_states
    same("invalidation")
    store.install(PAGE, pattern(12), MSIState.EXCLUSIVE)
    assert store.silently_upgrade(PAGE)
    assert mem.page_states[PAGE] is MSIState.MODIFIED
    same("silent E->M upgrade")


def test_an_unbound_view_read_is_refused_at_translation():
    """Every view local an emitted line reads must be bound at entry; a line
    reading one the emitter did not record is caught before compilation."""
    em = _Emitter("tb", TEXT, loops=False)
    em.lines.append("# X in a comment is not a read")
    em.views.add("S")
    em.lines.append("if p not in S: return 0")
    assert "S = mem.page_states" in em.text()
    em.lines.append("if X: return 0")
    with pytest.raises(AssertionError, match="X"):
        em.text()


# -- steady state: a loop iteration leaves the generated function for nothing ----


def steady_quantum(prog, label, regs, trips=50, **engine_options):
    """Python calls of one warm quantum of about ``trips`` trips round the
    one-block loop at ``label``, and how many trips it made."""
    free_translation = CostModel(translate_per_insn=0.0)
    engine = ExecutionEngine(resident_node_memory(prog), cost=free_translation,
                             **engine_options)
    cpu = CPUState(pc=prog.symbol(label), tid=1)
    for reg, value in regs.items():
        cpu.regs[reg] = value
    assert engine.run_quantum(cpu, 300).kind is StopKind.QUANTUM
    hot = engine.cache.peek(prog.symbol(label))
    assert hot.chain == {hot.pc: hot}  # translated and chained to itself
    per_trip = (hot.n_insns - len(hot.fused)) * engine.cost.cpi_dbt
    before = hot.exec_count
    calls = python_calls(engine.run_quantum, cpu, int(trips * per_trip))
    return calls, hot.exec_count - before


def assert_no_call_per_trip(calls, ran):
    """What a quantum may call: the dispatcher, one lookup (its entry has no
    chain predecessor), the block — once for its in-place trips, once each for
    the few boundary trips the allowance leaves to the dispatcher — and the
    StopEvent.  No memory method, no arithmetic or FP helper, nothing per trip."""
    def frames(part):  # bare names: co_qualname only exists on CPython >= 3.11
        return [name.rpartition(".")[2] for file, name in calls if part in file]

    assert ran >= 50
    assert not frames("/repro/mem/") and not frames("dsmmem.py"), calls
    assert not frames("dbt/runtime.py") and not frames("dbt/fpu.py"), calls
    engine = frames("dbt/engine.py")
    assert engine[:2] == ["run_quantum", "_run_dbt"] and engine[-1] == "_stop"
    assert engine.count("_replay") == 1  # the in-place trips, booked in one go
    # (a fused block's boundary trips bill their saving through ``_bill``)
    assert set(engine[2:-1]) <= {"_replay", "_add_times", "_bill"}
    assert frames("dbt/codecache.py") == ["lookup"]
    assert 1 <= len(frames("<tb@")) <= 4
    assert len(calls) <= 16, calls


def test_hot_seq_walk_block_makes_no_memory_call_and_one_dispatch_call():
    prog = memaccess.build_seq_walk(npages=1)
    # t0: base, t2: bytes to walk; t1 (index) and t5 (sum) start at 0.
    regs = {5: prog.symbol("region"), 7: PAGE_SIZE}
    assert_no_call_per_trip(*steady_quantum(prog, ".sw_loop", regs))


@pytest.mark.parametrize("fusion", [False, True], ids=["plain", "fused"])
def test_private_rmw_inner_block_shape(fusion):
    """Load, increment, store, two ``li`` and a signed compare against one of
    them: every access resident, every operand a local or a constant."""
    prog = memaccess.build_private_rmw(2, 2, pages_per_thread=2, passes=2, stride=8)
    regs = {9: prog.symbol("region")}  # s1: region base; s2 (offset) starts at 0
    assert_no_call_per_trip(*steady_quantum(prog, ".pr_step", regs, fusion=fusion))


def loop_body(tb):
    """The lines of ``tb``'s loop body, and those of its miss arms among them."""
    source = tb.source.split("    for i in range(n):\n", 1)[1].splitlines()
    body = list(itertools.takewhile(lambda ln: ln.startswith(" " * 8), source))
    return body, [ln for ln in body if ln.startswith(" " * 12)], "".join(source[len(body):])


def private_rmw_step():
    """``mem_rmw_walk``'s hot loop (its sizes at seed 0; the block at 0x10544),
    compiled against a memory holding the program's pages Modified."""
    prog = memaccess.build_private_rmw(8, 4, pages_per_thread=8, passes=10, stride=8)
    pc = prog.symbol(".pr_step")
    mem = resident_node_memory(prog)
    tb = Backend().compile(Frontend(mem).build_block(pc))
    assert tb.loops and pc == 0x10544
    return prog, mem, tb


def test_private_rmw_loop_body_stores_no_register_outside_its_miss_arms():
    """A trip keeps every integer it writes in a host local, and only the miss
    arms and the one exit after the loop write ``cpu.regs``.  Both accesses
    are verifying sites: each tries the page it verified before the full test."""
    _prog, _mem, tb = private_rmw_step()
    body, arms, after = loop_body(tb)
    sites = [ln.strip() for ln in body if ln not in arms and ln.strip().startswith(("if p", "el"))]
    assert sites == [
        "if p == vp0: r29 = vb0[r28 & 4095]", "elif X or p not in S:",
        "else: vp0 = p; vb0 = B[p]; r29 = vb0[r28 & 4095]",
        "if p == vp1: vb1[r28 & 4095] = r29 & 255", "elif X or A or S.get(p) is not W:",
        "else: vp1 = p; vb1 = B[p]; vb1[r28 & 4095] = r29 & 255",
    ], tb.source
    assert [ln for ln in body if "R[" in ln and ln not in arms] == [], tb.source
    assert any("R[" in ln for ln in arms) and "R[" in after


def test_a_verified_page_is_served_without_a_call():
    """Round ``mem_rmw_walk``'s loop, the only call a trip makes is the store
    site's ``S.get``, and only on the trip that verifies a page: 1,024 trips
    over two pages call it twice, and leave what the methods would."""
    prog, mem, tb = private_rmw_step()
    base = prog.symbol("region")
    want = resident_node_memory(prog)
    for addr in range(base, base + 2 * PAGE_SIZE, 8):
        want.store(addr, 1, want.load(addr, 1, False) + 1)
    cpu = CPUState(pc=tb.pc, tid=1)
    cpu.regs[9] = base  # s1: the region; s2 (its offset) starts at 0
    calls = c_calls(tb.fn, cpu, mem, 2 * PAGE_SIZE // 8)
    assert [call for call in calls if call is not sys.setprofile] == [mem.page_states.get] * 2
    assert cpu.block_runs == 2 * PAGE_SIZE // 8 and cpu.regs[18] == 2 * PAGE_SIZE
    assert memory_image(mem) == memory_image(want)


def test_fp_compute_trial_loop_stores_its_sum_as_a_float():
    """``fp_compute``'s hot loop (swaptions' trial loop; the block at 0x10518):
    the sum it stores each trial stays a host float, packed straight into the
    page, so no trip casts a float to bits, and only the miss arm and the one
    exit after the loop write ``cpu.regs``.  The store's base register is never
    written in the body, so its page and offset are bound before the loop."""
    prog = swaptions.build(32, 128, trials=2000)
    pc = prog.symbol(".sw_trial")
    tb = Backend().compile(Frontend(resident_node_memory(prog)).build_block(pc))
    assert tb.loops and pc == 0x10518
    body, arms, after = loop_body(tb)
    outside = [ln for ln in body if ln not in arms]
    pre = tb.source.split("    for i in range(n):\n", 1)[0]
    assert "    hp0 = r26 >> 12\n    ho0 = r26 & 4095\n" in pre, tb.source
    assert [ln for ln in outside if "R[" in ln] == [], tb.source
    assert [ln for ln in outside if "QU(" in ln or "DP(" in ln] == [], tb.source
    assert [ln.strip() for ln in outside if "ho0" in ln] == [
        "if hp0 == vp0 and ho0 <= 4088: pd(vb0, ho0, f6) if f6 == f6 else p8(vb0, ho0, NAN)",
        "elif X or A or ho0 > 4088 or S.get(hp0) is not W:",
        "else: vp0 = hp0; vb0 = B[hp0]; pd(vb0, ho0, f6) if f6 == f6 else p8(vb0, ho0, NAN)",
    ], tb.source
    assert any("R[6] = " in ln for ln in arms) and "R[6] = " in after


def test_wide_accesses_add_the_span_test_and_pure_blocks_bind_no_view():
    """A resident access of any width is served without a Python call, up to
    the last offset its span fits; a block with no access reads nothing off
    its memory argument."""
    accesses = [(size, Instruction(SPECS[m], rd=DATA_REG, rs1=ADDR_REG, imm=DISP))
                for (size, _signed), m in LOADS.items()]
    accesses += [(size, Instruction(SPECS[m], rs1=ADDR_REG, rs2=DATA_REG, imm=DISP))
                 for size, m in STORES.items()]
    for size, instr in accesses:
        tb = one_insn_block(instr)
        mem = node_memory(MSIState.MODIFIED, False, False, BASE)
        cpu = CPUState(pc=TEXT, tid=1)
        cpu.regs[ADDR_REG] = BASE + PAGE_SIZE - size - DISP
        cpu.regs[DATA_REG] = STORED
        calls = python_calls(tb.fn, cpu, mem, 1)
        assert [name for _file, name in calls] == [tb.fn.__name__], (instr, calls)
        cpu.regs[ADDR_REG] += 1  # one byte further the span leaves the page
        if size > 1:
            with pytest.raises(GuestFault):
                tb.fn(cpu, mem, 1)
    arith = one_insn_block(Instruction(SPECS["add"], rd=5, rs1=6, rs2=7))
    cpu = CPUState(pc=TEXT, tid=1)
    cpu.regs[6], cpu.regs[7] = 2**64 - 1, 3
    arith.fn(cpu, None, 1)  # no memory at all
    assert cpu.regs[5] == 2


# -- signed order without a call -----------------------------------------------

EDGES = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
ORDER = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: s64(a) < s64(b), "ge": lambda a, b: s64(a) >= s64(b),
    "ltu": lambda a, b: a < b, "geu": lambda a, b: a >= b,
}
#: How the two operands reach the compare: in registers, as immediate
#: operands (one or both: ``slti rd, x0, 5``), or the right one as a constant
#: a visible ``mov`` left in its register.
FORMS = ["reg-reg", "reg-imm", "imm-reg", "imm-imm", "reg-mov"]
TAKEN, FALL = TEXT + 0x100, TEXT + 8


def compare_block(op, cond, form, a, b):
    """One hand-lowered instruction ``x5 = (x6 cond x7)`` resp. ``branch if
    x6 cond x7``, the operands supplied as ``form`` says."""
    left = imm(a) if form.startswith("imm-") else guest(6)
    right = imm(b) if form.endswith("-imm") else guest(7)
    ops = [TCGOp("mov", (guest(7), imm(b)))] if form == "reg-mov" else []
    if op == "setcond":
        ops.append(TCGOp("setcond", (guest(5), left, right, cond)))
    else:
        ops.append(TCGOp("brcond", (left, right, cond, TAKEN, FALL)))
    ir = BlockIR(pc=TEXT, instrs=[InstrIR(TEXT, op, ops, False)], next_pc=TEXT + 4, words=())
    return Backend().compile(ir)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("cond", list(ORDER))
@pytest.mark.parametrize("op", ["setcond", "brcond"])
def test_every_condition_agrees_with_s64_on_the_edge_values(op, cond, form):
    for a, b in itertools.product(EDGES, EDGES):  # the equal pairs included
        tb = compare_block(op, cond, form, a, b)
        cpu = CPUState(pc=TEXT, tid=1)
        cpu.regs[6], cpu.regs[7] = a, b
        calls = python_calls(tb.fn, cpu, None, 1)
        assert len(calls) == 1, calls  # the block itself: no helper
        got = cpu.regs[5] == 1 if op == "setcond" else cpu.pc == TAKEN
        assert got == ORDER[cond](a, b), (hex(a), hex(b), tb.source)
        assert cpu.regs[5] in (0, 1) and cpu.pc in (TEXT, TEXT + 4, TAKEN, FALL)
