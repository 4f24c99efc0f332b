"""Shared test helpers."""

from __future__ import annotations

import gc
import sys
from dataclasses import asdict

import pytest
from hypothesis import settings

from repro.core.dsmmem import DSMMemory
from repro.dbt import CodeCache, CPUState, ExecutionEngine, StopKind, memo
from repro.isa import assemble
from repro.mem import (
    PAGE_SIZE, STACK_TOP, FlatMemory, MSIState, PageStall, PageStore, page_of,
)
from repro.mem.llsc import LLSCTable
from repro.mem.splitmap import SplitMap

# `pytest --hypothesis-profile=ci` widens every property test that leaves its
# example count to the profile (the FP bit-exactness differential does).
settings.register_profile("ci", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture(autouse=True, scope="module")
def cold_translation_memo():
    """Every test module starts on an empty translation memo, so no test
    passes only because an earlier module translated its blocks."""
    memo.clear()


class StallingMemory(FlatMemory):
    """Private memory that withholds ``stall_pages`` the way ``DSMMemory``
    withholds a page its node does not hold: once the image is loaded the page
    has no state-table entry, so the first guest access — the resident test
    inlined in translated code included — reaches ``_resolve``, which raises
    the ``PageStall`` and counts the page as fetched (contents intact)."""

    def __init__(self, stall_pages):
        super().__init__()
        self.stall_pages = set(stall_pages)
        self.withheld: set[int] = set()

    def load_image(self, segments):
        super().load_image(segments)
        self.withheld = set(self.stall_pages)
        for page in self.withheld:
            self.pages.set_state(page, MSIState.INVALID)

    def _resolve(self, addr, size, write):
        page = page_of(addr)
        if page in self.withheld:
            self.withheld.discard(page)
            raise PageStall(page, write, addr % PAGE_SIZE, size)
        return super()._resolve(addr, size, write)


class OneEntryCache(CodeCache):
    """Pins an engine's allowance to one entry per call: no block it hands out
    admits to looping, so every re-entry goes through the dispatcher — the
    reference an engine that loops inside its generated functions must be
    indistinguishable from (``chaining=False`` is the other: it never has a
    chained re-entry to make in place, but cannot run superblocks)."""

    def insert(self, tb):
        tb.loops = False
        super().insert(tb)

    def promote(self, sb):
        sb.loops = False
        super().promote(sb)


def engine_books(engine):
    """Every number an engine keeps, its code cache's and each block's included."""
    return dict(
        insns=engine.insns_executed, translated=engine.insns_translated,
        execute_cycles=engine.execute_cycles, translate_cycles=engine.translate_cycles,
        fusion_saved_cycles=engine.fusion_saved_cycles, fusion_hits=dict(engine.fusion_hits),
        superblock_saved_cycles=engine.superblock_saved_cycles,
        superblocks_formed=engine.superblocks_formed, cache=asdict(engine.cache.stats),
        blocks={pc: (tb.is_superblock, tb.exec_count, tb.no_promote, dict(tb.edges),
                     sorted(tb.chain)) for pc, tb in engine.cache._blocks.items()},
    )


def resident_node_memory(prog):
    """A cluster node's memory holding every page of ``prog`` Modified."""
    store = PageStore()
    mem = DSMMemory(store, SplitMap(), LLSCTable())
    for sec in prog.sections.values():
        for page in range(page_of(sec.base), page_of(max(sec.end - 1, sec.base)) + 1):
            store.ensure(page, MSIState.MODIFIED)
    mem.load_image(prog.iter_load_segments())
    return mem


def assert_directory_mirrors(cluster):
    """The end of ``cluster``'s last run agrees with its directory: every
    slave the failure view has not latched holds exactly the pages the
    directory lists it for, no latched node is listed, and the directory's
    invariants hold.  Call right after ``run()`` returns, before the
    cluster is driven again (that retires the job's state)."""
    fleet = cluster._fleet
    latched = fleet.fabric.health.failed
    for tenant, directory in cluster.directories.items():
        listed: dict[int, set[int]] = {}
        for page, ent in directory._entries.items():
            for n in ent.sharers if ent.owner is None else (ent.owner,):
                listed.setdefault(n, set()).add(page)
        assert not latched & listed.keys(), f"latched node listed: {sorted(latched)}"
        for n, node in fleet.nodes.items():
            if n == 0 or n in latched:
                continue
            held, mine = set(node.tenants[tenant].memory.pages._states), listed.get(n, set())
            assert held == mine, (
                f"job {tenant}: n{n} holds unlisted pages {sorted(held - mine)} "
                f"and is listed for pages it lacks {sorted(mine - held)}"
            )
        directory.check_invariants()


def mirrored_run(cluster, program, **kw):
    """``cluster.run(program, **kw)``, then :func:`assert_directory_mirrors`."""
    result = cluster.run(program, **kw)
    assert_directory_mirrors(cluster)
    return result


def memory_image(mem):
    """Everything an access can leave behind: bytes, states, reservations."""
    return (
        {page: bytes(buf) for page, buf in mem.page_bufs.items()},
        dict(mem.page_states),
        {addr: set(tids) for addr, tids in mem.reservations.items()},
    )


def _profiled(fn, args, profiler) -> None:
    """``fn(*args)`` under ``profiler``, with cyclic collection held off: a
    collection would run ``gc.callbacks`` (Hypothesis installs one) inside
    the call, as if ``fn`` had made those calls."""
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()


def python_calls(fn, *args):
    """``(file, function)`` of every Python-level call made while running
    ``fn(*args)``, in call order (C functions make no ``call`` event)."""
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code  # co_qualname is CPython >= 3.11
            calls.append((code.co_filename, getattr(code, "co_qualname", code.co_name)))

    _profiled(fn, args, profiler)
    return calls


def c_calls(fn, *args):
    """Every C function called while running ``fn(*args)``, in call order: the
    calls ``python_calls`` cannot see, such as the ``struct`` accessors an
    inline float cast is made of (``fpu.QP`` for bits → float, ``fpu.DP`` for
    float → bits)."""
    calls = []

    def profiler(frame, event, arg):
        if event == "c_call":
            calls.append(arg)

    _profiled(fn, args, profiler)
    return calls


def run_to_ecall(source: str, *, mode: str = "dbt", regs: dict | None = None,
                 max_quanta: int = 10_000):
    """Assemble and run a program until the first ecall; returns (cpu, mem, engine).

    The ecall is treated as program end — full syscall handling lives in the
    kernel layer and has its own tests.
    """
    prog = assemble(source)
    mem = FlatMemory()
    mem.load_image(prog.iter_load_segments())
    cpu = CPUState(pc=prog.entry, tid=1, sp=STACK_TOP - 64)
    engine = ExecutionEngine(mem, mode=mode)
    for _ in range(max_quanta):
        stop = engine.run_quantum(cpu, 1_000_000)
        if stop.kind is StopKind.SYSCALL:
            return cpu, mem, engine
        if stop.kind is not StopKind.QUANTUM:
            raise AssertionError(f"unexpected stop: {stop.kind} ({stop.info})")
    raise AssertionError("program did not reach ecall")


@pytest.fixture
def run():
    return run_to_ecall
