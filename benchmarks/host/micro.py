"""Per-layer microbenchmarks: direct calls into each layer's public functions.

Every entry times one layer from outside, with nothing else of the system
running: the best of a few batches, each batch repeated until it lasts long
enough for the clock not to matter.  "Best" because the question is what the
code costs, and everything the machine adds only ever makes a batch slower.

These numbers have no bound of their own.  They exist so that a change to
one layer can say which number it expected to move — ``README.md`` has the
table of which end-to-end metric each one should carry with it.
"""

from __future__ import annotations

import time
from typing import Callable

from repro import Cluster, DQEMUConfig, assemble
from repro.core.dsmmem import DSMMemory
from repro.core.llsc import LLSCTable
from repro.dbt import Backend, CodeCache, CPUState, ExecutionEngine, Frontend, StopKind
from repro.dbt import fpu
from repro.isa import INSTR_BYTES, AsmBuilder, Program, decode
from repro.kernel.syscalls import SyscallExecutor, SystemState
from repro.kernel.sysnums import SYS
from repro.mem import FlatMemory, MSIState, PageStore
from repro.mem.directory import Directory
from repro.mem.splitmap import SplitMap
from repro.net import Endpoint, Fabric, FaultInjector, FaultPlan, RetryPolicy
from repro.net.faults import drop
from repro.net.messages import Ack, PageRequest
from repro.sim import Simulator
from repro.workloads import blackscholes, memaccess, swaptions, x264

#: A batch op does a known number of units of work and returns that number.
Op = Callable[[], int]

HELLO = """
_start:
    la a1, msg
    li a0, 1
    li a2, 6
    li a7, 64
    ecall
    li a0, 0
    li a7, 94
    ecall
.data
msg: .asciz "hello\\n"
"""

DATA_BASE = 0x10_0000
DATA_ADDRS = [DATA_BASE + 8 * i for i in range(512)]  # one page of aligned qwords


def best_seconds_per_unit(op: Op, batch_s: float, batches: int) -> float:
    best = float("inf")
    for _ in range(batches):
        units = 0
        t0 = time.perf_counter()
        while True:
            units += op()
            elapsed = time.perf_counter() - t0
            if elapsed >= batch_s:
                break
        best = min(best, elapsed / units)
    return best


# -- isa ------------------------------------------------------------------


def _text_insns(program: Program) -> int:
    return len(program.text.data) // INSTR_BYTES


def _small_x264() -> Program:
    return x264.build(16, 8, 2)


def isa_build() -> Op:
    def op() -> int:
        built = (_small_x264(), swaptions.build(8, 16, 20), blackscholes.build(8, 64))
        return sum(_text_insns(p) for p in built)
    return op


def isa_decode() -> Op:
    text = _small_x264().text
    words = [
        (text.base + off, int.from_bytes(text.data[off:off + INSTR_BYTES], "little"))
        for off in range(0, len(text.data), INSTR_BYTES)
    ]

    def op() -> int:
        for pc, word in words:
            decode(word, pc=pc)
        return len(words)
    return op


# -- dbt ------------------------------------------------------------------


def _flat(program: Program) -> FlatMemory:
    mem = FlatMemory()
    mem.load_image(program.iter_load_segments())
    return mem


def _block_irs(program: Program):
    """IR of every block met walking the text segment head to tail."""
    frontend = Frontend(_flat(program))
    pc, end = program.text.base, program.text.end
    blocks = []
    while pc < end:
        blocks.append(frontend.build_block(pc))
        pc = blocks[-1].next_pc
    return frontend, blocks


def dbt_translate() -> Op:
    frontend, blocks = _block_irs(_small_x264())
    backend = Backend()
    heads = [b.pc for b in blocks]

    def op() -> int:
        return sum(backend.compile(frontend.build_block(pc)).n_insns for pc in heads)
    return op


def dbt_compile_superblock() -> Op:
    _frontend, blocks = _block_irs(_small_x264())
    backend = Backend()
    traces = [blocks[i:i + 4] for i in range(0, len(blocks) - 3, 4)]

    def op() -> int:
        return sum(backend.compile_superblock(t, fusion=True).n_insns for t in traces)
    return op


def _int_kernel(iters: int) -> Program:
    b = AsmBuilder()
    b.label("_start")
    b.li("t0", 0)
    b.li("t1", iters)
    b.li("t2", 1)
    b.li("t3", 0x9E3779B97F4A7C15)
    b.label("loop")
    b.add("t2", "t2", "t0")
    b.xor("t2", "t2", "t3")
    b.slli("t4", "t2", 7)
    b.srli("t5", "t2", 3)
    b.emit("or", "t2", "t4", "t5")
    b.mul("t6", "t2", "t3")
    b.sub("t2", "t6", "t0")
    b.andi("t4", "t2", 255)
    b.add("t2", "t2", "t4")
    b.addi("t0", "t0", 1)
    b.blt("t0", "t1", "loop")
    b.ecall()
    return b.assemble()


def _fp_kernel(iters: int) -> Program:
    """The swaptions inner loop: LCG draw, convert, scale, payoff, accumulate."""
    b = AsmBuilder()
    b.label("_start")
    b.li("t0", 1)
    b.li("t2", iters)
    b.movz("t1", 0, 0)
    b.li("a4", fpu.f2b(swaptions.INV_2_53))
    b.li("a5", fpu.f2b(swaptions.STRIKE))
    b.li("a6", swaptions.LCG_MUL)
    b.li("a7", swaptions.LCG_ADD)
    b.label("loop")
    b.mul("t0", "t0", "a6")
    b.add("t0", "t0", "a7")
    b.srli("t3", "t0", 11)
    b.fcvt_d_l("t3", "t3")
    b.fmul("t3", "t3", "a4")
    b.fsub("t3", "t3", "a5")
    b.movz("t4", 0, 0)
    b.fmax("t3", "t3", "t4")
    b.fadd("t1", "t1", "t3")
    b.addi("t2", "t2", -1)
    b.bnez("t2", "loop")
    b.ecall()
    return b.assemble()


def _mem_kernel(passes: int) -> Program:
    """Byte and qword read-modify-writes striding one page."""
    b = AsmBuilder()
    b.label("_start")
    b.la("s1", "region")
    b.li("s3", 0)
    b.li("t6", passes)
    b.li("t0", 4096)
    b.label("pass")
    b.li("s2", 0)
    b.label("step")
    b.add("t3", "s1", "s2")
    b.lbu("t4", 0, "t3")
    b.addi("t4", "t4", 1)
    b.sb("t4", 0, "t3")
    b.ld("t5", 8, "t3")
    b.add("t5", "t5", "t4")
    b.sd("t5", 8, "t3")
    b.addi("s2", "s2", 16)
    b.blt("s2", "t0", "step")
    b.addi("s3", "s3", 1)
    b.blt("s3", "t6", "pass")
    b.ecall()
    b.bss()
    b.align(4096)
    b.label("region")
    b.space(4096)
    b.text()
    return b.assemble()


def _exec(program: Program, **engine_options) -> Op:
    """``run_quantum`` of one vCPU to the kernel's ecall, code cache warm."""
    engine = ExecutionEngine(_flat(program), **engine_options)

    def op() -> int:
        cpu = CPUState(pc=program.entry, tid=1, sp=0x7000_0000)
        before = engine.insns_executed
        stop = engine.run_quantum(cpu, 10**12)
        if stop.kind is not StopKind.SYSCALL:
            raise RuntimeError(f"kernel stopped with {stop}")
        return engine.insns_executed - before
    op()  # translate (and, when armed, promote) before anything is timed
    return op


def dbt_fpu_roundtrip() -> Op:
    patterns = [fpu.f2b(0.37 * k - 40.0) for k in range(256)]

    def op() -> int:
        for bits in patterns:
            fpu.f2b(fpu.b2f(bits))
        return len(patterns)
    return op


def dbt_cache_lookup() -> Op:
    _frontend, blocks = _block_irs(_small_x264())
    backend, cache = Backend(), CodeCache()
    for ir in blocks:
        cache.insert(backend.compile(ir))
    pcs = [b.pc for b in blocks] * 8

    def op() -> int:
        for pc in pcs:
            cache.lookup(pc)
        return len(pcs)
    return op


# -- mem ------------------------------------------------------------------


def mem_flat_load() -> Op:
    mem = FlatMemory()
    mem.write_bytes(DATA_BASE, bytes(4096))

    def op() -> int:
        for addr in DATA_ADDRS:
            mem.load(addr, 8, False)
        return len(DATA_ADDRS)
    return op


def _modified_page() -> PageStore:
    store = PageStore()
    store.ensure(DATA_BASE >> 12, MSIState.MODIFIED)
    return store


def mem_pagestore_read() -> Op:
    store = _modified_page()

    def op() -> int:
        for addr in DATA_ADDRS:
            store.read(addr, 8)
        return len(DATA_ADDRS)
    return op


def _dsm() -> DSMMemory:
    # A Modified page, no split entry, no reservation: the common case.
    return DSMMemory(_modified_page(), SplitMap(), LLSCTable())


def mem_dsm_load() -> Op:
    dsm = _dsm()

    def op() -> int:
        for addr in DATA_ADDRS:
            dsm.load(addr, 8, False)
        return len(DATA_ADDRS)
    return op


def mem_dsm_store() -> Op:
    dsm = _dsm()

    def op() -> int:
        for addr in DATA_ADDRS:
            dsm.store(addr, 8, addr)
        return len(DATA_ADDRS)
    return op


def mem_directory_txn() -> Op:
    def op() -> int:
        directory = Directory()
        for page in range(1000):
            for node in range(4):
                write = bool(node & 1)
                directory.plan(node, page, write)
                directory.commit(node, page, write)
        return 4000
    return op


# -- sim ------------------------------------------------------------------

SIM_EVENTS = 2000


def _noop(_event) -> None:
    pass


def sim_timeout_event() -> Op:
    def op() -> int:
        sim = Simulator()
        for delay in range(SIM_EVENTS):
            sim.timeout(delay).add_callback(_noop)
        sim.run()
        return SIM_EVENTS
    return op


def sim_process_switch() -> Op:
    def ticker(sim):
        for _ in range(SIM_EVENTS):
            yield sim.timeout(1)

    def op() -> int:
        sim = Simulator()
        sim.spawn(ticker(sim))
        sim.run()
        return SIM_EVENTS
    return op


def sim_cancelled_event() -> Op:
    """Arm a timer, then cancel it — what every answered armed RPC does."""
    def op() -> int:
        sim = Simulator()
        for _ in range(SIM_EVENTS):
            timer = sim.timeout(100)
            timer.add_callback(_noop)
            timer.cancel()
        sim.run()
        return SIM_EVENTS
    return op


# -- net ------------------------------------------------------------------

NET_MESSAGES = 400


def _two_endpoints(with_injector: bool = False):
    sim = Simulator()
    fabric = Fabric(sim)
    if with_injector:
        # Attached, but the rule names a kind these runs never send.
        FaultInjector(sim, FaultPlan.of(drop(kinds=frozenset({"shutdown"})))).attach(fabric)
    return sim, Endpoint(sim, fabric, 0), Endpoint(sim, fabric, 1)


def _oneway(with_injector: bool) -> Op:
    def op() -> int:
        sim, a, b = _two_endpoints(with_injector)
        inbox = b.subscribe(Ack.kind)
        for _ in range(NET_MESSAGES):
            a.send(1, Ack())
        sim.run()
        if len(inbox) != NET_MESSAGES:
            raise RuntimeError(f"{len(inbox)} of {NET_MESSAGES} frames arrived")
        return NET_MESSAGES
    return op


def _rpc(**call_options) -> Op:
    def server(endpoint, inbox):
        while True:
            request = yield inbox.get()
            endpoint.reply(request, Ack())

    def client(endpoint):
        for _ in range(NET_MESSAGES):
            yield endpoint.request(1, PageRequest(page=1), **call_options)

    def op() -> int:
        sim, a, b = _two_endpoints()
        sim.spawn(server(b, b.subscribe(PageRequest.kind)))
        sim.run(until=sim.spawn(client(a)))
        return NET_MESSAGES
    return op


# -- kernel ---------------------------------------------------------------


class _StubKernelMemory:
    """KernelMemory that answers from a constant buffer without yielding."""

    def read_guest(self, addr: int, size: int):
        return bytes(size)
        yield  # pragma: no cover - makes this a generator, as the protocol asks

    def write_guest(self, addr: int, data: bytes):
        return None
        yield  # pragma: no cover


def kernel_syscall_write() -> Op:
    def op() -> int:
        executor = SyscallExecutor(SystemState(brk_start=DATA_BASE), _StubKernelMemory())
        for _ in range(500):
            call = executor.execute(1, 0, SYS.WRITE, (1, DATA_BASE, 64))
            try:
                next(call)
            except StopIteration as done:
                if done.value.retval != 64:
                    raise RuntimeError(f"write returned {done.value.retval}") from None
            else:
                raise RuntimeError("write yielded on a stub memory")
        return 500
    return op


# -- core -----------------------------------------------------------------


def core_cluster_construct() -> Op:
    def op() -> int:
        for _ in range(50):
            Cluster(4, DQEMUConfig())
        return 50
    return op


def _run_once(program: Program, n_slaves: int, **cluster_options) -> Op:
    def op() -> int:
        result = Cluster(n_slaves, **cluster_options).run(program)
        if result.exit_code != 0:
            raise RuntimeError(f"exit code {result.exit_code}")
        return 1
    return op


def _small_fault_storm() -> Program:
    return memaccess.build_private_rmw(
        n_threads=8, n_nodes=4, pages_per_thread=8, passes=1, stride=1024, shared_beat=8
    )


ARMED_CALL = dict(timeout_ns=50_000_000, retry=RetryPolicy(4, 10_000, 2_000))

#: name -> (unit, units-per-second scale, factory of the batch op).
MICROS: dict[str, tuple[str, float, Callable[[], Op]]] = {
    "isa.build_us_per_insn": ("us/insn", 1e6, isa_build),
    "isa.decode_ns_per_insn": ("ns/insn", 1e9, isa_decode),
    "dbt.translate_us_per_insn": ("us/insn", 1e6, dbt_translate),
    "dbt.compile_superblock_us_per_insn": ("us/insn", 1e6, dbt_compile_superblock),
    "dbt.exec_int_ns_per_insn": ("ns/insn", 1e9, lambda: _exec(_int_kernel(400))),
    "dbt.exec_fp_ns_per_insn": ("ns/insn", 1e9, lambda: _exec(_fp_kernel(400))),
    "dbt.exec_mem_ns_per_insn": ("ns/insn", 1e9, lambda: _exec(_mem_kernel(2))),
    "dbt.exec_int_hot_ns_per_insn": (
        "ns/insn", 1e9, lambda: _exec(_int_kernel(400), superblock_threshold=8, fusion=True),
    ),
    # Moves tier-1 test time only: no benchmark workload interprets.
    "dbt.interp_ns_per_insn": ("ns/insn", 1e9, lambda: _exec(_int_kernel(60), mode="interp")),
    "dbt.fpu_roundtrip_ns": ("ns", 1e9, dbt_fpu_roundtrip),
    "dbt.cache_lookup_ns": ("ns", 1e9, dbt_cache_lookup),
    "mem.flat_load_ns": ("ns", 1e9, mem_flat_load),
    "mem.pagestore_read_ns": ("ns", 1e9, mem_pagestore_read),
    "mem.dsm_load_ns": ("ns", 1e9, mem_dsm_load),
    "mem.dsm_store_ns": ("ns", 1e9, mem_dsm_store),
    "mem.directory_txn_us": ("us", 1e6, mem_directory_txn),
    "sim.timeout_event_ns": ("ns", 1e9, sim_timeout_event),
    "sim.process_switch_ns": ("ns", 1e9, sim_process_switch),
    "sim.cancelled_event_ns": ("ns", 1e9, sim_cancelled_event),
    "net.oneway_msg_us": ("us", 1e6, lambda: _oneway(False)),
    "net.rpc_roundtrip_us": ("us", 1e6, _rpc),
    "net.rpc_roundtrip_armed_us": ("us", 1e6, lambda: _rpc(**ARMED_CALL)),
    "net.faultplan_passthrough_us": ("us", 1e6, lambda: _oneway(True)),
    "kernel.syscall_write_us": ("us", 1e6, kernel_syscall_write),
    "core.cluster_construct_ms": ("ms", 1e3, core_cluster_construct),
    # Fixed cost of one run: the README hello program on 2 slaves.
    "core.hello_run_ms": ("ms", 1e3, lambda: _run_once(assemble(HELLO), 2)),
}
TRACE_OVERHEAD = "core.trace_on_overhead_x"
UNITS = {name: unit for name, (unit, _scale, _make) in MICROS.items()} | {TRACE_OVERHEAD: "x"}


def run_all(batch_s: float, batches: int) -> dict[str, float]:
    """Every microbenchmark, in the unit ``UNITS`` names."""
    values = {
        name: best_seconds_per_unit(make(), batch_s, batches) * scale
        for name, (_unit, scale, make) in MICROS.items()
    }
    storm = _small_fault_storm()
    traced = best_seconds_per_unit(_run_once(storm, 4, trace=True), batch_s, batches)
    untraced = best_seconds_per_unit(_run_once(storm, 4), batch_s, batches)
    values[TRACE_OVERHEAD] = traced / untraced
    return values
