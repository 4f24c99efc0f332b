"""DBT backend: compile TCG micro-ops into host code.

The "host" here is the CPython VM: each translation block becomes one
generated Python function, built as source text and compiled with
``compile()`` — the same generate-once/execute-many structure as a JIT
emitting machine code, with the translation cost paid once per block.

Precise guest state: integer results are committed to ``cpu.regs`` as each
guest instruction completes, and before any instruction that can fault the
generated code records its pc and the count of completed instructions
(``cpu.block_ic``).  A :class:`~repro.mem.api.PageStall` raised by the
memory system therefore propagates with the CPU stopped exactly at the
faulting instruction, which DQEMU's coherence machinery requires (§4.2).

Float shadow.  Inside a generated function an FP value is a host local
``fN`` (a Python ``float``) and ``R[N]`` may be stale.  ``R[N] = f2b(fN)`` is
emitted before an integer read of ``N``, before every ``can_fault``
instruction and on every ``return`` — the only points at which anything
outside the function (fault handler, migration and checkpoint capture, the
next block) reads ``cpu.regs``, so the register file is exact whenever read.

Resident fast path.  Every ``ld``/``st`` micro-op is emitted as the memory's
hit test inline plus the out-of-line method as its miss arm — QEMU's softmmu
TLB check, with the containers of :class:`~repro.mem.api.MemoryAPI`'s
resident-access view in the TLB's place.  A load is served by indexing the
page's ``bytearray`` iff nothing is split, the span stays inside the page and
the page has a state; a store iff additionally no reservation is armed and the
state is Modified — exactly when ``DSMMemory.load``/``store`` would neither
enter ``_resolve`` nor call ``kill_store``.  Anything else calls ``mem.load`` /
``mem.store`` unchanged, after the ``can_fault`` preamble has committed pc,
``block_ic`` and float shadows, so stalls, faults and silent upgrades behave
as if every access were the call.  The containers are read from the ``mem``
argument at function entry (:data:`MEM_VIEW`), never bound at compile time: a
block serves whichever memory it is run against.

Hot-path tier.  Beyond plain per-block compilation the backend supports:

* **successor metadata** — every block records its statically-known
  successor pcs (``succ_pcs``) so the engine can chain blocks and skip the
  cache lookup on the fall-through/branch fast path;
* **trace superblocks** (:meth:`Backend.compile_superblock`) — a hot chain
  of blocks stitched into one generated function with a single entry and
  interior side exits, so hot loops pay one dispatch per trace instead of
  one per block;
* **idiom fusion** (:func:`find_fusions`) — a peephole over adjacent guest
  instructions that collapses recurring GA64 idioms (compare+branch,
  load+op, the guest-libc atomic spin idiom) into single host operations,
  each fused pair billed as one instruction by the engine.

Fusion never changes architectural state: every guest register write still
happens, and fused pairs are only formed when no precise-exception point
can observe the intermediate value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dbt import fpu
from repro.dbt import runtime as rt
from repro.dbt.frontend import BlockIR
from repro.dbt.tcg import InstrIR, TCGOp
from repro.mem.layout import PAGE_SHIFT, PAGE_SIZE
from repro.mem.msi import MSIState

__all__ = ["TranslationBlock", "Backend", "find_fusions", "MEM_VIEW"]

M64 = rt.M64

#: Host local → the :class:`~repro.mem.api.MemoryAPI` container it aliases.
#: A generated function that touches memory binds the ones it tests at entry,
#: from its ``mem`` argument (module docstring, "Resident fast path").
MEM_VIEW = {"S": "page_states", "B": "page_bufs", "X": "split_pages", "A": "reservations"}

#: Globals of every generated function (one shared dict: none assigns one).
_CODEGEN_GLOBALS = {
    "M": M64,
    "s64": rt.s64,
    "sdiv64": rt.sdiv64,
    "udiv64": rt.udiv64,
    "srem64": rt.srem64,
    "urem64": rt.urem64,
    "mulh64": rt.mulh64,
    "mulhu64": rt.mulhu64,
    "b2f": fpu.b2f,
    "f2b": fpu.f2b,
    "fdiv_h": fpu.fdiv,
    "fsqrt_h": fpu.fsqrt,
    "fmin_h": fpu.fmin,
    "fmax_h": fpu.fmax,
    "d2l": fpu.d2l,
    "l2d": fpu.l2d,
    "W": MSIState.MODIFIED,
    "ifb": int.from_bytes,
    "itb": int.to_bytes,
}

_COND_EXPR = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "lt": "s64({a}) < s64({b})",
    "ge": "s64({a}) >= s64({b})",
    "ltu": "{a} < {b}",
    "geu": "{a} >= {b}",
}

#: FP ops over host floats: operands and result are float expressions.
_FBIN_EXPR = {
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": "fdiv_h({a}, {b})",
    "fmin": "fmin_h({a}, {b})",
    "fmax": "fmax_h({a}, {b})",
}

_FSET_EXPR = {"feq": "{a} == {b}", "flt": "{a} < {b}", "fle": "{a} <= {b}"}

_BIN_EXPR = {
    "add": "({a} + {b}) & M",
    "sub": "({a} - {b}) & M",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} & 63)) & M",
    "shr": "{a} >> ({b} & 63)",
    "sar": "(s64({a}) >> ({b} & 63)) & M",
    "mul": "({a} * {b}) & M",
    "mulh": "mulh64({a}, {b})",
    "mulhu": "mulhu64({a}, {b})",
    "div": "sdiv64({a}, {b})",
    "divu": "udiv64({a}, {b})",
    "rem": "srem64({a}, {b})",
    "remu": "urem64({a}, {b})",
}

_TERMINALS = ("brcond", "jmp", "jmp_ind", "exit")


@dataclass(eq=False)
class TranslationBlock:
    """A compiled block: guest extent, host function, and the source kept for
    diagnostics (``/proc``-style introspection and tests).

    ``eq=False`` keeps object-identity hashing so blocks can sit in the
    chain-backlink sets the code cache maintains for unchaining.

    The translation (every field down to ``member_pcs``) is a function of the
    guest words alone and is never written after ``compile``; the fields
    below it are one engine's execution state.  :meth:`fresh` gives an engine
    its own block over a translation made for any other.
    """

    pc: int
    n_insns: int
    end_pc: int  # first byte past the last guest instruction
    fn: Callable
    source: str
    #: Statically-known successor entry pcs (empty for indirect jumps).
    succ_pcs: tuple[int, ...] = ()
    #: Guest pages this block's code spans (union over members for
    #: superblocks) — the invalidation index key set.
    pages: tuple[int, ...] = ()
    #: Fused idiom groups: ``(end_index, pattern)`` where ``end_index`` is
    #: the cumulative index of the pair's second instruction.  A group whose
    #: second instruction completed is billed as one host operation.
    fused: tuple[tuple[int, str], ...] = ()
    #: Unfused block IR, kept so superblock formation can re-stitch it.
    ir: Optional[BlockIR] = None
    is_superblock: bool = False
    member_pcs: tuple[int, ...] = ()
    exec_count: int = 0
    #: Latched when trace formation from this head failed; stops retrying.
    no_promote: bool = False
    #: Direct successor references (pc → block), filled by the code cache.
    chain: dict[int, "TranslationBlock"] = field(default_factory=dict)
    #: Blocks holding a chain reference to this one (for unchaining).
    chained_from: "set[TranslationBlock]" = field(default_factory=set)
    #: Dynamic successor execution counts, recorded by the engine and used
    #: to pick the hottest path when growing a trace.
    edges: dict[int, int] = field(default_factory=dict)

    def fresh(self) -> "TranslationBlock":
        """A block sharing this one's translation, with execution state of
        its own: never run, chained to nothing."""
        return TranslationBlock(
            pc=self.pc, n_insns=self.n_insns, end_pc=self.end_pc, fn=self.fn,
            source=self.source, succ_pcs=self.succ_pcs, pages=self.pages, fused=self.fused,
            ir=self.ir, is_superblock=self.is_superblock, member_pcs=self.member_pcs,
        )


def _page_span(pc: int, end_pc: int) -> tuple[int, ...]:
    return tuple(range(pc // PAGE_SIZE, max(end_pc - 1, pc) // PAGE_SIZE + 1))


def _successors(instrs: list[InstrIR], next_pc: int) -> tuple[int, ...]:
    """Static successor entry pcs of a block ending in ``instrs[-1]``."""
    last = instrs[-1].ops[-1] if instrs and instrs[-1].ops else None
    if last is None or last.name not in _TERMINALS:
        return (next_pc,)
    if last.name == "brcond":
        _a, _b, _cond, tgt, fall = last.args
        return (tgt,) if tgt == fall else (tgt, fall)
    if last.name == "jmp":
        return (last.args[0],)
    return ()  # jmp_ind / exit: target unknown or engine takes over


# -- idiom fusion -------------------------------------------------------------

_NEGATE_COND = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "ltu": "geu", "geu": "ltu"}
_ATOMIC_OPS = ("lr", "sc", "cas", "amoadd", "amoswap")


def _branch_on_zero(instr: InstrIR):
    """``(reg, taken_when_nonzero)`` if ``instr`` is beq/bne of a guest
    register against x0, else ``None``."""
    if not instr.ops or instr.ops[-1].name != "brcond":
        return None
    a, b, cond, _tgt, _fall = instr.ops[-1].args
    if cond not in ("eq", "ne"):
        return None
    for reg, zero in ((a, b), (b, a)):
        if zero == ("g", 0) and reg[0] == "g" and reg[1] != 0:
            return reg[1], cond == "ne"
    return None


def _try_fuse_cmp_branch(a: InstrIR, b: InstrIR) -> Optional[InstrIR]:
    """slt/sltu/slti/sltiu + beqz/bnez on its result → one direct brcond.

    The setcond still commits its register (architectural state preserved);
    the branch is rewritten to test the original operands, negating the
    condition for the beqz form.  Not applied when the setcond destination
    is also one of its sources — the rewritten branch would re-read a
    clobbered value.
    """
    if len(a.ops) != 1 or a.ops[0].name != "setcond":
        return None
    d, x, y, cond = a.ops[0].args
    if d[0] != "g" or d[1] == 0 or d in (x, y):
        return None
    bz = _branch_on_zero(b)
    if bz is None or bz[0] != d[1]:
        return None
    _a, _b, _c, tgt, fall = b.ops[-1].args
    newcond = cond if bz[1] else _NEGATE_COND[cond]
    return InstrIR(
        pc=b.pc,
        mnemonic=b.mnemonic,
        ops=[TCGOp("brcond", (x, y, newcond, tgt, fall))],
        can_fault=False,
    )


def _is_atomic_branch(a: InstrIR, b: InstrIR) -> bool:
    """lr/sc/cas/amo + beqz/bnez on its result — the guest-libc spin idiom
    (``rt_spin_lock``/``rt_mutex_lock`` retry loops)."""
    if len(a.ops) != 1 or a.ops[0].name not in _ATOMIC_OPS:
        return False
    d = a.ops[0].args[0]
    if d[0] != "g" or d[1] == 0:
        return False
    bz = _branch_on_zero(b)
    return bz is not None and bz[0] == d[1]


def _is_load_op(a: InstrIR, b: InstrIR) -> bool:
    """Plain load + integer op consuming the loaded register."""
    if len(a.ops) != 2 or a.ops[0].name != "add" or a.ops[1].name != "ld":
        return False
    d = a.ops[1].args[0]
    if d[0] != "g" or d[1] == 0:
        return False
    if len(b.ops) != 1 or b.can_fault:
        return False
    op2 = b.ops[0]
    if op2.name not in _BIN_EXPR and op2.name != "setcond":
        return False
    return d in op2.args[1:3]


def find_fusions(instrs: list[InstrIR]) -> tuple[list[InstrIR], list[tuple[int, str]]]:
    """Peephole over adjacent instruction pairs.

    Returns the (possibly rewritten) instruction list plus the fused
    ``(end_index, pattern)`` groups, non-overlapping and scanned left to
    right.  The instruction count is unchanged — fusion collapses host
    work, not architectural instructions.
    """
    out = list(instrs)
    groups: list[tuple[int, str]] = []
    k = 0
    while k < len(out) - 1:
        a, b = out[k], out[k + 1]
        fused_branch = _try_fuse_cmp_branch(a, b)
        if fused_branch is not None:
            out[k + 1] = fused_branch
            groups.append((k + 1, "cmp_branch"))
            k += 2
            continue
        if _is_atomic_branch(a, b):
            groups.append((k + 1, "atomic_branch"))
            k += 2
            continue
        if _is_load_op(a, b):
            groups.append((k + 1, "load_op"))
            k += 2
            continue
        k += 1
    return out, groups


class Backend:
    """TCG-to-Python compiler.  Stateless: equal IR compiles to equal source."""

    def compile(self, block: BlockIR, *, fusion: bool = False) -> TranslationBlock:
        instrs = block.instrs
        groups: list[tuple[int, str]] = []
        if fusion:
            instrs, groups = find_fusions(instrs)
        em = _Emitter()
        em.body(instrs, groups, 0, None, block.next_pc, set())
        fn, src = em.function(f"tb_{block.pc:x}", f"<tb@{block.pc:#x}>")
        return TranslationBlock(
            pc=block.pc,
            n_insns=len(instrs),
            end_pc=block.next_pc,
            fn=fn,
            source=src,
            succ_pcs=_successors(instrs, block.next_pc),
            pages=_page_span(block.pc, block.next_pc),
            fused=tuple(groups),
            ir=block,
        )

    def compile_superblock(
        self, members: list[BlockIR], *, fusion: bool = False
    ) -> TranslationBlock:
        """Stitch a hot trace of blocks into one generated function.

        One entry (the head's pc); interior terminators that reach the next
        member fall through inside the function, every other outcome is a
        side exit that returns with guest state fully committed.  Float
        shadows carry across member boundaries.  The same block may appear
        more than once (loop traces unroll themselves up to the trace-length
        cap).
        """
        em = _Emitter()
        groups_all: list[tuple[int, str]] = []
        side_exits: set[int] = set()
        pages: set[int] = set()
        base = 0
        last = len(members) - 1
        tail_succs: tuple[int, ...] = ()
        for mi, block in enumerate(members):
            instrs = block.instrs
            groups: list[tuple[int, str]] = []
            if fusion:
                instrs, groups = find_fusions(instrs)
            groups_all.extend((base + end, pat) for end, pat in groups)
            pages.update(_page_span(block.pc, block.next_pc))
            next_entry = members[mi + 1].pc if mi < last else None
            em.lines.append(f"# member {mi}: block {block.pc:#x}")
            em.body(instrs, groups, base, next_entry, block.next_pc, side_exits)
            base += len(instrs)
            if mi == last:
                tail_succs = _successors(instrs, block.next_pc)
        head = members[0]
        fn, src = em.function(f"sb_{head.pc:x}", f"<sb@{head.pc:#x}>")
        return TranslationBlock(
            pc=head.pc,
            n_insns=base,
            end_pc=head.next_pc,
            fn=fn,
            source=src,
            succ_pcs=tuple(sorted(set(tail_succs) | side_exits)),
            pages=tuple(sorted(pages)),
            fused=tuple(groups_all),
            ir=None,
            is_superblock=True,
            member_pcs=tuple(b.pc for b in members),
        )


class _Emitter:
    """Source lines of one generated function, plus the float-shadow state
    that decides where register bits are materialised (module docstring)."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        #: Guest reg → float expression equal to its value: the host local
        #: ``fN`` or a literal.  An ``int`` entry is the bits of a visible
        #: ``mov imm``, turned into one of the two on the first FP read.
        self.shadow: dict[int, str | int] = {}
        #: Guest regs whose ``fN`` is newer than ``R[N]``.
        self.dirty: set[int] = set()
        #: :data:`MEM_VIEW` locals the emitted resident tests read.
        self.views: set[str] = set()

    def function(self, name: str, filename: str) -> tuple[Callable, str]:
        """The emitted lines as a compiled ``name(cpu, mem)`` and its source."""
        entry = ["R = cpu.regs"]
        entry += [f"{v} = mem.{attr}" for v, attr in MEM_VIEW.items() if v in self.views]
        src = f"def {name}(cpu, mem):\n" + "".join(f"    {ln}\n" for ln in entry + self.lines)
        ns: dict = {}
        exec(compile(src, filename, "exec"), _CODEGEN_GLOBALS, ns)
        return ns[name], src

    # -- operands -------------------------------------------------------------

    def ref(self, operand, sub: Optional[dict] = None) -> str:
        """Integer read.  Every integer use of a guest register comes through
        here, so a dirty shadow is committed before its bits are read."""
        if sub is not None and operand in sub:
            return sub[operand]
        kind, v = operand
        if kind == "g":
            if v == 0:
                return "0"
            if v in self.dirty:
                self.lines.append(f"R[{v}] = f2b(f{v})")
                self.dirty.discard(v)
            return f"R[{v}]"
        if kind == "t":
            return f"t{v}"
        return repr(v & M64)

    def target(self, d) -> str:
        """Where an integer write to ``d`` lands; a guest register loses its
        shadow.  The written expression is built (and its reads flushed)
        before this runs, so an instruction that reads and writes the same
        register reads it first."""
        kind, v = d
        if kind == "t":
            return f"t{v}"
        if v == 0:
            return "_"
        self.shadow.pop(v, None)
        self.dirty.discard(v)
        return f"R[{v}]"

    def set(self, d, expr: str) -> None:
        """Integer write ``d = expr``."""
        self.lines.append(f"{self.target(d)} = {expr}")

    def fref(self, operand) -> str:
        """FP read of a guest register: a float expression.  ``b2f`` is
        emitted once, on the first FP read with no shadow."""
        _g, v = operand  # FP micro-ops take guest registers only (tcg.py)
        if v == 0:
            return "0.0"
        expr = self.shadow.get(v)
        if not isinstance(expr, str):
            x = math.nan if expr is None else fpu.b2f(expr)
            if math.isfinite(x):
                expr = repr(x)
            else:  # unknown bits, or inf/NaN (no literal)
                expr = f"f{v}"
                self.lines.append(f"f{v} = b2f(R[{v}])")
            self.shadow[v] = expr
        return expr

    def fset(self, d, expr: str) -> None:
        """FP write: the result stays a host float and ``R[d]`` goes stale."""
        _g, v = d
        if v == 0:
            self.lines.append(f"_ = {expr}")
            return
        self.lines.append(f"f{v} = {expr}")
        self.shadow[v] = f"f{v}"
        self.dirty.add(v)

    # -- materialisation points ---------------------------------------------------

    def _commits(self) -> list[str]:
        return [f"R[{n}] = f2b(f{n})" for n in sorted(self.dirty)]

    def flush(self) -> None:
        """Commit every dirty shadow (the floats stay valid for later reads)."""
        if self.dirty:
            self.lines.extend(self._commits())
            self.dirty.clear()

    def leave(self, rc: int = 0, *, unless: Optional[int] = None) -> None:
        """Return to the engine with ``cpu.regs`` exact.  With ``unless`` (a
        superblock's next member) the return is a side exit taken only when
        ``cpu.pc`` went elsewhere; the trace continues with its shadows."""
        if unless is None:
            self.flush()
            self.lines.append(f"return {rc}")
        else:
            self.lines.append(f"if cpu.pc != {unless}:")
            self.lines.extend("    " + ln for ln in self._commits())
            self.lines.append("    return 0")

    # -- emission -------------------------------------------------------------

    def body(
        self,
        instrs: list[InstrIR],
        groups: list[tuple[int, str]],
        base: int,
        next_entry: Optional[int],
        next_pc: int,
        side_exits: set[int],
    ) -> None:
        """Emit ``instrs`` with cumulative instruction indices from ``base``.

        ``next_entry`` is the pc the enclosing superblock continues into
        (``None`` for a standalone block or the trace tail): terminators
        that reach it fall through to the member emitted next, anything
        else returns.  Off-trace targets are collected into ``side_exits``.
        """
        lines = self.lines
        end_ic = base + len(instrs)
        load_starts = {end - 1 for end, pat in groups if pat == "load_op"}
        skip: set[int] = set()
        terminated = False
        for j, ir in enumerate(instrs):
            if j in skip:
                continue
            k = base + j
            lines.append(f"# {ir.pc:#x}: {ir.mnemonic}")
            if ir.can_fault:
                # Precise exception point: exact registers, pc and
                # completed-instruction count.
                self.flush()
                lines.append(f"cpu.pc = {ir.pc}")
                lines.append(f"cpu.block_ic = {k}")
            if j in load_starts:
                self.load_op(ir, instrs[j + 1])
                skip.add(j + 1)
                continue
            for op in ir.ops:
                if op.name in _TERMINALS:
                    self.terminal(op, ir, k, end_ic, next_entry, side_exits)
                    terminated = True
                else:
                    self.simple(op)
        if not terminated and (next_entry is None or next_pc != next_entry):
            lines.append(f"cpu.block_ic = {end_ic}")
            lines.append(f"cpu.pc = {next_pc}")
            self.leave()

    def load_op(self, ld_ir: InstrIR, op_ir: InstrIR) -> None:
        """Fused load+op: one combined sequence, the consumer reading the
        loaded value from a host local instead of re-reading the register
        file.  The load still commits its register first, so a later fault
        observes precise state."""
        add_op, ld_op = ld_ir.ops
        d, addr, size, signed = ld_op.args
        self.simple(add_op)
        self.load("_v", self.ref(addr), size, signed)
        self.set(d, "_v")
        self.lines.append(f"# {op_ir.pc:#x}: {op_ir.mnemonic} (fused)")
        self.simple(op_ir.ops[0], sub={d: "_v"})

    # -- memory: resident test inline, the method as miss arm (module docstring)

    def locate(self, a: str, size: int) -> tuple[str, str]:
        """Bind ``p`` to the page of address ``a``; returns the page-offset
        expression and the hit test's span term (none for one byte)."""
        self.lines.append(f"p = {a} >> {PAGE_SHIFT}")
        if size == 1:
            return f"{a} & {PAGE_SIZE - 1}", ""
        self.lines.append(f"o = {a} & {PAGE_SIZE - 1}")
        return "o", f"o > {PAGE_SIZE - size} or "

    def load(self, target: str, a: str, size: int, signed: bool) -> None:
        """``target = <size bytes at a>``: hit iff nothing is split, the
        span stays inside the page and the page has a state."""
        self.views.update("SBX")
        o, spans = self.locate(a, size)
        if size == 1:
            hit = f"(B[p][{o}] ^ 128) - 128 & M" if signed else f"B[p][{o}]"
        elif signed and size < 8:
            hit = f'ifb(B[p][o:o + {size}], "little", signed=True) & M'
        else:
            hit = f'ifb(B[p][o:o + {size}], "little")'
        self.lines.append(
            f"{target} = mem.load({a}, {size}, {signed}) if X or {spans}p not in S else {hit}"
        )

    def store(self, a: str, size: int, v: str) -> None:
        """``<size bytes at a> = v``: hit iff additionally no reservation is
        armed and the page is Modified."""
        self.views.update("SBXA")
        o, spans = self.locate(a, size)
        if size == 1:
            hit = f"B[p][{o}] = {v} & 255"
        else:
            # Registers and temps are held masked, so 8 bytes need no mask.
            low = v if size == 8 else f"{v} & {(1 << 8 * size) - 1}"
            hit = f'B[p][o:o + {size}] = itb({low}, {size}, "little")'
        self.lines.append(f"if X or A or {spans}S.get(p) is not W: mem.store({a}, {size}, {v})")
        self.lines.append(f"else: {hit}")

    def terminal(
        self,
        op: TCGOp,
        ir: InstrIR,
        k: int,
        end_ic: int,
        next_entry: Optional[int],
        side_exits: set[int],
    ) -> None:
        name = op.name
        lines = self.lines
        if name == "brcond":
            a, b, cond, tgt, fall = op.args
            expr = _COND_EXPR[cond].format(a=self.ref(a), b=self.ref(b))
            lines.append(f"cpu.block_ic = {end_ic}")
            lines.append(f"cpu.pc = {tgt} if {expr} else {fall}")
            if next_entry is not None:
                side_exits.update(x for x in (tgt, fall) if x != next_entry)
            self.leave(unless=next_entry)
        elif name == "jmp":
            (tgt,) = op.args
            lines.append(f"cpu.block_ic = {end_ic}")
            lines.append(f"cpu.pc = {tgt}")
            if next_entry is None or tgt != next_entry:
                if next_entry is not None:
                    side_exits.add(tgt)
                self.leave()
        elif name == "jmp_ind":
            (addr,) = op.args
            lines.append(f"cpu.block_ic = {end_ic}")
            lines.append(f"cpu.pc = {self.ref(addr)}")
            self.leave(unless=next_entry)
        else:  # exit: ecall/ebreak hand control to the engine unconditionally.
            (rc,) = op.args
            lines.append(f"cpu.block_ic = {k + 1}")
            lines.append(f"cpu.pc = {ir.pc + 4}")
            self.leave(rc)

    def simple(self, op: TCGOp, sub: Optional[dict] = None) -> None:
        name = op.name
        ref = self.ref
        if name in _BIN_EXPR:
            d, a, b = op.args
            if name == "add" and b[0] == "i" and (b[1] == 0 or a == ("g", 0)):
                # ``x + 0`` (zero-displacement address, ``mv``) and ``0 + imm``
                # (``li``): registers, temps and immediates are held masked.
                self.set(d, ref(a, sub) if b[1] == 0 else ref(b))
            else:
                self.set(d, _BIN_EXPR[name].format(a=ref(a, sub), b=ref(b, sub)))
        elif name == "mov":
            d, s = op.args
            self.set(d, ref(s, sub))
            if d[0] == "g" and d[1] != 0 and s[0] == "i":
                self.shadow[d[1]] = s[1] & M64
        elif name == "setcond":
            d, a, b, cond = op.args
            expr = _COND_EXPR[cond].format(a=ref(a, sub), b=ref(b, sub))
            self.set(d, f"1 if {expr} else 0")
        elif name == "fbin":
            d, a, b, f = op.args
            self.fset(d, _FBIN_EXPR[f].format(a=self.fref(a), b=self.fref(b)))
        elif name == "fun":
            d, a, f = op.args
            if f == "fsqrt":
                self.fset(d, f"fsqrt_h({self.fref(a)})")
            elif f == "fcvt_d_l":
                self.fset(d, f"l2d({ref(a)})")
            else:  # fcvt_l_d: float in, integer bits out
                self.set(d, f"d2l({self.fref(a)})")
        elif name == "fsetcond":
            d, a, b, cond = op.args
            expr = _FSET_EXPR[cond].format(a=self.fref(a), b=self.fref(b))
            self.set(d, f"1 if {expr} else 0")
        elif name == "ld":
            d, addr, size, signed = op.args
            a = ref(addr)  # read (and flush) before the target drops its shadow
            self.load(self.target(d), a, size, signed)
        elif name == "st":
            val, addr, size = op.args
            self.store(ref(addr), size, ref(val))
        elif name == "lr":
            d, addr = op.args
            self.set(d, f"mem.load_reserved(cpu, {ref(addr)})")
        elif name == "sc":
            d, val, addr = op.args
            self.set(d, f"0 if mem.store_conditional(cpu, {ref(addr)}, {ref(val)}) else 1")
        elif name == "cas":
            d, exp, val, addr = op.args
            self.set(d, f"mem.atomic_cas(cpu, {ref(addr)}, {ref(exp)}, {ref(val)})")
        elif name in ("amoadd", "amoswap"):
            d, val, addr = op.args
            fn = "atomic_add" if name == "amoadd" else "atomic_swap"
            self.set(d, f"mem.{fn}(cpu, {ref(addr)}, {ref(val)})")
        elif name == "hint":
            (value,) = op.args
            self.lines.append(f"cpu.hint_group = {value}")
        elif name == "hint_reg":
            (src,) = op.args
            self.lines.append(f"cpu.hint_group = {ref(src)}")
        elif name == "fence":
            self.lines.append("pass  # fence: sequential across nodes by construction")
        else:  # pragma: no cover
            raise NotImplementedError(f"backend cannot emit {name}")
