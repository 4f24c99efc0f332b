"""DBT backend: compile TCG micro-ops into host code.

The "host" here is the CPython VM: each translation block becomes one
generated Python function, built as source text and compiled with
``compile()`` — the same generate-once/execute-many structure as a JIT
emitting machine code, with the translation cost paid once per block.

Precise guest state.  One shadow rule covers every guest register: inside a
generated function its newest value may live in a host local — the integer
``rN``, or the float ``fN`` — and ``R[N]`` (``cpu.regs``) be stale; such a
register is *dirty*, and it is *committed*, ``R[N] = rN`` resp. ``R[N] =
<bits of fN>``, only at an *observation point*, where something outside the
function (fault handler, migration and evacuation, the next block) can read
``cpu.regs``: the miss arm of every plain access, before every atomic and on
every ``return``; elsewhere only a loop's back edge does ("Loop residency").
So the register file is exact whenever it is read, as QEMU's TCG syncs its host
registers only at helpers that may read them and at block exits.  Wherever an
instruction can fault, the generated code also records its pc and the count of
completed instructions (``cpu.block_ic``).  A plain
``ld``/``st`` can only fault in its miss arm, so that bookkeeping lives *in the
miss arm* and a resident access pays none of it (the miss arm does not clear
the emitter's ``dirty`` set: the hit path commits nothing); an atomic always
leaves the function and keeps its bookkeeping up front.  A
:class:`~repro.mem.api.PageStall` raised by the memory system therefore
propagates with the CPU stopped exactly at the faulting instruction, which
DQEMU's coherence machinery requires (§4.2).

Known values.  The emitter tracks what it knows about each guest register
while it emits: an integer write is ``r28 = (r5 + r6) & M``, and every later
integer read of that register in the function is the host local ``rN`` (a
register first met as a read is bound there, ``r6 = R[6]``).  A visible ``mov
imm`` / ``li`` is remembered as a constant and folds into its consumers: into
arithmetic (``(r18 + 8) & M``; a negative step subtracts its magnitude so
small operands stay one-digit ints), into shift amounts, and into signed
order, which makes no call — against a constant one unsigned range test
(``a < c or a >= 2**63``), otherwise the unsigned order flipped when the signs
differ (``(a < b) == ((a ^ b) < 2**63)``).  A temp that merely copies a value
(``add t0, rs1, 0``) is no statement at all: it stands for the local it
copies, and is given a statement of its own only if that local is about to be
reassigned while the temp is still live.

Float shadow.  An FP value is a Python ``float`` in ``fN``; an FP write forgets
the integer local, and an integer read of a register whose float is newer
binds its bits, ``rN = <bits of fN>``, and the register stays dirty.  An
8-byte store of it makes no integer: the hit arm packs the float (``pd``; a
NaN as the canonical bits, through ``p8``), the miss arm passes the ``R[N]``
its fault point committed.  An FP read with no shadow binds ``fN`` from the
newest copy of the bits, ``rN`` where that is known, else ``R[N]``.
Conversions are inline: the templates of :mod:`repro.dbt.fpu` over
``struct``'s C accessors, which also inline the common case of division,
square root and min/max against a literal; a helper runs only as an edge
case's slow arm, or for min/max of two unknown operands.  An FP op into ``x0``
emits nothing: GA64 has no FP flags or rounding state.

Resident fast path.  Every ``ld``/``st`` micro-op is emitted as the memory's
hit test inline plus the out-of-line method as its miss arm — QEMU's softmmu
TLB check, with the containers of :class:`~repro.mem.api.MemoryAPI`'s
resident-access view in the TLB's place.  A load is served by indexing the
page's ``bytearray`` iff nothing is split, the span stays inside the page and
the page has a state; a store iff additionally no reservation is armed and the
state is Modified — exactly when ``DSMMemory.load``/``store`` would neither
enter ``_resolve`` nor call ``kill_store``.  A one-byte hit is an index; 2, 4
and 8 bytes go through the ``unpack_from`` / ``pack_into`` accessors of
:mod:`repro.mem.flat` (the same table ``FlatMemory`` uses), held in the codegen
globals.  Anything else calls ``mem.miss_load`` / ``mem.miss_store`` — the
method, except that a page stall comes back as a value and the function
returns ``RC_STALL`` (the stall in ``mem.stall``) instead of unwinding a
``raise`` — after the miss arm has committed the dirty registers, pc and
``block_ic``, so stalls, faults and silent upgrades behave as if every access were
the call.  The containers are read from the ``mem`` argument at function
entry (:data:`MEM_VIEW`), never bound at compile time: a block serves
whichever memory it is run against.

A page is tested once per call, not once per access, where the function is a
plain block that loops and its body has no atomic: each access site keeps the
page its last hit of the full test verified, and that page's buffer, in loop
locals (``vpK``/``vbK``; the pre-header sets ``vpK`` to no page).  An access to
that page, its span inside it, indexes the buffer without a test; any other
runs the full test and, on a hit, verifies its page in turn, and a miss takes
the miss arm as ever.  A store site verifies only for writing (Modified, no
reservation armed); sites never share a page, so a load that verified a Shared
page leaves the store after it to miss.  A verification holds for the rest of
the call because nothing a test reads can change meanwhile: no other process
runs while a generated function does; ``page_states``, ``page_bufs`` and
``split_pages`` change only in coherence handlers, which run between calls;
``reservations`` gains an entry only through an atomic, and the body has none;
and a miss arm that goes on in place (a split page, or a store that kills a
reservation) changes no state and arms nothing, or, in private memory, where
every page is Modified, adds a page.  A site whose address is a register the
body never writes binds its page and offset (``hpK``/``hoK``) once, in the
pre-header.  A superblock keeps the full test at every access.

Loop residency.  Every generated function is ``fn(cpu, mem, n)``.  One whose
static successors include its own entry pc — a plain block branching to
itself, a superblock whose tail can branch to its head — is emitted as a
loop: a *pre-header* binds, once, every register whose first access in the
body is a read (``rN = R[N]`` for integer reads, ``fN`` from the bits for FP
reads: the value there is the value on entry), then the body runs inside ``for
i in range(n):``.  At the tail sits the *back edge*, ``if not (<the branch
re-enters>): break``, then what makes the next trip find the loop head as the
pre-header left it, and after the loop the one exit.  ``n`` is the engine's
allowance, the number of entries this call may make; a function that does not
loop never reads it.  The shadow rule crosses the back edge:

* an integer dirty there stays dirty across it, its ``rN`` carried into the
  next trip.  Every observation point a trip makes before its first write of
  that register commits it, and the pre-header binds it, so that trip 1's
  commit rewrites the value on entry.  Only a register the pre-header bound as
  a float (a float pin) is committed at the back edge, which re-binds its
  ``fN`` from ``R[N]``;
* a dirty float is committed there only if the next trip can observe it.  It
  cannot if the body writes its register before reading it and before the
  first observation point; such a register is found while the body is
  emitted, as the pre-header is (``_Emitter.dead``), and the next trip
  overwrites it unseen;
* a float pin still shadowed by ``fN`` and first written before every
  observation point of the body (an accumulator stored each trip) stays dirty
  across it too.  A pin written later is committed: for its earlier points to
  commit it, trip 1 would commit the bits of the ``fN`` bound on entry,
  canonicalising a NaN;
* a pinned local the body left stale is re-bound.

A verified page ("Resident fast path") crosses the back edge too, in its
site's locals: it holds until the function returns.

Every way out of a looping function reports through ``cpu.block_runs``: a
return (the exit, or a superblock's side exit) sets it to ``i + 1``, the
entries made, with the last one's instruction count in ``cpu.block_ic`` as
ever; a fault point sets it to ``i``, the complete entries before the faulting
one, next to ``cpu.pc``/``block_ic``.  Whether a function loops is read off
its own successors (``TranslationBlock.loops``); there is no second emitter.

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
  each fused pair billed as one instruction by the engine.  (A fused
  load+op needs no emission of its own: the consumer reads the loaded
  register's local like any other known value.)

Fusion never changes architectural state: every guest register write still
happens, and fused pairs are only formed when no precise-exception point
can observe the intermediate value.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass
from struct import Struct
from types import MappingProxyType
from typing import Callable, ClassVar, Optional

from repro.dbt import fpu
from repro.dbt import runtime as rt
from repro.dbt.frontend import BlockIR, Frontend
from repro.dbt.stop import RC_STALL
from repro.dbt.tcg import TERMINALS, InstrIR, TCGOp
from repro.mem.flat import PACK, UNPACK
from repro.mem.layout import PAGE_SHIFT, PAGE_SIZE
from repro.mem.msi import MSIState

__all__ = ["TranslationBlock", "Backend", "find_fusions", "MEM_VIEW"]

M64 = rt.M64
SIGN = 1 << 63

#: Host local → the :class:`~repro.mem.api.MemoryAPI` container it aliases.
#: A generated function that touches memory binds the ones it tests at entry,
#: from its ``mem`` argument (module docstring, "Resident fast path").
MEM_VIEW = {"S": "page_states", "B": "page_bufs", "X": "split_pages", "A": "reservations"}
#: A :data:`MEM_VIEW` local read by an emitted line; a comment matches with
#: the group empty, so its text is skipped.
_VIEW_READ = re.compile(r"#.*|\b([" + "".join(MEM_VIEW) + r"])\b")

#: An observation point's mark in a loop body, followed by its number; the back
#: edge replaces it with the commits of the integers it carries.
_CARRY = "#carry "

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
    **fpu.CODEGEN,
    "W": MSIState.MODIFIED,
    # The wide accessors of ``repro.mem.flat``: ``u8``/``u4``/``u2`` read
    # unsigned, ``s4``/``s2`` signed, ``p8``/``p4``/``p2`` write.
    **{f"{'s' if signed else 'u'}{size}": unpack for (size, signed), unpack in UNPACK.items()},
    **{f"p{size}": pack for size, pack in PACK.items()},
    # A host float's 8 bytes (``_Emitter.store``).
    "pd": Struct("<d").pack_into,
}

#: Conditions that are one host comparison; signed order is
#: :meth:`_Emitter.cond`'s.
_COND_EXPR = {"eq": "{a} == {b}", "ne": "{a} != {b}", "ltu": "{a} < {b}", "geu": "{a} >= {b}"}

#: FP ops over host floats: operands and result are float expressions.
_FBIN_EXPR = {
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": fpu.FDIV,
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
    "shl": "({a} << {b}) & M",  # the amount arrives reduced mod 64
    "shr": "{a} >> {b}",
    "sar": "(s64({a}) >> {b}) & M",
    "mul": "({a} * {b}) & M",
    "mulh": "mulh64({a}, {b})",
    "mulhu": "mulhu64({a}, {b})",
    "div": "sdiv64({a}, {b})",
    "divu": "udiv64({a}, {b})",
    "rem": "srem64({a}, {b})",
    "remu": "urem64({a}, {b})",
}


@dataclass(eq=False)
class TranslationBlock:
    """A compiled block: guest extent, host function, and the guest words it
    was compiled from.

    ``eq=False`` keeps object-identity hashing so blocks can sit in the
    chain-backlink sets the code cache maintains for unchaining.

    The translation (every field down to ``loops``) is a function of the
    guest words alone and is never written after ``compile``; the fields
    below it are one engine's execution state.  :meth:`fresh` gives an engine
    its own block over a translation made for any other.  What translation
    makes on the way — IR, source text — is not kept: lowering is a pure
    function of ``words``, and :attr:`source` emits the text again from them.
    """

    pc: int
    n_insns: int
    end_pc: int  # first byte past the last guest instruction
    fn: Callable
    #: What it was compiled from, and with the fusion flag its memo key: the
    #: block's instruction words, or a superblock's members' ``(pc, words)``.
    words: tuple = ()
    #: Statically-known successor entry pcs (empty for indirect jumps).
    succ_pcs: tuple[int, ...] = ()
    #: Guest pages this block's code spans (union over members for
    #: superblocks) — the invalidation index key set.
    pages: tuple[int, ...] = ()
    #: Fused idiom groups: ``(end_index, pattern)`` where ``end_index`` is
    #: the cumulative index of the pair's second instruction.  A group whose
    #: second instruction completed is billed as one host operation.
    fused: tuple[tuple[int, str], ...] = ()
    is_superblock: bool = False
    member_pcs: tuple[int, ...] = ()
    #: ``(pattern, groups of it in fused)``: what one complete entry adds to
    #: the engine's per-pattern hit counters, without walking ``fused``.
    fused_counts: tuple[tuple[str, int], ...] = ()
    #: The function re-enters itself: its static successors include ``pc``, so
    #: ``fn`` was emitted as a loop and honours its allowance argument.
    loops: bool = False
    exec_count: int = 0
    #: Latched when trace formation from this head failed; stops retrying.
    no_promote: bool = False

    # Execution containers.  Only :meth:`fresh` gives a block its own; a
    # translation as compiled (a memo template, which never runs) reads these
    # shared empty ones, and mutating them fails.
    #: Direct successor references (pc → block), filled by the code cache.
    chain: ClassVar[Mapping[int, "TranslationBlock"]] = MappingProxyType({})
    #: Blocks holding a chain reference to this one (for unchaining).
    chained_from: ClassVar[AbstractSet["TranslationBlock"]] = frozenset()
    #: Dynamic successor execution counts, recorded by the engine and used
    #: to pick the hottest path when growing a trace.
    edges: ClassVar[Mapping[int, int]] = MappingProxyType({})

    def fresh(self) -> "TranslationBlock":
        """A block sharing this one's translation, with execution state of
        its own: never run, chained to nothing."""
        tb = TranslationBlock(
            pc=self.pc, n_insns=self.n_insns, end_pc=self.end_pc, fn=self.fn,
            words=self.words, succ_pcs=self.succ_pcs, pages=self.pages, fused=self.fused,
            is_superblock=self.is_superblock, member_pcs=self.member_pcs,
            fused_counts=self.fused_counts, loops=self.loops,
        )
        tb.chain, tb.chained_from, tb.edges = {}, set(), {}
        return tb

    @property
    def source(self) -> str:
        """The text of ``fn``, emitted again from ``words`` (diagnostics and
        tests; execution never reads it).  It was compiled with fusion iff a
        group fused: with none, fusion rewrites no instruction."""
        fusion = bool(self.fused)
        if self.is_superblock:
            members = [Frontend.lower_block(pc, words) for pc, words in self.words]
            em, _ = _emit_superblock(members, fusion)
        else:
            em, _ = _emit_block(Frontend.lower_block(self.pc, self.words), fusion)
        return em.text()


def _page_span(pc: int, end_pc: int) -> tuple[int, ...]:
    return tuple(range(pc // PAGE_SIZE, max(end_pc - 1, pc) // PAGE_SIZE + 1))


def _successors(instrs: list[InstrIR], next_pc: int) -> tuple[int, ...]:
    """Static successor entry pcs of a block ending in ``instrs[-1]``."""
    last = instrs[-1].ops[-1] if instrs and instrs[-1].ops else None
    if last is None or last.name not in TERMINALS:
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
#: Micro-ops whose first operand is not a register they write.
_NO_DEST = TERMINALS | {"st", "hint", "hint_reg", "fence"}


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


def _fused(block: BlockIR, fusion: bool) -> tuple[list[InstrIR], list[tuple[int, str]]]:
    return find_fusions(block.instrs) if fusion else (block.instrs, [])


class Backend:
    """TCG-to-Python compiler.  Stateless: equal IR compiles to equal source."""

    def compile(self, block: BlockIR, *, fusion: bool = False) -> TranslationBlock:
        em, fields = _emit_block(block, fusion)
        return TranslationBlock(fn=em.function(), **fields)

    def compile_superblock(
        self, members: list[BlockIR], *, fusion: bool = False
    ) -> TranslationBlock:
        """Stitch a hot trace of blocks into one generated function.

        One entry (the head's pc); interior terminators that reach the next
        member fall through inside the function, every other outcome is a
        side exit that returns with guest state fully committed.  Float
        shadows and known integer values carry across member boundaries.  The
        same block may appear more than once (loop traces unroll themselves
        up to the trace-length cap), and a tail that can branch to the head
        makes the whole trace loop in place.
        """
        em, fields = _emit_superblock(members, fusion)
        return TranslationBlock(fn=em.function(), **fields)


def _emit_block(block: BlockIR, fusion: bool) -> tuple["_Emitter", dict]:
    """The emitted (not yet compiled) function of ``block``, and the fields
    of its :class:`TranslationBlock` but ``fn``."""
    instrs, groups = _fused(block, fusion)
    succ_pcs = _successors(instrs, block.next_pc)
    loops = block.pc in succ_pcs
    em = _Emitter("tb", block.pc, loops, _loop_writes(instrs) if loops else None)
    em.body(instrs, 0, None, block.next_pc, set())
    return em, dict(
        pc=block.pc,
        n_insns=len(instrs),
        end_pc=block.next_pc,
        words=block.words,
        succ_pcs=succ_pcs,
        pages=_page_span(block.pc, block.next_pc),
        fused=tuple(groups),
        fused_counts=_pattern_counts(groups),
        loops=loops,
    )


def _emit_superblock(members: list[BlockIR], fusion: bool) -> tuple["_Emitter", dict]:
    """:func:`_emit_block` for a trace (:meth:`Backend.compile_superblock`)."""
    head = members[0]
    fused = [_fused(block, fusion) for block in members]
    tail_succs = _successors(fused[-1][0], members[-1].next_pc)
    loops = head.pc in tail_succs
    em = _Emitter("sb", head.pc, loops)
    groups_all: list[tuple[int, str]] = []
    side_exits: set[int] = set()
    pages: set[int] = set()
    base = 0
    for mi, (block, (instrs, groups)) in enumerate(zip(members, fused)):
        groups_all.extend((base + end, pat) for end, pat in groups)
        pages.update(_page_span(block.pc, block.next_pc))
        next_entry = members[mi + 1].pc if mi + 1 < len(members) else None
        em.lines.append(f"# member {mi}: block {block.pc:#x}")
        em.body(instrs, base, next_entry, block.next_pc, side_exits)
        base += len(instrs)
    return em, dict(
        pc=head.pc,
        n_insns=base,
        end_pc=head.next_pc,
        words=tuple((block.pc, block.words) for block in members),
        succ_pcs=tuple(sorted(set(tail_succs) | side_exits)),
        pages=tuple(sorted(pages)),
        fused=tuple(groups_all),
        is_superblock=True,
        member_pcs=tuple(block.pc for block in members),
        fused_counts=_pattern_counts(groups_all),
        loops=loops,
    )


def _loop_writes(instrs: list[InstrIR]) -> Optional[frozenset[int]]:
    """The guest registers a loop body writes, if its access sites may verify
    their pages (module docstring, "Resident fast path"): it has no atomic."""
    ops = [op for ir in instrs for op in ir.ops]
    if any(op.name in _ATOMIC_OPS for op in ops):
        return None
    return frozenset(
        op.args[0][1] for op in ops if op.name not in _NO_DEST and op.args[0][0] == "g"
    )


def _pattern_counts(groups: list[tuple[int, str]]) -> tuple[tuple[str, int], ...]:
    return tuple(Counter(pattern for _end, pattern in groups).items())


def _text(value: "int | str") -> str:
    return value if isinstance(value, str) else repr(value)


def _bits(v: int) -> str:
    """The register bits of the float shadow ``fN`` of guest register ``v``."""
    return fpu.F2B.format(x=f"f{v}")


def _unbits(x: str) -> str:
    """The float whose bits the integer expression ``x`` holds."""
    return fpu.B2F.format(x=x)


def _fbin(f: str, a: str, b: str) -> str:
    """``a <f> b`` over float expressions: min/max against a literal is a
    conditional expression, two unknown operands call the helper."""
    if f in ("fmin", "fmax"):
        inline = fpu.fmin_const if f == "fmin" else fpu.fmax_const
        for v, c in ((a, b), (b, a)):
            if c[0] != "f":  # a literal (``fref`` makes them of finite values only)
                return inline(v, float(c))
    return _FBIN_EXPR[f].format(a=a, b=b)


class _Emitter:
    """Source lines of one generated function, plus what is known while they
    are emitted: which host local or constant holds which guest register's
    value ("Known values", "Float shadow"), which registers the register file
    holds stale ("Precise guest state"), and — for a function that loops —
    what its pre-header binds and its back edge carries ("Loop residency";
    module docstring for all four)."""

    def __init__(
        self, kind: str, pc: int, loops: bool, writes: Optional[frozenset[int]] = None
    ) -> None:
        #: ``tb_<pc>`` resp. ``sb_<pc>``, compiled as if from ``<tb@0x<pc>>``.
        self.name = f"{kind}_{pc:x}"
        self.filename = f"<{kind}@{pc:#x}>"
        #: The entry pc when the function's own exit can re-enter it (it is
        #: then emitted as a loop), else ``None``.
        self.head = pc if loops else None
        self.lines: list[str] = []
        #: Bindings made once, before the loop: registers whose first access
        #: in the body is a read (so their value there is their value on entry).
        self.pre: list[str] = []
        #: Guest regs the loop head finds bound: ``rN`` resp. ``fN``.
        self.pins: set[int] = set()
        self.fpins: set[int] = set()
        #: Guest reg written so far → the observation points (:meth:`_commits`)
        #: the loop body made before its first write (a loop's pre-header
        #: binds none of them).
        self.written: dict[int, int] = {}
        #: Observation points made so far in a loop's body.
        self.points = 0
        #: Where a looping function's body ends: the lines after it are its
        #: one exit, after the loop.
        self.loop_end: Optional[int] = None
        #: Guest regs whose host local ``rN`` holds their value.
        self.local: set[int] = set()
        #: Guest reg → the value a visible ``mov imm`` / ``li`` gave it.
        self.const: dict[int, int] = {}
        #: Temp → its value: a constant, the name of the local it copies (no
        #: statement was emitted for it), or its own ``tN``.
        self.temps: dict[int, "int | str"] = {}
        #: Guest reg → float expression equal to its value: the host local
        #: ``fN`` or a literal.  An ``int`` entry is the bits of a visible
        #: ``mov imm``, turned into one of the two on the first FP read.
        self.shadow: dict[int, str | int] = {}
        #: Guest regs whose ``R[N]`` is stale: their value is in ``rN`` (in
        #: ``local``) or else in the float shadow ``fN``.
        self.dirty: set[int] = set()
        #: Guest regs written before they are read, and before the first point
        #: where anything outside the function can read ``cpu.regs``; fixed
        #: there (``None`` until then), and exact only in a loop, whose
        #: pre-header pins every register read first.  The back edge leaves
        #: their shadows uncommitted: the next trip overwrites them unseen.
        self.dead: Optional[set[int]] = None
        #: :data:`MEM_VIEW` locals the emitted resident tests read.
        self.views: set[str] = set()
        #: In a loop whose access sites verify their pages ("Resident fast
        #: path"), every guest reg its body writes; else ``None``.
        self.writes = writes
        #: Verifying access sites emitted so far; site ``K`` keeps its page in
        #: ``vpK`` and that page's buffer in ``vbK``.
        self.sites = 0

    def text(self) -> str:
        """The emitted lines as the source of ``name(cpu, mem, n)``; only a
        looping function reads ``n``, its allowance."""
        entry = ["R = cpu.regs"]
        entry += [f"{v} = mem.{attr}" for v, attr in MEM_VIEW.items() if v in self.views]
        body = self.lines
        # Every view local the lines read is bound at entry, once: the
        # containers are never rebound, so the binding stays the container.
        read = set(_VIEW_READ.findall("\n".join(body))) - {""}
        assert read <= self.views, read - self.views
        if self.head is not None:
            entry += self.pre + ["for i in range(n):"]
            body = ["    " + ln for ln in body[:self.loop_end]] + body[self.loop_end:]
        return f"def {self.name}(cpu, mem, n):\n" + "".join(f"    {ln}\n" for ln in entry + body)

    def function(self) -> Callable:
        """:meth:`text`, compiled; the text is not kept."""
        ns: dict = {}
        exec(compile(self.text(), self.filename, "exec"), _CODEGEN_GLOBALS, ns)
        return ns[self.name]

    # -- operands -------------------------------------------------------------

    def bind(self, v: int, line: str, pinned: set[int]) -> None:
        """First read of guest register ``v`` with nothing known about it:
        ``line`` loads its host local — in the pre-header, once, when the
        function loops and nothing in its body has written ``v`` yet."""
        if self.head is not None and v not in self.written:
            self.pre.append(line)
            pinned.add(v)
        else:
            self.lines.append(line)

    def keep(self, name: str) -> None:
        """``name`` is about to be assigned: a temp that stands for its
        current value gets a statement of its own first."""
        for k, value in self.temps.items():
            if value == name and name != f"t{k}":
                self.lines.append(f"t{k} = {name}")
                self.temps[k] = f"t{k}"

    def val(self, operand) -> "int | str":
        """Integer read: a constant, or the host local holding the value.
        Every integer use of a guest register comes through here, so a float
        shadow newer than the register file has its bits bound to ``rN``
        first; ``R[N]`` stays stale, and the register dirty, until the next
        observation point commits ``rN``."""
        kind, v = operand
        if kind == "i":
            return v & M64
        if kind == "t":
            return self.temps[v]
        if v == 0:
            return 0
        if v in self.const:
            return self.const[v]
        if v not in self.local:
            if v in self.dirty:
                self.keep(f"r{v}")
                self.lines.append(f"r{v} = {_bits(v)}")
            else:
                if v in self.written:
                    self.keep(f"r{v}")
                self.bind(v, f"r{v} = R[{v}]", self.pins)
            self.local.add(v)
        return f"r{v}"

    def newest_float(self, operand) -> Optional[str]:
        """``fN`` if the operand's newest value is only its float shadow."""
        kind, v = operand
        if kind == "g" and v in self.dirty and v not in self.local:
            return f"f{v}"
        return None

    def ref(self, operand) -> str:
        return _text(self.val(operand))

    def target(self, d) -> str:
        """Where an integer write to ``d`` lands: a guest register's host
        local ``rN``, which makes ``R[N]`` stale until the next observation
        point commits it, and drops its float shadow.  The written expression
        is built (and its reads flushed) before this runs, so an instruction
        that reads and writes the same register reads it first."""
        kind, v = d
        if kind == "t":
            self.keep(f"t{v}")
            self.temps[v] = f"t{v}"
            return f"t{v}"
        if v == 0:
            return "_"
        self.keep(f"r{v}")
        self.shadow.pop(v, None)
        self.const.pop(v, None)
        self.dirty.add(v)
        self.written.setdefault(v, self.points)
        self.local.add(v)
        return f"r{v}"

    def set(self, d, expr: str) -> None:
        """Integer write ``d = expr``."""
        self.lines.append(f"{self.target(d)} = {expr}")

    def move(self, d, value: "int | str") -> None:
        """``d = value`` with no arithmetic (``mov``, ``li``, ``mv``, a
        zero-displacement address): a temp just stands for the value, a
        guest register remembers a constant for its consumers."""
        kind, v = d
        if kind == "t":
            self.keep(f"t{v}")
            self.temps[v] = value
            return
        self.set(d, _text(value))
        if v and isinstance(value, int):
            self.const[v] = self.shadow[v] = value

    def fref(self, operand) -> str:
        """FP read of a guest register: a float expression, the local ``fN``
        or a literal of a finite value.  The bits are reinterpreted once, on
        the first FP read with no shadow."""
        _g, v = operand  # FP micro-ops take guest registers only (tcg.py)
        if v == 0:
            return "0.0"
        expr = self.shadow.get(v)
        if not isinstance(expr, str):
            x = math.nan if expr is None else fpu.b2f(expr)
            if math.isfinite(x):
                expr = repr(x)
            else:  # unknown bits, or inf/NaN (no literal): from the newest copy
                expr = f"f{v}"
                self.bind(v, f"f{v} = {_unbits(f'r{v}' if v in self.local else f'R[{v}]')}",
                          self.fpins)
            self.shadow[v] = expr
        return expr

    def fset(self, d, expr: str) -> None:
        """FP write: the result stays a host float, ``R[d]`` goes stale and
        the integer local is forgotten with it."""
        _g, v = d
        self.lines.append(f"f{v} = {expr}")
        self.shadow[v] = f"f{v}"
        self.dirty.add(v)
        self.written.setdefault(v, self.points)
        self.local.discard(v)
        self.const.pop(v, None)

    def cond(self, cond: str, a: "int | str", b: "int | str") -> str:
        """Host expression of ``a <cond> b`` over register values held
        unsigned.  Signed order makes no call: against a constant it is one
        unsigned range test, otherwise the unsigned order flipped when the
        signs differ — ``(a ^ b) < 2**63`` keeps small operands small."""
        if cond in _COND_EXPR:
            return _COND_EXPR[cond].format(a=_text(a), b=_text(b))
        lt = cond == "lt"
        if isinstance(a, int) and isinstance(b, int):
            return repr((rt.s64(a) < rt.s64(b)) == lt)
        if isinstance(b, int):  # a < b resp. a >= b; the negatives lie above 2**63
            if b >= SIGN:
                return f"{SIGN} <= {a} < {b}" if lt else f"{a} >= {b} or {a} < {SIGN}"
            if b == 0:
                return f"{a} >= {SIGN}" if lt else f"{a} < {SIGN}"
            return f"{a} < {b} or {a} >= {SIGN}" if lt else f"{b} <= {a} < {SIGN}"
        if isinstance(a, int):  # b > a resp. b <= a
            if a >= SIGN:
                return f"{b} > {a} or {b} < {SIGN}" if lt else f"{SIGN} <= {b} <= {a}"
            return f"{a} < {b} < {SIGN}" if lt else f"{b} <= {a} or {b} >= {SIGN}"
        return f"({a} < {b}) {'==' if lt else '!='} (({a} ^ {b}) < {SIGN})"

    # -- materialisation points ---------------------------------------------------

    def _commits(self, *, back_edge: bool = False) -> list[str]:
        """``R[N] = rN`` resp. ``R[N] = <bits of fN>`` for every dirty
        register, where something outside the function can read ``cpu.regs``
        (an *observation point*).  At the back edge only what :meth:`_crosses`
        refuses is committed.  In a loop's body every point also leaves a mark
        for the integers the back edge will carry."""
        if self.dead is None:
            self.dead = set(self.written) - self.pins - self.fpins
        self._check()
        regs = self.dirty
        if back_edge:
            regs = {v for v in regs if not self._crosses(v)}
        out = [f"R[{v}] = r{v}" if v in self.local else f"R[{v}] = {_bits(v)}"
               for v in sorted(regs)]
        if self.head is not None and self.loop_end is None and not back_edge:
            out.insert(0, f"{_CARRY}{self.points}")
            self.points += 1
        return out

    def _crosses(self, v: int) -> bool:
        """Whether the dirty ``v`` crosses the back edge uncommitted: an
        integer (:meth:`_carry`) or a ``dead`` float, and a float pin whose
        newest value is ``fN``, written before the body's first observation
        point and not re-bound from ``R[N]`` as an integer pin (module
        docstring, "Loop residency")."""
        if v in self.fpins:
            return self.shadow.get(v) == f"f{v}" and not self.written[v] and v not in self.pins
        return v in self.local or v in self.dead

    def _check(self) -> None:
        """The invariants the shadow rule rests on (translation time only)."""
        for v in self.dirty - self.local:
            assert self.shadow.get(v) == f"f{v}", v
        assert self.const.keys() <= self.local, self.const
        assert self.dead is None or self.dead.isdisjoint(self.pins | self.fpins), self.dead

    def _fault_point(self, ir: InstrIR, k: int) -> list[str]:
        """What makes guest state precise should ``ir`` (the function's
        ``k``-th instruction) fault: dirty registers committed, its pc, and the
        count of what completed."""
        where = [f"cpu.pc = {ir.pc}", f"cpu.block_ic = {k}"]
        if self.head is not None:
            where.append("cpu.block_runs = i")
        return self._commits() + where

    def leave(self, rc: int = 0, *, unless: Optional[int] = None) -> None:
        """Return to the engine with ``cpu.regs`` exact.  With ``unless`` (a
        superblock's next member) the return is a side exit taken only when
        ``cpu.pc`` went elsewhere; the trace continues with its shadows."""
        out = self._commits()
        if self.head is not None:
            out.append("cpu.block_runs = i + 1")
        out.append(f"return {rc}")
        if unless is None:
            self.lines.extend(out)
        else:
            self.lines.append(f"if cpu.pc != {unless}:")
            self.lines.extend("    " + ln for ln in out)

    def back_edge(self, taken: Optional[str]) -> None:
        """The function's exit re-enters it when ``taken`` holds (always, if
        ``None``): the loop's body ends here, and its one exit follows the
        loop.  The loop head finds what the pre-header left it: every pinned
        local holding its register's value, and registers exact but for what
        crosses the back edge dirty (:meth:`_crosses`)."""
        lines = self.lines
        if taken:
            lines.append(f"if not ({taken}): break")
        lines += self._commits(back_edge=True)
        lines += [f"r{v} = R[{v}]" for v in sorted(self.pins - self.local)]
        lines += [f"f{v} = {_unbits(f'R[{v}]')}" for v in sorted(self.fpins)
                  if self.shadow.get(v) != f"f{v}"]
        self._carry((self.dirty & self.local) - self.fpins)
        self.loop_end = len(lines)
        assert self.writes is None or self.written.keys() <= self.writes, self.written

    def _carry(self, carried: set[int]) -> None:
        """Integers dirty at the back edge stay dirty across it: each
        observation point a trip makes before its first write of one commits
        it there, and the pre-header binds it, so that trip 1's commit
        rewrites the value on entry."""
        late = {v: self.written[v] for v in carried if self.written[v]}
        self.pre += [f"r{v} = R[{v}]" for v in sorted(late) if v not in self.pins]
        assert all(f"r{v} = R[{v}]" in self.pre for v in late), late
        out = []
        for ln in self.lines:
            indent, mark, point = ln.partition(_CARRY)
            if not mark:
                out.append(ln)
                continue
            out += [f"{indent}R[{v}] = r{v}" for v in sorted(late) if int(point) < late[v]]
        self.lines[:] = out

    # -- emission -------------------------------------------------------------

    def body(
        self,
        instrs: list[InstrIR],
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
        terminated = False
        for k, ir in enumerate(instrs, base):
            lines.append(f"# {ir.pc:#x}: {ir.mnemonic}")
            self.temps.clear()  # a temp lives within one instruction (tcg.py)
            for op in ir.ops:
                if op.name in TERMINALS:
                    self.terminal(op, ir, k, end_ic, next_entry, side_exits)
                    terminated = True
                elif op.name == "ld":
                    d, addr, size, signed = op.args
                    self.load(d, self.val(addr), size, signed, self._fault_point(ir, k))
                elif op.name == "st":
                    val, addr, size = op.args
                    a, f = self.val(addr), self.newest_float(val) if size == 8 else None
                    v = f"R[{val[1]}]" if f else self.val(val)
                    self.store(a, size, v, self._fault_point(ir, k), f)
                else:
                    if op.name in _ATOMIC_OPS:
                        # Always out of line: its precise exception point is
                        # made up front, and leaves nothing dirty.
                        lines.extend(self._fault_point(ir, k))
                        self.dirty.clear()
                    self.simple(op)
        if not terminated and (next_entry is None or next_pc != next_entry):
            lines.append(f"cpu.block_ic = {end_ic}")
            lines.append(f"cpu.pc = {next_pc}")
            self.leave()

    # -- memory: resident test inline, the method as miss arm (module docstring)

    def locate(self, a: "int | str", size: int) -> tuple[str, str]:
        """Bind the page of address ``a`` and, wider than a byte, its offset;
        returns their names (the offset of one byte is an expression).  A
        verifying site whose address is a register the body never writes binds
        its own ``hpK``/``hoK``, once, in the pre-header."""
        if self.writes is not None and isinstance(a, str) and a[0] == "r" \
                and int(a[1:]) not in self.writes:
            p, o = f"hp{self.sites}", f"ho{self.sites}"
            self.pre += [f"{p} = {a} >> {PAGE_SHIFT}", f"{o} = {a} & {PAGE_SIZE - 1}"]
            return p, o
        self.lines.append(f"p = {a} >> {PAGE_SHIFT}")
        if size == 1:
            return "p", f"{a} & {PAGE_SIZE - 1}"
        self.lines.append(f"o = {a} & {PAGE_SIZE - 1}")
        return "p", "o"

    def resident(self, p: str, o: str, size: int, miss: str, hit: str, arm: list[str]) -> None:
        """The access ``hit``, a statement over its page's buffer ``{b}``,
        where the memory's test ``miss`` fails, else the miss ``arm``.  A
        verifying site first tries the page it verified on an earlier hit of
        this call, with the span alone tested (module docstring, "Resident
        fast path"); a hit of the full test verifies the page."""
        lines = self.lines
        span = f"{o} > {PAGE_SIZE - size} or " if size > 1 else ""
        if self.writes is None:
            lines.append(f"if {miss.format(span=span)}:")
            lines.extend("    " + ln for ln in arm)
            lines.append("else: " + hit.format(b=f"B[{p}]"))
            return
        vp, vb = f"vp{self.sites}", f"vb{self.sites}"
        self.sites += 1
        self.pre.append(f"{vp} = -1")  # no page
        inside = f" and {o} <= {PAGE_SIZE - size}" if size > 1 else ""
        lines.append(f"if {p} == {vp}{inside}: " + hit.format(b=vb))
        lines.append(f"elif {miss.format(span=span)}:")
        lines.extend("    " + ln for ln in arm)
        lines.append(f"else: {vp} = {p}; {vb} = B[{p}]; " + hit.format(b=vb))

    def load(self, d, a: "int | str", size: int, signed: bool, fault_point: list[str]) -> None:
        """``d = <size bytes at a>``: hit iff nothing is split, the span
        stays inside the page and the page has a state; the miss arm, the
        only place the access can fault, does the fault bookkeeping."""
        self.views.update("SBX")
        p, o = self.locate(a, size)
        if size == 1:
            read = f"({{b}}[{o}] ^ 128) - 128 & M" if signed else f"{{b}}[{o}]"
        elif signed and size < 8:
            read = f"s{size}({{b}}, {o})[0] & M"
        else:
            read = f"u{size}({{b}}, {o})[0]"
        target = self.target(d)  # after the address was read
        self.resident(p, o, size, f"X or {{span}}{p} not in S", f"{target} = {read}", [
            *fault_point,
            f"v = mem.miss_load({a}, {size}, {signed})",
            f"if v is None: return {RC_STALL}",
            f"{target} = v",
        ])

    def store(
        self, a: "int | str", size: int, v: "int | str", fault_point: list[str],
        f: Optional[str] = None,
    ) -> None:
        """``<size bytes at a> = v``: hit iff additionally no reservation is
        armed and the page is Modified.  With ``f``, the float shadow whose
        bits ``v`` (its ``R[N]``, committed by ``fault_point``) holds, the hit
        packs the float, a NaN as the bits :data:`fpu.F2B` gives."""
        self.views.update("SBXA")
        p, o = self.locate(a, size)
        # Registers and temps are held masked, so 8 bytes need no mask.
        mask = (1 << 8 * size) - 1
        low = v if size == 8 else v & mask if isinstance(v, int) else f"{v} & {mask}"
        if f:
            hit = f"pd({{b}}, {o}, {f}) if {f} == {f} else p8({{b}}, {o}, NAN)"
        elif size == 1:
            hit = f"{{b}}[{o}] = {low}"
        else:
            hit = f"p{size}({{b}}, {o}, {low})"
        self.resident(p, o, size, f"X or A or {{span}}S.get({p}) is not W", hit, [
            *fault_point, f"if mem.miss_store({a}, {size}, {v}): return {RC_STALL}",
        ])

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
        # The tail of a looping function: a way out that is its own way in.
        back = self.head if next_entry is None else None
        if name == "brcond":
            a, b, cond, tgt, fall = op.args
            x, y = self.val(a), self.val(b)
            if back is not None and back in (tgt, fall):
                self.back_edge(
                    None if tgt == fall
                    else self.cond(cond if tgt == back else _NEGATE_COND[cond], x, y)
                )
            lines.append(f"cpu.block_ic = {end_ic}")
            lines.append(f"cpu.pc = {tgt} if {self.cond(cond, x, y)} else {fall}")
            if next_entry is not None:
                side_exits.update(pc for pc in (tgt, fall) if pc != next_entry)
            self.leave(unless=next_entry)
        elif name == "jmp":
            (tgt,) = op.args
            if back is not None and tgt == back:
                self.back_edge(None)
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

    def simple(self, op: TCGOp) -> None:
        name = op.name
        ref = self.ref
        if name in _BIN_EXPR:
            d, a, b = op.args
            x, y = self.val(a), self.val(b)
            if name == "add" and 0 in (x, y):
                # ``x + 0`` (zero-displacement address, ``mv``) and ``0 + imm``
                # (``li``): registers, temps and immediates are held masked.
                self.move(d, y if x == 0 else x)
                return
            if name in ("shl", "shr", "sar"):
                y = y & 63 if isinstance(y, int) else f"({y} & 63)"
            elif name == "add" and isinstance(y, int) and y >= SIGN:
                # A negative displacement or step: subtracting its magnitude
                # keeps a small operand a one-digit int.
                name, y = "sub", (1 << 64) - y
            self.set(d, _BIN_EXPR[name].format(a=_text(x), b=_text(y)))
        elif name == "mov":
            d, s = op.args
            self.move(d, self.val(s))
        elif name == "setcond":
            d, a, b, cond = op.args
            self.set(d, f"1 if {self.cond(cond, self.val(a), self.val(b))} else 0")
        elif name in ("fbin", "fun", "fsetcond") and op.args[0] == ("g", 0):
            pass  # a result nobody can see: GA64 has no FP flags or rounding state
        elif name == "fbin":
            d, a, b, f = op.args
            self.fset(d, _fbin(f, self.fref(a), self.fref(b)))
        elif name == "fun":
            d, a, f = op.args
            if f == "fsqrt":
                self.fset(d, fpu.FSQRT.format(a=self.fref(a)))
            elif f == "fcvt_d_l":
                x = self.val(a)
                self.fset(d, repr(fpu.l2d(x)) if isinstance(x, int) else fpu.L2D.format(x=x))
            else:  # fcvt_l_d: float in, integer bits out
                self.set(d, fpu.D2L.format(x=self.fref(a)))
        elif name == "fsetcond":
            d, a, b, cond = op.args
            expr = _FSET_EXPR[cond].format(a=self.fref(a), b=self.fref(b))
            self.set(d, f"1 if {expr} else 0")
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
