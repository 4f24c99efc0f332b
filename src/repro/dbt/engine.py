"""Execution engine: the translate/execute mode switch of a DBT thread.

Each guest thread's host thread alternates between *translation mode* and
*execution mode* (paper §2).  ``run_quantum`` runs one vCPU until its cycle
budget is spent or an event needs outside help: a syscall, a page the DSM
must fetch, or a guest fault.  Cycle accounting is virtual: translated code
is billed ``cpi_dbt`` cycles per guest instruction, interpretation
``cpi_interp``, superblock code ``cpi_superblock``, and translation
``translate_per_insn`` once per block — constants of the engine's
:class:`~repro.cost.CostModel`.  The *host* work of a translation is shared
process-wide (:mod:`repro.dbt.memo`); the virtual bill is not: every engine
pays it for every block it inserts, as a node with its own TCG would.

Hot-path tier (all off by default except chaining, which is
timing-neutral):

* **block chaining** — after a block runs, its successor is dispatched
  through a direct reference recorded on the block instead of a cache
  lookup; invalidation severs the references.
* **trace superblocks** — once a block's ``exec_count`` crosses
  ``superblock_threshold``, the engine grows a trace along the hottest
  recorded successor edges and compiles it into one superblock (single
  dispatch, interior side exits) billed at the cheaper ``cpi_superblock``.
* **idiom fusion** — blocks are compiled with the peephole pass from
  :mod:`repro.dbt.backend`; each fused pair whose second instruction
  completed is billed as one host operation, with per-pattern hit counters.

Cycle accounting is exact: the fractional cycle remainder at each stop is
carried on the vCPU (``cpu.cycle_frac``) into its next quantum instead of
being truncated, so long-run totals match the per-instruction model to the
cycle even for fractional CPIs.

The dispatch loop pays per quantum what it can: a chained plain block costs
it one call (the block) and arithmetic on locals; counters are written back
at the loop's single exit, successor edges are counted only for the
superblock tier that reads them, and ``_bill`` is entered only for the hot
tier's blocks and for a block a stall or fault cut short.

Allowance.  A block whose exit re-enters it (``tb.loops``) is generated as a
loop (:mod:`repro.dbt.backend`, "Loop residency") and, once it is chained to
itself — so its first self re-entry still takes the counted ``lookup`` and
``chain``, and an unchained engine never qualifies — is handed the number of
entries it may make in one call: ``int((cycle_budget - cycles) / full) - 1``,
``full`` being the bill of one complete entry.  Floor-minus-one is
conservative: every entry made in place is one the dispatcher would certainly
have made, and the last entries of a quantum go through the dispatcher, which
alone decides where the quantum ends.  While the block can still be promoted
the allowance also stops at ``superblock_threshold - exec_count``, so
promotion fires after the same entry as ever.  A non-positive bill gets an
allowance of one, never a division.

Afterwards the entries made in place are booked exactly as the dispatcher
would have booked them (``_replay``).  Integer counters move in closed form
(``chain_follows``, ``exec_count``, instructions, the self edge, fusion hits).
The float accumulators are *replayed, not multiplied*: ``cycles``,
``execute_cycles`` and the two ``*_saved_cycles`` run at fractional CPIs
(2.88 on every pure-QEMU row), ``cycles`` decides where a quantum ends and its
remainder is carried into the next one, so how each sum rounds is part of
virtual time — and ``c + k * x`` does not round like ``k`` additions of ``x``.
They get the result of the same additions, in closed form (``_add_times``):
while a running total ``s`` stays in one binade ``[2**e, 2**(e+1))``, whose
numbers are the multiples of one ulp ``u``, adding a positive ``x`` (with ``x =
q*u + r``, ``0 <= r < u``) rounds ``s + x`` to ``s + d*u``, ``d`` being ``q``
for ``r < u/2`` and ``q + 1`` for ``r > u/2`` whatever ``s`` is — so ``j`` such
additions are ``s + j*d*u``, exactly, for every ``j`` whose exact sums stay
below the binade's top.  A tie, ``r = u/2``, rounds to the even multiple: from
an odd one it takes one plain addition, and from an even one ``d`` is ``q``
rounded up to even.  The addition that crosses the top is made plainly, and
``u`` doubles there.  So ``k`` additions cost a few steps per binade the total
crosses, not ``k`` (up to 32 entries the loop is cheaper and is kept).  A fault
books its complete entries first and then the partial one as before.  Nothing
simulated can tell an entry the function made from one the dispatcher made.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from repro.cost import TESTBED, CostModel
from repro.dbt import memo
from repro.dbt.backend import MEM_VIEW, Backend, TranslationBlock
from repro.dbt.codecache import CodeCache
from repro.dbt.cpu import CPUState
from repro.dbt.frontend import Frontend
from repro.dbt.interp import Interpreter
from repro.dbt.stop import RC_BREAK, RC_STALL, RC_SYSCALL, StopEvent, StopKind
from repro.errors import ConfigError, GuestFault
from repro.mem.api import MemoryAPI, PageStall

__all__ = ["ExecutionEngine"]


#: ``times`` up to this many are added one at a time: the closed form's setup
#: costs more than a short loop.
_SHORT = 32
#: A binade ``[2**e, 2**(e+1))`` holds ``2**53`` ulps of its numbers (the
#: subnormals and the first normal binade share the smallest ulp).
_ULPS = 2.0 ** 53
#: Sums that may reach this (or are not finite) are left to the loop.
_HUGE = 2.0 ** 1000


def _add_times(total: float, term: float, times: int) -> float:
    """``total`` after ``term`` was added to it ``times`` times, one addition
    at a time: ``total + term * times`` rounds differently.  Done in closed
    form, a few steps per binade of the running total (module docstring,
    "Allowance")."""
    if times <= _SHORT or not (0.0 < term and 0.0 <= total and total + term * times < _HUGE):
        for _ in range(times):
            total += term
        return total
    u = math.ulp(total)
    if term >= u * _ULPS:  # the first addition leaves the binade
        total += term
        times -= 1
        u = math.ulp(total)
    # From here ``term`` is below the binade's top, so an addition crosses at
    # most one binade boundary, and ``u`` doubles when it does.
    top = u * _ULPS
    while times > 0:
        s = total / u  # exact: ``total`` is a multiple of ``u`` below 2**53 of them
        x = term / u
        q = x // 1.0
        r = x - q
        if r == 0.5 and s % 2.0:  # a tie from an odd multiple rounds to even once
            j = 0
        else:  # each addition in the binade adds ``d`` ulps
            d = q + (q % 2.0 if r == 0.5 else r > 0.5)
            if not d:
                return total  # every addition rounds back to ``total``
            # Additions whose exact sum stays below the top: s + (j-1)*d + q < 2**53.
            j = -((s + q - _ULPS) // d)
            if j > times:
                j = times
        if j > 0:
            total = (s + j * d) * u
            times -= j
        else:
            total += term
            times -= 1
        while total >= top:
            u *= 2.0
            top *= 2.0
    return total


class ExecutionEngine:
    """Runs vCPUs against a memory system in DBT or interpreter mode."""

    def __init__(
        self,
        mem: MemoryAPI,
        *,
        cost: CostModel = TESTBED,
        mode: str = "dbt",
        max_block_insns: int = 64,
        cache: CodeCache | None = None,
        chaining: bool = True,
        superblock_threshold: int = 0,
        superblock_max_blocks: int = 8,
        fusion: bool = False,
    ) -> None:
        if mode not in ("dbt", "interp"):
            raise ConfigError(f"unknown engine mode {mode!r}")
        if superblock_threshold and not chaining:
            raise ConfigError(
                "superblocks require block chaining: traces grow along recorded chain edges"
            )
        # Translated code reads the resident-access view off ``mem`` on every
        # call; a memory without it must fail here, not inside a block.
        for attr in MEM_VIEW.values():
            getattr(mem, attr)
        self.mem = mem
        self.mode = mode
        self.cost = cost
        self.cache = CodeCache() if cache is None else cache  # an empty cache is falsy
        self.frontend = Frontend(mem, max_block_insns=max_block_insns)
        self.backend = Backend()
        self.interp = Interpreter(mem)
        self.chaining = chaining
        self.superblock_threshold = superblock_threshold
        self.superblock_max_blocks = superblock_max_blocks
        self.fusion = fusion
        # Counters for profiling/experiments.
        self.insns_executed = 0
        self.insns_translated = 0
        self.superblocks_formed = 0
        self.fusion_hits: dict[str, int] = {}
        self.fusion_saved_cycles = 0.0
        self.superblock_saved_cycles = 0.0
        self.execute_cycles = 0.0
        self.translate_cycles = 0.0

    # -- main entry ----------------------------------------------------------

    def run_quantum(self, cpu: CPUState, cycle_budget: int) -> StopEvent:
        """Run ``cpu`` for at most ``cycle_budget`` virtual cycles."""
        if self.mode == "interp":
            return self._run_interp(cpu, cycle_budget)
        return self._run_dbt(cpu, cycle_budget)

    # -- DBT mode ----------------------------------------------------------

    def _run_dbt(self, cpu: CPUState, cycle_budget: int) -> StopEvent:
        t = self.cost
        cpi = t.cpi_dbt
        cycles = cpu.cycle_frac  # remainder carried from the last quantum
        cpu.cycle_frac = 0.0
        tcycles = 0.0
        mem = self.mem
        cache = self.cache
        chaining = self.chaining
        threshold = self.superblock_threshold
        # Per-block bookkeeping lives in locals and is written back once, at
        # the exit below; the float sums add the same terms in the same order.
        follows = 0
        insns = 0
        exec_cycles = self.execute_cycles
        kind, info = StopKind.QUANTUM, None
        prev: Optional[TranslationBlock] = None
        while cycles < cycle_budget:
            pc = cpu.pc
            tb = prev.chain.get(pc) if prev is not None else None
            if tb is not None:
                follows += 1
            else:
                tb = cache.lookup(pc)
                if tb is None:
                    try:
                        tb = memo.block(self.frontend, self.backend, pc, self.fusion)
                    except PageStall as stall:
                        kind, info = StopKind.PAGE_STALL, stall.with_traceback(None)
                        break
                    except GuestFault as fault:
                        kind, info = StopKind.FAULT, fault
                        break
                    cache.insert(tb)
                    self.insns_translated += tb.n_insns
                    cost = tb.n_insns * t.translate_per_insn
                    cycles += cost
                    tcycles += cost
                if chaining and prev is not None and pc in prev.succ_pcs:
                    cache.chain(prev, pc, tb)
            # Successor counts feed trace growth, their only reader.
            if threshold and prev is not None and pc in prev.succ_pcs:
                prev.edges[pc] = prev.edges.get(pc, 0) + 1
            # A block that re-enters itself may do so in place, as often as
            # is certain to fit the budget (module docstring, "Allowance").
            n = 1
            if tb.loops and tb.chain.get(pc) is tb:
                full = (tb.n_insns - len(tb.fused)) * (
                    t.cpi_superblock if tb.is_superblock else cpi
                )
                if full > 0:
                    n = int((cycle_budget - cycles) / full) - 1
                    if threshold and not tb.is_superblock and not tb.no_promote:
                        n = min(n, threshold - tb.exec_count)  # promote on the same entry
                    n = max(n, 1)
            # A stall/fault raised before the block's first checkpoint must
            # bill zero completed instructions, not the previous block's.
            cpu.block_ic = 0
            try:
                rc = tb.fn(cpu, mem, n)
            except (PageStall, GuestFault) as exc:
                # A stall's traceback holds this frame, whose ``info`` holds the
                # stall: kept, every fault would leave a cycle for the GC.  A
                # guest fault keeps its traceback: the node re-raises it.
                info = exc.with_traceback(None) if isinstance(exc, PageStall) else exc
                rc = RC_STALL  # stopped at the access, like a returned stall
            else:
                if rc == RC_STALL:  # a miss arm returns a page stall, never raises it
                    info, mem.stall = mem.stall, None
            if rc == RC_STALL:
                if n > 1 and cpu.block_runs:  # the complete entries before this one
                    cycles, exec_cycles = self._replay(
                        tb, cpu.block_runs, full, cycles, exec_cycles
                    )
                done = cpu.block_ic  # a partially-completed block
                cost = self._bill(tb, done, t) if tb.fused or tb.is_superblock else done * cpi
                insns += done
                cycles += cost
                exec_cycles += cost
                kind = StopKind.PAGE_STALL if isinstance(info, PageStall) else StopKind.FAULT
                break
            if n > 1 and cpu.block_runs > 1:  # every entry but the last is complete
                cycles, exec_cycles = self._replay(
                    tb, cpu.block_runs - 1, full, cycles, exec_cycles
                )
            tb.exec_count += 1
            done = cpu.block_ic
            if tb.fused or tb.is_superblock:
                cost = self._bill(tb, done, t)
            else:  # a plain block: _bill's arithmetic without the frame
                cost = done * cpi
            insns += done
            cycles += cost
            exec_cycles += cost
            if (
                threshold
                and not tb.is_superblock
                and not tb.no_promote
                and tb.exec_count >= threshold
                and cache.peek(pc) is tb
            ):
                cost = self._try_promote(tb)
                cycles += cost
                tcycles += cost
            if rc:  # not RC_NEXT: ecall/ebreak hand control to the caller
                kind = StopKind.SYSCALL if rc == RC_SYSCALL else StopKind.BREAK
                break
            prev = tb
        cache.stats.chain_follows += follows
        self.insns_executed += insns
        self.execute_cycles = exec_cycles
        return self._stop(kind, cycles, tcycles, cpu, info)

    # -- hot-path accounting -----------------------------------------------

    def _bill(self, tb: TranslationBlock, done: int, t: CostModel) -> float:
        """Execution cycles for ``done`` completed guest instructions of
        ``tb``, with the hot tier's savings counted; the caller accumulates
        the cycles and the instruction count."""
        cpi = t.cpi_superblock if tb.is_superblock else t.cpi_dbt
        billed = done
        if tb.fused:
            # A group counts once its second instruction completed; a complete
            # entry has them all, counted per pattern at translation.
            hit = tb.fused_counts if done == tb.n_insns else Counter(
                pattern for end, pattern in tb.fused if end < done
            ).items()
            saved = 0
            for pattern, count in hit:
                saved += count
                self.fusion_hits[pattern] = self.fusion_hits.get(pattern, 0) + count
            if saved:
                billed -= saved
                self.fusion_saved_cycles += saved * cpi
        if tb.is_superblock:
            self.superblock_saved_cycles += done * (t.cpi_dbt - t.cpi_superblock)
        return billed * cpi

    def _replay(
        self, tb: TranslationBlock, entries: int, full: float, cycles: float, exec_cycles: float
    ) -> tuple[float, float]:
        """Book ``entries`` complete entries ``tb`` made inside its own
        function, each billed ``full``, exactly as the dispatcher books a
        chained re-entry.  Counters move in closed form; every float
        accumulator takes the same additions in the same order, one per entry
        — they run at fractional CPIs and their rounding is part of virtual
        time."""
        t = self.cost
        self.cache.stats.chain_follows += entries
        self.insns_executed += entries * tb.n_insns
        tb.exec_count += entries
        if self.superblock_threshold:
            tb.edges[tb.pc] = tb.edges.get(tb.pc, 0) + entries
        for pattern, count in tb.fused_counts:
            self.fusion_hits[pattern] = self.fusion_hits.get(pattern, 0) + count * entries
        if entries > _SHORT:
            cycles = _add_times(cycles, full, entries)
            exec_cycles = _add_times(exec_cycles, full, entries)
        else:  # _add_times's loop, for both sums at once
            for _ in range(entries):
                cycles += full
                exec_cycles += full
        if tb.fused:
            saved = len(tb.fused) * (t.cpi_superblock if tb.is_superblock else t.cpi_dbt)
            self.fusion_saved_cycles = _add_times(self.fusion_saved_cycles, saved, entries)
        if tb.is_superblock:
            self.superblock_saved_cycles = _add_times(
                self.superblock_saved_cycles, tb.n_insns * (t.cpi_dbt - t.cpi_superblock), entries
            )
        return cycles, exec_cycles

    def _try_promote(self, head: TranslationBlock) -> float:
        """Grow a trace from ``head`` along its hottest recorded edges and
        promote the compiled superblock; returns translation cycles billed.

        The walk may revisit blocks — loop traces unroll themselves up to
        ``superblock_max_blocks`` members, so a one-block hot loop becomes
        an unrolled superblock re-entered once per trace rather than once
        per iteration.
        """
        trace = [head]
        cur = head
        while len(trace) < self.superblock_max_blocks:
            if not cur.edges:
                break
            # Hottest successor; ties break to the lowest pc (deterministic).
            pc = min(cur.edges, key=lambda p: (-cur.edges[p], p))
            nxt = self.cache.peek(pc)
            if nxt is None or nxt.is_superblock:
                break
            trace.append(nxt)
            cur = nxt
        if len(trace) < 2:
            head.no_promote = True
            return 0.0
        sb = memo.superblock(self.frontend, self.backend, trace, self.fusion)
        self.cache.promote(sb)
        self.superblocks_formed += 1
        self.insns_translated += sb.n_insns
        return sb.n_insns * self.cost.translate_per_insn

    def _stop(
        self,
        kind: StopKind,
        cycles: float,
        tcycles: float,
        cpu: CPUState,
        info=None,
    ) -> StopEvent:
        whole = int(cycles)
        cpu.cycle_frac = cycles - whole  # carried into the next quantum
        self.translate_cycles += tcycles
        return StopEvent(kind, whole, info, translate_cycles=int(tcycles))

    # -- interpreter mode ------------------------------------------------------

    def _run_interp(self, cpu: CPUState, cycle_budget: int) -> StopEvent:
        t = self.cost
        cycles = cpu.cycle_frac
        cpu.cycle_frac = 0.0
        while cycles < cycle_budget:
            try:
                rc = self.interp.step(cpu)
            except PageStall as stall:
                return self._stop(
                    StopKind.PAGE_STALL, cycles, 0.0, cpu, stall.with_traceback(None)
                )
            except GuestFault as fault:
                return self._stop(StopKind.FAULT, cycles, 0.0, cpu, fault)
            cycles += t.cpi_interp
            self.execute_cycles += t.cpi_interp
            self.insns_executed += 1
            if rc == RC_SYSCALL:
                return self._stop(StopKind.SYSCALL, cycles, 0.0, cpu)
            if rc == RC_BREAK:
                return self._stop(StopKind.BREAK, cycles, 0.0, cpu)
        return self._stop(StopKind.QUANTUM, cycles, 0.0, cpu)
