"""Process-wide translation memo: each guest block is translated once.

In the paper every node is a QEMU process with a code cache of its own.  Here
the nodes of a cluster — and every cluster a test run or an experiment sweep
builds — are objects in one Python process executing the same guest binaries,
and translation is a pure function of *(entry pc, the block's instruction
words, fusion flag)*: ``Frontend.lower_block`` reads no memory and
``Backend.compile`` emits functions that take ``cpu`` and ``mem`` as
arguments and bind nothing else.  So the host work — decode, lower, emit,
``compile()`` — is done once per distinct key and every engine that meets the
same words at the same pc gets a :meth:`~TranslationBlock.fresh` block around
the shared function, source and IR, with chain links, edge counts and
``exec_count`` of its own.

The key is content, never identity: no program, tenant, node or memory
object is in it, so a rewritten or re-fetched code page can only hit a
translation of the bytes it holds now.  The words are always read through
``Frontend.fetch_block`` first, so a lookup cannot answer before the memory
system had its chance to stall or fault.

Nothing simulated depends on a hit: the engine bills ``translate_per_insn``
and counts the insertion for every block it receives (``docs/SIMULATION.md``).
"""

from __future__ import annotations

from repro.dbt.backend import Backend, TranslationBlock
from repro.dbt.frontend import BlockIR, Frontend

__all__ = ["LIMIT", "block", "clear", "superblock"]

#: Translations kept; past it the oldest goes.  Eviction costs one
#: re-translation, never correctness.  (All 20 experiments together make
#: under 500; an entry is ~20 KB of source, code object and IR.)
LIMIT = 4096

#: key → the translation as compiled.  A stored block is a template: it is
#: handed out only through ``fresh`` and never runs itself.
_translations: dict[tuple, TranslationBlock] = {}


def clear() -> None:
    """Forget every translation (tests: make the next run a cold one)."""
    _translations.clear()


def _shared(key: tuple, translate) -> TranslationBlock:
    tb = _translations.get(key)
    if tb is None:
        if len(_translations) >= LIMIT:
            del _translations[next(iter(_translations))]
        tb = _translations[key] = translate()
    return tb.fresh()


def block(frontend: Frontend, backend: Backend, pc: int, fusion: bool) -> TranslationBlock:
    """The block entered at ``pc`` of ``frontend``'s memory."""
    words = frontend.fetch_block(pc)
    return _shared(
        (pc, words, fusion),
        lambda: backend.compile(frontend.lower_block(pc, words), fusion=fusion),
    )


def superblock(backend: Backend, members: list[BlockIR], fusion: bool) -> TranslationBlock:
    """The superblock stitched from ``members``, keyed by what they were
    lowered from (a pair, where a block's key is a triple)."""
    return _shared(
        (tuple((ir.pc, ir.words) for ir in members), fusion),
        lambda: backend.compile_superblock(members, fusion=fusion),
    )
