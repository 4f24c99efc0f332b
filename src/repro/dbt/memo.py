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
the shared function, with chain links, edge counts and ``exec_count`` of its
own.

An entry keeps what execution and chaining read — the function, its extent,
successors, pages, fused groups — and the words it was made from, nothing
that translation made on the way: as in QEMU, where TCG ops live only while
a block is being generated, the IR and the source text are dropped once the
function is compiled.  A superblock's members are lowered again from their
words when it is compiled, and ``TranslationBlock.source`` emits its text
again when a diagnostic asks for it.

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
from repro.dbt.frontend import Frontend

__all__ = ["LIMIT", "block", "clear", "superblock"]

#: Translations kept; past it the oldest goes.  Eviction costs one
#: re-translation, never correctness.  (All 20 experiments together make
#: under 500; after ``cold_start``'s 22 jobs an entry holds ~3.0 KB, most of
#: it the code object.)
LIMIT = 4096

#: key → the translation as compiled.  A stored block is a template: it is
#: handed out only through ``fresh`` and never runs itself, so it has no chain,
#: back-link or edge container of its own.
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


def superblock(
    frontend: Frontend, backend: Backend, members: list[TranslationBlock], fusion: bool
) -> TranslationBlock:
    """The superblock stitched from the plain blocks ``members``, keyed by
    their ``(pc, words)`` pairs (a pair, where a block's key is a triple) and
    lowered from them only on a miss — once per distinct member."""
    words = tuple((tb.pc, tb.words) for tb in members)

    def translate() -> TranslationBlock:
        lowered = {pair: frontend.lower_block(*pair) for pair in set(words)}
        return backend.compile_superblock([lowered[pair] for pair in words], fusion=fusion)

    return _shared((words, fusion), translate)
