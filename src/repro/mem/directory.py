"""Centralized page directory for the MSI protocol (paper §3.2, §4.2).

The master node owns one :class:`Directory`.  For every guest page it tracks
which node holds it Modified (the *owner*) or which nodes hold it Shared.
The directory is a pure data structure: :meth:`plan` computes the coherence
actions a request requires, and :meth:`commit` applies the state change once
the master has performed them.  Keeping planning separate from the network
makes the protocol property-testable in isolation.

Invariants (checked by :meth:`check_invariants`):

* a page has an owner XOR (possibly empty) sharers — never both;
* the owner, if any, is a single node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ProtocolError

__all__ = ["DirEntry", "CoherencePlan", "Directory"]


#: The sharer set of every entry nobody shares.
_NOBODY: frozenset[int] = frozenset()


@dataclass(slots=True)
class DirEntry:
    """One page's holders.  ``sharers`` is immutable and replaced on change,
    so a reader may keep it; in a :class:`Directory` equal sets are one
    object, so a page costs its entry, not a set of its own."""

    owner: Optional[int] = None
    sharers: frozenset[int] = _NOBODY

    def is_idle(self) -> bool:
        return self.owner is None and not self.sharers


@dataclass(frozen=True)
class CoherencePlan:
    """Actions the master must take before granting a request.

    ``fetch_from``   — node whose Modified copy must be written back first
                       (on a read it keeps the page, Shared).
    ``invalidate``   — nodes whose copies must be dropped (write requests).
    ``already_granted`` — requester already holds a sufficient copy.
    """

    fetch_from: Optional[int] = None
    invalidate: tuple[int, ...] = ()
    already_granted: bool = False


#: The action-free plans :meth:`Directory.plan` shares.
_GRANTED = CoherencePlan(already_granted=True)
_NOTHING = CoherencePlan()


class Directory:
    """Per-page owner/sharer bookkeeping."""

    def __init__(self) -> None:
        self._entries: dict[int, DirEntry] = {}
        #: Every sharer set an entry holds, once (``_NOBODY`` included).
        self._sets: dict[frozenset[int], frozenset[int]] = {_NOBODY: _NOBODY}

    def _shared(self, sharers: frozenset[int]) -> frozenset[int]:
        """The one object of this directory equal to ``sharers``."""
        return self._sets.setdefault(sharers, sharers)

    def entry(self, page: int) -> DirEntry:
        ent = self._entries.get(page)
        if ent is None:
            ent = DirEntry()
            self._entries[page] = ent
        return ent

    def peek(self, page: int) -> DirEntry:
        """Read-only view (does not create an entry)."""
        ent = self._entries.get(page)
        return DirEntry() if ent is None else ent

    # -- planning ------------------------------------------------------------

    def plan(self, node: int, page: int, write: bool) -> CoherencePlan:
        """What granting ``page`` to ``node`` takes (read-only: the two
        action-free plans are shared)."""
        ent = self.peek(page)
        if write:
            if ent.owner == node:
                return _GRANTED
            if ent.owner is not None:
                return CoherencePlan(fetch_from=ent.owner, invalidate=(ent.owner,))
            others = tuple(sorted(ent.sharers - {node})) if ent.sharers else ()
            return CoherencePlan(invalidate=others) if others else _NOTHING
        # read request
        if ent.owner == node or node in ent.sharers:
            return _GRANTED
        if ent.owner is not None:
            return CoherencePlan(fetch_from=ent.owner)
        return _NOTHING

    # -- commit ------------------------------------------------------------

    def commit(self, node: int, page: int, write: bool, exclusive: bool = False) -> None:
        """Apply the grant after the plan's actions were carried out.

        ``exclusive`` records a MESI Exclusive-clean read grant: the node
        becomes *owner* even though its copy is clean, because the holder
        may silently upgrade E→M at any time without telling the master —
        so every later transaction must treat the copy as possibly dirty
        (peer reads fetch/write it back, exactly like a Modified owner).
        Only valid when the entry is idle; the caller guarantees it.
        """
        ent = self.entry(page)
        if write or exclusive:
            ent.owner = node
            ent.sharers = _NOBODY
        else:
            if ent.owner is not None:
                if ent.owner != node:
                    # former owner was downgraded to sharer by the plan
                    ent.sharers = frozenset((ent.owner,))
                ent.owner = None
            ent.sharers = self._shared(ent.sharers | {node})

    def drop_node(self, node: int, page: int) -> None:
        """Remove a node's copy (e.g. after an explicit invalidation)."""
        ent = self.peek(page)
        if ent.owner == node:
            ent.owner = None
        if node in ent.sharers:
            ent.sharers = self._shared(ent.sharers - {node})

    def downgrade_owner(self, page: int) -> None:
        """Owner's M copy becomes S (kernel read path: master pulled the data
        home but grants nobody new access)."""
        ent = self.peek(page)
        if ent.owner is not None:
            ent.sharers = self._shared(frozenset((ent.owner,)))
            ent.owner = None

    def evict_node(self, node: int) -> tuple[list[int], list[int]]:
        """Forget every copy a dead node held (directory re-homing).

        Returns ``(rehomed, lost)`` page lists: *rehomed* pages were Shared
        on the dead node — the home copy (and any surviving sharers) remain
        authoritative, so dropping the dead copy loses nothing.  *Lost*
        pages were owned by the dead node — their only current content
        died with it, and the stale home copy is silently promoted so
        future readers get *a* value instead of a deadlock.  The caller
        surfaces the count; the data loss is real and reported, not hidden.

        An Exclusive-clean grantee (MESI) is tracked as owner too, and is
        *conservatively* counted lost: the holder may have silently
        upgraded E→M without telling the master, so the directory cannot
        know whether the home copy is still current.  That pessimism is
        the failure-domain price of the silent upgrade's saved round trip
        (docs/PROTOCOL.md "Coherence protocols").
        """
        rehomed: list[int] = []
        lost: list[int] = []
        for page, ent in self._entries.items():
            if ent.owner == node:
                ent.owner = None
                lost.append(page)
            elif node in ent.sharers:
                ent.sharers = self._shared(ent.sharers - {node})
                rehomed.append(page)
        return sorted(rehomed), sorted(lost)

    def invalidate_all(self, page: int) -> tuple[int, ...]:
        """Forget every copy of a page (page-splitting migration). Returns
        the nodes that held it."""
        ent = self._entries.pop(page, None)
        if ent is None:
            return ()
        holders = set(ent.sharers)
        if ent.owner is not None:
            holders.add(ent.owner)
        return tuple(sorted(holders))

    # -- queries ----------------------------------------------------------------

    def holders(self, page: int) -> tuple[int, ...]:
        ent = self.peek(page)
        out = set(ent.sharers)
        if ent.owner is not None:
            out.add(ent.owner)
        return tuple(sorted(out))

    def owner(self, page: int) -> Optional[int]:
        return self.peek(page).owner

    def sharers(self, page: int) -> frozenset[int]:
        return self.peek(page).sharers

    def check_invariants(self) -> None:
        for page, ent in self._entries.items():
            if ent.owner is not None and ent.sharers:
                raise ProtocolError(
                    f"page {page:#x}: owner {ent.owner} coexists with sharers {ent.sharers}"
                )
