"""Centralized page directory for the MSI protocol (paper §3.2, §4.2).

The master node owns one :class:`Directory`.  For every guest page it tracks
which node holds it Modified (the *owner*) or which nodes hold it Shared.

Every change is one coherence *transaction*: :meth:`Directory.plan` reads
the entry and opens a :class:`Transaction` naming what granting a request
takes; the handler records in it each effect as it happens (a copy taken
away or cleaned once its ack lands, then the grant); and
:meth:`Directory.apply`, once on every exit path, writes the record into the
entry as it stands then.  So an exit between two effects leaves the
directory describing the copies that exist, a concurrent :meth:`evict_node`
(the only other mutator) is kept, and the protocol is model-checkable
without a network (``tests/test_directory_model.py``).

Invariants (checked by :meth:`check_invariants`): a page has an owner XOR
(possibly empty) sharers; the owner is a single node; no node the failure
view has latched is listed (``apply`` refuses its grant and unlists it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional

from repro.errors import ProtocolError
from repro.mem.msi import MSIState

__all__ = ["DirEntry", "Transaction", "Directory"]


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


#: What a page without an entry reads as (never written to).
_IDLE = DirEntry()


class Transaction:
    """Granting ``page`` to ``node`` (``write`` or read), as planned and as done.

    The plan (:meth:`Directory.plan`): ``fetch_from``, the node whose
    Modified copy must come home first (a read leaves it Shared);
    ``invalidate``, the nodes whose copies must be dropped (writes);
    ``already_granted``, ``node`` already holds a sufficient copy.

    The record, written as each effect happens: ``dropped``, the nodes whose
    copy was taken away (an acked ``Invalidate``, or an owner given up on
    because its node died); ``cleaned``, the owner written back and left
    Shared; ``grant``, the state granted to ``node``.  An Exclusive grant
    lists ``node`` as owner: it may upgrade E→M without telling the master,
    so later transactions treat the copy as possibly dirty.

    Fields left at their class default are not set, so opening one per
    request costs no Python-level call.
    """

    node: int
    page: int
    write: bool
    dropped: list[int]
    fetch_from: Optional[int] = None
    invalidate: tuple[int, ...] = ()
    already_granted: bool = False
    cleaned: Optional[int] = None
    grant: Optional[MSIState] = None


class Directory:
    """Per-page owner/sharer bookkeeping.

    ``latched`` is the failure view's set of nodes latched failed, read live
    and never written here (empty when no failure domain is armed)."""

    def __init__(self, latched: Container[int] = _NOBODY) -> None:
        self._entries: dict[int, DirEntry] = {}
        #: Every sharer set an entry holds, once (``_NOBODY`` included);
        #: ``_sets.setdefault(s, s)`` is the one object equal to ``s``.
        self._sets: dict[frozenset[int], frozenset[int]] = {_NOBODY: _NOBODY}
        self.latched = latched

    def peek(self, page: int) -> DirEntry:
        """Read-only view (a page without an entry reads as one shared idle
        entry; never write to it)."""
        return self._entries.get(page, _IDLE)

    # -- transactions ------------------------------------------------------------

    def plan(self, node: int, page: int, write: bool) -> Transaction:
        """Open the transaction granting ``page`` to ``node`` (read-only:
        the entry changes only at :meth:`apply`)."""
        ent = self._entries.get(page, _IDLE)
        owner, sharers = ent.owner, ent.sharers
        txn = Transaction()
        txn.node, txn.page, txn.write, txn.dropped = node, page, write, []
        if owner == node or (not write and node in sharers):
            txn.already_granted = True
        elif owner is not None:
            txn.fetch_from = owner
            if write:
                txn.invalidate = (owner,)
        elif write and sharers:
            txn.invalidate = tuple(sorted(sharers - {node}))
        return txn

    def settled(self, txn: Transaction) -> tuple[Optional[int], frozenset[int]]:
        """``(owner, sharers)`` of ``txn``'s page once what ``txn`` recorded
        lands on the entry as it stands now, the grant left out: a cleaned
        owner becomes a sharer, dropped copies and latched nodes are
        unlisted."""
        ent = self._entries.get(txn.page, _IDLE)
        owner, sharers = ent.owner, ent.sharers
        if owner is not None and owner == txn.cleaned:
            owner, sharers = None, frozenset((owner,))
        gone, latched = txn.dropped, self.latched
        if owner in gone or owner in latched:
            owner = None
        if sharers and (gone or latched):
            sharers = sharers.difference(gone, latched)
        return owner, sharers

    def apply(self, txn: Transaction) -> None:
        """Write what ``txn`` recorded into its page's entry: the one place
        a transaction mutates the directory, called once on every exit path.

        The recorded effects land first (:meth:`settled`), then the grant,
        unless its node is latched; an idle page keeps no entry."""
        owner, sharers = self.settled(txn)
        grant, node = txn.grant, txn.node
        if grant is not None and node not in self.latched:
            if grant is MSIState.SHARED:
                sharers = sharers | {node}
            else:
                owner, sharers = node, _NOBODY
        page = txn.page
        if owner is None and not sharers:
            self._entries.pop(page, None)
            return
        sharers = self._sets.setdefault(sharers, sharers)
        ent = self._entries.get(page)
        if ent is None:
            self._entries[page] = DirEntry(owner, sharers)
        else:
            ent.owner, ent.sharers = owner, sharers

    def commit(self, node: int, page: int, write: bool, exclusive: bool = False) -> None:
        """A whole transaction whose every planned action was acked
        (``exclusive``: an Exclusive read grant, idle entry only)."""
        txn = self.plan(node, page, write)
        if txn.already_granted:
            return
        if write:
            txn.dropped.extend(txn.invalidate)
            txn.grant = MSIState.MODIFIED
        else:
            txn.cleaned = txn.fetch_from
            txn.grant = MSIState.EXCLUSIVE if exclusive else MSIState.SHARED
        self.apply(txn)

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
                rest = ent.sharers - {node}
                ent.sharers = self._sets.setdefault(rest, rest)
                rehomed.append(page)
        return sorted(rehomed), sorted(lost)

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
            if ent.owner in self.latched or not ent.sharers.isdisjoint(self.latched):
                raise ProtocolError(f"page {page:#x}: latched node listed in {ent}")
