"""Pluggable page-coherence protocols behind the ``CoherencePolicy`` seam.

The master's :class:`~repro.core.services.coherence.CoherenceService` owns
the mechanics of every directory transaction — locks, invalidations,
write-backs, grants.  What *varies* between protocols is a small set of
per-page decisions, and this module isolates exactly those behind
:class:`CoherencePolicy` (ROADMAP "Adaptive coherence"):

* ``grant_exclusive`` — may a read fault that found the directory entry
  idle be granted Exclusive-clean instead of Shared?  (MESI.  The holder
  can then upgrade E→M locally with no master round trip.)
* ``upgrade_without_payload`` — may a write grant to a node that already
  holds the page Shared omit the 4 KiB payload?  (Any readable copy is
  current by protocol invariant, so the reply is a bare upgrade ack.)
* ``home_of`` — has the page's *home* been migrated to a node?  Requests
  from the home node are metadata-only for the master (the authoritative
  data already lives with the requester's store), so the
  service bills its fast-path service time instead of the full one.
* ``observe`` — per-request hook feeding the access-pattern stats that
  drive home migration and the adaptive classifier.

Four policies implement the seam:

``msi``       the paper's protocol; every hook is a no-op.  This is the
              default, and it must stay bit-identical: no policy state, no
              extra events, no wire changes.
``mesi``      Exclusive-clean grants + silent upgrades + payload-free
              S→M upgrade acks.
``migrate``   MESI plus home migration: a page whose last
              ``migration_trigger`` write acquisitions all came from one
              node gets its home migrated there.
``adaptive``  per-page protocol choice among the three, driven by a
              windowed classifier (read-mostly / single-writer /
              migratory / ping-pong) with two-confirmation hysteresis so
              pages don't flap.

Policies are plain bookkeeping objects — no simulator, no network — so the
protocol decisions stay property-testable in isolation, exactly like the
:class:`~repro.mem.directory.Directory` they sit beside.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "PROTOCOL_NAMES",
    "CoherencePolicy",
    "MESIPolicy",
    "MigrationPolicy",
    "AdaptivePolicy",
    "make_policy",
]

PROTOCOL_NAMES = ("msi", "mesi", "migrate", "adaptive")

# The master is node 0 throughout the runtime (see net.faults).  Its store
# IS every page's default home, so "migrating" a home to node 0 is a no-op
# at best — the policies never pick it as a migration target.
MASTER_NODE = 0


class CoherencePolicy:
    """Plain MSI: the paper's protocol.  Every hook is a no-op.

    Subclasses override the decision points; the service owns the
    transaction mechanics either way.
    """

    name = "msi"

    def observe(self, node: int, page: int, write: bool) -> tuple[Optional[int], bool]:
        """Record one page request against the per-page access pattern.

        Returns ``(new_home, reclassified)``: the node the page's home just
        migrated to (or ``None``), and whether the adaptive classifier
        switched the page's per-page protocol on this access.  Called by
        the service under the page's lock, before planning.
        """
        return None, False

    def grant_exclusive(self, node: int, page: int) -> bool:
        """Grant Exclusive instead of Shared on a read fault whose directory
        entry is idle (no owner, no sharers)?"""
        return False

    def upgrade_without_payload(self, node: int, page: int) -> bool:
        """May a write grant to a current sharer omit the page payload?"""
        return False

    def home_of(self, page: int) -> Optional[int]:
        """Node the page's home migrated to, or ``None`` (home = master)."""
        return None

    def evict_node(self, node: int) -> list[int]:
        """Forget a dead node's influence on policy state.

        Returns the pages whose migrated home lived on the dead node —
        their home reverts to the master (whose copy may be stale; the
        directory's eviction accounts the loss).  Write streaks and
        classifier stats naming the dead node are reset so a corpse can
        never become a migration target.
        """
        return []


class MESIPolicy(CoherencePolicy):
    """MESI: Exclusive-clean grants kill the first-write upgrade round trip."""

    name = "mesi"

    def grant_exclusive(self, node: int, page: int) -> bool:
        return True

    def upgrade_without_payload(self, node: int, page: int) -> bool:
        return True


class _PageClass:
    """One page's windowed access stats + current per-page protocol."""

    __slots__ = ("mode", "pending", "reads", "writes", "writers", "streak_node", "streak")

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.pending: Optional[str] = None
        self.reads = 0
        self.writes = 0
        self.writers: set[int] = set()
        self.streak_node: Optional[int] = None
        self.streak = 0


class AdaptivePolicy(CoherencePolicy):
    """Per-page protocol selection from online access-pattern stats.

    Every ``window`` requests a page is classified:

    * no writes in the window            → read-mostly  → ``msi``
      (Shared grants keep the home serving peer reads directly; an
      Exclusive holder would cost every second reader a write-back
      round trip)
    * one writer, write-dominated window → migratory    → ``migrate``
    * one writer otherwise               → single-writer → ``mesi``
    * several writers                    → ping-pong    → ``msi``
      (plain MSI; migration would flap and Exclusive grants buy nothing
      on a page that is invalidated on every handoff)

    A switch needs the same verdict on two consecutive windows
    (hysteresis); each performed switch counts as one reclassification.
    Pages classified ``migrate`` run dominant-writer home migration: a page
    whose last ``trigger`` write acquisitions all came from one node gets
    its home migrated to that node's store, so the node's
    subsequent faults on the page are metadata-only for the master (billed
    at the fast-path service time).  A different node writing resets the
    streak — and can later steal the home the same way.  Leaving the class
    reverts the page's home to the master.
    """

    name = "adaptive"
    #: Every page's class before its first verdict: single-writer, so the
    #: first reader gets an Exclusive grant and private pages win from
    #: their very first fault.
    start_mode = "mesi"

    def __init__(self, trigger: int, window: Optional[int]) -> None:
        self.trigger = trigger
        #: Requests between verdicts; None never reclassifies a page.
        self.window = window
        self._pages: dict[int, _PageClass] = {}
        self._homes: dict[int, int] = {}

    def _rec(self, page: int) -> _PageClass:
        rec = self._pages.get(page)
        if rec is None:
            rec = self._pages[page] = _PageClass(self.start_mode)
        return rec

    def observe(self, node: int, page: int, write: bool) -> tuple[Optional[int], bool]:
        rec = self._rec(page)
        new_home: Optional[int] = None
        if write:
            rec.writes += 1
            rec.writers.add(node)
            rec.streak = rec.streak + 1 if rec.streak_node == node else 1
            rec.streak_node = node
            if (
                rec.mode == "migrate"
                and rec.streak >= self.trigger
                and node != MASTER_NODE
                and self._homes.get(page) != node
            ):
                self._homes[page] = node
                new_home = node
        else:
            rec.reads += 1
        if self.window is None or rec.reads + rec.writes < self.window:
            return new_home, False
        verdict = self._classify(rec)
        rec.reads = rec.writes = 0
        rec.writers.clear()
        reclassified = False
        if verdict == rec.mode:
            rec.pending = None
        elif rec.pending == verdict:
            rec.mode = verdict
            rec.pending = None
            reclassified = True
            if verdict != "migrate":
                # Leaving the migratory class reverts the home to the master.
                self._homes.pop(page, None)
        else:
            rec.pending = verdict
        return new_home, reclassified

    def _classify(self, rec: _PageClass) -> str:
        if rec.writes == 0:
            return "msi"
        if len(rec.writers) == 1:
            # A steady single writer is worth a home migration even when
            # remote reads outnumber its writes: every one of its write
            # faults holds the master's manager for a full service slot,
            # so moving the home off the queue pays for the readers' extra
            # hop.  Only sparsely-written pages stay plain MESI.
            return "migrate" if rec.writes * 4 >= self.window else "mesi"
        return "msi"

    def _mode(self, page: int) -> str:
        rec = self._pages.get(page)
        return rec.mode if rec is not None else self.start_mode

    def grant_exclusive(self, node: int, page: int) -> bool:
        return self._mode(page) != "msi"

    def upgrade_without_payload(self, node: int, page: int) -> bool:
        # Safe under every per-page mode: any readable copy is current by
        # protocol invariant, so upgrade acks never need the payload.  Only
        # the fixed "msi" baseline keeps paying it (bit-identity).
        return True

    def home_of(self, page: int) -> Optional[int]:
        return self._homes.get(page)

    def evict_node(self, node: int) -> list[int]:
        reverted = sorted(p for p, h in self._homes.items() if h == node)
        for page in reverted:
            del self._homes[page]
        for rec in self._pages.values():
            rec.writers.discard(node)
            if rec.streak_node == node:
                rec.streak_node = None
                rec.streak = 0
        return reverted


class MigrationPolicy(AdaptivePolicy):
    """MESI + home migration toward each page's dominant writer: the
    adaptive policy with every page held in its ``migrate`` class."""

    name = "migrate"
    start_mode = "migrate"

    def __init__(self, trigger: int) -> None:
        super().__init__(trigger, window=None)


def make_policy(config) -> CoherencePolicy:
    """Policy instance for ``config.coherence_protocol`` (one per job's
    coherence service; its state is page-keyed)."""
    name = config.coherence_protocol
    if name == "msi":
        return CoherencePolicy()
    if name == "mesi":
        return MESIPolicy()
    if name == "migrate":
        return MigrationPolicy(config.migration_trigger)
    if name == "adaptive":
        return AdaptivePolicy(config.migration_trigger, config.adaptive_window)
    raise ValueError(f"unknown coherence protocol {name!r}")
