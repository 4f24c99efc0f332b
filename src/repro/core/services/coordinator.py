"""Cross-shard coordinator for the sharded master (ROADMAP "Async / sharded
master"; see docs/PROTOCOL.md "Sharded master").

With ``DQEMUConfig.master_shards == K`` the master runs K independent shard
pools, each owning the pages with ``page % K == shard`` (see
:func:`repro.mem.sharding.shard_of`): its own directory partition,
split-table partition, per-page locks, and per-node manager processes.
Almost all protocol work is shard-local by construction — a page request,
its invalidations, and a split/merge's whole lock set (shadow pages are
shard-affine) touch exactly one shard.

The operations that are *not* shard-local funnel through this coordinator:

* **Split-table broadcasts.**  Every node holds one full copy of the split
  table and ``SplitTableUpdate`` replaces it wholesale, so a broadcast must
  carry the union of all shards' entries and two shards must not interleave
  broadcasts (a stale union could resurrect a just-merged page on the
  nodes).  The coordinator serializes broadcasts behind one lock and
  snapshots the union while holding it.
* **Cross-shard page lookups.**  Shared services that span the page space —
  the read-ahead forwarder, the kernel's guest-memory accessor, global
  syscalls touching multi-page buffers, futex wakes triggered by pages on
  any shard — resolve each page to its owning shard's coherence/splitting
  service here, one page at a time.  No path ever holds page locks on two
  shards at once, which is what keeps the single-shard deadlock-freedom
  argument valid cluster-wide.

With ``K == 1`` every helper degenerates to direct calls on the single
shard, and the broadcast path runs exactly the unsharded code (no lock
acquisition — even an uncontended SimLock schedules an extra simulator
event, which would perturb event ordering and break the bit-identical
reproduction of existing runs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.mem.sharding import shard_of
from repro.net.messages import SplitTableUpdate
from repro.sim.sync import SimLock

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime
    from repro.core.services.coherence import CoherenceService
    from repro.core.services.splitting import SplittingService
    from repro.mem.splitmap import SplitEntry

__all__ = ["CrossShardCoordinator"]


class CrossShardCoordinator:
    """Routes per-page operations to their shard and orders cross-shard ones."""

    def __init__(self, master: "MasterRuntime") -> None:
        self.master = master
        self.nshards = master.config.master_shards
        # Broadcast serialization: only needed (and only constructed) for
        # K > 1 — see the module docstring on why K == 1 must not lock.
        self._broadcast_lock: Optional[SimLock] = (
            SimLock(master.sim) if self.nshards > 1 else None
        )

    # -- per-page shard resolution -------------------------------------------

    def shard_of(self, page: int) -> int:
        return shard_of(page, self.nshards)

    def coherence_of(self, page: int) -> "CoherenceService":
        return self.master.shards[shard_of(page, self.nshards)].coherence

    def splitting_of(self, page: int) -> "SplittingService":
        return self.master.shards[shard_of(page, self.nshards)].splitting

    def split_entry(self, page: int) -> Optional["SplitEntry"]:
        return self.splitting_of(page).entry(page)

    def split_retired(self, page: int) -> bool:
        return self.splitting_of(page).is_retired(page)

    # -- cross-shard split-table broadcast -------------------------------------

    def split_table_snapshot(self) -> tuple["SplitEntry", ...]:
        """Union of every shard's split-table entries (deterministic order)."""
        shards = self.master.shards
        if self.nshards == 1:
            return shards[0].splitting.split.clone_state()
        entries: list["SplitEntry"] = []
        for shard in shards:
            entries.extend(shard.splitting.split.clone_state())
        entries.sort(key=lambda e: e.orig_page)
        return tuple(entries)

    def broadcast_split_table(self, via: "SplittingService"):
        """Push the full (union) split table to every node, serialized.

        Nodes replace their whole table on each ``SplitTableUpdate``, so
        concurrent broadcasts from two shards must not interleave: the later
        frame would clobber the earlier shard's change with a stale union.
        The caller still holds its shard's page locks for the split/merge
        being published — broadcast order is therefore also the publication
        order of table changes.  ``via`` is the *calling* splitting service:
        the coordinator orders the broadcast, the shard's service issues the
        frames and owns the traffic (its retry policy, its counter sink).
        """
        lock = self._broadcast_lock
        if lock is not None:  # K == 1 has none: see the module docstring
            yield lock.acquire()
        try:
            entries = self.split_table_snapshot()
            # A node that dies with the broadcast in flight must not abort
            # the split/merge — its table copy dies with it, nothing is billed.
            acks, _skipped = yield from via.gather(
                via.live(self.master.node_ids),
                lambda _n: SplitTableUpdate(entries=entries),
            )
            return acks
        finally:
            if lock is not None:
                lock.release()
