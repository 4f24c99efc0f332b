"""Master false-sharing service: page splitting and merge-back (paper §5.1).

Owns its shard's slice of the canonical split table, the false-sharing
detector, the shard-affine shadow-page allocator, and the adaptive-revert
state.  Write traffic is fed in by the shard's coherence service
(:meth:`SplittingService.observe_write`); region-crossing accesses arrive as
``merge_request`` frames routed to the original page's shard.

Shadow pages are allocated shard-affine (a split page's shadows live on the
original's shard — :class:`~repro.mem.sharding.ShadowPageAllocator`), so the
entire split/merge lock set stays inside one shard; split-table broadcasts,
the one genuinely cross-shard operation, go through the
:class:`~repro.core.services.coordinator.CrossShardCoordinator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.services.base import MasterService
from repro.core.splitting import FalseSharingDetector, SplitDecision
from repro.errors import ProtocolError
from repro.mem.layout import PAGE_SIZE
from repro.mem.sharding import ShadowPageAllocator, shard_of
from repro.mem.splitmap import SplitEntry, SplitMap
from repro.net.messages import Ack

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime, MasterShard

__all__ = ["SplittingService"]


class SplittingService(MasterService):
    name = "splitting"
    handled_kinds = frozenset({"merge_request"})

    def __init__(self, master: "MasterRuntime", shard: "MasterShard") -> None:
        super().__init__(master)
        self.shard = shard
        self.split = SplitMap()  # this shard's slice of the canonical table
        self.detector = FalseSharingDetector(trigger=self.config.splitting_trigger)
        self._shadows = ShadowPageAllocator(shard.shard, self.config.master_shards)
        self._retired_shadows: set[int] = set()
        # Adaptive revert (§5.1 "adaptive scheme"): a split whose shadow pages
        # keep ping-ponging was mis-inferred; merge it back and never re-split.
        self._shadow_conflicts: dict[int, tuple[int, int, int]] = {}  # shadow -> (node, off, n)
        self._split_blacklist: set[int] = set()
        self._merging: set[int] = set()

    # -- split-table queries (coherence fast paths, guest-memory spans) ---------

    def entry(self, page: int):
        return self.split.entry(page)

    def is_retired(self, page: int) -> bool:
        return page in self._retired_shadows

    # -- detection (fed by the coherence service on write faults) ---------------

    def observe_write(self, page: int, node: int, offset: int, size: int):
        """Feed one write fault to the detector; returns True if the page was
        split (the triggering request must then be answered with a retry)."""
        shadow_of = self.split.shadow_to_orig(page)
        if shadow_of is not None:
            self._track_shadow_conflict(page, shadow_of[0], node, offset)
        elif page not in self._split_blacklist:
            decision = self.detector.record(page, node, offset, size)
            if decision is not None:
                yield from self._do_split(decision)
                return True
        return False

    # -- page splitting (§5.1) ------------------------------------------------------

    def _alloc_shadow(self) -> int:
        """Next shadow page on *this shard* (shard-affine by construction)."""
        return self._shadows.alloc()

    def _do_split(self, decision: SplitDecision):
        """Caller holds the original page's lock."""
        cfg = self.config
        co = self.shard.coherence
        page = decision.page
        owner = shard_of(page, cfg.master_shards)
        if owner != self.shard.shard:
            raise ProtocolError(
                f"split of page {page:#x} routed to shard {self.shard.shard} "
                f"(owner is shard {owner})"
            )
        yield self.sim.sleep(cfg.cost.split_service_ns)
        yield from co.pull_home_and_invalidate(page)
        content = co.home_snapshot(page)
        shadows = tuple(self._alloc_shadow() for _ in range(decision.regions))
        for s in shadows:
            # Each shadow page carries the region at its original offset; we
            # copy the whole page so offsets line up (Fig. 4) — only the
            # region's bytes are ever authoritative.
            co.home_install(s, content)
        self.split.install(
            SplitEntry(orig_page=page, shadow_pages=shadows, region_bytes=decision.region_bytes)
        )
        # Cross-shard: nodes replace their whole table per update, so the
        # coordinator unions every shard's entries and serializes broadcasts.
        yield from self.master.coordinator.broadcast_split_table(via=self)
        self.detector.forget(page)
        self.trace.emit(
            "split", self.node_id,
            f"split into {decision.regions} x {decision.region_bytes}B shadows",
            page=page,
        )
        self.run_stats.protocol.splits += 1

    # -- merging (correctness escape hatch for region-crossing accesses) ----------

    def _track_shadow_conflict(self, shadow: int, orig: int, node: int, offset: int) -> None:
        """Count cross-node write ping-pong on a shadow page; past the
        trigger, schedule a merge + blacklist (the split was mis-inferred)."""
        last_node, last_off, n = self._shadow_conflicts.get(shadow, (-1, -1, 0))
        if last_node >= 0 and node != last_node and offset != last_off:
            n += 1
        self._shadow_conflicts[shadow] = (node, offset, n)
        if n >= self.config.splitting_trigger and orig not in self._merging:
            self._merging.add(orig)
            self._split_blacklist.add(orig)
            self.trace.emit(
                "split", self.node_id,
                "shadow still ping-ponging: revert + blacklist", page=orig,
            )
            self.master.spawn(
                self._merge_and_release(orig), f"revert-split@{orig:#x}"
            )

    def _merge_and_release(self, orig: int):
        try:
            yield from self._do_merge(orig)
        finally:
            self._merging.discard(orig)

    def _do_merge(self, orig: int):
        """Merge a split page's shadows back into the original (locks the
        original and every shadow in sorted order; single-lock managers and
        disjoint merge lock-sets cannot deadlock against this)."""
        co = self.shard.coherence
        entry = self.split.entry(orig)
        if entry is None:
            return
        pages = sorted([orig, *entry.shadow_pages])
        locks = co.locks
        for p in pages:
            yield locks.acquire(p)
        try:
            if self.split.entry(orig) is None:
                return  # merged concurrently
            yield self.sim.sleep(self.config.cost.merge_service_ns)
            rb = entry.region_bytes
            for k, shadow in enumerate(entry.shadow_pages):
                yield from co.pull_home_and_invalidate(shadow)
                region = co.home_bytes(shadow * PAGE_SIZE + k * rb, rb)
                co.home_write(orig * PAGE_SIZE + k * rb, region)
                self._retired_shadows.add(shadow)
                self._shadow_conflicts.pop(shadow, None)
            self.split.remove(orig)
            yield from self.master.coordinator.broadcast_split_table(via=self)
            self.trace.emit("split", self.node_id, "merged back", page=orig)
            self.run_stats.protocol.merges += 1
        finally:
            for p in reversed(pages):
                locks.release(p)

    # -- merge requests (wire-facing) -----------------------------------------

    def handle(self, msg):
        yield from self._do_merge(msg.page)
        # A guest access straddled the regions: this page must stay whole.
        self._split_blacklist.add(msg.page)
        self.endpoint.reply(msg, Ack())
