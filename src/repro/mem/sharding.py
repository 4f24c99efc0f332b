"""Page-range sharding of the master directory (ROADMAP "Async / sharded master").

The master's MSI directory is the serialization point of the whole cluster:
every page request funnels through one manager per node into a single
dispatcher over one global :class:`~repro.mem.directory.Directory`.  This
module provides the partitioning math that lets the master run K independent
*shard pools* instead, each owning a disjoint slice of the page space:

* :func:`shard_of` — the routing key.  Page ranges are interleaved across
  shards (page ``p`` belongs to shard ``p mod K``), so contiguous working
  sets (thread stacks, streamed buffers) spread across pools instead of
  hammering one.
* :class:`ShadowPageAllocator` — shard-affine shadow-page numbering for page
  splitting (§5.1).  A split page's shadows MUST live on the original page's
  shard: the merge path locks the original and all shadows together, and
  keeping that lock set inside one shard preserves the single-shard
  deadlock-freedom argument (see docs/PROTOCOL.md).
* :class:`ShardedDirectoryView` / :class:`ShardedSplitView` — one object
  over the per-shard partitions, for tests and debugging.

With ``K == 1`` every helper degenerates to the unsharded behavior
bit-for-bit: one shard, the legacy shadow cursor, the underlying directory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigError
from repro.mem.layout import PAGE_SIZE, SHADOW_BASE

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.directory import Directory
    from repro.mem.splitmap import SplitEntry, SplitMap

__all__ = [
    "shard_of",
    "ShadowPageAllocator",
    "ShardedDirectoryView",
    "ShardedSplitView",
    "TenantDirectoryView",
]


def shard_of(page: int, nshards: int) -> int:
    """Shard owning ``page``: a total, deterministic partition of page space.

    Interleaved page ranges — page ``p`` maps to shard ``p mod K`` — so every
    page belongs to exactly one shard and contiguous ranges distribute
    round-robin across the pools.
    """
    if nshards < 1:
        raise ConfigError("nshards must be >= 1")
    return page % nshards


class ShadowPageAllocator:
    """Shard-affine shadow-page numbering (splitting §5.1).

    Shard ``s`` allocates shadow pages from the probe region above
    ``SHADOW_BASE``, restricted to page numbers that :func:`shard_of` maps
    back to ``s`` — so a shadow always lands on its original page's shard.
    With one shard this is exactly the legacy cursor (``SHADOW_BASE`` up,
    step 1).
    """

    def __init__(self, shard: int, nshards: int,
                 base_page: int = SHADOW_BASE // PAGE_SIZE):
        if not 0 <= shard < nshards:
            raise ConfigError(f"shard {shard} out of range for {nshards} shards")
        self.shard = shard
        self.nshards = nshards
        self._cursor = base_page + (shard - base_page) % nshards
        assert shard_of(self._cursor, nshards) == shard

    def alloc(self) -> int:
        page = self._cursor
        self._cursor += self.nshards
        return page


class ShardedDirectoryView:
    """One job's per-shard directory partitions as one object: what a test
    walks (``shards``) and checks (:meth:`check_invariants`).  Reads go
    through a shard's own directory; mutations stay shard-local by design."""

    def __init__(self, directories: Iterable["Directory"]):
        self.shards: list["Directory"] = list(directories)
        if not self.shards:
            raise ConfigError("ShardedDirectoryView needs at least one shard")

    def check_invariants(self) -> None:
        for directory in self.shards:
            directory.check_invariants()


class TenantDirectoryView:
    """Tenant-keyed registry of per-job directory views.

    A multi-tenant fleet runs one full shard-pool set *per admitted job* —
    tenants share nodes and wires, never directory state.  This view maps a
    tenant id to that job's merged :class:`ShardedDirectoryView`, giving
    tests and debuggers one handle over the whole fleet's page ownership
    without ever letting one tenant's queries observe another's partitions.
    """

    def __init__(self) -> None:
        self._views: dict[int, ShardedDirectoryView] = {}

    def add_tenant(self, tenant: int, directories: Iterable["Directory"]) -> None:
        if tenant in self._views:
            raise ConfigError(f"tenant {tenant} already registered")
        self._views[tenant] = ShardedDirectoryView(directories)

    def remove(self, tenant: int) -> None:
        """Forget a retired tenant's view."""
        del self._views[tenant]

    def for_tenant(self, tenant: int) -> ShardedDirectoryView:
        try:
            return self._views[tenant]
        except KeyError:
            raise ConfigError(f"unknown tenant {tenant}") from None

    def tenants(self) -> tuple[int, ...]:
        return tuple(sorted(self._views))

    def check_invariants(self) -> None:
        for view in self._views.values():
            view.check_invariants()


class ShardedSplitView:
    """Read-only merged view over the per-shard split-table partitions."""

    def __init__(self, splitmaps: Iterable["SplitMap"]):
        self.shards: list["SplitMap"] = list(splitmaps)
        if not self.shards:
            raise ConfigError("ShardedSplitView needs at least one shard")

    def entry(self, page: int) -> Optional["SplitEntry"]:
        return self.shards[shard_of(page, len(self.shards))].entry(page)

    def entries(self) -> tuple["SplitEntry", ...]:
        out: list["SplitEntry"] = []
        for sm in self.shards:
            out.extend(sm.entries())
        return tuple(out)

    def shadow_to_orig(self, page: int):
        # Shadow pages are shard-affine, so the owning shard answers.
        return self.shards[shard_of(page, len(self.shards))].shadow_to_orig(page)
