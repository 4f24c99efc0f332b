"""Manager-mailbox sharding on the master, and the per-tenant directory view.

With ``DQEMUConfig.master_shards = K`` the master runs K manager mailboxes
per node instead of one (docs/PROTOCOL.md "Sharded master"); all master
state stays one per job.  This module holds the two pieces of arithmetic
that follow from the mailbox split:

* :func:`shard_of` — the routing key.  Page ``p`` goes to mailbox
  ``p mod K``, so contiguous working sets (thread stacks, streamed
  buffers) spread across a node's managers instead of queueing in one.
* :class:`ShadowPageAllocator` — shadow-page numbering for page splitting
  (§5.1), one allocator per mailbox: a split page's shadows are numbered so
  that they route to the original page's mailbox.  With ``K == 1`` this is
  the plain cursor from ``SHADOW_BASE`` up.

:class:`TenantDirectoryView` maps each admitted job to its directory, for
tests and debugging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.mem.layout import PAGE_SIZE, SHADOW_BASE

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.directory import Directory

__all__ = [
    "shard_of",
    "ShadowPageAllocator",
    "TenantDirectoryView",
]


def shard_of(page: int, nshards: int) -> int:
    """Mailbox serving ``page``: a total, deterministic partition of page space.

    Interleaved page ranges — page ``p`` maps to mailbox ``p mod K`` — so
    every page belongs to exactly one mailbox and contiguous ranges
    distribute round-robin across them.
    """
    if nshards < 1:
        raise ConfigError("nshards must be >= 1")
    return page % nshards


class ShadowPageAllocator:
    """Shadow-page numbering for one mailbox (splitting §5.1).

    Mailbox ``s`` allocates shadow pages from the probe region above
    ``SHADOW_BASE``, restricted to page numbers that :func:`shard_of` maps
    back to ``s`` — so a shadow always routes to its original page's
    mailbox.  With one mailbox this is the plain cursor (``SHADOW_BASE`` up,
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


class TenantDirectoryView:
    """Tenant-keyed registry of per-job directories.

    A multi-tenant fleet runs one master, and so one directory, *per
    admitted job* — tenants share nodes and wires, never directory state.
    This view maps a tenant id to that job's
    :class:`~repro.mem.directory.Directory`, giving tests and debuggers one
    handle over the whole fleet's page ownership without ever letting one
    tenant's queries observe another's.
    """

    def __init__(self) -> None:
        self._directories: dict[int, "Directory"] = {}

    def add_tenant(self, tenant: int, directory: "Directory") -> None:
        if tenant in self._directories:
            raise ConfigError(f"tenant {tenant} already registered")
        self._directories[tenant] = directory

    def remove(self, tenant: int) -> None:
        """Forget a retired tenant's directory."""
        del self._directories[tenant]

    def for_tenant(self, tenant: int) -> "Directory":
        try:
            return self._directories[tenant]
        except KeyError:
            raise ConfigError(f"unknown tenant {tenant}") from None

    def tenants(self) -> tuple[int, ...]:
        return tuple(sorted(self._directories))

    def check_invariants(self) -> None:
        for directory in self._directories.values():
            directory.check_invariants()
