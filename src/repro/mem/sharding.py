"""Manager-mailbox sharding on the master.

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
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.layout import PAGE_SIZE, SHADOW_BASE

__all__ = ["shard_of", "ShadowPageAllocator"]


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

