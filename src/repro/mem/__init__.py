"""Memory substrate: layout, page stores, MSI states, flat memory, DSM directory."""

from repro.mem.api import M64, MemoryAPI, PageStall, check_span, sign_extend
from repro.mem.flat import FlatMemory
from repro.mem.layout import (
    MMAP_BASE,
    PAGE_SIZE,
    SHADOW_BASE,
    STACK_TOP,
    TEXT_BASE,
    page_base,
    page_of,
    page_offset,
)
from repro.mem.msi import MSIState
from repro.mem.pagestore import PageStore
from repro.mem.protocols import (
    PROTOCOL_NAMES,
    AdaptivePolicy,
    CoherencePolicy,
    MESIPolicy,
    MigrationPolicy,
    make_policy,
)
from repro.mem.sharding import ShadowPageAllocator, shard_of

__all__ = [
    "AdaptivePolicy",
    "CoherencePolicy",
    "FlatMemory",
    "M64",
    "MESIPolicy",
    "MMAP_BASE",
    "MSIState",
    "MemoryAPI",
    "MigrationPolicy",
    "PAGE_SIZE",
    "PROTOCOL_NAMES",
    "PageStall",
    "PageStore",
    "SHADOW_BASE",
    "STACK_TOP",
    "ShadowPageAllocator",
    "TEXT_BASE",
    "check_span",
    "make_policy",
    "page_base",
    "page_of",
    "page_offset",
    "shard_of",
    "sign_extend",
]
