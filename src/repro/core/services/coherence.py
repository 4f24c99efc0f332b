"""Master coherence service: page directory + coherence transactions (§4.2).

Owns the authoritative *home* copies, the page directory, and the per-page
locks every coherence transaction serializes on.  Handles ``page_request``
frames and exposes the kernel-facing page-ownership helpers (§4.3
pointer-argument migration) used by the syscall service's guest-memory
accessor.

The transaction *mechanics* (locks, invalidations, write-backs, grants)
live here and are protocol-independent; the per-page protocol *decisions*
— Exclusive-clean grants, payload-free upgrade acks, home migration, the
adaptive classifier — sit behind the
:class:`~repro.mem.protocols.CoherencePolicy` seam selected by
``DQEMUConfig.coherence_protocol`` (docs/PROTOCOL.md "Coherence
protocols").  The default MSI policy is all no-ops, keeping every default
run's event schedule and wire traffic bit-identical to the pre-seam
protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.core.services.base import MasterService
from repro.mem.directory import Directory
from repro.mem.layout import PAGE_SIZE, page_of, page_offset
from repro.mem.msi import MSIState
from repro.mem.pagestore import ZERO_PAGE
from repro.mem.protocols import make_policy
from repro.net.messages import Invalidate, PageData, WriteBack
from repro.sim.sync import LockTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime

__all__ = ["CoherenceService", "CoherentGuestMemory"]

#: Requester of the master's own transactions: no node, so every holder is
#: acted on (node 0's guest copy is not the home copy).
KERNEL = -1


class CoherentGuestMemory:
    """Kernel access to guest memory through the coherence protocol.

    Pointer-argument pages are migrated to the master before the syscall
    reads or writes them (§4.3): reads pull the freshest copy home (owner
    downgraded), writes invalidate every copy so slaves re-fetch.  A
    buffer spanning several pages is owned one page at a time.
    """

    def __init__(self, master: "MasterRuntime"):
        self.master = master

    def _spans(self, addr: int, size: int):
        """Split [addr, addr+size) into translated (taddr, length) chunks that
        stay within one page and one split region."""
        pos = addr
        end = addr + size
        while pos < end:
            page = page_of(pos)
            off = page_offset(pos)
            entry = self.master.splitting.entry(page)
            if entry is not None:
                step = min(end - pos, entry.region_bytes - off % entry.region_bytes)
                taddr = entry.shadow_pages[off // entry.region_bytes] * PAGE_SIZE + off
            else:
                step = min(end - pos, PAGE_SIZE - off)
                taddr = pos
            yield taddr, step
            pos += step

    def read_guest(self, addr: int, size: int) -> Generator:
        co = self.master.coherence
        out = bytearray()
        for taddr, step in list(self._spans(addr, size)):
            yield from co.own_page_for_read(page_of(taddr))
            out += co.home_bytes(taddr, step)
        return bytes(out)

    def write_guest(self, addr: int, data: bytes) -> Generator:
        co = self.master.coherence
        pos = 0
        for taddr, step in list(self._spans(addr, len(data))):
            yield from co.own_page_for_write(page_of(taddr))
            co.home_write(taddr, data[pos : pos + step])
            pos += step
        return None


class CoherenceService(MasterService):
    name = "coherence"
    handled_kinds = frozenset({"page_request"})

    def __init__(self, master: "MasterRuntime") -> None:
        super().__init__(master)
        self.home = master.home
        # A node the failure view latched is never listed (Directory.apply).
        self.directory = Directory(self.view.failed if self.view is not None else ())
        # Per-page protocol decisions (docs/PROTOCOL.md "Coherence
        # protocols").  The default MSI policy is stateless no-ops —
        # bit-identical behavior.
        self.policy = make_policy(self.config)
        #: Per-page serialization: every coherence transaction on a page
        #: holds its lock; the table keeps only the pages locked now.
        self.locks = LockTable(self.sim)

    # -- failure-domain degradation (docs/PROTOCOL.md "Failure domains") -------

    def evict_node(self, node: int) -> tuple[list[int], list[int]]:
        """Drop a dead node from the directory (re-homing).

        Policy state goes first: pages whose migrated home lived on the
        dead node revert to the master's home copy (the directory pass
        below accounts any data loss — a dead home held its page Modified,
        so it lands in *lost*), and access-pattern stats naming the dead
        node are reset so it can never be chosen as a migration target
        again.  Exclusive-clean copies on the dead node are owner-tracked
        and counted lost conservatively (see ``Directory.evict_node``).
        """
        for page in self.policy.evict_node(node):
            self.trace.emit("page", node, "home reverted to master", page=page)
        return self.directory.evict_node(node)

    def _pull(self, txn):
        """Bring ``txn.fetch_from``'s copy home: a write invalidates it, a
        read writes it back and leaves it Shared.  The effect is recorded in
        ``txn`` when the ack lands, any dirty data folded into the home copy
        (a clean Exclusive holder acks without payload).  A latched owner is
        not asked (its copy died with it, a lost page counted at eviction)
        but recorded dropped; one that dies mid-call is billed the same."""
        peer, page = txn.fetch_from, txn.page
        proto = self.run_stats.protocol
        ack = None
        if self._dead(peer):
            txn.dropped.append(peer)
        elif txn.write:
            ack = yield from self.ask(peer, Invalidate(page=page, want_data=True))
            proto.invalidations += 1
        else:
            ack = yield from self.ask(peer, WriteBack(page=page))
            proto.downgrades += 1
        if ack is None:
            proto.dead_peer_skips += 1
            return
        if txn.write:
            txn.dropped.append(peer)
        else:
            txn.cleaned = peer
        if ack.data is not None:
            self.home_install(page, ack.data)

    def _invalidate(self, txn, peers):
        """Invalidate ``txn.page`` on every live peer (pulling
        ``txn.fetch_from``'s data home), billing the dead ones and recording
        each acked copy as dropped; returns the peers that were asked."""
        page = txn.page
        proto = self.run_stats.protocol
        live = self.live(peers)
        proto.dead_peer_skips += len(peers) - len(live)
        if live:
            acks, skipped = yield from self.gather(
                live, lambda n: Invalidate(page=page, want_data=(n == txn.fetch_from)),
                landed=lambda ack: txn.dropped.append(ack.src),
            )
            proto.dead_peer_skips += skipped
            for ack in acks:
                if ack.data is not None:
                    self.home_install(page, ack.data)
            proto.invalidations += len(live)
        return live

    # -- home-copy helpers ------------------------------------------------------

    def _home_page(self, page: int) -> None:
        if page not in self.home:
            self.home.ensure(page, MSIState.SHARED)

    def home_bytes(self, addr: int, size: int) -> bytes:
        self._home_page(page_of(addr))
        return self.home.read_bytes(addr, size)

    def home_write(self, addr: int, data: bytes) -> None:
        self._home_page(page_of(addr))
        self.home.write_bytes(addr, data)

    def home_install(self, page: int, data: bytes) -> None:
        self.home.install(page, data, MSIState.SHARED)

    def home_snapshot(self, page: int) -> bytes:
        if page not in self.home:
            return ZERO_PAGE  # never written: nothing to materialise
        return self.home.snapshot(page)

    # -- kernel page ownership (syscall pointer arguments, §4.3) -----------------

    def own_page_for_read(self, page: int):
        """Pull the owner's copy home and leave it Shared (a transaction of
        the master's that grants nobody)."""
        yield self.locks.acquire(page)
        txn = self.directory.plan(KERNEL, page, write=False)
        try:
            if txn.fetch_from is not None:
                yield from self._pull(txn)
        finally:
            self.directory.apply(txn)
            self.locks.release(page)

    def own_page_for_write(self, page: int):
        yield self.locks.acquire(page)
        try:
            yield from self.pull_home_and_invalidate(page)
        finally:
            self.locks.release(page)

    def pull_home_and_invalidate(self, page: int):
        """Invalidate every copy, pulling the owner's data home first (a
        master write that grants nobody).

        Caller holds the page's lock."""
        txn = self.directory.plan(KERNEL, page, write=True)
        try:
            asked = yield from self._invalidate(txn, txn.invalidate)
        finally:
            self.directory.apply(txn)
        for n in asked:
            self.trace.emit("page", n, "invalidate", page=page)

    # -- page requests (§4.2) ------------------------------------------------------

    def handle(self, msg):
        cfg = self.config
        splitting = self.master.splitting
        page, node, write = msg.page, msg.src, msg.write
        proto = self.run_stats.protocol
        txn = None  # opened once the request is served, not answered early
        yield self.locks.acquire(page)
        try:
            proto.page_requests += 1
            if write:
                proto.write_requests += 1
            else:
                proto.read_requests += 1

            # Fast path: a read fault that raced a forwarded page — the
            # directory already lists the node as sharer, so this is a cheap
            # directory-lookup ack (home is fresh for any shared page).
            if (
                not write
                and splitting.entry(page) is None
                and self.directory.plan(node, page, write=False).already_granted
            ):
                yield self.sim.sleep(cfg.cost.dsm_fast_service_ns)
                # No payload: the node's copy arrived via PagePush already.
                self.trace.emit("page", node, "fast-ack (already sharer)", page=page)
                self.endpoint.reply(msg, PageData(page=page, write=False, ack_only=True))
                return

            home = self.policy.home_of(page)
            if home == node:
                # The page's home migrated to the requester: the
                # authoritative copy already lives with the node, so the
                # master's part is a metadata-only directory transaction
                # billed at the fast-path service time.
                proto.home_local_hits += 1
                yield self.sim.sleep(cfg.cost.dsm_fast_service_ns)
            elif home is not None:
                # Home migrated to SOME OTHER node: the master must reach
                # the remote home for the authoritative copy — an extra hop
                # on top of the normal service.  Migration only pays while
                # the new home stays the dominant requester.
                proto.home_remote_misses += 1
                yield self.sim.sleep(cfg.cost.dsm_service_ns + cfg.cost.migration_penalty_ns)
            else:
                yield self.sim.sleep(cfg.cost.dsm_service_ns)

            # Requests racing a split/merge retry against the new table.
            if splitting.entry(page) is not None or splitting.is_retired(page):
                proto.split_retry_replies += 1
                self.endpoint.reply(msg, PageData(page=page, retry=True))
                return

            # False-sharing detection on write traffic (§5.1) lives in the
            # splitting service; a performed split answers with a retry.
            if cfg.splitting_enabled and write:
                did_split = yield from splitting.observe_write(
                    page, node, msg.offset, msg.size
                )
                if did_split:
                    proto.split_retry_replies += 1
                    self.endpoint.reply(msg, PageData(page=page, retry=True))
                    return

            # Feed the access-pattern stats behind the policy seam; a write
            # streak may migrate the page's home, the adaptive classifier
            # may switch the page's per-page protocol.  No-ops under MSI.
            was_sharer = node in self.directory.sharers(page)
            new_home, reclassified = self.policy.observe(node, page, write)
            if new_home is not None:
                proto.home_migrations += 1
                self.trace.emit("page", new_home, "home migrated", page=page)
            if reclassified:
                proto.adaptive_reclassifications += 1

            txn = self.directory.plan(node, page, write)
            if txn.fetch_from is not None:
                yield from self._pull(txn)
            others = [n for n in txn.invalidate if n != txn.fetch_from]
            if others:
                yield from self._invalidate(txn, others)

            if self._dead(node):
                # The requester died while we were serving it: no reply, and
                # apply keeps what was done but refuses the grant.
                proto.dead_peer_skips += 1
                return
            if write:
                if was_sharer:
                    proto.write_upgrades += 1
                txn.grant = MSIState.MODIFIED
                if was_sharer and self.policy.upgrade_without_payload(node, page):
                    # The requester's Shared copy is current by protocol
                    # invariant (no invalidate can be in flight to it while
                    # the directory lists it as sharer under this page's
                    # lock) — so the grant is a payload-free upgrade ack.
                    proto.upgrade_acks += 1
                    self.trace.emit("page", node, "grant M (upgrade ack)", page=page)
                    self.endpoint.reply(msg, PageData(page=page, write=True, upgrade=True))
                    return
                self.trace.emit("page", node, "grant M", page=page)
                self.endpoint.reply(
                    msg, PageData(page=page, write=True, data=self.home_snapshot(page))
                )
                return
            # Read grant: a page nobody else holds once this transaction's
            # effects land (a dead owner given up on included) may be
            # granted Exclusive-clean under MESI-family policies.
            owner, sharers = self.directory.settled(txn)
            exclusive = owner is None and not sharers and self.policy.grant_exclusive(
                node, page
            )
            data = self.home_snapshot(page)
            txn.grant = MSIState.EXCLUSIVE if exclusive else MSIState.SHARED
            if exclusive:
                proto.exclusive_grants += 1
            self.trace.emit(
                "page", node, "grant E" if exclusive else "grant S", page=page
            )
            self.endpoint.reply(
                msg, PageData(page=page, write=False, data=data, exclusive=exclusive)
            )
        finally:
            if txn is not None:
                self.directory.apply(txn)
            self.locks.release(page)

        if cfg.forwarding_enabled and not write:
            self.master.forwarding.note_read(node, page)
