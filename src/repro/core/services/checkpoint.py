"""Master checkpoint service (docs/PROTOCOL.md "Checkpoint/restore").

Every ``checkpoint_interval_ns`` of virtual time a slave snapshots a running
thread at a scheduling boundary (a quantum stop or a requeue after a resolved
fault/syscall — points where the context has no pending kernel interaction to
replay) — its register context plus byte-copies of every page the tenant
holds **Modified** on that node (the write-back barrier that makes the
snapshot a consistent cut; see ``NodeFailureDomain.capture`` in
:mod:`repro.core.services.nodeside` for the capture side).  This service is the master
half: it lands :class:`~repro.net.messages.Checkpoint` frames (context +
pages), keeps the newest snapshot per tid, and folds the flushed pages into
each page's home copy.

Consistent-cut rule for page installs: a flushed page is applied to the home
store only while the directory still records the *sender* as the page's
owner, under the page's shard coherence lock.  If ownership moved between
snapshot and arrival (an invalidate, a downgrade, a split, a migration), the
home already holds bytes at least as fresh as the snapshot — the stale flush
is skipped, never applied.  Ownership itself is never touched: the node keeps
writing its M copy, and post-snapshot writes flow through normal coherence.

Restore rides :class:`~repro.core.services.failure.FailureDomainService`:
on a crash, threads whose tid has a live snapshot are rolled back to it and
re-placed instead of reaped.

Registered on shard 0's dispatcher only when ``checkpoint_interval_ns`` is
set, so default runs create no stats row and stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.services.base import MasterService
from repro.net.messages import Ack

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime

__all__ = ["CheckpointService"]


class CheckpointService(MasterService):
    name = "checkpoint"
    handled_kinds = frozenset({"checkpoint"})
    originates_requests = False  # only receives

    def __init__(self, master: "MasterRuntime") -> None:
        super().__init__(master)
        # Newest snapshot per tid: tid -> (taken_ns, context).  Checkpointing
        # requires evacuation_enabled, which forces a single-job fleet, so
        # the store needs no tenant key.
        self.store: dict[int, tuple[int, Any]] = {}

    # -- snapshot store ---------------------------------------------------------

    def take(self, tid: int) -> Optional[tuple[int, Any]]:
        """Consume the stored snapshot for ``tid`` (restore is one-shot)."""
        return self.store.pop(tid, None)

    def _remember(self, tid: int, taken_ns: int, context: Any) -> None:
        prev = self.store.get(tid)
        if prev is None or prev[0] <= taken_ns:
            self.store[tid] = (taken_ns, context)

    # -- inbound frames ---------------------------------------------------------

    def _install_pages(self, src: int, pages):
        """Fold flushed page bytes into the home copies (consistent-cut rule:
        only while the sender still owns the page, under the page lock)."""
        proto = self.run_stats.protocol
        coherence_of = self.master.coordinator.coherence_of
        for page, data in pages:
            coherence = coherence_of(page)
            lock = coherence.lock(page)
            yield lock.acquire()
            try:
                if coherence.directory.owner(page) == src:
                    coherence.home_install(page, data)
                    proto.checkpoint_pages_flushed += 1
                else:
                    proto.checkpoint_stale_pages += 1
            finally:
                lock.release()

    def handle(self, msg):
        # A snapshot from a sender latched failed never gets here (the
        # dispatcher refuses it): it must not resurrect state that recovery
        # already rolled back or reaped.
        yield self.sim.sleep(self.config.cost.checkpoint_service_ns)
        yield from self._install_pages(msg.src, msg.pages)
        self._remember(msg.tid, msg.taken_ns, msg.context)
        self.run_stats.protocol.checkpoints_stored += 1
        self.endpoint.reply(msg, Ack())
