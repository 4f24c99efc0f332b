"""Master read-ahead service: sequential-stream data forwarding (paper §5.2).

Owns the per-(node, stream) read-ahead state; the coherence service feeds
it every served read fault.  Detected streams spawn a dedicated *pusher*
process per batch so the manager keeps serving demand requests; pushes are
paced against the target's downlink backlog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.forwarding import ReadAheadEngine
from repro.core.services.base import MasterService
from repro.mem.msi import MSIState
from repro.net.messages import PagePush

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime

__all__ = ["ForwardingService"]


class ForwardingService(MasterService):
    name = "forwarding"
    handled_kinds = frozenset()  # internal: driven by the coherence service
    originates_requests = False  # pushes are fire-and-forget sends

    def __init__(self, master: "MasterRuntime") -> None:
        super().__init__(master)
        config = self.config
        self.readahead = ReadAheadEngine(
            initial_window=config.forwarding_initial_window,
            max_window=config.forwarding_max_window,
        )

    # -- stream detection (fed by the coherence service on read grants) ---------

    def note_read(self, node: int, page: int) -> None:
        """Record a served read fault; spawn a pusher if a stream triggers."""
        pushes = self.readahead.record(node, page)
        if pushes:
            # Pushes run in their own process so the manager can keep
            # serving this node's demand requests.
            stats = self.run_stats.service(self.name)
            stats.requests += 1
            self.master.spawn(self._pusher(node, pushes), f"pusher->{node}")

    def _pusher(self, node: int, pages: list[int]):
        """Forward pages ahead of a detected sequential stream (§5.2).

        Pushes are paced against the target's downlink backlog so a demand
        reply never queues behind a long push burst, and each page's
        directory transaction + send is atomic under the page lock (an Invalidate
        racing a push must be ordered after it on the wire).
        """
        co = self.master.coherence
        splitting = self.master.splitting
        proto = self.run_stats.protocol
        stats = self.run_stats.service(self.name)
        fabric = self.endpoint.fabric
        t0 = self.sim.now
        # Let the push frontier run well ahead of consumption (the paper's
        # 1 GB walk approaches wire speed), while still bounding how long a
        # demand reply can sit behind queued pushes.
        pace_cap = 12 * fabric.serialization_ns(4096)
        try:
            for p in pages:
                backlog = fabric.downlink_backlog_ns(node)
                if backlog > pace_cap:
                    yield self.sim.sleep(backlog - pace_cap)
                yield co.locks.acquire(p)
                # A push is a read grant that needs no action: none planned
                # (a Modified copy elsewhere would need one) and not held yet.
                txn = co.directory.plan(node, p, write=False)
                try:
                    if txn.fetch_from is not None or txn.already_granted:
                        continue
                    if splitting.entry(p) is not None or splitting.is_retired(p):
                        continue
                    yield self.sim.sleep(self.config.cost.forwarding_push_ns)
                    txn.grant = MSIState.SHARED
                    self.trace.emit("push", node, "forwarded", page=p)
                    self.send(node, PagePush(page=p, data=co.home_snapshot(p)))
                    proto.pages_forwarded += 1
                finally:
                    co.directory.apply(txn)
                    co.locks.release(p)
        finally:
            stats.busy_ns += self.sim.now - t0
