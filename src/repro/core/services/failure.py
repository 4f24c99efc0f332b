"""Master failure-domain service (docs/PROTOCOL.md "Failure domains").

Owns the cluster's reaction to a node leaving — by force (the health
tracker's detector confirms a crash) or by order (a scheduled drain):

* **Crash recovery** (``node_failed``, wired as a ``HealthTracker.on_down``
  callback): latch the node as failed in the health tracker, evict its
  directory footprint (Shared copies re-homed, Modified pages written
  off), then re-home its threads.  A thread parked in ``futex_wait``
  left its CPU context with the master (the syscall service keeps it on the
  thread's record while it is parked), so it is *evacuable*:
  re-spawned on a healthy node as a spurious wake.  A thread that was
  running has no recoverable context — it is reaped through the kernel's
  exit path so joiners unblock, and reported lost with per-thread
  attribution instead of hanging the run.  A thread whose ``SpawnThread``
  to the node was still outstanding is neither: its landing re-places it.
* **Cooperative drain** (``start_drain``): order the node to stop running
  guest threads; it hands each one back via ``EvacuateThread`` (handled
  here: re-placed on a usable node) and announces ``DrainComplete`` when
  empty.  Nothing is lost — a drain is the zero-casualty rehearsal of the
  crash path.

Every re-placed thread lands (:meth:`MasterService.land`) on the node
:meth:`FailureDomainService.pick_target` names, the one re-placement rule.

Registered on shard 0's dispatcher only when armed
(``DQEMUConfig.evacuation_enabled`` or a drain schedule), so default runs
create no stats row and stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.migration import returning_zero
from repro.core.services.base import MasterService
from repro.core.stats import FailureStats, NodeFailure
from repro.net.messages import Ack, StartDrain

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import MasterRuntime

__all__ = ["FailureDomainService"]


class FailureDomainService(MasterService):
    name = "failure"
    handled_kinds = frozenset({"evacuate_thread", "drain_complete"})

    def __init__(self, master: "MasterRuntime") -> None:
        super().__init__(master)
        self.state = master.state
        self.failures = FailureStats()
        self._evac_rr = 0  # pick_target's round-robin cursor

    # -- crash recovery ---------------------------------------------------------

    def node_failed(self, node: int) -> None:
        """Detector callback: ``node`` is confirmed dead (budget exhausted).

        Runs synchronously inside the RPC layer's timeout handling, *before*
        the triggering call's :class:`RpcTimeout` is raised — so by the time
        a tolerant service catches that timeout, the view is latched and the
        directory already evicted.  Thread recovery needs the clock (guest
        memory writes, spawn round trips) and runs as a spawned process.

        A node that crashes during or after its drain is recovered all the
        same: its drain record becomes a crash record that keeps the
        threads the drain already evacuated.
        """
        prior = self.failures.nodes.get(node)
        if (
            node == self.node_id or self.master.finished
            or (prior is not None and prior.kind == "crash")
        ):
            return
        self.view.mark_failed(node)
        # Calls still waiting out retry budgets against the corpse cannot
        # succeed; failing them now un-blocks their handlers before the
        # handlers' own clients time out in cascade.
        self.endpoint.rpc.abort_peer(node)
        rec = NodeFailure(
            node=node, kind="crash", detected_ns=self.sim.now,
            # Which evidence fired first — an exhausted RPC budget or the
            # heartbeat monitor's lease expiry (docs/PROTOCOL.md "Failure
            # detection").
            evidence=self.view.down_evidence(node),
            evacuated=prior.evacuated if prior is not None else [],
        )
        self.failures.nodes[node] = rec
        self.run_stats.service(self.name).requests += 1
        for shard in self.master.shards:
            rehomed, lost = shard.coherence.evict_node(node)
            rec.rehomed_pages += len(rehomed)
            rec.lost_pages += len(lost)
        self.trace.emit(
            "node", node,
            f"declared dead: {rec.rehomed_pages} pages re-homed, "
            f"{rec.lost_pages} lost",
        )
        self.master.spawn(self._recover(node, rec), f"recover-n{node}@master")

    def _recover(self, node: int, rec: NodeFailure):
        """Re-home every thread the dead node was running or parking."""
        t0 = self.sim.now
        for trec in list(self.state.threads.on_node(node)):
            tid = trec.tid
            if trec.landing:
                continue  # in flight to the dead node: its landing re-places it
            context = trec.context
            if context is not None:
                # Parked in futex_wait with its context on the master:
                # evacuate as a spurious wake (retval 0) — the guest's futex
                # loop re-checks the word and goes back to sleep if needed.
                self.state.futexes.remove(trec)
                target = yield from self.land(
                    tid, returning_zero(context), self.pick_target(exclude=node),
                    f"evacuated from dead n{node}",
                )
                rec.evacuated.append((tid, target))
                continue
            # Context died with the node.  Run the kernel exit path (zero
            # clear_child_tid, wake joiners) so threads joining on it unblock
            # with the loss reported instead of hanging.
            result = yield from self.master.syscalls.executor.exit_thread(tid, 137)
            self.master.futexes.wake(result.woken)
            rec.lost.append((tid, "context lost in crash"))
            self.trace.emit("thread", node, "lost in crash (reaped)", tid=tid)
        rec.recovered_ns = self.sim.now
        self.run_stats.service(self.name).busy_ns += self.sim.now - t0

    def pick_target(self, exclude: int = -1) -> int:
        """The one re-placement rule — evacuation, drain and spawn failover:
        round-robin over the health tracker's usable pool, the master when
        the pool is empty."""
        pool = self.view.usable_pool(self.master.placer.candidates, exclude)
        if not pool:
            return self.node_id  # last resort: everything runs on the master
        target = pool[self._evac_rr % len(pool)]
        self._evac_rr += 1
        return target

    # -- cooperative drain ------------------------------------------------------

    def start_drain(self, node: int) -> None:
        """Order ``node`` to evacuate itself (FaultPlan.drain schedules)."""
        if node in self.failures.nodes or self.master.finished:
            return
        self.view.mark_draining(node)
        rec = NodeFailure(node=node, kind="drain", detected_ns=self.sim.now)
        self.failures.nodes[node] = rec
        self.run_stats.service(self.name).requests += 1
        self.trace.emit("node", node, "drain ordered")
        # A node that dies right as the order goes out is the crash path's
        # business: the order's ack is simply never heard.
        self.master.spawn(self.ask(node, StartDrain()), f"drain-n{node}@master")

    # -- inbound frames ---------------------------------------------------------

    def handle(self, msg):
        yield from getattr(self, "_on_" + msg.kind)(msg)

    def _on_evacuate_thread(self, msg):
        target = yield from self.land(
            msg.tid, msg.context, self.pick_target(exclude=msg.src),
            f"evacuated from n{msg.src}",
        )
        rec = self.failures.nodes.get(msg.src)
        if rec is not None:
            rec.evacuated.append((msg.tid, target))
        self.endpoint.reply(msg, Ack())

    def _on_drain_complete(self, msg):
        rec = self.failures.nodes.get(msg.src)
        if rec is not None and rec.recovered_ns is None:
            rec.recovered_ns = self.sim.now
        self.trace.emit("node", msg.src, "drain complete")
        self.endpoint.rpc.acknowledge(msg)  # a notification (NodeFailureDomain)
        return
        yield  # pragma: no cover - generator protocol
