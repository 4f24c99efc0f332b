"""Thread placement across nodes (paper §4.1, §5.3).

Two policies:

* ``round_robin`` — spread new threads equally over the candidate nodes
  (the paper's default "schedule the threads equally among the nodes");
* ``hint`` — threads whose parent announced a group via the ``hint``
  instruction land on the group's node, so threads that share data share a
  node (hint-based locality-aware scheduling).  Threads without a hint fall
  back to round-robin.

Worker threads go to slave nodes; the master runs the main thread (Fig. 2),
unless there are no slaves.

With ``DQEMUConfig.health_aware_placement`` the placer also consults the
cluster's one health object (:class:`repro.net.health.HealthTracker`):
``down``, failed and draining candidates are skipped outright and
``suspect`` ones are deprioritized (used only when every candidate is
degraded; ``HealthTracker.usable_pool``).  The choice is deterministic — the
pool is filtered, never shuffled, and the same round-robin cursor walks
whatever pool is left — and every skip is recorded with its reason so the
breakdown tables can attribute placement decisions.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Any, Deque, Optional, Sequence

from repro.errors import ConfigError
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.health import HealthTracker

__all__ = ["ThreadPlacer", "FairRunQueue"]


class ThreadPlacer:
    def __init__(
        self,
        policy: str,
        candidates: Sequence[int],
        *,
        health: Optional["HealthTracker"] = None,
        fallback: Optional[int] = None,
        rr_offset: int = 0,
    ):
        if not candidates:
            raise ConfigError("scheduler needs at least one candidate node")
        if policy not in ("round_robin", "hint"):
            raise ConfigError(f"unknown scheduling policy {policy!r}")
        self.policy = policy
        self.candidates = list(candidates)
        self.health = health
        self.fallback = fallback
        # Each concurrent job gets its own placer; staggering the cursors
        # (job k starts at k) interleaves tenants across the fleet instead
        # of piling every job's first worker onto the same node.
        self._rr = rr_offset
        self.placements: list[tuple[Optional[int], int]] = []  # (group, node)
        #: (node, reason) -> times that node was skipped for that reason
        #: ("down" / "draining" / "suspect") plus ("fallback" entries when
        #: every candidate was unusable and the fallback node absorbed the
        #: placement).
        self.skips: Counter = Counter()

    # -- placement ---------------------------------------------------------

    def place(self, hint_group: Optional[int] = None) -> int:
        pool = (
            self.candidates if self.health is None
            else self.health.usable_pool(self.candidates, skips=self.skips)
        )
        if not pool:
            # Every candidate is down or draining: the master (fallback)
            # absorbs the thread rather than placing it on a dead node.
            if self.fallback is None:
                raise ConfigError("no healthy candidate nodes left to place on")
            node = self.fallback
            self.skips[(node, "fallback")] += 1
        elif self.policy == "hint" and hint_group is not None:
            node = pool[hint_group % len(pool)]
        else:
            node = pool[self._rr % len(pool)]
            self._rr += 1
        self.placements.append((hint_group, node))
        return node

    # -- reporting ---------------------------------------------------------

    def distribution(self) -> dict[int, int]:
        # Placements can land outside `candidates` (master fallback,
        # post-failure re-placement), so count whatever was observed
        # instead of assuming the candidate set covers everything.
        out: dict[int, int] = {n: 0 for n in self.candidates}
        for _, node in self.placements:
            out[node] = out.get(node, 0) + 1
        return out

    def skip_counts(self) -> dict[str, int]:
        """Aggregate skip reasons as ``"n<node>:<reason>" -> count``."""
        return {
            f"n{node}:{reason}": count
            for (node, reason), count in sorted(self.skips.items())
        }


class FairRunQueue:
    """A node's core feed with tenant-fair arbitration.

    Drop-in for the plain :class:`~repro.sim.sync.SimQueue` the cores used
    to block on: FIFO within a tenant, round-robin *across* tenants whenever
    threads of more than one tenant are waiting, so one job's thread storm
    cannot starve another job's runnable threads on a shared node.

    With at most one tenant class queued — every single-job run, and any
    sentinel (``None``) shutdown marker — each pick is the FIFO head, which
    makes the queue event-for-event identical to the SimQueue it replaces.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._last_tenant = -1

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._pick())
        else:
            self._getters.append(ev)
        return ev

    def _pick(self) -> Any:
        items = self._items
        tenants = {th.tenant for th in items if th is not None}
        if len(tenants) <= 1 or items[0] is None:
            # Single tenant class (or a shutdown sentinel at the head):
            # plain FIFO, bit-identical to the pre-tenancy queue.
            return items.popleft()
        eligible = sorted(t for t in tenants if t > self._last_tenant)
        tenant = eligible[0] if eligible else min(tenants)
        self._last_tenant = tenant
        for i, th in enumerate(items):
            if th is not None and th.tenant == tenant:
                del items[i]
                return th
        raise AssertionError("unreachable: chosen tenant vanished from queue")
