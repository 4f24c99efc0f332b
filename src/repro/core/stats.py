"""Execution statistics.

The paper's Fig. 8 breaks per-thread time into execute / page fault /
syscall; every guest thread carries a :class:`ThreadStats` filled in by its
node's core scheduler, and :class:`RunStats` aggregates them with
protocol-level counters for the experiment harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = [
    "ThreadStats",
    "ProtocolStats",
    "ShardLoadStats",
    "ServiceStats",
    "DbtStats",
    "NodeFailure",
    "FailureStats",
    "RunStats",
]


def _twin(record):
    """A shallow copy of a counter record: ``copy.copy`` at a quarter of its
    Python calls (every settled job copies its whole ``RunStats``)."""
    twin = object.__new__(type(record))
    twin.__dict__.update(record.__dict__)
    return twin


@dataclass
class ThreadStats:
    tid: int = 0
    node: int = -1
    execute_ns: int = 0  # translated/interpreted guest execution
    translate_ns: int = 0  # included in execute for Fig. 8, tracked separately
    pagefault_ns: int = 0  # trap + coherence wait
    syscall_ns: int = 0  # trap + delegation round trip
    blocked_ns: int = 0  # parked in futex_wait
    runnable_wait_ns: int = 0  # sitting in the run queue (core contention)
    created_ns: int = 0
    finished_ns: Optional[int] = None
    quanta: int = 0
    page_faults: int = 0

    @property
    def busy_ns(self) -> int:
        return self.execute_ns + self.translate_ns + self.pagefault_ns + self.syscall_ns


@dataclass
class ProtocolStats:
    page_requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    invalidations: int = 0
    downgrades: int = 0
    pages_forwarded: int = 0
    splits: int = 0
    merges: int = 0
    split_retry_replies: int = 0
    delegated_syscalls: int = 0
    local_syscalls: int = 0
    remote_thread_spawns: int = 0
    thread_migrations: int = 0
    futex_waits: int = 0
    futex_wakes: int = 0
    #: Frames that reached a master manager after exit_group finished the
    #: run.  They are dropped on purpose (the guest is gone), but invisibly
    #: dropping them made post-exit races undiagnosable.
    post_finish_drops: int = 0
    #: Degradation counters (docs/PROTOCOL.md "Failure domains"), all zero
    #: unless a node failed mid-run: RPCs to a confirmed-dead peer that a
    #: tolerant service skipped instead of aborting on, and frames from one
    #: the master's dispatcher refused; futex wakes whose sleeper died with
    #: its node; and landings re-placed after their target failed mid-spawn
    #: (``MasterService.land``).
    dead_peer_skips: int = 0
    lost_wakes: int = 0
    spawn_failovers: int = 0
    #: Write grants to a node that already held the page Shared — the
    #: S→M "upgrade round trip" MESI exists to eliminate.  Counted under
    #: every protocol (pure telemetry, no timing effect), so experiments
    #: can report how many of them a protocol removed.
    write_upgrades: int = 0
    #: Coherence-protocol telemetry (docs/PROTOCOL.md "Coherence
    #: protocols"); all zero under the default MSI protocol.
    exclusive_grants: int = 0  # read faults granted Exclusive-clean (MESI)
    silent_upgrades: int = 0  # node-local E→M upgrades (round trips saved)
    upgrade_acks: int = 0  # payload-free S→M grants (no 4 KiB payload)
    home_migrations: int = 0  # page homes migrated to a dominant writer
    home_local_hits: int = 0  # requests fast-served at a migrated home
    home_remote_misses: int = 0  # other-node requests paying the extra hop
    adaptive_reclassifications: int = 0  # per-page protocol switches
    #: Active-liveness telemetry (docs/PROTOCOL.md "Failure detection");
    #: all zero unless DQEMUConfig.heartbeat_interval_ns is set.  Their wire
    #: bytes are heartbeats_sent x Heartbeat().size_bytes(); expired leases
    #: are booked per peer (``PeerHealth.lease_misses``).
    heartbeats_sent: int = 0  # lease renewals slaves put on the wire
    heartbeats_received: int = 0  # renewals the master's monitor landed


@dataclass
class ShardLoadStats:
    """One master shard's slice of a service's load (see ``ServiceStats``)."""

    shard: int = 0
    requests: int = 0
    busy_ns: int = 0
    queue_wait_ns: int = 0


@dataclass
class ServiceStats:
    """Per-service load attribution (one entry per runtime service).

    ``requests`` counts units of work the service performed (dispatched
    messages for wire-facing services; wakes/parks for the futex service,
    push batches for the forwarder).  ``busy_ns`` is virtual time spent
    inside the service's handlers — for master services this is a direct
    read on how much of the master-link budget each subsystem consumes.
    Fire-and-forget work with no handler span (futex wake delivery) bills
    its frames' wire-serialization time instead, so the attribution stays
    honest without touching the clock.  Slave-side services aggregate
    across nodes under one name.

    ``queue_wait_ns`` is the time served frames sat in the handling
    process's mailbox between arrival and dispatch start — the head-of-line
    blocking the sharded master exists to attack.  ``shards`` breaks
    requests/busy/queue-wait down per master shard for dispatched work
    (empty for node-side services, which are not sharded).

    ``duplicates`` counts replayed frames the dispatcher dropped before
    they reached the handler (nonzero only under duplication faults or a
    retransmitting fabric).

    The reliability counters are the one book of the RPC retransmit layer
    (docs/PROTOCOL.md "Reliable delivery") for requests *issued* by this
    service: ``retransmits`` clones re-sent after a missed timeout window,
    ``recoveries`` retried calls that did complete, and
    ``recovery_wait_ns`` the total first-send-to-reply span of those
    recoveries (mean recovery latency = recovery_wait_ns / recoveries).
    ``RunResult.rpc`` sums them over a job's rows.  All zero unless
    ``DQEMUConfig.rpc_max_retries`` is armed.
    """

    name: str = ""
    requests: int = 0
    busy_ns: int = 0
    queue_wait_ns: int = 0
    duplicates: int = 0
    retransmits: int = 0
    recoveries: int = 0
    recovery_wait_ns: int = 0
    shards: dict[int, ShardLoadStats] = field(default_factory=dict)

    def shard(self, k: int) -> ShardLoadStats:
        if k not in self.shards:
            self.shards[k] = ShardLoadStats(shard=k)
        return self.shards[k]


@dataclass
class DbtStats:
    """Hot-path telemetry aggregated across every node's DBT engine
    (docs/PROTOCOL.md "DBT hot path").

    ``lookups``/``misses`` count slow-path code-cache dispatches;
    ``chain_follows`` dispatches that rode a direct block-to-block
    reference instead.  Lookups per executed instruction (divide by
    ``RunStats.insns_executed``) is the dispatch-overhead figure the hot
    path exists to shrink.  The ``*_saved_cycles`` counters are the
    virtual cycles the cheaper superblock CPI and fused idioms avoided
    relative to plain per-block execution.
    """

    lookups: int = 0
    misses: int = 0
    chain_follows: int = 0
    translations: int = 0
    invalidations: int = 0
    unchains: int = 0
    superblocks_formed: int = 0
    execute_cycles: float = 0.0
    translate_cycles: float = 0.0
    superblock_saved_cycles: float = 0.0
    fusion_saved_cycles: float = 0.0
    fusion_hits: dict[str, int] = field(default_factory=dict)

    #: Counters kept by the engine itself; the rest are read from its code
    #: cache's :class:`~repro.dbt.codecache.CacheStats`.
    _ON_ENGINE = frozenset({
        "superblocks_formed", "execute_cycles", "translate_cycles",
        "superblock_saved_cycles", "fusion_saved_cycles",
    })

    def add_engine(self, engine) -> None:
        """Fold one node engine's counters into the aggregate."""
        for f in fields(self):
            if f.name == "fusion_hits":
                continue
            source = engine if f.name in self._ON_ENGINE else engine.cache.stats
            setattr(self, f.name, getattr(self, f.name) + getattr(source, f.name))
        for pattern, hits in engine.fusion_hits.items():
            self.fusion_hits[pattern] = self.fusion_hits.get(pattern, 0) + hits

    @property
    def dispatches(self) -> int:
        return self.lookups + self.chain_follows

    @property
    def lookup_hit_rate(self) -> float:
        return 1.0 - self.misses / self.lookups if self.lookups else 0.0

    @property
    def total_fusion_hits(self) -> int:
        return sum(self.fusion_hits.values())


@dataclass
class NodeFailure:
    """One failed (crashed or drained) node's recovery record."""

    node: int
    kind: str  # "crash" | "drain"
    detected_ns: int
    recovered_ns: Optional[int] = None
    #: (tid, target node) for each live thread re-homed to a healthy peer.
    evacuated: list[tuple[int, int]] = field(default_factory=list)
    #: (tid, reason) for each thread whose context died with the node.
    lost: list[tuple[int, str]] = field(default_factory=list)
    rehomed_pages: int = 0  # Shared copies the directory promoted elsewhere
    lost_pages: int = 0  # Modified pages that existed only on the dead node
    #: Which failure evidence fired first for a crash: "rpc-timeout" (a
    #: retry budget ran out against the node) or "lease-expiry" (the
    #: heartbeat monitor saw a whole lease of silence).  Empty for drains,
    #: which are ordered rather than detected.
    evidence: str = ""

    @property
    def recovery_ns(self) -> Optional[int]:
        """Detection-to-recovered latency, None while recovery is pending."""
        if self.recovered_ns is None:
            return None
        return self.recovered_ns - self.detected_ns


@dataclass
class FailureStats:
    """Structured failure accounting for a run (``RunResult.failures``).

    One :class:`NodeFailure` per failed node, plus aggregates the
    experiment tables read directly.  Only constructed when the failure
    domain is armed (``DQEMUConfig.evacuation_enabled`` or a drain plan);
    ``None`` on every other run.
    """

    nodes: dict[int, NodeFailure] = field(default_factory=dict)

    @property
    def evacuated_threads(self) -> int:
        return sum(len(f.evacuated) for f in self.nodes.values())

    @property
    def lost_threads(self) -> int:
        return sum(len(f.lost) for f in self.nodes.values())

    @property
    def rehomed_pages(self) -> int:
        return sum(f.rehomed_pages for f in self.nodes.values())

    @property
    def lost_pages(self) -> int:
        return sum(f.lost_pages for f in self.nodes.values())

    def detected_by(self, evidence: str) -> int:
        """Crashes whose first-firing failure evidence was ``evidence``
        ("rpc-timeout" or "lease-expiry")."""
        return sum(
            1 for f in self.nodes.values()
            if f.kind == "crash" and f.evidence == evidence
        )

    @property
    def lease_detections(self) -> int:
        """Crashes the heartbeat monitor detected before any RPC did."""
        return self.detected_by("lease-expiry")

    @property
    def rpc_detections(self) -> int:
        """Crashes an exhausted RPC retry budget detected first."""
        return self.detected_by("rpc-timeout")

    def describe(self) -> str:
        if not self.nodes:
            return "no node failures"
        return "; ".join(
            f"n{node} {f.kind}"
            + (f" ({f.evidence})" if f.evidence else "")
            + f": {len(f.evacuated)} evacuated, "
            + f"{len(f.lost)} lost, {f.rehomed_pages} pages re-homed, "
            f"{f.lost_pages} pages lost"
            for node, f in sorted(self.nodes.items())
        )


@dataclass
class RunStats:
    threads: dict[int, ThreadStats] = field(default_factory=dict)
    protocol: ProtocolStats = field(default_factory=ProtocolStats)
    services: dict[str, ServiceStats] = field(default_factory=dict)
    wall_ns: int = 0  # virtual time from program start to exit
    insns_executed: int = 0
    insns_translated: int = 0
    dbt: DbtStats = field(default_factory=DbtStats)
    #: Job the counters belong to; 0 for single-job runs.  Every admitted
    #: job gets its own RunStats, so per-tenant attribution is structural
    #: (separate objects), not post-hoc filtering.
    tenant: int = 0

    def thread(self, tid: int) -> ThreadStats:
        if tid not in self.threads:
            self.threads[tid] = ThreadStats(tid=tid)
        return self.threads[tid]

    def service(self, name: str) -> ServiceStats:
        if name not in self.services:
            self.services[name] = ServiceStats(name=name)
        return self.services[name]

    def copy(self) -> "RunStats":
        """The counters as they stand, sharing no mutable part: a job's
        result keeps this record while frames of the job still in flight
        (its Shutdown acks) bill the live object."""
        twin = _twin(self)
        twin.threads = {tid: _twin(ts) for tid, ts in self.threads.items()}
        twin.protocol = _twin(self.protocol)
        twin.services = {}
        for name, row in self.services.items():
            twin.services[name] = twin_row = _twin(row)
            twin_row.shards = {k: _twin(part) for k, part in row.shards.items()}
        twin.dbt = _twin(self.dbt)
        twin.dbt.fusion_hits = dict(self.dbt.fusion_hits)
        return twin

    # -- aggregations used by the Fig. 8 harness --------------------------------

    def totals(self) -> dict[str, int]:
        keys = ("execute_ns", "translate_ns", "pagefault_ns", "syscall_ns", "blocked_ns")
        out = {k: 0 for k in keys}
        for ts in self.threads.values():
            for k in keys:
                out[k] += getattr(ts, k)
        return out

    def mean_breakdown(self, tids: Optional[list[int]] = None) -> dict[str, float]:
        """Average per-thread breakdown (Fig. 8 bars), in ns."""
        stats = [
            ts for ts in self.threads.values() if tids is None or ts.tid in tids
        ]
        if not stats:
            return {"execute_ns": 0.0, "pagefault_ns": 0.0, "syscall_ns": 0.0}
        n = len(stats)
        return {
            "execute_ns": sum(t.execute_ns + t.translate_ns for t in stats) / n,
            "pagefault_ns": sum(t.pagefault_ns for t in stats) / n,
            "syscall_ns": sum(t.syscall_ns for t in stats) / n,
        }
