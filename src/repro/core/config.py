"""DQEMU configuration and calibrated cost model.

Defaults reproduce the paper's testbed (§6.1): nodes with 4 cores at
3.3 GHz, a 1 Gb/s switch with ~55 µs round-trip for small control messages,
4 KiB pages, forwarding triggered by 4 sequential page requests, splitting
by 10 multi-node false-sharing requests.

Every knob is declared once, as a field whose ``metadata`` is its row of the
table: ``min``/``above`` (inclusive/exclusive lower bound), ``choices``,
``requires=(other_field, reason)``, ``scaled`` (a modelled communication
"cost" or "rate", moved by :meth:`DQEMUConfig.time_scaled`), ``help`` and, for
six historic short spellings, ``flag``.  Three loops read it: ``__post_init__``,
``time_scaled`` and ``repro-run``'s parser — ``repro-run --help`` is the knob
reference.

Calibration notes (see EXPERIMENTS.md for the resulting numbers):

* ``page_fault_trap_cycles = 2000`` — the paper cites ~2 000 cycles for a
  page-fault trap.
* ``dsm_service_ns = 320_000`` — the measured remote-page latency in the
  paper is 410.5 µs against a ~40 µs wire lower bound; the residual is
  master-side protocol software (directory lookup, mprotect fiddling,
  manager queueing).  We bill it as the manager's per-request service time.
* ``QEMU_CPI_DISCOUNT`` — vanilla QEMU 4.2.0 runs ~4 % faster than a
  one-node DQEMU (Fig. 5's dashed line at 1.04): DQEMU adds a shadow-page
  lookup to guest address translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError
from repro.net.faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.rpc import RetryPolicy

__all__ = ["DQEMUConfig"]

QEMU_CPI_DISCOUNT = 0.96


@dataclass(frozen=True)
class DQEMUConfig:
    # -- cluster shape -------------------------------------------------------
    cores_per_node: int = field(
        default=4, metadata=dict(min=1, flag="--cores", help="cores per node"))
    cpu_ghz: float = field(default=3.3, metadata=dict(above=0, help="core clock in GHz"))
    # Heterogeneous clusters (paper §1: DBT "allows nodes in a cluster to
    # have different kinds of physical cores"): per-node overrides of core
    # count and clock, keyed by node id.  None = homogeneous.
    node_cores: Optional[dict[int, int]] = None
    node_ghz: Optional[dict[int, float]] = None

    # -- network (paper §6.1: TP-Link Gigabit switch, 55 us TCP RTT) ----------
    bandwidth_bps: float = field(
        default=1e9, metadata=dict(above=0, scaled="rate", help="link bandwidth in bit/s"))
    one_way_latency_ns: int = field(
        default=27_400, metadata=dict(scaled="cost", help="one-way wire latency between nodes"))
    loopback_latency_ns: int = field(
        default=300, metadata=dict(scaled="cost", help="latency of a node's messages to itself"))

    # -- DBT engine ----------------------------------------------------------
    mode: str = field(default="dbt", metadata=dict(
        choices=("dbt", "interp"), help="run translated blocks, or interpret every instruction"))
    # A quantum ends when its cycles are spent, so a CPI must move the clock
    # forward; cpi_dbt is also a divisor (the engine's in-function allowance).
    cpi_dbt: float = field(
        default=3.0, metadata=dict(above=0, help="cycles per translated instruction"))
    cpi_interp: float = field(
        default=30.0, metadata=dict(above=0, help="cycles per interpreted instruction"))
    translate_per_insn: float = field(
        default=800.0, metadata=dict(min=0, help="cycles to translate one guest instruction"))
    quantum_cycles: int = field(default=50_000, metadata=dict(
        min=1, help="cycles a thread runs before its core looks at the run queue again"))
    # DBT hot-path tier (docs/PROTOCOL.md "DBT hot path").  Superblocks and
    # idiom fusion change the cost model, so they default off and every
    # committed table regenerates bit-identically.
    superblock_threshold: int = field(default=0, metadata=dict(
        min=0, help="executions after which a hot block grows into a trace superblock; 0 = never"))
    fusion_enabled: bool = field(default=False, metadata=dict(
        flag="--fusion", help="fuse recurring guest idioms (compare+branch, load+op, atomic "
                              "spin) into single host operations"))

    # -- DSM / coherence ----------------------------------------------------
    # Page-coherence protocol (docs/PROTOCOL.md "Coherence protocols"):
    #   "msi"      the paper's directory MSI (default; every committed table
    #              regenerates bit-identically),
    #   "mesi"     Exclusive-clean read grants + silent node-side E->M
    #              upgrades + payload-free S->M upgrade acks,
    #   "migrate"  MESI + home migration toward each page's dominant writer,
    #   "adaptive" per-page choice among the three from online access-
    #              pattern stats with hysteresis.
    coherence_protocol: str = field(default="msi", metadata=dict(
        choices=("msi", "mesi", "migrate", "adaptive"),
        help="page coherence: the paper's MSI, MESI (no first-write upgrade round trip), home "
             "migration toward dominant writers, or per-page adaptive selection"))
    migration_trigger: int = field(default=4, metadata=dict(
        min=1, help="consecutive write acquisitions by one node before a page's home moves to it"))
    # Makes migration a real bet — it only pays off while the new home stays
    # the dominant requester: the master must reach the remote home for the
    # authoritative copy instead of its own store.
    migration_penalty_ns: int = field(default=160_000, metadata=dict(
        min=0, scaled="cost", help="extra hop every OTHER node pays once a page's home migrated"))
    adaptive_window: int = field(default=16, metadata=dict(
        min=2, help="page requests between adaptive-classifier evaluations of a page"))
    page_fault_trap_cycles: int = field(
        default=2_000, metadata=dict(help="local trap cost of a guest page fault"))
    dsm_service_ns: int = field(default=320_000, metadata=dict(
        scaled="cost", help="master manager service time per page request"))
    # A request racing an already-delivered forwarded page (the directory
    # already lists the node as sharer) is a cheap directory-lookup ack.
    dsm_fast_service_ns: int = field(default=2_000, metadata=dict(
        scaled="cost", help="master service time of a directory-lookup-only ack"))
    slave_coherence_service_ns: int = field(default=2_000, metadata=dict(
        scaled="cost", help="slave handling one invalidate/downgrade/control command"))
    syscall_service_ns: int = field(
        default=3_000, metadata=dict(scaled="cost", help="master executing a delegated syscall"))

    # -- optimizations (§5) ----------------------------------------------------
    forwarding_enabled: bool = field(default=False, metadata=dict(
        flag="--forwarding", help="enable data forwarding (§5.2)"))
    forwarding_trigger: int = field(default=4, metadata=dict(
        min=1, help="sequential page requests before the master starts pushing (§6.1.1)"))
    forwarding_initial_window: int = field(
        default=8, metadata=dict(help="pages pushed by a stream's first forwarding burst"))
    # Linux-readahead-style doubling; a large cap keeps long streams miss-free
    # (the paper's 1 GB walk approaches wire speed, 108 MB/s on 1 Gb/s).
    forwarding_max_window: int = field(
        default=256, metadata=dict(help="cap on the doubling forwarding window"))
    forwarding_push_ns: int = field(
        default=4_000, metadata=dict(scaled="cost", help="master-side cost per pushed page"))

    splitting_enabled: bool = field(default=False, metadata=dict(
        flag="--splitting", help="enable page splitting (§5.1)"))
    splitting_trigger: int = field(default=10, metadata=dict(
        min=1, help="multi-node false-sharing requests before a page is split (§6.1.1)"))
    split_service_ns: int = field(default=50_000, metadata=dict(
        scaled="cost", help="master work per split: probe space, copy, broadcast"))
    merge_service_ns: int = field(default=50_000, metadata=dict(
        scaled="cost", help="master work per merge of a mis-inferred split"))

    # -- master sharding (ROADMAP "Async / sharded master") --------------------
    # Each shard owns the pages with page_no % master_shards == shard (see
    # repro.mem.sharding.shard_of), with its own dispatcher, directory
    # partition, split-table partition, and per-node manager processes.  The
    # default of 1 is the paper's single-directory master and reproduces every
    # run bit-for-bit; higher values attack manager head-of-line blocking at
    # large node counts (measured as ServiceStats.queue_wait_ns).
    master_shards: int = field(default=1, metadata=dict(
        min=1, help="partition the master directory across this many shard pools"))

    # -- scheduling (§5.3) ----------------------------------------------------
    scheduler: str = field(default="round_robin", metadata=dict(
        choices=("round_robin", "hint"), help="thread placement policy (§5.3)"))

    # -- robustness / fault injection (docs/PROTOCOL.md "Failure modes") -------
    # None (the default) is the paper's lossless-fabric assumption: wait
    # forever.  Set, it makes a dead or partitioned peer fail the run loudly
    # with a ServiceTimeout naming the service, message kind and peer instead
    # of deadlocking.
    rpc_timeout_ns: Optional[int] = field(default=None, metadata=dict(
        min=1, help="per-request timeout of every service-issued RPC"))
    # Reliable delivery (docs/PROTOCOL.md "Reliable delivery"): every
    # service-issued RPC retransmits a cloned frame on timeout expiry —
    # waiting out an exponential backoff (base << attempt, plus a
    # deterministic jitter in [0, rpc_backoff_jitter_ns] hashed from the
    # request id) before each — and only then escalates to ServiceTimeout.
    # The default of 0 sends nothing extra ever: wire traffic and timings
    # stay bit-identical to the retry-free protocol.
    rpc_max_retries: int = field(default=0, metadata=dict(
        min=0, requires=("rpc_timeout_ns", "retransmission is triggered by timeout expiry"),
        help="retransmissions of an unanswered RPC before it fails the run"))
    rpc_backoff_base_ns: int = field(default=50_000, metadata=dict(
        min=0, help="wait before the first retransmission; doubles with each attempt"))
    rpc_backoff_jitter_ns: int = field(default=0, metadata=dict(
        min=0, help="upper bound of the deterministic per-request backoff jitter"))
    # Fault plan applied to the fabric (repro.net.faults.FaultPlan).  None
    # leaves the wire untouched; an empty plan attaches the injection
    # machinery but injects nothing — runs stay bit-identical either way.
    fault_plan: Optional[FaultPlan] = None
    # Health-tracker thresholds (docs/PROTOCOL.md "Failure domains").  Any
    # call exhausting its whole retry budget demotes the peer to down
    # regardless.
    health_suspect_after: int = field(default=2, metadata=dict(
        min=1, help="consecutive missed timeout windows before a peer is marked suspect"))
    health_down_after: int = field(default=5, metadata=dict(
        help="consecutive missed timeout windows before a peer is marked down (> suspect)"))
    # Off by default — the paper's scheduler is health-blind, and default
    # runs must stay bit-identical.
    health_aware_placement: bool = field(default=False, metadata=dict(
        help="thread placement skips down/failed/draining nodes, deprioritizes suspect ones"))
    # Failure-domain runtime: the master-side failure detector and the
    # FailureDomainService (thread evacuation, directory re-homing, lost
    # thread/page accounting).
    evacuation_enabled: bool = field(default=False, metadata=dict(
        flag="--evacuation",
        requires=("rpc_timeout_ns", "node failures are detected by timeout expiry"),
        help="arm the failure domain: crashes evacuate/restore threads, not abort the run"))
    # Checkpoint/restore (docs/PROTOCOL.md "Checkpoint/restore"): each slave
    # snapshots a running thread's register context at a quantum boundary —
    # together with a write-back of the tenant's Modified pages, so the
    # snapshot is a consistent cut under every coherence protocol — and
    # ships it to the master.  On a crash, threads with a live checkpoint
    # are rolled back and re-placed instead of reaped.  None (the default)
    # sends nothing: wire traffic and every committed table stay
    # bit-identical.
    checkpoint_interval_ns: Optional[int] = field(default=None, metadata=dict(
        min=1, requires=("evacuation_enabled", "restore rides the failure domain's recovery path"),
        help="virtual time between a running thread's crash-restore snapshots"))
    # Storing the context, before per-page install work under the shard locks.
    checkpoint_service_ns: int = field(default=4_000, metadata=dict(
        min=0, scaled="cost", help="master-side cost of landing one checkpoint frame"))
    # Active liveness (docs/PROTOCOL.md "Failure detection"): the master's
    # HeartbeatService treats a renewal as positive liveness evidence and a
    # whole lease (heartbeat_lease_ns) of silence as failure evidence,
    # escalated through the same HealthTracker thresholds as RPC timeouts
    # (up -> suspect -> down) — so a crash on a *quiet victim*, a node
    # nobody happens to call, is detected within a bounded window
    # (heartbeat_detection_bound_ns) instead of hanging the join forever.
    # None (the default) sends nothing: wire traffic and every committed
    # table stay bit-identical.
    heartbeat_interval_ns: Optional[int] = field(default=None, metadata=dict(
        min=1, requires=("evacuation_enabled", "lease expiry drives the failure domain's recovery"),
        help="period of every slave's lease-renewal frame to the master; bounds crash "
             "detection even on nodes nobody calls"))
    # Drain-driven load rebalancing: the node cooperatively evacuates its
    # hottest runnable thread to an underloaded node via the EvacuateThread
    # path (reason="rebalance").
    rebalance_threshold_ns: Optional[int] = field(default=None, metadata=dict(
        min=1, requires=("evacuation_enabled", "rebalancing reuses the failure domain's handler"),
        help="single-stint queue wait beyond which a node sheds its hottest thread"))

    # -- multi-tenant job admission (docs/PROTOCOL.md "Multi-tenant jobs") ----
    # Beyond queue depth on top of max_concurrent_jobs, submit() refuses
    # outright (back-pressure to the caller instead of unbounded buffering).
    max_concurrent_jobs: int = field(default=3, metadata=dict(
        min=1, help="jobs allowed to run at once; later submissions queue"))
    admission_queue_depth: int = field(default=16, metadata=dict(
        min=0, help="queued submissions tolerated before submit() is refused"))

    # -- baseline -------------------------------------------------------------
    pure_qemu: bool = field(default=False, metadata=dict(
        flag="--qemu", help="run the vanilla single-node QEMU baseline (no DSM layer)"))

    def __post_init__(self):
        for name, meta in _CHECKED:
            value = getattr(self, name)
            if value is None:
                continue
            if "min" in meta and value < meta["min"]:
                raise ConfigError(f"{name} must be >= {meta['min']}")
            if "above" in meta and value <= meta["above"]:
                raise ConfigError(f"{name} must be > {meta['above']}")
            if "choices" in meta and value not in meta["choices"]:
                raise ConfigError(f"unknown {name} {value!r} (choose from {meta['choices']})")
            if "requires" in meta and value:
                other, reason = meta["requires"]
                if not getattr(self, other):
                    raise ConfigError(f"{name} needs {other}: {reason}")
        if self.health_down_after <= self.health_suspect_after:
            raise ConfigError("health_down_after must exceed health_suspect_after: suspect first")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ConfigError("fault_plan must be a repro.net.faults.FaultPlan")
        for nid, cores in (self.node_cores or {}).items():
            if cores < 1:
                raise ConfigError(f"node {nid}: cores must be >= 1")
        for nid, ghz in (self.node_ghz or {}).items():
            if ghz <= 0:
                raise ConfigError(f"node {nid}: clock must be positive")

    def cores_of(self, node_id: int) -> int:
        return (self.node_cores or {}).get(node_id, self.cores_per_node)

    def ghz_of(self, node_id: int) -> float:
        return (self.node_ghz or {}).get(node_id, self.cpu_ghz)

    @property
    def effective_cpi_dbt(self) -> float:
        return self.cpi_dbt * QEMU_CPI_DISCOUNT if self.pure_qemu else self.cpi_dbt

    @property
    def crashes(self) -> tuple[tuple[int, int], ...]:
        """The fault plan's ``(node, at_ns)`` crash schedule (empty without one)."""
        return self.fault_plan.crashes if self.fault_plan is not None else ()

    @property
    def drains(self) -> tuple[tuple[int, int], ...]:
        """The fault plan's ``(node, at_ns)`` drain schedule (empty without one)."""
        return self.fault_plan.drains if self.fault_plan is not None else ()

    @property
    def failure_domain(self) -> bool:
        """The master's failure domain is armed: crashes are recovered, or a
        drain is scheduled.  Without it every service stays failure-blind."""
        return self.evacuation_enabled or bool(self.drains)

    @property
    def heartbeat_lease_ns(self) -> Optional[int]:
        """Silence the master tolerates before a peer accrues missed-lease
        evidence.  Four intervals absorb three consecutive lost-or-late
        renewals, keeping the detector quiet under transient loss while still
        bounding detection at a small multiple of the interval."""
        interval = self.heartbeat_interval_ns
        return None if interval is None else 4 * interval

    def heartbeat_detection_bound_ns(self) -> Optional[int]:
        """Worst-case crash-to-``node_failed`` latency of the detector.

        A renewal in flight at the crash lands up to one one-way wire
        latency later and re-arms a full lease; the master's monitor then
        needs ``health_down_after`` consecutive expired checks — one per
        renewal interval, plus up to one interval of tick phase — before
        the peer is demoted to down and the failure domain fires.
        """
        lease, interval = self.heartbeat_lease_ns, self.heartbeat_interval_ns
        if interval is None:
            return None
        return lease + (self.health_down_after + 1) * interval + self.one_way_latency_ns

    def retry_policy(self) -> Optional["RetryPolicy"]:
        """The RPC reliability policy these options describe, or ``None``.

        ``None`` (the default) is the protocol's historic behavior: one
        transmission per call, timeout (if armed) escalating straight to
        :class:`ServiceTimeout`.  Services resolve this once at construction
        and pass it to every request they issue.
        """
        if not self.rpc_max_retries:
            return None
        from repro.net.rpc import RetryPolicy

        return RetryPolicy(
            self.rpc_max_retries, self.rpc_backoff_base_ns, self.rpc_backoff_jitter_ns
        )

    def nested_retry_policy(self) -> Optional["RetryPolicy"]:
        """Retry policy for master-side *nested* calls (handler -> node).

        With the failure domain armed, a handler stuck calling a dead node
        must give up strictly before its own clients' budgets expire —
        otherwise a recoverable crash cascades into a client
        :class:`ServiceTimeout` before the detector can latch the failure
        (docs/PROTOCOL.md "Failure domains").  One fewer retransmit window
        leaves a full timeout-plus-final-backoff margin between the
        handler's exhaustion (which marks the peer down and aborts every
        other pending call against it) and the earliest client expiry.
        Without the failure domain this is exactly :meth:`retry_policy`,
        keeping budgets symmetric and default runs untouched.
        """
        policy = self.retry_policy()
        if policy is None or not self.evacuation_enabled:
            return policy
        return replace(policy, max_retries=max(1, self.rpc_max_retries - 1))

    def with_options(self, **kwargs) -> "DQEMUConfig":
        """Return a modified copy (configs are frozen)."""
        return replace(self, **kwargs)

    def time_scaled(self, k: float) -> "DQEMUConfig":
        """Shrink every *communication* cost by ``k`` (and raise bandwidth by
        ``k``), for experiments whose compute is scaled down by the same
        factor.  Preserving the compute:communication ratio preserves the
        paper's speedup-curve shapes at a fraction of the simulation cost
        (see EXPERIMENTS.md, "scaling methodology").  Only the fields tabled
        ``scaled`` move: CPU-side trap costs scale with guest work, not with
        the network, and a duration the user chose (timeout, backoff,
        heartbeat/checkpoint/rebalance period) means what it says at any scale.
        """
        if k <= 0:
            raise ConfigError("scale factor must be positive")

        def moved(value, kind):
            return value * k if kind == "rate" else max(1, int(value / k))

        return replace(self, **{name: moved(getattr(self, name), kind) for name, kind in _SCALED})


# Computed once at import, not per instance: ``cold_start`` builds configs in a loop.
_RULES = {"min", "above", "choices", "requires"}
_CHECKED = tuple((f.name, f.metadata) for f in fields(DQEMUConfig) if _RULES & f.metadata.keys())
_SCALED = tuple((f.name, m["scaled"]) for f in fields(DQEMUConfig) if "scaled" in (m := f.metadata))
