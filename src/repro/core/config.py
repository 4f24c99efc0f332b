"""DQEMU configuration: the behaviour switches of a run, plus its cost model.

Defaults reproduce the paper's setup (§6.1): 4 KiB pages, forwarding
triggered by 4 sequential page requests, splitting by 10 multi-node
false-sharing requests.  What each action costs in virtual time — clocks,
cores, the network, protocol software — is one frozen
:class:`~repro.cost.CostModel` (``cost``), calibrated in :mod:`repro.cost`.

Every knob is declared once, as a field whose ``metadata`` is its row of the
table: ``min`` (inclusive lower bound), ``choices``,
``requires=(other_field, reason)``, ``help`` and, for five historic short
spellings, ``flag``.  Two loops read it: ``__post_init__`` and ``repro-run``'s
parser — ``repro-run --help`` is the knob reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Optional

from repro.cost import TESTBED, CostModel
from repro.errors import ConfigError
from repro.net.faults import FaultPlan
from repro.net.health import HealthTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.rpc import RetryPolicy

__all__ = ["DQEMUConfig"]


@dataclass(frozen=True)
class DQEMUConfig:
    #: Virtual-time costs; every calibration constant lives here.
    cost: CostModel = TESTBED

    # -- DBT engine ----------------------------------------------------------
    mode: str = field(default="dbt", metadata=dict(
        choices=("dbt", "interp"), help="run translated blocks, or interpret every instruction"))
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
    adaptive_window: int = field(default=16, metadata=dict(
        min=2, help="page requests between adaptive-classifier evaluations of a page"))

    # -- optimizations (§5) ----------------------------------------------------
    forwarding_enabled: bool = field(default=False, metadata=dict(
        flag="--forwarding", help="enable data forwarding (§5.2)"))
    forwarding_initial_window: int = field(
        default=8, metadata=dict(min=1, help="pages pushed by a stream's first forwarding burst"))
    # Linux-readahead-style doubling; a large cap keeps long streams miss-free
    # (the paper's 1 GB walk approaches wire speed, 108 MB/s on 1 Gb/s).
    forwarding_max_window: int = field(
        default=256, metadata=dict(min=1, help="cap on the doubling forwarding window"))

    splitting_enabled: bool = field(default=False, metadata=dict(
        flag="--splitting", help="enable page splitting (§5.1)"))
    splitting_trigger: int = field(default=10, metadata=dict(
        min=1, help="multi-node false-sharing requests before a page is split (§6.1.1)"))

    # -- master manager mailboxes (docs/PROTOCOL.md "Sharded master") ---------
    # The master serves each node with this many manager processes, one per
    # mailbox; a page request goes to mailbox page_no % master_shards (see
    # repro.mem.sharding.shard_of), control frames to mailbox 0.  All master
    # state (directory, split table, services) stays one per job.  The
    # default of 1 is the paper's one manager per node; higher values attack
    # manager head-of-line blocking at large node counts (measured as
    # ServiceStats.queue_wait_ns).
    master_shards: int = field(default=1, metadata=dict(
        min=1, help="manager mailboxes per node on the master"))

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
        help="arm the failure domain: crashes evacuate threads, not abort the run"))
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
            if "choices" in meta and value not in meta["choices"]:
                raise ConfigError(f"unknown {name} {value!r} (choose from {meta['choices']})")
            if "requires" in meta and value:
                other, reason = meta["requires"]
                if not getattr(self, other):
                    raise ConfigError(f"{name} needs {other}: {reason}")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ConfigError("fault_plan must be a repro.net.faults.FaultPlan")

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
        needs ``HealthTracker.down_after`` consecutive expired checks — one per
        renewal interval, plus up to one interval of tick phase — before
        the peer is demoted to down and the failure domain fires.
        """
        lease, interval = self.heartbeat_lease_ns, self.heartbeat_interval_ns
        if interval is None:
            return None
        return lease + (HealthTracker.down_after + 1) * interval + self.cost.one_way_latency_ns

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
        """This config with its communication costs divided by ``k``
        (:meth:`CostModel.scaled`).  A duration the user chose (timeout,
        backoff, heartbeat period) means what it says at any scale.
        """
        return replace(self, cost=self.cost.scaled(k))


# Computed once at import, not per instance: ``cold_start`` builds configs in a loop.
_RULES = {"min", "choices", "requires"}
_CHECKED = tuple((f.name, f.metadata) for f in fields(DQEMUConfig) if _RULES & f.metadata.keys())
