"""The calibrated cost model: every virtual-time constant of the testbed.

Defaults reproduce the paper's testbed (§6.1): nodes with 4 cores at 3.3 GHz,
a 1 Gb/s switch, ~55 µs round trip for small control messages.  This is the
only place a calibration number is written; the engine, the fabric, the nodes
and the master services read a :class:`CostModel` (``DQEMUConfig.cost``).  It
imports nothing they define, so ``net/`` and ``dbt/`` need no ``repro.core``.
``tests/test_calibration.py`` derives the paper's measured points from it.

* ``one_way_latency_ns`` — with serialization on both links, a 64-byte
  control frame's round trip is ~57 µs against the paper's measured 55 µs.
* ``page_fault_trap_cycles`` — the paper cites ~2 000 cycles for a trap.
* ``dsm_service_ns`` — the paper measures a 410.5 µs remote page against a
  ~40 µs wire bound; the residual is master-side protocol software
  (directory lookup, mprotect fiddling, manager queueing), billed as the
  manager's per-request service time.
* ``QEMU_CPI_DISCOUNT`` — vanilla QEMU 4.2.0 runs ~4 % faster than a one-node
  DQEMU (Fig. 5's dashed line at 1.04): DQEMU adds a shadow-page lookup to
  guest address translation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.errors import ConfigError

__all__ = ["CostModel", "QEMU_CPI_DISCOUNT", "SYSCALL_TRAP_CYCLES", "TESTBED"]

#: Vanilla QEMU's per-instruction discount over a one-node DQEMU.
QEMU_CPI_DISCOUNT = 0.96
#: Local trap cost of a guest syscall, in cycles (both modes).
SYSCALL_TRAP_CYCLES = 500

#: Clocks, core counts, bandwidth and CPIs must be > 0 (a zero stops the
#: clock; a CPI is also a divisor); every other cost must be >= 0.
_POSITIVE = {"cores_per_node", "cpu_ghz", "node_cores", "node_ghz", "bandwidth_bps",
             "cpi_dbt", "cpi_interp", "cpi_superblock"}
#: The modelled communication costs: :meth:`CostModel.scaled` divides these.
_COMMUNICATION = (
    "one_way_latency_ns", "loopback_latency_ns", "dsm_service_ns", "dsm_fast_service_ns",
    "migration_penalty_ns", "slave_coherence_service_ns", "syscall_service_ns",
    "checkpoint_service_ns", "forwarding_push_ns", "split_service_ns", "merge_service_ns",
)


@dataclass(frozen=True)
class CostModel:
    """What each simulated action costs in virtual time; the defaults are the
    paper's testbed.  Validated once, at construction."""

    # -- nodes ----------------------------------------------------------------
    cores_per_node: int = 4
    cpu_ghz: float = 3.3
    # Per-node overrides, keyed by node id (paper §1: heterogeneous cores).
    node_cores: Optional[dict[int, int]] = None
    node_ghz: Optional[dict[int, float]] = None

    # -- network (TP-Link Gigabit switch) -------------------------------------
    bandwidth_bps: float = 1e9
    one_way_latency_ns: int = 27_400
    loopback_latency_ns: int = 300  # a node's messages to itself

    # -- DBT engine (cycles) --------------------------------------------------
    cpi_dbt: float = 3.0  # per translated guest instruction
    cpi_interp: float = 30.0  # per interpreted instruction
    cpi_superblock: float = 1.0  # per instruction inside a trace superblock
    translate_per_insn: float = 800.0  # once per block, per guest instruction
    page_fault_trap_cycles: int = 2_000  # local trap of a guest page fault

    # -- protocol software (ns) -----------------------------------------------
    dsm_service_ns: int = 320_000  # master manager, per page request
    dsm_fast_service_ns: int = 2_000  # directory-lookup ack: node already a sharer
    migration_penalty_ns: int = 160_000  # the hop to a page's migrated home
    slave_coherence_service_ns: int = 2_000  # one invalidate/downgrade/control
    syscall_service_ns: int = 3_000  # master executing a delegated syscall
    forwarding_push_ns: int = 4_000  # master side, per pushed page
    split_service_ns: int = 50_000  # probe space, copy, broadcast
    merge_service_ns: int = 50_000  # undo a mis-inferred split
    checkpoint_service_ns: int = 4_000  # land one checkpoint frame

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("node_"):
                checks = [(f"{f.name}[{node}]", v) for node, v in (value or {}).items()]
            else:
                checks = [(f.name, value)]
            positive = f.name in _POSITIVE
            for name, v in checks:
                if not (v > 0 if positive else v >= 0):
                    raise ConfigError(f"{name} must be {'>' if positive else '>='} 0")

    def cores_of(self, node_id: int) -> int:
        return (self.node_cores or {}).get(node_id, self.cores_per_node)

    def ghz_of(self, node_id: int) -> float:
        return (self.node_ghz or {}).get(node_id, self.cpu_ghz)

    def pure_qemu(self) -> "CostModel":
        """The vanilla-QEMU baseline's model: translated code is
        ``QEMU_CPI_DISCOUNT`` cheaper per instruction."""
        return replace(self, cpi_dbt=self.cpi_dbt * QEMU_CPI_DISCOUNT)

    def scaled(self, k: float) -> "CostModel":
        """Communication costs divided by ``k``, bandwidth multiplied by it,
        for experiments whose compute is scaled down by ``k``: the kept
        compute:communication ratio keeps the paper's curve shapes (DESIGN.md
        §7).  CPU-side costs stay.  A non-zero cost never rounds to zero; a
        zero cost stays zero."""
        if k <= 0:
            raise ConfigError("scale factor must be positive")
        moved = {
            name: max(1, int(value / k)) if (value := getattr(self, name)) else 0
            for name in _COMMUNICATION
        }
        return replace(self, bandwidth_bps=self.bandwidth_bps * k, **moved)


#: The paper's testbed, shared by every config that does not override it.
TESTBED = CostModel()
