"""Reliable-delivery recovery experiment (partition-then-heal).

``test_fig5_partition`` regenerates the goodput-vs-drop-rate and
partition-recovery table (``benchmarks/results/services_fig5_partition.txt``)
and asserts its shape claims: a clean run with the retry budget armed sends
nothing extra, background loss degrades goodput but every drop is
retransmitted, and a mid-run partition of one slave aborts with a
``ServiceTimeout`` when retries are off but is ridden out when they are on.
"""

from benchmarks.conftest import regenerate
from repro.analysis.views import breakdown


def test_fig5_partition(benchmark):
    records = regenerate(benchmark, "services_fig5_partition")

    clean = records["no faults"]
    assert clean["completed"]
    # Arming the retry budget on a lossless fabric must change nothing.
    assert clean["rpc"]["retransmits"] == 0 and clean["rpc"]["recoveries"] == 0

    for label in ("drop 1/120", "drop 1/40"):
        lossy = records[label]
        assert lossy["completed"]
        # Every loss was detected and retransmitted, at a goodput cost.
        assert lossy["faults"]["dropped"] > 0
        assert lossy["rpc"]["retransmits"] > 0 and lossy["rpc"]["recoveries"] > 0
        assert lossy["goodput_mips"] < clean["goodput_mips"]

    bare = records["partition (no retry)"]
    assert not bare["completed"]
    assert "no reply" in bare["failure"]

    healed = records["partition + retry"]
    assert healed["completed"]
    assert healed["faults"]["dropped"] > 0
    assert healed["rpc"]["recoveries"] > 0
    assert healed["rpc"]["mean_recovery_us"] > 0
    # Recovering from a partition window costs more wall time than the
    # per-frame background loss (backoff spans the whole window).
    assert healed["rpc"]["mean_recovery_us"] > records["drop 1/40"]["rpc"]["mean_recovery_us"]
    # Everyone came back: the healed run ends with every peer reachable.
    assert set(healed["peers"].values()) == {"up"}
    # The committed table carries the per-service reliability columns.
    assert "retransmits" in breakdown("partition + retry")(list(records.values()))
