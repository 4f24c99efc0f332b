"""DBT hot-path experiment: chaining + trace superblocks + idiom fusion.

``test_dbt_hotpath`` runs a PARSEC-stand-in mix on the same fleet shape
under two DBT configurations — ``baseline`` (block chaining, always on)
and ``hotpath`` (chaining plus superblock promotion and idiom fusion) — and
measures what the hot tier buys: code-cache lookups and
dispatches per thousand executed instructions, the fig8-style
execute/translate cycle split, superblocks formed, per-pattern fusion
hits, and the virtual cycles the cheaper superblock CPI / fused idioms
avoided.  Architectural identity is asserted alongside the numbers:
computed stdout must be byte-identical across both configs
(mutex_bench prints virtual-time measurements, so only its exit code is
compared).
"""

from benchmarks.conftest import regenerate
from repro.analysis.experiments import DBT_CONFIGS, DBT_WORKLOADS

TIMING_DEPENDENT_STDOUT = {"mutex_bench"}


def test_dbt_hotpath(benchmark):
    records = regenerate(benchmark, "dbt_hotpath")

    def dbt(workload, config):
        return records[f"{workload}/{config}"]["dbt"]

    for workload in DBT_WORKLOADS:
        cells = [records[f"{workload}/{config}"] for config in DBT_CONFIGS]
        base, hot = (cell["dbt"] for cell in cells)
        # Architectural identity: the hot path changes timing, never results.
        assert all(cell["exit_codes"] == [0] for cell in cells)
        if workload not in TIMING_DEPENDENT_STDOUT:
            assert len({cell["stdout"] for cell in cells}) == 1, workload
        # Only the hot path forms superblocks or fuses idioms.
        assert base["superblocks_formed"] == 0 and not base["fusion_hits"]
        # Superblock tier: one trace dispatch covers many blocks, so total
        # dispatches per instruction drop.
        assert hot["dispatches_per_kinsn"] < base["dispatches_per_kinsn"]
    # Loop-heavy workloads promote traces, bank real cycle savings, and the
    # cheaper superblock CPI beats the trace-compilation cost end to end.
    for name in ("pi_taylor", "x264"):
        base, hot = dbt(name, "baseline"), dbt(name, "hotpath")
        assert hot["superblocks_formed"] > 0
        assert hot["superblock_saved_cycles"] > 0
        assert hot["cpi"] < base["cpi"]
    # Each fusion pattern fires somewhere in the mix: the spinlock idiom in
    # mutex_bench, the load+op idiom in x264's pixel loops.
    assert dbt("mutex_bench", "hotpath")["fusion_hits"].get("atomic_branch", 0) > 0
    assert dbt("x264", "hotpath")["fusion_hits"].get("load_op", 0) > 0
