"""Fig. 5 (sharded) — master-shard sweep at high node counts.

Extends the scalability story with the sharded master (ROADMAP "Async /
sharded master"): the blackscholes kernel's boundary false sharing keeps
every node's manager busy with coherence traffic on many distinct pages, so
the per-node manager mailbox backs up — measured as the coherence service's
queue wait.  Partitioning the directory across shard pools serves requests
for unrelated pages in parallel and must cut that wait monotonically.
"""

from benchmarks.conftest import regenerate
from repro.analysis.views import group


def test_fig5_sharded(benchmark):
    records = regenerate(benchmark, "services_fig5_sharded")
    # The highest node count, one record per shard count (1, 2, 4).
    top = [r["services"]["coherence"] for r in group(records.values(), "6 slaves")]
    assert records["6 slaves/1 shards"]["cell"]["config"]["master_shards"] == 1
    # There is head-of-line blocking to attack at the high end...
    assert top[0]["queue_wait_ns"] > 0
    # ...and sharding attacks it: mean coherence queue wait strictly drops
    # at every shard doubling, at the highest node count.
    waits = [c["queue_wait_ns"] / c["requests"] for c in top]
    for narrow, wide in zip(waits, waits[1:]):
        assert wide < narrow
    # The shard sweep never changes guest work: same request volume (within
    # the small jitter retries introduce) at every shard count.
    reqs = [c["requests"] for c in top]
    assert max(reqs) - min(reqs) <= 0.05 * max(reqs)
