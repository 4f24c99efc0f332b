"""Multi-tenant job admission experiment (beyond the paper: Fig. 9).

``test_fig9_multitenant`` drives a mixed blackscholes / mutex_bench / x264
job stream through one long-lived fleet at increasing tenant counts and
measures what admission control trades: aggregate goodput (total guest
instructions over the stream's makespan) versus p99 job queue wait.  With
``max_concurrent_jobs = 3``, streams of up to three jobs run wholly
concurrently (zero queue wait); deeper streams queue, so the wait
percentile becomes visible exactly where the admission limit binds.
"""

from benchmarks.conftest import regenerate
from repro.core.jobs import JobManager


def test_fig9_multitenant(benchmark):
    records = regenerate(benchmark, "fig9_multitenant")
    by_tenants = {len(r["cell"]["jobs"]): r for r in records.values()}
    # Every job in every stream ran to a clean exit.
    for n, row in by_tenants.items():
        assert row["exit_codes"] == [0] * n
    # Within the admission limit nothing queues; beyond it the limit binds
    # and the queue-wait percentile becomes visible.
    for n in (1, 2, 3):
        assert by_tenants[n]["queued_jobs"] == 0
        assert by_tenants[n]["p99_queue_wait_ms"] == 0
    for n in (4, 6):
        assert by_tenants[n]["queued_jobs"] == n - JobManager.MAX_CONCURRENT
        assert by_tenants[n]["p99_queue_wait_ms"] > 0
    # Co-scheduling pays: three overlapping tenants beat a solo stream's
    # aggregate goodput on the same fleet.
    assert by_tenants[3]["goodput_mips"] > by_tenants[1]["goodput_mips"]
    # Makespan grows monotonically with offered load.
    makespans = [row["virtual_ns"] for row in records.values()]
    assert makespans == sorted(makespans)
