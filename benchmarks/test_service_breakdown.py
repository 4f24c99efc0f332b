"""Per-service load attribution tables (runtime service architecture).

Two representative workloads — the contended-mutex worst case and a
forwarding-friendly sequential page walk — are run once each and their
per-service counters rendered with
:func:`~repro.analysis.reporting.render_service_breakdown`.  The runs are
deterministic, so the emitted tables are byte-stable: CI regenerates them
and fails on drift, turning per-service load into a tracked regression
surface (an optimization that silently shifts work between subsystems now
shows up in review).
"""

from benchmarks.conftest import regenerate
from repro.analysis.experiments import render


def test_service_breakdown_mutex(benchmark):
    (record,) = regenerate(benchmark, "services_mutex").values()
    assert record["exit_codes"] == [0]

    services = record["services"]
    # The global lock hammers the master: syscall delegation and coherence
    # dominate, and the futex service sees the wait/wake storm.
    assert services["syscall"]["busy_ns"] > 0
    assert services["coherence"]["busy_ns"] > 0
    assert services["futex"]["requests"] > 0
    # Frame-serialization billing: futex wake/park delivery consumes the
    # master link, so it must not report zero busy time.
    assert services["futex"]["busy_ns"] > 0
    # Node-side control work (wake delivery, shutdown) bills its per-command
    # service span instead of reporting zero.
    assert services["node.control"]["busy_ns"] > 0
    # Contention on the master managers is visible as mailbox queue wait.
    assert services["coherence"]["queue_wait_ns"] > 0
    assert all(s["duplicates"] == 0 for s in services.values())
    # Default config never retransmits, so the reliability columns must stay
    # out of the rendered table (keeping the committed tables byte-stable).
    assert all(s["retransmits"] == 0 and s["recoveries"] == 0 for s in services.values())
    assert "retransmits" not in render("services_mutex", [record])


def test_service_breakdown_seq_forwarding(benchmark):
    (record,) = regenerate(benchmark, "services_seq_forwarding").values()
    assert record["exit_codes"] == [0]

    services = record["services"]
    # A sequential walk with forwarding on: pushes do the heavy lifting and
    # the node-side coherence client receives them.
    assert services["forwarding"]["requests"] > 0
    assert services["node.coherence"]["requests"] > 0
