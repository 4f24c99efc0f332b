"""The paper's measured points, derived from micro-runs on the default cost model.

Nothing here restates a constant of ``repro.cost``: each point is measured
from a run and held against the figure the paper reports, within the
tolerance EXPERIMENTS.md states.  A re-calibration of ``CostModel`` that
moves a point fails the test that names it.
"""

import pytest

from repro import Cluster, DQEMUConfig
from repro.analysis.metrics import mean_fault_latency_us, throughput_mbps
from repro.net import Endpoint, Fabric
from repro.net.messages import Ack, PageRequest
from repro.sim import Simulator
from repro.workloads import memaccess

#: §6.1: the testbed's measured TCP round trip of a small control message.
PAPER_RTT_US = 55.0
#: Table 1's sequential walk, the paper's 1 GB scaled to the pages the
#: ``table1_memory`` cells walk.
TABLE1_PAGES = 256


def _table1_walk(**config) -> tuple[float, float]:
    """One slave walks TABLE1_PAGES pages the master holds; returns the
    guest-timed bandwidth (MB/s) and the worker's mean fault latency (µs)."""
    result = Cluster(1, DQEMUConfig(**config)).run(
        memaccess.build_seq_walk(npages=TABLE1_PAGES)
    )
    elapsed_ns, _checksum = memaccess.parse_output(result.stdout)
    workers = [tid for tid in result.stats.threads if tid != 1]
    return (
        throughput_mbps(memaccess.seq_walk_bytes(TABLE1_PAGES), elapsed_ns),
        mean_fault_latency_us(result, workers),
    )


def test_control_frame_round_trip_is_the_papers_55us():
    sim = Simulator()
    fabric = Fabric(sim)
    master, slave = (Endpoint(sim, fabric, i) for i in range(2))
    request, reply = PageRequest(page=1), Ack()
    assert request.size_bytes() == reply.size_bytes() == 64
    done = {}

    def serve():
        msg = yield master.subscribe("page_request").get()
        master.reply(msg, reply)

    def ask():
        yield slave.request(0, request)
        done["rtt_ns"] = sim.now

    sim.spawn(serve())
    sim.spawn(ask())
    sim.run()
    rtt_us = done["rtt_ns"] / 1000
    assert rtt_us == pytest.approx(56.848)
    assert rtt_us == pytest.approx(PAPER_RTT_US, rel=0.05)


def test_remote_page_fault_is_the_papers_410us():
    result = Cluster(1).run(memaccess.build_seq_walk(npages=16))
    workers = [tid for tid in result.stats.threads if tid != 1]
    latency_us = mean_fault_latency_us(result, workers)
    assert latency_us == pytest.approx(443.25)
    # Table 1 measures 410.5 µs ("Remote Sequential Access");
    # benchmarks/test_table1_memory.py holds the same band around it.
    assert 330 <= latency_us <= 500


def test_remote_sequential_bandwidth_is_the_papers_7_88_mbps():
    mbps, latency_us = _table1_walk()
    assert mbps == pytest.approx(8.839182, abs=1e-6)
    assert latency_us == pytest.approx(443.01)
    # Table 1 measures 7.88 MB/s; EXPERIMENTS.md reports ours 12 % above.
    assert mbps == pytest.approx(7.88, rel=0.13)


def test_forwarded_page_fault_is_below_the_papers_83us():
    mbps, latency_us = _table1_walk(forwarding_enabled=True)
    assert latency_us == pytest.approx(34.850831, abs=1e-6)
    assert mbps == pytest.approx(83.840591, abs=1e-6)
    # Table 1 measures 83.2 µs.  EXPERIMENTS.md deviation 5: ours is below
    # it (a racing fault completes as soon as the pushed page lands), and in
    # both the forwarded fault is an order of magnitude below a remote one.
    assert latency_us < 83.2
    assert latency_us < 443.01 / 10
