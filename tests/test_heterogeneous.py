"""Heterogeneous-cluster tests (paper §1: nodes with different cores/clocks)."""

from repro import Cluster, CostModel, DQEMUConfig
from repro.workloads import pi_taylor


class TestConfig:
    def test_overrides_resolved(self):
        cost = CostModel(node_cores={1: 8}, node_ghz={2: 1.1})
        assert cost.cores_of(1) == 8
        assert cost.cores_of(2) == 4
        assert cost.ghz_of(2) == 1.1
        assert cost.ghz_of(1) == 3.3


class TestExecution:
    def test_results_identical_on_heterogeneous_cluster(self):
        prog = pi_taylor.build(n_threads=8, terms=100, reps=1)
        cfg = DQEMUConfig(cost=CostModel(node_cores={1: 2, 2: 8}, node_ghz={1: 1.0}))
        r = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stdout == pi_taylor.reference_output(100)

    def test_fat_node_finishes_its_share_faster(self):
        """Same thread count per node; the 8-core 2x-clock node's threads
        should finish in much less virtual time than the 1-core node's."""
        prog = pi_taylor.build(n_threads=8, terms=400, reps=4)
        cfg = DQEMUConfig(cost=CostModel(
            node_cores={1: 1, 2: 8},
            node_ghz={1: 1.65, 2: 3.3},
        )).time_scaled(1000)
        r = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert r.stdout == pi_taylor.reference_output(400)
        by_node = {1: [], 2: []}
        for ts in r.stats.threads.values():
            if ts.tid == 1:
                continue
            by_node[ts.node].append(ts.finished_ns - ts.created_ns)
        slow = max(by_node[1])
        fast = max(by_node[2])
        # node 1: 4 threads on 1 core at half clock; node 2: 4 threads on 8
        # cores at full clock -> at least ~4x lifetime difference.
        assert slow > 3 * fast

    def test_slow_clock_scales_execute_time(self):
        prog = pi_taylor.build(n_threads=4, terms=200, reps=2)
        base = Cluster(1, DQEMUConfig().time_scaled(1000)).run(
            prog, max_virtual_ms=600_000
        )
        slow = Cluster(
            1, DQEMUConfig(cost=CostModel(node_ghz={1: 3.3 / 2})).time_scaled(1000)
        ).run(prog, max_virtual_ms=600_000)
        assert slow.stdout == base.stdout
        # worker execute time roughly doubles at half the clock
        b = sum(t.execute_ns for t in base.stats.threads.values() if t.tid != 1)
        s = sum(t.execute_ns for t in slow.stats.threads.values() if t.tid != 1)
        assert 1.7 < s / b < 2.3
