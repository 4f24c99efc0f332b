"""Workload correctness across engine configurations.

Every PARSEC-like program has a bit-exact Python reference; these tests run
scaled-down instances on different cluster shapes, schedulers and
optimization settings and require identical output everywhere — the
strongest end-to-end statement that the DSM, delegation and optimizations
never corrupt guest state.
"""

import pytest

from repro import Cluster, CostModel, DQEMUConfig
from repro.workloads import (
    blackscholes,
    fluidanimate,
    memaccess,
    mutex_bench,
    pi_taylor,
    swaptions,
    x264,
)

LONG = dict(max_virtual_ms=600_000)


class TestPiTaylor:
    def test_result_matches_reference(self):
        prog = pi_taylor.build(n_threads=6, terms=150, reps=1)
        r = Cluster(2).run(prog, **LONG)
        assert r.stdout == pi_taylor.reference_output(150)

    def test_reference_converges_to_pi(self):
        assert abs(pi_taylor.reference(5000) - 3.14159265) < 1e-3

    @pytest.mark.parametrize("n_slaves", [0, 1, 4])
    def test_same_answer_any_cluster_size(self, n_slaves):
        prog = pi_taylor.build(n_threads=8, terms=80, reps=1)
        r = Cluster(n_slaves).run(prog, **LONG)
        assert r.stdout == pi_taylor.reference_output(80)

    def test_qemu_baseline_same_answer(self):
        prog = pi_taylor.build(n_threads=8, terms=80, reps=1)
        r = Cluster(0, DQEMUConfig(pure_qemu=True)).run(prog, **LONG)
        assert r.stdout == pi_taylor.reference_output(80)

    def test_more_nodes_is_faster(self):
        # Communication scaled with the reduced compute (see
        # DQEMUConfig.time_scaled) so the speedup curve shape is preserved.
        cfg = DQEMUConfig().time_scaled(1000)
        mk = lambda: pi_taylor.build(n_threads=16, terms=2000, reps=4)
        t1 = Cluster(1, cfg).run(mk(), **LONG).virtual_ns
        t4 = Cluster(4, cfg).run(mk(), **LONG).virtual_ns
        assert t4 < t1 / 2


class TestMutexBench:
    def test_global_lock_completes(self):
        prog = mutex_bench.build(n_threads=8, iters=50, private=False)
        r = Cluster(2).run(prog, **LONG)
        assert r.exit_code == 0

    def test_private_locks_futex_only_for_start_barrier(self):
        prog = mutex_bench.build(n_threads=8, iters=200, private=True)
        r = Cluster(2).run(prog, **LONG)
        assert r.exit_code == 0
        # the lock phase itself is an uncontended local CAS fast path: only
        # the three timing barriers may sleep (up to n_threads-1 waiters each)
        assert r.stats.protocol.futex_waits <= 3 * 8

    def test_worst_case_slower_than_best_case(self):
        cfg = lambda: DQEMUConfig(quantum_cycles=5000)
        glob = Cluster(2, cfg()).run(
            mutex_bench.build(n_threads=8, iters=20_000, private=False), **LONG
        )
        priv = Cluster(2, cfg()).run(
            mutex_bench.build(n_threads=8, iters=20_000, private=True), **LONG
        )
        assert glob.virtual_ns > 2 * priv.virtual_ns

    def test_contention_grows_beyond_one_node(self):
        """Fig. 6 worst case: the single-slave run keeps the lock page on one
        node; adding a second node starts the ping-pong."""
        cfg = lambda: DQEMUConfig(quantum_cycles=5000)
        mk = lambda: mutex_bench.build(n_threads=8, iters=20_000, private=False)
        t1 = Cluster(1, cfg()).run(mk(), **LONG).virtual_ns
        t2 = Cluster(2, cfg()).run(mk(), **LONG).virtual_ns
        assert t2 > 1.5 * t1


class TestMemaccess:
    def test_seq_walk_checksum_zero_over_bss(self):
        prog = memaccess.build_seq_walk(npages=4)
        r = Cluster(1).run(prog, **LONG)
        elapsed, checksum = memaccess.parse_output(r.stdout)
        assert checksum == 0
        assert elapsed > 0

    def test_false_sharing_checksum_and_timings(self):
        prog = memaccess.build_false_sharing(
            n_threads=8, n_nodes=2, iters=1000, warmup_iters=500
        )
        r = Cluster(2).run(prog, **LONG)
        elapsed, checksum = memaccess.parse_false_sharing_output(r.stdout)
        assert checksum == memaccess.false_sharing_checksum(8, 1500)
        assert len(elapsed) == 8
        assert all(t > 0 for t in elapsed)

    def test_false_sharing_checksum_with_splitting(self):
        prog = memaccess.build_false_sharing(
            n_threads=8, n_nodes=2, iters=30_000, warmup_iters=30_000
        )
        cfg = DQEMUConfig(
            splitting_enabled=True, cost=CostModel(dsm_service_ns=30_000), splitting_trigger=6
        )
        r = Cluster(2, cfg).run(prog, **LONG)
        _, checksum = memaccess.parse_false_sharing_output(r.stdout)
        assert checksum == memaccess.false_sharing_checksum(8, 60_000)
        assert r.stats.protocol.splits >= 1

    def test_splitting_raises_aggregate_bandwidth(self):
        mk = lambda: memaccess.build_false_sharing(
            n_threads=8, n_nodes=2, iters=60_000, warmup_iters=30_000
        )
        cfg = lambda sp: DQEMUConfig(
            splitting_enabled=sp, cost=CostModel(dsm_service_ns=30_000), splitting_trigger=6
        )
        base = Cluster(2, cfg(False)).run(mk(), **LONG)
        split = Cluster(2, cfg(True)).run(mk(), **LONG)
        bw = lambda r: memaccess.aggregate_bandwidth_mbps(
            memaccess.parse_false_sharing_output(r.stdout)[0], 60_000
        )
        assert split.stats.protocol.splits >= 1
        assert bw(split) > 1.5 * bw(base)


class TestBlackscholes:
    @pytest.mark.parametrize("n_slaves", [1, 3])
    def test_matches_reference(self, n_slaves):
        prog = blackscholes.build(n_threads=6, n_options=120)
        r = Cluster(n_slaves).run(prog, **LONG)
        assert r.stdout == blackscholes.reference_output(120)

    def test_forwarding_does_not_change_answer(self):
        prog = blackscholes.build(n_threads=6, n_options=120)
        cfg = DQEMUConfig(forwarding_enabled=True, splitting_enabled=True)
        r = Cluster(3, cfg).run(prog, **LONG)
        assert r.stdout == blackscholes.reference_output(120)

    def test_prices_are_sane(self):
        total = blackscholes.reference(120)
        assert 0 < total < 120 * 120  # every price within [0, S_max)


class TestSwaptions:
    def test_matches_reference(self):
        prog = swaptions.build(n_threads=8, n_swaptions=32, trials=60)
        r = Cluster(2).run(prog, **LONG)
        assert r.stdout == swaptions.reference_output(32, 60)

    def test_splitting_does_not_change_answer(self):
        prog = swaptions.build(n_threads=8, n_swaptions=32, trials=60)
        cfg = DQEMUConfig(splitting_enabled=True)
        r = Cluster(2, cfg).run(prog, **LONG)
        assert r.stdout == swaptions.reference_output(32, 60)

    def test_lcg_stream_reference_properties(self):
        # the Monte-Carlo mean of max(U-0.55, 0) over U~[0,1) is ~0.10125
        mean = swaptions.reference(16, 500) / (16 * 500)
        assert 0.08 < mean < 0.12


class TestX264:
    @pytest.mark.parametrize("scheduler", ["round_robin", "hint"])
    def test_matches_reference(self, scheduler):
        prog = x264.build(n_frames=8, group_size=4, pages_per_frame=1,
                          hint=("div", 4))
        r = Cluster(2, DQEMUConfig(scheduler=scheduler)).run(prog, **LONG)
        assert r.stdout == x264.reference_output(8, 4, 1)

    def test_hint_scheduling_speeds_up_pipeline(self):
        prog = x264.build(n_frames=16, group_size=8, pages_per_frame=2,
                          hint=("div", 8))
        rr = Cluster(2, DQEMUConfig(scheduler="round_robin")).run(prog, **LONG)
        prog2 = x264.build(n_frames=16, group_size=8, pages_per_frame=2,
                           hint=("div", 8))
        hint = Cluster(2, DQEMUConfig(scheduler="hint")).run(prog2, **LONG)
        # Co-locating a GOP's frames keeps reference reads node-local; the
        # per-thread page-fault *sums* can redistribute at this small scale,
        # so the robust claim is end-to-end time (Fig. 8's bench asserts the
        # breakdown at the full 128-thread scale).
        assert hint.virtual_ns < rr.virtual_ns


class TestFluidanimate:
    @pytest.mark.parametrize("n_slaves", [1, 2])
    def test_matches_reference(self, n_slaves):
        prog = fluidanimate.build(n_threads=8, iters=2, hint=("div", 4))
        r = Cluster(n_slaves).run(prog, **LONG)
        assert r.stdout == fluidanimate.reference_output(8, 2)

    def test_hint_scheduling_reduces_pagefault_time(self):
        mk = lambda: fluidanimate.build(n_threads=16, iters=3, hint=("div", 8))
        rr = Cluster(2, DQEMUConfig(scheduler="round_robin")).run(mk(), **LONG)
        hint = Cluster(2, DQEMUConfig(scheduler="hint")).run(mk(), **LONG)
        assert hint.stats.totals()["pagefault_ns"] < rr.stats.totals()["pagefault_ns"]

    def test_reference_stencil_properties(self):
        # one iteration with no neighbours leaves block 0's first cell at +0
        assert fluidanimate.reference(1, 0) == sum(range(512))
