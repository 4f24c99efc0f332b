"""Tests for the sharded master: routing invariants, shadow-page affinity,
single-shard bit-identity, functional equivalence under sharding, queue-wait
attribution, and post-finish frame-drop accounting."""

import dataclasses

import pytest

from repro import Cluster, DQEMUConfig
from repro.core.master import MasterRuntime
from repro.core.node import NodeRuntime
from repro.core.scheduler import ThreadPlacer
from repro.core.stats import RunStats
from repro.errors import ConfigError
from repro.kernel.syscalls import SystemState
from repro.mem.layout import PAGE_SIZE, SHADOW_BASE
from repro.mem.pagestore import PageStore
from repro.mem.sharding import ShadowPageAllocator, shard_of
from repro.net.fabric import Fabric
from repro.net.messages import PageRequest
from repro.sim import Simulator
from repro.workloads import memaccess, mutex_bench


def run_mutex(**config_kw):
    prog = mutex_bench.build(n_threads=4, iters=200, private=False)
    cfg = DQEMUConfig(**config_kw)
    return Cluster(n_slaves=2, config=cfg).run(prog)


# ---------------------------------------------------------------------------
# Routing invariants
# ---------------------------------------------------------------------------


class TestShardOf:
    def test_total_partition(self):
        """Every page maps to exactly one shard, always in range."""
        for nshards in (1, 2, 3, 4, 7):
            for page in [0, 1, 2, 5, 1000, SHADOW_BASE // PAGE_SIZE, 2**36 - 1]:
                s = shard_of(page, nshards)
                assert 0 <= s < nshards
                assert shard_of(page, nshards) == s  # deterministic

    def test_single_shard_maps_everything_to_zero(self):
        assert all(shard_of(p, 1) == 0 for p in range(1000))

    def test_interleaves_contiguous_ranges(self):
        """Consecutive pages round-robin across shards (a streamed working
        set spreads over every pool instead of hammering one)."""
        shards = [shard_of(p, 4) for p in range(8)]
        assert shards == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigError):
            shard_of(1, 0)


class TestShadowPageAllocator:
    def test_shadow_lands_on_own_shard(self):
        """A split page's shadows must live on the original's shard: the
        merge lock set stays intra-shard (deadlock-freedom argument)."""
        for nshards in (1, 2, 3, 4):
            for shard in range(nshards):
                alloc = ShadowPageAllocator(shard, nshards)
                for _ in range(32):
                    assert shard_of(alloc.alloc(), nshards) == shard

    def test_single_shard_matches_legacy_cursor(self):
        """With one shard the allocator is the pre-sharding shadow cursor:
        SHADOW_BASE up, step 1 (bit-identity of existing runs)."""
        alloc = ShadowPageAllocator(0, 1)
        base = SHADOW_BASE // PAGE_SIZE
        assert [alloc.alloc() for _ in range(4)] == [base, base + 1, base + 2, base + 3]

    def test_allocations_disjoint_across_shards(self):
        allocs = [ShadowPageAllocator(s, 4) for s in range(4)]
        pages = [a.alloc() for a in allocs for _ in range(16)]
        assert len(set(pages)) == len(pages)

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ConfigError):
            ShadowPageAllocator(2, 2)


# ---------------------------------------------------------------------------
# Single-shard bit-identity and sharded functional equivalence
# ---------------------------------------------------------------------------


class TestShardedRuns:
    def test_single_shard_is_bit_identical_to_default(self):
        """master_shards=1 (the default) takes the unsharded code paths:
        two runs — one default config, one explicit — agree on every
        RunStats counter and every fabric counter."""
        base = run_mutex()
        explicit = run_mutex(master_shards=1)
        assert base.exit_code == explicit.exit_code == 0
        assert dataclasses.asdict(base.stats) == dataclasses.asdict(explicit.stats)
        assert vars(base.fabric) == vars(explicit.fabric)
        # Single shard: no per-shard sub-breakdown beyond shard 0.
        for svc in base.stats.services.values():
            assert set(svc.shards) <= {0}

    def test_sharded_run_is_functionally_equivalent(self):
        """master_shards=4 changes timing (parallel pools) but never guest
        semantics: the sequential walk computes the same checksum."""
        prog = memaccess.build_seq_walk(npages=64)
        base = Cluster(1, DQEMUConfig()).run(prog)
        sharded = Cluster(1, DQEMUConfig(master_shards=4)).run(prog)
        assert sharded.exit_code == base.exit_code == 0
        _, base_sum = memaccess.parse_output(base.stdout)
        _, sharded_sum = memaccess.parse_output(sharded.stdout)
        assert sharded_sum == base_sum
        # The mutex worst case exercises syscalls/futexes across shards too.
        assert run_mutex(master_shards=4).exit_code == 0

    def test_sharded_splitting_preserves_semantics(self):
        """Page splitting under a sharded master: splits happen, shadows are
        shard-affine by construction, and the guest exits cleanly."""
        from tests.test_optimizations import FAST, false_sharing_program

        prog = false_sharing_program()
        cfg = DQEMUConfig(splitting_enabled=True, master_shards=2, **FAST)
        sharded = Cluster(2, cfg).run(prog, max_virtual_ms=600_000)
        assert sharded.exit_code == 0
        assert sharded.stats.protocol.splits == 1
        assert sharded.stats.protocol.split_retry_replies >= 1

    def test_shard_breakdown_sums_to_aggregate(self):
        """Per-shard rows partition the aggregate exactly for dispatched
        (master-side, sharded) services."""
        r = run_mutex(master_shards=4)
        for name in ("coherence", "splitting"):
            svc = r.stats.services[name]
            assert sum(s.requests for s in svc.shards.values()) == svc.requests
            assert sum(s.busy_ns for s in svc.shards.values()) == svc.busy_ns
            assert (
                sum(s.queue_wait_ns for s in svc.shards.values())
                == svc.queue_wait_ns
            )

    def test_queue_wait_is_measured(self):
        """The contended-mutex worst case backs up the master managers:
        coherence queue wait is nonzero and billed per shard."""
        r = run_mutex()
        assert r.stats.services["coherence"].queue_wait_ns > 0


# ---------------------------------------------------------------------------
# Node-side service-time billing (satellite: busy_ns was 0 for control work)
# ---------------------------------------------------------------------------


class TestServiceTimeBilling:
    def test_futex_and_node_control_bill_busy_time(self):
        r = run_mutex()
        services = r.stats.services
        # The futex storm bills its frames' serialization time as busy time.
        assert services["futex"].requests > 0
        assert services["futex"].busy_ns > 0
        # Node-side control handling (futex wakes, shutdown) bills the
        # per-command service timeout via started_at.
        assert services["node.control"].requests > 0
        assert services["node.control"].busy_ns > 0


# ---------------------------------------------------------------------------
# Post-finish frame drops (satellite: silent swallow -> counted drop)
# ---------------------------------------------------------------------------


class TestPostFinishDrops:
    def _make_master(self, nshards=1):
        sim = Simulator()
        cfg = DQEMUConfig(master_shards=nshards)
        fabric = Fabric(sim, cfg.cost)
        stats = RunStats()
        node = NodeRuntime(sim, fabric, 0, cfg, stats)
        state = SystemState(brk_start=0x10000, stdin=b"")
        master = MasterRuntime(
            sim, cfg, node, [0], PageStore(), state,
            ThreadPlacer(cfg.scheduler, [0]), stats, sim.event(),
        )
        return sim, node, master, stats

    @pytest.mark.parametrize("nshards", [1, 4])
    def test_post_finish_frames_are_counted(self, nshards):
        sim, node, master, stats = self._make_master(nshards)
        master.start()
        node.start()
        master.finish(0)
        node.endpoint.request(0, PageRequest(page=5, write=False))
        sim.run()
        assert stats.protocol.post_finish_drops == 1
        assert stats.protocol.page_requests == 0  # never reached the service

    def test_pre_finish_frames_are_served(self):
        sim, node, master, stats = self._make_master()
        master.start()
        node.start()
        node.endpoint.request(0, PageRequest(page=5, write=False))
        sim.run()
        assert stats.protocol.post_finish_drops == 0
        assert stats.protocol.page_requests == 1
