"""Multi-tenant job admission: concurrent guests sharing one fleet.

The tentpole contract: a long-lived :class:`Cluster` admits jobs via
``submit``/``join``; concurrent tenants share the nodes but keep fully
isolated address spaces, futex namespaces, thread tables, and stats — so
every job's exit code and stdout are identical to what a solo run of the
same program produces on a fresh cluster.
"""

import gc
import weakref

import pytest

from repro import AdmissionError, Cluster, CostModel, DQEMUConfig, JobState, assemble
from repro.core.gthread import GuestThread
from repro.core.jobs import Job, JobManager
from repro.core.scheduler import FairRunQueue
from repro.core.stats import ThreadStats
from repro.dbt.cpu import CPUState
from repro.errors import ConfigError, NetworkError
from repro.net.health import PeerState
from repro.net.messages import Invalidate, PageData, PageRequest
from repro.sim import Simulator
from repro.kernel.sysnums import SYS
from repro.workloads import blackscholes, memaccess, mutex_bench, x264
from repro.workloads.common import workload_builder


def tagged_program(tag: str, exit_code: int):
    """A tiny guest printing ``tag`` and exiting with ``exit_code``."""
    return assemble(f"""
_start:
    la a1, msg
    li a0, 1
    li a2, {len(tag) + 1}
    li a7, 64
    ecall
    li a0, {exit_code}
    li a7, 94
    ecall
.data
msg: .asciz "{tag}\\n"
""")


class TestConcurrentIsolation:
    def test_three_concurrent_jobs_isolated_output(self):
        cluster = Cluster(2)
        jobs = [
            cluster.submit(tagged_program(f"guest{i}", 10 + i), name=f"g{i}")
            for i in range(3)
        ]
        results = cluster.join(jobs)
        for i, res in enumerate(results):
            assert res.exit_code == 10 + i
            assert res.stdout == f"guest{i}\n"
            assert res.tenant == i
            assert res.stats.tenant == i

    def test_mixed_workloads_match_solo_runs(self):
        # The acceptance bar: >= 3 concurrent mixed-workload programs on one
        # fleet, each RunResult matching a solo run of the same program on a
        # fresh cluster.  Computed output (checksums, exit codes) must be
        # bit-identical; mutex_bench prints per-thread *elapsed virtual
        # times*, which legitimately shift under co-tenancy (threads contend
        # for shared cores), so for it we assert the structure and the
        # workload's own invariants instead of raw timing text.
        programs = [
            ("blackscholes", blackscholes.build(n_threads=4, n_options=16)),
            ("mutex", mutex_bench.build(n_threads=4, iters=40)),
            ("x264", x264.build(n_frames=8, group_size=4, pages_per_frame=1)),
        ]
        solo = {
            name: Cluster(2).run(prog, max_virtual_ms=2_000)
            for name, prog in programs
        }
        fleet = Cluster(2)
        jobs = [
            fleet.submit(prog, name=name, max_virtual_ms=2_000)
            for name, prog in programs
        ]
        shared = fleet.join(jobs)
        for (name, _), res in zip(programs, shared):
            assert res.exit_code == solo[name].exit_code, name
            if name == "mutex":
                mine = mutex_bench.parse_elapsed_ns(res.stdout)
                theirs = mutex_bench.parse_elapsed_ns(solo[name].stdout)
                assert len(mine) == len(theirs) == 4
                assert all(t > 0 for t in mine)
            else:
                assert res.stdout == solo[name].stdout, name

    def test_finished_jobs_shutdown_leaves_cotenants_running(self):
        # A job's exit broadcasts Shutdown to every node; the frame must carry
        # the finishing job's tenant or it stops tenant 0's threads instead.
        prog = mutex_bench.build(n_threads=4, iters=40)
        fleet = Cluster(2)
        long_job = fleet.submit(prog, name="long", max_virtual_ms=2_000)
        short_job = fleet.submit(tagged_program("short", 3), name="short")
        long_res, short_res = fleet.join([long_job, short_job])
        assert short_job.finished_ns < long_job.finished_ns
        assert (long_res.exit_code, short_res.exit_code) == (0, 3)
        assert len(mutex_bench.parse_elapsed_ns(long_res.stdout)) == 4

    def test_solo_run_on_fleet_matches_fresh_cluster(self):
        # Cluster.run is the one-job compat wrapper: same numbers as ever.
        prog = mutex_bench.build(n_threads=4, iters=40)
        a = Cluster(2).run(prog, max_virtual_ms=2_000)
        b = Cluster(2).run(prog, max_virtual_ms=2_000)
        assert a.exit_code == b.exit_code
        assert a.stdout == b.stdout
        assert a.virtual_ns == b.virtual_ns
        assert a.stats.insns_executed == b.stats.insns_executed

    def test_tenant_fabric_slices_partition_global_traffic(self):
        cluster = Cluster(2)
        jobs = [
            cluster.submit(tagged_program(f"t{i}", 0), name=f"t{i}")
            for i in range(3)
        ]
        results = cluster.join(jobs)
        fabric = cluster._fleet.fabric
        live = [fabric.stats_for(r.tenant).messages_sent for r in results]
        assert fabric.stats.messages_sent == sum(live)
        for res in results:
            assert res.fabric.messages_sent > 0

    def test_a_result_does_not_change_after_a_later_job(self):
        """A result is the job as it settled: frames of it still in flight
        (its Shutdown and their acks) reach only the live fleet."""
        cluster = Cluster(4)
        first = cluster.run(blackscholes.build(n_threads=4, n_options=64))
        sent = first.fabric.messages_sent, first.fabric.bytes_sent
        control = first.stats.services["node.control"]
        billed = control.requests, control.busy_ns
        heard = {n: p.last_heard_ns for n, p in first.health.peers.items()}
        cluster.run(blackscholes.build(n_threads=4, n_options=64))
        assert (first.fabric.messages_sent, first.fabric.bytes_sent) == sent
        assert (control.requests, control.busy_ns) == billed
        assert first.stats.services["node.control"] is control
        assert {n: p.last_heard_ns for n, p in first.health.peers.items()} == heard
        fleet = cluster._fleet
        assert fleet.fabric.retired == {first.tenant}  # only its frames are retired
        assert fleet.fabric.retired_stats.messages_sent > sent[0]
        assert fleet.fabric.health.peer(0).last_heard_ns > heard[0]

    def test_per_tenant_directories_are_disjoint_views(self):
        cluster = Cluster(2)
        jobs = [cluster.submit(tagged_program(f"d{i}", 0)) for i in range(2)]
        cluster.join(jobs)
        directories = cluster.directories
        assert list(directories) == [0, 1]
        assert directories[0] is not directories[1]
        for directory in directories.values():
            directory.check_invariants()

    def test_queue_wait_is_zero_for_immediately_admitted_jobs(self):
        cluster = Cluster(1)
        res = cluster.run(tagged_program("solo", 0))
        assert res.queue_wait_ns == 0
        assert res.tenant == 0


class TestRetirement:
    """A settled job whose Shutdown every node acked keeps only its record
    (docs/PROTOCOL.md "Job lifecycle")."""

    @staticmethod
    def _retired():
        cluster = Cluster(2)
        first = cluster.run(tagged_program("a", 0))
        cluster.run(tagged_program("b", 0))  # job 0's Shutdown acks land here
        return cluster, first

    def test_retiring_frees_all_but_the_record(self):
        cluster, first = self._retired()
        fleet = cluster._fleet
        job = cluster.jobs[0]
        assert job.runtime is None and job.result is first
        assert job.program is job.stdin is job.files is None  # its inputs too
        assert all(0 not in node.tenants for node in fleet.nodes.values())
        assert list(cluster.directories) == [1]
        mailboxes = [k for k in fleet.nodes[0].endpoint._queues if k != "comm"]
        assert mailboxes and all(k[1] == 1 for k in mailboxes)
        # Its traffic is held once, in the fleet's retired total.
        fabric = fleet.fabric
        assert 0 not in fabric.tenant_stats
        assert fabric.retired_stats.messages_sent >= first.fabric.messages_sent > 0
        assert fabric.stats.messages_sent == (
            fabric.retired_stats.messages_sent + fabric.tenant_stats[1].messages_sent
        )
        assert fabric.retired == {0} and fabric.late_frames == 0
        # run() returns before its own job's Shutdown lands.
        assert cluster.jobs[1].runtime is not None

    def test_late_requests_are_dropped_and_counted(self):
        cluster, _ = self._retired()
        fleet = cluster._fleet
        fleet.nodes[1].endpoint.deliver(Invalidate(page=5, src=0, tenant=0))
        fleet.nodes[0].endpoint.deliver(PageRequest(page=5, src=1, tenant=0))
        fleet.sim.run()
        assert fleet.fabric.late_frames == 2
        assert fleet.broken_error is None

    def test_a_reply_still_completes_its_call(self):
        cluster, _ = self._retired()
        fleet = cluster._fleet
        slave = fleet.nodes[1].endpoint
        request = PageRequest(page=5, tenant=0)
        call = slave.request(0, request)
        fleet.sim.run()  # the request is dropped at the master
        assert fleet.fabric.late_frames == 1 and not call.triggered
        # The late frame is booked in the retired total: no slice comes back.
        assert 0 not in fleet.fabric.tenant_stats
        reply = PageData(page=5, src=0, in_reply_to=request.req_id, tenant=0)
        slave.deliver(reply)
        fleet.sim.run()
        assert call.processed and call.value is reply
        assert fleet.fabric.late_frames == 1

    def test_a_late_requeue_of_a_retired_thread_is_dropped(self):
        # A late reply resumes a handler whose thread left at the Shutdown:
        # its core drops the requeued thread, and its exit finds no bundle.
        cluster, _ = self._retired()
        fleet = cluster._fleet
        node = fleet.nodes[1]
        th = GuestThread(CPUState(pc=0, tid=9), ThreadStats(tid=9), tenant=0)
        node._requeue(th)
        fleet.sim.run()
        node.leave(th, "exit", finished=True)
        assert fleet.broken_error is None and th.stats.quanta == 0

    def test_a_tenant_that_never_existed_still_fails_loudly(self):
        cluster, _ = self._retired()
        fleet = cluster._fleet
        with pytest.raises(NetworkError, match="no subscriber"):
            fleet.nodes[0].endpoint.deliver(PageRequest(page=5, src=1, tenant=7))
        fleet.nodes[1].endpoint.deliver(Invalidate(page=5, src=0, tenant=7))
        fleet.sim.run()
        assert isinstance(fleet.broken_error, KeyError)
        assert fleet.fabric.late_frames == 0

    @pytest.mark.parametrize("config", [
        DQEMUConfig(),
        DQEMUConfig(
            rpc_timeout_ns=50_000_000, rpc_max_retries=4, evacuation_enabled=True,
            heartbeat_interval_ns=500_000,
        ),
    ], ids=["default", "armed"])
    def test_a_held_result_pins_no_fleet(self, config):
        cluster = Cluster(2, config)
        result = cluster.run(mutex_bench.build(n_threads=2, iters=10))
        sim = weakref.ref(cluster._fleet.sim)
        del cluster
        gc.collect()
        assert sim() is None
        assert result.exit_code == 0 and result.health.state_of(1) is PeerState.UP

    @staticmethod
    def _objects_per_job(pages: int) -> list[int]:
        """Growth of the collector's object count over each of jobs 4 and 5
        of a stream of sequential jobs on one cluster, results held; and
        that job 2's page stores, the master's home copy and each node's,
        are freed once it retired."""
        cluster, results, counts = Cluster(4), [], []
        for job in range(5):
            results.append(cluster.run(memaccess.build_private_rmw(
                n_threads=4, pages_per_thread=pages, passes=1, stride=1024,
            )))
            if job == 1:
                tenant = cluster.jobs[job].tenant
                stores = [weakref.ref(cluster.jobs[job].runtime.master.home)] + [
                    weakref.ref(node.tenants[tenant].memory.pages)
                    for node in cluster._fleet.nodes.values()
                ]
            gc.collect()
            counts.append(len(gc.get_objects()))
        assert [store() for store in stores] == [None] * len(stores)
        return [after - before for before, after in zip(counts[2:], counts[3:])]

    @staticmethod
    def _twin_exits():
        """Two workers on two slaves park on one futex word; ``main`` wakes
        both at once and spins, and each worker calls exit_group(7)."""
        b = workload_builder()
        b.label("main")
        for _ in range(2):
            b.la("a0", "worker")
            b.li("a1", 0)
            b.call("rt_thread_create")
        b.la("a0", "nap")
        b.li("a1", 0)
        b.li("a7", SYS.NANOSLEEP)  # both workers park meanwhile
        b.ecall()
        b.la("a0", "gate")
        b.li("a1", 1)  # FUTEX_WAKE
        b.li("a2", 2)
        b.li("a7", SYS.FUTEX)
        b.ecall()
        b.label(".idle")
        b.j(".idle")
        b.label("worker")
        b.la("a0", "gate")
        b.li("a1", 0)  # FUTEX_WAIT
        b.li("a2", 0)
        b.li("a7", SYS.FUTEX)
        b.ecall()
        b.li("a0", 7)
        b.li("a7", SYS.EXIT_GROUP)
        b.ecall()
        b.data()
        b.align(8)
        b.label("nap")
        b.quad(0, 1_000_000)
        b.label("gate")
        b.quad(0)
        b.text()
        return b.assemble()

    def test_a_second_exit_group_retires_the_job_once(self):
        # A slow syscall service lets both exit_groups reach the master
        # before either finishes the job: two rounds of Shutdown, whose acks
        # all land during the second job, and one retirement.
        cfg = DQEMUConfig(cost=CostModel(syscall_service_ns=50_000))
        cluster = Cluster(2, cfg, trace=True)
        first = cluster.run(self._twin_exits())
        second = cluster.run(self._twin_exits())
        assert (first.exit_code, second.exit_code) == (7, 7)
        exits = [e for e in cluster.tracer.filter(category="run")
                 if e.ts_ns < cluster.jobs[1].finished_ns]
        assert len(exits) == 2
        fleet = cluster._fleet
        assert cluster.jobs[0].runtime is None and fleet.broken_error is None
        assert fleet.fabric.retired == {0} and fleet.fabric.late_frames == 0

    @staticmethod
    def _write_then_nap():
        """``main`` writes one data page, sleeps 1 ms and exits 0."""
        b = workload_builder()
        b.label("main")
        b.la("t0", "buf")
        b.li("t1", 1)
        b.sd("t1", 0, "t0")
        b.la("a0", "nap")
        b.li("a1", 0)
        b.li("a7", SYS.NANOSLEEP)
        b.ecall()
        b.li("a0", 0)
        b.ret()
        b.data()
        b.align(4096)
        b.label("buf")
        b.quad(0)
        b.label("nap")
        b.quad(0, 1_000_000)
        b.text()
        return b.assemble()

    def test_a_handler_still_running_at_exit_delays_retirement(self):
        # Node 1 asks for the page main wrote while the test holds its page
        # lock; the handler is still queued on that lock when the job exits.
        # Released during the next job, it must still reach node 0's copy
        # (an Invalidate, timed): the job retires only after it.
        cfg = DQEMUConfig(rpc_timeout_ns=5_000_000)
        cluster = Cluster(2, cfg)
        program = self._write_then_nap()
        job = cluster.submit(program)
        fleet = cluster._fleet
        sim = fleet.sim
        sim.run(until=1_000_000)  # main has written the page and sleeps
        page = program.symbol("buf") >> 12
        locks = job.runtime.master.coherence.locks
        assert locks.acquire(page) is sim.granted
        call = fleet.nodes[1].endpoint.request(
            0, PageRequest(page=page, write=True, tenant=job.tenant)
        )
        sim.timeout(1_500_000).add_callback(lambda _e: locks.release(page))
        assert cluster.join([job])[0].exit_code == 0
        assert cluster.run(self._write_then_nap()).exit_code == 0
        sim.run()  # let every timer of both jobs run out
        assert fleet.broken_error is None
        assert call.processed and isinstance(call.value, PageData)
        assert job.runtime is None and fleet.fabric.late_frames == 0

    def test_a_finished_job_costs_its_record_not_its_pages(self):
        # What a retired job leaves behind does not grow with its pages.
        assert self._objects_per_job(32) == self._objects_per_job(64)


class TestAdmissionControl:
    def test_queue_depth_overflow_is_refused(self):
        cluster = Cluster(1)
        accepted = JobManager.MAX_CONCURRENT + JobManager.QUEUE_DEPTH
        jobs = [cluster.submit(tagged_program(f"j{i}", 0)) for i in range(accepted)]
        assert [job.state for job in jobs].count(JobState.QUEUED) == JobManager.QUEUE_DEPTH
        with pytest.raises(AdmissionError, match="admission queue full"):
            cluster.submit(tagged_program("over", 0))
        assert cluster.manager.rejected_total == 1
        # The refused submission left no trace: every accepted job completes.
        results = cluster.join()
        assert [r.exit_code for r in results] == [0] * accepted

    def test_queued_job_admitted_when_slot_frees_and_waits_are_measured(self):
        cluster = Cluster(1)
        running = [cluster.submit(tagged_program(f"r{i}", i))
                   for i in range(JobManager.MAX_CONCURRENT)]
        queued = cluster.submit(tagged_program("queued", 9))
        assert queued.state is JobState.QUEUED
        results = cluster.join()
        assert [r.exit_code for r in results] == [*range(JobManager.MAX_CONCURRENT), 9]
        # The queued job started at the virtual time the first slot freed.
        assert queued.admitted_ns == min(job.finished_ns for job in running)
        assert results[-1].queue_wait_ns == queued.admitted_ns - queued.submitted_ns
        assert results[-1].queue_wait_ns > 0
        assert all(r.queue_wait_ns == 0 for r in results[:-1])

    def test_single_job_configs_refuse_second_submission(self):
        cluster = Cluster(0, DQEMUConfig(pure_qemu=True))
        cluster.run(tagged_program("once", 0))
        with pytest.raises(ConfigError, match="single-job"):
            cluster.submit(tagged_program("again", 0))

    def test_join_on_empty_cluster_returns_nothing(self):
        assert Cluster(1).join() == []


class TestJobManagerUnit:
    def _manager(self):
        admitted = []
        return JobManager(admitted.append), admitted

    def _job(self, tenant):
        return Job(tenant=tenant, name=f"j{tenant}", program=None)

    def test_admits_up_to_concurrency_then_queues(self):
        mgr, admitted = self._manager()
        running = JobManager.MAX_CONCURRENT
        for i in range(running + 2):
            mgr.submit(self._job(i))
        assert [j.tenant for j in admitted] == list(range(running))
        assert [j.tenant for j in mgr.queue] == [running, running + 1]
        assert mgr.admitted_total == running

    def test_refuses_beyond_queue_depth(self):
        mgr, _ = self._manager()
        accepted = JobManager.MAX_CONCURRENT + JobManager.QUEUE_DEPTH
        for i in range(accepted):
            mgr.submit(self._job(i))
        with pytest.raises(AdmissionError):
            mgr.submit(self._job(accepted))
        assert mgr.rejected_total == 1 and len(mgr.queue) == JobManager.QUEUE_DEPTH

    def test_job_done_admits_fifo(self):
        mgr, admitted = self._manager()
        running = JobManager.MAX_CONCURRENT
        jobs = [self._job(i) for i in range(running + 2)]
        for job in jobs:
            mgr.submit(job)
        mgr.job_done(jobs[0])
        assert [j.tenant for j in admitted] == list(range(running + 1))
        mgr.job_done(jobs[1])
        assert [j.tenant for j in admitted] == list(range(running + 2))
        assert not mgr.queue


class _FakeThread:
    def __init__(self, tenant, tag):
        self.tenant = tenant
        self.tag = tag

    def __repr__(self):
        return self.tag


class TestFairRunQueue:
    def _drain(self, q, n):
        out = []
        for _ in range(n):
            ev = q.get()
            assert ev.triggered
            out.append(ev.value)
        return out

    def test_single_tenant_is_fifo(self):
        q = FairRunQueue(Simulator())
        items = [_FakeThread(0, f"a{i}") for i in range(4)]
        for it in items:
            q.put(it)
        assert self._drain(q, 4) == items

    def test_two_tenants_round_robin(self):
        q = FairRunQueue(Simulator())
        a = [_FakeThread(0, f"a{i}") for i in range(3)]
        b = [_FakeThread(1, f"b{i}") for i in range(2)]
        for it in a + b:  # tenant 0 floods the queue first
            q.put(it)
        picks = self._drain(q, 5)
        assert picks == [a[0], b[0], a[1], b[1], a[2]]

    def test_sentinel_at_head_pops_plain_fifo(self):
        q = FairRunQueue(Simulator())
        q.put(None)
        q.put(_FakeThread(0, "a0"))
        assert self._drain(q, 1) == [None]

    def test_put_to_waiting_getter_bypasses_arbitration(self):
        q = FairRunQueue(Simulator())
        ev = q.get()
        assert not ev.triggered
        th = _FakeThread(3, "x")
        q.put(th)
        assert ev.triggered and ev.value is th
        assert len(q) == 0
