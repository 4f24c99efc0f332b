"""Table 1 microbenchmarks: memory throughput and latency probes.

Three programs, mirroring §6.1.1's page-access-latency study:

* :func:`build_seq_walk` — one worker walks a large reserved region
  sequentially, byte by byte (the paper walks 1 GB on the master from a
  slave; size is scaled via ``npages``).  Measures remote sequential
  bandwidth, and with forwarding enabled, the §5.2 gain.
* :func:`build_false_sharing` — 32 threads on 4 nodes each walk their own
  128-byte section of ONE page (read-increment-write), the false-sharing
  pattern that page splitting (§5.1) dissolves.  Sections are assigned so
  threads placed on the same node get adjacent sections (the paper
  schedules threads evenly and sections contiguously) — the Fig. 4 geometry.
* :func:`build_private_rmw` — each thread read-increment-writes its OWN
  multi-page region (first touch is a read, first write follows shortly).
  Under MSI every private page costs two master round trips (read grant,
  then the S→M upgrade); a MESI protocol grants Exclusive on the read and
  the write upgrades silently, halving the round trips.  An optional
  ``shared_beat`` mixes in a page-level ping-pong page (each thread RMWs
  its own byte of one shared page) so a per-page adaptive protocol has
  both classes to tell apart in a single program.

Like the paper's microbenchmarks, the guest programs time the measured
region themselves (``rt_time_ns`` around the walk, after a warm-up phase
that lets the coherence protocol reach steady state / trigger splitting)
and print ``elapsed_ns`` then a data checksum.  The harness derives MB/s
from bytes touched / guest-reported time.
"""

from __future__ import annotations

from repro.isa.program import Program
from repro.workloads.common import emit_fanout_main, workload_builder

__all__ = [
    "build_seq_walk",
    "build_false_sharing",
    "build_private_rmw",
    "seq_walk_bytes",
    "false_sharing_checksum",
    "parse_output",
    "private_rmw_pages",
    "SECTION_BYTES",
]

SECTION_BYTES = 128


def seq_walk_bytes(npages: int) -> int:
    return npages * 4096


def false_sharing_checksum(n_threads: int, total_iters: int) -> int:
    """Expected post-run byte sum over all sections (warm-up + measured)."""
    per_section = sum(
        ((total_iters - j + SECTION_BYTES - 1) // SECTION_BYTES) % 256
        for j in range(SECTION_BYTES)
    )
    return n_threads * per_section


def parse_output(stdout: str) -> tuple[int, int]:
    """(elapsed_ns, checksum) from the sequential-walk stdout."""
    lines = stdout.strip().splitlines()
    return int(lines[0]), int(lines[1])


def parse_false_sharing_output(stdout: str) -> tuple[list[int], int]:
    """(per-thread elapsed_ns list, checksum) from the false-sharing stdout."""
    lines = stdout.strip().splitlines()
    return [int(x) for x in lines[:-1]], int(lines[-1])


def aggregate_bandwidth_mbps(elapsed_ns: list[int], iters: int) -> float:
    """Sum of per-thread bandwidths (the paper's 'average bandwidth' metric
    aggregates each thread's section walk)."""
    return sum(iters / (t / 1e9) for t in elapsed_ns) / 1e6


def _emit_timestamp(b, label: str) -> None:
    b.call("rt_time_ns")
    b.la("t0", label)
    b.sd("a0", 0, "t0")


def build_seq_walk(npages: int = 256) -> Program:
    """Worker times a byte-walk over ``npages`` pages; prints elapsed + sum."""
    b = workload_builder()

    def post_join(bb):
        bb.la("t0", "t_end")
        bb.ld("a0", 0, "t0")
        bb.la("t0", "t_start")
        bb.ld("t1", 0, "t0")
        bb.sub("a0", "a0", "t1")
        bb.call("rt_print_u64_ln")
        bb.la("a0", "checksum")
        bb.ld("a0", 0, "a0")
        bb.call("rt_print_u64_ln")
        bb.li("a0", 0)

    emit_fanout_main(b, 1, post_join=post_join)
    b.label("worker")
    b.addi("sp", "sp", -16)
    b.sd("ra", 8, "sp")
    _emit_timestamp(b, "t_start")
    b.la("t0", "region")
    b.li("t1", 0)
    b.li("t2", npages * 4096)
    b.li("t5", 0)
    b.label(".sw_loop")
    b.add("t3", "t0", "t1")
    b.lbu("t4", 0, "t3")
    b.add("t5", "t5", "t4")
    b.addi("t1", "t1", 1)
    b.blt("t1", "t2", ".sw_loop")
    b.la("t0", "checksum")
    b.sd("t5", 0, "t0")
    _emit_timestamp(b, "t_end")
    b.li("a0", 0)
    b.ld("ra", 8, "sp")
    b.addi("sp", "sp", 16)
    b.ret()
    b.bss()
    b.align(4096)
    b.label("region")
    b.space(npages * 4096)
    b.align(8)
    b.label("checksum")
    b.space(8)
    b.label("t_start")
    b.space(8)
    b.label("t_end")
    b.space(8)
    b.text()
    return b.assemble()


def build_false_sharing(
    n_threads: int = 32,
    n_nodes: int = 4,
    iters: int = 20_000,
    warmup_iters: int = 20_000,
) -> Program:
    """Each worker read-modify-writes its 128-byte section of one page.

    Phases: start barrier → warm-up walk (coherence steady state; with
    splitting enabled, enough ping-pong to fire the detector) → timed walk
    of ``iters`` steps → end barrier.  Thread 0 records the timestamps.

    Section assignment groups co-scheduled threads: with round-robin
    placement (thread i → node i % n_nodes), thread i gets section
    ``(i % n_nodes) * (T/n_nodes) + i / n_nodes`` so a node's sections are
    contiguous."""
    if n_threads % n_nodes:
        raise ValueError("n_threads must divide evenly over n_nodes")
    per_node = n_threads // n_nodes
    b = workload_builder()

    def pre_create(bb):
        bb.la("a0", "fs_bar")
        bb.li("a1", n_threads)
        bb.call("rt_barrier_init")

    def post_join(bb):
        bb.comment("print each thread's measured walk time, then the checksum")
        bb.li("s0", 0)
        bb.label(".fs_print")
        bb.la("t0", "elapsed")
        bb.slli("t1", "s0", 3)
        bb.add("t0", "t0", "t1")
        bb.ld("a0", 0, "t0")
        bb.call("rt_print_u64_ln")
        bb.addi("s0", "s0", 1)
        bb.li("t2", n_threads)
        bb.blt("s0", "t2", ".fs_print")
        bb.la("t0", "page")
        bb.li("t1", 0)
        bb.li("t2", 0)
        bb.label(".fsum")
        bb.add("t3", "t0", "t1")
        bb.lbu("t4", 0, "t3")
        bb.add("t2", "t2", "t4")
        bb.addi("t1", "t1", 1)
        bb.li("t5", n_threads * SECTION_BYTES)
        bb.blt("t1", "t5", ".fsum")
        bb.mv("a0", "t2")
        bb.call("rt_print_u64_ln")
        bb.li("a0", 0)

    emit_fanout_main(b, n_threads, pre_create=pre_create, post_join=post_join)

    def emit_walk(count: int, label: str) -> None:
        b.li("s2", 0)
        b.li("s3", count)
        b.label(label)
        b.andi("t3", "s2", SECTION_BYTES - 1)
        b.add("t4", "s1", "t3")
        b.lbu("t5", 0, "t4")
        b.addi("t5", "t5", 1)
        b.sb("t5", 0, "t4")
        b.addi("s2", "s2", 1)
        b.blt("s2", "s3", label)

    b.comment("worker(i): section = (i % nodes) * per_node + i / nodes")
    b.label("worker")
    b.addi("sp", "sp", -48)
    b.sd("ra", 40, "sp")
    b.sd("s0", 32, "sp")
    b.sd("s1", 24, "sp")
    b.sd("s2", 16, "sp")
    b.sd("s3", 8, "sp")
    b.sd("s4", 0, "sp")
    b.mv("s0", "a0")
    b.li("t0", n_nodes)
    b.remu("t1", "s0", "t0")
    b.li("t2", per_node)
    b.mul("t1", "t1", "t2")
    b.divu("t2", "s0", "t0")
    b.add("t1", "t1", "t2")  # section index
    b.li("t0", SECTION_BYTES)
    b.mul("t1", "t1", "t0")
    b.la("t0", "page")
    b.add("s1", "t1", "t0")  # section base
    b.la("a0", "fs_bar")
    b.call("rt_barrier_wait")
    emit_walk(warmup_iters, ".fs_warm")
    b.la("a0", "fs_bar")
    b.call("rt_barrier_wait")
    b.comment("each thread times its own section walk (per-thread bandwidth)")
    b.call("rt_time_ns")
    b.mv("s4", "a0")
    emit_walk(iters, ".fs_meas")
    b.call("rt_time_ns")
    b.sub("s4", "a0", "s4")
    b.la("t0", "elapsed")
    b.slli("t1", "s0", 3)
    b.add("t0", "t0", "t1")
    b.sd("s4", 0, "t0")
    b.li("a0", 0)
    b.ld("ra", 40, "sp")
    b.ld("s0", 32, "sp")
    b.ld("s1", 24, "sp")
    b.ld("s2", 16, "sp")
    b.ld("s3", 8, "sp")
    b.ld("s4", 0, "sp")
    b.addi("sp", "sp", 48)
    b.ret()

    b.bss()
    b.align(4096)
    b.label("page")
    b.space(4096)
    b.align(4096)  # barrier/results must not share the contended page
    b.label("fs_bar")
    b.space(24)
    b.align(8)
    b.label("elapsed")
    b.space(8 * n_threads)
    b.text()
    return b.assemble()


def private_rmw_pages(n_threads: int, pages_per_thread: int) -> int:
    """Private pages touched by a run of :func:`build_private_rmw`."""
    return n_threads * pages_per_thread


def build_private_rmw(
    n_threads: int = 8,
    n_nodes: int = 4,
    pages_per_thread: int = 8,
    passes: int = 4,
    stride: int = 64,
    shared_beat: int = 0,
    bcast_beat: int = 0,
) -> Program:
    """Each worker read-increment-writes its own ``pages_per_thread`` pages.

    The access is a load-increment-store at ``stride``-byte steps, repeated
    ``passes`` times over the region — so the FIRST touch of every private
    page is a read and the write lands a few instructions later.  That is
    the single-writer pattern the MESI Exclusive state exists for: the read
    grant is Exclusive (no other sharer), and the following write upgrades
    silently with no master round trip.  Under plain MSI the same pages
    each pay a read round trip AND an S→M upgrade round trip.

    ``shared_beat > 0`` additionally makes every worker read-increment-write
    its own byte of ONE shared page every ``shared_beat`` steps.  That page
    ping-pongs between all nodes (multi-writer; Exclusive never helps it),
    giving an adaptive per-page protocol both classes in one program while
    keeping the final memory deterministic (disjoint bytes, no data race).

    ``bcast_beat > 0`` adds a broadcast page: thread 0 read-increment-writes
    it every ``bcast_beat`` steps while every other thread reads it — a
    single-writer page whose faults are READ-dominated.  A naive
    dominant-writer home migration takes the bait (the writer's streak is
    unbroken) and then taxes every consumer read with the remote-home hop;
    a classifier that weighs reads against writes leaves the page alone.
    Consumer reads are folded into a dead register, so printed output stays
    protocol-independent.

    Output: one elapsed-ns line per thread, then the byte checksum over the
    stride-touched positions (plus the shared/broadcast pages when enabled).
    """
    if n_threads % n_nodes:
        raise ValueError("n_threads must divide evenly over n_nodes")
    region_bytes = pages_per_thread * 4096
    b = workload_builder()

    def pre_create(bb):
        bb.la("a0", "pr_bar")
        bb.li("a1", n_threads)
        bb.call("rt_barrier_init")

    def post_join(bb):
        bb.comment("print each thread's measured walk time, then the checksum")
        bb.li("s0", 0)
        bb.label(".pr_print")
        bb.la("t0", "elapsed")
        bb.slli("t1", "s0", 3)
        bb.add("t0", "t0", "t1")
        bb.ld("a0", 0, "t0")
        bb.call("rt_print_u64_ln")
        bb.addi("s0", "s0", 1)
        bb.li("t2", n_threads)
        bb.blt("s0", "t2", ".pr_print")
        bb.comment("checksum: every stride-touched byte of every region")
        bb.la("t0", "region")
        bb.li("t1", 0)
        bb.li("t2", 0)
        bb.li("t5", n_threads * region_bytes)
        bb.label(".pr_sum")
        bb.add("t3", "t0", "t1")
        bb.lbu("t4", 0, "t3")
        bb.add("t2", "t2", "t4")
        bb.li("t6", stride)
        bb.add("t1", "t1", "t6")
        bb.blt("t1", "t5", ".pr_sum")
        if shared_beat:
            bb.la("t0", "shared")
            bb.li("t1", 0)
            bb.li("t5", n_threads)
            bb.label(".pr_ssum")
            bb.add("t3", "t0", "t1")
            bb.lbu("t4", 0, "t3")
            bb.add("t2", "t2", "t4")
            bb.addi("t1", "t1", 1)
            bb.blt("t1", "t5", ".pr_ssum")
        if bcast_beat:
            bb.la("t0", "bcast")
            bb.lbu("t4", 0, "t0")
            bb.add("t2", "t2", "t4")
        bb.mv("a0", "t2")
        bb.call("rt_print_u64_ln")
        bb.li("a0", 0)

    emit_fanout_main(b, n_threads, pre_create=pre_create, post_join=post_join)

    b.comment("worker(i): RMW-walk the thread's private page run")
    b.label("worker")
    b.addi("sp", "sp", -80)
    b.sd("ra", 72, "sp")
    b.sd("s0", 64, "sp")
    b.sd("s1", 56, "sp")
    b.sd("s2", 48, "sp")
    b.sd("s3", 40, "sp")
    b.sd("s4", 32, "sp")
    b.sd("s5", 24, "sp")
    b.sd("s6", 16, "sp")
    b.mv("s0", "a0")
    b.li("t0", region_bytes)
    b.mul("t1", "s0", "t0")
    b.la("t0", "region")
    b.add("s1", "t1", "t0")  # private region base
    b.la("a0", "pr_bar")
    b.call("rt_barrier_wait")
    b.call("rt_time_ns")
    b.mv("s4", "a0")
    b.li("s3", 0)  # pass counter
    if shared_beat:
        b.li("s5", shared_beat)  # countdown to the next shared-page beat
    if bcast_beat:
        b.li("s6", bcast_beat)  # countdown to the next broadcast beat
    b.label(".pr_pass")
    b.li("s2", 0)  # byte offset into the private region
    b.label(".pr_step")
    b.add("t3", "s1", "s2")
    b.lbu("t4", 0, "t3")
    b.addi("t4", "t4", 1)
    b.sb("t4", 0, "t3")
    if shared_beat:
        b.addi("s5", "s5", -1)
        b.bnez("s5", ".pr_nobeat")
        b.comment("beat: RMW this thread's byte of the shared ping-pong page")
        b.la("t3", "shared")
        b.add("t3", "t3", "s0")
        b.lbu("t4", 0, "t3")
        b.addi("t4", "t4", 1)
        b.sb("t4", 0, "t3")
        b.li("s5", shared_beat)
        b.label(".pr_nobeat")
    if bcast_beat:
        b.addi("s6", "s6", -1)
        b.bnez("s6", ".pr_nobc")
        b.la("t3", "bcast")
        b.bnez("s0", ".pr_bcread")
        b.comment("thread 0 produces: RMW the broadcast byte")
        b.lbu("t4", 0, "t3")
        b.addi("t4", "t4", 1)
        b.sb("t4", 0, "t3")
        b.j(".pr_bcdone")
        b.label(".pr_bcread")
        b.comment("consumers read into a dead register (output-neutral)")
        b.lbu("t4", 0, "t3")
        b.label(".pr_bcdone")
        b.li("s6", bcast_beat)
        b.label(".pr_nobc")
    b.li("t5", stride)
    b.add("s2", "s2", "t5")
    b.li("t5", region_bytes)
    b.blt("s2", "t5", ".pr_step")
    b.addi("s3", "s3", 1)
    b.li("t5", passes)
    b.blt("s3", "t5", ".pr_pass")
    b.call("rt_time_ns")
    b.sub("s4", "a0", "s4")
    b.la("t0", "elapsed")
    b.slli("t1", "s0", 3)
    b.add("t0", "t0", "t1")
    b.sd("s4", 0, "t0")
    b.li("a0", 0)
    b.ld("ra", 72, "sp")
    b.ld("s0", 64, "sp")
    b.ld("s1", 56, "sp")
    b.ld("s2", 48, "sp")
    b.ld("s3", 40, "sp")
    b.ld("s4", 32, "sp")
    b.ld("s5", 24, "sp")
    b.ld("s6", 16, "sp")
    b.addi("sp", "sp", 80)
    b.ret()

    b.bss()
    b.align(4096)
    b.label("region")
    b.space(n_threads * region_bytes)
    b.label("shared")
    b.space(4096)
    b.label("bcast")
    b.space(4096)
    b.align(4096)  # keep barrier/results off the measured pages
    b.label("pr_bar")
    b.space(24)
    b.align(8)
    b.label("elapsed")
    b.space(8 * n_threads)
    b.text()
    return b.assemble()
