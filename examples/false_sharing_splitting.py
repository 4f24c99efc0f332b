#!/usr/bin/env python
"""Page splitting (paper §5.1) on a false-sharing microbenchmark.

Two guest threads on two different nodes hammer disjoint 128-byte slices of
the SAME page.  Without splitting, the page ping-pongs between the nodes
(every write needs the Modified state).  With splitting enabled, the master
detects the disjoint write pattern, splits the page into shadow pages (one
per region, same page offset — Fig. 4) and broadcasts the translation
table; after that every write is node-local.

Also demonstrates the correctness escape hatch: at the end, the main thread
reads 8 bytes straddling the region boundary, which forces the master to
merge the shadow pages back — data intact.

Run:  python examples/false_sharing_splitting.py
"""

from repro import Cluster, CostModel, DQEMUConfig
from repro.workloads.common import emit_fanout_main, workload_builder

ITERS = 60_000


def build_program():
    b = workload_builder()

    def post_join(bb):
        # read straddling the split boundary: forces a merge, then prints
        bb.la("t0", "arr")
        bb.ld("a0", 2044, "t0")
        bb.call("rt_print_u64_ln")
        bb.li("a0", 0)

    emit_fanout_main(b, 2, post_join=post_join)
    b.label("worker")
    b.li("t0", 2048)
    b.mul("t0", "a0", "t0")
    b.la("t1", "arr")
    b.add("t1", "t1", "t0")  # my 128-byte slice, 2 KiB apart per thread
    b.li("t2", 0)
    b.li("t6", ITERS)
    b.label("loop")
    b.andi("t3", "t2", 127)
    b.add("t4", "t1", "t3")
    b.lbu("t5", 0, "t4")
    b.addi("t5", "t5", 1)
    b.sb("t5", 0, "t4")
    b.addi("t2", "t2", 1)
    b.blt("t2", "t6", "loop")
    b.li("a0", 0)
    b.ret()
    b.bss()
    b.align(4096)
    b.label("arr")
    b.space(4096)
    b.text()
    return b.assemble()


def main() -> None:
    program = build_program()
    # Demo-scale knobs: a cheaper master and an earlier split.
    fast = dict(cost=CostModel(dsm_service_ns=30_000), splitting_trigger=6)
    for splitting in (False, True):
        cfg = DQEMUConfig(splitting_enabled=splitting, **fast)
        result = Cluster(2, cfg).run(build_program())
        p = result.stats.protocol
        print(f"splitting={'on ' if splitting else 'off'}  "
              f"time: {result.virtual_ns / 1e6:7.2f} ms  "
              f"page requests: {p.page_requests:4d}  "
              f"splits: {p.splits}  merges: {p.merges}")
    print("\nWith splitting on: the false-sharing page was split into shadow")
    print("pages (each node writes locally), then merged back when the final")
    print("read straddled the region boundary — same printed value either way.")


if __name__ == "__main__":
    main()
