"""``repro-run``: run a GA64 assembly program on a simulated DQEMU cluster.

Examples::

    repro-run prog.s --slaves 4
    repro-run prog.s --slaves 2 --forwarding --splitting --scheduler hint
    repro-run prog.s --trace --trace-limit 50
    echo data | repro-run prog.s --stdin -
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro import Cluster, DQEMUConfig, assemble

__all__ = ["main", "build_parser"]

#: Scalar annotation (a string: config.py defers evaluation) -> argparse ``type``.
#: Every such DQEMUConfig field gets one flag, derived from its row of the field
#: table; the cost model and fault_plan have no flag.
_FLAG_TYPES = {"bool": None, "int": int, "float": float, "str": str, "Optional[int]": int}
_FLAG_FIELDS = [f for f in dataclasses.fields(DQEMUConfig) if f.type in _FLAG_TYPES]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-run",
        description="Run a GA64 assembly program on a simulated DQEMU cluster.",
    )
    p.add_argument("source", help="GA64 assembly file (use '-' for stdin)")
    p.add_argument("--slaves", type=int, default=1, help="slave node count (default 1)")
    for f in _FLAG_FIELDS:
        meta = f.metadata
        if f.type == "bool":
            kind = dict(action="store_true", help=meta["help"])
        else:
            kind = dict(
                type=_FLAG_TYPES[f.type], default=f.default, choices=meta.get("choices"),
                metavar=None if "choices" in meta else "N",
                help=f"{meta['help']} (default {'off' if f.default is None else f.default})",
            )
        p.add_argument(meta.get("flag", "--" + f.name.replace("_", "-")), dest=f.name, **kind)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="submit the program N times as concurrent tenants (default 1)")
    p.add_argument("--stdin", default=None,
                   help="file fed to the guest's stdin ('-' for this process's stdin)")
    p.add_argument("--file", action="append", default=[], metavar="PATH",
                   help="preload a host file into the guest VFS (repeatable)")
    p.add_argument("--max-ms", type=float, default=60_000.0,
                   help="virtual-time budget in ms (default 60000)")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="divide communication costs by this factor")
    p.add_argument("--trace", action="store_true", help="record a protocol trace")
    p.add_argument("--trace-limit", type=int, default=100,
                   help="trace lines to print (default 100)")
    p.add_argument("--stats", action="store_true", help="print protocol counters")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    source = sys.stdin.read() if args.source == "-" else Path(args.source).read_text()
    program = assemble(source)

    stdin = b""
    if args.stdin == "-":
        stdin = sys.stdin.buffer.read()
    elif args.stdin:
        stdin = Path(args.stdin).read_bytes()
    files = {Path(f).name: Path(f).read_bytes() for f in args.file}

    config = DQEMUConfig(**{f.name: getattr(args, f.name) for f in _FLAG_FIELDS})
    if args.time_scale != 1.0:
        config = config.time_scaled(args.time_scale)

    cluster = Cluster(0 if config.pure_qemu else args.slaves, config, trace=args.trace)
    if args.jobs > 1:
        jobs = [
            cluster.submit(program, name=f"job{i}", stdin=stdin, files=files,
                           max_virtual_ms=args.max_ms)
            for i in range(args.jobs)
        ]
        runs = [(f"{job.name}: ", res) for job, res in zip(jobs, cluster.join(jobs))]
    else:
        runs = [("", cluster.run(program, stdin=stdin, files=files, max_virtual_ms=args.max_ms))]

    for prefix, result in runs:
        sys.stdout.write(result.stdout)
        if result.stderr:
            sys.stderr.write(result.stderr)
        queued = f"; queue wait {result.queue_wait_ns / 1e6:.3f} ms" if prefix else ""
        print(f"[{prefix}exit {result.exit_code}; "
              f"{result.virtual_ns / 1e6:.3f} ms virtual{queued}]", file=sys.stderr)
        if args.stats:
            _print_stats(prefix, result.stats.protocol, config.coherence_protocol)
    if args.trace:
        print(cluster.tracer.render(limit=args.trace_limit), file=sys.stderr)
    return max(result.exit_code for _, result in runs)


def _print_stats(prefix: str, p, coherence_protocol: str) -> None:
    """One job's protocol counters on stderr, each line led by ``prefix``."""
    print(
        f"[{prefix}page requests {p.page_requests} (r{p.read_requests}/w{p.write_requests}),"
        f" invalidations {p.invalidations}, forwarded {p.pages_forwarded},"
        f" splits {p.splits}, merges {p.merges},"
        f" syscalls {p.delegated_syscalls} delegated/{p.local_syscalls} local]",
        file=sys.stderr,
    )
    if (p.exclusive_grants or p.silent_upgrades or p.home_migrations
            or p.adaptive_reclassifications):
        print(
            f"[{prefix}coherence {coherence_protocol}:"
            f" E grants {p.exclusive_grants},"
            f" silent E->M {p.silent_upgrades},"
            f" upgrade acks {p.upgrade_acks},"
            f" home migrations {p.home_migrations},"
            f" home hits {p.home_local_hits}/misses {p.home_remote_misses},"
            f" reclassifications {p.adaptive_reclassifications}]",
            file=sys.stderr,
        )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
