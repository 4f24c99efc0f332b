"""``repro-experiments``: regenerate the paper's tables and figures.

Experiments are named by the stem of their artifacts, so ``--out
benchmarks/results`` rewrites exactly the committed ``<name>.txt`` /
``<name>.json`` pairs.  Examples::

    repro-experiments fig5_scalability
    repro-experiments table1_memory --out results/
    repro-experiments all --out benchmarks/results
"""

from __future__ import annotations

import argparse

from repro.analysis.experiments import EXPERIMENTS, render, run_experiment, save

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's evaluation tables/figures.",
    )
    p.add_argument(
        "which",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment to run",
    )
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write DIR/<name>.json (the records) and DIR/<name>.txt")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.which == "all" else [args.which]
    for name in names:
        records = run_experiment(name)
        print(save(name, records, args.out) if args.out else render(name, records))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
