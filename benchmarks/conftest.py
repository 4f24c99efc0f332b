"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one experiment of the registry
(``repro.analysis.experiments``; see DESIGN.md's per-experiment index),
writes its two artifacts — ``benchmarks/results/<name>.json`` (the records)
and ``<name>.txt`` (the paper-style rows rendered from them) — and asserts
the headline *shape* claims against the records.

The runs are deterministic simulations, so each experiment executes exactly
once (``benchmark.pedantic(rounds=1)``); the pytest-benchmark timing then
reports the harness wall time.
"""

from __future__ import annotations

import pathlib

from repro.analysis.experiments import run_experiment, save

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_once(benchmark, fn):
    """Run a deterministic experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def regenerate(benchmark, name: str) -> dict[str, dict]:
    """Run experiment ``name``, write its artifacts, return records by label."""
    records = run_once(benchmark, lambda: run_experiment(name))
    print(f"\n{save(name, records, RESULTS_DIR)}\n")
    return {r["label"]: r for r in records}
