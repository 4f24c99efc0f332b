"""CI determinism check: the smoke matrix gives the same records in two fresh
processes with different hash seeds.

``python .github/workflows/smoke_determinism.py`` runs
``benchmarks/test_smoke_matrix.py`` twice, under ``PYTHONHASHSEED=0`` and
``PYTHONHASHSEED=1``, with this file loaded as a pytest plugin.  The plugin
wraps ``repro.analysis.runner.run_cell`` before the matrix imports it and
writes one line per cell run: the test that ran it, the cell's label and a
sha256 of its record.  The check fails if either run fails or if any record
differs between the two.  Iterating a set of pages or nodes, or ordering by
``id()``, are the usual ways a hash seed leaks into a simulation; every
simulated number is a function of the config and seed alone, so a
difference here is a bug.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

SEEDS = ("0", "1")
MATRIX = "benchmarks/test_smoke_matrix.py"


def pytest_configure(config):
    """Plugin half: record a digest of every record ``run_cell`` returns."""
    import repro.analysis.runner as runner

    out_path = os.environ["SMOKE_RECORDS"]
    inner = runner.run_cell

    def recording(cell, ref=None):
        record = inner(cell, ref)
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0]
        with open(out_path, "a") as out:
            out.write(json.dumps([test, cell.label, digest]) + "\n")
        return record

    runner.run_cell = recording


def run_matrix(seed: str, out_path: str) -> list:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, SMOKE_RECORDS=out_path)
    env["PYTHONPATH"] = os.pathsep.join(
        [here, "src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "pytest", MATRIX, "-q", "-p", "smoke_determinism"]
    if subprocess.run(cmd, env=env).returncode:
        sys.exit(f"smoke matrix failed under PYTHONHASHSEED={seed}")
    with open(out_path) as lines:
        return [tuple(json.loads(line)) for line in lines]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_matrix(seed, os.path.join(tmp, f"seed{seed}.jsonl")) for seed in SEEDS]
    first, second = runs
    if not first:
        sys.exit("no smoke cell was recorded")
    differ = [a[:2] for a, b in zip(first, second) if a != b]
    if len(first) != len(second):
        differ.append(("cell count", f"{len(first)} vs {len(second)}"))
    for test, label in differ:
        print(f"DIFFERS across hash seeds: {test} [{label}]")
    print(f"{len(first)} smoke records, {len(differ)} differ across PYTHONHASHSEED {SEEDS}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
