"""Self-test of the host-time benchmark, at ``--smoke`` sizes.

Uses the ``benchmark`` fixture so the existing ``pytest benchmarks/
--benchmark-only`` job runs it.  Nothing here asserts a timing: the test is
about the harness (every named metric present, oracles right, digests
stable), not about how fast this machine is.
"""

import json
import pathlib
import re

from benchmarks.conftest import run_once
from benchmarks.host import metrics, micro, run, workloads
from repro import DQEMUConfig
from repro.baselines import run_qemu

SPEC = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_host_bench_smoke(benchmark, tmp_path, capsys):
    status = run_once(
        benchmark, lambda: run.main(["--smoke", "--reps", "2", "--out", str(tmp_path)])
    )
    printed = capsys.readouterr().out
    result = json.loads((tmp_path / "host_bench.json").read_text())
    assert status == 0, printed

    assert [w["name"] for w in SPEC["workloads"]] == list(result["workloads"])
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert set(result["environment"]) >= {"python", "platform", "nproc", "git_commit"}

    for name, section in result["workloads"].items():
        assert section["failed"] == 0 and not section["problems"], (name, section["problems"])
        assert section["attempted"] == 4  # warm-up + 2 reps + the profiled pass
        e2e = section["end_to_end"]
        assert set(e2e) == set(metrics.END_TO_END)
        assert e2e["failed_share"]["value"] == 0
        assert all(e2e[m]["n"] == 2 for m in metrics.TIMED)
        for m in SPEC["end_to_end"]:
            assert e2e[m["name"]]["unit"] == m["unit"]
            assert (m["unit"], m["better"], m["bound"]) == metrics.END_TO_END[m["name"]]
        found = section["per_layer"] | result["micro"]
        assert set(found) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert NAME.fullmatch(m["name"]) and found[m["name"]]["unit"] == m["unit"], m
            assert m["name"] in printed
        shares = [v["value"] for k, v in found.items() if k.endswith(".self_share")]
        assert len(shares) == 12 and abs(sum(shares) - 1) < 1e-6
        # The profiled pass simulated what the untraced reps did.
        assert found["prof.net.transmits"]["value"] == found["net.messages_sent"]["value"]
    assert set(result["micro"]) == set(micro.UNITS)


def test_oracles_agree(benchmark):
    """The committed ``expected/`` files, the Python references and — at smoke
    sizes, where it is affordable — the single-node interpreter all name the
    same guest output.  None of the three is the DBT cluster under test."""
    def check() -> int:
        checked = 0
        for name in workloads.WORKLOADS:
            jobs = workloads.plan(name, workloads.CANONICAL_SEED)
            committed = workloads.expected_outputs(name, workloads.CANONICAL_SEED, jobs)
            assert committed == {job.name: job.oracle() for job in jobs}, name
            for job in workloads.plan(name, seed=7, smoke=True):
                interpreted = run_qemu(job.build(), config=DQEMUConfig(mode="interp"))
                assert job.verify(interpreted.stdout, job.oracle()), (name, job.name)
                checked += 1
        return checked

    assert run_once(benchmark, check) == 5 + 11
