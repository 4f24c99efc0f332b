"""CLI tests (invoking main() in-process)."""

import dataclasses
import json
import pathlib

import pytest

from repro.analysis.experiments import EXPERIMENTS, render
from repro.cli import asm as asm_cli
from repro.cli import experiments as exp_cli
from repro.cli import run as run_cli

HELLO = """
_start:
    li a0, 1
    la a1, msg
    li a2, 3
    li a7, 64
    ecall
    li a0, 5
    li a7, 94
    ecall
.data
msg: .asciz "hi\\n"
"""


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.s"
    path.write_text(HELLO)
    return str(path)


class TestRunCli:
    def test_runs_and_propagates_exit_code(self, hello_file, capsys):
        rc = run_cli.main([hello_file, "--slaves", "2"])
        out = capsys.readouterr()
        assert rc == 5
        assert out.out == "hi\n"
        assert "ms virtual" in out.err

    def test_qemu_mode(self, hello_file, capsys):
        rc = run_cli.main([hello_file, "--qemu"])
        assert rc == 5
        assert capsys.readouterr().out == "hi\n"

    def test_stats_flag(self, hello_file, capsys):
        run_cli.main([hello_file, "--stats"])
        assert "page requests" in capsys.readouterr().err

    def test_trace_flag(self, hello_file, capsys):
        run_cli.main([hello_file, "--trace", "--trace-limit", "10"])
        err = capsys.readouterr().err
        assert "[syscall" in err or "[page" in err

    def test_jobs_print_stats_per_job_and_trace_once(self, hello_file, capsys):
        rc = run_cli.main([hello_file, "--slaves", "2", "--jobs", "2", "--stats", "--trace"])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 5
        stats = [line for line in lines if "page requests" in line]
        assert [line.split(":")[0] for line in stats] == ["[job0", "[job1"]
        # One fleet trace, holding each job's main-thread start once.
        starts = [line for line in lines if "[thread ]" in line and line.endswith(" start")]
        assert len(starts) == 2

    def test_optimization_flags_accepted(self, hello_file):
        assert run_cli.main(
            [hello_file, "--forwarding", "--splitting", "--scheduler", "hint"]
        ) == 5

    def test_stdin_file(self, tmp_path, capsys):
        src = tmp_path / "cat.s"
        src.write_text(
            """
            _start:
                li a0, 0
                la a1, buf
                li a2, 4
                li a7, 63
                ecall
                li a0, 1
                la a1, buf
                li a2, 4
                li a7, 64
                ecall
                li a0, 0
                li a7, 94
                ecall
            .data
            buf: .space 8
            """
        )
        data = tmp_path / "in.txt"
        data.write_bytes(b"wxyz")
        rc = run_cli.main([str(src), "--stdin", str(data)])
        assert rc == 0
        assert capsys.readouterr().out == "wxyz"

    def test_time_scale_flag(self, hello_file):
        assert run_cli.main([hello_file, "--time-scale", "100"]) == 5


class TestAsmCli:
    def test_listing(self, hello_file, capsys):
        assert asm_cli.main([hello_file]) == 0
        out = capsys.readouterr().out
        assert "entry: 0x10000" in out
        assert ".text" in out and ".data" in out
        assert "msg" in out
        assert "ecall" in out

    def test_symbols_only(self, hello_file, capsys):
        asm_cli.main([hello_file, "--symbols"])
        out = capsys.readouterr().out
        assert "_start" in out
        assert "ecall" not in out

    def test_output_file(self, hello_file, tmp_path, capsys):
        out_path = tmp_path / "hello.lst"
        asm_cli.main([hello_file, "-o", str(out_path)])
        assert "disassembly" in out_path.read_text()
        assert capsys.readouterr().out == ""

    def test_bss_lists_its_size(self, tmp_path, capsys):
        src = tmp_path / "bss.s"
        src.write_text("_start:\n  nop\n.bss\nbuf: .space 10000\n")
        asm_cli.main([str(src)])
        assert "0x00011000..0x00013710  10000 bytes" in capsys.readouterr().out

    def test_assembler_error_is_one_line_with_its_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.s"
        src.write_text("_start:\n    addi a0, zero, 99999\n")
        assert asm_cli.main([str(src)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"repro-asm: {src}: line 2: imm14 out of range [-8192, 8191]: 99999\n"
        )


class TestExperimentsCli:
    def test_registry_covers_every_artifact(self):
        # A bijection: `repro-experiments all --out benchmarks/results`
        # rewrites exactly the committed files, no more and no fewer.
        results = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
        for suffix in ("txt", "json"):
            assert set(EXPERIMENTS) == {p.stem for p in results.glob(f"*.{suffix}")}

    @pytest.mark.parametrize("flag", ["--smoke", "--json"])
    def test_no_format_or_smoke_switches(self, flag):
        with pytest.raises(SystemExit):
            exp_cli.build_parser().parse_args(["all", flag])

    def test_small_fig5_run(self, capsys, monkeypatch, tmp_path):
        # Shrink the experiment by substituting its cell list.
        fig5 = EXPERIMENTS["fig5_scalability"]
        tiny = dict(n_threads=4, terms=50, reps=1)
        cells = tuple(
            dataclasses.replace(c, params=tiny)
            for c in fig5.cells if c.n_slaves <= 2
        )
        monkeypatch.setitem(
            EXPERIMENTS, "fig5_scalability", dataclasses.replace(fig5, cells=cells)
        )
        assert exp_cli.main(["fig5_scalability", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        records = json.loads((tmp_path / "fig5_scalability.json").read_text())
        assert [r["label"] for r in records] == ["DQEMU/1", "DQEMU/2", "QEMU-4.2.0"]
        text = (tmp_path / "fig5_scalability.txt").read_text()
        assert text == render("fig5_scalability", records) + "\n"
        assert text in out
