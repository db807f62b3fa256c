"""CLI surface: subcommands, exit codes, stream discipline, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noisyquery.cli import main


class TestBoundsCommand:
    def test_prints_report(self, capsys):
        assert main(["bounds", "--n", "1000", "--delta", "0.01", "--p", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "0.5493061443340549" in out       # d_kl
        assert "8383.613097157539" in out        # upper budget
        assert "5859.894082871708" in out        # floor-matching budget
        assert "nats" in out.splitlines()[0]     # convention header

    def test_rejects_half_p(self, capsys):
        assert main(["bounds", "--n", "10", "--delta", "0.01", "--p", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "p must lie in (0, 1/2)" in err

    def test_regime_line(self, capsys):
        main(["bounds", "--n", "100", "--delta", "1e-9", "--p", "0.1"])
        out = capsys.readouterr().out
        ratio_line = next(l for l in out.splitlines() if l.startswith("regime_ratio"))
        assert float(ratio_line.split()[-1]) == pytest.approx(9.0, rel=1e-12)
        assert "constant gap" in out


class TestRunCommand:
    ARGS = [
        "run", "--algorithm", "checkbit", "--instance", "single_one:1",
        "--n", "1", "--p", "0.25", "--delta", "0.05", "--trials", "40", "--seed", "3",
    ]

    def test_csv_to_stdout_logs_to_stderr(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0].startswith("algorithm,instance,")
        assert len(lines) == 2
        assert "running" in captured.err
        assert "running" not in captured.out

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("algorithm,")

    def test_json_with_raw_trials(self, capsys):
        assert main(self.ARGS + ["--format", "json", "--raw-trials"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload[0]["trials_raw"]) == 40

    def test_byte_identical_across_workers(self, tmp_path, capsys):
        args = [
            "run", "--algorithm", "noisy-or", "--instance", "all_zero",
            "--n", "10", "--p", "0.25", "--delta", "0.05", "--trials", "30",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a), "--workers", "1"]) == 0
        assert main(args + ["--out", str(b), "--workers", "2"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "broken",
        [
            ["--p", "0.6"],
            ["--delta", "0.7"],
            ["--n", "0"],
            ["--instance", "nonsense"],
            ["--trials", "0"],
            ["--seed", "-1"],
        ],
    )
    def test_config_errors_exit_two(self, broken, capsys):
        args = list(self.ARGS)
        for i in range(0, len(broken), 2):
            idx = args.index(broken[i])
            args[idx + 1] = broken[i + 1]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_grid_rows(self, capsys):
        args = [
            "sweep", "--algorithm", "checkbit", "--instance", "single_one:1",
            "--n", "1", "--p", "0.1,0.25", "--delta", "0.05,0.01",
            "--trials", "20", "--seed", "5",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5  # header + 2x2 grid

    def test_range_grid(self, capsys):
        args = [
            "sweep", "--algorithm", "checkbit", "--instance", "single_one:1",
            "--n", "1:3:1", "--p", "0.25", "--delta", "0.05",
            "--trials", "5",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "broken",
        [
            ["--n", "5:1:1"],
            ["--n", "abc"],
            ["--p", "0.25,x"],
            ["--delta", "1:x:2"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_grid_exits_two(self, broken, capsys):
        args = [
            "sweep", "--algorithm", "checkbit", "--instance", "single_one:1",
            "--n", "1", "--p", "0.25", "--delta", "0.05", "--trials", "5", "--seed", "0",
        ]
        args[args.index(broken[0]) + 1] = broken[1]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_monte_carlo_checks_reproduce_across_hash_seeds(self):
        # String hashes are salted per process; the Monte Carlo seeds must not depend on them.
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-m", "noisyquery", "verify", "--mc-trials", "400"],
                env=env, capture_output=True, text=True, timeout=300,
            )  # fmt: skip
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert "PASS  mc " in outputs[0]
        assert outputs[0] == outputs[1]

    def test_verify_failure_exits_three(self, capsys, monkeypatch):
        import noisyquery.cli as cli

        monkeypatch.setattr(
            cli, "run_verify_checks", lambda mc_trials=0: [("rigged", False, "forced failure")]
        )
        assert main(["verify"]) == 3
        assert "FAIL" in capsys.readouterr().out
