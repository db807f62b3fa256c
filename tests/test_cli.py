"""CLI surface: subcommands, exit codes, stream discipline, determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from noisyquery import harness
from noisyquery.cli import _parse_grid, build_parser, main
from noisyquery.errors import ContractViolation

_HUGE_N = "1" + "0" * 400  # an int no float holds


class TestBoundsCommand:
    def test_prints_report(self, capsys):
        assert main(["bounds", "--n", "1000", "--delta", "0.01", "--p", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "0.5493061443340549" in out       # d_kl
        assert "8383.613097157539" in out        # upper budget
        assert "5859.894082871708" in out        # floor-matching budget
        assert "nats" in out.splitlines()[0]     # convention header

    def test_subnormal_delta(self, capsys):
        assert main(["bounds", "--n", "1000", "--delta", "1e-309", "--p", "0.25"]) == 0
        assert "upper_budget             1295268.2235108397" in capsys.readouterr().out
        argv = ["run", "--algorithm", "checkbit", "--instance", "single_one:1", "--n", "1", "--p", "0.25"]
        assert main(argv + ["--delta", "1e-310", "--trials", "2"]) == 0

    def test_subnormal_p(self, capsys):
        # (1 - p)/p overflows here; the bounds and the vote threshold stay finite.
        assert main(["bounds", "--n", "10", "--delta", "0.01", "--p", "1e-310"]) == 0
        out = capsys.readouterr().out
        assert "d_kl_nats                713.8013788281542" in out
        assert "checkbit_budget_per_bit  1.0" in out
        assert "lecam_floor_at_m0        0.25" in out
        assert "inf" not in out and "nan" not in out
        argv = ["run", "--algorithm", "checkbit", "--instance", "single_one:1", "--n", "1", "--p", "1e-310"]
        assert main(argv + ["--delta", "0.01", "--trials", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[11] == "1.0"  # one read a trial

    @pytest.mark.parametrize("algorithm", ["tournament-or", "noisy-or"])
    @pytest.mark.parametrize("instance", ["all_zero", "single_one:1"])
    def test_delta_too_small_to_halve_is_refused_up_front(self, capsys, algorithm, instance):
        # The OR tournament splits delta in half; 5e-324 / 2 is 0.  The
        # refusal must not depend on whether a tournament is reached.
        argv = ["run", "--algorithm", algorithm, "--instance", instance, "--n", "5", "--p", "0.25"]
        assert main(argv + ["--delta", "5e-324", "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert "too small to split in half" in captured.err
        assert "running" not in captured.err
        assert captured.out == ""

    def test_rejects_half_p(self, capsys):
        assert main(["bounds", "--n", "10", "--delta", "0.01", "--p", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "p must lie in (0, 1/2)" in err

    @pytest.mark.parametrize(
        "point, message",
        [
            (["--n", "10", "--delta", "0.7", "--p", "0.7"], "delta must lie in (0, 1/2), got 0.7"),
            (["--n", "0", "--delta", "0.01", "--p", "0.7"], "n must be >= 1, got 0"),
            (["--n", "10", "--delta", "0.01", "--p", "1.5"], "p must lie in [0, 1], got 1.5"),
            (["--n", "10", "--delta", "0.01", "--p", "0.5"], "p must lie in (0, 1/2), got 0.5"),
        ],
    )
    def test_the_first_bad_parameter_names_the_refusal(self, capsys, point, message):
        # delta is checked first, then the bounds in the order they print.
        assert main(["bounds", *point]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    def test_n_too_large_for_a_float_exits_two(self, capsys):
        # The budgets multiply and divide by n as a float; 10**400 has none.
        argv = ["bounds", "--delta", "0.01", "--p", "0.25", "--n"]
        assert main(argv + [_HUGE_N]) == 2
        captured = capsys.readouterr()
        assert "configuration error: n must be at most 1.7976931348623157e+308, got a 401-digit n" in captured.err
        assert captured.out == ""
        assert main(argv + [str(int(sys.float_info.max))]) == 0  # the largest n a float holds
        assert "upper_budget             inf" in capsys.readouterr().out

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

    def test_the_parser_is_built_once_and_each_parse_starts_afresh(self, capsys):
        assert build_parser() is build_parser()
        assert main(self.ARGS + ["--format", "json", "--raw-trials", "--seed", "4"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["seed"] == 4
        assert main(self.ARGS) == 0  # the defaults and flags the last call set are not kept
        assert capsys.readouterr().out.split("\n")[1].split(",")[6] == "3"

    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"]])
    def test_raw_trials_with_csv_refused_before_any_trial(self, fmt, tmp_path, capsys):
        out = tmp_path / "result.csv"
        assert main(self.ARGS + fmt + ["--raw-trials", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: --raw-trials needs --format json" in err
        assert "running" not in err
        assert not out.exists()

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
            ["--instance", "all_zero:1"],  # all_zero takes no parameter
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

    def test_invariant_violation_exits_three(self, capsys, monkeypatch):
        model, runner, target = harness.ALGORITHMS["checkbit"]

        def misreporting(oracle, delta):
            output, phase1, sub = runner(oracle, delta)
            return output, phase1, sub + 1

        monkeypatch.setitem(harness.ALGORITHMS, "checkbit", (model, misreporting, target))
        assert main(self.ARGS) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal invariant violation: phase accounting" in captured.err
        assert "Traceback" not in captured.err


class TestHugeN:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--algorithm", "noisy-or", "--instance", "all_zero", "--n", "1000000000000"],
            ["run", "--algorithm", "noisy-max", "--instance", "sorted", "--n", "100000000"],
            ["run", "--algorithm", "checkbit", "--instance", "all_zero", "--n", _HUGE_N],
            ["sweep", "--algorithm", "noisy-max", "--instance", "sorted", "--n", "100,100000000"],
        ],
        ids=["or-1e12", "max-1e8", "checkbit-1e400", "sweep-max-1e8"],
    )
    def test_refused_before_the_instance_is_built(self, argv, capsys):
        # Building these instances runs out of memory (a MemoryError
        # under `ulimit -v 3000000`); validation refuses n above 10**7 first.
        tracemalloc.start()
        try:
            code = main(argv + ["--p", "0.25", "--delta", "0.01", "--trials", "2"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 100_000  # bytes
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: n must be at most 10000000, got ")
        assert "running" not in captured.err and "sweeping" not in captured.err
        assert captured.out == ""


class TestOutputPath:
    RUN = TestRunCommand.ARGS
    SWEEP = ["sweep", "--algorithm", "checkbit", "--instance", "single_one:1", "--n", "1", "--delta", "0.05"]

    @pytest.mark.parametrize("command", ["run", "sweep", "bounds", "verify"])
    def test_missing_directory_exits_two_before_any_work(self, command, tmp_path, capsys):
        argv = {
            "run": self.RUN,
            "sweep": TestSweepCommand.ARGS,
            "bounds": ["bounds", "--n", "10", "--delta", "0.01", "--p", "0.25"],
            "verify": ["verify"],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "does not exist" in captured.err
        assert "running" not in captured.err and "sweeping" not in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            RUN + ["--workers", "0"],
            SWEEP + ["--p", "0.25", "--trials", "0"],
            SWEEP + ["--p", "0.25,0.6", "--trials", "4"],
            SWEEP + ["--p", "0.25", "--trials", "4", "--workers", "0"],
        ],
        ids=["run-workers-0", "sweep-trials-0", "sweep-bad-second-row", "sweep-workers-0"],
    )
    def test_refused_configuration_prints_no_progress_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert "running" not in captured.err and "sweeping" not in captured.err
        assert captured.out == ""

    def test_directory_as_output_exits_two(self, tmp_path, capsys):
        assert main(self.RUN + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "is a directory" in err

    def test_write_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        def refuse(self, text):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_text", refuse)
        assert main(self.RUN + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot write" in err and "Permission denied" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, spec, rows",
    [
        (["run", "--algorithm", "checkbit", "--n", "3", "--p", "0.25"], "literal:0,1,0", 1),
        (["sweep", "--algorithm", "noisy-max", "--n", "3", "--p", "0.1,0.25"], "literal:1.5,3.5,2.5", 2),
    ],
)
def test_a_literal_instance_is_one_csv_cell(argv, spec, rows, capsys):
    # A literal spec holds commas; its cell is quoted, so every row keeps the header's columns.
    assert main(argv + ["--instance", spec, "--delta", "0.01", "--trials", "2"]) == 0
    text = capsys.readouterr().out
    table = list(csv.reader(io.StringIO(text)))
    assert table[0] == list(harness.CSV_COLUMNS)
    assert len(table) == 1 + rows
    assert all(len(row) == len(harness.CSV_COLUMNS) for row in table)
    assert [row[harness.CSV_COLUMNS.index("instance")] for row in table[1:]] == [spec] * rows
    assert text.splitlines()[1].startswith(f'{argv[2]},"{spec}",3,')


class TestSweepCommand:
    ARGS = [
        "sweep", "--algorithm", "noisycompare", "--instance", "sorted",
        "--n", "2,3", "--p", "0.1,0.25", "--delta", "0.05,0.01", "--trials", "50", "--seed", "5",
    ]

    def test_byte_identical_across_workers(self, tmp_path, capsys):
        # All eight grid rows share one worker pool when workers > 1; each
        # row's 50 trials go out in blocks of 3, the last block shorter.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a), "--workers", "1"]) == 0
        assert main(self.ARGS + ["--out", str(b), "--workers", "2"]) == 0
        capsys.readouterr()
        assert len(a.read_text().splitlines()) == 9
        assert a.read_bytes() == b.read_bytes()

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
            ["--p", "nan:0.3:0.1"],
            ["--p", "0:inf:0.1"],
            # moves its start, but x + 0.75 == x once x passes 2**53
            ["--p", "9007199254740980:9007199254740999:0.75"],
            ["--n", "1:3"],
            ["--n", "1:3:1:1"],
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

    @pytest.mark.parametrize(
        "grid, points",
        [
            ("1e-14:3e-14:1e-14", [1e-14, 2e-14, 3e-14]),  # 12 decimal places would make these 0.0
            ("1e-12:3e-12:1e-12", [1e-12, 2e-12, 3e-12]),  # a slack of 1e-12 would add 4e-12
        ],
    )
    def test_a_range_of_tiny_steps_stops_at_its_stop(self, grid, points, capsys):
        assert _parse_grid(grid, float) == points
        args = [
            "sweep", "--algorithm", "checkbit", "--instance", "single_one:1",
            "--n", "1", "--p", "0.25", "--delta", grid, "--trials", "5",
        ]  # fmt: skip
        assert main(args) == 0
        header, *rows = capsys.readouterr().out.strip().split("\n")
        column = header.split(",").index("delta")
        assert [float(row.split(",")[column]) for row in rows] == points

    @pytest.mark.parametrize(
        "flag, grid, reason",
        [
            ("--p", "0.1:0.2:1e-20", "cannot move start"),  # 0.1 + 1e-20 == 0.1: never ended
            ("--n", "1:10000000000:1", "more than 10000 points"),  # a list of 10**10 ints
        ],
    )
    def test_runaway_range_refused_before_any_point_is_built(self, flag, grid, reason, capsys):
        args = [
            "sweep", "--algorithm", "checkbit", "--instance", "single_one:1",
            "--n", "1", "--p", "0.25", "--delta", "0.05", "--trials", "5", "--seed", "0",
        ]  # fmt: skip
        args[args.index(flag) + 1] = grid
        tracemalloc.start()
        try:
            code = main(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 100_000  # bytes; 10,000 floats in a list alone take more
        err = capsys.readouterr().err
        assert "configuration error" in err and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_grid, code", [("10,20", 0), ("3", 2), ("10,3", 2)])
    def test_every_grid_point_is_checked_before_the_progress_line(self, n_grid, code, capsys):
        # single_one:5 needs n >= 5; the base config is the first grid point.
        args = [
            "sweep", "--algorithm", "checkbit", "--instance", "single_one:5",
            "--n", n_grid, "--p", "0.25", "--delta", "0.05", "--trials", "5",
        ]  # fmt: skip
        assert main(args) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == "" and "sweeping" not in captured.err
            assert "single_one requires 1 <= index <= 3, got 5" in captured.err
        else:
            assert len(captured.out.splitlines()) == 3 and "sweeping 2 grid points" in captured.err

    @pytest.mark.parametrize(
        "flag, grid",
        [("--n", ","), ("--p", ","), ("--delta", ","), ("--p", "0.25,"), ("--delta", ",0.01"), ("--p", "0.1,,0.4")],
        ids=["--n", "--p", "--delta", "--p=0.25,", "--delta=,0.01", "--p=0.1,,0.4"],
    )
    def test_empty_grid_exits_two(self, flag, grid, capsys):
        # An empty entry is refused, not dropped: a stray comma most likely stands for a missing value.
        args = [
            "sweep", "--algorithm", "checkbit", "--instance", "single_one:1",
            "--n", "1", "--p", "0.25", "--delta", "0.05", "--trials", "5",
        ]  # fmt: skip
        args[args.index(flag) + 1] = grid
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: bad grid value: comma grid {grid!r} has an empty entry\n"

    def test_range_cap_is_inclusive(self):
        assert _parse_grid("1:10000:1", int) == list(range(1, 10001))
        assert len(_parse_grid("0:0.9999:0.0001", float)) == 10_000
        for text, kind in [("1:10001:1", int), ("0:1:0.0001", float)]:
            with pytest.raises(ContractViolation, match="more than 10000 points"):
                _parse_grid(text, kind)


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

    @pytest.mark.parametrize("mc_trials", ["-1", "-20"])
    def test_negative_mc_trials_exits_two(self, mc_trials, capsys):
        assert main(["verify", "--mc-trials", mc_trials]) == 2
        captured = capsys.readouterr()
        assert "configuration error: mc_trials must be >= 0" in captured.err
        assert captured.out == ""

    def test_verify_failure_exits_three(self, capsys, monkeypatch):
        import noisyquery.exact_oracle as exact_oracle

        # verify imports the referee where it runs it, so it reads the module's attribute at call time.
        monkeypatch.setattr(
            exact_oracle, "run_verify_checks", lambda mc_trials=0: [("rigged", False, "forced failure")]
        )
        assert main(["verify"]) == 3
        assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Any argv: exit 0, 2 or 3, never a traceback
# ---------------------------------------------------------------------------

# A drawn argv is valid, or valid but for one flag set to a bad value.
_GOOD_FLOATS = ["0.1", "0.25", "0.4", "0.05", "0.01"]
_BAD_FLOATS = ["0", "0.5", "-0.1", "1", "nan", "inf", "-inf", "x", "", "1e-400", "1e-309", "5e-324"]
_BAD = {
    "--algorithm": ["bogus", ""],
    "--instance": [
        "single_one:0", "single_one:x", "single_one", "literal:", "literal:0,2", "relocated:99",
        "relocated", "permuted:x", "literal:1,1", "nonsense", "", "sorted", "all_zero",
    ],
    "--n": ["0", "-3", "x", "", "1.5", "1000000000000", _HUGE_N],
    "--p": _BAD_FLOATS,
    "--delta": _BAD_FLOATS,
    "--trials": ["0", "-2", "x", "2.0"],
    "--seed": ["-1", "x"],
    "--workers": ["0", "-1", "x"],
    "--format": ["xml"],
    "--out": ["missing/x.csv", "."],
    "--mc-trials": ["-5", "-1", "x", "1.5"],
}  # fmt: skip
_BAD_GRIDS = {
    "--n": ["5:1:1", "1:3:0", "abc", "", ",", "1:x:2", "1:2", "0", "-2"],
    "--p": ["0.3:0.1:0.1", "0.6", "x", "0.25,", "", "nan", "1:2", "0:0.2:0.1"],
    "--delta": ["0.3:0.1:0.1", "0.7", "x", "", "nan", "0.05,0"],
}
_OR_ALGORITHMS = ["checkbit", "tournament-or", "noisy-or"]
_MAX_ALGORITHMS = ["noisycompare", "tournament-max", "noisy-max"]


@st.composite
def _argv(draw, out_dir):
    command = draw(st.sampled_from(["bounds", "run", "sweep", "verify"]))
    n = draw(st.integers(min_value=1, max_value=50))
    flags: dict[str, str | None] = {"--out": draw(st.sampled_from([None, "-", "ok.csv"]))}
    if command == "bounds":
        flags.update({"--n": str(n), "--p": draw(st.sampled_from(_GOOD_FLOATS))})
        flags["--delta"] = draw(st.sampled_from(_GOOD_FLOATS))
    elif command == "verify":
        flags["--mc-trials"] = draw(st.sampled_from([None, "0", "3"]))
    else:
        algorithm = draw(st.sampled_from(_OR_ALGORITHMS + _MAX_ALGORITHMS))
        if algorithm in _OR_ALGORITHMS:
            instance = draw(st.sampled_from(["all_zero", "single_one:1", "literal:" + ",".join("0" * n)]))
        else:
            instance = draw(st.sampled_from(["sorted", "permuted:3", "relocated:1"]))
        flags.update({"--algorithm": algorithm, "--instance": instance})
        flags["--trials"] = str(draw(st.integers(min_value=1, max_value=20)))
        flags["--seed"] = draw(st.sampled_from([None, "0", "7"]))
        flags["--workers"] = draw(st.sampled_from([None, "1", "2"]))
        flags["--format"] = draw(st.sampled_from(["csv", "json"]))
        if command == "run":
            flags.update({"--n": str(n), "--p": draw(st.sampled_from(_GOOD_FLOATS))})
            flags["--delta"] = draw(st.sampled_from(_GOOD_FLOATS))
        else:
            flags["--n"] = draw(st.sampled_from(["2", "2,3", "2:4:1", "10"]))
            flags["--p"] = draw(st.sampled_from(["0.25", "0.1,0.4", "0.1:0.3:0.1"]))
            flags["--delta"] = draw(st.sampled_from(["0.05", "0.05,0.01", "0.1:0.2:0.05"]))
    broken = draw(st.one_of(st.none(), st.sampled_from(list(flags))))
    if broken is not None:
        bad = _BAD_GRIDS if command == "sweep" and broken in _BAD_GRIDS else _BAD
        flags[broken] = draw(st.sampled_from(bad[broken]))
    argv = [command]
    for flag, value in flags.items():
        if value is not None:
            argv += [flag, str(out_dir / value) if flag == "--out" and value != "-" else value]
    if command == "run" and draw(st.booleans()):
        argv.append("--raw-trials")
    return argv


@pytest.fixture(scope="module")
def fuzz_out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-out")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_any_argv_exits_cleanly(fuzz_out_dir, data):
    argv = data.draw(_argv(fuzz_out_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an argument
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:  # refused before any work
        assert "running" not in err.getvalue() and "sweeping" not in err.getvalue(), argv


def _fresh_python(code):
    """The standard output of ``code`` run in a fresh interpreter that imports from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # The generators come from numpy.random, imported at a trial's first draw.
    assert _fresh_python("import sys, noisyquery.cli; print('numpy.random' in sys.modules)") == "False"


def test_importing_the_package_loads_no_module():
    # Each name is imported from its module; the package re-exports nothing.
    code = "import sys, noisyquery; print([m for m in sys.modules if m.startswith('noisyquery.')])"
    assert _fresh_python(code) == "[]"


def test_a_one_worker_run_leaves_multiprocessing_unloaded():
    # The pool's module is imported only where a pool starts.
    code = (
        "import contextlib, io, sys, noisyquery.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(['run', '--algorithm', 'noisy-or', '--instance', 'all_zero', '--n', '50',"
        " '--p', '0.25', '--delta', '0.01', '--trials', '8', '--workers', '1'])\n"
        "print(code, 'multiprocessing' in sys.modules)"
    )
    assert _fresh_python(code) == "0 False"


def test_run_and_sweep_leave_the_referee_unloaded():
    # The exact referee (with fractions and decimal) is imported only by verify, and json only where JSON is written.
    code = (
        "import contextlib, io, sys, noisyquery.cli as cli\n"
        "def main(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        return cli.main(list(argv))\n"
        "def loaded(*names):\n"
        "    return [name for name in names if name in sys.modules]\n"
        "referee = ('noisyquery.exact_oracle', 'fractions', 'decimal')\n"
        "print(main('run', '--algorithm', 'noisy-or', '--instance', 'all_zero', '--n', '50',"
        " '--p', '0.25', '--delta', '0.01', '--trials', '8'),"
        " main('sweep', '--algorithm', 'noisy-max', '--instance', 'sorted', '--n', '5,8',"
        " '--p', '0.1,0.25', '--delta', '0.05', '--trials', '8'), loaded('json', *referee))\n"
        "print(main('run', '--algorithm', 'checkbit', '--instance', 'single_one:1', '--n', '1',"
        " '--p', '0.25', '--delta', '0.05', '--trials', '8', '--format', 'json'), loaded('json', *referee))\n"
        "print(main('verify'), loaded(*referee))"
    )
    assert _fresh_python(code).splitlines() == [
        "0 0 []",
        "0 ['json']",
        "0 ['noisyquery.exact_oracle', 'fractions', 'decimal']",
    ]
