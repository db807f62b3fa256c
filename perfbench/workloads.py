"""The benchmark's workloads: CLI invocations, output parsing and output checks.

Each workload is a list of ``noisyquery`` CLI invocations (``run`` or
``sweep``) called in-process through ``noisyquery.cli.main``, exactly
as a user would type them.  A run first makes the checked campaign, the
invocations with CHECK_ROUNDS times the trials, and checks its output;
then it repeats one timed round, the same invocations at one times the
trials, which must print byte-identical output every time.  Trial t of
a campaign depends only on (seed, t), so a timed round's trials are the
first trials of the checked campaign.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import reference as ref

P = 0.25
DELTA = 0.01
N_LARGE = 1000
GRID_P = (0.1, 0.25, 0.4)
GRID_DELTA = (0.05, 0.01, 0.001)

# Trials per invocation in one timed round, at each size.  "full" is what
# the benchmark runs; "tiny" only proves that every path runs; "probe" is
# the short traced replay that stands in for a layer another workload
# never enters.  The checked campaign runs CHECK_ROUNDS times as many.
TRIALS = {
    "or-n1000": {"full": 30, "tiny": 4, "probe": 2},
    "max-n1000": {"full": 20, "tiny": 4, "probe": 2},
    "walk-grid": {"full": 1000, "tiny": 50},
}
CHECK_ROUNDS = 5
N_TINY = 100  # n of the two large workloads at size "tiny"


@dataclass(frozen=True)
class Call:
    """One CLI invocation and how to read its output."""

    argv: list[str]
    trials: int  # operations (trials) this invocation runs
    fmt: str  # "json" (with per-trial records) or "csv"


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    calls: Callable[[int, str, int, int], list[Call]]  # (seed, size, workers, rounds) -> calls
    check: Callable[[list[list[dict]], bool], list[str]]  # (rows per call, statistical) -> failures


def _run_argv(algorithm: str, instance: str, n: int, trials: int, seed: int, workers: int) -> list[str]:
    return [
        "run", "--algorithm", algorithm, "--instance", instance, "--n", str(n),
        "--p", repr(P), "--delta", repr(DELTA), "--trials", str(trials), "--seed", str(seed),
        "--workers", str(workers), "--format", "json", "--raw-trials",
    ]  # fmt: skip


def _sweep_argv(algorithm: str, instance: str, n: int, trials: int, seed: int, workers: int) -> list[str]:
    return [
        "sweep", "--algorithm", algorithm, "--instance", instance, "--n", str(n),
        "--p", ",".join(map(repr, GRID_P)), "--delta", ",".join(map(repr, GRID_DELTA)),
        "--trials", str(trials), "--seed", str(seed), "--workers", str(workers), "--format", "csv",
    ]  # fmt: skip


def _large_calls(algorithm: str, instance: str, workload: str) -> Callable[[int, str, int, int], list[Call]]:
    def calls(seed: int, size: str, workers: int, rounds: int = 1) -> list[Call]:
        n = N_TINY if size == "tiny" else N_LARGE
        trials = TRIALS[workload][size] * rounds
        return [Call(_run_argv(algorithm, instance, n, trials, seed, workers), trials, "json")]

    return calls


def _grid_calls(seed: int, size: str, workers: int, rounds: int = 1) -> list[Call]:
    trials = TRIALS["walk-grid"][size] * rounds
    per_sweep = trials * len(GRID_P) * len(GRID_DELTA)
    return [
        Call(_sweep_argv("checkbit", "single_one:1", 1, trials, seed, workers), per_sweep, "csv"),
        Call(_sweep_argv("noisycompare", "sorted", 2, trials, seed, workers), per_sweep, "csv"),
    ]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _large_row(rows_per_call: list[list[dict]], label: str) -> tuple[dict, list[str]]:
    (rows,) = rows_per_call
    if len(rows) != 1:
        return {}, [f"{label}: expected one output row, got {len(rows)}"]
    row = rows[0]
    failures = ref.check_phase_split(label, row)
    failures += ref.check_row_against_trials(label, row, row["trials_raw"])
    return row, failures


# With statistical=False only the bookkeeping is checked: a probe replay
# has too few trials for a sample standard error to mean much.


def check_or(rows_per_call: list[list[dict]], statistical: bool = True) -> list[str]:
    from noisyquery.exact_oracle import expected_queries_noisy_or, noisy_or_error_all_zero
    from noisyquery.oracles import make_instance_or

    row, failures = _large_row(rows_per_call, "or")
    if failures or not statistical:
        return failures
    n, trials = row["n"], row["trials"]
    mean, se = ref.sample_mean_se([t["queries"] for t in row["trials_raw"]])
    failures += ref.check_error_bound("or", row["errors"], trials, 2 * DELTA)
    failures += ref.check_error_rate("or", row["errors"], trials, noisy_or_error_all_zero(n, DELTA, P))
    predicted = expected_queries_noisy_or(make_instance_or("all_zero", n), DELTA, P)
    failures += ref.check_mean("or", mean, predicted, se)
    return failures


def check_max(rows_per_call: list[list[dict]], statistical: bool = True) -> list[str]:
    from noisyquery.exact_oracle import expected_queries_noisy_max

    row, failures = _large_row(rows_per_call, "max")
    if failures or not statistical:
        return failures
    n, trials = row["n"], row["trials"]
    mean, se = ref.sample_mean_se([t["queries"] for t in row["trials_raw"]])
    failures += ref.check_error_bound("max", row["errors"], trials, 3 * DELTA)
    predicted = expected_queries_noisy_max(n, DELTA, P)
    # The predictor assumes the sample tournament crowns the sample maximum;
    # its stated error is a relative O(delta), allowed here as delta * prediction.
    failures += ref.check_mean("max", mean, predicted, se, slack=DELTA * predicted)
    return failures


def check_grid(rows_per_call: list[list[dict]], statistical: bool = True) -> list[str]:
    # Rows are not independent: every row of a sweep, and both sweeps, draw
    # their channel noise from the same (seed, trial) streams.  Each row is
    # therefore checked on its own.
    failures = []
    for algorithm, rows in zip(("checkbit", "noisycompare"), rows_per_call):
        seen = sorted((r["p"], r["delta"]) for r in rows)
        if seen != sorted((p, d) for p in GRID_P for d in GRID_DELTA):
            failures.append(f"{algorithm}: grid rows {seen} are not the requested grid")
            continue
        for row in rows:
            p, delta, trials = row["p"], row["delta"], row["trials"]
            label = f"{algorithm} p={p} delta={delta}"
            failures += ref.check_phase_split(label, row)
            if not statistical:
                continue
            k = ref.vote_threshold(p, delta)
            err, mean = ref.walk_closed_form(p, k)
            _, _, var = ref.walk_duration_moments(p, k)
            if not err <= delta:
                failures.append(f"{label}: closed-form error {err} exceeds delta")
            failures += ref.check_error_bound(label, row["errors"], trials, delta)
            failures += ref.check_error_rate(label, row["errors"], trials, err)
            failures += ref.check_mean(label, row["mean_queries"], mean, (var / trials) ** 0.5)
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("or-n1000", _large_calls("noisy-or", "all_zero", "or-n1000"), check_or),
        Workload("max-n1000", _large_calls("noisy-max", "sorted", "max-n1000"), check_max),
        Workload("walk-grid", _grid_calls, check_grid),
    )
}


# ---------------------------------------------------------------------------
# Running and parsing
# ---------------------------------------------------------------------------

_INT_COLUMNS = {"n", "trials", "seed", "errors", "max_queries"}
_TEXT_COLUMNS = {"algorithm", "instance"}


def _parse_csv(text: str) -> list[dict]:
    rows = []
    for record in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                k: v if k in _TEXT_COLUMNS else int(v) if k in _INT_COLUMNS else float(v)
                for k, v in record.items()
            }
        )
    return rows


def invoke(call: Call) -> tuple[int | None, str, str]:
    """Call the CLI in-process; returns (exit code or None if it raised, stdout, stderr)."""
    from noisyquery.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(call.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed invocation, not a crashed benchmark
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def parse_output(call: Call, stdout: str) -> list[dict]:
    return json.loads(stdout) if call.fmt == "json" else _parse_csv(stdout)


def report_failed_call(call: Call, code: int | None, stderr: str) -> None:
    print(f"invocation failed (exit {code}): noisyquery {' '.join(call.argv)}", file=sys.stderr)
    print(stderr[-4000:], file=sys.stderr)
