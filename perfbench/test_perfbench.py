"""Tests of the benchmark itself: references, output checks, tracing, and quick runs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each output check is shown to reject a deliberately wrong result, so
that none of them can pass vacuously.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import layers
import reference as ref
from tracing import Tracer
from workloads import CHECK_ROUNDS, WORKLOADS, invoke, parse_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11


@lru_cache(maxsize=None)
def _rows(workload: str, size: str = "full") -> list[list[dict]]:
    """The output rows of a workload's checked campaign."""
    calls = WORKLOADS[workload].calls(SEED, size, 1, CHECK_ROUNDS)
    rows = []
    for call in calls:
        code, out, err = invoke(call)
        assert code == 0, err
        rows.append(parse_output(call, out))
    return rows


def rows(workload: str, size: str = "full") -> list[list[dict]]:
    return copy.deepcopy(_rows(workload, size))


def _shift_large(rows_per_call: list[list[dict]], factor: float) -> list[list[dict]]:
    """Scale every trial's queries in both phases, keeping the bookkeeping consistent."""
    (row,) = rows_per_call[0]
    for t in row["trials_raw"]:
        t["phase1_queries"] = round(t["phase1_queries"] * factor)
        t["subroutine_queries"] = round(t["subroutine_queries"] * factor)
        t["queries"] = t["phase1_queries"] + t["subroutine_queries"]
    m = len(row["trials_raw"])
    row["mean_queries"] = sum(t["queries"] for t in row["trials_raw"]) / m
    row["phase1_mean_queries"] = sum(t["phase1_queries"] for t in row["trials_raw"]) / m
    row["subroutine_mean_queries"] = sum(t["subroutine_queries"] for t in row["trials_raw"]) / m
    return rows_per_call


def _set_errors(rows_per_call: list[list[dict]], errors: int) -> list[list[dict]]:
    (row,) = rows_per_call[0]
    for k, t in enumerate(row["trials_raw"]):
        t["correct"] = k >= errors
    row["errors"] = errors
    return rows_per_call


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
@pytest.mark.parametrize("k", [1, 2, 5, 18])
def test_closed_form_matches_duration_recursion(p, k):
    err, mean = ref.walk_closed_form(p, k)
    err_dp, mean_dp, var_dp = ref.walk_duration_moments(p, k)
    assert err_dp == pytest.approx(err, rel=1e-9)
    assert mean_dp == pytest.approx(mean, rel=1e-9)
    assert var_dp > 0 or k == 1  # a one-vote walk always takes one query


def test_walk_with_one_step_threshold_is_one_query():
    assert ref.walk_duration_moments(0.25, 1) == pytest.approx((0.25, 1.0, 0.0), abs=1e-12)


def test_binomial_tails_match_direct_sums():
    n, q = 12, 0.3
    pmf = [math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(n + 1)]
    for k in range(n + 1):
        assert ref.binom_upper_tail(n, q, k) == pytest.approx(sum(pmf[k:]), rel=1e-9)
        assert ref.binom_lower_tail(n, q, k) == pytest.approx(sum(pmf[: k + 1]), rel=1e-9)


def test_vote_threshold_matches_program():
    from noisyquery.primitives import vote_threshold

    for p in (0.1, 0.25, 0.4):
        for delta in (0.05, 0.01, 0.001):
            assert ref.vote_threshold(p, delta) == vote_threshold(p, delta)


# ---------------------------------------------------------------------------
# Each check accepts the program's real output and rejects a wrong one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_accept_real_output(workload):
    assert WORKLOADS[workload].check(rows(workload)) == []


@pytest.mark.parametrize("workload", ["or-n1000", "max-n1000"])
def test_checks_reject_mean_shifted_by_five_percent(workload):
    assert WORKLOADS[workload].check(_shift_large(rows(workload), 1.05))
    assert WORKLOADS[workload].check(_shift_large(rows(workload), 0.95))


def test_grid_check_rejects_means_shifted_by_five_percent():
    shifted = rows("walk-grid")
    for sweep in shifted:
        for row in sweep:
            row["mean_queries"] *= 1.05
            row["phase1_mean_queries"] *= 1.05
    failures = WORKLOADS["walk-grid"].check(shifted)
    assert any("mean queries" in f for f in failures)


# The checked campaigns run 150 (OR) and 100 (MAX) trials, enough to
# reject an error rate several times its bound at the checks' 1e-6 level.


def test_or_check_rejects_error_rate_above_bound():
    (row,) = rows("or-n1000")[0]
    too_many = round(0.15 * row["trials"])  # bound 2 * delta = 0.02
    failures = WORKLOADS["or-n1000"].check(_set_errors(rows("or-n1000"), too_many))
    assert any("proven bound" in f for f in failures)


def test_grid_check_rejects_error_rate_off_the_closed_form():
    # p=0.4, delta=0.05: the walk errs 3.8% of the time.  No errors at all
    # stays inside the bound, yet is impossible at this many trials.
    wrong = rows("walk-grid")
    row = next(r for r in wrong[1] if r["p"] == 0.4 and r["delta"] == 0.05)
    row["errors"] = 0
    failures = WORKLOADS["walk-grid"].check(wrong)
    assert any("p=0.4 delta=0.05" in f and "exact rate" in f for f in failures)
    assert not any("proven bound" in f for f in failures)


def test_max_check_rejects_error_rate_above_bound():
    (row,) = rows("max-n1000")[0]
    too_many = round(0.2 * row["trials"])  # bound 3 * delta = 0.03
    failures = WORKLOADS["max-n1000"].check(_set_errors(rows("max-n1000"), too_many))
    assert any("proven bound" in f for f in failures)


def test_grid_check_rejects_error_rate_above_bound():
    wrong = rows("walk-grid")
    row = next(r for r in wrong[0] if r["p"] == 0.25 and r["delta"] == 0.05)
    row["errors"] = round(3 * 0.05 * row["trials"])
    failures = WORKLOADS["walk-grid"].check(wrong)
    assert any("p=0.25 delta=0.05" in f and "proven bound" in f for f in failures)


def test_grid_check_rejects_missing_row():
    wrong = rows("walk-grid")
    wrong[1].pop()
    assert any("not the requested grid" in f for f in WORKLOADS["walk-grid"].check(wrong))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_reject_broken_phase_split(workload):
    wrong = rows(workload)
    wrong[0][0]["phase1_mean_queries"] += 1.0
    failures = WORKLOADS[workload].check(wrong, statistical=False)
    assert any("phase split" in f for f in failures)


@pytest.mark.parametrize("workload", ["or-n1000", "max-n1000"])
def test_checks_reject_row_that_disagrees_with_its_trials(workload):
    wrong = rows(workload)
    wrong[0][0]["errors"] += 1
    assert any("records say" in f for f in WORKLOADS[workload].check(wrong, statistical=False))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _traced(workload: str):
    calls = WORKLOADS[workload].calls(SEED, "tiny", 1)
    with Tracer() as tracer:
        outs = [invoke(call) for call in calls]
    rows_per_call = [parse_output(call, out) for call, (_, out, _) in zip(calls, outs)]
    return rows_per_call, layers.replay_figures(tracer.spans), tracer.spans


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_layers_add_up_to_the_printed_totals(workload):
    rows_per_call, figures, _ = _traced(workload)
    total = sum(round(r["mean_queries"] * r["trials"]) for rows in rows_per_call for r in rows)
    assert sum(layers.traced_phases(figures)) == figures["walk_queries"] == total
    assert layers.phase_checks(workload, rows_per_call, figures) == []


def test_phase_check_rejects_misattributed_queries():
    rows_per_call, figures, _ = _traced("or-n1000")
    figures["or_phase1_queries"] -= 1
    figures["or_rounds_queries"] += 1
    assert layers.phase_checks("or-n1000", rows_per_call, figures)


def test_tracer_restores_the_program_and_nests_spans():
    import noisyquery.primitives
    import noisyquery.toplevel

    original = noisyquery.toplevel.check_bit
    _, _, spans = _traced("or-n1000")
    assert noisyquery.toplevel.check_bit is original is noisyquery.primitives.check_bit
    names = {s[0] for s in spans}
    assert {"harness.run_trial", "toplevel.noisy_or_report", "primitives.check_bit"} <= names
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            parent = spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]
            assert span[4] == parent[4]  # one trace id per trial


def test_walk_thresholds_are_exact():
    from noisyquery.primitives import vote_threshold_log

    for k in layers.WALK_THRESHOLDS:
        assert vote_threshold_log(layers.P, layers.log_delta_for_threshold(k)) == k


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_completes_and_reports_every_metric(workload, trace):
    done = _bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--size", "tiny"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # At tiny sizes a layer may see no work (an OR run with no survivors), so only >= 0.
    assert all(math.isfinite(v["value"]) and v["value"] >= 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(tmp_path, "--workload", "or-n1000", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
