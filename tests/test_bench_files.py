"""Committed benchmark records (``BENCH_*.json`` at the repository root) are sound.

A BENCH file banks a performance claim: the ``perfbench/run.py`` result
lines of the parent commit and of the change, run in alternating pairs
on one machine, plus that machine and its core count.  Its ``runs`` are
the end-to-end runs (``--trace 0``), its ``trace_runs`` any ``--trace 1``
runs, its ``holdout_runs`` any runs at a seed held out of ``seeds``, and
its ``summary`` is read off ``runs``: each side's median, and, over the
pairs (one run a side for each workload and seed), how many the change
won or tied and the relative change of the median, each metric's better
direction taken from ``BENCHMARK.json``.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
# Claims whose change alters queries by design, so their sides differ in queries_per_trial.
QUERIES_CHANGED = {"BENCH_halving_schedule.json", "BENCH_since_e54aa4f.json"}
HIGHER_IS_BETTER = {
    metric["name"]: metric["better"] == "higher"
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


@pytest.fixture(params=BENCH_FILES, ids=lambda path: path.name)
def bench(request):
    return json.loads(request.param.read_text())


def _lines(bench):
    return bench["runs"] + bench.get("trace_runs", []) + bench.get("holdout_runs", [])


def test_names_its_machine_and_core_count(bench):
    cores = bench["machine"]["cores"]
    assert type(cores) is int and cores >= 1
    assert bench["machine"]["cpu"]


def test_both_sides_cover_the_same_workloads_and_seeds(bench):
    expected = {(w, s) for w in bench["workloads"] for s in bench["seeds"]}
    assert expected
    for side in SIDES:
        runs = [(r["workload"], r["seed"]) for r in bench["runs"] if r["side"] == side]
        assert sorted(runs) == sorted(expected), side
    assert {r["side"] for r in _lines(bench)} <= set(SIDES)
    for extra in ("trace_runs", "holdout_runs"):
        covered = {side: set() for side in SIDES}
        for r in bench.get(extra, []):
            covered[r["side"]].add((r["workload"], r["seed"]))
        assert covered["parent"] == covered["change"], extra


def test_every_line_is_correct_with_no_failed_operation(bench):
    for run in _lines(bench):
        result = run["result"]
        assert result["correct"] is True, run
        assert result["failed"] == 0 and result["attempted"] > 0, run


def test_every_run_has_the_same_length(bench):
    assert {r["seconds"] for r in bench["runs"] + bench.get("holdout_runs", [])} == {bench["seconds"]}


def test_summary_is_read_off_the_runs(bench):
    assert set(bench["summary"]) == set(bench["workloads"])
    for workload, metrics in bench["summary"].items():
        for name, by_side in metrics.items():
            for side in SIDES:
                values = [
                    r["result"]["metrics"][name]["value"]
                    for r in bench["runs"]
                    if r["workload"] == workload and r["side"] == side
                ]
                assert by_side[side]["median"] == pytest.approx(statistics.median(values)), (workload, name)


def test_pair_counts_and_median_change_are_read_off_the_runs(bench):
    for workload, metrics in bench["summary"].items():
        for name, summary in metrics.items():
            pairs = {}
            for r in bench["runs"]:
                if r["workload"] == workload:
                    pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
            gains = [(v["change"] - v["parent"]) * (1 if HIGHER_IS_BETTER[name] else -1) for v in pairs.values()]
            assert summary["change_better_pairs"] == sum(g > 0 for g in gains), (workload, name)
            assert summary["tied_pairs"] == sum(g == 0 for g in gains), (workload, name)
            medians = [statistics.median(v[side] for v in pairs.values()) for side in SIDES]
            assert summary["median_change"] == pytest.approx(medians[1] / medians[0] - 1), (workload, name)


@pytest.mark.parametrize(
    "path", [path for path in BENCH_FILES if path.name not in QUERIES_CHANGED], ids=lambda path: path.name
)
def test_queries_per_trial_are_identical_seed_by_seed(path):
    bench = json.loads(path.read_text())
    by_run = {}
    for r in bench["runs"] + bench.get("holdout_runs", []):
        by_run.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r["result"]["metrics"]["queries_per_trial"]
    assert by_run
    for run, sides in by_run.items():
        assert sides["parent"]["value"] == sides["change"]["value"], run


def test_the_files_exempt_from_the_query_check_exist():
    assert QUERIES_CHANGED <= {path.name for path in BENCH_FILES}
