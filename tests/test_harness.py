"""Experiment runner: configs, intervals, aggregation, rendering, determinism."""

import json
import math
import os
from types import SimpleNamespace

import pytest

from noisyquery import harness
from noisyquery.bounds import lecam_budget, upper_budget
from noisyquery.errors import ContractViolation, InvariantError
from noisyquery.exact_oracle import verify_registry
from noisyquery.harness import (
    CSV_COLUMNS,
    AggregateStats,
    ExperimentConfig,
    aggregate,
    mean_interval,
    parse_instance_spec,
    render_csv,
    render_json,
    run_experiment,
    run_sweep,
    run_trial,
    run_trials,
    wilson_interval,
)
from noisyquery.oracles import BitInstance
from recording import RecordingOracle


def _config(**overrides):
    base = dict(
        algorithm="checkbit",
        instance="single_one:1",
        n=1,
        p=0.25,
        delta=0.05,
        trials=50,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid_config_passes(self):
        _config().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"algorithm": "quicksort"},
            {"n": 0},
            {"p": 0.5},
            {"p": 0.0},
            {"delta": 0.5},
            {"trials": 0},
            {"instance": "mystery"},
            {"instance": "single_one:9"},          # index out of range for n=1
            {"instance": "literal:0,1"},           # wrong length for n=1
            {"algorithm": "noisycompare", "instance": "sorted"},  # n=1 too small
            {"algorithm": "noisy-max", "instance": "literal:nan,1", "n": 2},  # argmax undefined
            {"algorithm": "noisy-or", "instance": "all_zero:7", "n": 3},  # all_zero takes no parameter
            {"algorithm": "noisy-max", "instance": "sorted:abc", "n": 3},  # sorted takes no parameter
            {"algorithm": "noisy-or", "instance": "all_zero", "delta": 5e-324},  # too small to halve
            {"algorithm": "tournament-or", "delta": 5e-324},  # too small to halve
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ContractViolation):
            _config(**overrides).validate()

    def test_smallest_delta_is_valid_where_no_tournament_splits_it(self):
        _config(delta=5e-324).validate()
        _config(algorithm="noisy-max", instance="sorted", n=3, delta=5e-324).validate()

    def test_instance_spec_families(self):
        assert parse_instance_spec("all_zero", 3, "noisy-or").bits == (0, 0, 0)
        assert parse_instance_spec("single_one:2", 3, "tournament-or").bits == (0, 1, 0)
        assert parse_instance_spec("literal:1,0", 2, "noisy-or").bits == (1, 0)
        assert parse_instance_spec("sorted", 3, "noisy-max").values == (1.0, 2.0, 3.0)
        assert parse_instance_spec("relocated:1", 3, "noisy-max").values == (3.0, 1.0, 2.0)
        assert parse_instance_spec("literal:2.5,1.5", 2, "tournament-max").values == (2.5, 1.5)
        permuted = parse_instance_spec("permuted:9", 6, "noisy-max")
        assert sorted(permuted.values) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_model_specific_families(self):
        with pytest.raises(ContractViolation):
            parse_instance_spec("sorted", 3, "noisy-or")
        with pytest.raises(ContractViolation):
            parse_instance_spec("all_zero", 3, "noisy-max")

    @pytest.mark.parametrize("algorithm", ["quicksort", "noisy_or", ""])
    def test_unknown_algorithm_is_a_contract_violation(self, algorithm):
        with pytest.raises(ContractViolation, match="unknown algorithm"):
            parse_instance_spec("all_zero", 3, algorithm)


class TestAlgorithmTable:
    def test_verify_registry_runs_as_written(self):
        for cfg in verify_registry():
            assert cfg.algorithm in harness.ALGORITHMS
            if isinstance(cfg.instance, BitInstance):
                spec = "literal:" + ",".join(str(x) for x in cfg.instance.bits)
            else:
                spec = "literal:" + ",".join(repr(x) for x in cfg.instance.values)
            config = ExperimentConfig(cfg.algorithm, spec, cfg.instance.n, cfg.p, cfg.delta, trials=3, seed=1)
            assert run_experiment(config).config.algorithm == cfg.algorithm


class TestIntervals:
    def test_wilson_known_point(self):
        lo, hi = wilson_interval(5, 100)
        assert lo == pytest.approx(0.021543679154367973, rel=1e-12)
        assert hi == pytest.approx(0.11175046923191914, rel=1e-12)

    def test_wilson_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.03699349820698568, rel=1e-12)

    def test_wilson_rare_event_scale(self):
        lo, hi = wilson_interval(40, 10_000)
        assert lo == pytest.approx(0.0029390137377315437, rel=1e-12)
        assert hi == pytest.approx(0.005441912645979639, rel=1e-12)

    def test_wilson_bounds_and_coverage_shape(self):
        for k in (0, 1, 50, 99, 100):
            lo, hi = wilson_interval(k, 100)
            assert 0.0 <= lo <= k / 100 <= hi <= 1.0

    def test_wilson_validation(self):
        with pytest.raises(ContractViolation):
            wilson_interval(5, 0)
        with pytest.raises(ContractViolation):
            wilson_interval(11, 10)

    def test_mean_interval_single_value_degenerates(self):
        assert mean_interval([4.0]) == (4.0, 4.0, 4.0)

    def test_mean_interval_hand_check(self):
        values = [1.0, 2.0, 3.0, 4.0]
        mean, lo, hi = mean_interval(values)
        assert mean == 2.5
        half = 1.959963984540054 * math.sqrt((5.0 / 3.0) / 4.0)
        assert hi - mean == pytest.approx(half, rel=1e-12)
        assert mean - lo == pytest.approx(half, rel=1e-12)

    def test_ci_shrinks_with_sample_size(self):
        small = mean_interval([1.0, 2.0] * 10)
        large = mean_interval([1.0, 2.0] * 1000)
        assert (large[2] - large[1]) < (small[2] - small[1])


class TestTrials:
    def test_trial_determinism(self):
        cfg = _config(trials=1)
        assert run_trial(cfg, 0) == run_trial(cfg, 0)
        assert run_trial(cfg, 0) != run_trial(cfg, 1)

    def test_misreported_phase_split_is_caught(self, monkeypatch):
        model, runner, target = harness.ALGORITHMS["noisy-or"]

        def misreporting(oracle, n, delta, p):
            output, phase1, sub = runner(oracle, n, delta, p)
            return output, phase1, sub + 1

        monkeypatch.setitem(harness.ALGORITHMS, "noisy-or", (model, misreporting, target))
        with pytest.raises(InvariantError, match="phase accounting"):
            run_trial(_config(algorithm="noisy-or", instance="all_zero", n=4), 0)

    @pytest.mark.parametrize(
        "algorithm,instance,n",
        [
            ("checkbit", "single_one:1", 1),
            ("noisycompare", "sorted", 2),
            ("tournament-or", "single_one:2", 3),
            ("tournament-max", "sorted", 3),
            ("noisy-or", "all_zero", 5),
            ("noisy-max", "permuted:3", 5),
        ],
    )
    def test_all_algorithms_run(self, algorithm, instance, n):
        cfg = _config(algorithm=algorithm, instance=instance, n=n, trials=3)
        trials = run_trials(cfg)
        assert len(trials) == 3
        for t in trials:
            assert t.queries == t.phase1_queries + t.subroutine_queries

    def test_worker_count_does_not_change_results(self):
        cfg = _config(algorithm="noisy-or", instance="single_one:3", n=8, trials=24)
        assert run_trials(cfg, workers=1) == run_trials(cfg, workers=2)


class TestQueryConservation:
    """Every query an algorithm asks is counted by exactly one walk, and its runner splits them all."""

    @pytest.mark.parametrize(
        "algorithm,instance,n",
        [
            ("checkbit", "single_one:1", 1),
            ("noisycompare", "sorted", 2),
            ("tournament-or", "single_one:2", 5),
            ("tournament-max", "permuted:3", 5),
            ("noisy-or", "single_one:3", 6),
            ("noisy-max", "permuted:3", 12),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_walks_add_up_to_the_count_and_the_phase_split(self, algorithm, instance, n, seed):
        cfg = _config(algorithm=algorithm, instance=instance, n=n, p=0.3, delta=0.1, seed=seed)
        runner = harness.ALGORITHMS[algorithm][1]
        for trial in range(5):
            oracle = RecordingOracle(parse_instance_spec(instance, n, algorithm), cfg.p, seed, trial)
            _, phase1, sub = runner(oracle, n, cfg.delta, cfg.p)
            assert oracle.walks
            assert sum(queries for *_, queries in oracle.walks) == oracle.queries == phase1 + sub
            assert run_trial(cfg, trial)[2:] == (oracle.queries, phase1, sub)


class TestWorkerCap:
    @pytest.mark.parametrize("cpus, workers, expected", [(3, 5000, [3]), (3, 2, [2]), (1, 5000, [])])
    def test_pool_is_capped_at_usable_cpus(self, monkeypatch, cpus, workers, expected):
        sizes = []

        class SerialPool:
            """Stands in for a process pool: records its size and runs every job here."""

            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, jobs, chunksize=1):
                return [fn(*job) for job in jobs]

        monkeypatch.setattr(harness, "get_context", lambda method: SimpleNamespace(Pool=SerialPool))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = _config(algorithm="noisy-or", instance="single_one:3", n=8, trials=8)
        assert run_trials(cfg, workers=workers) == run_trials(cfg)
        assert sizes == expected


class TestAggregation:
    def test_matches_reference_aggregator(self):
        cfg = _config(algorithm="noisy-or", instance="all_zero", n=6, trials=80, delta=0.1)
        trials = run_trials(cfg)
        stats = aggregate(cfg, trials)

        # Independent reference computation, same arithmetic order.
        errors = sum(1 for t in trials if not t.correct)
        assert stats.errors == errors
        assert stats.error_rate == errors / 80
        queries = [float(t.queries) for t in trials]
        mean = sum(queries) / 80
        assert stats.mean_queries == mean
        var = sum((q - mean) ** 2 for q in queries) / 79
        half = 1.959963984540054 * math.sqrt(var / 80)
        assert stats.queries_ci_hi - stats.mean_queries == pytest.approx(half, rel=1e-12)
        assert stats.max_queries == max(t.queries for t in trials)
        assert stats.phase1_mean_queries == sum(t.phase1_queries for t in trials) / 80
        assert stats.subroutine_mean_queries == sum(t.subroutine_queries for t in trials) / 80
        assert stats.theory_upper_budget == upper_budget(6, 0.1, 0.25)
        assert stats.theory_lecam_m_at_delta == lecam_budget(6, 0.1, 0.25)
        assert stats.ratio_mean_over_upper == mean / upper_budget(6, 0.1, 0.25)
        lo, hi = wilson_interval(errors, 80)
        assert (stats.error_ci_lo, stats.error_ci_hi) == (lo, hi)

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            aggregate(_config(), [])


class TestRendering:
    HEADER = (
        "algorithm,instance,n,p,delta,trials,seed,errors,error_rate,error_ci_lo,"
        "error_ci_hi,mean_queries,queries_ci_lo,queries_ci_hi,max_queries,"
        "phase1_mean_queries,subroutine_mean_queries,theory_upper_budget,"
        "theory_lecam_m_at_delta,ratio_mean_over_upper"
    )

    def test_csv_header_is_frozen(self):
        assert ",".join(CSV_COLUMNS) == self.HEADER

    def test_csv_shape(self):
        cfg = _config(trials=10)
        stats = run_experiment(cfg)
        text = render_csv([stats])
        lines = text.strip().split("\n")
        assert lines[0] == self.HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(CSV_COLUMNS)

    def test_csv_reruns_byte_identical(self):
        cfg = _config(algorithm="noisy-max", instance="sorted", n=12, trials=30, delta=0.1)
        first = render_csv([run_experiment(cfg, workers=1)])
        second = render_csv([run_experiment(cfg, workers=2)])
        assert first == second

    def test_json_roundtrip(self):
        cfg = _config(trials=6)
        trials = run_trials(cfg)
        stats = aggregate(cfg, trials)
        payload = json.loads(render_json([stats], {0: trials}))
        assert payload[0]["algorithm"] == "checkbit"
        assert payload[0]["trials"] == 6
        assert len(payload[0]["trials_raw"]) == 6
        assert payload[0]["trials_raw"][0]["queries"] == trials[0].queries

    def test_json_without_raw_trials(self):
        cfg = _config(trials=4)
        payload = json.loads(render_json([run_experiment(cfg)]))
        assert "trials_raw" not in payload[0]


class TestSweep:
    def test_grid_shape_and_reproducibility(self):
        base = _config(trials=20)
        rows = run_sweep(base, [1, 2], [0.2, 0.3], [0.05], workers=1)
        assert len(rows) == 4
        # Each row equals a standalone run of the same configuration.
        standalone = run_experiment(_config(trials=20, n=2, p=0.3, delta=0.05))
        matching = [r for r in rows if r.config.n == 2 and r.config.p == 0.3]
        assert matching[0] == standalone

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolation):
            run_sweep(_config(), [], [0.25], [0.05])

    def test_mean_queries_increase_with_noise(self):
        # Budget scales like 1/D(p || 1-p): p = 0.45 needs far more reads
        # than p = 0.05 at the same tolerance.
        base = _config(trials=400, delta=0.01)
        rows = run_sweep(base, [1], [0.05, 0.45], [0.01])
        by_p = {r.config.p: r.mean_queries for r in rows}
        assert by_p[0.45] > 10 * by_p[0.05]

    def test_ratio_column_consistency(self):
        rows = run_sweep(_config(trials=15), [1], [0.25], [0.05, 0.01])
        for r in rows:
            assert r.ratio_mean_over_upper == pytest.approx(
                r.mean_queries / r.theory_upper_budget, rel=1e-12
            )
