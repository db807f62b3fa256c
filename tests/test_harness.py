"""Experiment runner: configs, intervals, aggregation, rendering, determinism."""

import json
import math
import multiprocessing
import os
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from noisyquery import harness
from noisyquery.bounds import lecam_budget, upper_budget
from noisyquery.cli import main as cli_main
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
    sweep_configs,
    wilson_interval,
)
from noisyquery.oracles import TrialDraws
from recording import RecordingOracle


def _serial_pool(monkeypatch, cpus):
    """Make the harness see `cpus` usable CPUs and run its pool's jobs in this process; returns the pool sizes."""
    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs, chunksize=1):
            return [fn(*job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=SerialPool))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return sizes


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
        assert _config().n == 1
        assert not hasattr(ExperimentConfig, "validate")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"algorithm": "quicksort"}, "unknown algorithm 'quicksort'; choose from checkbit, tournament-or, "
             "noisy-or, noisycompare, tournament-max, noisy-max"),
            ({"n": 0}, "n must be >= 1, got 0"),
            ({"p": 0.5}, "p must lie in (0, 1/2), got 0.5"),
            ({"p": 0.0}, "p must lie in (0, 1/2), got 0.0"),
            ({"delta": 0.5}, "delta must lie in (0, 1/2), got 0.5"),
            ({"trials": 0}, "trials must be >= 1, got 0"),
            ({"instance": "mystery"}, "bad instance parameters in 'mystery': unknown OR instance family "
             "'mystery' (expected all_zero, single_one or literal)"),
            # index out of range for n=1
            ({"instance": "single_one:9"}, "bad instance parameters in 'single_one:9': "
             "single_one requires 1 <= index <= 1, got 9"),
            # wrong length for n=1
            ({"instance": "literal:0,1"}, "bad instance parameters in 'literal:0,1': "
             "literal bits have length 2, expected n=1"),
            # an empty entry is refused, not dropped
            ({"instance": "literal:0,,1", "n": 2}, "bad instance parameters in 'literal:0,,1': "
             "invalid literal for int() with base 10: ''"),
            ({"instance": "literal:0,1,", "n": 2}, "bad instance parameters in 'literal:0,1,': "
             "invalid literal for int() with base 10: ''"),
            ({"instance": "literal:,0,1", "n": 2}, "bad instance parameters in 'literal:,0,1': "
             "invalid literal for int() with base 10: ''"),
            # n=1 too small
            ({"algorithm": "noisycompare", "instance": "sorted"}, "noisycompare needs n >= 2"),
            # argmax undefined
            ({"algorithm": "noisy-max", "instance": "literal:nan,1", "n": 2}, "bad instance parameters in "
             "'literal:nan,1': values must not be NaN; the argmax is otherwise ill-defined"),
            # all_zero and sorted take no parameter
            ({"algorithm": "noisy-or", "instance": "all_zero:7", "n": 3},
             "bad instance parameters in 'all_zero:7': all_zero takes no parameter"),
            ({"algorithm": "noisy-max", "instance": "sorted:abc", "n": 3},
             "bad instance parameters in 'sorted:abc': sorted takes no parameter"),
            # too small to halve
            ({"algorithm": "noisy-or", "instance": "all_zero", "delta": 5e-324},
             "delta 5e-324 is too small to split in half"),
            ({"algorithm": "tournament-or", "delta": 5e-324}, "delta 5e-324 is too small to split in half"),
            # a parameter is read strictly, so a row names the instance it ran
            ({"algorithm": "noisy-or", "instance": "single_one:1_0", "n": 10},
             "bad instance parameters in 'single_one:1_0': integer '1_0' must be ASCII digits only"),
            ({"instance": "single_one: 1"},
             "bad instance parameters in 'single_one: 1': integer ' 1' must be ASCII digits only"),
            ({"algorithm": "noisy-max", "instance": "relocated:+2", "n": 3},
             "bad instance parameters in 'relocated:+2': integer '+2' must be ASCII digits only"),
            ({"algorithm": "noisy-max", "instance": "permuted: 7", "n": 3},
             "bad instance parameters in 'permuted: 7': integer ' 7' must be ASCII digits only"),
            ({"instance": "literal:0, 1", "n": 2},
             "bad instance parameters in 'literal:0, 1': integer ' 1' must be ASCII digits only"),
            ({"algorithm": "noisy-max", "instance": "literal:1.5,2_5", "n": 2},
             "bad instance parameters in 'literal:1.5,2_5': number '2_5' must be ASCII with no '_' or whitespace"),
            ({"algorithm": "noisy-max", "instance": "literal:1.5,\u0662.\u0665", "n": 2},
             "bad instance parameters in 'literal:1.5,\u0662.\u0665': number '\u0662.\u0665' must be ASCII with no '_' "
             "or whitespace"),
        ],
    )
    def test_rejects(self, overrides, message):
        with pytest.raises(ContractViolation) as built:
            _config(**overrides)
        assert str(built.value) == message
        # replace builds a new config, which checks itself the same way.
        with pytest.raises(ContractViolation) as replaced:
            replace(_config(), **overrides)
        assert str(replaced.value) == message

    def test_smallest_delta_is_valid_where_no_tournament_splits_it(self):
        assert _config(delta=5e-324).delta == 5e-324
        assert _config(algorithm="noisy-max", instance="sorted", n=3, delta=5e-324).delta == 5e-324

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
            config = ExperimentConfig(cfg.algorithm, cfg.spec, cfg.instance.n, cfg.p, cfg.delta, trials=3, seed=1)
            assert run_experiment(config).config.algorithm == cfg.algorithm

    def test_a_registry_spec_parses_back_to_its_instance(self):
        registry = verify_registry()
        assert len(registry) == 20
        for cfg in registry:
            assert parse_instance_spec(cfg.spec, cfg.instance.n, cfg.algorithm) == cfg.instance


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

    def test_mean_interval_refuses_no_values(self):
        with pytest.raises(ContractViolation, match="at least one value"):
            mean_interval([])

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
        # A record holds no trial index, and with seed 7 trials 3, 4 and 5
        # all give (True, 5, 5); so whole runs are compared, as columns.
        cfg = _config(trials=8)
        columns = run_trials(cfg)
        assert run_trials(cfg) == columns
        assert [run_trial(cfg, t) for t in range(cfg.trials)] == list(zip(*columns))
        assert run_trials(replace(cfg, seed=8)) != columns

    def test_misreported_phase_split_is_caught(self, monkeypatch):
        model, runner, target = harness.ALGORITHMS["noisy-or"]

        def misreporting(oracle, delta):
            output, phase1, sub = runner(oracle, delta)
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
        correct, queries, phase1 = run_trials(cfg)
        assert len(correct) == len(queries) == len(phase1) == 3
        assert set(correct) <= {0, 1}
        for q, f in zip(queries, phase1):
            assert 0 <= f <= q
            assert q > 0

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
            _, phase1, sub = runner(oracle, cfg.delta)
            assert oracle.walks
            assert sum(queries for *_, queries in oracle.walks) == oracle.queries == phase1 + sub
            assert run_trial(cfg, trial)[1:] == (oracle.queries, phase1)


class TestTrialSetUp:
    """A trial's set-up does not grow with n: the oracle reads the cached instance in place."""

    N = 1_000_000

    def _traced_peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_checkbit_trial_allocates_no_copy_of_the_instance(self):
        cfg = _config(n=self.N, instance="all_zero", trials=1)
        run_trial(cfg, 2)  # builds and caches the instance, and warms the seed tables
        assert self._traced_peak(lambda: run_trial(cfg, 3)) < 100_000  # bytes; a copy takes 8 MB

    def test_validation_reuses_the_cached_instance(self):
        cfg = _config(n=self.N, instance="all_zero", trials=1)
        run_trials(cfg)
        assert self._traced_peak(lambda: run_trials(cfg)) < 100_000

    @pytest.mark.parametrize("algorithm, instance, n", [("checkbit", "single_one:1", 1), ("noisycompare", "sorted", 2)])
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("delta", [0.05, 0.01, 0.001])
    def test_a_one_walk_trial_is_its_record(self, algorithm, instance, n, p, delta):
        # Every row of a 3 p x 3 delta one-walk sweep, over trials that cross
        # the 256-trial set-up edge, each trial on draws set up at all three p.
        cfg = _config(algorithm=algorithm, instance=instance, n=n, p=p, delta=delta, trials=300, seed=5)
        columns = run_trials(cfg)
        for t, draws in zip(range(cfg.trials), TrialDraws.block(cfg.seed, 0, cfg.trials, (0.1, 0.25, 0.4))):
            for record in (run_trial(cfg, t, draws), run_trial(cfg, t)):
                assert record == tuple(column[t] for column in columns), t


class TestWorkerCap:
    @pytest.mark.parametrize("cpus, workers, expected", [(3, 5000, [3]), (3, 2, [2]), (1, 5000, [])])
    def test_pool_is_capped_at_usable_cpus(self, monkeypatch, cpus, workers, expected):
        sizes = _serial_pool(monkeypatch, cpus)
        cfg = _config(algorithm="noisy-or", instance="single_one:3", n=8, trials=8)
        assert run_trials(cfg, workers=workers) == run_trials(cfg)
        assert sizes == expected


class TestAggregation:
    def test_matches_reference_aggregator(self):
        cfg = _config(algorithm="noisy-or", instance="all_zero", n=6, trials=80, delta=0.1)
        columns = run_trials(cfg)
        stats = aggregate(cfg, columns)
        correct, total, phase1 = columns

        # Independent reference computation, same arithmetic order.
        errors = sum(1 for c in correct if not c)
        assert stats.errors == errors
        assert stats.error_rate == errors / 80
        queries = [float(q) for q in total]
        mean = sum(queries) / 80
        assert stats.mean_queries == mean
        var = sum((q - mean) ** 2 for q in queries) / 79
        half = 1.959963984540054 * math.sqrt(var / 80)
        assert stats.queries_ci_hi - stats.mean_queries == pytest.approx(half, rel=1e-12)
        assert stats.max_queries == max(total)
        assert stats.phase1_mean_queries == sum(phase1) / 80
        assert stats.subroutine_mean_queries == sum(q - f for q, f in zip(total, phase1)) / 80
        assert stats.theory_upper_budget == upper_budget(6, 0.1, 0.25)
        assert stats.theory_lecam_m_at_delta == lecam_budget(6, 0.1, 0.25)
        assert stats.ratio_mean_over_upper == mean / upper_budget(6, 0.1, 0.25)
        lo, hi = wilson_interval(errors, 80)
        assert (stats.error_ci_lo, stats.error_ci_hi) == (lo, hi)

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            aggregate(_config(), harness._columns())


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
        columns = run_trials(cfg)
        stats = aggregate(cfg, columns)
        payload = json.loads(render_json([stats], columns))
        assert payload[0]["algorithm"] == "checkbit"
        assert payload[0]["trials"] == 6
        correct, queries, phase1 = columns
        assert payload[0]["trials_raw"] == [
            {"trial_index": t, "correct": c == 1, "queries": q, "phase1_queries": f, "subroutine_queries": q - f}
            for t, (c, q, f) in enumerate(zip(correct, queries, phase1))
        ]
        assert [list(record) for record in payload[0]["trials_raw"]] == [
            ["trial_index", "correct", "queries", "phase1_queries", "subroutine_queries"]
        ] * 6
        assert all(type(record["correct"]) is bool for record in payload[0]["trials_raw"])

    def test_json_without_raw_trials(self):
        cfg = _config(trials=4)
        payload = json.loads(render_json([run_experiment(cfg)]))
        assert "trials_raw" not in payload[0]


class TestSweep:
    def test_grid_shape_and_reproducibility(self):
        base = _config(trials=20)
        rows = run_sweep(sweep_configs(base, [1, 2], [0.2, 0.3], [0.05]), workers=1)
        assert len(rows) == 4
        # Each row equals a standalone run of the same configuration.
        standalone = run_experiment(_config(trials=20, n=2, p=0.3, delta=0.05))
        matching = [r for r in rows if r.config.n == 2 and r.config.p == 0.3]
        assert matching[0] == standalone

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "algorithm, instance, n_grid, p_grid, delta_grid",
        [
            ("checkbit", "single_one:1", [1], [0.1, 0.25, 0.4], [0.05, 0.001]),
            ("noisycompare", "sorted", [2, 3], [0.25, 0.4], [0.01]),
            # Its trials run past the 4,672-flip shared prefix.
            ("noisy-or", "all_zero", [1000], [0.25, 0.4], [0.05, 0.01]),
            ("noisy-max", "sorted", [40, 60], [0.25], [0.05]),
        ],
    )
    def test_every_row_equals_its_standalone_trials(self, algorithm, instance, n_grid, p_grid, delta_grid, workers):
        base = _config(algorithm=algorithm, instance=instance, n=n_grid[0], trials=6, seed=5)
        configs = sweep_configs(base, n_grid, p_grid, delta_grid)
        standalone = [run_trials(cfg) for cfg in configs]
        if algorithm == "noisy-or":
            assert min(min(queries) for _, queries, _ in standalone) > 4672
        rows = run_sweep(configs, workers=workers)
        assert rows == [aggregate(cfg, columns) for cfg, columns in zip(configs, standalone)]
        assert harness._run_rows(configs, workers) == standalone

    def test_each_row_is_aggregated_once_by_module_name(self, monkeypatch):
        # A tracer that swaps harness.aggregate counts its calls, one a row.
        aggregated = []

        def counting(cfg, columns):
            aggregated.append(cfg)
            return aggregate(cfg, columns)

        monkeypatch.setattr(harness, "aggregate", counting)
        configs = sweep_configs(_config(trials=5), [1, 2], [0.2, 0.3], [0.05, 0.01])
        assert run_sweep(configs) == [aggregate(cfg, run_trials(cfg)) for cfg in configs]
        assert aggregated == configs

    def test_a_sweep_holds_one_trial_prefix_at_a_time(self):
        # A two-row noisy-or sweep at n = 10^5 reads over 5 * 10^5 flips a
        # trial; only one trial's 4,672-flip prefix and one 4,096-flip
        # chunk an oracle are alive at once, never a trial's flips.
        base = _config(algorithm="noisy-or", instance="all_zero", n=100_000, delta=0.05, trials=2)
        configs = sweep_configs(base, [100_000], [0.25, 0.3], [0.05])  # builds the instance before tracing
        harness._run_rows(sweep_configs(base, [1000], [0.25, 0.3], [0.05]), 1)  # imports and fills the caches
        tracemalloc.start()
        try:
            columns = harness._run_rows(configs, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert min(columns[0][1]) > 500_000
        assert peak < 1_000_000  # bytes; the flips of one trial take over 4 MB

    def test_a_max_sweep_holds_no_list_of_n_indices(self):
        # A two-row noisy-max sweep at n = 10^5: the sampling draws, the
        # value array and the unsampled indices are arrays of about n
        # (under 3 MB together), but the champion comparisons are named
        # 1,024 at a time, so no list of the ~91,000 unsampled indices
        # (about 3.6 MB of ints on its own) is ever built.
        base = _config(algorithm="noisy-max", instance="sorted", n=100_000, delta=0.05, trials=2)
        configs = sweep_configs(base, [100_000], [0.25, 0.3], [0.05])  # builds the instance before tracing
        harness._run_rows(sweep_configs(base, [1000], [0.25, 0.3], [0.05]), 1)  # imports and fills the caches
        tracemalloc.start()
        try:
            columns = harness._run_rows(configs, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert min(columns[0][1]) > 500_000
        assert peak < 4_000_000  # bytes

    # More n values than the instance cache holds (32).
    N_GRID = list(range(1, 41))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("through", ["run_sweep", "cli"])
    def test_a_sweep_over_n_builds_each_instance_once_while_running(self, monkeypatch, tmp_path, through, workers):
        built = []

        def counting_parse(spec, n, algorithm):
            built.append(n)
            return parse_instance_spec(spec, n, algorithm)

        monkeypatch.setattr(harness, "parse_instance_spec", counting_parse)
        sizes = _serial_pool(monkeypatch, 2)  # the worker blocks build here, where they are counted
        harness._cached_instance.cache_clear()
        if through == "cli":
            argv = ["sweep", "--algorithm", "checkbit", "--instance", "single_one:1", "--n", "1:40:1", "--p", "0.25,0.4"]
            argv += ["--delta", "0.05", "--trials", "8", "--seed", "7", "--workers", str(workers)]
            assert cli_main(argv + ["--out", str(tmp_path / "rows.csv")]) == 0
        else:
            run_sweep(sweep_configs(_config(trials=8), self.N_GRID, [0.25, 0.4], [0.05]), workers=workers)
        assert len(sizes) == (len(self.N_GRID) if workers > 1 else 0)
        # Once while validating and once while running its rows' trials:
        # run_sweep does not check again the rows the CLI checked.
        assert all(built.count(n) <= 2 for n in self.N_GRID)

    def test_a_sweep_over_n_holds_one_n_of_columns_at_a_time(self):
        def sweep_peak(n_grid):
            tracemalloc.start()
            try:
                run_sweep(sweep_configs(_config(trials=1000), n_grid, [0.25], [0.05]))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_sweep(sweep_configs(_config(trials=10), self.N_GRID, [0.25], [0.05]))  # fills the caches
        one_n = sweep_peak([1])
        # 39 more rows' columns would add 39 * 1000 trials * 17 bytes = 663 kB.
        assert sweep_peak(self.N_GRID) - one_n < 150_000

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolation):
            sweep_configs(_config(), [], [0.25], [0.05])

    def test_mean_queries_increase_with_noise(self):
        # Budget scales like 1/D(p || 1-p): p = 0.45 needs far more reads
        # than p = 0.05 at the same tolerance.
        base = _config(trials=400, delta=0.01)
        rows = run_sweep(sweep_configs(base, [1], [0.05, 0.45], [0.01]))
        by_p = {r.config.p: r.mean_queries for r in rows}
        assert by_p[0.45] > 10 * by_p[0.05]

    def test_ratio_column_consistency(self):
        rows = run_sweep(sweep_configs(_config(trials=15), [1], [0.25], [0.05, 0.01]))
        for r in rows:
            assert r.ratio_mean_over_upper == pytest.approx(
                r.mean_queries / r.theory_upper_budget, rel=1e-12
            )
