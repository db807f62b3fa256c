"""The two-phase OR and MAX algorithms: thresholds, traces, accounting, statistics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from noisyquery.errors import ContractViolation
from noisyquery.exact_oracle import (
    expected_queries_noisy_max,
    expected_queries_noisy_or,
    noisy_or_error_all_zero,
)
from noisyquery.oracles import (
    BitInstance,
    NoisyOracle,
    ValueInstance,
    make_instance_max,
    make_instance_or,
)
from noisyquery.toplevel import (
    noisy_max_report,
    noisy_or_report,
    or_threshold,
    sampling_probability,
)
from recording import RecordingOracle, ScriptedOracle


class TestOrThreshold:
    def test_large_n_anchor(self):
        # max(log 1000, 1000 * 0.01 * log 100) = max(6.9078, 46.0517)
        assert or_threshold(1000, 0.01) == pytest.approx(46.05170185988091, rel=1e-12)

    def test_small_n_anchor(self):
        assert or_threshold(3, 0.01) == pytest.approx(math.log(3), rel=1e-12)

    def test_subnormal_delta(self):
        # n delta log(1/delta) is tiny, not delta times an overflowed infinity.
        assert or_threshold(1000, 1e-310) == math.log(1000)

    def test_crossover_at_delta_one_over_n(self):
        # At delta = 1/n the two arguments coincide: n * (1/n) * log n = log n.
        assert or_threshold(100, 0.01) == pytest.approx(math.log(100), rel=1e-12)

    @given(st.integers(min_value=2, max_value=10**6), st.floats(min_value=1e-9, max_value=0.49))
    def test_positive(self, n, delta):
        assert or_threshold(n, delta) > 0

    def test_validation(self):
        with pytest.raises(ContractViolation):
            or_threshold(0, 0.01)
        with pytest.raises(ContractViolation):
            or_threshold(10, 0.5)


class TestSamplingProbability:
    def test_clamped_for_tiny_n(self):
        assert sampling_probability(1) == 1.0
        assert sampling_probability(2) == 1.0

    def test_inverse_log_anchor(self):
        assert sampling_probability(8) == pytest.approx(0.48089834696298783, rel=1e-14)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_is_a_probability(self, n):
        q = sampling_probability(n)
        assert 0.0 < q <= 1.0


class TestNoisyOrTraces:
    def test_all_zero_truthful_uses_n_times_threshold(self):
        oracle = ScriptedOracle(make_instance_or("all_zero", 3))
        report = noisy_or_report(oracle, 0.01, 0.25)
        assert report.output == 0
        assert oracle.walks == [(i, None, 5, 5) for i in (1, 2, 3)]  # three truthful K=5 walks
        assert report.phase1_queries == oracle.queries == 15
        assert report.subroutine_queries == 0
        assert report.survivors == ()

    def test_single_one_goes_through_tournament(self):
        # One survivor < threshold log(3): the singleton tournament is one
        # more check of that bit, at half the tolerance.  Phase 1 runs at
        # K(0.05) = 3, the final check at K(0.025) = 4.
        oracle = ScriptedOracle(make_instance_or("single_one", 3, index=1))
        report = noisy_or_report(oracle, 0.05, 0.25)
        assert report.output == 1
        assert report.survivors == (1,)
        assert oracle.walks == [(1, None, 3, 3), (2, None, 3, 3), (3, None, 3, 3), (1, None, 4, 4)]
        assert report.phase1_queries == 9
        assert report.subroutine_queries == 4

    def test_delta_too_small_to_halve_is_refused_before_any_query(self):
        oracle = ScriptedOracle(make_instance_or("all_zero", 3))
        with pytest.raises(ContractViolation, match="too small to split in half"):
            noisy_or_report(oracle, 5e-324, 0.25)
        assert oracle.queries == 0

    def test_many_survivors_short_circuit(self):
        # All-ones with n = 8: eight survivors >= max(log 8, ...) ~ 2.08,
        # so the answer is declared without any tournament.
        oracle = ScriptedOracle(make_instance_or("literal", bits=(1,) * 8))
        report = noisy_or_report(oracle, 0.01, 0.25)
        assert report.output == 1
        assert report.subroutine_queries == 0
        assert len(report.survivors) == 8

    def test_zero_certificate(self):
        # No survivor ever invokes the tournament.
        oracle = ScriptedOracle(make_instance_or("all_zero", 6))
        report = noisy_or_report(oracle, 0.05, 0.3)
        assert report.output == 0
        assert report.subroutine_queries == 0

    def test_phase_accounting_matches_query_count(self):
        oracle = NoisyOracle(make_instance_or("single_one", 20, index=7), 0.25, master_seed=3)
        report = noisy_or_report(oracle, 0.05, 0.25)
        assert report.phase1_queries + report.subroutine_queries == oracle.queries

    def test_n_one(self):
        oracle = ScriptedOracle(make_instance_or("literal", bits=(1,)))
        assert noisy_or_report(oracle, 0.01, 0.25).output == 1


class TestNoisyMaxTraces:
    def test_n_one_uses_no_queries(self):
        oracle = ScriptedOracle(ValueInstance(values=(3.0,)))
        report = noisy_max_report(oracle, 0.01, 0.25)
        assert report.output == 1
        assert oracle.queries == 0
        assert report.sample == (1,)

    def test_n_two_samples_everything(self):
        oracle = ScriptedOracle(ValueInstance(values=(1.0, 2.0)))
        report = noisy_max_report(oracle, 0.1, 0.25)
        assert report.sample == (1, 2)
        assert report.output == 2
        assert report.phase1_queries == 0  # empty complement

    def test_membership_invariants(self):
        oracle = NoisyOracle(make_instance_max("sorted", 40), 0.25, master_seed=11)
        report = noisy_max_report(oracle, 0.05, 0.25)
        assert report.output in report.shortlist
        assert report.shortlist[0] == report.champion
        sample = set(report.sample)
        assert all(u not in sample or u == report.champion for u in report.shortlist)
        assert report.champion in sample

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_unsampled_index_meets_the_champion_in_order(self, seed):
        oracle = RecordingOracle(make_instance_max("permuted", 300, seed=seed), 0.25, master_seed=seed)
        report = noisy_max_report(oracle, 0.05, 0.25)
        sample = set(report.sample)
        others = [u for u in range(1, 301) if u not in sample]
        assert 0 < len(sample) < 300
        met = [j for i, j, _, _ in oracle.walks if i == report.champion and j not in sample]
        assert met[: len(others)] == others

    def test_phase_accounting_matches_query_count(self):
        oracle = NoisyOracle(make_instance_max("sorted", 30), 0.2, master_seed=4)
        report = noisy_max_report(oracle, 0.05, 0.2)
        assert report.phase1_queries + report.subroutine_queries == oracle.queries

    def test_noiseless_returns_argmax(self):
        oracle = ScriptedOracle(make_instance_max("relocated", 25, index=9))
        assert noisy_max_report(oracle, 0.05, 0.25).output == 9

    def test_determinism(self):
        a = noisy_max_report(
            NoisyOracle(make_instance_max("sorted", 50), 0.25, master_seed=6, trial_index=2),
            0.05, 0.25,
        )
        b = noisy_max_report(
            NoisyOracle(make_instance_max("sorted", 50), 0.25, master_seed=6, trial_index=2),
            0.05, 0.25,
        )
        assert a == b


class TestStatisticalContracts:
    """Smoke-scale Monte Carlo against the exact/first-order predictors."""

    def test_or_all_zero_error_and_mean(self):
        n, delta, p, trials = 50, 0.05, 0.25, 4000
        instance = make_instance_or("all_zero", n)
        exact_err = noisy_or_error_all_zero(n, delta, p)
        exact_mean = expected_queries_noisy_or(instance, delta, p)
        wrong = 0
        queries = 0
        for t in range(trials):
            oracle = NoisyOracle(instance, p, master_seed=21, trial_index=t)
            rep = noisy_or_report(oracle, delta, p)
            wrong += rep.output != 0
            queries += oracle.queries
        sigma = math.sqrt(exact_err * (1 - exact_err) / trials)
        assert abs(wrong / trials - exact_err) <= 4 * sigma
        assert wrong / trials <= 2 * delta
        assert queries / trials == pytest.approx(exact_mean, rel=0.03)

    def test_max_sorted_error_and_mean(self):
        n, delta, p, trials = 50, 0.05, 0.25, 2000
        instance = make_instance_max("sorted", n)
        predictor = expected_queries_noisy_max(n, delta, p)
        wrong = 0
        queries = 0
        for t in range(trials):
            oracle = NoisyOracle(instance, p, master_seed=22, trial_index=t)
            rep = noisy_max_report(oracle, delta, p)
            wrong += rep.output != n
            queries += oracle.queries
        assert wrong / trials <= 3 * delta
        assert queries / trials == pytest.approx(predictor, rel=0.04)


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_or_output_is_bit(seed):
    oracle = NoisyOracle(BitInstance(bits=(0, 1, 0, 0)), 0.3, master_seed=seed)
    assert noisy_or_report(oracle, 0.1, 0.3).output in (0, 1)
