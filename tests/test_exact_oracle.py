"""The exact-analysis layer itself: closed forms, solver agreement, enumeration."""

import math

import pytest

from noisyquery.bounds import upper_budget
from noisyquery.errors import ContractViolation, EnumerationCapError
from noisyquery.exact_oracle import (
    analyze_walk,
    analyze_walk_markov,
    enumerate_tournament,
    expected_queries_noisy_max,
    expected_queries_noisy_or,
    noisy_or_error_all_zero,
    run_verify_checks,
    tournament_max_cost,
    tournament_or_cost,
    verify_registry,
    walk_branch_stats,
)
from noisyquery.oracles import BitInstance, ValueInstance, make_instance_or
from noisyquery.primitives import vote_threshold, vote_threshold_log


class TestWalkClosedForm:
    def test_reference_point(self):
        w = analyze_walk(0.25, 5)
        assert w.error_probability == pytest.approx(1.0 / 244.0, rel=1e-15)
        assert w.expected_queries == pytest.approx(9.918032786885245, rel=1e-15)

    def test_single_step(self):
        w = analyze_walk(0.3, 1)
        assert w.error_probability == pytest.approx(0.3, rel=1e-15)
        assert w.expected_queries == pytest.approx(1.0, rel=1e-15)

    def test_low_noise_point(self):
        w = analyze_walk(0.1, 4)
        assert w.error_probability == pytest.approx(1.0 / (1.0 + 9.0**4), rel=1e-14)
        assert w.expected_queries == pytest.approx(4.99847607436757, rel=1e-14)

    @pytest.mark.parametrize("p, k", [(0.25, 647), (0.25, 700), (0.1, 400), (0.45, 100_000)])
    def test_threshold_beyond_float_range(self, p, k):
        # lambda**K overflows a float: the error is below float range and
        # the walk goes straight to +K, at K / (1 - 2p) queries.
        w = analyze_walk(p, k)
        assert w.error_probability == 0.0
        assert w.expected_queries == pytest.approx(k / (1.0 - 2.0 * p), rel=1e-15)

    def test_last_finite_power_is_unchanged(self):
        w = analyze_walk(0.25, 646)
        assert w.error_probability == 1.0 / (1.0 + 3.0**646) > 0.0

    def test_noisy_max_predictor_at_small_delta(self):
        # The round-11 tournament threshold here is 705, past the overflow.
        pred = expected_queries_noisy_max(10_000, 1e-8, 0.25)
        assert 1.0 < pred / upper_budget(10_000, 1e-8, 0.25) < 2.0

    def test_validation(self):
        with pytest.raises(ContractViolation):
            analyze_walk(0.5, 3)
        with pytest.raises(ContractViolation):
            analyze_walk(0.25, 0)


class TestSolverAgreement:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.4, 0.45])
    def test_markov_matches_closed_form_to_twelve_digits(self, p):
        for k in range(1, 31):
            cf = analyze_walk(p, k)
            mk = analyze_walk_markov(p, k)
            assert mk.error_probability == pytest.approx(cf.error_probability, rel=1e-12)
            assert mk.expected_queries == pytest.approx(cf.expected_queries, rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.25, 0.45])
    @pytest.mark.parametrize("k", [1, 2, 5, 13])
    def test_rational_branch_stats(self, p, k):
        cf = analyze_walk(p, k)
        br = walk_branch_stats(p, k)
        assert br.error_prob == pytest.approx(cf.error_probability, rel=1e-13)
        assert br.expected_queries == pytest.approx(cf.expected_queries, rel=1e-13)
        # Symmetric barriers from a centered start: conditioning on the
        # absorbing side does not change the expected duration.
        assert br.expected_queries_correct == pytest.approx(
            br.expected_queries_wrong, rel=1e-13
        )
        mixture = (
            br.correct_prob * br.expected_queries_correct
            + br.error_prob * br.expected_queries_wrong
        )
        assert mixture == pytest.approx(br.expected_queries, rel=1e-13)


class TestTournamentCosts:
    def test_single_entrant_is_one_walk(self):
        cost = tournament_or_cost(1, 0.01, 0.25)
        assert cost == pytest.approx(analyze_walk(0.25, 5).expected_queries, rel=1e-14)
        assert tournament_max_cost(1, 0.01, 0.25) == 0.0

    def test_two_entrants_decompose(self):
        k_sq = vote_threshold_log(0.25, 2 * math.log(0.1))
        k_full = vote_threshold(0.25, 0.1)
        expected = analyze_walk(0.25, k_sq).expected_queries
        assert tournament_max_cost(2, 0.1, 0.25) == pytest.approx(expected, rel=1e-14)
        assert tournament_or_cost(2, 0.1, 0.25) == pytest.approx(
            expected + analyze_walk(0.25, k_full).expected_queries, rel=1e-14
        )

    def test_cost_grows_with_entrants(self):
        costs = [tournament_max_cost(r, 0.01, 0.25) for r in range(1, 40)]
        assert all(a < b for a, b in zip(costs, costs[1:]))


class TestEnumeration:
    def test_single_entrant_or_equals_walk(self):
        result = enumerate_tournament(BitInstance(bits=(0,)), "tournament-or", 0.25, 0.25)
        assert result.error_probability == pytest.approx(0.25, rel=1e-14)
        assert result.expected_queries == pytest.approx(1.0, rel=1e-14)

    def test_two_entrant_max_is_one_squared_tolerance_walk(self):
        result = enumerate_tournament(ValueInstance(values=(1.0, 2.0)), "tournament-max", 0.1, 0.25)
        k = vote_threshold_log(0.25, 2 * math.log(0.1))
        w = analyze_walk(0.25, k)
        assert result.error_probability == pytest.approx(w.error_probability, rel=1e-13)
        assert result.expected_queries == pytest.approx(w.expected_queries, rel=1e-13)

    def test_noisy_or_two_zero_bits(self):
        # Threshold max(log 2, 0.4 log 5) = log 2 < 1: one false positive
        # already declares 1, so error = 1 - (1 - walkerr)^2 with K = 2 and
        # the run is always exactly two walks.
        result = enumerate_tournament(BitInstance(bits=(0, 0)), "noisy-or", 0.2, 0.25)
        assert result.error_probability == pytest.approx(0.19, abs=1e-12)
        assert result.expected_queries == pytest.approx(6.4, abs=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        for cfg in verify_registry():
            result = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
            assert sum(result.outcome_probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_guarantee_domination_over_registry(self):
        for cfg in verify_registry():
            if not cfg.assert_domination:
                continue
            result = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
            assert result.error_probability <= cfg.error_bound_multiplier * cfg.delta + 1e-12, cfg.name

    def test_threshold_ceiling_boundary_case(self):
        # At (p, delta) = (0.25, 0.1) the final check's exact error is
        # exactly delta, so the bracket round pushes the total above it;
        # kept as a documented property of the as-written schedule.
        result = enumerate_tournament(BitInstance(bits=(1, 0)), "tournament-or", 0.1, 0.25)
        assert result.error_probability == pytest.approx(0.10327868852459016, rel=1e-12)
        assert result.error_probability > 0.1

    def test_structural_or_predictors_match_enumeration(self):
        inst = BitInstance(bits=(0, 0, 0))
        enum = enumerate_tournament(inst, "noisy-or", 0.1, 0.25)
        assert noisy_or_error_all_zero(3, 0.1, 0.25) == pytest.approx(
            enum.error_probability, rel=1e-9
        )
        assert expected_queries_noisy_or(inst, 0.1, 0.25) == pytest.approx(
            enum.expected_queries, rel=1e-9
        )

    def test_or_predictor_handles_mixed_bits(self):
        inst = BitInstance(bits=(0, 1, 0))
        enum = enumerate_tournament(inst, "noisy-or", 0.1, 0.25)
        assert expected_queries_noisy_or(inst, 0.1, 0.25) == pytest.approx(
            enum.expected_queries, rel=1e-9
        )

    def test_max_predictor_close_to_enumeration(self):
        # First-order in the tournament error; 0.1 percent at this scale.
        enum = enumerate_tournament(ValueInstance(values=(1.0, 2.0, 3.0)), "noisy-max", 0.25, 0.25)
        pred = expected_queries_noisy_max(3, 0.25, 0.25)
        assert pred == pytest.approx(enum.expected_queries, rel=2e-3)

    def test_max_predictor_exact_when_everything_is_sampled(self):
        enum = enumerate_tournament(ValueInstance(values=(1.0, 2.0)), "noisy-max", 0.2, 0.25)
        assert expected_queries_noisy_max(2, 0.2, 0.25) == pytest.approx(
            enum.expected_queries, rel=1e-12
        )


class TestEnumerationCaps:
    def test_tournament_size_cap(self):
        inst = BitInstance(bits=(0,) * 9)
        with pytest.raises(EnumerationCapError):
            enumerate_tournament(inst, "tournament-or", 0.05, 0.25)

    def test_full_algorithm_size_cap(self):
        inst = BitInstance(bits=(0,) * 5)
        with pytest.raises(EnumerationCapError):
            enumerate_tournament(inst, "noisy-or", 0.1, 0.25)

    def test_threshold_cap(self):
        # delta = 0.2 at p = 0.25 makes the deepest reachable MAX round
        # need a vote threshold of 9, above the cap of 8.
        inst = ValueInstance(values=(1.0, 2.0, 3.0))
        with pytest.raises(EnumerationCapError):
            enumerate_tournament(inst, "noisy-max", 0.2, 0.25)

    def test_unknown_algorithm(self):
        with pytest.raises(ContractViolation):
            enumerate_tournament(BitInstance(bits=(0,)), "bogus", 0.1, 0.25)

    @pytest.mark.parametrize("algorithm", ["tournament_or", "tournament_max", "noisy_or", "noisy_max"])
    def test_underscore_names_refused(self, algorithm):
        instance = BitInstance(bits=(0,)) if algorithm.endswith("or") else ValueInstance(values=(1.0,))
        with pytest.raises(ContractViolation, match="unknown algorithm"):
            enumerate_tournament(instance, algorithm, 0.1, 0.25)

    def test_model_mismatch(self):
        with pytest.raises(ContractViolation):
            enumerate_tournament(BitInstance(bits=(0,)), "tournament-max", 0.1, 0.25)


class TestVerifyChecks:
    def test_all_pass_without_monte_carlo(self):
        checks = run_verify_checks()
        failures = [name for name, ok, _ in checks if not ok]
        assert failures == []

    def test_registry_is_enumerable(self):
        for cfg in verify_registry():
            enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
