"""The exact-analysis layer itself: closed forms, solver agreement, enumeration."""

import math

import pytest

from noisyquery import exact_oracle
from noisyquery.bounds import upper_budget
from noisyquery.errors import ContractViolation
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
)
from noisyquery.oracles import BitInstance, NoisyOracle, ValueInstance, make_instance_or
from noisyquery.primitives import vote_threshold, vote_threshold_log
from noisyquery.toplevel import or_threshold


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
    # Error probabilities are compared with abs=0.0: pytest's default 1e-12
    # absolute tolerance would pass any value at p = 0.05, K = 30 (≈1e-38).
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.4, 0.45])
    def test_markov_matches_closed_form_to_twelve_digits(self, p):
        for k in range(1, 31):
            cf = analyze_walk(p, k)
            mk = analyze_walk_markov(p, k)
            assert mk.error_probability == pytest.approx(cf.error_probability, rel=1e-12, abs=0.0)
            assert mk.expected_queries == pytest.approx(cf.expected_queries, rel=1e-12)


class TestTournamentCosts:
    def test_single_entrant_is_one_walk(self):
        cost = tournament_or_cost(1, 0.01, 0.25)
        assert cost == pytest.approx(analyze_walk(0.25, 5).expected_queries, rel=1e-14)
        assert tournament_max_cost(1, 0.01, 0.25) == 0.0

    def test_two_entrants_decompose(self):
        # MAX plays its one round at delta/2; OR plays it at delta/4 and
        # checks the survivor at delta/2.
        k_max = vote_threshold_log(0.25, math.log(0.05))
        k_or = vote_threshold_log(0.25, math.log(0.025))
        k_final = vote_threshold(0.25, 0.05)
        assert tournament_max_cost(2, 0.1, 0.25) == pytest.approx(
            analyze_walk(0.25, k_max).expected_queries, rel=1e-14
        )
        assert tournament_or_cost(2, 0.1, 0.25) == pytest.approx(
            analyze_walk(0.25, k_or).expected_queries + analyze_walk(0.25, k_final).expected_queries,
            rel=1e-14,
        )

    def test_cost_grows_with_entrants(self):
        costs = [tournament_max_cost(r, 0.01, 0.25) for r in range(1, 40)]
        assert all(a < b for a, b in zip(costs, costs[1:]))


class TestEnumeration:
    def test_single_entrant_or_equals_walk(self):
        # K(0.125) = 2 at p = 0.25: error 1/(1 + 3^2), (2 - 4 * 0.9) / (0.25 - 0.75) queries.
        result = enumerate_tournament(BitInstance(bits=(0,)), "tournament-or", 0.25, 0.25)
        assert result.error_probability == pytest.approx(0.1, rel=1e-14)
        assert result.expected_queries == pytest.approx(3.2, rel=1e-14)

    def test_two_entrant_max_is_one_half_tolerance_walk(self):
        result = enumerate_tournament(ValueInstance(values=(1.0, 2.0)), "tournament-max", 0.1, 0.25)
        w = analyze_walk(0.25, vote_threshold(0.25, 0.05))
        assert result.error_probability == pytest.approx(w.error_probability, rel=1e-13)
        assert result.expected_queries == pytest.approx(w.expected_queries, rel=1e-13)

    def test_noisy_or_two_zero_bits(self):
        # Threshold max(log 2, 0.4 log 5) = log 2 < 1: one false positive
        # already declares 1, so error = 1 - (1 - walkerr)^2 with K = 2 and
        # the run is always exactly two walks.
        result = enumerate_tournament(BitInstance(bits=(0, 0)), "noisy-or", 0.2, 0.25)
        assert result.error_probability == pytest.approx(0.19, abs=1e-12)
        assert result.expected_queries == pytest.approx(6.4, abs=1e-12)

    def test_enumeration_builds_no_oracle(self, monkeypatch):
        # The enumerator restates the algorithms, so it stays a referee
        # independent of them: it never runs one on an oracle.
        def refuse(*args, **kwargs):
            raise AssertionError("the enumerator built an oracle")

        monkeypatch.setattr(NoisyOracle, "__init__", refuse)
        for cfg in verify_registry():
            enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)

    def test_outcome_probabilities_sum_to_one(self):
        for cfg in verify_registry():
            result = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
            assert sum(result.outcome_probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_guarantee_domination_over_registry(self):
        # delta for the tournaments, 2 delta for OR, 3 delta for MAX.
        for cfg in verify_registry():
            result = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
            assert result.error_probability <= cfg.error_bound_multiplier * cfg.delta + 1e-12, cfg.name

    def test_threshold_ceiling_boundary_case(self):
        # At (p, delta) = (0.25, 0.1) a check at the full delta errs exactly
        # delta, so a final check there would push the total above it.  The
        # final check gets delta/2 instead: round one at K(0.025) = 4 errs
        # 1/82 and the final check at K(0.05) = 3 errs 1/28, so the total is
        # (81 + 27) / (82 * 28).
        result = enumerate_tournament(BitInstance(bits=(1, 0)), "tournament-or", 0.1, 0.25)
        assert result.error_probability == pytest.approx(108 / (82 * 28), rel=1e-12)
        assert result.error_probability <= 0.1

    def test_structural_or_predictors_match_enumeration(self):
        inst = BitInstance(bits=(0, 0, 0))
        enum = enumerate_tournament(inst, "noisy-or", 0.1, 0.25)
        assert noisy_or_error_all_zero(3, 0.1, 0.25) == pytest.approx(
            enum.error_probability, rel=1e-9
        )
        assert expected_queries_noisy_or(inst, 0.1, 0.25) == pytest.approx(
            enum.expected_queries, rel=1e-9
        )

    def test_or_error_predictor_uses_the_final_check_tolerance(self):
        # n = 3, delta = 0.1, cutoff log 3: phase-1 walks at K(0.1) = 2 err
        # with 1/10.  One false positive goes to a one-entrant tournament,
        # which errs when its final check at K(0.05) = 3 does: 1/28, not the
        # phase-1 walk's 1/10.  Two or more declare 1 outright.
        one, more = 3 * 0.1 * 0.9**2, 3 * 0.1**2 * 0.9 + 0.1**3
        assert noisy_or_error_all_zero(3, 0.1, 0.25) == pytest.approx(one / 28 + more, rel=1e-12)

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

    def test_max_predictor_refuses_an_empty_input(self):
        with pytest.raises(ContractViolation, match="n must be >= 1, got 0"):
            expected_queries_noisy_max(0, 0.01, 0.25)

    @pytest.mark.parametrize("n", [3, 4])
    def test_max_predictor_equals_enumeration_at_small_delta(self, n):
        # The predictor's one approximation is O(delta); the rank law of the
        # sample maximum must otherwise be exact, the rank J = n included.
        values = tuple(float(x) for x in range(1, n + 1))
        enum = enumerate_tournament(ValueInstance(values=values), "noisy-max", 1e-12, 0.25)
        assert expected_queries_noisy_max(n, 1e-12, 0.25) == pytest.approx(enum.expected_queries, rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("n", [3, 4, 10, 100, 1000])
    def test_or_error_predictor_counts_every_survivor_count(self, n, delta):
        # Against enumeration where it is allowed, and otherwise against a
        # sum over the whole survivor-count support, declare-1 tail included.
        if n <= 4:
            exact = enumerate_tournament(BitInstance(bits=(0,) * n), "noisy-or", delta, 0.25).error_probability
        else:
            err = analyze_walk(0.25, vote_threshold(0.25, delta)).error_probability
            final_err = analyze_walk(0.25, vote_threshold(0.25, delta / 2)).error_probability
            theta = or_threshold(n, delta)
            exact = math.fsum(
                math.comb(n, s) * err**s * (1.0 - err) ** (n - s) * (1.0 if s >= theta else final_err)
                for s in range(1, n + 1)
            )
        assert noisy_or_error_all_zero(n, delta, 0.25) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_predictors_at_the_benchmark_point(self):
        # n = 1000, delta = 0.01, p = 0.25: MAX at 1.22x and OR at 1.19x
        # the leading-order budget.
        budget = upper_budget(1000, 0.01, 0.25)
        assert expected_queries_noisy_max(1000, 0.01, 0.25) / budget == pytest.approx(1.223, abs=1e-3)
        all_zero = make_instance_or("all_zero", 1000)
        assert expected_queries_noisy_or(all_zero, 0.01, 0.25) / budget == pytest.approx(1.189, abs=1e-3)


_ALL_BITS_N4 = [tuple(m >> i & 1 for i in range(4)) for m in range(16)]
_SMALL_DELTA_GRID = [(p, delta) for p in (0.1, 0.25, 0.4) for delta in (1e-4, 1e-8, 1e-12, 1e-320)]


class TestBoundsAtSmallDelta:
    @pytest.mark.parametrize("p, delta", _SMALL_DELTA_GRID)
    def test_noisy_or_errs_at_most_two_delta(self, p, delta):
        for bits in _ALL_BITS_N4:
            result = enumerate_tournament(BitInstance(bits=bits), "noisy-or", delta, p)
            assert sum(result.outcome_probs.values()) == pytest.approx(1.0, abs=1e-12)
            assert result.error_probability <= 2 * delta, bits

    @pytest.mark.parametrize("p, delta", _SMALL_DELTA_GRID)
    def test_noisy_max_errs_at_most_three_delta(self, p, delta):
        for values in [(1, 2, 3, 4), (4, 1, 2, 3), (2, 4, 1, 3)]:
            result = enumerate_tournament(ValueInstance(values=tuple(map(float, values))), "noisy-max", delta, p)
            assert sum(result.outcome_probs.values()) == pytest.approx(1.0, abs=1e-12)
            assert result.error_probability <= 3 * delta, values


class TestEnumerationCaps:
    def test_tournament_size_cap(self):
        inst = BitInstance(bits=(0,) * 9)
        with pytest.raises(ContractViolation, match="enumeration capped at n <= 8"):
            enumerate_tournament(inst, "tournament-or", 0.05, 0.25)

    def test_full_algorithm_size_cap(self):
        inst = BitInstance(bits=(0,) * 5)
        with pytest.raises(ContractViolation, match="enumeration capped at n <= 4"):
            enumerate_tournament(inst, "noisy-or", 0.1, 0.25)

    @pytest.mark.parametrize(
        "delta, p, reason",
        [(0.0, 0.25, "delta"), (0.5, 0.25, "delta"), (0.1, 0.0, "p"), (0.1, 0.5, "p")],
    )
    def test_delta_and_p_outside_the_open_half_interval(self, delta, p, reason):
        with pytest.raises(ContractViolation, match=f"^{reason} must lie in"):
            enumerate_tournament(BitInstance(bits=(0,)), "noisy-or", delta, p)

    def test_no_threshold_cap(self):
        # Only n is capped: each walk is one two-way branch whatever its K.
        # Round two of the MAX sample tournament at delta = 3e-4 needs K = 9,
        # and the OR final check at delta = 1e-4 needs K = 10.
        assert vote_threshold(0.25, 3e-4 / 4) == 9
        result = enumerate_tournament(ValueInstance(values=(1.0, 2.0, 3.0)), "noisy-max", 3e-4, 0.25)
        assert result.error_probability <= 3 * 3e-4
        assert vote_threshold(0.25, 1e-4 / 2) == 10
        result = enumerate_tournament(BitInstance(bits=(0, 0, 0, 0)), "noisy-or", 1e-4, 0.25)
        assert result.error_probability <= 2 * 1e-4

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
        assert len(checks) == 25

    def test_structural_or_check_catches_a_wrong_final_check_error(self, monkeypatch):
        # A predictor that prices the final check at the phase-1 walk error
        # instead of the walk at delta/2: 0.0523 against 0.0367 on three zeros.
        def reusing_walk_error(n, delta, p):
            err = analyze_walk(p, vote_threshold(p, delta)).error_probability
            theta = or_threshold(n, delta)
            return sum(
                math.comb(n, s) * err**s * (1.0 - err) ** (n - s) * (1.0 if s >= theta else err)
                for s in range(1, n + 1)
            )

        assert reusing_walk_error(3, 0.1, 0.25) == pytest.approx(0.0523, abs=1e-4)
        assert noisy_or_error_all_zero(3, 0.1, 0.25) == pytest.approx(0.0366786, abs=1e-7)
        monkeypatch.setattr(exact_oracle, "noisy_or_error_all_zero", reusing_walk_error)
        failures = [name for name, ok, _ in run_verify_checks() if not ok]
        assert failures == ["enumeration vs structural OR predictor"]

    def test_registry_is_enumerable(self):
        for cfg in verify_registry():
            enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)


# (error probability, expected queries) of every registry configuration,
# pinned to 12 digits: a rewrite of the enumerator must keep its exact law.
_REGISTRY_LAW = {
    "tor-n2-hot": (0.0470383275261324, 13.376306620209059),
    "tor-n2-zero": (0.03571428571428571, 13.376306620209059),
    "tor-n3-mid": (0.028042441559961384, 25.52778888444622),
    "tor-n4-zero": (0.01219512195121951, 33.33266693322669),
    "tor-n4-pair": (0.014362274361864848, 56.58945351708719),
    "tor-n8-tail": (0.029357184623644714, 70.82757910534411),
    "tmax-n2": (0.03571428571428571, 5.571428571428571),
    "tmax-n3-sorted": (0.006158238861950698, 26.958947848804232),
    "tmax-n4-sorted": (0.02424152290303391, 23.414634146341456),
    "tmax-n4-reloc": (0.024241522903033913, 7.317073170731705),
    "tmax-n8-sorted": (0.028240533055070644, 56.74730107956813),
    "nor-n2-zero": (0.19000000000000003, 6.400000000000002),
    "nor-n3-zero": (0.036678571428571435, 10.953857142857146),
    "nor-n3-one": (0.12439285714285717, 13.761857142857142),
    "nor-n4-one": (0.044971182504531054, 48.05989677599472),
    "nor-n4-zero": (0.0014512672696733778, 9.870774418021865),
    "nmax-n2": (0.1, 3.2),
    "nmax-n3-sorted": (0.07412793976056034, 7.99586990551043),
    "nmax-n3-reloc": (0.14743444426156938, 7.99586990551043),
    "nmax-n3-p15": (0.04366163219341453, 5.211928961694573),
}


@pytest.mark.parametrize("cfg", verify_registry(), ids=lambda cfg: cfg.name)
def test_registry_law_is_pinned(cfg):
    error, queries = _REGISTRY_LAW[cfg.name]
    result = enumerate_tournament(cfg.instance, cfg.algorithm, cfg.delta, cfg.p)
    assert result.error_probability == pytest.approx(error, rel=1e-12)
    assert result.expected_queries == pytest.approx(queries, rel=1e-12)


def test_registry_law_covers_the_registry():
    assert sorted(_REGISTRY_LAW) == sorted(cfg.name for cfg in verify_registry())
