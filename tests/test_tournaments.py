"""Knockout tournaments: schedule, bracket mechanics, traces, statistics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from noisyquery.errors import ContractViolation
from noisyquery.exact_oracle import enumerate_tournament
from noisyquery.oracles import (
    BitInstance,
    NoisyOracle,
    ValueInstance,
    make_instance_or,
)
from noisyquery.primitives import vote_threshold_log
from noisyquery.tournaments import or_half, round_log_errors, round_thresholds, tournament_max, tournament_or
from recording import ScriptedOracle


class TestBracketSchedule:
    def test_first_round_is_half_delta(self):
        assert math.exp(round_log_errors(8, 0.1)[0]) == pytest.approx(0.05, rel=1e-12)

    def test_exponent_progression(self):
        for i, log_tol in enumerate(round_log_errors(16, 0.1), start=1):
            assert log_tol == math.log(0.1) - i * math.log(2.0)

    @pytest.mark.parametrize("delta", [0.4, 0.1, 1e-3, 1e-12])
    def test_round_tolerances_sum_below_delta(self, delta):
        # The true maximum plays at most one match a round, so its error is
        # at most the sum of the round tolerances.
        total = sum(math.exp(log_tol) for log_tol in round_log_errors(1 << 30, delta))
        assert total <= delta

    def test_or_half(self):
        # delta/2 to the bracket and delta/2 to the final check, so the
        # bracket's rounds and the final check together stay within delta.
        assert or_half(0.1) == 0.05
        assert 2 * or_half(0.1) == 0.1

    def test_or_half_refuses_what_it_cannot_halve(self):
        with pytest.raises(ContractViolation, match="too small"):
            or_half(5e-324)
        with pytest.raises(ContractViolation, match="delta must lie"):
            or_half(0.6)

    def test_strictly_decreasing(self):
        errors = round_log_errors(64, 0.2)
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_rounds_count(self):
        assert len(round_log_errors(1, 0.1)) == 0
        assert len(round_log_errors(2, 0.1)) == 1
        assert len(round_log_errors(3, 0.1)) == 2
        assert len(round_log_errors(1 << 20, 0.1)) == 20

    def test_deep_rounds_survive_underflow(self):
        # 1e-300 * 2^-90 is below the smallest subnormal float, but
        # log-space thresholds stay finite and exact.
        log_tol = round_log_errors(1 << 90, 1e-300)[89]
        assert math.isfinite(log_tol)
        assert math.exp(log_tol) == 0.0  # underflow is expected here
        k = vote_threshold_log(0.25, log_tol)
        assert k == math.ceil(-log_tol / math.log(3.0))

    def test_thresholds_are_each_rounds_vote_threshold(self):
        for r, delta, p in [(1, 0.1, 0.25), (5, 0.1, 0.25), (64, 1e-3, 0.4), (1 << 40, 1e-300, 0.1)]:
            expected = [vote_threshold_log(p, log_tol) for log_tol in round_log_errors(r, delta)]
            assert round_thresholds(r, delta, p) == expected

    def test_validation(self):
        with pytest.raises(ContractViolation, match="tournament size"):
            round_log_errors(0, 0.1)
        with pytest.raises(ContractViolation, match="delta must lie"):
            round_log_errors(4, 0.7)


def _k(log_tol):
    return vote_threshold_log(0.25, log_tol)


class TestTournamentOrTraces:
    def test_truthful_all_zero_query_count(self):
        # The bracket gets delta/2 = 0.05: two round-one checks at
        # K(0.025) = 4, one round-two check at K(0.0125) = 4, then the
        # final check at K(0.05) = 3: 15 reads total.
        oracle = ScriptedOracle(make_instance_or("all_zero", 4))
        assert tournament_or(oracle, [1, 2, 3, 4], 0.1, 0.25) == 0
        assert oracle.queries == 15

    def test_single_index_degenerates_to_final_check(self):
        oracle = ScriptedOracle(make_instance_or("literal", bits=(1,)))
        assert tournament_or(oracle, [1], 0.1, 0.25) == 1
        assert oracle.walks == [(1, None, 3, 3)]  # K(0.05) at p = 0.25; K(0.1) would be 2

    def test_first_element_asymmetry(self):
        # Matches query only the first element of each pair: a truthful
        # run over (0, 1) must read index 1 in round one, then index 2 in
        # the final check, never reading 1 again.
        oracle = ScriptedOracle(make_instance_or("literal", bits=(0, 1)))
        assert tournament_or(oracle, [1, 2], 0.1, 0.25) == 1
        # K(0.025) on index 1, decided 0, so 2 advances; then the final K(0.05) on 2.
        assert oracle.walks == [(1, None, 4, 4), (2, None, 3, 3)]

    def test_empty_indices_rejected(self):
        oracle = ScriptedOracle(make_instance_or("all_zero", 2))
        with pytest.raises(ContractViolation):
            tournament_or(oracle, [], 0.1, 0.25)

    def test_delta_range(self):
        oracle = ScriptedOracle(make_instance_or("all_zero", 2))
        with pytest.raises(ContractViolation):
            tournament_or(oracle, [1, 2], 0.5, 0.25)


class TestTournamentMaxTraces:
    def test_truthful_odd_bracket_with_bye(self):
        # (1,2,3): round one plays (1,2) and gives 3 a bye; round two
        # plays (2,3); truthful comparisons crown index 3.
        # Round one at K(0.05) = 3, round two at K(0.025) = 4.
        oracle = ScriptedOracle(ValueInstance(values=(1.0, 2.0, 3.0)))
        assert tournament_max(oracle, [1, 2, 3], 0.1, 0.25) == 3
        assert oracle.walks == [(1, 2, 3, 3), (2, 3, 4, 4)]

    def test_single_index_returns_without_queries(self):
        oracle = ScriptedOracle(ValueInstance(values=(4.0,)))
        assert tournament_max(oracle, [1], 0.1, 0.25) == 1
        assert oracle.walks == [] and oracle.queries == 0

    def test_bye_carries_last_entrant(self):
        # With 5 entrants the odd one out joins the winners *after* them:
        # round 1 plays (1,2) and (3,4) and carries 5; winners 1 and 4 meet
        # in round 2 with 5 carried again; round 3 plays (1,5).
        oracle = ScriptedOracle(ValueInstance(values=(5.0, 1.0, 2.0, 3.0, 4.0)))
        assert tournament_max(oracle, [1, 2, 3, 4, 5], 0.1, 0.25) == 1
        k1, k2, k3 = (_k(math.log(0.1) - rnd * math.log(2.0)) for rnd in (1, 2, 3))
        assert oracle.walks == [(1, 2, k1, k1), (3, 4, k1, k1), (1, 4, k2, k2), (1, 5, k3, k3)]

    def test_subset_of_indices(self):
        oracle = ScriptedOracle(ValueInstance(values=(9.0, 1.0, 7.0, 3.0)))
        assert tournament_max(oracle, [2, 3, 4], 0.05, 0.25) == 3


class TestScheduleFidelity:
    def test_or_walks_follow_schedule(self):
        # Every round-one check of a zero advances the second entrant, and the
        # bracket plays round i at (delta/2) 2^-i; the final check is at delta/2.
        oracle = ScriptedOracle(make_instance_or("all_zero", 8))
        assert tournament_or(oracle, list(range(1, 9)), 0.05, 0.25) == 0
        k = {rnd: _k(math.log(0.025) - rnd * math.log(2.0)) for rnd in (1, 2, 3)}
        final = _k(math.log(0.025))
        assert oracle.walks == [
            (1, None, k[1], k[1]), (3, None, k[1], k[1]), (5, None, k[1], k[1]), (7, None, k[1], k[1]),
            (2, None, k[2], k[2]), (6, None, k[2], k[2]),
            (4, None, k[3], k[3]),
            (8, None, final, final),
        ]  # fmt: skip

    def test_max_matches_halve(self):
        # 11 -> 6 -> 3 -> 2 -> 1: the larger value wins every noiseless match,
        # and the odd entrant out is carried after the winners.
        oracle = ScriptedOracle(ValueInstance(values=tuple(float(v) for v in range(1, 12))))
        assert tournament_max(oracle, list(range(1, 12)), 0.1, 0.25) == 11
        k = {rnd: _k(math.log(0.1) - rnd * math.log(2.0)) for rnd in (1, 2, 3, 4)}
        assert oracle.walks == [
            *((a, a + 1, k[1], k[1]) for a in (1, 3, 5, 7, 9)),
            (2, 4, k[2], k[2]), (6, 8, k[2], k[2]), (10, 11, k[2], k[2]),
            (4, 8, k[3], k[3]),
            (8, 11, k[4], k[4]),
        ]  # fmt: skip


class TestNoiselessCorrectness:
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_or_exact_on_noiseless_channel(self, bits):
        instance = BitInstance(bits=tuple(bits))
        oracle = ScriptedOracle(instance)
        result = tournament_or(oracle, list(range(1, len(bits) + 1)), 0.05, 0.25)
        assert result == instance.truth()

    @given(
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_max_exact_on_noiseless_channel(self, n, seed):
        from noisyquery.oracles import make_instance_max

        instance = make_instance_max("permuted", n, seed=seed)
        oracle = ScriptedOracle(instance)
        result = tournament_max(oracle, list(range(1, n + 1)), 0.05, 0.25)
        assert result == instance.truth()


class TestBracketConservation:
    @given(seed=st.integers(min_value=0, max_value=2**20), n=st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_winner_is_an_entrant_under_noise(self, seed, n):
        values = tuple(float(v) for v in range(1, n + 1))
        oracle = NoisyOracle(ValueInstance(values=values), 0.4, master_seed=seed)
        indices = list(range(1, n + 1))
        assert tournament_max(oracle, indices, 0.2, 0.4) in indices

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=40, deadline=None)
    def test_or_output_is_a_bit_under_noise(self, seed):
        oracle = NoisyOracle(BitInstance(bits=(0, 1, 0)), 0.4, master_seed=seed)
        assert tournament_or(oracle, [1, 2, 3], 0.2, 0.4) in (0, 1)


class TestStatisticalAgreement:
    """Quick Monte Carlo vs exact enumeration (full grid in acceptance)."""

    @pytest.mark.parametrize(
        "bits,delta,p",
        [((1, 0), 0.1, 0.25), ((0, 1, 0), 0.05, 0.25)],
    )
    def test_or_error_matches_enumeration(self, bits, delta, p):
        instance = BitInstance(bits=bits)
        exact = enumerate_tournament(instance, "tournament-or", delta, p)
        trials = 20_000
        wrong = 0
        queries = 0
        for t in range(trials):
            oracle = NoisyOracle(instance, p, master_seed=808, trial_index=t)
            out = tournament_or(oracle, list(range(1, len(bits) + 1)), delta, p)
            wrong += out != instance.truth()
            queries += oracle.queries
        sigma = math.sqrt(exact.error_probability * (1 - exact.error_probability) / trials)
        assert abs(wrong / trials - exact.error_probability) <= 4 * sigma
        assert queries / trials == pytest.approx(exact.expected_queries, rel=0.02)

    def test_max_error_matches_enumeration(self):
        instance = ValueInstance(values=(1.0, 2.0, 3.0))
        exact = enumerate_tournament(instance, "tournament-max", 0.05, 0.3)
        trials = 20_000
        wrong = 0
        queries = 0
        for t in range(trials):
            oracle = NoisyOracle(instance, 0.3, master_seed=809, trial_index=t)
            wrong += tournament_max(oracle, [1, 2, 3], 0.05, 0.3) != 3
            queries += oracle.queries
        sigma = math.sqrt(exact.error_probability * (1 - exact.error_probability) / trials)
        assert abs(wrong / trials - exact.error_probability) <= 4 * sigma
        assert queries / trials == pytest.approx(exact.expected_queries, rel=0.02)
