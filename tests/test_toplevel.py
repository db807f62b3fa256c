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
from noisyquery.primitives import vote_threshold
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


class _RunLog(RecordingOracle):
    """A :class:`RecordingOracle` whose ``runs`` lists each named run's first and second indices (None for bits)."""

    __slots__ = ("runs",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.runs: list[tuple[list[int], list[int] | None]] = []

    def name_run(self, firsts, seconds, k: int) -> None:
        super().name_run(firsts, seconds, k)
        self.runs.append((firsts.tolist(), None if seconds is None else seconds.tolist()))


class TestPhasesNameRunsOfAtMost1024Walks:
    """The per-element phases name their walks in runs of at most 1,024, at n = 2,500 as in the goldens."""

    def test_or_phase1(self):
        oracle = _RunLog(make_instance_or("single_one", 2500, index=2100), 0.25, master_seed=20230907)
        noisy_or_report(oracle, 0.01)
        assert [len(firsts) for firsts, _ in oracle.runs] == [1024, 1024, 452]
        assert [i for firsts, _ in oracle.runs for i in firsts] == list(range(1, 2501))
        assert all(seconds is None for _, seconds in oracle.runs)

    def test_max_champion_comparisons(self):
        oracle = _RunLog(make_instance_max("relocated", 2500, index=2100), 0.25, master_seed=20230907)
        noisy_max_report(oracle, 0.01)
        sample, _, _, champion, _, _ = _max_phases(oracle)
        assert len(oracle.runs) > 1 and all(len(firsts) <= 1024 for firsts, _ in oracle.runs)
        assert {i for firsts, _ in oracle.runs for i in firsts} == {champion}
        sampled = set(sample)
        unsampled = [u for u in range(1, 2501) if u not in sampled]
        assert [u for _, seconds in oracle.runs for u in seconds] == unsampled


def _twin(oracle):
    """A fresh oracle on the same instance, p, seed and trial: its streams replay the logged oracle's."""
    return NoisyOracle(oracle.instance, oracle.p, oracle.master_seed, oracle.trial_index)


def _drawn_sample(oracle):
    """The sample noisy_max_report draws on ``oracle``, redrawn off a twin's algorithm stream."""
    n = oracle.instance.n
    q = sampling_probability(n)
    rng = _twin(oracle).algorithm_rng
    while True:
        mask = rng.random(n) < q
        if mask.any():
            return (mask.nonzero()[0] + 1).tolist()


def _entrants(matches):
    """A knockout's entrants in bracket order, read off its logged matches: round one's pairs, then the bye."""
    r = len(matches) + 1
    entrants = [x for i, j, _, _ in matches[: r // 2] for x in (i, j)]
    if r % 2:
        entrants += [x for i, j, _, _ in matches[r // 2 :] for x in (i, j) if x not in entrants][:1]
    return entrants


def _max_phases(oracle):
    """A logged noisy_max_report's phases, read off its walks.

    The sample tournament plays len(sample) - 1 matches, then the champion
    meets each unsampled index once, then the shortlist tournament plays.
    Each walk's decision is replayed as a lone walk on a twin oracle.
    Returns the sample, the sample tournament's matches, each champion
    comparison with its decision, the champion, the shortlist and the winner.
    """
    sample = _drawn_sample(oracle)
    s, c = len(sample) - 1, oracle.instance.n - len(sample)
    twin = _twin(oracle)
    replayed = [twin.walk(i, j, k) for i, j, k, _ in oracle.walks]
    assert [r.queries_used for r in replayed] == [q for *_, q in oracle.walks]
    # A match's winner: the second entrant on a "less than", else the first.
    winners = [j if r.decision else i for (i, j, _, _), r in zip(oracle.walks, replayed)]
    champion = winners[s - 1] if s else sample[0]
    comparisons = [(walk, r.decision) for walk, r in zip(oracle.walks[s : s + c], replayed[s : s + c])]
    shortlist_matches = oracle.walks[s + c :]
    if not shortlist_matches:
        return sample, oracle.walks[:s], comparisons, champion, [champion], champion
    return sample, oracle.walks[:s], comparisons, champion, _entrants(shortlist_matches), winners[-1]


class TestNoisyOrTraces:
    def test_all_zero_truthful_uses_n_times_threshold(self):
        oracle = ScriptedOracle(make_instance_or("all_zero", 3))
        report = noisy_or_report(oracle, 0.01)
        assert report.output == 0
        assert oracle.walks[:3] == [(i, None, 5, 5) for i in (1, 2, 3)]  # three truthful K=5 walks, all 0
        assert oracle.walks[3:] == []  # no survivor, so no tournament
        assert report.phase1_queries == oracle.queries == 15
        assert report.subroutine_queries == 0

    def test_single_one_goes_through_tournament(self):
        # One survivor < threshold log(3): the singleton tournament is one
        # more check of that bit, at half the tolerance.  Phase 1 runs at
        # K(0.05) = 3, the final check at K(0.025) = 4.
        oracle = ScriptedOracle(make_instance_or("single_one", 3, index=1))
        report = noisy_or_report(oracle, 0.05)
        assert report.output == 1
        assert oracle.walks[:3] == [(1, None, 3, 3), (2, None, 3, 3), (3, None, 3, 3)]
        assert oracle.walks[3:] == [(1, None, 4, 4)]  # the lone survivor 1 is the whole bracket
        assert report.phase1_queries == 9
        assert report.subroutine_queries == 4

    def test_a_survivor_is_a_check_that_answered_one(self):
        # The first three reads of bit 2 flip: its K(0.05) = 3 check answers 1
        # although the bit is 0, so 2 alone survives and its final check reads 0.
        oracle = ScriptedOracle(make_instance_or("all_zero", 3), [False] * 3 + [True] * 3)
        report = noisy_or_report(oracle, 0.05)
        assert oracle.walks[3:] == [(2, None, 4, 4)]
        assert report.output == 0
        assert report.subroutine_queries == 4

    def test_delta_too_small_to_halve_is_refused_before_any_query(self):
        oracle = ScriptedOracle(make_instance_or("all_zero", 3))
        with pytest.raises(ContractViolation, match="too small to split in half"):
            noisy_or_report(oracle, 5e-324)
        assert oracle.queries == 0

    def test_many_survivors_short_circuit(self):
        # All-ones with n = 8: eight survivors >= max(log 8, ...) ~ 2.08,
        # so the answer is declared without any tournament.
        oracle = ScriptedOracle(make_instance_or("literal", bits=(1,) * 8))
        report = noisy_or_report(oracle, 0.01)
        assert report.output == 1
        assert oracle.walks == [(i, None, 5, 5) for i in range(1, 9)]  # eight checks that answered 1, and no more
        assert report.subroutine_queries == 0

    def test_zero_certificate(self):
        # No survivor ever invokes the tournament.
        oracle = ScriptedOracle(make_instance_or("all_zero", 6), p=0.3)
        report = noisy_or_report(oracle, 0.05)
        assert report.output == 0
        assert report.subroutine_queries == 0

    def test_phase_accounting_matches_query_count(self):
        oracle = NoisyOracle(make_instance_or("single_one", 20, index=7), 0.25, master_seed=3)
        report = noisy_or_report(oracle, 0.05)
        assert report.phase1_queries + report.subroutine_queries == oracle.queries

    def test_n_one(self):
        oracle = ScriptedOracle(make_instance_or("literal", bits=(1,)))
        assert noisy_or_report(oracle, 0.01).output == 1


class TestNoisyMaxTraces:
    def test_n_one_uses_no_queries(self):
        oracle = ScriptedOracle(ValueInstance(values=(3.0,)))
        report = noisy_max_report(oracle, 0.01)
        assert report.output == 1
        assert oracle.queries == 0
        assert oracle.walks == []  # the sample is 1 alone: no match, and nothing to compare

    def test_n_two_samples_everything(self):
        oracle = ScriptedOracle(ValueInstance(values=(1.0, 2.0)))
        report = noisy_max_report(oracle, 0.1)
        # The whole run is the sample tournament's one match, at K(0.05) = 3:
        # no unsampled index to compare, and the champion alone is the shortlist.
        assert oracle.walks == [(1, 2, 3, 3)]
        assert report.output == 2
        assert report.phase1_queries == 0  # empty complement

    # Seed 14's champion 38 loses to 39, 40 and, through noise, to 5 and 11.
    @pytest.mark.parametrize("seed,beaten_by", [(11, 0), (14, 4)])
    def test_membership_invariants(self, seed, beaten_by):
        oracle = RecordingOracle(make_instance_max("sorted", 40), 0.25, master_seed=seed)
        report = noisy_max_report(oracle, 0.05)
        sample, sample_matches, comparisons, champion, shortlist, winner = _max_phases(oracle)
        assert _entrants(sample_matches) == sample
        assert champion in sample
        assert all(i == champion for (i, _, _, _), _ in comparisons)
        beaters = [j for (_, j, _, _), beats in comparisons if beats]
        assert len(beaters) == beaten_by
        assert shortlist == [champion, *beaters]
        assert not set(beaters) & set(sample)
        assert report.output == winner and report.output in shortlist

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_unsampled_index_meets_the_champion_in_order(self, seed):
        oracle = RecordingOracle(make_instance_max("permuted", 300, seed=seed), 0.25, master_seed=seed)
        noisy_max_report(oracle, 0.05)
        sample, _, comparisons, champion, _, _ = _max_phases(oracle)
        others = [u for u in range(1, 301) if u not in set(sample)]
        assert 0 < len(sample) < 300
        assert [(i, j) for (i, j, _, _), _ in comparisons] == [(champion, u) for u in others]

    def test_phase_accounting_matches_query_count(self):
        oracle = NoisyOracle(make_instance_max("sorted", 30), 0.2, master_seed=4)
        report = noisy_max_report(oracle, 0.05)
        assert report.phase1_queries + report.subroutine_queries == oracle.queries

    def test_noiseless_returns_argmax(self):
        oracle = ScriptedOracle(make_instance_max("relocated", 25, index=9))
        assert noisy_max_report(oracle, 0.05).output == 9

    def test_determinism(self):
        a = noisy_max_report(
            NoisyOracle(make_instance_max("sorted", 50), 0.25, master_seed=6, trial_index=2),
            0.05,
        )
        b = noisy_max_report(
            NoisyOracle(make_instance_max("sorted", 50), 0.25, master_seed=6, trial_index=2),
            0.05,
        )
        assert a == b


class TestThresholdsFollowTheOraclesP:
    """Both algorithms walk at the thresholds of the p their oracle holds: K(0.05) is 2, 3 and 8 here."""

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    def test_every_or_phase1_walk(self, p):
        oracle = RecordingOracle(make_instance_or("single_one", 30, index=4), p, master_seed=5)
        noisy_or_report(oracle, 0.05)
        assert [(i, k) for i, _, k, _ in oracle.walks[:30]] == [(i, vote_threshold(p, 0.05)) for i in range(1, 31)]

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    def test_every_max_champion_comparison(self, p):
        oracle = RecordingOracle(make_instance_max("permuted", 60, seed=3), p, master_seed=5)
        noisy_max_report(oracle, 0.05)
        _, _, comparisons, _, _, _ = _max_phases(oracle)
        assert comparisons
        assert {k for (_, _, k, _), _ in comparisons} == {vote_threshold(p, 0.05)}


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
            rep = noisy_or_report(oracle, delta)
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
            rep = noisy_max_report(oracle, delta)
            wrong += rep.output != n
            queries += oracle.queries
        assert wrong / trials <= 3 * delta
        assert queries / trials == pytest.approx(predictor, rel=0.04)


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_or_output_is_bit(seed):
    oracle = NoisyOracle(BitInstance(bits=(0, 1, 0, 0)), 0.3, master_seed=seed)
    assert noisy_or_report(oracle, 0.1).output in (0, 1)
