"""Stopping primitives: thresholds, traces, posterior equivalence, statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyquery.errors import ContractViolation
from noisyquery.exact_oracle import analyze_walk
from noisyquery.oracles import BitInstance, NoisyOracle, StopReport, ValueInstance
from noisyquery.primitives import (
    check_bit,
    check_bit_log,
    noisy_compare,
    noisy_compare_log,
    vote_threshold,
    vote_threshold_log,
)
from recording import ScriptedOracle


class TestVoteThreshold:
    @pytest.mark.parametrize(
        "p,delta,expected",
        [
            (0.25, 0.01, 5),   # ceil(log 99 / log 3) = ceil(4.1826)
            (0.25, 0.25, 1),   # ratio exactly 1
            (0.1, 0.001, 4),   # ceil(log 999 / log 9) = ceil(3.1432)
            (0.25, 0.1, 2),
            (0.4, 0.01, 12),
            (0.4, 0.001, 18),
        ],
    )
    def test_anchors(self, p, delta, expected):
        assert vote_threshold(p, delta) == expected

    @pytest.mark.parametrize("p,delta", [(0.0, 0.1), (0.5, 0.1), (0.25, 0.0), (0.25, 0.5)])
    def test_rejects_out_of_range(self, p, delta):
        for _ in range(2):  # the memo never stores a rejection
            with pytest.raises(ContractViolation):
                vote_threshold(p, delta)
            with pytest.raises(ContractViolation):
                vote_threshold_log(p, math.log(delta) if delta > 0 else 0.0)

    @given(
        st.floats(min_value=0.01, max_value=0.49),
        st.floats(min_value=1e-6, max_value=0.49),
    )
    def test_threshold_meets_error_budget(self, p, delta):
        k = vote_threshold(p, delta)
        assert k >= 1
        lam = (1 - p) / p
        # The walk's exact error 1/(1 + lam^K) never exceeds delta.
        assert 1.0 / (1.0 + lam**k) <= delta * (1 + 1e-9)

    @given(
        st.floats(min_value=0.02, max_value=0.48),
        st.floats(min_value=1e-8, max_value=0.49),
    )
    def test_log_form_matches_direct(self, p, delta):
        # Where the ratio is an exact integer the exp/log round trip can
        # legitimately land one vote higher (conservative); exclude that
        # measure-zero boundary and require equality everywhere else.
        ratio = math.log((1 - delta) / delta) / math.log((1 - p) / p)
        if abs(ratio - round(ratio)) < 1e-9:
            assert vote_threshold_log(p, math.log(delta)) - vote_threshold(p, delta) in (0, 1)
        else:
            assert vote_threshold_log(p, math.log(delta)) == vote_threshold(p, delta)

    def test_log_form_survives_underflow(self):
        # Tolerance delta^38 for delta = 1e-12 is ~1e-456, far below float
        # range; the log form must still produce the right threshold.
        log_delta = 38 * math.log(1e-12)
        k = vote_threshold_log(0.25, log_delta)
        assert k == math.ceil(-log_delta / math.log(3.0))

    @pytest.mark.parametrize("delta", [5.56e-309, 1e-310, 5e-324])
    def test_subnormal_delta(self, delta):
        # (1 - delta)/delta overflows here; the threshold is read off -log(delta).
        k = vote_threshold(0.25, delta)
        assert k == math.ceil(-math.log(delta) / math.log(3.0)) == vote_threshold_log(0.25, math.log(delta))

    def test_log_form_rejects_large_tolerance(self):
        with pytest.raises(ContractViolation):
            vote_threshold_log(0.25, math.log(0.6))


def _truthful_oracle(bits=(1,)):
    return ScriptedOracle(BitInstance(bits=bits))


class TestCheckBitTraces:
    def test_truthful_one_bit_stops_at_threshold(self):
        oracle = _truthful_oracle((1,))
        report = check_bit(oracle, 1, 0.01, 0.25)
        assert report.decision == 1 and type(report.decision) is int
        assert report.queries_used == 5
        assert oracle.queries == 5

    def test_truthful_zero_bit_symmetric(self):
        oracle = _truthful_oracle((0,))
        report = check_bit(oracle, 1, 0.01, 0.25)
        assert report.decision == 0 and type(report.decision) is int
        assert report.queries_used == 5

    def test_single_vote_regime(self):
        oracle = ScriptedOracle(BitInstance(bits=(0,)), [True])
        report = check_bit(oracle, 1, 0.25, 0.25)  # K = 1: one lie decides
        assert report.decision == 1
        assert report.queries_used == 1

    def test_walk_consumes_exactly_what_it_needs(self):
        # A truthful K=5 walk must take exactly 5 answers and leave the
        # flips after them unread: the next read is the first flip.
        oracle = ScriptedOracle(BitInstance(bits=(1,)), [False] * 5 + [True] * 7)
        report = check_bit(oracle, 1, 0.01, 0.25)
        assert report.queries_used == oracle.queries == 5
        assert oracle.read_bit(1) == 0

    def test_meandering_script(self):
        # +1 -1 +1 -1 ... never absorbs until a run of +1s arrives.
        flips = [False, True, False, True] + [False] * 5
        oracle = ScriptedOracle(BitInstance(bits=(1,)), flips)
        report = check_bit(oracle, 1, 0.01, 0.25)
        assert report.decision == 1
        assert report.queries_used == 9

    def test_rejects_bad_parameters(self):
        oracle = _truthful_oracle((1,))
        with pytest.raises(ContractViolation):
            check_bit(oracle, 1, 0.6, 0.25)
        with pytest.raises(ContractViolation):
            check_bit(oracle, 1, 0.01, 0.0)


class TestStopReport:
    def test_immutable_and_unpacks_to_decision_then_queries(self):
        oracle = NoisyOracle(BitInstance(bits=(1,)), 0.25, 5, 0)
        report = check_bit(oracle, 1, 0.01, 0.25)
        assert isinstance(report, StopReport)
        decision, queries = report
        assert (decision, queries) == (report.decision, report.queries_used)
        assert queries == oracle.queries
        with pytest.raises(AttributeError):
            report.decision = 1 - decision
        with pytest.raises(AttributeError):
            report.queries_used = 0
        assert report == StopReport(decision=decision, queries_used=queries)

    def test_compare_report_fields(self):
        oracle = NoisyOracle(ValueInstance(values=(1.0, 2.0)), 0.25, 5, 0)
        report = noisy_compare(oracle, 1, 2, 0.01, 0.25)
        assert type(report) is StopReport
        assert type(report.decision) is bool
        assert report._fields == ("decision", "queries_used")


class TestNoisyCompareTraces:
    def test_truthful_pair(self):
        oracle = ScriptedOracle(ValueInstance(values=(1.0, 2.0)))
        report = noisy_compare(oracle, 1, 2, 0.01, 0.25)
        assert report.decision is True
        assert report.queries_used == 5

    def test_single_lie_flips_single_vote(self):
        oracle = ScriptedOracle(ValueInstance(values=(2.0, 1.0)), [True])
        report = noisy_compare(oracle, 1, 2, 0.25, 0.25)
        assert report.decision is True  # wrong, via the scripted flip
        assert report.queries_used == 1

    def test_distinct_indices_required(self):
        oracle = NoisyOracle(ValueInstance(values=(1.0, 2.0)), 0.25)
        with pytest.raises(ContractViolation):
            noisy_compare(oracle, 2, 2, 0.01, 0.25)

    @pytest.mark.parametrize("instance", [BitInstance(bits=(1, 0)), ValueInstance(values=(1.0, 2.0))])
    def test_index_zero_is_out_of_range(self, instance):
        # j = 0 is an index out of range, not a bit read (that is j = None).
        oracle = NoisyOracle(instance, 0.25)
        with pytest.raises(ContractViolation, match="out of range"):
            noisy_compare(oracle, 1, 0, 0.01, 0.25)
        with pytest.raises(ContractViolation, match="out of range"):
            noisy_compare_log(oracle, 2, 0, math.log(0.01), 0.25)
        assert oracle.queries == 0


def _float_posterior_run(p, delta, answers):
    """The textbook floating-point posterior recursion, stopping outside (delta, 1-delta)."""
    alpha = 0.5
    used = 0
    for ans in answers:
        if not delta < alpha < 1.0 - delta:
            break
        used += 1
        if ans:
            alpha = (1 - p) * alpha / ((1 - p) * alpha + p * (1 - alpha))
        else:
            alpha = p * alpha / (p * alpha + (1 - p) * (1 - alpha))
    stopped = not delta < alpha < 1.0 - delta
    return alpha, used, stopped, alpha >= 1.0 - delta


def _integer_walk_run(p, delta, answers):
    k = vote_threshold(p, delta)
    d = 0
    used = 0
    for ans in answers:
        if abs(d) >= k:
            break
        used += 1
        d += 1 if ans else -1
    return d, used, abs(d) >= k, d >= k


class TestFloatRecursionEquivalence:
    """The exact integer walk and the floating posterior recursion make the
    same decisions, and the integer state reproduces alpha to a few ulp."""

    PARAMS = [(p, d) for p in (0.05, 0.1, 0.25, 0.4, 0.49) for d in (0.1, 0.01, 1e-6)]

    @pytest.mark.parametrize("p,delta", PARAMS)
    def test_bounded_exhaustive_scripts(self, p, delta):
        max_len = 12
        for bits in range(1 << max_len):
            answers = [(bits >> t) & 1 == 1 for t in range(max_len)]
            alpha, used_f, stopped_f, up_f = _float_posterior_run(p, delta, answers)
            d, used_i, stopped_i, up_i = _integer_walk_run(p, delta, answers)
            assert used_f == used_i
            assert stopped_f == stopped_i
            if stopped_f:
                assert up_f == up_i
            lam = (1 - p) / p
            exact_alpha = 1.0 / (1.0 + lam**-d) if d >= 0 else (lam**d) / (1.0 + lam**d)
            # The float recursion drifts a few ulp per step (worst measured
            # 1.5e-11 relative over this domain), so exactness of the
            # integer representation is asserted relatively.
            assert alpha == pytest.approx(exact_alpha, rel=5e-11, abs=1e-15)

    @pytest.mark.parametrize("p,delta", PARAMS)
    def test_randomized_long_scripts(self, p, delta):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            answers = (rng.random(60) < 0.55).tolist()
            _, used_f, stopped_f, up_f = _float_posterior_run(p, delta, answers)
            _, used_i, stopped_i, up_i = _integer_walk_run(p, delta, answers)
            assert (used_f, stopped_f) == (used_i, stopped_i)
            if stopped_f:
                assert up_f == up_i


class TestStoppingStatistics:
    """Monte Carlo agreement with the exact walk analysis (full-size runs
    live in the acceptance suite; these are quick smoke versions)."""

    @pytest.mark.parametrize("p,delta", [(0.25, 0.01), (0.1, 0.05), (0.4, 0.05)])
    def test_error_and_mean(self, p, delta):
        trials = 20_000
        k = vote_threshold(p, delta)
        exact = analyze_walk(p, k)
        wrong = 0
        total_queries = 0
        for t in range(trials):
            oracle = NoisyOracle(BitInstance(bits=(1,)), p, master_seed=555, trial_index=t)
            report = check_bit(oracle, 1, delta, p)
            wrong += report.decision == 0
            total_queries += report.queries_used
        err = wrong / trials
        sigma = math.sqrt(exact.error_probability * (1 - exact.error_probability) / trials)
        assert abs(err - exact.error_probability) <= 4 * sigma
        assert err <= delta + 3 * sigma
        mean = total_queries / trials
        assert mean == pytest.approx(exact.expected_queries, rel=0.02)
        assert mean <= k / (1 - 2 * p) + 3 * sigma * k

    def test_compare_model_matches_bit_model(self):
        trials = 20_000
        exact = analyze_walk(0.25, vote_threshold(0.25, 0.01))
        wrong = 0
        total_queries = 0
        for t in range(trials):
            oracle = NoisyOracle(
                ValueInstance(values=(1.0, 2.0)), 0.25, master_seed=556, trial_index=t
            )
            report = noisy_compare(oracle, 1, 2, 0.01, 0.25)
            wrong += report.decision is False
            total_queries += report.queries_used
        sigma = math.sqrt(exact.error_probability / trials)
        assert abs(wrong / trials - exact.error_probability) <= 4 * sigma
        assert total_queries / trials == pytest.approx(exact.expected_queries, rel=0.02)


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_queries_equal_count_delta(seed):
    oracle = NoisyOracle(BitInstance(bits=(0, 1)), 0.3, master_seed=seed)
    before = oracle.queries
    report = check_bit(oracle, 2, 0.05, 0.3)
    assert report.queries_used == oracle.queries - before
    assert report.queries_used >= vote_threshold(0.3, 0.05)
