"""Closed-form bound arithmetic: point anchors, symmetries, and precision."""

import math
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, strategies as st

from noisyquery.bounds import (
    binary_entropy,
    checkbit_budget,
    kl_pq,
    lecam_budget,
    lecam_floor,
    log_inverse,
    log_odds,
    regime_label,
    regime_ratio,
    upper_budget,
)
from noisyquery.cli import main
from noisyquery.errors import ContractViolation
from noisyquery.primitives import vote_threshold, vote_threshold_log


class TestKlDivergence:
    def test_half_is_zero(self):
        assert kl_pq(0.5) == 0.0

    def test_quarter(self):
        # (1 - 2/4) log 3 = 0.5 log 3
        assert kl_pq(0.25) == pytest.approx(0.5493061443340549, rel=1e-15)

    def test_tenth(self):
        # 0.8 log 9
        assert kl_pq(0.1) == pytest.approx(1.7577796618689758, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_boundary(self, bad):
        with pytest.raises(ContractViolation):
            kl_pq(bad)

    @given(st.floats(min_value=0.01, max_value=0.49))
    def test_symmetry(self, p):
        assert kl_pq(p) == pytest.approx(kl_pq(1.0 - p), rel=1e-12)

    @given(st.floats(min_value=0.01, max_value=0.48))
    def test_strictly_decreasing_below_half(self, p):
        assert kl_pq(p) > kl_pq(p + 0.01)

    @given(st.floats(min_value=0.001, max_value=0.999))
    def test_nonnegative(self, p):
        assert kl_pq(p) >= 0.0


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), rel=1e-15)

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_continuity_convention(self, edge):
        assert binary_entropy(edge) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.5623351446188083, rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded(self, p):
        assert 0.0 <= binary_entropy(p) <= math.log(2) + 1e-15


class TestLecamFloor:
    def test_zero_queries_floor_is_quarter(self):
        assert lecam_floor(1000, 0.0, 0.25) == 0.25

    def test_point_value(self):
        assert lecam_floor(100, 100, 0.1) == pytest.approx(0.04310682149764886, rel=1e-14)

    def test_inverting_budget_recovers_delta(self):
        m = lecam_budget(1000, 0.01, 0.25)
        assert m == pytest.approx(5859.894082871708, rel=1e-14)
        assert lecam_floor(1000, m, 0.25) == pytest.approx(0.01, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.01, max_value=0.49),
    )
    def test_decreasing_in_m(self, n, m, p):
        lo, hi = lecam_floor(n, m + 1.0, p), lecam_floor(n, m, p)
        assert hi <= 0.25
        if hi > 1e-300:  # below that the exponential saturates float range
            assert lo < hi

    def test_vacuous_budget_clamps_to_zero(self):
        assert lecam_budget(10, 0.3, 0.25) == 0.0


class TestUpperBudget:
    def test_anchor(self):
        assert upper_budget(1000, 0.01, 0.25) == pytest.approx(8383.613097157539, rel=1e-14)

    def test_second_anchor(self):
        assert upper_budget(100, 0.001, 0.1) == pytest.approx(392.9818639292596, rel=1e-12)

    def test_degenerate_delta_one(self):
        assert upper_budget(5, 1.0, 0.3) == 0.0

    def test_linear_in_n(self):
        base = upper_budget(100, 0.01, 0.25)
        assert upper_budget(200, 0.01, 0.25) == pytest.approx(2 * base, rel=1e-15)
        assert upper_budget(300, 0.01, 0.25) == pytest.approx(3 * base, rel=1e-14)

    def test_linear_in_log_inverse_delta(self):
        base = upper_budget(100, 0.01, 0.25)
        squared = upper_budget(100, 0.0001, 0.25)
        assert squared == pytest.approx(2 * base, rel=1e-12)

    def test_spec_anchor_rounding(self):
        # Published anchor 8383.62 carries rounded constants.
        assert upper_budget(1000, 0.01, 0.25) == pytest.approx(8383.62, rel=1e-5)
        assert lecam_budget(1000, 0.01, 0.25) == pytest.approx(5859.93, rel=1e-5)
        assert lecam_floor(100, 100, 0.1) == pytest.approx(0.043096, rel=3e-4)

    @pytest.mark.parametrize("bound", [upper_budget, lecam_budget, lecam_floor])
    def test_n_beyond_the_largest_float_refused(self, bound):
        # A ContractViolation, not an OverflowError from converting n to a float.
        with pytest.raises(ContractViolation, match="n must be at most"):
            bound(10**400, 0.01, 0.25)


class TestSubnormalDelta:
    """Below 2**-1024, 1/delta overflows; log(1/delta) is then taken as -log(delta)."""

    @given(st.floats(min_value=2.0**-1022, max_value=1.0))
    def test_unchanged_where_the_reciprocal_is_finite(self, x):
        assert log_inverse(x) == math.log(1.0 / x)

    @pytest.mark.parametrize("x", [5.56e-309, 1e-309, 1e-310, 5e-324])
    def test_negative_log_where_the_reciprocal_overflows(self, x):
        assert 1.0 / x == math.inf
        assert log_inverse(x) == -math.log(x)

    @pytest.mark.parametrize("delta", [1e-309, 1e-310, 5e-324])
    def test_bounds_are_finite(self, delta):
        assert upper_budget(1000, delta, 0.25) == 1000 * -math.log(delta) / kl_pq(0.25)
        assert lecam_budget(1000, delta, 0.25) == pytest.approx(1000 * -math.log(4 * delta) / kl_pq(0.25))
        assert regime_ratio(delta, 0.25) == -math.log(delta) / math.log(4.0)
        assert checkbit_budget(delta, 0.25) == math.ceil(-math.log(delta) / math.log(3.0)) / 0.5


class TestSubnormalP:
    """Below 2**-1024, (1-p)/p overflows; log((1-p)/p) is then taken as log1p(-p) - log(p)."""

    @given(st.floats(min_value=2.0**-1022, max_value=0.5, exclude_max=True))
    def test_unchanged_for_normal_p(self, p):
        ratio = math.log((1.0 - p) / p)
        assert log_odds(p) == ratio
        assert kl_pq(p) == (1.0 - 2.0 * p) * ratio
        assert vote_threshold(p, 0.01) == math.ceil(math.log(99.0) / ratio)
        assert vote_threshold_log(p, math.log(0.01)) == math.ceil((math.log1p(-0.01) - math.log(0.01)) / ratio)

    @pytest.mark.parametrize("p", [5.56e-309, 1e-310, 5e-324])
    def test_finite_where_the_ratio_overflows(self, p):
        assert (1.0 - p) / p == math.inf
        assert log_odds(p) == -math.log(p)
        assert kl_pq(p) == -math.log(p)
        assert vote_threshold(p, 0.01) == 1  # a single read decides at odds beyond 1e308
        assert vote_threshold_log(p, math.log(0.01)) == 1
        assert checkbit_budget(0.01, p) == 1.0
        assert lecam_floor(10, 0.0, p) == 0.25
        assert all(math.isfinite(x) for x in (kl_pq(p), upper_budget(10, 0.01, p), regime_ratio(0.01, p)))
        assert regime_ratio(0.01, p) == log_inverse(0.01) / -math.log(p)


class TestPerPrimitiveBudgets:
    @pytest.mark.parametrize(
        "p,delta,expected",
        [(0.25, 0.01, 10.0), (0.25, 0.25, 2.0), (0.4, 0.01, 60.0)],
    )
    def test_checkbit_budget(self, p, delta, expected):
        assert checkbit_budget(delta, p) == pytest.approx(expected, rel=1e-12)


class TestConsistencyAcrossBounds:
    """Achievability and converse cannot cross at the formula level."""

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    @pytest.mark.parametrize("delta", [0.05, 0.01, 1e-4])
    @pytest.mark.parametrize("p", [0.05, 0.25, 0.45])
    def test_floor_below_delta_at_padded_budget(self, n, delta, p):
        epsilon = math.log(4.0) / math.log(1.0 / delta)
        m = upper_budget(n, delta, p) * (1.0 + epsilon)
        floor = lecam_floor(n, m, p)
        # Padding by log4/log(1/delta) turns the floor into exactly delta/16.
        assert floor == pytest.approx(delta / 16.0, rel=1e-9)
        assert floor < delta

    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("delta", [0.05, 0.001])
    @pytest.mark.parametrize("p", [0.1, 0.4])
    def test_lower_budget_below_upper(self, n, delta, p):
        assert lecam_budget(n, delta, p) < upper_budget(n, delta, p)


class TestHighPrecisionAgreement:
    """Float pipeline agrees with a 50-digit Decimal recomputation to 12 significant digits."""

    def test_grid(self):
        getcontext().prec = 50
        checked = 0
        for p in (0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.49):
            dp = Decimal(p)
            d_kl = (1 - 2 * dp) * ((1 - dp) / dp).ln()
            assert kl_pq(p) == pytest.approx(float(d_kl), rel=1e-12)
            h = -(dp * dp.ln() + (1 - dp) * (1 - dp).ln())
            assert binary_entropy(p) == pytest.approx(float(h), rel=1e-12)
            for n in (1, 37, 1000):
                for delta in (0.25, 0.01, 1e-6):
                    dd = Decimal(delta)
                    ub = Decimal(n) * (1 / dd).ln() / d_kl
                    assert upper_budget(n, delta, p) == pytest.approx(float(ub), rel=1e-12)
                    floor = Decimal("0.25") * (-Decimal(200) * d_kl / Decimal(n)).exp()
                    assert lecam_floor(n, 200.0, p) == pytest.approx(float(floor), rel=1e-12)
                    checked += 2
        assert checked >= 100


class TestRegimeClassifier:
    def test_ratio_anchor(self):
        assert regime_ratio(1e-9, 0.1) == pytest.approx(9.0, rel=1e-12)

    def test_labels(self):
        assert "constant gap" in regime_label(regime_ratio(1e-9, 0.1))
        assert "KL term" in regime_label(100.0)
        assert "linear term" in regime_label(0.01)


class TestOnePoint:
    """The quantities ``noisyquery bounds`` prints at n = 1000, delta = 0.01, p = 0.25."""

    def test_values_coherent(self):
        upper, lower = upper_budget(1000, 0.01, 0.25), lecam_budget(1000, 0.01, 0.25)
        assert upper == pytest.approx(8383.613097157539, rel=1e-13)
        assert lower == pytest.approx(5859.894082871708, rel=1e-13)
        assert binary_entropy(0.25) / math.log(2.0) == pytest.approx(0.8112781244591328, rel=1e-13)
        assert lecam_floor(1000, 0.0, 0.25) == 0.25
        assert lecam_floor(1000, lower, 0.25) == pytest.approx(0.01, rel=1e-10)
        assert kl_pq(0.25) > 0 and upper > 0 and lower > 0

    def test_rejects_bad_delta(self, capsys):
        assert main(["bounds", "--n", "10", "--delta", "0.5", "--p", "0.25"]) == 2
        assert capsys.readouterr().err == "configuration error: delta must lie in (0, 1/2), got 0.5\n"
