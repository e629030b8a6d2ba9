"""Summaries, the max statistic, the zero-variance convention, and diagnostics."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentineq import (
    CriticalValueSpec,
    InputError,
    as_sample_matrix,
    exceeds,
    regularity_diagnostics,
    studentized_scores,
    summarize,
)
from momentineq import test_statistic as max_statistic
from momentineq.errors import DegenerateColumnError, UndefinedCriticalValueError


def matrices(min_rows=2, max_rows=12, min_cols=1, max_cols=6):
    shapes = st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    )
    return shapes.flatmap(
        lambda s: arrays(
            np.float64,
            s,
            elements=st.floats(-100, 100, allow_nan=False, width=64),
        )
    )


class TestValidation:
    def test_rejects_one_row(self):
        with pytest.raises(InputError):
            as_sample_matrix([[1.0, 2.0]])

    def test_rejects_non_matrix(self):
        with pytest.raises(InputError):
            as_sample_matrix([1.0, 2.0, 3.0])

    def test_rejects_nan_with_position(self):
        x = np.zeros((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(InputError, match="row 2, column 2"):
            as_sample_matrix(x)

    def test_accepts_single_column(self):
        assert as_sample_matrix([[0.0], [1.0]]).shape == (2, 1)


class TestSummarize:
    def test_symmetric_two_point_column(self):
        s = summarize([[0.0], [2.0]])
        assert s.means[0] == 1.0
        assert s.sds[0] == 1.0
        assert not s.any_degenerate()

    def test_constant_column_is_exactly_degenerate(self):
        s = summarize([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]])
        assert s.means[0] == 0.1
        assert s.sds[0] == 0.0
        assert tuple(s.degenerate) == (True, False)
        assert s.degenerate_columns() == (1,)

    def test_hand_arithmetic_four_by_two(self):
        s = summarize([[0, -1], [2, 1], [0, -1], [2, 1]])
        np.testing.assert_array_equal(s.means, [1.0, 0.0])
        np.testing.assert_array_equal(s.sds, [1.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_variance_identity(self, x):
        s = summarize(x)
        lhs = s.sds ** 2
        rhs = np.mean(x ** 2, axis=0) - s.means ** 2
        scale = np.maximum(np.mean(x ** 2, axis=0), 1.0)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)

    def test_variance_identity_large_n(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 2.0, size=(1_000_000, 1))
        s = summarize(x)
        lhs = float(s.sds[0] ** 2)
        rhs = float(np.mean(x ** 2) - s.means[0] ** 2)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_standardized_columns(self):
        rng = np.random.default_rng(10)
        x = rng.normal(3.0, 0.5, size=(200, 4))
        s = summarize(x)
        z = (x - s.means) / s.sds
        assert np.all(np.abs(z.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs((z ** 2).mean(axis=0) - 1.0) <= 1e-10)


class TestScores:
    def test_hand_arithmetic(self):
        s = summarize([[0, -1], [2, 1], [0, -1], [2, 1]])
        np.testing.assert_array_equal(studentized_scores(s), [2.0, 0.0])

    def test_zero_means_zero_scores(self):
        s = summarize([[1.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(studentized_scores(s), [0.0, 0.0])

    def test_power_of_two_scaling_is_bitwise_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 5))
        scaled = x * np.array([4.0, 0.25, 1.0, 2.0, 8.0])
        np.testing.assert_array_equal(
            studentized_scores(summarize(x)), studentized_scores(summarize(scaled))
        )

    @settings(max_examples=40, deadline=None)
    @given(
        matrices(min_rows=3, max_rows=10, min_cols=2, max_cols=4),
        st.floats(0.01, 100, allow_nan=False),
    )
    # a subnormal column that halving does not scale: [0, 0, 1e-323]
    @example(x=np.array([[0.0, 1.0], [5e-324, 2.0], [1.5e-323, 4.0]]), lam=0.5)
    def test_general_scaling_close(self, x, lam):
        # the premise: x * lam is a scaled copy of x, which subnormal products are not
        y = np.abs(x * lam)
        assume(not np.any((y > 0) & (y < np.finfo(float).tiny)))
        s = summarize(x)
        scaled = summarize(x * lam)
        # near-ties can collapse to a constant column under scaling
        if s.any_degenerate() or scaled.any_degenerate():
            return
        a = studentized_scores(s)
        b = studentized_scores(scaled)
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(np.abs(a), 1.0))

    def test_shift_raises_score_exactly(self):
        # integer data, n a power of four: every intermediate is exact
        x = np.array([[0.0, 3.0], [2.0, 5.0], [4.0, 1.0], [6.0, 7.0]])
        s0 = summarize(x)
        shifted = x.copy()
        shifted[:, 0] += 3.0
        s1 = summarize(shifted)
        assert s1.sds[0] == s0.sds[0]
        delta = 2.0 * 3.0 / s0.sds[0]  # sqrt(n) = 2
        assert studentized_scores(s1)[0] == studentized_scores(s0)[0] + delta
        assert max_statistic(s1) >= max_statistic(s0)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 6))
        perm = np.array([3, 0, 5, 1, 4, 2])
        a = studentized_scores(summarize(x))
        b = studentized_scores(summarize(x[:, perm]))
        np.testing.assert_array_equal(a[perm], b)
        assert max_statistic(summarize(x)) == max_statistic(summarize(x[:, perm]))


class TestStatistic:
    def test_max_of_scores(self):
        s = summarize([[0, -1], [2, 1], [0, -1], [2, 1]])
        assert max_statistic(s) == 2.0

    def test_tie_break_reports_first_index(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [2.0, 2.0]])
        s = summarize(x)
        assert max_statistic(s) == 2.0

    def test_degenerate_marker(self):
        s = summarize([[0.0], [0.0], [0.0]])
        assert max_statistic(s) == -np.inf
        for c in (0.0, 1.0, 10.0):
            assert exceeds(s, c) is False

    def test_degenerate_positive_mean_bound_is_inf(self):
        s = summarize([[1.0, 0.0], [1.0, 1.0]])
        assert max_statistic(s) == np.inf

    # Integer entries below 2^10 times 2^e stay exact and finite for e from
    # -1022 to 1014, so the scaled sample is the unit-scale one up to a power
    # of two.  The example is a column in both signs at the top of the range,
    # whose unscaled deviations overflow.
    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(2, 12), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.integers(-1023, 1023))
        ),
        st.integers(-1022, 1014),
    )
    @example(x=np.array([[1023.0]] * 11 + [[-1023.0]]), e=1014)
    def test_power_of_two_scales_keep_the_statistic_bit_for_bit(self, x, e):
        scaled = max_statistic(summarize(x * 2.0 ** e))
        assert not np.isnan(scaled)
        assert scaled == max_statistic(summarize(x))

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(2, 12), st.integers(1, 4)).flatmap(
            lambda shape: arrays(
                np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)
            )
        )
    )
    def test_never_nan_over_the_float_range(self, x):
        assert not np.isnan(max_statistic(summarize(x)))


class TestExceeds:
    def test_degenerate_positive_mean_forces_rejection(self):
        # first column constant at 1 (sd 0), second well-behaved
        x = np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        s = summarize(x)
        assert exceeds(s, 10.0) is True

    def test_zero_mean_zero_sd_never_exceeds(self):
        s = summarize([[0.0], [0.0]])
        assert exceeds(s, 0.0) is False
        assert exceeds(s, 5.0) is False

    def test_matches_statistic_when_clean(self):
        s = summarize([[0, -1], [2, 1], [0, -1], [2, 1]])
        assert exceeds(s, 3.0) is False
        assert exceeds(s, 1.999) is True
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.normal(size=(15, 4))
            ss = summarize(x)
            t = max_statistic(ss)
            for c in (-1.0, 0.0, 0.5, t, 2.0):
                assert exceeds(ss, c) == (t > c)

    @settings(max_examples=80, deadline=None)
    @given(
        matrices(max_rows=8, max_cols=3),
        st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]), max_size=3),
        st.floats(-20, 20, allow_nan=False),
    )
    def test_is_the_statistic_rule_with_constant_columns(self, x, constants, c):
        x = np.column_stack([x] + [np.full(x.shape[0], k) for k in constants])
        s = summarize(x)
        assert exceeds(s, c) == (max_statistic(s) > c)
        if any(k > 0 for k in constants):
            assert max_statistic(s) == np.inf and exceeds(s, c)

    def test_rejects_non_finite_cutoff(self):
        s = summarize([[0.0], [1.0]])
        for c in (np.inf, np.nan):
            with pytest.raises(UndefinedCriticalValueError, match="finite"):
                exceeds(s, c)


class TestDiagnostics:
    def test_balanced_two_point_columns_give_ones(self):
        x = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
        d = regularity_diagnostics(x)
        assert abs(d.m3 - 1.0) <= 1e-12
        assert abs(d.m4 - 1.0) <= 1e-12
        assert abs(d.bn - 1.0) <= 1e-12

    def test_single_column_bn_equals_m4(self):
        rng = np.random.default_rng(1)
        d = regularity_diagnostics(rng.normal(size=(40, 1)))
        assert d.bn == d.m4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(123)
        x = rng.normal(size=(10, 3))
        d = regularity_diagnostics(x)
        # independent re-computation straight from the definitions
        n, p = x.shape
        mu = [sum(x[i, j] for i in range(n)) / n for j in range(p)]
        sd = [
            (sum((x[i, j] - mu[j]) ** 2 for i in range(n)) / n) ** 0.5
            for j in range(p)
        ]
        z = [[(x[i, j] - mu[j]) / sd[j] for j in range(p)] for i in range(n)]
        m3 = max(
            (sum(abs(z[i][j]) ** 3 for i in range(n)) / n) ** (1 / 3)
            for j in range(p)
        )
        m4 = max(
            (sum(z[i][j] ** 4 for i in range(n)) / n) ** 0.25 for j in range(p)
        )
        bn = (sum(max(z[i][j] ** 4 for j in range(p)) for i in range(n)) / n) ** 0.25
        assert abs(d.m3 - m3) <= 1e-10
        assert abs(d.m4 - m4) <= 1e-10
        assert abs(d.bn - bn) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(matrices(min_rows=4, max_rows=12, min_cols=1, max_cols=5))
    def test_jensen_ordering(self, x):
        s = summarize(x)
        if s.any_degenerate():
            return
        d = regularity_diagnostics(x)
        assert d.bn >= d.m4 - 1e-12
        assert d.m4 >= d.m3 - 1e-12
        assert d.m3 >= 1.0 - 1e-12

    def test_degenerate_column_named(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(DegenerateColumnError, match="column"):
            regularity_diagnostics(x)


class TestCriticalValueSpec:
    def test_normalizes_method_case(self):
        assert CriticalValueSpec("MB2").method == "mb2"
        assert CriticalValueSpec("HYB-MB").method == "hyb-mb"

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            CriticalValueSpec("bonferroni")

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, -0.1])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            CriticalValueSpec("sn1", alpha=alpha)

    def test_selection_beta_constraints(self):
        with pytest.raises(ValueError):
            CriticalValueSpec("sn2", alpha=0.05, beta=0.02)  # needs < alpha/3
        with pytest.raises(ValueError):
            CriticalValueSpec("mb2", alpha=0.05, beta=0.03)  # needs < alpha/2
        CriticalValueSpec("mb2", alpha=0.05, beta=0.02)
        CriticalValueSpec("hyb-eb", alpha=0.06, beta=0.02)  # <= alpha/3 allowed

    def test_bootstrap_needs_replications(self):
        with pytest.raises(ValueError):
            CriticalValueSpec("eb1", replications=50)
        CriticalValueSpec("sn1", replications=50)  # analytic: ignored

    @pytest.mark.parametrize("method", ["sn1", "mb1", "eb1", "sn2", "mb2", "hyb-eb"])
    @pytest.mark.parametrize("beta", [float("inf"), float("nan")])
    def test_rejects_non_finite_beta_for_every_method(self, method, beta):
        with pytest.raises(ValueError, match="beta"):
            CriticalValueSpec(method, beta=beta)
