"""Hand-checked cases for the benchmark's reference computations.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom, norm

import reference as ref


def test_studentized_max_uses_the_n_divisor():
    # column 1: mean 2, n-divisor sd 1; column 2: mean 1, sd 1.  With the
    # (n-1)-divisor the first score would be 2, not 2 sqrt(2).
    x = np.array([[1.0, 0.0], [3.0, 2.0]])
    np.testing.assert_allclose(ref.scores(x), [2.0 * math.sqrt(2.0), math.sqrt(2.0)])
    assert ref.studentized_max(x) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("n, expected", [(8, 2.0 * math.sqrt(2.0)), (5, 2.0 * math.sqrt(5.0))])
def test_sn_formula(n, expected):
    # z = 2 exactly: z / sqrt(1 - 4/n)
    assert ref.sn_critical(norm.sf(2.0), n) == pytest.approx(expected, rel=1e-12)


def test_sn_formula_at_the_median_is_zero():
    assert ref.sn_critical(0.5, 10) == pytest.approx(0.0, abs=1e-15)


def test_mb_quantile_at_p1_is_the_normal_quantile():
    # With one column the multiplier draw sum_i eps_i g_i has sum_i g_i^2 = 1,
    # so it is exactly N(0, 1) whatever the sample.
    x = np.random.default_rng(7).standard_t(5, size=(60, 1))
    (draws,) = ref.mb_max_draws(x, 40_000, np.random.default_rng(8), [np.array([0])])
    alpha = 0.05
    target = norm.ppf(1.0 - alpha)
    assert np.quantile(draws, 1.0 - alpha) == pytest.approx(target, abs=0.05)
    assert ref.quantile_consistent(draws, target, 1.0 - alpha, B_program=1000)
    # against 40000 reference draws a cutoff at level 0.90 lies in a 1e-7 tail
    assert not ref.quantile_consistent(draws, norm.ppf(0.90), 1.0 - alpha, B_program=1000)


def test_diagnostics_of_a_two_point_column_are_one():
    x = np.tile([[1.0, -3.0], [-1.0, 5.0]], (5, 1))
    d = ref.diagnostics(x)
    assert d == pytest.approx({"m3": 1.0, "m4": 1.0, "bn": 1.0}, rel=1e-12)


def test_block_layout():
    assert ref.block_layout(200) == (5, 2, 28)
    assert ref.block_layout(64) == (4, 2, 10)


def test_order_statistic_index():
    assert ref.order_statistic_index(0.95, 1000) == 950
    assert ref.order_statistic_index(0.999, 1000) == 999
    assert ref.order_statistic_index(0.9991, 1000) == 1000


def test_mb_cutoff_ceiling_at_p1_solves_the_binomial_tail():
    # One column: each multiplier draw is N(0, 1), and the 999th of 1000
    # draws exceeds t only when two draws do.
    x = np.random.default_rng(3).standard_normal((50, 1))
    t = ref.cutoff_ceiling(x, 0.999, 1000, "MB")
    assert binom.sf(1, 1000, norm.sf(t)) == pytest.approx(1e-7, rel=1e-6)


def test_eb_cutoff_ceiling_of_a_sign_column_is_below_the_subgaussian_one():
    # A +-1 column: the resampled sum of n terms +-1/sqrt(n) has
    # n log cosh(s/sqrt(n)) <= s^2/2, so its tail is below exp(-t^2/2) and
    # the ceiling lies at or below the t where that bound reaches 1e-7.
    x = np.tile([[1.0], [-1.0]], (100, 1))
    t = ref.cutoff_ceiling(x, 0.999, 1000, "EB")
    assert binom.sf(1, 1000, math.exp(-t * t / 2.0)) >= 0.99e-7


@pytest.mark.parametrize("scheme", ["MB", "EB"])
def test_selection_check_rejects_keeping_every_column(scheme):
    # 20 binding columns and 380 far-slack ones (scores near -21).
    rng = np.random.default_rng(11)
    mean = np.full(400, -1.5)
    mean[:20] = 0.0
    x = mean + rng.standard_normal((200, 400))
    draws_fn = ref.mb_max_draws if scheme == "MB" else ref.eb_max_draws
    (draws,) = draws_fn(x, 2000, np.random.default_rng(12), [np.arange(400)])
    c = float(np.quantile(draws, 0.999))
    right = np.flatnonzero(ref.scores(x) > -2.0 * c)
    assert ref.bootstrap_selection_consistent(x, right, draws, 0.001, 1000, scheme)
    assert not ref.bootstrap_selection_consistent(x, np.arange(400), draws, 0.001, 1000, scheme)
    assert not ref.bootstrap_selection_consistent(x, right[1:], draws, 0.001, 1000, scheme)


@pytest.mark.parametrize("level", [0.95, 0.999])
def test_order_statistics_of_fresh_draws_pass(level):
    # The program's cutoff is the k-th of its 1000 draws: cutoffs made that
    # way from the reference law itself must pass, and sit above the floor.
    rng = np.random.default_rng(5)
    draws = rng.standard_normal(2000)
    k = ref.order_statistic_index(level, 1000)
    floor = ref.quantile_floor(draws, level, 1000)
    for _ in range(200):
        c = np.sort(rng.standard_normal(1000))[k - 1]
        assert ref.quantile_consistent(draws, c, level, 1000)
        assert c > floor
