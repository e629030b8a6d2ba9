"""Self-normalized critical values against quantile-oracle arithmetic."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtri

from momentineq import (
    CriticalValueSpec,
    MomentSummary,
    UndefinedCriticalValueError,
    run_test,
    sn_one_step,
    sn_select,
    summarize,
)
from score_samples import sample_with_scores

mp.mp.dps = 40


def sn_oracle(alpha, p, n):
    z = -mp.sqrt(2) * mp.erfinv(1 - 2 * (1 - mp.mpf(alpha) / p))
    return float(z / mp.sqrt(1 - z * z / n))


def summary_with_scores(scores, n=4):
    """A summary whose studentized scores are exactly ``scores`` (sd 1)."""
    scores = np.asarray(scores, dtype=np.float64)
    means = scores / math.sqrt(n)
    sds = np.ones_like(means)
    return MomentSummary(means=means, sds=sds, n=n)


def sn2(scores, beta=0.001, n=400):
    spec = CriticalValueSpec("sn2", alpha=0.05, beta=beta)
    return run_test(sample_with_scores(scores, n), spec)


class TestOneStep:
    def test_matches_oracle_at_benchmark_point(self):
        # Phi^{-1}(0.995) = 2.5758293..., then the finite-n correction
        assert abs(sn_one_step(0.05, 10, 400) - 2.597462) <= 1e-4
        assert abs(sn_one_step(0.05, 10, 400) - sn_oracle(0.05, 10, 400)) <= 1e-10

    def test_huge_n_reduces_to_plain_quantile(self):
        assert abs(sn_one_step(0.05, 1, 10 ** 12) - 1.644854) <= 1e-5

    def test_increasing_in_p(self):
        vals = [sn_one_step(0.05, p, 400) for p in (1, 10, 50, 200, 1000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert sn_one_step(0.05, 200, 400) < sn_one_step(0.05, 1000, 400)

    def test_decreasing_in_alpha(self):
        vals = [sn_one_step(a, 100, 400) for a in (0.01, 0.05, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_as_n_shrinks(self):
        vals = [sn_one_step(0.05, 100, n) for n in (10 ** 6, 10 ** 4, 400, 100, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_undefined_when_p_too_large(self):
        # Phi^{-1}(1 - 0.05/1000)^2 ~ 15.1 >= n = 4
        with pytest.raises(UndefinedCriticalValueError, match="p too large"):
            sn_one_step(0.05, 1000, 4)

    def test_sqrt_log_bound(self):
        for alpha in (0.01, 0.05, 0.1):
            for p in (10, 100, 1000):
                for n in (100, 400, 10000):
                    denom = 1.0 - 2.0 * math.log(p / alpha) / n
                    if denom <= 0:
                        continue
                    try:
                        c = sn_one_step(alpha, p, n)
                    except UndefinedCriticalValueError:
                        continue
                    z = float(ndtri(1 - alpha / p))
                    assert z <= math.sqrt(2 * math.log(p / alpha)) + 1e-12
                    assert c <= z / math.sqrt(denom) + 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.1])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            sn_one_step(alpha, 10, 100)


class TestSelection:
    def test_threshold_rule(self):
        s = summary_with_scores([1.0, -5.0, 0.0], n=400)
        # beta = 3 * (1 - Phi(2)) makes c_sn(beta) ~ 2.0: threshold ~ -4
        beta = 0.068265
        c = sn_one_step(beta, 3, 400)
        assert 2.0 < c < 2.1
        assert sn_select(s, beta) == frozenset({1, 3})

    def test_all_positive_scores_select_everything(self):
        s = summary_with_scores([0.5, 2.0, 0.0, 1.2], n=100)
        assert sn_select(s, 0.001) == frozenset({1, 2, 3, 4})

    def test_all_deeply_negative_scores_select_nothing(self):
        s = summary_with_scores([-50.0, -60.0], n=400)
        assert sn_select(s, 0.001) == frozenset()

    def test_degenerate_columns_follow_mean_sign(self):
        means = np.array([1.0, -1.0, 0.0])
        sds = np.array([0.0, 0.0, 0.0])
        s = MomentSummary(means=means, sds=sds, n=50)
        assert sn_select(s, 0.01) == frozenset({1, 3})

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 5))
        scales = np.array([3.0, 0.2, 7.0, 1.0, 11.0])
        assert sn_select(summarize(x), 0.01) == sn_select(summarize(x * scales), 0.01)


class TestTwoStep:
    def test_empty_selection_gives_zero_cutoff(self):
        decision = sn2([-50.0, -60.0])
        assert decision.critical_value == 0.0
        # scores are negative, so T < 0 = critical value: no rejection
        assert decision.reject is False
        assert decision.selected == ()

    def test_full_selection_small_beta_approaches_one_step(self):
        beta = 1e-12
        decision = sn2([0.1, 0.2, 0.3, 0.4], beta=beta)
        assert decision.selected == (1, 2, 3, 4)
        assert abs(
            decision.critical_value - sn_one_step(0.05 - 2 * beta, 4, 400)
        ) <= 1e-12
        assert abs(decision.critical_value - sn_one_step(0.05, 4, 400)) <= 1e-6

    def test_single_survivor_formula(self):
        # one binding column, others far below any threshold
        decision = sn2([0.0, -80.0, -90.0])
        assert decision.selected == (1,)
        z = float(ndtri(1 - 0.048))
        expected = z / math.sqrt(1 - z * z / 400)
        assert abs(decision.critical_value - expected) <= 1e-12

    def test_cutoff_nondecreasing_in_selected_count(self):
        cutoffs = []
        for k in range(1, 6):
            d = sn2([0.0] * k + [-90.0] * (6 - k))
            assert len(d.selected) == k
            cutoffs.append(d.critical_value)
        assert all(a <= b for a, b in zip(cutoffs, cutoffs[1:]))

    def test_statistic_is_full_set_max(self):
        # selection drops column 2 from the cutoff, never from the statistic
        decision = sn2([1.0, -50.0], n=1024)  # exact scores: sqrt(n) = 32
        assert decision.selected == (1,)
        assert decision.statistic == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CriticalValueSpec("sn2", alpha=0.05, beta=0.02)  # beta >= alpha/3
        with pytest.raises(ValueError):
            CriticalValueSpec("sn2", alpha=0.6)
