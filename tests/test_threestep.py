"""Gradient-based selection: set rules, exact reductions, bootstrap oracles."""

import dataclasses
import math

import numpy as np
import pytest

from momentineq import (
    CriticalValueSpec,
    DegenerateColumnError,
    InputError,
    ParametricMomentData,
    SeededStream,
    ThreeStepConfig,
    run_test,
    summarize,
    three_step_test,
)
from momentineq.bootstrap import _provider, _quantile, _values
from momentineq.threestep import _flat_gradient_summary, _sets


def matrix_with_scores(scores, n=400):
    scores = np.asarray(scores, dtype=np.float64)
    mu = scores / math.sqrt(n)
    x = np.empty((n, len(scores)))
    x[0::2] = mu + 1.0
    x[1::2] = mu - 1.0
    return x


def data_with_scores(g_scores, grad_scores, n=400):
    """Moment data whose g and gradient studentized scores are prescribed.

    ``grad_scores`` has shape (p, r).
    """
    grad = np.asarray(grad_scores, dtype=np.float64)
    p, r = grad.shape
    g = matrix_with_scores(g_scores, n=n)
    v = matrix_with_scores(grad.ravel(), n=n).reshape(n, p, r)
    return ParametricMomentData(g=g, v=v)


class TestParametricMomentData:
    def test_shape_validation(self):
        g = np.zeros((10, 2)) + [[1.0, 2.0]] * 10 + np.arange(10)[:, None]
        with pytest.raises(InputError):
            ParametricMomentData(g=g, v=np.zeros((10, 3, 1)))
        with pytest.raises(InputError):
            ParametricMomentData(g=g, v=np.zeros((10, 2)))

    def test_non_finite_gradient_rejected(self):
        g = np.random.default_rng(0).normal(size=(8, 2))
        v = np.zeros((8, 2, 1))
        v[3, 1, 0] = np.inf
        with pytest.raises(InputError):
            ParametricMomentData(g=g, v=v)


class TestGradientSummary:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        data = ParametricMomentData(
            g=rng.normal(size=(10, 2)), v=rng.normal(size=(10, 2, 3))
        )
        flat = _flat_gradient_summary(data)
        means, sds = flat.means.reshape(2, 3), flat.sds.reshape(2, 3)
        for j in range(2):
            for l in range(3):
                col = data.v[:, j, l]
                mu = sum(col) / 10
                sd = (sum((c - mu) ** 2 for c in col) / 10) ** 0.5
                assert abs(means[j, l] - mu) <= 1e-12
                assert abs(sds[j, l] - sd) <= 1e-12

    def test_constant_gradient_column_named(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(12, 3, 2))
        v[:, 1, 1] = 7.0
        data = ParametricMomentData(g=rng.normal(size=(12, 3)), v=v)
        cfg = ThreeStepConfig(alpha=0.05, replications=100, seed=6)
        with pytest.raises(DegenerateColumnError, match=r"j=2, l=2"):
            three_step_test(data, cfg)

    def test_r_equal_one_reduces_to_summarize(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(15, 4, 1))
        data = ParametricMomentData(g=rng.normal(size=(15, 4)), v=v)
        flat = _flat_gradient_summary(data)
        s = summarize(v[:, :, 0])
        np.testing.assert_array_equal(flat.means, s.means)
        np.testing.assert_array_equal(flat.sds, s.sds)


def gradient_critical(data, gamma, cfg):
    """``1 - gamma`` quantile of the gradient bootstrap draws that ``_sets`` thresholds."""
    stream = SeededStream(cfg.seed).child("grad-crit")
    flat = _flat_gradient_summary(data)
    draws = _values(cfg.scheme, data.v.reshape(data.n, flat.p), flat, np.arange(flat.p),
                    cfg.replications, stream)
    return _quantile(draws, 1 - gamma)


class TestGradientBootstrap:
    def test_scalar_case_matches_normal_quantile(self):
        rng = np.random.default_rng(8)
        data = ParametricMomentData(
            g=rng.normal(size=(50, 1)), v=rng.normal(size=(50, 1, 1))
        )
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001, replications=100_000, seed=40)
        assert abs(gradient_critical(data, 0.05, cfg) - 1.6449) <= 0.03

    def test_duplicated_gradient_column_changes_nothing(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(30, 2))
        v = rng.normal(size=(30, 2, 2))
        vdup = np.concatenate([v, v[:, :, :1]], axis=2)
        cfg = ThreeStepConfig(alpha=0.05, replications=400, seed=3)
        a = gradient_critical(ParametricMomentData(g=g, v=v), 0.1, cfg)
        b = gradient_critical(ParametricMomentData(g=g, v=vdup), 0.1, cfg)
        assert a == b

    def test_quantile_decreasing_in_gamma(self):
        rng = np.random.default_rng(10)
        data = ParametricMomentData(
            g=rng.normal(size=(40, 3)), v=rng.normal(size=(40, 3, 2))
        )
        cfg = ThreeStepConfig(alpha=0.05, replications=600, seed=4)
        vals = [
            gradient_critical(data, gmm, cfg)
            for gmm in (0.01, 0.05, 0.2, 0.5, 0.9)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestSets:
    def test_strongly_positive_gradients_keep_everything(self):
        data = data_with_scores(
            [0.2, -0.1, 0.5], np.full((3, 2), 30.0)
        )
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001, replications=300, seed=12)
        j_hat, j_prime, j_dprime = three_step_test(data, cfg).sets
        assert j_prime == frozenset({1, 2, 3})
        assert j_dprime == frozenset({1, 2, 3})
        assert j_hat == frozenset({1, 2, 3})

    def test_one_bad_gradient_coordinate_excludes_the_column(self):
        grads = np.full((3, 2), 30.0)
        grads[1, 0] = -30.0  # one weakly informative coordinate
        data = data_with_scores([0.2, 0.1, 0.5], grads)
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001, replications=300, seed=13)
        _, j_prime, j_dprime = three_step_test(data, cfg).sets
        assert j_prime == frozenset({1, 3})
        assert j_dprime == frozenset({1, 3})

    def test_intermediate_score_lands_between_the_thresholds(self):
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001, replications=500, seed=14)
        grads = np.array([[30.0], [-5.0], [30.0]])
        data = data_with_scores([0.0, 0.0, 0.0], grads)
        # recompute the shared-draw thresholds to place the -5 correctly
        flat = _flat_gradient_summary(data)
        phi = cfg.resolve_phi(data.n)
        vals = _values(
            "MB", data.v.reshape(data.n, 3), flat, np.arange(3), cfg.replications,
            SeededStream(14).child("grad-select"),
        )
        c_plus = _quantile(vals, 1 - (cfg.beta + phi))
        c_minus = _quantile(vals, 1 - (cfg.beta - phi))
        assert -c_plus > -5.0 > -3.0 * c_minus  # the crafted gap
        _, j_prime, j_dprime = three_step_test(data, cfg).sets
        assert j_prime == frozenset({1, 3})
        assert j_dprime == frozenset({1, 2, 3})

    def test_kept_set_is_subset_of_generous_set(self):
        rng = np.random.default_rng(15)
        for seed in range(4):
            data = ParametricMomentData(
                g=rng.normal(size=(60, 5)),
                v=rng.normal(size=(60, 5, 2)) + rng.normal(size=(1, 5, 2)),
            )
            cfg = ThreeStepConfig(alpha=0.05, beta=0.005, replications=300, seed=seed)
            _, j_prime, j_dprime = three_step_test(data, cfg).sets
            assert j_prime <= j_dprime

    def test_phi_moves_the_sets_monotonically(self):
        rng = np.random.default_rng(16)
        data = ParametricMomentData(
            g=rng.normal(size=(80, 6)),
            v=rng.normal(size=(80, 6, 2)) - 0.2,
        )
        lo = ThreeStepConfig(alpha=0.05, beta=0.01, phi=0.002, replications=400, seed=5)
        hi = ThreeStepConfig(alpha=0.05, beta=0.01, phi=0.008, replications=400, seed=5)
        _, jp_lo, jd_lo = three_step_test(data, lo).sets
        _, jp_hi, jd_hi = three_step_test(data, hi).sets
        assert jp_hi <= jp_lo
        assert jd_lo <= jd_hi


class TestThreeStepTest:
    def test_empty_kept_set_never_rejects(self):
        data = data_with_scores([10.0, 12.0], np.full((2, 1), -50.0))
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001, replications=300, seed=20)
        d = three_step_test(data, cfg)
        assert d.statistic == 0.0
        assert d.critical_value == 0.0
        assert d.reject is False

    def test_weakly_informative_columns_are_dropped_from_the_statistic(self):
        # huge violation in the data but flat gradients: no rejection
        data = data_with_scores([10.0], np.array([[-10.0]]))
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001, replications=300, seed=21)
        d = three_step_test(data, cfg)
        assert d.reject is False

    def test_reduces_to_two_step_at_doubled_beta(self):
        # informative gradients and nonnegative scores: statistic and cutoff
        # coincide with the two-step test run at selection size 2*beta
        data = data_with_scores(
            [0.0, 0.4, 1.2], np.full((3, 2), 40.0)
        )
        beta = 0.001
        cfg3 = ThreeStepConfig(
            alpha=0.05, beta=beta, scheme="MB", replications=500, seed=22
        )
        d = three_step_test(data, cfg3)
        spec2 = CriticalValueSpec("mb2", alpha=0.05, beta=2 * beta, replications=500)
        assert d.critical_value == run_test(data.g, spec2, stream=SeededStream(22)).critical_value
        s = summarize(data.g)
        assert d.statistic == float(
            (math.sqrt(400) * s.means / s.sds).max()
        )

    def test_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(23)
        g = rng.normal(size=(50, 3))
        v = rng.normal(size=(50, 3, 2)) + 0.5
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001, replications=300, seed=23)
        base = three_step_test(ParametricMomentData(g=g, v=v), cfg)
        scaled = three_step_test(
            ParametricMomentData(
                g=g * np.array([4.0, 0.25, 2.0]),
                v=v * np.array([2.0, 8.0, 0.5])[None, :, None],
            ),
            cfg,
        )
        assert base == scaled

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThreeStepConfig(alpha=0.05, beta=0.02)  # beta >= alpha/4
        with pytest.raises(ValueError):
            ThreeStepConfig(alpha=0.05, beta=0.001, phi=0.002)  # phi >= beta
        with pytest.raises(ValueError):
            ThreeStepConfig(alpha=0.05, scheme="jackknife")
        cfg = ThreeStepConfig(alpha=0.05, beta=0.001)
        assert 0.0 < cfg.resolve_phi(400) < 0.001

    @pytest.mark.parametrize("seed", [2 ** 64, -1])
    def test_seed_checked_at_construction(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ThreeStepConfig(alpha=0.05, seed=seed)

    def test_decision_carries_the_sets(self):
        rng = np.random.default_rng(24)
        data = ParametricMomentData(
            g=rng.normal(size=(60, 5)),
            v=rng.normal(size=(60, 5, 2)) + rng.normal(size=(1, 5, 2)),
        )
        cfg = ThreeStepConfig(alpha=0.05, beta=0.005, replications=300, seed=24)
        d = three_step_test(data, cfg)
        s, stream = summarize(data.g), SeededStream(24)
        j_hat, j_prime, j_dprime = _sets(data, s, cfg, stream, _provider(data.g, s, stream))
        assert d.sets == (j_hat, j_prime, j_dprime)
        assert d.selected == tuple(sorted(j_hat & j_dprime))
