"""Design data generators and the Monte Carlo harness."""

import numpy as np
import pytest

from momentineq import (
    DesignSpec,
    McConfig,
    SeededStream,
    covariance_factor,
    draw_sample,
    power_sweep,
    run_mc,
)
from momentineq.simulate import _innovations


def sigma_for(p, rho, structure):
    if structure == "EQUI":
        s = np.full((p, p), rho)
        np.fill_diagonal(s, 1.0)
        return s
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


class TestCovarianceFactor:
    def test_rho_zero_is_identity(self):
        for structure in ("EQUI", "AR"):
            np.testing.assert_array_equal(
                covariance_factor(5, 0.0, structure), np.eye(5)
            )

    def test_equi_two_by_two(self):
        a = covariance_factor(2, 0.5, "EQUI")
        target = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.abs(a.T @ a - target).max() <= 1e-12

    def test_ar_three_by_three_corner(self):
        a = covariance_factor(3, 0.9, "AR")
        assert abs((a.T @ a)[0, 2] - 0.81) <= 1e-12

    @pytest.mark.parametrize("structure", ["EQUI", "AR"])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("p", [1, 2, 7, 60])
    def test_reconstruction_grid(self, structure, rho, p):
        a = covariance_factor(p, rho, structure)
        assert np.abs(a.T @ a - sigma_for(p, rho, structure)).max() <= 1e-10

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            covariance_factor(4, 1.0, "EQUI")
        with pytest.raises(ValueError):
            covariance_factor(4, -0.2, "AR")


class TestInnovations:
    @pytest.mark.parametrize("dist", ["t4", "uniform", "normal"])
    def test_unit_variance_at_one_million_draws(self, dist):
        gen = SeededStream(42).child(dist).generator()
        e = _innovations(gen, 1000, 1000, dist)
        assert abs(e.var() - 1.0) <= 0.01
        assert abs(e.mean()) <= 0.005

    def test_uniform_support(self):
        gen = SeededStream(1).generator()
        e = _innovations(gen, 100, 100, "uniform")
        assert e.min() > -np.sqrt(3) and e.max() < np.sqrt(3)

    def test_t4_heavy_tails(self):
        gen = SeededStream(2).generator()
        e = _innovations(gen, 1000, 200, "t4")
        # normalized t(4) exceeds 3 far more often than a normal would
        assert (np.abs(e) > 3.0).mean() > 0.005


class TestDesignSpec:
    def test_structures(self):
        assert DesignSpec(1, 100, 10, 0.0, "t4").structure == "EQUI"
        assert DesignSpec(4, 100, 10, 0.0, "t4").structure == "AR"
        assert DesignSpec(8, 100, 10, 0.5, "uniform").structure == "AR"

    def test_mean_vectors(self):
        mu = DesignSpec(2, 100, 10, 0.0, "t4").mean_vector()
        np.testing.assert_array_equal(mu, [0.0] + [-0.8] * 9)
        mu = DesignSpec(6, 100, 20, 0.0, "t4").mean_vector()
        np.testing.assert_array_equal(mu, [0.05] * 2 + [-0.75] * 18)
        assert np.all(DesignSpec(5, 100, 7, 0.0, "t4").mean_vector() == 0.05)
        assert np.all(DesignSpec(3, 100, 7, 0.0, "t4").mean_vector() == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpec(9, 100, 10, 0.0, "t4")
        with pytest.raises(ValueError):
            DesignSpec(1, 100, 10, 1.0, "t4")
        with pytest.raises(ValueError):
            DesignSpec(1, 100, 10, 0.0, "cauchy")


class TestDrawSample:
    def test_deterministic(self):
        spec = DesignSpec(1, 50, 6, 0.5, "uniform")
        a = draw_sample(spec, SeededStream(3).child("mc", 1))
        b = draw_sample(spec, SeededStream(3).child("mc", 1))
        np.testing.assert_array_equal(a, b)

    def test_null_design_moments(self):
        spec = DesignSpec(1, 100_000, 3, 0.0, "t4")
        x = draw_sample(spec, SeededStream(11))
        assert np.abs(x.mean(axis=0)).max() <= 4.0 / np.sqrt(100_000)
        assert np.abs(x.var(axis=0) - 1.0).max() <= 0.1

    def test_equicorrelation_reaches_target(self):
        spec = DesignSpec(1, 50_000, 4, 0.9, "uniform")
        x = draw_sample(spec, SeededStream(12))
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off - 0.9).max() <= 0.05

    def test_autocorrelation_decays_geometrically(self):
        spec = DesignSpec(3, 50_000, 5, 0.6, "t4")
        x = draw_sample(spec, SeededStream(13))
        corr = np.corrcoef(x.T)
        assert abs(corr[0, 1] - 0.6) <= 0.05
        assert abs(corr[0, 2] - 0.36) <= 0.05

    def test_shifted_design_mean(self):
        spec = DesignSpec(5, 200_000, 2, 0.0, "uniform")
        x = draw_sample(spec, SeededStream(14))
        assert np.abs(x.mean(axis=0) - 0.05).max() <= 0.01


class TestRunMc:
    def test_thread_count_does_not_change_rates(self):
        design = DesignSpec(1, 60, 5, 0.0, "uniform")
        mc1 = McConfig(sims=24, bootstrap_reps=200, methods=("sn1", "mb1"), seed=4)
        mc3 = McConfig(
            sims=24, bootstrap_reps=200, methods=("sn1", "mb1"), seed=4, threads=3
        )
        assert run_mc(design, mc1).rates == run_mc(design, mc3).rates

    def test_deterministic_and_bounded(self):
        design = DesignSpec(2, 80, 6, 0.5, "t4")
        mc = McConfig(sims=30, bootstrap_reps=200, methods=("sn2", "eb2"), seed=5)
        a = run_mc(design, mc)
        b = run_mc(design, mc)
        assert a.rates == b.rates
        for m, rate in a.rates.items():
            assert 0.0 <= rate <= 1.0
            assert abs(a.ses[m] - np.sqrt(rate * (1 - rate) / 30)) <= 1e-15

    def test_size_envelope_at_desk_scale(self):
        methods = ("sn1", "sn2", "mb1", "mb2", "eb1", "eb2")
        for design_id in (1, 3):
            design = DesignSpec(design_id, 120, 8, 0.5, "uniform")
            mc = McConfig(sims=200, bootstrap_reps=300, methods=methods, seed=6)
            result = run_mc(design, mc)
            for m in methods:
                # alpha + 0.03 plus two binomial standard errors of slack
                assert result.rates[m] <= 0.05 + 0.03 + 2 * 0.0155, (design_id, m)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(sims=0)
        with pytest.raises(ValueError):
            McConfig(sims=10, threads=0)
        with pytest.raises(ValueError):
            McConfig(sims=10, methods=())

    @pytest.mark.parametrize("bad", [
        {"alpha": 0.9},
        {"seed": 2 ** 64},
        {"methods": ("mb1",), "bootstrap_reps": 50},
        {"methods": ("mb2",), "beta": 0.03},
        {"methods": ("wald",)},
    ])
    def test_sizes_checked_at_construction(self, bad):
        with pytest.raises(ValueError):
            McConfig(sims=10, **bad)


class TestPowerSweep:
    def test_monotone_and_anchored_at_size(self):
        mc = McConfig(sims=150, bootstrap_reps=250, methods=("sn1", "mb1"), seed=7)
        curve = power_sweep(100, 10, 0.0, [0.0, 0.2, 0.4, 0.6], mc)
        for m in ("sn1", "mb1"):
            rates = curve.rates[m]
            # shared innovations per replication make one-step rejection
            # monotone in the shift, so the estimated curve is monotone too
            assert all(a <= b for a, b in zip(rates, rates[1:]))
            assert rates[0] <= 0.12
            assert rates[-1] >= 0.9

    def test_thread_count_does_not_change_rates(self):
        kw = dict(sims=16, bootstrap_reps=200, methods=("sn2", "mb1"), seed=8)
        serial = power_sweep(60, 5, 0.3, [0.0, 0.3], McConfig(**kw))
        pooled = power_sweep(60, 5, 0.3, [0.0, 0.3], McConfig(threads=2, **kw))
        assert serial.rates == pooled.rates
        assert serial.ses == pooled.ses

    def test_rejects_negative_shift(self):
        mc = McConfig(sims=10, methods=("sn1",), seed=1)
        with pytest.raises(ValueError):
            power_sweep(50, 3, 0.0, [-0.1, 0.2], mc)
