"""End-to-end acceptance suite.

Every numbered criterion below runs at its stated tolerance and prints one
pass/fail line (run pytest with ``-s`` to see the lines as they stream).
The rejection-rate targets are the benchmark values for the eight designs at
n = 400 with 1000 simulations and 1000 bootstrap replications; tolerances are
about three binomial standard errors unless stated otherwise.  Criteria that
assert exact equalities use no tolerance at all.

Every criterion carries the ``slow`` marker: ``pytest -m "not slow"`` runs
the rest of the suite alone.
"""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

import momentineq as mi
from momentineq import bootstrap
from momentineq.gaussian import open_uniform

SEED = 20240311

pytestmark = pytest.mark.slow


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {num:2d} FAIL: {desc}", flush=True)
        raise
    print(f"\n[acceptance] criterion {num:2d} PASS: {desc}", flush=True)


def scores_sample(scores, n=400):
    scores = np.asarray(scores, dtype=np.float64)
    mu = scores / math.sqrt(n)
    x = np.empty((n, len(scores)))
    x[0::2] = mu + 1.0
    x[1::2] = mu - 1.0
    return x


def test_criterion_01_size_independent_case():
    with criterion(1, "design 1 size, t4 innovations, p=200, rho=0"):
        design = mi.DesignSpec(1, 400, 200, 0.0, "t4")
        mc = mi.McConfig(
            sims=1000, bootstrap_reps=1000, alpha=0.05, beta=0.001,
            methods=("sn1", "mb1", "eb1"), seed=SEED + 1,
        )
        r = mi.run_mc(design, mc).rates
        assert abs(r["sn1"] - 0.047) <= 0.025, r
        assert abs(r["mb1"] - 0.065) <= 0.025, r
        assert abs(r["eb1"] - 0.056) <= 0.025, r


def test_criterion_02_correlation_contrast():
    with criterion(2, "design 1, uniform, p=1000, rho=0.9: bootstrap fixes SN"):
        design = mi.DesignSpec(1, 400, 1000, 0.9, "uniform")
        mc = mi.McConfig(
            sims=1000, bootstrap_reps=1000, alpha=0.05, beta=0.001,
            methods=("sn2", "mb2"), seed=SEED + 2,
        )
        r = mi.run_mc(design, mc).rates
        assert r["sn2"] <= 0.01, r
        assert 0.03 <= r["mb2"] <= 0.08, r


def test_criterion_03_selection_restores_size():
    with criterion(3, "design 2, t4, p=200: selection recovers the nominal size"):
        design = mi.DesignSpec(2, 400, 200, 0.0, "t4")
        mc = mi.McConfig(
            sims=1000, bootstrap_reps=1000, alpha=0.05, beta=0.001,
            methods=("sn1", "sn2"), seed=SEED + 3,
        )
        r = mi.run_mc(design, mc).rates
        assert r["sn1"] <= 0.02, r
        assert 0.025 <= r["sn2"] <= 0.075, r


def test_criterion_04_power_design5():
    with criterion(4, "design 5 power, t4, p=200, rho=0"):
        design = mi.DesignSpec(5, 400, 200, 0.0, "t4")
        mc = mi.McConfig(
            sims=1000, bootstrap_reps=1000, alpha=0.05, beta=0.001,
            methods=("sn1", "mb1", "eb1"), seed=SEED + 4,
        )
        r = mi.run_mc(design, mc).rates
        assert abs(r["sn1"] - 0.696) <= 0.05, r
        assert abs(r["mb1"] - 0.749) <= 0.05, r
        assert abs(r["eb1"] - 0.729) <= 0.05, r


def test_criterion_05_selection_power_gain():
    with criterion(5, "design 8, t4, p=1000, rho=0.5: selection powers up MB"):
        design = mi.DesignSpec(8, 400, 1000, 0.5, "t4")
        mc = mi.McConfig(
            sims=1000, bootstrap_reps=1000, alpha=0.05, beta=0.001,
            methods=("mb1", "mb2"), seed=SEED + 5,
        )
        r = mi.run_mc(design, mc).rates
        assert abs(r["mb1"] - 0.168) <= 0.06, r
        assert abs(r["mb2"] - 0.656) <= 0.06, r
        assert r["mb2"] - r["mb1"] >= 0.3, r


def test_criterion_06_exact_invariant_suite():
    with criterion(6, "exact invariants, no tolerance"):
        rng = np.random.default_rng(SEED)
        x = rng.normal(size=(60, 6)) + 0.1
        stream = mi.SeededStream(SEED + 6)

        def cv(sample, method, B, alpha=0.05, beta=0.001, stream=stream):
            spec = mi.CriticalValueSpec(method, alpha, beta, B)
            return mi.run_test(sample, spec, stream=stream).critical_value

        # column scale invariance of T and of every bootstrap critical value
        scale = np.array([4.0, 0.25, 2.0, 0.5, 8.0, 1.0])
        xs = x * scale
        assert mi.test_statistic(mi.summarize(x)) == mi.test_statistic(mi.summarize(xs))
        for scheme in ("mb", "eb"):
            assert cv(x, scheme + "1", 400) == cv(xs, scheme + "1", 400)
            assert cv(x, scheme + "2", 400) == cv(xs, scheme + "2", 400)
            assert cv(x, "hyb-" + scheme, 400) == cv(xs, "hyb-" + scheme, 400)

        # duplication invariance of MB/EB draws under shared streams
        xdup = np.hstack([x, x[:, [2]]])
        s, sdup = mi.summarize(x), mi.summarize(xdup)
        for scheme in ("MB", "EB"):
            a = bootstrap._values(scheme, x, s, np.arange(6), 400, stream)
            b = bootstrap._values(scheme, xdup, sdup, np.arange(7), 400, stream)
            np.testing.assert_array_equal(a, b)

        # permutation invariance
        perm = np.array([5, 2, 0, 4, 1, 3])
        xp = x[:, perm]
        assert mi.test_statistic(mi.summarize(x)) == mi.test_statistic(mi.summarize(xp))
        for scheme in ("mb", "eb"):
            assert cv(x, scheme + "1", 400) == cv(xp, scheme + "1", 400)

        # two-step equals one-step at level 1 - alpha + 2 beta under full selection
        pos = scores_sample([0.0, 0.4, 0.9, 1.5])
        for scheme in ("mb", "eb"):
            assert cv(pos, scheme + "2", 500) == cv(pos, scheme + "1", 500, alpha=0.05 - 0.002)

        # three-step equals two-step at 4 beta when gradients are informative
        g = scores_sample([0.0, 0.4, 1.2])
        v = scores_sample(np.full(6, 40.0)).reshape(400, 3, 2)
        data = mi.ParametricMomentData(g=g, v=v)
        cfg3 = mi.ThreeStepConfig(
            alpha=0.05, beta=0.001, scheme="MB", replications=500, seed=SEED + 6
        )
        d3 = mi.three_step_test(data, cfg3)
        assert d3.critical_value == cv(g, "mb2", 500, beta=0.002, stream=mi.SeededStream(SEED + 6))
        assert d3.statistic == mi.test_statistic(mi.summarize(g))

        # block partition correctness
        for n, q, rr in [(20, 4, 2), (400, 20, 4), (101, 9, 3)]:
            plan = mi.make_blocks(n, q, rr)
            seen = [i for a, b in plan.large_blocks + plan.small_blocks for i in range(a, b)]
            assert sorted(seen) == list(range(n))
            assert all(b - a == q for a, b in plan.large_blocks)

        # seed and thread determinism of every seeded operation
        assert np.array_equal(
            ndtri(open_uniform(stream.child("z").generator(), 256)),
            ndtri(open_uniform(stream.child("z").generator(), 256)),
        )
        for scheme in ("MB", "EB"):
            np.testing.assert_array_equal(
                bootstrap._values(scheme, x, s, np.array([0, 2]), 300, stream),
                bootstrap._values(scheme, x, s, np.array([0, 2]), 300, stream),
            )
        for method in ("mb1", "mb2", "eb1", "eb2", "hyb-mb", "hyb-eb"):
            spec = mi.CriticalValueSpec(method, replications=300, seed=SEED)
            assert mi.run_test(x, spec) == mi.run_test(x, spec)
        assert mi.three_step_test(data, cfg3) == mi.three_step_test(data, cfg3)
        plan = mi.make_blocks(60, 8, 3)
        assert mi.bmb_test(x, plan, 0.05, 300, stream) == mi.bmb_test(x, plan, 0.05, 300, stream)
        dspec = mi.DesignSpec(1, 50, 4, 0.5, "t4")
        np.testing.assert_array_equal(
            mi.draw_sample(dspec, stream.child("d")), mi.draw_sample(dspec, stream.child("d"))
        )
        mc = mi.McConfig(sims=12, bootstrap_reps=150, methods=("sn1", "eb2"), seed=SEED)
        base = mi.run_mc(dspec, mc)
        assert base.rates == mi.run_mc(dspec, mc).rates
        threaded = dataclasses.replace(mc, threads=3)
        assert base.rates == mi.run_mc(dspec, threaded).rates
        pw = mi.McConfig(sims=10, bootstrap_reps=150, methods=("mb1",), seed=SEED)
        assert (
            mi.power_sweep(40, 3, 0.0, [0.0, 0.5], pw).rates
            == mi.power_sweep(40, 3, 0.0, [0.0, 0.5], pw).rates
        )
        grid = [
            mi.GridPoint(str(k), (float(k),), rng.normal(size=(30, 3)))
            for k in range(4)
        ]
        spec = mi.CriticalValueSpec("mb1", replications=200, seed=SEED)
        assert mi.invert_region(grid, spec).accepted == mi.invert_region(grid, spec).accepted
        approx = mi.ApproxSample(x, mi.summarize(x).means + 0.01)
        spec2 = mi.CriticalValueSpec("eb2", replications=200, seed=SEED)
        assert mi.approximate_two_step_test(approx, spec2) == \
            mi.approximate_two_step_test(approx, spec2)


def test_criterion_07_distributional_oracle():
    with criterion(7, "p=1 multiplier draws are conditionally standard normal"):
        rng = np.random.default_rng(SEED + 7)
        x = rng.normal(loc=0.3, scale=2.0, size=(400, 1))
        s = mi.summarize(x)
        draws = bootstrap._values("MB", x, s, np.arange(1), 100_000, mi.SeededStream(SEED + 7))
        assert kstest(draws, "norm").statistic < 0.01
        assert abs(bootstrap._quantile(draws, 0.95) - 1.6449) <= 0.03


def test_criterion_08_minimax_threshold_behavior():
    with criterion(8, "power 1 just above the detection threshold, size at r=0"):
        n, p, alpha = 400, 200, 0.05
        r_star = 2.0 * math.sqrt(2.0 * math.log(p / alpha) / n)
        grid = [0.0, 0.25 * r_star, 0.5 * r_star, 0.75 * r_star, r_star]
        mc = mi.McConfig(
            sims=500, bootstrap_reps=1000, alpha=alpha,
            methods=("sn1", "mb1"), seed=SEED + 8,
        )
        curve = mi.power_sweep(n, p, 0.0, grid, mc)
        for m in ("sn1", "mb1"):
            rates, ses = curve.rates[m], curve.ses[m]
            assert rates[-1] >= 0.9, (m, rates)
            assert 0.02 <= rates[0] <= 0.09, (m, rates)
            for i in range(4):
                slack = 2.0 * max(ses[i], ses[i + 1])
                assert rates[i + 1] >= rates[i] - slack, (m, rates)


def test_criterion_09_block_bootstrap_size():
    with criterion(9, "block bootstrap size on bounded AR(1)-in-time rows"):
        n, p, phi, burn = 400, 50, 0.5, 50
        plan = mi.make_blocks(n, 20, 4)
        root = mi.SeededStream(SEED + 9)
        c = math.sqrt(1.0 - phi * phi)
        rejects = 0
        reps = 500
        for k in range(reps):
            rep = root.child("mc", k)
            gen = rep.generator()
            u = math.sqrt(3.0) * (2.0 * open_uniform(gen, (n + burn, p)) - 1.0)
            x = np.empty((n + burn, p))
            x[0] = u[0]
            for t in range(1, n + burn):
                x[t] = phi * x[t - 1] + c * u[t]
            d = mi.bmb_test(x[burn:], plan, 0.05, 1000, rep.child("bmb"))
            rejects += d.reject
        rate = rejects / reps
        assert 0.01 <= rate <= 0.10, rate


def test_criterion_10_confidence_region_coverage():
    with criterion(10, "location-model region: exact half-line, >= 93% coverage"):
        n, alpha, theta0 = 400, 0.05, 0.0
        c = mi.sn_one_step(alpha, 1, n)
        spec = mi.CriticalValueSpec("sn1", alpha=alpha)
        thetas = np.linspace(-0.3, 0.3, 13)
        root = mi.SeededStream(SEED + 10)
        covered = 0
        reps = 500
        for k in range(reps):
            xi = ndtri(open_uniform(root.child("mc", k).generator(), n)) + theta0
            grid = [
                mi.GridPoint(f"t{i}", (float(t),), (xi - t)[:, None])
                for i, t in enumerate(thetas)
            ]
            region = mi.invert_region(grid, spec)
            sd = mi.summarize((xi - theta0)[:, None]).sds[0]
            boundary = xi.mean() - c * sd / math.sqrt(n)
            expected = {f"t{i}" for i, t in enumerate(thetas) if t >= boundary}
            assert region.accepted == expected
            covered += not mi.run_test((xi - theta0)[:, None], spec).reject
        assert covered / reps >= 0.93, covered / reps
