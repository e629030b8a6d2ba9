"""Test inversion duality, the location-model closed form, approximate data."""

import math
import threading
import time

import numpy as np
import pytest

from momentineq import (
    ApproxSample,
    CriticalValueSpec,
    GridPoint,
    GridPointError,
    InputError,
    approximate_two_step_test,
    invert_region,
    run_test,
    sn_one_step,
    summarize,
)
from momentineq import bootstrap, inference


def location_grid(xi, thetas):
    return [
        GridPoint(label=f"t{i}", theta=(float(t),), g_values=(xi - t)[:, None])
        for i, t in enumerate(thetas)
    ]


class TestInvertRegion:
    def test_location_model_matches_half_line(self):
        rng = np.random.default_rng(42)
        xi = rng.normal(loc=1.0, size=80)
        thetas = np.linspace(-1.0, 3.0, 41)
        spec = CriticalValueSpec("sn1", alpha=0.05)
        region = invert_region(location_grid(xi, thetas), spec)
        c = sn_one_step(0.05, 1, 80)
        sd = summarize((xi - 0.0)[:, None]).sds[0]  # invariant to the shift
        boundary = xi.mean() - c * sd / math.sqrt(80)
        expected = {f"t{i}" for i, t in enumerate(thetas) if t >= boundary}
        assert region.accepted == expected

    def test_region_shrinks_as_alpha_grows(self):
        rng = np.random.default_rng(43)
        xi = rng.normal(size=60)
        grid = location_grid(xi, np.linspace(-1, 1, 21))
        tight = invert_region(grid, CriticalValueSpec("sn1", alpha=0.10))
        loose = invert_region(grid, CriticalValueSpec("sn1", alpha=0.05))
        assert tight.accepted <= loose.accepted

    def test_duality_with_run_test(self):
        rng = np.random.default_rng(44)
        grid = [
            GridPoint(label=f"g{k}", theta=(0.0,), g_values=rng.normal(size=(30, 4)))
            for k in range(5)
        ]
        spec = CriticalValueSpec("mb1", replications=300, seed=6)
        region = invert_region(grid, spec)
        from momentineq import SeededStream

        for k, pt in enumerate(grid):
            d = run_test(
                pt.g_values, spec, stream=SeededStream(6).child("theta", k)
            )
            assert (pt.label in region.accepted) == (not d.reject)

    def test_empty_grid(self):
        region = invert_region([], CriticalValueSpec("sn1"))
        assert region.accepted == frozenset()
        assert region.points == ()

    def test_inconsistent_n_rejected(self):
        a = GridPoint("a", (0.0,), np.random.default_rng(0).normal(size=(10, 2)))
        b = GridPoint("b", (0.0,), np.random.default_rng(1).normal(size=(12, 2)))
        with pytest.raises(InputError, match="disagree"):
            invert_region([a, b], CriticalValueSpec("sn1"))

    def test_repeated_label_is_refused(self):
        x = np.random.default_rng(3).normal(size=(10, 1))
        grid = [GridPoint("a", (0.0,), x + 5.0), GridPoint("b", (0.5,), x),
                GridPoint("a", (1.0,), x - 5.0)]
        with pytest.raises(InputError, match="grid label 'a' is repeated"):
            invert_region(grid, CriticalValueSpec("sn1"))

    def test_failing_point_is_named(self):
        bad = np.ones((10, 2))
        bad[:, 1] = np.arange(10)
        grid = [GridPoint("fine", (0.0,), np.random.default_rng(2).normal(size=(10, 2))),
                GridPoint("broken", (1.0,), bad)]
        with pytest.raises(GridPointError, match="broken"):
            invert_region(grid, CriticalValueSpec("mb1", replications=200))


def shifted_grid(points=8, n=120, p=150):
    """Points whose means rise from clearly negative to clearly positive, so some are refused."""
    x = np.random.default_rng(45).normal(size=(n, p))
    return [GridPoint(f"s{k}", (float(k),), x + (k - 5) * 0.12) for k in range(points)]


class TestInversionOnCores:
    """The grid points run on every usable core, and the region does not depend on how many."""

    @pytest.fixture(scope="class")
    def grid(self):
        return shifted_grid()

    @pytest.mark.parametrize("method", ["mb2", "eb2", "hyb-mb", "sn2"])
    def test_regions_do_not_depend_on_the_core_count(self, monkeypatch, grid, method):
        spec = CriticalValueSpec(method, beta=0.01, replications=300, seed=4)
        regions = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(bootstrap, "_PASS_WORKERS", cores)
            regions.append(invert_region(grid, spec))
        assert 0 < len(regions[0].accepted) < len(grid)
        for region in regions[1:]:
            assert region.accepted == regions[0].accepted
            assert region.points == regions[0].points  # statistics and cutoffs, bit for bit

    def test_the_first_failing_point_in_grid_order_is_named(self, monkeypatch, grid):
        # point 5 fails at once, point 2 only after a sleep: point 2 is named
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 2)
        failed = []

        def flaky(sample, spec, *, stream):
            k = stream.path[-1][1]
            if k == 2:
                time.sleep(0.3)
            if k in (2, 5):
                failed.append(k)
                raise ValueError(f"point {k} failed")
            return run_test(sample, spec, stream=stream)

        monkeypatch.setattr(inference, "run_test", flaky)
        with pytest.raises(GridPointError, match="s2") as info:
            invert_region(grid, CriticalValueSpec("sn1"))
        assert failed == [5, 2]
        assert str(info.value.__cause__) == "point 2 failed"

    def test_a_pass_inside_a_grid_point_runs_whole(self, monkeypatch, grid):
        # every product of a pass runs on the thread that runs the pass
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 2)
        mine = threading.local()
        products = []
        draws, product = bootstrap._rowmax_draws, bootstrap._block_run_rowmax

        def pass_here(*args):
            mine.on = True
            try:
                return draws(*args)
            finally:
                mine.on = False

        def product_here(weights, g):
            products.append(getattr(mine, "on", False))
            return product(weights, g)

        monkeypatch.setattr(bootstrap, "_rowmax_draws", pass_here)
        monkeypatch.setattr(bootstrap, "_block_run_rowmax", product_here)
        spec = CriticalValueSpec("mb1", replications=200)
        run_test(grid[0].g_values, spec)
        assert False in products  # a lone test's pass splits
        products.clear()
        invert_region(grid[:4], spec)
        assert products and all(products)


class TestApproximateTwoStep:
    def test_identity_case_is_bitwise_equal(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(60, 5))
        spec = CriticalValueSpec("mb2", replications=400, seed=8)
        exact = run_test(x, spec)
        approx = approximate_two_step_test(
            ApproxSample(xhat=x, muhat=summarize(x).means), spec
        )
        assert approx.statistic == exact.statistic
        assert approx.critical_value == exact.critical_value
        assert approx.reject == exact.reject
        assert approx.selected == exact.selected

    def test_tiny_perturbation_keeps_the_decision(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(60, 5)) - 0.5  # comfortably inside the null
        spec = CriticalValueSpec("eb2", replications=400, seed=9)
        base = approximate_two_step_test(ApproxSample(x, x.mean(axis=0)), spec)
        noisy = approximate_two_step_test(
            ApproxSample(x + 1e-12 * rng.normal(size=x.shape), x.mean(axis=0)), spec
        )
        assert base.reject == noisy.reject is False

    def test_shifted_means_follow_hand_arithmetic(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(40, 3))
        mu0 = x.mean(axis=0)
        shifted = mu0 + 10.0
        d = approximate_two_step_test(
            ApproxSample(x, shifted), CriticalValueSpec("mb2", replications=300)
        )
        sds = np.sqrt(np.mean((x - shifted) ** 2, axis=0))
        expected = float((math.sqrt(40) * shifted / sds).max())
        assert abs(d.statistic - expected) <= 1e-12
        assert d.reject is True

    def test_requires_two_step_method(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(ValueError):
            approximate_two_step_test(
                ApproxSample(x, x.mean(axis=0)), CriticalValueSpec("mb1")
            )

    def test_shape_validation(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(InputError):
            ApproxSample(x, np.zeros(2))


class TestCoverage:
    def test_location_model_quick_coverage(self):
        root_theta = 0.7
        covered = 0
        reps = 150
        rng = np.random.default_rng(60)
        spec = CriticalValueSpec("sn1", alpha=0.05)
        c = sn_one_step(0.05, 1, 100)
        for _ in range(reps):
            xi = rng.normal(loc=root_theta, size=100)
            g = (xi - root_theta)[:, None]
            covered += not run_test(g, spec).reject
            # acceptance of the true point must match the closed form exactly
            s = summarize(g)
            closed = root_theta >= xi.mean() - c * s.sds[0] / 10.0
            assert (not run_test(g, spec).reject) == closed
        assert covered / reps >= 0.90
