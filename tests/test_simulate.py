"""Design data generators and the Monte Carlo harness."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.special import ndtri

from momentineq import (
    DesignSpec,
    McConfig,
    SeededStream,
    draw_sample,
    power_sweep,
    run_mc,
    run_test,
)
from momentineq import bootstrap, core, gaussian, simulate
from momentineq.gaussian import open_uniform
from momentineq.simulate import _apply_ar, _apply_equi, _slabs


def sigma_for(p, rho, structure):
    if structure == "EQUI":
        s = np.full((p, p), rho)
        np.fill_diagonal(s, 1.0)
        return s
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def slab_filled(stream, shape, dist):
    """The innovations that ``_slabs`` yields slab by slab, written into one matrix."""
    out = np.empty(shape)
    for slab, eps in _slabs(stream, out, dist):
        slab[...] = eps
    return out


# piece sizes; for a 70 x 33 draw: a row longer than a piece (one row a
# slab), 132 scalars (four-row slabs and a short last one of two rows), and
# the default (one slab)
PIECES = (10, 132, 32_768)


def applied_factor(p, rho, structure):
    """The ``p x p`` factor ``A`` that ``draw_sample`` applies to each row: ``y = eps @ A``."""
    apply = _apply_equi if structure == "EQUI" else _apply_ar
    return apply(np.eye(p), rho)


class TestCovarianceFactor:
    def test_rho_zero_is_identity(self):
        for structure in ("EQUI", "AR"):
            np.testing.assert_array_equal(
                applied_factor(5, 0.0, structure), np.eye(5)
            )

    def test_equi_two_by_two(self):
        a = applied_factor(2, 0.5, "EQUI")
        target = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.abs(a.T @ a - target).max() <= 1e-12

    def test_ar_three_by_three_corner(self):
        a = applied_factor(3, 0.9, "AR")
        assert abs((a.T @ a)[0, 2] - 0.81) <= 1e-12

    @pytest.mark.parametrize("structure", ["EQUI", "AR"])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("p", [1, 2, 7, 60])
    def test_reconstruction_grid(self, structure, rho, p):
        a = applied_factor(p, rho, structure)
        assert np.abs(a.T @ a - sigma_for(p, rho, structure)).max() <= 1e-10

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            DesignSpec(1, 50, 4, rho=1.0, dist="t4")
        with pytest.raises(ValueError):
            DesignSpec(3, 50, 4, rho=-0.2, dist="t4")


class TestInnovations:
    @pytest.mark.parametrize("dist", ["t4", "uniform", "normal"])
    def test_unit_variance_at_one_million_draws(self, dist):
        e = slab_filled(SeededStream(42).child(dist), (1000, 1000), dist)
        assert abs(e.var() - 1.0) <= 0.01
        assert abs(e.mean()) <= 0.005

    def test_uniform_support(self):
        e = slab_filled(SeededStream(1), (100, 100), "uniform")
        assert e.min() > -np.sqrt(3) and e.max() < np.sqrt(3)

    def test_t4_heavy_tails(self):
        e = slab_filled(SeededStream(2), (1000, 200), "t4")
        # normalized t(4) exceeds 3 far more often than a normal would
        assert (np.abs(e) > 3.0).mean() > 0.005

    # at the default piece, (400, 1000) and (400, 200) take thirteen and
    # three slabs, the last short, and a row of (3, 40000) is longer than a
    # piece, so each row is a slab; the smaller pieces split (7, 3) too
    @pytest.mark.parametrize("shape", [(400, 1000), (400, 200), (7, 3), (3, 40_000)])
    def test_t4_matches_the_closed_form_bitwise(self, monkeypatch, shape):
        gen = SeededStream(9).generator()
        z, u1, u2 = (open_uniform(gen, shape) for _ in range(3))
        expected = math.sqrt(2.0) * ndtri(z) / np.sqrt(-2.0 * (np.log(u1) + np.log(u2)))
        for piece in PIECES:
            monkeypatch.setattr(gaussian, "_PIECE_SCALARS", piece)
            e = slab_filled(SeededStream(9), shape, "t4")
            assert e.dtype == np.float64 and e.shape == shape
            assert e.tobytes() == expected.tobytes(), piece


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

    @staticmethod
    def out_of_place(gen, n, p, dist, structure, rho):
        """``draw_sample``'s arithmetic as plain expressions, each step a new array."""
        if dist == "t4":
            z = ndtri(open_uniform(gen, (n, p)))
            v = -2.0 * (np.log(open_uniform(gen, (n, p))) + np.log(open_uniform(gen, (n, p))))
            eps = math.sqrt(2.0) * z / np.sqrt(v)
        elif dist == "uniform":
            eps = math.sqrt(3.0) * (2.0 * open_uniform(gen, (n, p)) - 1.0)
        else:
            eps = ndtri(open_uniform(gen, (n, p)))
        if structure == "EQUI":
            a = math.sqrt(1.0 - rho)
            b = (math.sqrt(1.0 - rho + p * rho) - a) / p
            return a * eps + b * eps.sum(axis=1, keepdims=True)
        if rho == 0.0:
            return eps
        scaled = eps.copy()
        scaled[:, 1:] *= math.sqrt(1.0 - rho * rho)
        return lfilter([1.0], [1.0, -rho], scaled, axis=1)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("dist", ["t4", "uniform"])
    @pytest.mark.parametrize("design", [1, 3, 6, 8])
    def test_matches_the_out_of_place_expressions_bitwise(self, monkeypatch, design, dist, rho):
        spec = DesignSpec(design, 70, 33, rho, dist)
        for seed in range(3):
            stream = SeededStream(seed).child("mc", 2)
            y = self.out_of_place(stream.generator(), 70, 33, dist, spec.structure, rho)
            expected = spec.mean_vector() + y
            for piece in PIECES:
                monkeypatch.setattr(gaussian, "_PIECE_SCALARS", piece)
                x = draw_sample(spec, stream)
                assert x.view(np.int64).tolist() == expected.view(np.int64).tolist(), piece

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_power_sweep_innovations_match_the_out_of_place_expressions_bitwise(
            self, monkeypatch, rho):
        # power_sweep's base sample: normal innovations, equicorrelated when
        # rho > 0, plus each r; the replication loop is swapped for one that
        # keeps the samples of one replication on ``stream``
        drawn = []

        def rejections(mc, samples):
            drawn.extend(samples(stream))
            return np.zeros((1, 2, 1))

        monkeypatch.setattr(simulate, "_rejections", rejections)
        for seed in range(3):
            stream = SeededStream(seed).child("mc", 1)
            base = self.out_of_place(stream.generator(), 70, 33, "normal", "EQUI", rho)
            for piece in PIECES:
                monkeypatch.setattr(gaussian, "_PIECE_SCALARS", piece)
                drawn.clear()
                power_sweep(70, 33, rho, [0.0, 0.25], McConfig(sims=1, methods=("sn1",)))
                for x, r in zip(drawn, (0.0, 0.25), strict=True):
                    assert x.view(np.int64).tolist() == (base + r).view(np.int64).tolist(), piece

    def test_peak_beyond_the_sample_is_about_one_slab(self):
        # the t4 draw reads three uniform arrays and the AR filter makes a
        # fourth: a whole-matrix draw peaks at four samples beyond its own
        spec = DesignSpec(8, 64, 8192, 0.5, "t4")
        draw_sample(spec, SeededStream(1))  # scipy.signal is loaded
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            x = draw_sample(spec, SeededStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base - x.nbytes <= 8 * gaussian._PIECE_SCALARS * 8


class TestRunMc:
    def test_thread_count_does_not_change_rates(self):
        design = DesignSpec(1, 60, 5, 0.0, "uniform")
        mc1 = McConfig(
            sims=24, bootstrap_reps=200, methods=("sn1", "mb1"), seed=4, threads=1
        )
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

    @staticmethod
    def counted_replication(monkeypatch, design):
        """The decisions and the pass and summary calls of one ``run_mc`` replication."""
        calls, decisions = [], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        def recorded(*args):
            decisions.extend(run_tests(*args))
            return decisions[-4:]

        run_tests = simulate.run_tests
        monkeypatch.setattr(simulate, "run_tests", recorded)
        for name in ("_mb_values", "_eb_values"):
            monkeypatch.setattr(bootstrap, name, counted(name, getattr(bootstrap, name)))
        summarize = counted("summarize", core.summarize)
        for module in (core, bootstrap):
            monkeypatch.setattr(module, "summarize", summarize)
        run_mc(design, McConfig(sims=1, bootstrap_reps=200,
                                methods=("mb1", "mb2", "eb1", "eb2"), seed=3))
        return [len(d.selected) for d in decisions], sorted(calls)

    def test_one_replication_shares_a_pass_per_scheme_and_one_summary(self, monkeypatch):
        # design 1 keeps every column binding, so both selections keep all
        # five columns and their cutoffs reuse the all-column pass
        kept, calls = self.counted_replication(monkeypatch, DesignSpec(1, 60, 5, 0.0, "uniform"))
        assert kept == [5, 5, 5, 5]
        assert calls == ["_eb_values", "_mb_values", "summarize"]

    def test_a_selection_that_drops_a_column_adds_one_pass_per_scheme(self, monkeypatch):
        # design 2 with gamma = 0.4 makes the last three of five columns slack
        design = DesignSpec(2, 200, 5, 0.0, "uniform", gamma=0.4)
        kept, calls = self.counted_replication(monkeypatch, design)
        assert kept == [5, 2, 5, 2]
        assert calls == ["_eb_values"] * 2 + ["_mb_values"] * 2 + ["summarize"]

    def test_each_replication_decides_as_run_test(self):
        design = DesignSpec(8, 400, 10, 0.5, "t4", gamma=0.3)
        mc = McConfig(sims=8, bootstrap_reps=200, methods=tuple(core.METHODS), seed=7)
        reps = [SeededStream(7).child("mc", k) for k in range(mc.sims)]
        lone = [[float(run_test(draw_sample(design, rep), spec, stream=rep).reject)
                 for spec in mc.specs()] for rep in reps]
        got = simulate._rejections(mc, lambda rep: [draw_sample(design, rep)])[:, 0]
        assert got.tolist() == lone
        assert 0.0 < got.mean() < 1.0  # some replications reject and some do not
        assert run_mc(design, mc).rates == dict(zip(mc.methods, got.mean(axis=0)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(sims=0)
        with pytest.raises(ValueError):
            McConfig(sims=10, threads=0)
        with pytest.raises(ValueError):
            McConfig(sims=10, methods=())

    def test_a_repeated_method_is_refused(self):
        # it used to run twice and fold into one rate
        with pytest.raises(ValueError, match="method 'mb1' is listed more than once"):
            McConfig(sims=10, methods=("mb1", "MB1", "sn1"))

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
        serial = power_sweep(60, 5, 0.3, [0.0, 0.3], McConfig(threads=1, **kw))
        pooled = power_sweep(60, 5, 0.3, [0.0, 0.3], McConfig(threads=2, **kw))
        assert serial.rates == pooled.rates
        assert serial.ses == pooled.ses

    def test_rejects_negative_shift(self):
        mc = McConfig(sims=10, methods=("sn1",), seed=1)
        with pytest.raises(ValueError):
            power_sweep(50, 3, 0.0, [-0.1, 0.2], mc)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_shift_before_any_replication(self, r, monkeypatch):
        monkeypatch.setattr(simulate, "_rejections", lambda *a: pytest.fail("replications ran"))
        with pytest.raises(ValueError, match="signal strengths must be finite"):
            power_sweep(40, 3, 0.0, [0.0, r], McConfig(sims=2, methods=("sn1",), seed=1))

    @pytest.mark.parametrize("rho", [-0.5, 1.0, 1.5, float("nan")])
    def test_rejects_rho_outside_the_unit_interval_before_any_replication(self, rho, monkeypatch):
        monkeypatch.setattr(simulate, "_rejections", lambda *a: pytest.fail("replications ran"))
        with pytest.raises(ValueError, match="rho"):
            power_sweep(40, 3, rho, [0.0], McConfig(sims=2, methods=("sn1",), seed=1))


class TestDefaultThreads:
    """``threads=None`` runs the replications on one thread per usable core."""

    design = DesignSpec(1, 40, 6, 0.0, "uniform")
    kw = dict(sims=8, bootstrap_reps=100, methods=("sn1", "mb1"), seed=5)

    @staticmethod
    def threads_seen(monkeypatch, cores):
        """Set the usable core count, and record the thread of every replication."""
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", cores)
        seen = []
        original = simulate.run_tests

        def recorded(*args, **kwargs):
            seen.append(threading.get_ident())
            time.sleep(0.01)  # let the other pool thread take the next replication
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "run_tests", recorded)
        return seen

    def test_run_mc_default_runs_on_every_core(self, monkeypatch):
        serial = run_mc(self.design, McConfig(threads=1, **self.kw))
        seen = self.threads_seen(monkeypatch, 2)
        pooled = run_mc(self.design, McConfig(**self.kw))
        assert len(seen) == 8 and len(set(seen)) == 2
        assert threading.get_ident() not in seen
        assert pooled.rates == serial.rates and pooled.ses == serial.ses

    def test_power_sweep_default_runs_on_every_core(self, monkeypatch):
        serial = power_sweep(40, 6, 0.3, [0.0, 0.4], McConfig(threads=1, **self.kw))
        seen = self.threads_seen(monkeypatch, 2)
        pooled = power_sweep(40, 6, 0.3, [0.0, 0.4], McConfig(**self.kw))
        assert len(seen) == 16 and len(set(seen)) == 2
        assert threading.get_ident() not in seen
        assert pooled.rates == serial.rates and pooled.ses == serial.ses

    @pytest.mark.parametrize("threads, cores, sims", [
        (1, 2, 8),     # the opt-out
        (None, 1, 8),  # one usable core
        (None, 2, 1),  # one replication: on the calling thread, its passes split
    ])
    def test_serial_runs_on_the_calling_thread(self, monkeypatch, threads, cores, sims):
        seen = self.threads_seen(monkeypatch, cores)
        run_mc(self.design, McConfig(**{**self.kw, "sims": sims, "threads": threads}))
        assert len(seen) == sims and set(seen) == {threading.get_ident()}

    @pytest.mark.parametrize("threads, cores, sims, workers", [
        (None, 2, 8, 2), (None, 4, 3, 3), (None, 1, 8, 1), (3, 2, 1, 1), (1, 4, 8, 1),
        (1000, 2, 1000, 2),  # resolved only: no run starts that many threads
    ])
    def test_resolved_worker_count(self, monkeypatch, threads, cores, sims, workers):
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", cores)
        mc = McConfig(**{**self.kw, "sims": sims, "threads": threads})
        assert simulate._workers(mc) == workers


@pytest.fixture
def blas():
    """numpy's OpenBLAS thread count, set to 2 for the test and restored after it."""
    api = bootstrap._openblas()
    if api is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, put = api
    before = get()
    put(2)
    yield get
    put(before)


def blas_counts(monkeypatch, get):
    """The BLAS thread count seen by every product of a bootstrap pass, on any thread."""
    seen = []
    original = bootstrap._block_run_rowmax

    def recorded(*args, **kwargs):
        seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(bootstrap, "_block_run_rowmax", recorded)
    return seen


class TestBlasPin:
    """Every bootstrap pass runs its products on one OpenBLAS thread, pooled or serial."""

    design = DesignSpec(1, 40, 130, 0.0, "uniform")  # three column blocks: products split

    @pytest.mark.parametrize("threads", [None, 2])
    def test_pooled_run_uses_one_blas_thread_and_restores(self, blas, monkeypatch, threads):
        seen = blas_counts(monkeypatch, blas)
        run_mc(self.design, McConfig(sims=4, methods=("sn1", "mb1"), threads=threads))
        assert seen and set(seen) == {1}
        assert blas() == 2

    @pytest.mark.parametrize("threads", [1])
    def test_serial_run_pins_blas_during_products(self, blas, monkeypatch, threads):
        seen = blas_counts(monkeypatch, blas)
        run_mc(self.design, McConfig(sims=3, methods=("sn1", "mb1"), threads=threads))
        assert seen and set(seen) == {1}
        assert blas() == 2

    def test_restored_after_a_replication_raises(self, blas, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("product failed")

        monkeypatch.setattr(bootstrap, "_block_run_rowmax", failing)
        with pytest.raises(RuntimeError, match="product failed"):
            run_mc(self.design, McConfig(sims=4, methods=("mb1",), threads=2))
        assert blas() == 2
        with pytest.raises(RuntimeError, match="product failed"):
            run_mc(self.design, McConfig(sims=1, methods=("mb1",)))
        assert blas() == 2

    def test_restored_when_the_last_of_two_concurrent_runs_ends(self, blas):
        started = {seed: threading.Event() for seed in (1, 2)}
        release = {seed: threading.Event() for seed in (1, 2)}

        def held(seed):
            def weights(gen, out):
                started[seed].set()
                release[seed].wait(30)
                return bootstrap._normal_weights(gen, out)
            return weights

        runs = {
            seed: threading.Thread(target=bootstrap._rowmax_draws, args=(
                held(seed), np.ones((4, 2)), 100, SeededStream(seed)))
            for seed in (1, 2)
        }
        try:
            for seed in (1, 2):
                runs[seed].start()
                assert started[seed].wait(30)
            assert blas() == 1
            release[1].set()
            runs[1].join(30)
            assert not runs[1].is_alive()
            assert blas() == 1
            release[2].set()
            runs[2].join(30)
            assert not runs[2].is_alive()
            assert blas() == 2
        finally:
            for event in release.values():
                event.set()

    def test_concurrent_entries_restore_once(self, blas):
        inside = []
        start = threading.Barrier(8)

        def enter_and_leave():
            start.wait(30)
            for _ in range(1000):
                with bootstrap._one_blas_thread:
                    time.sleep(0)  # let the other threads enter and leave
                    inside.append(blas())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(inside) == 8 * 1000 and set(inside) == {1}
        assert blas() == 2

    def test_does_nothing_without_a_bundled_openblas(self, blas, monkeypatch):
        monkeypatch.setattr(bootstrap, "_openblas", lambda: None)
        seen = blas_counts(monkeypatch, blas)
        run_mc(self.design, McConfig(sims=4, methods=("sn1", "mb1"), threads=2))
        assert seen and set(seen) == {2}

    def test_power_sweep_runs_pinned(self, blas, monkeypatch):
        seen = blas_counts(monkeypatch, blas)
        power_sweep(40, 3, 0.0, [0.0, 0.5], McConfig(sims=3, methods=("sn1", "mb1"), threads=2))
        assert seen and set(seen) == {1}
        assert blas() == 2
