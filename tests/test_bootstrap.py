"""Bootstrap draw engine: exact conditional laws, exact invariances, quantiles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kstest

from momentineq import (
    BootstrapDraws,
    CriticalValueSpec,
    DegenerateColumnError,
    SeededStream,
    eb_draws,
    empirical_quantile,
    mb_draws,
    run_test,
    sn_one_step,
    sn_select,
    summarize,
)
from momentineq.sn import threshold_select
from score_samples import sample_with_scores


@pytest.fixture(scope="module")
def gauss_sample():
    rng = np.random.default_rng(99)
    return rng.normal(size=(50, 3))


def decision(x, method, B, stream, alpha=0.05, beta=0.001):
    """``run_test`` of ``method`` on ``stream``: every critical value is read off a decision."""
    return run_test(x, CriticalValueSpec(method, alpha, beta, B), stream=stream)


def critical(x, method, B, stream, alpha=0.05, beta=0.001):
    return decision(x, method, B, stream, alpha, beta).critical_value


def selected(x, method, B, stream, alpha=0.05, beta=0.001):
    return frozenset(decision(x, method, B, stream, alpha, beta).selected)


class TestDrawEngines:
    def test_single_column_draws_are_standard_normal(self, gauss_sample):
        # conditional on the data the multiplier draw is exactly N(0,1)
        x = gauss_sample[:, :1]
        d = mb_draws(x, summarize(x), None, 100_000, SeededStream(5))
        stat = kstest(d.values, "norm").statistic
        assert stat < 0.01

    def test_duplicated_column_leaves_mb_draws_bitwise_identical(self, gauss_sample):
        x = gauss_sample
        xdup = np.hstack([x, x[:, [0]]])
        a = mb_draws(x, summarize(x), None, 500, SeededStream(3))
        b = mb_draws(xdup, summarize(xdup), None, 500, SeededStream(3))
        np.testing.assert_array_equal(a.values, b.values)

    def test_duplicated_column_leaves_eb_draws_bitwise_identical(self, gauss_sample):
        x = gauss_sample
        xdup = np.hstack([x, x[:, [0]]])
        a = eb_draws(x, summarize(x), None, 500, SeededStream(3))
        b = eb_draws(xdup, summarize(xdup), None, 500, SeededStream(3))
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_set_gives_zero_draws(self, gauss_sample):
        s = summarize(gauss_sample)
        for fn in (mb_draws, eb_draws):
            d = fn(gauss_sample, s, [], 200, SeededStream(1))
            assert d.restricted_to == frozenset()
            np.testing.assert_array_equal(d.values, np.zeros(200))

    def test_degenerate_column_raises_with_name(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        s = summarize(x)
        for fn in (mb_draws, eb_draws):
            with pytest.raises(DegenerateColumnError, match="2"):
                fn(x, s, None, 200, SeededStream(1))
            # restricting away from the bad column is fine
            fn(x, s, [1], 200, SeededStream(1))

    def test_identical_rows_are_rejected_as_degenerate(self):
        # resampling a constant sample gives zero numerators, but the
        # studentized draw is 0/0: the engine refuses rather than guesses
        x = np.tile([[1.0, -2.0, 3.0]], (6, 1))
        with pytest.raises(DegenerateColumnError):
            eb_draws(x, summarize(x), None, 200, SeededStream(1))

    def test_eb_matches_exhaustive_enumeration(self):
        x = np.array([[0.0], [1.5], [3.0]])
        s = summarize(x)
        # all 27 equally likely resamples of 3 rows
        outcomes = sorted(
            math.sqrt(3) * (np.mean([x[i, 0], x[j, 0], x[k, 0]]) - s.means[0]) / s.sds[0]
            for i, j, k in itertools.product(range(3), repeat=3)
        )
        d = eb_draws(x, s, None, 20_000, SeededStream(17))
        for level in (0.6, 0.9):
            exact = outcomes[math.ceil(level * 27) - 1]
            assert abs(empirical_quantile(d, level) - exact) <= 0.02

    def test_restriction_uses_same_replication_randomness(self, gauss_sample):
        s = summarize(gauss_sample)
        full = mb_draws(gauss_sample, s, None, 300, SeededStream(8))
        sub = mb_draws(gauss_sample, s, [2], 300, SeededStream(8))
        # per replication the restricted max can never exceed the full max
        assert np.all(sub.values <= full.values)


class TestEmpiricalQuantile:
    def test_order_statistic_examples(self):
        d = BootstrapDraws(values=np.array([1.0, 2.0, 3.0, 4.0]), restricted_to=frozenset())
        assert empirical_quantile(d, 0.5) == 2.0
        assert empirical_quantile(d, 0.95) == 4.0

    def test_all_zero_draws(self):
        d = BootstrapDraws(values=np.zeros(100), restricted_to=frozenset())
        assert empirical_quantile(d, 0.37) == 0.0

    def test_level_domain(self):
        d = BootstrapDraws(values=np.arange(10.0), restricted_to=frozenset())
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                empirical_quantile(d, bad)

    def test_float_excess_does_not_skip_an_order_statistic(self):
        # 0.95 * 1000 is a hair above 950 in binary; the guard keeps k at 950
        d = BootstrapDraws(
            values=np.arange(1.0, 1001.0), restricted_to=frozenset()
        )
        assert empirical_quantile(d, 0.95) == 950.0
        assert empirical_quantile(d, 0.952) == 952.0

    def test_monotone_in_level(self):
        rng = np.random.default_rng(0)
        d = BootstrapDraws(values=rng.normal(size=997), restricted_to=frozenset())
        qs = [empirical_quantile(d, lv) for lv in np.linspace(0.01, 0.99, 33)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


class TestOneStep:
    def test_single_column_matches_normal_quantile(self, gauss_sample):
        x = gauss_sample[:, :1]
        assert abs(critical(x, "mb1", 100_000, SeededStream(21)) - 1.6449) <= 0.03

    def test_gaussian_max_upper_bound(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(200, 50))
        bound = math.sqrt(2 * math.log(50)) + math.sqrt(2 * math.log(1 / 0.05))
        assert critical(x, "mb1", 100_000, SeededStream(4)) <= bound + 0.05

    def test_column_permutation_invariance_bitwise(self, gauss_sample):
        perm = np.array([2, 0, 1])
        assert critical(gauss_sample, "eb1", 400, SeededStream(2)) == critical(
            gauss_sample[:, perm], "eb1", 400, SeededStream(2)
        )

    def test_power_of_two_scaling_invariance_bitwise(self, gauss_sample):
        scaled = gauss_sample * np.array([4.0, 0.5, 16.0])
        assert critical(gauss_sample, "mb1", 400, SeededStream(2)) == critical(
            scaled, "mb1", 400, SeededStream(2)
        )


def _outcome(x, spec):
    """The decision of ``run_test``, or the type of the error it raised."""
    try:
        return run_test(x, spec, include_diagnostics=True)
    except DegenerateColumnError as exc:
        return type(exc)


FLOAT_RANGE_SPECS = [
    CriticalValueSpec(m, alpha=0.05, beta=0.001, replications=100, seed=5)
    for m in ("sn1", "mb1", "eb2")
]


class TestFloatRange:
    # Integer entries keep every nonzero entry and mean of the rescaled data
    # normal and every deviation exact, so a power of two changes no bit.
    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st.integers(6, 24), st.integers(2, 4)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.integers(-1024, 1024))
        ),
        st.integers(-1000, 1000),
    )
    def test_power_of_two_scales_are_bitwise_invariant(self, x, e):
        for spec in FLOAT_RANGE_SPECS:
            assert _outcome(x * 2.0 ** e, spec) == _outcome(x, spec)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32), st.floats(-300.0, 300.0))
    def test_real_scales_keep_the_decision(self, seed, u):
        x = np.random.default_rng(seed).normal(size=(40, 3)) + 0.3
        scale = 10.0 ** u
        for spec in FLOAT_RANGE_SPECS:
            a, b = run_test(x, spec), run_test(x * scale, spec)
            assert math.isclose(b.statistic, a.statistic, rel_tol=1e-12)
            assert math.isclose(b.critical_value, a.critical_value, rel_tol=1e-12)
            margin = 1e-12 * max(abs(a.statistic), abs(a.critical_value))
            if abs(a.statistic - a.critical_value) > margin:
                assert b.reject == a.reject


class TestSelection:
    def test_rule_matches_recomputed_threshold(self, gauss_sample):
        s = summarize(gauss_sample)
        d = mb_draws(gauss_sample, s, None, 500, SeededStream(31).child("select"))
        c_beta = empirical_quantile(d, 1 - 0.01)
        assert selected(gauss_sample, "mb2", 500, SeededStream(31), beta=0.01) == \
            threshold_select(s, -2.0 * c_beta)

    def test_crafted_margins(self):
        x = sample_with_scores([1.0, -50.0, 0.0])
        assert selected(x, "mb2", 500, SeededStream(6)) == frozenset({1, 3})

    def test_all_nonnegative_scores_select_all(self):
        x = sample_with_scores([0.0, 0.5, 1.0, 2.0])
        assert selected(x, "eb2", 300, SeededStream(6)) == frozenset({1, 2, 3, 4})

    def test_smaller_beta_weakly_grows_selection(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(100, 12)) - 0.25
        for method in ("mb2", "eb2"):
            small = selected(x, method, 800, SeededStream(9), alpha=0.2, beta=0.001)
            large = selected(x, method, 800, SeededStream(9), alpha=0.2, beta=0.05)
            # same stream, same draws: smaller beta means a larger threshold
            # quantile, a lower cutoff, a weakly larger set
            assert large <= small

    def test_beta_domain(self, gauss_sample):
        with pytest.raises(ValueError):
            selected(gauss_sample, "mb2", 200, SeededStream(1), beta=0.03)


class TestTwoStepAndHybrid:
    def test_full_selection_equals_one_step_at_shifted_level(self):
        x = sample_with_scores([0.0, 0.3, 0.8, 1.5])
        for s in ("mb", "eb"):
            assert critical(x, s + "2", 600, SeededStream(44)) == critical(
                x, s + "1", 600, SeededStream(44), alpha=0.05 - 2 * 0.001
            )

    def test_two_step_at_least_one_step(self):
        x = sample_with_scores([0.0, 0.3, 0.8, 1.5])
        assert critical(x, "mb2", 600, SeededStream(44)) >= critical(
            x, "mb1", 600, SeededStream(44)
        )

    def test_empty_selection_gives_zero(self):
        x = sample_with_scores([-50.0, -80.0])
        assert critical(x, "mb2", 300, SeededStream(5)) == 0.0

    def test_dropping_slack_columns_changes_nothing(self):
        x = sample_with_scores([0.0, -50.0, 0.7])
        kept = sample_with_scores([0.0, 0.7])
        assert selected(x, "mb2", 500, SeededStream(13)) == frozenset({1, 3})
        assert critical(x, "mb2", 500, SeededStream(13)) == critical(
            kept, "mb2", 500, SeededStream(13)
        )

    def test_hybrid_equals_two_step_when_sets_agree(self):
        x = sample_with_scores([0.0, 0.4, 1.1])
        for s in ("mb", "eb"):
            assert critical(x, "hyb-" + s, 500, SeededStream(7)) == critical(
                x, s + "2", 500, SeededStream(7)
            )

    def test_hybrid_empty_selection_gives_zero(self):
        x = sample_with_scores([-60.0, -70.0])
        assert critical(x, "hyb-mb", 300, SeededStream(5)) == 0.0

    def test_hybrid_beta_domain(self, gauss_sample):
        with pytest.raises(ValueError):  # needs beta <= alpha/3
            critical(gauss_sample, "hyb-mb", 200, SeededStream(1), beta=0.02)


class TestRunTest:
    def test_sn1_composition(self):
        x = sample_with_scores([2.0] + [0.0] * 9)
        decision = run_test(x, CriticalValueSpec("sn1", alpha=0.05))
        assert abs(decision.statistic - 2.0) <= 1e-12
        assert abs(decision.critical_value - 2.597462) <= 1e-4
        assert decision.reject is False
        assert decision.selected == tuple(range(1, 11))

    def test_rejects_clear_violation(self):
        x = sample_with_scores([8.0, 0.0])
        for method in ("sn1", "sn2", "mb1", "mb2", "eb1", "eb2", "hyb-mb", "hyb-eb"):
            d = run_test(x, CriticalValueSpec(method, replications=300, seed=2))
            assert d.reject is True, method

    def test_all_zero_data_never_rejects_analytic(self):
        x = np.zeros((20, 3))
        for method in ("sn1", "sn2"):
            d = run_test(x, CriticalValueSpec(method))
            assert d.reject is False
            assert d.statistic == -np.inf

    def test_all_zero_data_bootstrap_raises(self):
        x = np.zeros((20, 3))
        with pytest.raises(DegenerateColumnError):
            run_test(x, CriticalValueSpec("mb1"))

    def test_deterministic_across_calls(self, gauss_sample):
        spec = CriticalValueSpec("eb2", alpha=0.1, beta=0.02, replications=300, seed=123)
        a = run_test(gauss_sample, spec)
        b = run_test(gauss_sample, spec)
        assert a == b

    def test_diagnostics_attached_on_request(self, gauss_sample):
        d = run_test(gauss_sample, CriticalValueSpec("sn1"), include_diagnostics=True)
        assert d.diagnostics is not None
        assert d.diagnostics.bn >= d.diagnostics.m4 >= d.diagnostics.m3

    def test_selected_reported_for_selection_methods(self):
        x = sample_with_scores([0.5, -50.0, 0.1])
        d = run_test(x, CriticalValueSpec("mb2", replications=300, seed=9))
        assert d.selected == (1, 3)
        d2 = run_test(x, CriticalValueSpec("hyb-eb", replications=300, seed=9))
        assert d2.selected == (1, 3)

    def test_hybrid_drops_a_constant_slack_column(self):
        # the SN rule drops a constant negative column, so the bootstrap
        # cutoff never meets its zero variance
        x = np.random.default_rng(3).normal(size=(40, 3))
        x[:, 1] = -2.0
        d = run_test(x, CriticalValueSpec("hyb-mb", replications=300, seed=1))
        assert d.selected == (1, 3)
        assert np.isfinite(d.critical_value)
        with pytest.raises(DegenerateColumnError, match="2"):
            run_test(x, CriticalValueSpec("mb2", replications=300, seed=1))


class TestMethodTable:
    """``run_test`` runs each method on the draws and levels its definition names.

    The reference rebuilds every critical value from the public draw
    engines: selection draws on the ``select`` child of the test's stream
    at level ``1 - beta``, cutoff draws on the ``crit`` child at level
    ``1 - alpha + m beta``, and the analytic formula for the SN scheme.
    """

    ALPHA, BETA, B = 0.05, 0.004, 300

    @staticmethod
    def public(method, x, stream):
        alpha, beta, B = TestMethodTable.ALPHA, TestMethodTable.BETA, TestMethodTable.B
        s = summarize(x)
        everything = frozenset(range(1, s.p + 1))
        if method == "sn1":
            return sn_one_step(alpha, s.p, s.n), everything
        if method == "sn2":
            kept = sn_select(s, beta)
            return sn_one_step(alpha - 2 * beta, len(kept), s.n), kept
        draws = mb_draws if "mb" in method else eb_draws
        if method.endswith("1"):
            crit = draws(x, s, None, B, stream.child("crit"))
            return empirical_quantile(crit, 1 - alpha), everything
        if method.endswith("2"):
            sel = draws(x, s, None, B, stream.child("select"))
            kept = threshold_select(s, -2.0 * empirical_quantile(sel, 1 - beta))
        else:
            kept = sn_select(s, beta)
        crit = draws(x, s, kept, B, stream.child("crit"))
        return empirical_quantile(crit, 1 - alpha + 2 * beta), kept

    @pytest.mark.parametrize(
        "method", ["sn1", "sn2", "mb1", "mb2", "eb1", "eb2", "hyb-mb", "hyb-eb"]
    )
    def test_run_test_matches_public_entry_point(self, method):
        x = sample_with_scores([0.4, -40.0, 0.0, 1.1, -3.0])
        stream = SeededStream(77).child("shared")
        spec = CriticalValueSpec(method, alpha=self.ALPHA, beta=self.BETA,
                                 replications=self.B)
        d = run_test(x, spec, stream=stream)
        cv, kept = self.public(method, x, stream)
        assert d.critical_value == cv
        assert d.selected == tuple(sorted(kept))
