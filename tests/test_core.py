"""Summaries, the max statistic, the zero-variance convention, and diagnostics."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentineq import (
    CriticalValueSpec,
    DesignSpec,
    InputError,
    McConfig,
    SeededStream,
    ThreeStepConfig,
    as_sample_matrix,
    bmb_test,
    default_block_lengths,
    exceeds,
    make_blocks,
    power_sweep,
    regularity_diagnostics,
    run_test,
    sn_one_step,
    studentized_scores,
    summarize,
)
from momentineq import test_statistic as max_statistic
from momentineq import bootstrap, core
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


class TestUnderflowingSd:
    # Nine zeros and one 5e-324 is nine zeros and one 1 scaled by 2^-1074:
    # its sd (0.3 * 2^-1074) underflows to 0, yet the column is not constant,
    # and its scaled moments are those of the unit column bit for bit.
    @staticmethod
    def pair():
        tiny = np.column_stack([[0.0] * 9 + [5e-324], np.arange(10) - 5.0])
        unit = np.column_stack([[0.0] * 9 + [1.0], np.arange(10) - 5.0])
        return tiny, unit

    def test_column_is_not_degenerate(self):
        tiny, _ = self.pair()
        s = summarize(tiny)
        assert not s.any_degenerate()
        assert tuple(s.degenerate) == (False, False)

    def test_scores_statistic_and_diagnostics_match_the_unit_column(self):
        tiny, unit = self.pair()
        a, b = summarize(tiny), summarize(unit)
        np.testing.assert_array_equal(studentized_scores(a), studentized_scores(b))
        assert max_statistic(a) == max_statistic(b)
        assert regularity_diagnostics(tiny) == regularity_diagnostics(unit)

    def test_bootstrap_cutoffs_match_the_unit_column(self):
        tiny, unit = self.pair()
        for method in ("mb1", "eb1"):
            spec = CriticalValueSpec(method, alpha=0.05, replications=500, seed=3)
            a, b = run_test(tiny, spec), run_test(unit, spec)
            assert a.critical_value == b.critical_value
            assert a == b


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


def traced_peak(fn):
    """``(fn(), peak bytes traced above the start while fn ran)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


def whole_summary(x, centers=None):
    """``(ms, ss, e)`` of :func:`summarize`, from the whole column-major matrix at once."""
    hi, lo = x.max(axis=0), x.min(axis=0)
    bound = np.maximum(hi, -lo)
    if centers is not None:
        bound = np.maximum(bound, np.abs(centers))
    e = np.frexp(bound)[1]
    xs = np.ldexp(x, -e, order="F")
    ms = xs.mean(axis=0) if centers is None else np.ldexp(centers, -e)
    xs -= ms
    xs *= xs
    ss = np.sqrt(xs.mean(axis=0))
    if centers is None:
        constant = hi == lo
        ms = np.where(constant, np.ldexp(x[0], -e), ms)
        ss = np.where(constant, 0.0, ss)
    return ms, ss, e


def whole_diagnostics(x, s):
    """The diagnostics' expressions over all studentized columns at once."""
    z = core._studentized_columns(x, s, np.arange(s.p), 1.0)
    z2 = z * z
    m3 = float(np.mean(np.abs(z) ** 3, axis=0).max() ** (1 / 3))
    m4 = float(np.mean(z2 * z2, axis=0).max() ** 0.25)
    bn = float(np.mean((z2 * z2).max(axis=1)) ** 0.25)
    return core.RegularityDiagnostics(m3=m3, m4=m4, bn=bn)


class TestColumnBlocks:
    """Every pass over a sample reads it 256 columns at a time, with the bits of the whole matrix."""

    WIDTHS = pytest.mark.parametrize("p", [1, 255, 256, 257, 513])

    @staticmethod
    def sample(n, p, seed=0):
        """Heavy-tailed columns scaled by powers of two up to 2^+-900, the first constant."""
        rng = np.random.default_rng(seed)
        x = rng.standard_t(4, size=(n, p)) + rng.normal(size=p)
        x *= np.ldexp(1.0, rng.integers(-900, 901, size=p))
        if p > 1:
            x[:, 0] = -3.5
        return x

    @WIDTHS
    def test_summary_matches_the_whole_matrix_bitwise(self, p):
        x = self.sample(40, p)
        centers = np.random.default_rng(1).normal(size=p)
        for c in (None, centers):
            s = summarize(x, c)
            for got, want in zip((s.ms, s.ss, s.e), whole_summary(x, c), strict=True):
                assert got.tobytes() == want.tobytes()

    @WIDTHS
    def test_diagnostics_match_the_whole_matrix_bitwise(self, p):
        x = self.sample(40, p, seed=2)
        x[:, 0] = np.arange(40.0)
        s = summarize(x)
        assert core._diagnostics(x, s) == whole_diagnostics(x, s)

    @WIDTHS
    def test_target_matches_the_whole_matrix_bitwise(self, p):
        x = self.sample(40, p, seed=3)
        x[:, 0] = np.arange(40.0)
        s = summarize(x)
        for cols0 in (np.arange(p), np.random.default_rng(4).permutation(p)[:(p + 1) // 2]):
            g = bootstrap._target(x, s, cols0)
            want = core._studentized_columns(x, s, cols0, math.sqrt(40)).astype(
                np.float32, order="F")
            assert g.flags.f_contiguous and g.dtype == np.float32
            assert g.tobytes(order="F") == want.tobytes(order="F")

    def test_first_non_finite_entry_in_row_order_across_blocks(self):
        x = np.zeros((9, 600))
        x[7, 3] = np.nan
        x[4, 300] = -np.inf  # an earlier row, in the second block
        x[4, 520] = np.inf
        with pytest.raises(InputError, match="row 5, column 301"):
            as_sample_matrix(x)

    # n = 256 rows and p = 8192 columns: the sample is 16 MB, a block 0.5 MB
    N, P = 256, 8192

    def block_bytes(self):
        return self.N * core._BLOCK_COLUMNS * 8

    @pytest.fixture(scope="class")
    def wide(self):
        x = np.random.default_rng(5).normal(size=(self.N, self.P))
        return x, summarize(x)

    def test_finiteness_check_holds_a_block_of_flags(self, wide):
        _, peak = traced_peak(lambda: as_sample_matrix(wide[0]))
        assert peak <= 4 * self.N * core._BLOCK_COLUMNS

    def test_summary_holds_a_block_and_vectors_of_p(self, wide):
        _, peak = traced_peak(lambda: summarize(wide[0]))
        assert peak <= 2 * self.block_bytes() + 24 * self.P * 8

    def test_diagnostics_hold_a_few_blocks_and_vectors_of_p(self, wide):
        _, peak = traced_peak(lambda: core._diagnostics(*wide))
        assert peak <= 5 * self.block_bytes() + 8 * self.P * 8

    def test_target_holds_its_result_and_one_block(self, wide):
        g, peak = traced_peak(lambda: bootstrap._target(*wide, np.arange(self.P)))
        assert peak <= g.nbytes + 2 * self.block_bytes()


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
        CriticalValueSpec("sn1", replications=1000.5, seed=1.5)

    @pytest.mark.parametrize("method", ["sn1", "mb1", "eb1", "sn2", "mb2", "hyb-eb"])
    @pytest.mark.parametrize("beta", [float("inf"), float("nan")])
    def test_rejects_non_finite_beta_for_every_method(self, method, beta):
        with pytest.raises(ValueError, match="beta"):
            CriticalValueSpec(method, beta=beta)


_X = np.random.default_rng(5).normal(size=(40, 3))
_PLAN = make_blocks(40, 3, 1)


class TestIntegerSettings:
    # a float count or seed is refused, never truncated to a nearby integer
    @pytest.mark.parametrize("make", [
        lambda: CriticalValueSpec("mb1", replications=1000.5),
        lambda: CriticalValueSpec("mb1", replications=1000.0),
        lambda: CriticalValueSpec("mb1", seed=1.5),
        lambda: ThreeStepConfig(alpha=0.05, replications=500.5),
        lambda: McConfig(sims=5, bootstrap_reps=100.5),
        lambda: McConfig(sims=5, seed=2.5),
        lambda: bmb_test(_X, _PLAN, 0.05, 1000.7, SeededStream(1)),
        lambda: SeededStream(1.5),
    ], ids=["spec-B", "spec-B-whole", "spec-seed", "threestep-B", "mc-B", "mc-seed",
            "bmb-B", "stream-seed"])
    def test_non_integer_is_refused(self, make):
        with pytest.raises(ValueError, match="integer"):
            make()

    def test_numpy_integers_pass(self):
        spec = CriticalValueSpec("mb1", replications=np.int64(300), seed=np.uint64(3))
        assert run_test(_X, spec) == run_test(_X, CriticalValueSpec("mb1", replications=300, seed=3))
        bmb = bmb_test(_X, _PLAN, 0.05, np.int32(150), SeededStream(1))
        assert bmb == bmb_test(_X, _PLAN, 0.05, 150, SeededStream(1))


_MC = McConfig(sims=1, methods=("sn1",))

# (id, call with the count put in, the argument its message names, least, below)
COUNTS = [
    ("spec-B", lambda v: CriticalValueSpec("mb1", replications=v), "replications", 100, 2 ** 63),
    ("spec-seed", lambda v: CriticalValueSpec("mb1", seed=v), "seed", 0, 2 ** 64),
    ("stream-seed", lambda v: SeededStream(v), "master_seed", 0, 2 ** 64),
    ("stream-index", lambda v: SeededStream(1).child("a", v), "path index", 0, 2 ** 63),
    ("design", lambda v: DesignSpec(v, 40, 3, 0.0, "t4"), "design", 1, 9),
    ("design-n", lambda v: DesignSpec(1, v, 3, 0.0, "t4"), "n", 2, 2 ** 63),
    ("design-p", lambda v: DesignSpec(1, 40, v, 0.0, "t4"), "p", 1, 2 ** 63),
    ("mc-sims", lambda v: McConfig(sims=v, methods=("sn1",)), "sims", 1, 2 ** 63),
    ("mc-threads", lambda v: McConfig(sims=1, methods=("sn1",), threads=v), "threads", 1, 2 ** 63),
    ("sweep-n", lambda v: power_sweep(v, 3, 0.0, [0.0], _MC), "n", 2, 2 ** 63),
    ("sweep-p", lambda v: power_sweep(40, v, 0.0, [0.0], _MC), "p", 1, 2 ** 63),
    ("blocks-n", lambda v: make_blocks(v, 5, 2), "n", 1, 2 ** 63),
    ("blocks-q", lambda v: make_blocks(300, v, 2), "q", 1, 2 ** 63),
    ("blocks-r", lambda v: make_blocks(300, 5, v), "r", 1, 2 ** 63),
    ("default-blocks-n", lambda v: default_block_lengths(v), "n", 1, 2 ** 63),
    ("sn-p", lambda v: sn_one_step(0.05, v, 400), "p", 1, 2 ** 63),
    ("sn-n", lambda v: sn_one_step(0.05, 3, v), "n", 2, 2 ** 63),
    ("bmb-B", lambda v: bmb_test(_X, _PLAN, 0.05, v, SeededStream(1)), "replications", 100,
     2 ** 63),
    ("threestep-eb-B", lambda v: ThreeStepConfig(alpha=0.05, scheme="EB", replications=v),
     "replications", 100, 2 ** 63),
]


def bad_counts(least, below, none_ok):
    """Values no count in ``[least, below)`` may take: anything but an integer in range."""
    return st.one_of(
        st.booleans(),
        st.just(np.True_),
        st.floats().filter(lambda v: not v.is_integer()),
        st.integers(-(2 ** 70), 2 ** 70).map(float),
        st.text(max_size=3),
        st.nothing() if none_ok else st.none(),
        st.integers(max_value=least - 1),
        st.integers(min_value=below),
    )


class TestCountContract:
    # every count, seed and stream path index goes through one check
    @pytest.mark.parametrize("make, name", [
        (lambda: make_blocks(300, 5.9, 2), "q"),
        (lambda: sn_one_step(0.05, 2.5, 400), "p"),
        (lambda: McConfig(sims=True), "sims"),
        (lambda: CriticalValueSpec("mb1", seed=True), "seed"),
        (lambda: power_sweep(40.5, 3, 0.0, [0.0], _MC), "n"),
        (lambda: McConfig(sims=2.5), "sims"),
        (lambda: McConfig(sims=1, threads=1.5), "threads"),
        (lambda: default_block_lengths(-8), "n"),
        (lambda: sn_one_step(0.05, 10 ** 400, 400), "p"),
    ], ids=["blocks-q-float", "sn-p-float", "sims-bool", "seed-bool", "sweep-n-float",
            "sims-float", "threads-float", "blocks-n-negative", "sn-p-huge"])
    def test_named_error_where_a_count_was_truncated_or_crashed(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            make()

    @pytest.mark.parametrize("call, name, least, below", [row[1:] for row in COUNTS],
                             ids=[row[0] for row in COUNTS])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_bad_count_raises_a_named_value_error(self, call, name, least, below, data):
        value = data.draw(bad_counts(least, below, none_ok=name == "threads"))
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
            call(value)

    @pytest.mark.parametrize("value", [1, np.int8(1), np.uint64(1)])
    def test_integers_in_range_pass_as_int(self, value):
        assert type(core.check_count("p", value)) is int and core.check_count("p", value) == 1
        top = core.check_count("seed", np.uint64(2 ** 64 - 1), least=0, below=2 ** 64)
        assert top == 2 ** 64 - 1
