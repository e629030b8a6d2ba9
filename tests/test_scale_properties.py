"""The paper's column invariances as exact properties over the whole float range.

Studentization works column by column, so scaling each column by its own
power of two ``2^e``, ``e`` in [-1000, 1013), must leave every statistic,
cutoff, selection and decision bit-identical.  Entries are integers of at
most 2^10 in size, so every scaled entry, mean and deviation stays normal
and exact.  Each property composes the scaling with a column map ``cols``:
a list of column indices that permutes, duplicates or restricts the sample.

- Scale: the test on ``x[:, cols]`` scaled column by column equals the test
  on ``x[:, cols]``, bit for bit, errors included.
- Permutation and duplication: when ``cols`` covers every column, the test
  on ``x[:, cols]`` equals the test on ``x`` up to relabeling the columns.
  The SN formula and the hybrids' SN selection count the columns, so they
  keep permutation only.
- Restriction: a cutoff over a selected set ``S`` is the one-step cutoff of
  the sample restricted to ``S``, at the same stream and level.

The block multiplier bootstrap is not studentized: it keeps one common
scale, with the statistic and the cutoff scaled by the same power of two.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentineq import (
    ApproxSample,
    CriticalValueSpec,
    DegenerateColumnError,
    ParametricMomentData,
    SeededStream,
    ThreeStepConfig,
    UndefinedCriticalValueError,
    approximate_two_step_test,
    bmb_test,
    make_blocks,
    run_test,
    run_tests,
    three_step_test,
)
from momentineq.core import METHODS

ALPHA, BETA, B, SEED = 0.05, 0.001, 100, 5
EXPONENTS = st.integers(-1000, 1012)
ENTRIES = st.integers(-1024, 1024)

# the one-step and two-step bootstrap methods never count the columns
DUPLICATION_SAFE = ("mb1", "mb2", "eb1", "eb2")


def spec(method, alpha=ALPHA):
    return CriticalValueSpec(method, alpha=alpha, beta=BETA, replications=B, seed=SEED)


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type of the named error it raised."""
    try:
        return fn(*args, **kwargs)
    except (DegenerateColumnError, UndefinedCriticalValueError) as exc:
        return type(exc)


def relabeled(cols, d):
    """The decision ``d`` on ``x[:, cols]`` with its column sets mapped back to ``x``."""
    if isinstance(d, type):
        return d

    def back(S):
        return frozenset(cols[j - 1] + 1 for j in S)

    sets = None if d.sets is None else tuple(back(S) for S in d.sets)
    return (d.statistic, d.critical_value, d.reject, back(d.selected), sets)


def labeled(d):
    if isinstance(d, type):
        return d
    return (d.statistic, d.critical_value, d.reject, frozenset(d.selected), d.sets)


@st.composite
def column_maps(draw, p):
    """A permutation of ``range(p)`` with up to two duplicates, or any nonempty list."""
    if draw(st.booleans()):
        return draw(st.permutations(range(p))) + draw(
            st.lists(st.integers(0, p - 1), max_size=2))
    return draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p + 1))


INTEGER_SAMPLES = st.tuples(st.integers(6, 24), st.integers(2, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=ENTRIES))


@st.composite
def mapped_samples(draw):
    """``(x, cols, e)``: an integer sample, a column map and one exponent per mapped column."""
    x = draw(INTEGER_SAMPLES)
    cols = draw(column_maps(x.shape[1]))
    return x, cols, draw(arrays(np.int64, len(cols), elements=EXPONENTS))


def covers(cols, p):
    return set(cols) == set(range(p))


def scaled(y, e):
    """``y`` with column ``j`` times ``2^e[j]`` (and entry ``[:, j, l]`` times ``2^e[j, l]``)."""
    return np.ldexp(y, e)


# the 12 x 2 null sample whose unscaled sqrt(n) * sd overflows at the top of
# the range, duplicated, with the copies at both ends of the range
NULL_AT_THE_TOP = (
    np.column_stack([np.tile([1024.0, -1000.0], 6),
                     np.tile([1024.0, 1024.0, -1024.0, -1024.0], 3)]),
    [1, 0, 1],
    np.array([1012, -1000, 1012]),
)


class TestMethods:
    @settings(max_examples=40, deadline=None)
    @given(mapped_samples())
    @example(NULL_AT_THE_TOP)
    def test_run_test(self, case):
        x, cols, e = case
        y = x[:, cols]
        for method, rule in METHODS.items():
            got = outcome(run_test, scaled(y, e), spec(method), include_diagnostics=True)
            assert got == outcome(run_test, y, spec(method), include_diagnostics=True), method
            if covers(cols, x.shape[1]) and (
                    len(cols) == x.shape[1] or method in DUPLICATION_SAFE):
                assert relabeled(cols, got) == labeled(outcome(run_test, x, spec(method)))
            if rule.selection is not None and rule.scheme != "SN" and not isinstance(got, type) \
                    and got.selected:
                one = spec(rule.scheme.lower() + "1", alpha=ALPHA - rule.m * BETA)
                restricted = y[:, [j - 1 for j in got.selected]]
                assert got.critical_value == run_test(restricted, one).critical_value, method

    @settings(max_examples=30, deadline=None)
    @given(mapped_samples(), st.permutations(list(METHODS)))
    @example(NULL_AT_THE_TOP, list(METHODS))
    def test_run_tests(self, case, methods):
        x, cols, e = case
        y = x[:, cols]
        specs = [spec(m) for m in methods]
        stream = SeededStream(SEED).child("mc", 0)
        got = outcome(run_tests, scaled(y, e), specs, stream)
        assert got == outcome(run_tests, y, specs, stream)
        if covers(cols, x.shape[1]):
            if len(cols) > x.shape[1]:
                specs = [s for s in specs if s.method in DUPLICATION_SAFE]
                got = outcome(run_tests, y, specs, stream)
            base = outcome(run_tests, x, specs, stream)
            if isinstance(got, type):
                assert got == base
            else:
                assert [relabeled(cols, d) for d in got] == [labeled(d) for d in base]


class TestThreeStep:
    @settings(max_examples=30, deadline=None)
    @given(mapped_samples(), st.integers(1, 2), st.data(), st.sampled_from(["MB", "EB"]))
    def test_scaling_g_and_v(self, case, r, data, scheme):
        g, cols, eg = case
        n, p = g.shape
        v = data.draw(arrays(np.float64, (n, p, r), elements=ENTRIES))
        ev = data.draw(arrays(np.int64, (len(cols), r), elements=EXPONENTS))
        cfg = ThreeStepConfig(alpha=ALPHA, beta=BETA, scheme=scheme, replications=B, seed=SEED)
        yg, yv = g[:, cols], v[:, cols]
        got = outcome(lambda a, b: three_step_test(ParametricMomentData(a, b), cfg),
                      scaled(yg, eg), scaled(yv, ev))
        assert got == outcome(lambda a, b: three_step_test(ParametricMomentData(a, b), cfg),
                              yg, yv)
        if covers(cols, p):
            base = outcome(lambda a, b: three_step_test(ParametricMomentData(a, b), cfg), g, v)
            assert relabeled(cols, got) == labeled(base)
        if not isinstance(got, type) and got.selected and got.sets[1]:
            one = spec(scheme.lower() + "1", alpha=ALPHA - 4 * BETA)
            restricted = yg[:, [j - 1 for j in got.selected]]
            assert got.critical_value == run_test(
                restricted, one, stream=SeededStream(SEED)).critical_value


class TestApproximateData:
    @settings(max_examples=30, deadline=None)
    @given(mapped_samples(), st.data(), st.sampled_from(["mb2", "eb2"]))
    def test_scaling_the_data_and_the_means(self, case, data, method):
        x, cols, e = case
        mu = data.draw(arrays(np.float64, x.shape[1], elements=ENTRIES))
        y, ymu = x[:, cols], mu[cols]
        got = outcome(approximate_two_step_test,
                      ApproxSample(scaled(y, e), scaled(ymu, e)), spec(method))
        assert got == outcome(approximate_two_step_test, ApproxSample(y, ymu), spec(method))
        if covers(cols, x.shape[1]):
            base = outcome(approximate_two_step_test, ApproxSample(x, mu), spec(method))
            assert relabeled(cols, got) == labeled(base)


class TestBlockMultiplier:
    @settings(max_examples=30, deadline=None)
    @given(INTEGER_SAMPLES, EXPONENTS)
    @example(NULL_AT_THE_TOP[0], 1012)
    # a column at -2^1022: its score, sqrt(n) times its mean, overflows
    @example(np.column_stack([np.full(24, -1024.0), np.tile([1024.0, -1024.0], 12)]), 1012)
    def test_one_common_scale(self, x, k):
        plan = make_blocks(x.shape[0], 2, 1)
        stream = SeededStream(SEED).child("bmb")
        base = bmb_test(x, plan, ALPHA, B, stream)
        with np.errstate(over="ignore"):
            stat, cv = np.ldexp([base.statistic, base.critical_value], k)
        # the statistic may overflow to inf; with entries of at most 2^10 and
        # n <= 24 the cutoff stays finite
        got = bmb_test(scaled(x, k), plan, ALPHA, B, stream)
        assert (got.statistic, got.critical_value, got.reject) == (stat, cv, base.reject)
        assert got.selected == base.selected
