"""Block partitions and the block multiplier bootstrap."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from momentineq import (
    BlockPlan,
    SeededStream,
    UndefinedCriticalValueError,
    bmb_test,
    default_block_lengths,
    make_blocks,
    summarize,
)
from momentineq import dependent
from momentineq.bootstrap import _blocked_rowmax, _quantile
from momentineq.gaussian import open_uniform


class TestMakeBlocks:
    def test_worked_partition(self):
        plan = make_blocks(20, 4, 2)
        assert plan.m == 3
        assert plan.large_blocks == ((0, 4), (6, 10), (12, 16))
        assert plan.small_blocks == ((4, 6), (10, 12), (16, 18), (18, 20))

    def test_partition_covers_everything_disjointly(self):
        for n, q, r in [(20, 4, 2), (100, 7, 3), (400, 20, 4), (50, 10, 2)]:
            plan = make_blocks(n, q, r)
            seen = []
            for a, b in plan.large_blocks + plan.small_blocks:
                seen.extend(range(a, b))
            assert sorted(seen) == list(range(n))
            assert len(seen) == len(set(seen))
            assert all(b - a == q for a, b in plan.large_blocks)
            assert all(b - a == r for a, b in plan.small_blocks[:-1])

    def test_plan_memory_does_not_grow_with_n(self):
        # listing every block as a pair took 360 MB at n = 10^7
        tracemalloc.start()
        try:
            plan = make_blocks(10**9, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.m == 10**9 // 7
        assert peak < 2**20

    def test_constraints(self):
        with pytest.raises(ValueError):
            make_blocks(10, 4, 2)  # q + r > n/2
        with pytest.raises(ValueError):
            make_blocks(100, 3, 3)  # r must be < q
        with pytest.raises(ValueError):
            make_blocks(100, 3, 0)

    @pytest.mark.parametrize("fields, message", [
        ({"n": 200, "q": 50, "r": 10, "m": 10}, r"need m = n // \(q \+ r\) = 3, got 10"),
        ({"n": 200, "q": 5, "r": 2, "m": 29}, r"need m = n // \(q \+ r\) = 28, got 29"),
        ({"n": 10, "q": 4, "r": 2, "m": 1}, r"need q \+ r <= n/2"),
        ({"n": 100, "q": 3, "r": 3, "m": 16}, "need r < q"),
        ({"n": 100, "q": 3, "r": 0, "m": 33}, "^r must be an integer"),
        ({"n": 200, "q": 5, "r": 2, "m": 28.0}, "^m must be an integer"),
    ], ids=["blocks-past-n", "one-block-too-many", "one-cycle", "r-not-below-q", "r-zero",
            "float-m"])
    def test_a_plan_checks_itself(self, fields, message):
        # bmb_test on the first plan built by hand summed "blocks" starting past row 200
        with pytest.raises(ValueError, match=message):
            BlockPlan(**fields)
        assert BlockPlan(n=200, q=5, r=2, m=28) == make_blocks(200, 5, 2)

    def test_default_lengths(self):
        q, r = default_block_lengths(400)
        assert (q, r) == (7, 2)
        assert make_blocks(400, q, r).m == 400 // 9
        assert default_block_lengths(200) == (5, 2)

    @staticmethod
    def integer_root(n, k):
        """``floor(n^(1/k))`` by bisection over integers."""
        lo, hi = 0, 1 << (n.bit_length() // k + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid ** k <= n else (lo, mid)
        return lo

    def test_default_lengths_are_exact_at_perfect_powers(self):
        # 64 gave (3, 2), 4096 gave (15, 3) and 10**6 gave q = 99 from float roots
        assert default_block_lengths(64) == (4, 2)
        assert default_block_lengths(4096) == (16, 4)
        cubes = [k ** 3 for k in [*range(1, 300), *range(300, 2 ** 21, 997),
                                  *range(2 ** 21 - 3, 2 ** 21)]]
        sixths = [k ** 6 for k in range(1, 1291)]  # 1290^6 < 2^62 < 1291^6
        ns = {m + d for m in cubes + sixths for d in (-1, 0, 1)} - {0, 2 ** 63}
        for n in sorted(ns):
            assert default_block_lengths(n) == (
                self.integer_root(n, 3), max(1, self.integer_root(n, 6))), n


def bmb_statistic(x):
    """The statistic ``bmb_test`` reports for ``x`` (row count at least 6)."""
    x = np.asarray(x, dtype=np.float64)
    plan = make_blocks(x.shape[0], 2, 1)
    return bmb_test(x, plan, 0.05, 100, SeededStream(0)).statistic


class TestNonstudentizedStatistic:
    # dyadic data with n = 16, so sqrt(n) = 4 and every value is exact
    def test_hand_arithmetic(self):
        assert bmb_statistic(np.tile([[0, -1], [2, 1]], (8, 1))) == 4.0

    def test_zero_means(self):
        assert bmb_statistic(np.tile([[1.0, -1.0], [-1.0, 1.0]], (8, 1))) == 0.0

    def test_not_scale_invariant(self):
        x = np.tile([[0.0], [2.0]], (8, 1))
        a = bmb_statistic(x)
        b = bmb_statistic(2.0 * x)
        assert b == 2.0 * a != a


def bmb_cutoff(x, plan, alpha, B, stream):
    return bmb_test(x, plan, alpha, B, stream).critical_value


class TestBmbCritical:
    def test_constant_data_gives_zero(self):
        x = np.tile([[3.0, -1.0]], (24, 1))
        plan = make_blocks(24, 4, 2)
        assert bmb_cutoff(x, plan, 0.05, 300, SeededStream(1)) == 0.0

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 3))
        plan = make_blocks(30, 5, 2)
        stream = SeededStream(77)
        cv = bmb_cutoff(x, plan, 0.1, 200, stream)
        # recompute from the definition with the same multiplier block
        s = summarize(x)
        xc = x - s.means
        sums = np.stack([xc[a:b].sum(axis=0) for a, b in plan.large_blocks])
        eps = ndtri(open_uniform(stream.generator(), (200, plan.m)))
        draws = np.array(
            [
                max(
                    sum(eps[b, l] * sums[l, j] for l in range(plan.m))
                    for j in range(3)
                )
                for b in range(200)
            ]
        ) / math.sqrt(plan.m * plan.q)
        k = math.ceil(0.9 * 200)
        expected = np.sort(draws)[k - 1]
        assert abs(cv - expected) <= 1e-9

    @pytest.mark.parametrize("shape, seed, blocks, B, alpha, stream_seed", [
        ((200, 7), 3, (5, 2), 1000, 0.05, 77),
        ((30, 3), 2, (5, 2), 200, 0.1, 77),
        ((120, 70), 4, (4, 1), 500, 0.05, 9),
        ((64, 2), 5, (3, 1), 300, 0.2, 1),
    ])
    def test_matches_the_formula_bitwise(self, shape, seed, blocks, B, alpha, stream_seed):
        x = np.random.default_rng(seed).normal(size=shape)
        plan = make_blocks(shape[0], *blocks)
        xc = x - summarize(x).means
        sums = np.stack([xc[a:b].sum(axis=0) for a, b in plan.large_blocks])
        eps = ndtri(open_uniform(SeededStream(stream_seed).generator(), (B, plan.m)))
        draws = _blocked_rowmax(eps, sums) * (1 / math.sqrt(plan.m * plan.q))
        expected = _quantile(draws, 1 - alpha)
        assert bmb_cutoff(x, plan, alpha, B, SeededStream(stream_seed)) == expected

    def test_exact_conditional_scale(self):
        # p=1: conditional on the data the draw is N(0, s_c^2) exactly,
        # where s_c^2 is the mean squared block sum over mq
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2000, 1))
        plan = make_blocks(2000, 50, 5)
        s = summarize(x)
        sums = np.array([ (x[a:b] - s.means).sum() for a, b in plan.large_blocks ])
        s_c = math.sqrt((sums ** 2).sum() / (plan.m * plan.q))
        cv = bmb_cutoff(x, plan, 0.05, 40_000, SeededStream(4))
        assert abs(cv - s_c * ndtri(0.95)) <= 0.05 * s_c
        # with long blocks the conditional scale is close to the sample sd
        assert abs(s_c - s.sds[0]) <= 0.2 * s.sds[0]

    def test_plan_must_match_sample(self):
        plan = make_blocks(30, 5, 2)
        with pytest.raises(ValueError):
            bmb_cutoff(np.zeros((40, 2)) + np.arange(40)[:, None], plan, 0.05, 200, SeededStream(0))

    def test_row_shift_leaves_draws_unchanged(self):
        # dyadic data with n a power of two keeps the centering exact, so a
        # constant row shift cancels bit for bit inside the draws
        rng = np.random.default_rng(8)
        x = rng.integers(-8, 8, size=(32, 3)) / 8.0
        plan = make_blocks(32, 6, 2)
        shifted = x + np.array([4.0, -2.0, 8.0])
        a = bmb_cutoff(x, plan, 0.05, 300, SeededStream(3))
        b = bmb_cutoff(shifted, plan, 0.05, 300, SeededStream(3))
        assert a == b
        # the statistic follows the largest shifted mean
        t0 = bmb_statistic(x)
        t1 = bmb_statistic(shifted)
        third = math.sqrt(32) * (x[:, 2].mean() + 8.0)
        assert abs(t1 - third) <= 1e-9
        assert t1 > t0


class TestBmbTest:
    def test_iid_size_at_desk_scale(self):
        root = SeededStream(2025)
        plan = make_blocks(400, 20, 4)
        rejects = 0
        for k in range(500):
            rep = root.child("mc", k)
            x = ndtri(open_uniform(rep.generator(), (400, 5)))
            d = bmb_test(x, plan, 0.05, 1000, rep.child("bmb"))
            rejects += d.reject
        rate = rejects / 500
        assert 0.02 <= rate <= 0.09

    def test_shifted_column_rejects(self):
        root = SeededStream(77)
        plan = make_blocks(400, 20, 4)
        rejects = 0
        for k in range(100):
            rep = root.child("mc", k)
            x = ndtri(open_uniform(rep.generator(), (400, 5)))
            x[:, 2] += 10.0
            rejects += bmb_test(x, plan, 0.05, 500, rep.child("bmb")).reject
        assert rejects == 100

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 4))
        plan = make_blocks(60, 8, 3)
        a = bmb_test(x, plan, 0.05, 400, SeededStream(9))
        b = bmb_test(x, plan, 0.05, 400, SeededStream(9))
        assert a == b
        assert a.method == "bmb"

    def test_cutoff_past_the_float_range_is_named(self):
        # every entry, mean and sd is finite, but the cutoff scales back past the range
        col = np.tile([1.5e308, 1.5e308, -1.5e308, -1.5e308], 50)
        x = np.column_stack([col, col, col])
        with pytest.raises(UndefinedCriticalValueError, match="finite"):
            bmb_test(x, make_blocks(200, 2, 1), 0.05, 1000, SeededStream(0))

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 1018], ids=["unit", "2^1018"])
    @pytest.mark.parametrize("n, p, q, r, order", [
        (60, 7, 5, 2, "C"), (400, 300, 7, 2, "F"), (301, 65, 40, 3, "C")])
    def test_block_sums_equal_the_whole_sample_formula(self, monkeypatch, scale, n, p, q, r,
                                                       order):
        # the sums the draws weight are those of the scaled, centered whole sample
        rng = np.random.default_rng(n + p)
        x = rng.standard_t(4, size=(n, p)) * rng.uniform(0.1, 1.0, size=p)
        x = np.asarray(x / np.abs(x).max() * scale, order=order)
        plan = make_blocks(n, q, r)
        s = summarize(x)
        k = int(s.e.max())
        xc = np.ldexp(x, -k)
        xc -= np.ldexp(s.ms, s.e - k)
        expected = np.stack([xc[a:a + q].sum(axis=0) for a, _ in plan.large_blocks])
        seen = []
        draws = dependent._rowmax_draws

        def recorded(weights, target, B, stream):
            seen.append(target.copy())
            return draws(weights, target, B, stream)

        monkeypatch.setattr(dependent, "_rowmax_draws", recorded)
        bmb_test(x, plan, 0.05, 100, SeededStream(3))
        assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()

    def test_no_copy_of_the_whole_sample(self):
        x = np.random.default_rng(12).normal(size=(400, 8192))
        plan = make_blocks(400, *default_block_lengths(400))
        bmb_test(x, plan, 0.05, 200, SeededStream(1))  # warms this thread's workspaces
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bmb_test(x, plan, 0.05, 200, SeededStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < x.nbytes / 4

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 0.0])
    def test_alpha_outside_the_test_sizes_is_rejected(self, alpha):
        x = np.random.default_rng(7).normal(size=(60, 3))
        plan = make_blocks(60, 8, 3)
        with pytest.raises(ValueError, match="alpha"):
            bmb_test(x, plan, alpha, 400, SeededStream(9))
