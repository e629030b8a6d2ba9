"""Bootstrap draw engine: exact conditional laws, exact invariances, quantiles."""

import dataclasses
import itertools
import math
import multiprocessing
import queue
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr
from scipy.stats import kstest

from momentineq import (
    CriticalValueSpec,
    DegenerateColumnError,
    DesignSpec,
    McConfig,
    ParametricMomentData,
    SeededStream,
    ThreeStepConfig,
    UndefinedCriticalValueError,
    bmb_test,
    draw_sample,
    make_blocks,
    power_sweep,
    run_mc,
    run_test,
    run_tests,
    sn_one_step,
    sn_select,
    summarize,
    three_step_test,
)
from momentineq import bootstrap, gaussian
from momentineq.core import METHODS, studentized_scores
from momentineq.sn import threshold_select
from box_muller import RADIUS_MAX, SINGLE_GAP, box_muller
from score_samples import sample_with_scores


@pytest.fixture(scope="module")
def gauss_sample():
    rng = np.random.default_rng(99)
    return rng.normal(size=(50, 3))


def columns(x, J=None):
    """The 0-based columns of the 1-based set ``J``, sorted and once each; all by default."""
    if J is None:
        return np.arange(x.shape[1])
    return np.asarray(sorted(set(J)), dtype=np.intp) - 1


# each bootstrap scheme, named by its draws in the test ids
SCHEMES = pytest.mark.parametrize("scheme", ["MB", "EB"], ids=["mb_draws", "eb_draws"])


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
        d = bootstrap._values("MB", x, summarize(x), columns(x), 100_000, SeededStream(5))
        stat = kstest(d, "norm").statistic
        assert stat < 0.01

    def test_duplicated_column_leaves_mb_draws_bitwise_identical(self, gauss_sample):
        x = gauss_sample
        xdup = np.hstack([x, x[:, [0]]])
        a = bootstrap._values("MB", x, summarize(x), columns(x), 500, SeededStream(3))
        b = bootstrap._values("MB", xdup, summarize(xdup), columns(xdup), 500, SeededStream(3))
        np.testing.assert_array_equal(a, b)

    def test_duplicated_column_leaves_eb_draws_bitwise_identical(self, gauss_sample):
        x = gauss_sample
        xdup = np.hstack([x, x[:, [0]]])
        a = bootstrap._values("EB", x, summarize(x), columns(x), 500, SeededStream(3))
        b = bootstrap._values("EB", xdup, summarize(xdup), columns(xdup), 500, SeededStream(3))
        np.testing.assert_array_equal(a, b)

    def test_empty_set_gives_zero_draws(self, gauss_sample):
        s = summarize(gauss_sample)
        for scheme in ("MB", "EB"):
            d = bootstrap._values(scheme, gauss_sample, s, columns(gauss_sample, []), 200,
                                  SeededStream(1))
            np.testing.assert_array_equal(d, np.zeros(200))

    def test_degenerate_column_raises_with_name(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        s = summarize(x)
        for scheme in ("MB", "EB"):
            with pytest.raises(DegenerateColumnError, match="2"):
                bootstrap._values(scheme, x, s, columns(x), 200, SeededStream(1))
            # restricting away from the bad column is fine
            bootstrap._values(scheme, x, s, columns(x, [1]), 200, SeededStream(1))

    def test_identical_rows_are_rejected_as_degenerate(self):
        # resampling a constant sample gives zero numerators, but the
        # studentized draw is 0/0: the engine refuses rather than guesses
        x = np.tile([[1.0, -2.0, 3.0]], (6, 1))
        with pytest.raises(DegenerateColumnError):
            bootstrap._values("EB", x, summarize(x), columns(x), 200, SeededStream(1))

    def test_eb_matches_exhaustive_enumeration(self):
        x = np.array([[0.0], [1.5], [3.0]])
        s = summarize(x)
        # all 27 equally likely resamples of 3 rows
        outcomes = sorted(
            math.sqrt(3) * (np.mean([x[i, 0], x[j, 0], x[k, 0]]) - s.means[0]) / s.sds[0]
            for i, j, k in itertools.product(range(3), repeat=3)
        )
        d = bootstrap._values("EB", x, s, columns(x), 20_000, SeededStream(17))
        for level in (0.6, 0.9):
            exact = outcomes[math.ceil(level * 27) - 1]
            assert abs(bootstrap._quantile(d, level) - exact) <= 0.02

    def test_restriction_uses_same_replication_randomness(self, gauss_sample):
        s = summarize(gauss_sample)
        full = bootstrap._values("MB", gauss_sample, s, columns(gauss_sample), 300,
                                 SeededStream(8))
        sub = bootstrap._values("MB", gauss_sample, s, columns(gauss_sample, [2]), 300,
                                SeededStream(8))
        # per replication the restricted max can never exceed the full max
        assert np.all(sub <= full)


class TestSlackColumnFarBelowZero:
    """EB weights the centered columns, so a huge slack mean cannot cancel into its draws."""

    @pytest.fixture(scope="class")
    def x(self):
        rng = np.random.default_rng(0)
        return np.column_stack([-1e15 + rng.normal(size=200), 0.25 + rng.normal(size=200)])

    def test_eb_draws_equal_the_centered_reference(self, x):
        n, B = x.shape[0], 1000
        s = summarize(x)
        d = bootstrap._values("EB", x, s, columns(x), B, SeededStream(1))
        counts = bootstrap._count_weights(SeededStream(1).generator(),
                                          np.empty((B, n), np.float32))
        # x - mean is exact here (Sterbenz), so the centered target rounds
        # only into the pass's single precision, and then only the product
        target = ((x - s.means) / (math.sqrt(n) * s.sds)).astype(np.float32)
        with bootstrap._one_blas_thread:
            reference = bootstrap._blocked_rowmax(counts, target)
        np.testing.assert_allclose(d, reference, rtol=0, atol=1e-12)

    def test_eb1_rejects_as_mb1_does(self, x):
        for method in ("mb1", "eb1"):
            assert run_test(x, CriticalValueSpec(method, replications=1000, seed=1)).reject


class TestChunkedInvariances:
    """Chunk heights depend on the rows and ``B`` only, so the column invariances stay exact.

    ``_CHUNK_SCALARS`` is set to seven rows' worth, so ``B = 100`` draws in
    14 chunks of 7 replications and a last one of 2.  Chunked draws are not
    compared with unchunked ones: the BLAS kernel may depend on the height.
    """

    B = 100
    N = 60
    PLAN = make_blocks(60, 5, 2)  # m = 8 block sums

    @pytest.fixture
    def x(self):
        return np.random.default_rng(23).normal(size=(self.N, 5)) + 0.1

    @pytest.fixture
    def chunk7(self, monkeypatch):
        def chunked(rows):
            monkeypatch.setattr(bootstrap, "_CHUNK_SCALARS", 7 * rows)
        return chunked

    def test_chunks_are_seven_replications_and_a_short_tail(self, chunk7):
        heights = []

        def weights(gen, out):
            heights.append(out.shape[0])
            return bootstrap._normal_weights(gen, out)

        chunk7(self.N)
        bootstrap._rowmax_draws(weights, np.ones((self.N, 3)), self.B, SeededStream(1))
        assert heights == [7] * 14 + [2]

    @SCHEMES
    @pytest.mark.parametrize("cols", [[0, 1, 2, 3, 4, 0], [3, 0, 4, 1, 2], [4, 4, 2, 2]],
                             ids=["duplicated", "permuted", "doubled-pair"])
    def test_draws_keep_duplication_and_permutation(self, x, chunk7, scheme, cols):
        chunk7(self.N)
        a = bootstrap._values(scheme, x, summarize(x), columns(x, [j + 1 for j in cols]),
                              self.B, SeededStream(4))
        y = x[:, cols]
        b = bootstrap._values(scheme, y, summarize(y), columns(y), self.B, SeededStream(4))
        assert a.tobytes() == b.tobytes()

    @SCHEMES
    @pytest.mark.parametrize("J", [[2], [1, 4], [2, 3, 5]])
    def test_draws_keep_restriction(self, x, chunk7, scheme, J):
        chunk7(self.N)
        a = bootstrap._values(scheme, x, summarize(x), columns(x, J), self.B, SeededStream(6))
        y = x[:, [j - 1 for j in J]]
        b = bootstrap._values(scheme, y, summarize(y), columns(y), self.B, SeededStream(6))
        assert a.tobytes() == b.tobytes()

    @SCHEMES
    @pytest.mark.parametrize("case", ["duplicated", "permuted"])
    def test_a_column_in_the_padded_tail_draws_as_in_a_full_block(self, chunk7, scheme, case):
        # 64 columns fill one product block and a 65th sits alone in the
        # zero-padded tail; the tail must run the full block's kernel, in the
        # target's dtype.  Every other column is near the negative of column
        # 7, so column 7 holds the row max in about half the replications.
        chunk7(self.N)
        rng = np.random.default_rng(29)
        x = rng.normal(size=(self.N, 65)) + 0.1
        x[:, np.arange(65) != 7] = -x[:, [7]] + 0.3 * rng.normal(size=(self.N, 64))
        if case == "duplicated":
            x, y = x[:, :64], x[:, list(range(64)) + [7]]
        else:
            y = x[:, list(range(7)) + [64] + list(range(8, 64)) + [7]]
        a = bootstrap._values(scheme, x, summarize(x), columns(x), self.B, SeededStream(4))
        b = bootstrap._values(scheme, y, summarize(y), columns(y), self.B, SeededStream(4))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cols, other", [
        ([0], [0, 0]),
        ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 2]),
        ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]),
    ], ids=["one-column-duplicated", "duplicated", "permuted"])
    def test_bmb_cutoff_keeps_duplication_and_permutation(self, x, chunk7, cols, other):
        chunk7(self.PLAN.m)
        a, b = (bmb_test(x[:, c], self.PLAN, 0.05, self.B, SeededStream(8)) for c in (cols, other))
        assert a.critical_value == b.critical_value


class TestPiecewiseWeights:
    """The weight builders fill this thread's workspace in row pieces, with the bits of one call.

    The references build the whole ``k x rows`` block in one call, as the
    builders did before they wrote into a workspace.  The generator must
    also be left in the same state, so the next chunk draws the same bits.
    """

    @staticmethod
    def state(gen):
        """The bit generator's state, the spare 32-bit half-word included, as plain lists."""
        def plain(v):
            if isinstance(v, dict):
                return {key: plain(item) for key, item in v.items()}
            return v.tolist() if isinstance(v, np.ndarray) else v
        return plain(gen.bit_generator.state)

    @staticmethod
    def mb_reference(gen, k, rows, dtype=np.float64):
        return box_muller(gen, (k, rows), dtype)

    @staticmethod
    def eb_reference(gen, k, rows, dtype=np.float64):
        idx = gen.integers(0, rows, size=(k, rows))
        flat = (idx + (np.arange(k) * rows)[:, None]).ravel()
        return np.bincount(flat, minlength=k * rows).reshape(k, rows).astype(dtype)

    PIECES = pytest.mark.parametrize("piece, k, rows", [
        (10, 9, 4),       # two rows a piece, the last piece one row: a split mid-block
        (10, 5, 25),      # a row longer than a piece: one row a piece
        (10, 12, 1),      # one-row samples: ten replications a piece
        (10, 1, 3),       # one replication, less than a piece
        (32_768, 200, 400),  # the default piece: pieces of 81, 81 and 38 rows
    ], ids=["split", "long-rows", "one-row", "one-replication", "default"])

    def built(self, monkeypatch, scheme, piece, k, rows, dtype):
        """``(block, reference)``: the builder's ``k x rows`` block and one call's, in ``dtype``."""
        monkeypatch.setattr(gaussian, "_PIECE_SCALARS", piece)
        build, reference = {
            "MB": (bootstrap._normal_weights, self.mb_reference),
            "EB": (bootstrap._count_weights, self.eb_reference),
        }[scheme]
        gen, ref_gen = SeededStream(31).generator(), SeededStream(31).generator()
        out = np.full((k, rows), np.nan, dtype)
        assert build(gen, out) is out
        ref = reference(ref_gen, k, rows, dtype)
        assert self.state(gen) == self.state(ref_gen)
        assert gen.bit_generator.random_raw() == ref_gen.bit_generator.random_raw()
        return out, ref

    @pytest.mark.parametrize("scheme", ["MB", "EB"])
    @PIECES
    def test_pieces_draw_the_bits_of_one_call(self, monkeypatch, scheme, piece, k, rows):
        out, ref = self.built(monkeypatch, scheme, piece, k, rows, np.float64)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scheme", ["MB", "EB"])
    @PIECES
    def test_single_precision_pieces_round_the_bits_of_one_call(self, monkeypatch, scheme,
                                                                piece, k, rows):
        # a multiplier's angle and cosine are taken in float32, so its bits
        # are the float32 reference's and it sits near the float64 block's;
        # counts are exact
        out, ref = self.built(monkeypatch, scheme, piece, k, rows, np.float32)
        assert out.tobytes() == ref.tobytes()
        double, _ = self.built(monkeypatch, scheme, piece, k, rows, np.float64)
        if scheme == "EB":
            assert out.astype(np.float64).tobytes() == double.tobytes()
        else:
            assert np.abs(out - double).max() <= SINGLE_GAP

    @pytest.mark.parametrize("taken", [0, 1, 6], ids=["fresh", "odd-half-word", "mid-buffer"])
    def test_runs_on_three_shares_draw_the_bits_of_one_call(self, monkeypatch, taken):
        # 9 x 4 weights in pieces of two rows, with three pass workers: the
        # fill stays on the calling thread whatever the worker count, and
        # takes up a generator whose float32 draws left a spare 32-bit
        # half-word (1) or stand mid-way in Philox's four outputs (6)
        monkeypatch.setattr(gaussian, "_PIECE_SCALARS", 10)
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 3)
        for build, reference in ((bootstrap._normal_weights, self.mb_reference),
                                 (bootstrap._count_weights, self.eb_reference)):
            gen, ref_gen = SeededStream(31).generator(), SeededStream(31).generator()
            for g in (gen, ref_gen):
                g.random(taken, dtype=np.float32)
            out = np.full((9, 4), np.nan)
            assert build(gen, out) is out
            assert out.tobytes() == reference(ref_gen, 9, 4).tobytes()
            assert self.state(gen) == self.state(ref_gen)
            assert gen.random(3, dtype=np.float32).tobytes() == ref_gen.random(
                3, dtype=np.float32).tobytes()

    @pytest.mark.parametrize("r", [400, 2 ** 31 + 1])
    def test_bounded_integers_are_chunk_invariant(self, r):
        # Lemire's method rejects about half the draws at 2^31 + 1; the spare
        # 32-bit half-word is kept in the bit generator across calls
        whole, parts = SeededStream(2).generator(), SeededStream(2).generator()
        a = whole.integers(0, r, size=1001)
        b = np.concatenate([parts.integers(0, r, size=m) for m in (1, 2, 397, 1, 600)])
        assert a.tobytes() == b.tobytes()
        assert self.state(whole) == self.state(parts)

    @SCHEMES
    def test_results_never_alias_the_workspace(self, gauss_sample, scheme):
        s, cols0 = summarize(gauss_sample), columns(gauss_sample)
        a = bootstrap._values(scheme, gauss_sample, s, cols0, 300, SeededStream(1))
        kept = a.copy()
        b = bootstrap._values(scheme, gauss_sample, s, cols0, 300, SeededStream(2))
        assert a.tobytes() == kept.tobytes()
        assert not np.shares_memory(a, b)
        for buf in vars(bootstrap._workspace).values():
            assert not np.shares_memory(a, buf) and not np.shares_memory(b, buf)

    @SCHEMES
    def test_warm_pass_allocates_no_block_sized_buffer(self, scheme):
        B, n = 1000, 400
        x = np.random.default_rng(4).normal(size=(n, 3))
        s, cols0 = summarize(x), columns(x)
        bootstrap._values(scheme, x, s, cols0, B, SeededStream(1))  # sizes this thread's workspace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bootstrap._values(scheme, x, s, cols0, B, SeededStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block is float32: a fresh one would take B * n * 4 bytes
        assert peak - base < B * n * 4

    def test_workspaces_keep_at_most_a_chunk(self):
        # 42 block rows: a chunk of 95,238 replications fills a 32 MB weight
        # block, and its 95,238 x 64 product (48.8 MB) outgrows the bound
        x = np.random.default_rng(6).normal(size=(300, 65))
        bmb_test(x, make_blocks(300, 5, 2), 0.05, 100_000, SeededStream(1))
        sizes = {name: buf.nbytes for name, buf in vars(bootstrap._workspace).items()}
        assert set(sizes) == {"weights", "prod"}
        assert max(sizes.values()) <= 32_000_000


class TestBoxMullerMultipliers:
    """The multipliers are N(0,1) in either dtype, and each takes one raw Philox output."""

    N = 1_000_000

    @pytest.fixture(scope="class", params=[np.float32, np.float64], ids=["float32", "float64"])
    def z(self, request):
        out = np.empty((1000, self.N // 1000), request.param)
        return bootstrap._normal_weights(SeededStream(2024).generator(), out).ravel()

    def test_ks_distance_is_within_the_one_percent_bound(self, z):
        assert kstest(z.astype(np.float64), "norm").statistic <= 1.63 / math.sqrt(self.N)

    @pytest.mark.parametrize("t", [2.0, 3.0, 4.0])
    def test_tail_shares_lie_within_five_standard_errors(self, z, t):
        share = 2.0 * ndtr(-t)
        se = math.sqrt(share * (1.0 - share) / self.N)
        assert abs(np.mean(np.abs(z) > t) - share) <= 5.0 * se

    def test_no_multiplier_exceeds_the_largest_radius(self, z):
        assert RADIUS_MAX < 6.77
        assert np.abs(z).max() <= 6.77

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("k, rows", [(9, 4), (200, 400), (3, 40_000)])
    @pytest.mark.parametrize("taken", [0, 1, 6], ids=["fresh", "odd-half-word", "mid-buffer"])
    def test_a_fill_takes_one_raw_output_per_multiplier(self, dtype, k, rows, taken):
        # from a generator whose float32 draws left a spare 32-bit half-word
        # (1) or stand mid-way in Philox's four outputs (6), which the fill
        # leaves as it found it
        gen, ref_gen = SeededStream(8).generator(), SeededStream(8).generator()
        for g in (gen, ref_gen):
            g.random(taken, dtype=np.float32)
        bootstrap._normal_weights(gen, np.empty((k, rows), dtype))
        ref_gen.bit_generator.random_raw(k * rows)
        assert TestPiecewiseWeights.state(gen) == TestPiecewiseWeights.state(ref_gen)
        assert gen.random(3, dtype=np.float32).tobytes() == ref_gen.random(
            3, dtype=np.float32).tobytes()

    def test_every_piece_is_transformed_through_the_module_global(self, monkeypatch):
        # a wrapper on ``bootstrap.ndtri``, as a tracer installs, sees each
        # row piece once and leaves the block's bits as they were
        out = np.empty((3, 40_000), np.float32)
        expected = bootstrap._normal_weights(SeededStream(5).generator(), out.copy())
        seen = []

        def counted(r, piece):
            seen.append(piece.shape)
            return bootstrap._box_muller(r, piece)

        monkeypatch.setattr(bootstrap, "ndtri", counted)
        bootstrap._normal_weights(SeededStream(5).generator(), out)
        assert seen == [piece.shape for piece in gaussian._row_pieces(out)]
        assert out.tobytes() == expected.tobytes()


def on_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, whose empty workspace makes its first pass build."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def lone_cutoff(x, scheme, cols, level, B, stream):
    """The ``level`` quantile of one pass over ``cols`` on ``stream.child(scheme)``, built fresh."""
    cols0 = np.asarray(sorted(cols), dtype=np.intp) - 1
    return on_fresh_thread(lambda: bootstrap._quantile(bootstrap._values(
        scheme, x, summarize(x), cols0, B, stream.child(scheme)), level))


def sparse_sample(n=200, p=30, seed=3, slack=0.75):
    """Three columns at the boundary and the rest deep in the slack, so two-step sets are strict."""
    x = np.random.default_rng(seed).normal(size=(n, p))
    x[:, 3:] -= slack
    return x


@pytest.fixture
def builds(monkeypatch):
    """The shape of every multiplier block built from here on."""
    shapes = []
    original = bootstrap._normal_weights

    def counted(gen, out):
        shapes.append(out.shape)
        return original(gen, out)

    monkeypatch.setattr(bootstrap, "_normal_weights", counted)
    return shapes


class TestHeldBlock:
    """A one-chunk weight block is built once per stream, builder, ``B`` and row count.

    The references run on a fresh thread, so their first pass always
    builds; the cutoffs over selected sets are recomputed as lone passes.
    """

    ALPHA, BETA, B = 0.05, 0.001, 400

    def specs(self, methods=tuple(METHODS)):
        return [CriticalValueSpec(m, self.ALPHA, self.BETA, self.B) for m in methods]

    def check_cutoffs(self, x, specs, decisions, stream):
        for spec, d in zip(specs, decisions):
            rule = METHODS[spec.method]
            if rule.scheme != "SN" and d.selected:
                level = 1.0 - self.ALPHA + rule.m * self.BETA
                assert d.critical_value == lone_cutoff(
                    x, rule.scheme, d.selected, level, self.B, stream)

    def test_a_strict_two_step_selection_builds_one_block(self, builds):
        design = DesignSpec(8, 200, 40, 0.5, "t4")
        mc = McConfig(sims=1, bootstrap_reps=self.B, methods=("mb1", "mb2"), seed=2)
        rep = SeededStream(2).child("mc", 0)
        kept = on_fresh_thread(lambda: run_test(draw_sample(design, rep), mc.specs()[1],
                                                stream=rep).selected)
        assert 0 < len(kept) < design.p
        builds.clear()
        run_mc(design, mc)
        assert builds == [(self.B, design.n)]

    def test_a_power_sweep_replication_builds_one_block(self, builds):
        mc = McConfig(sims=2, bootstrap_reps=self.B, methods=("sn1", "mb1"), seed=4)
        power_sweep(100, 20, 0.5, [0.0, 0.1, 0.2, 0.3], mc)
        assert builds == [(self.B, 100)] * 2

    def test_a_selection_keeping_every_column_builds_one_block(self, builds):
        x = sample_with_scores([0.0, 0.5, 1.0, 2.0])
        (d,) = run_tests(x, self.specs(["mb2"]), SeededStream(6))
        assert len(d.selected) == 4
        assert builds == [(self.B, x.shape[0])]

    def test_every_method_matches_a_fresh_thread(self):
        x, stream = sparse_sample(), SeededStream(7)
        specs = self.specs()
        ours = run_tests(x, specs, stream)
        assert ours == on_fresh_thread(run_tests, x, specs, stream)
        assert any(0 < len(d.selected) < x.shape[1] for d in ours)
        self.check_cutoffs(x, specs, ours, stream)
        # the next call starts from the block the last one left
        assert run_tests(x, specs[::-1], stream) == ours[::-1]

    def test_three_step_matches_a_fresh_thread(self):
        # the grad-select pass fills the workspace between the selection and the cutoff
        rng = np.random.default_rng(11)
        data = ParametricMomentData(g=sparse_sample(n=200, p=8, seed=12),
                                    v=rng.normal(size=(200, 8, 2)))
        cfg = ThreeStepConfig(alpha=self.ALPHA, beta=self.BETA, replications=self.B, seed=9)
        ours = three_step_test(data, cfg)
        assert ours == on_fresh_thread(three_step_test, data, cfg)
        assert 0 < len(ours.selected) < data.p
        assert ours.critical_value == lone_cutoff(
            data.g, "MB", ours.selected, 1.0 - self.ALPHA + 4 * self.BETA, self.B,
            SeededStream(cfg.seed))

    @pytest.mark.parametrize("chunk", [None, 60 * 100], ids=["one-chunk", "multi-chunk-bmb"])
    def test_draws_around_a_bmb_test_match_a_fresh_thread(self, monkeypatch, chunk):
        # at 6000 scalars the 100 x 60 blocks are one chunk and the 1000 x 8 bmb block is not
        if chunk is not None:
            monkeypatch.setattr(bootstrap, "_CHUNK_SCALARS", chunk)
        x = np.random.default_rng(13).normal(size=(60, 5))
        s, plan, S, T = summarize(x), make_blocks(60, 5, 2), SeededStream(14), SeededStream(15)
        every, some = columns(x), columns(x, [2, 4])
        for scheme in ("MB", "EB"):
            first = bootstrap._values(scheme, x, s, every, 100, S)
            bmb = bmb_test(x, plan, 0.05, 1000, T)
            second = bootstrap._values(scheme, x, s, some, 100, S)
            assert first.tobytes() == on_fresh_thread(
                bootstrap._values, scheme, x, s, every, 100, S).tobytes()
            assert bmb == on_fresh_thread(bmb_test, x, plan, 0.05, 1000, T)
            assert second.tobytes() == on_fresh_thread(
                bootstrap._values, scheme, x, s, some, 100, S).tobytes()

    @pytest.mark.parametrize("first, second", [
        (("MB", 60, 100, 18), ("MB", 60, 100, 19)),
        (("MB", 60, 100, 18), ("EB", 60, 100, 18)),
        (("MB", 60, 100, 18), ("MB", 60, 200, 18)),
        (("EB", 60, 100, 18), ("EB", 30, 100, 18)),
    ], ids=["stream", "builder", "B", "rows"])
    def test_a_block_differing_in_one_part_matches_a_fresh_thread(self, first, second):
        x = np.random.default_rng(17).normal(size=(60, 4))

        def run(scheme, n, B, seed):
            y = x[:n]
            return bootstrap._values(scheme, y, summarize(y), columns(y), B, SeededStream(seed))

        run(*first)
        assert run(*second).tobytes() == on_fresh_thread(run, *second).tobytes()

    @pytest.mark.parametrize("dtypes", [(np.float64, np.float32), (np.float32, np.float64)],
                             ids=["float64-then-float32", "float32-then-float64"])
    def test_blocks_differing_only_in_dtype_match_a_fresh_thread(self, dtypes):
        # one stream, builder, B and row count: a double block read back as a
        # single one (or the reverse) would be garbage
        g = np.random.default_rng(19).normal(size=(60, 5)) / math.sqrt(60)

        def run(dtype):
            return bootstrap._rowmax_draws(bootstrap._normal_weights, g.astype(dtype), 100,
                                           SeededStream(20))

        for dtype in dtypes:
            got = run(dtype)
            assert got.dtype == dtype
            assert got.tobytes() == on_fresh_thread(run, dtype).tobytes()

    def test_nothing_is_kept_when_a_row_exceeds_the_chunk(self, monkeypatch, builds):
        # at n = 50 a slack of 1.5 puts the slack columns' scores near -10,
        # as 0.75 does at the default n = 200, past any cutoff of 100 draws
        x, stream, B = sparse_sample(n=50, p=10, slack=1.5), SeededStream(16), 100
        monkeypatch.setattr(bootstrap, "_CHUNK_SCALARS", 49)
        specs = [CriticalValueSpec("mb2", self.ALPHA, self.BETA, B)]
        (ours,) = run_tests(x, specs, stream)
        assert 0 < len(ours.selected) < x.shape[1]
        # one-row blocks, each a fresh array: both passes build every row
        assert builds == [(1, 50)] * (2 * B)
        assert [ours] == on_fresh_thread(run_tests, x, specs, stream)
        assert run_tests(x, specs, stream) == [ours]
        assert builds == [(1, 50)] * (6 * B)


def invariance_outputs():
    """Every cutoff of ``run_tests``, ``bmb_test`` and ``three_step_test`` on one wide sample.

    At ``n = 400`` and ``B = 1000`` each product is ``(1000 x 400) @ (400 x
    64)``, whose last bits OpenBLAS changes between one and two threads, and
    the 330 columns make six column blocks.
    """
    rng = np.random.default_rng(1)
    x = rng.normal(size=(400, 330))
    x[:, 5:] -= 0.75
    specs = [CriticalValueSpec(m, 0.05, 0.001, 1000) for m in METHODS]
    decisions = run_tests(x, specs, SeededStream(3))
    # 44 block rows: the 2000 x 44 multiplier block fills in two runs
    bmb = bmb_test(x, make_blocks(400, 7, 2), 0.05, 2000, SeededStream(4))
    data = ParametricMomentData(g=x, v=rng.normal(size=(400, 330, 2)))
    three = three_step_test(data, ThreeStepConfig(alpha=0.05, beta=0.001, replications=1000,
                                                  seed=5))
    return decisions, bmb, three


class TestThreadCountInvariance:
    """No bit depends on OpenBLAS's thread count or on how many shares a pass splits into.

    The reference runs with one BLAS thread and one share.  At 250 rows a
    chunk, each ``run_tests`` pass spans four chunks, and each chunk's
    multiplier block still fills in up to three runs.
    """

    @pytest.fixture(scope="class")
    def blas(self):
        api = bootstrap._openblas()
        if api is None:
            pytest.skip("numpy does not bundle OpenBLAS here")
        get, put = api
        before = get()
        yield put
        put(before)

    @pytest.fixture(scope="class", params=[None, 250 * 400], ids=["one-chunk", "four-chunks"])
    def chunk(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def reference(self, blas, chunk):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(bootstrap, "_CHUNK_SCALARS", chunk)
            mp.setattr(bootstrap, "_PASS_WORKERS", 1)
            blas(1)
            return invariance_outputs()

    @pytest.mark.parametrize("blas_threads", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_cutoffs_are_bit_equal(self, monkeypatch, blas, chunk, reference, blas_threads,
                                   workers):
        if chunk is not None:
            monkeypatch.setattr(bootstrap, "_CHUNK_SCALARS", chunk)
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", workers)
        blas(blas_threads)
        decisions, bmb, three = invariance_outputs()
        assert any(0 < len(d.selected) < 330 for d in decisions)
        assert decisions == reference[0]
        assert bmb == reference[1]
        assert three == reference[2]


def forked_cutoff(x, spec, results):
    get = bootstrap._openblas()[0] if bootstrap._openblas() else lambda: None
    results.put((get(), run_test(x, spec, stream=SeededStream(8)).critical_value))


class TestOnCores:
    """The one map over the cores: item order, the caller's share, nesting, and errors."""

    @pytest.mark.parametrize("workers, cores", [(None, 3), (2, 3), (5, 1), (1, 3)])
    def test_results_come_in_item_order_on_at_most_workers_threads(self, monkeypatch,
                                                                    workers, cores):
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", cores)
        seen = []

        def job(i):
            seen.append(threading.get_ident())
            time.sleep(0.01 * (i % 3))
            return i * i

        assert bootstrap._on_cores(job, iter(range(12)), workers) == [i * i for i in range(12)]
        assert len(seen) == 12
        assert 1 <= len(set(seen)) <= (cores if workers is None else workers)
        if (cores if workers is None else workers) == 1:
            assert set(seen) == {threading.get_ident()}

    def test_eight_threads_take_each_item_once_under_frequent_switches(self):
        ran = []

        def job(i):
            ran.append(i)
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = bootstrap._on_cores(job, range(2000), 8)
        finally:
            sys.setswitchinterval(interval)
        assert out == [-i for i in range(2000)]
        assert sorted(ran) == list(range(2000))

    def test_the_caller_takes_items_too(self, monkeypatch):
        # each job waits until every thread holds one, so the caller must be one of them
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 3)
        all_in = threading.Barrier(3, timeout=30)

        def job(i):
            all_in.wait()
            return threading.get_ident()

        seen = bootstrap._on_cores(job, range(3))
        assert len(set(seen)) == 3 and threading.get_ident() in seen

    def test_a_call_inside_a_job_runs_serially_on_its_thread(self, monkeypatch):
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 2)

        def inner(i):
            return threading.get_ident()

        def outer(i):
            return threading.get_ident(), bootstrap._on_cores(inner, range(4))

        for mine, nested in bootstrap._on_cores(outer, range(4)):
            assert nested == [mine] * 4
        assert not getattr(bootstrap._busy, "on", False)  # the caller is unmarked after

    def test_the_first_failing_item_raises_after_every_job_ends(self, monkeypatch):
        # item 2 fails first, item 1 later; whichever thread takes item 0,
        # item 1's error is raised, and only once every job has ended
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 2)
        ended = []

        def job(i):
            try:
                if i == 1:
                    time.sleep(0.3)
                    raise RuntimeError("item 1 failed")
                if i == 2:
                    raise RuntimeError("item 2 failed")
                time.sleep(0.1)
                return i
            finally:
                ended.append(i)

        with pytest.raises(RuntimeError, match="item 1 failed"):
            bootstrap._on_cores(job, range(4))
        assert sorted(ended) == [0, 1, 2, 3]


class TestPassPool:
    """The threads a pass splits over: it joins every share before it ends, and survives a fork."""

    @pytest.fixture
    def two_shares(self, monkeypatch):
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 2)

    def test_a_split_pass_leaves_no_thread_behind(self, monkeypatch):
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 3)
        out = bootstrap._blocked_rowmax(np.ones((10, 5)), np.ones((5, 256)))
        assert out.tolist() == [5.0] * 10
        assert [t.name for t in threading.enumerate() if t.name.startswith("momentineq-core")] == []

    @pytest.mark.parametrize("chunk, runs", [(None, [64, 64, 128]), (2 * 10 * 64, [128, 128]),
                                             (10 * 64 - 1, [256])],
                             ids=["three-fit", "two-fit", "none-fits"])
    def test_shares_keep_their_products_within_a_chunk(self, monkeypatch, chunk, runs):
        # four column blocks, ten rows: each share's product is 10 x 64
        widths = []

        def product(weights, g):
            widths.append(g.shape[1])
            return np.zeros(weights.shape[0])

        monkeypatch.setattr(bootstrap, "_block_run_rowmax", product)
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 3)
        if chunk is not None:
            monkeypatch.setattr(bootstrap, "_CHUNK_SCALARS", chunk)
        bootstrap._blocked_rowmax(np.ones((10, 5)), np.ones((5, 4 * 64)))
        assert sorted(widths) == runs

    def test_concurrent_split_passes_match_lone_ones(self, monkeypatch):
        # six callers on three shares each, switching threads as often as possible
        monkeypatch.setattr(bootstrap, "_PASS_WORKERS", 3)
        x = np.random.default_rng(5).normal(size=(200, 200))
        s, cols0 = summarize(x), columns(x)
        lone = {(scheme, seed): on_fresh_thread(bootstrap._values, scheme, x, s, cols0, 500,
                                                SeededStream(seed))
                for scheme in ("MB", "EB") for seed in range(6)}
        bad = []

        def caller(seed):
            for _ in range(4):
                for scheme in ("MB", "EB"):
                    got = bootstrap._values(scheme, x, s, cols0, 500, SeededStream(seed))
                    if got.tobytes() != lone[scheme, seed].tobytes():
                        bad.append((scheme, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(120)
                assert not c.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert bad == []

    @pytest.mark.parametrize("pinned", [False, True], ids=["idle", "while-a-pass-runs"])
    def test_a_forked_child_runs_a_pass(self, two_shares, pinned):
        # forked while another thread's pass holds the pin, the child gets
        # the caller's BLAS count back
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method here")
        x = np.random.default_rng(2).normal(size=(400, 130))
        spec = CriticalValueSpec("mb1", replications=1000)
        expected = run_test(x, spec, stream=SeededStream(8)).critical_value
        api = bootstrap._openblas()
        before = api[0]() if api else None
        started, release = threading.Event(), threading.Event()

        def held(gen, out):
            started.set()
            release.wait(30)
            return bootstrap._normal_weights(gen, out)

        holder = threading.Thread(target=bootstrap._rowmax_draws, args=(
            held, np.ones((4, 2)), 100, SeededStream(1)))
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=forked_cutoff, args=(x, spec, results))
        try:
            if pinned:
                holder.start()
                assert started.wait(30)
            child.start()
            got = results.get(timeout=60)
            child.join(60)
            assert not child.is_alive() and child.exitcode == 0
        except queue.Empty:
            pytest.fail("the forked child's pass did not return")
        finally:
            release.set()
            if pinned:
                holder.join(30)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert got == (before, expected)


class TestEmpiricalQuantile:
    """``_quantile``, the left-continuous empirical quantile behind every bootstrap cutoff."""

    def test_order_statistic_examples(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        assert bootstrap._quantile(d, 0.5) == 2.0
        assert bootstrap._quantile(d, 0.95) == 4.0

    def test_all_zero_draws(self):
        assert bootstrap._quantile(np.zeros(100), 0.37) == 0.0

    def test_level_domain(self):
        d = np.arange(10.0)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                bootstrap._quantile(d, bad)

    def test_float_excess_does_not_skip_an_order_statistic(self):
        # 0.95 * 1000 is a hair above 950 in binary; the guard keeps k at 950
        d = np.arange(1.0, 1001.0)
        assert bootstrap._quantile(d, 0.95) == 950.0
        assert bootstrap._quantile(d, 0.952) == 952.0

    def test_monotone_in_level(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=997)
        qs = [bootstrap._quantile(d, lv) for lv in np.linspace(0.01, 0.99, 33)]
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
    except (DegenerateColumnError, UndefinedCriticalValueError) as exc:
        return type(exc)


FLOAT_RANGE_SPECS = [
    CriticalValueSpec(m, alpha=0.05, beta=0.001, replications=100, seed=5)
    for m in ("sn1", "mb1", "eb2")
]


class TestFloatRange:
    # Integer entries keep every nonzero entry and mean of the rescaled data
    # normal and every deviation exact, so a power of two changes no bit; up
    # to 2^10 * 2^1013 every entry stays finite.  The example is a null
    # sample whose unscaled sqrt(n) * sd overflows at the top of the range.
    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st.integers(6, 24), st.integers(2, 4)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.integers(-1024, 1024))
        ),
        st.integers(-1000, 1013),
    )
    @example(
        x=np.column_stack([np.tile([1024.0, -1000.0], 6),
                           np.tile([1024.0, 1024.0, -1024.0, -1024.0], 3)]),
        e=1013,
    )
    def test_power_of_two_scales_are_bitwise_invariant(self, x, e):
        for method in METHODS:
            spec = CriticalValueSpec(method, alpha=0.05, beta=0.001, replications=100, seed=5)
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


def oracle_draws(x, scheme, cols0, B, stream):
    """``B`` draws of ``scheme`` over ``cols0``, all in float64: the pass's weights, its own target.

    The weights are those of a pass on ``stream``, built in one call; the
    target is the centered, studentized columns ``(x - mean) / (sqrt(n) sd)``
    taken directly, so ``x`` must be of moderate scale.
    """
    n = x.shape[0]
    gen = stream.generator()
    if scheme == "MB":
        w = TestPiecewiseWeights.mb_reference(gen, B, n)
    else:
        w = TestPiecewiseWeights.eb_reference(gen, B, n)
    z = x[:, cols0]
    return (w @ ((z - z.mean(axis=0)) / (math.sqrt(n) * z.std(axis=0)))).max(axis=1)


def close_to_oracle(got, oracle):
    return abs(got - oracle) <= 1e-5 * abs(oracle)


class TestSinglePrecisionOracle:
    """MB and EB passes run in float32; each cutoff stays within 1e-5 relative of a float64 oracle.

    The oracle draws the same weights on the same streams and takes its
    product in double precision.  Selections are compared whole, and the
    samples are also run with their columns scaled by ``2^900`` and
    ``2^-900`` in turn, against the oracle of the unscaled sample.
    """

    ALPHA, BETA, B, SEED = 0.05, 0.001, 1000, 21

    @pytest.fixture(scope="class", params=["sparse", "t4-wide"])
    def x(self, request):
        if request.param == "sparse":
            return sparse_sample()
        x = np.random.default_rng(22).standard_t(4, size=(400, 130))
        x[:, 10:] -= 0.5
        return x

    @staticmethod
    def scaled(x):
        return x * np.where(np.arange(x.shape[1]) % 2, 2.0 ** 900, 2.0 ** -900)

    def oracle(self, x, method):
        """``(selected, cutoff)`` of ``method`` on ``x``, from float64 draws."""
        rule, p = METHODS[method], x.shape[1]
        stream = SeededStream(self.SEED).child(rule.scheme)
        every = oracle_draws(x, rule.scheme, np.arange(p), self.B, stream)
        if rule.selection is None:
            kept = frozenset(range(1, p + 1))
        elif rule.selection == "sn":
            kept = sn_select(summarize(x), self.BETA)
        else:
            kept = threshold_select(summarize(x), -2.0 * bootstrap._quantile(every, 1.0 - self.BETA))
        draws = every if len(kept) == p else oracle_draws(
            x, rule.scheme, columns(x, kept), self.B, stream)
        return kept, bootstrap._quantile(draws, 1.0 - self.ALPHA + rule.m * self.BETA)

    @pytest.mark.parametrize("scale", [False, True], ids=["unit", "2^+-900"])
    @pytest.mark.parametrize("method", ["mb1", "eb1", "mb2", "eb2", "hyb-mb", "hyb-eb"])
    def test_cutoffs_lie_within_1e5_of_the_float64_oracle(self, x, method, scale):
        kept, cutoff = self.oracle(x, method)
        spec = CriticalValueSpec(method, self.ALPHA, self.BETA, self.B, self.SEED)
        d = run_test(self.scaled(x) if scale else x, spec)
        assert frozenset(d.selected) == kept
        assert close_to_oracle(d.critical_value, cutoff)
        if METHODS[method].selection == "boot":
            assert 0 < len(kept) < x.shape[1]

    @pytest.mark.parametrize("scale", [False, True], ids=["unit", "2^+-900"])
    @pytest.mark.parametrize("scheme", ["MB", "EB"])
    def test_three_step_gradient_selection_matches_the_float64_oracle(self, scheme, scale):
        rng = np.random.default_rng(24)
        g, v = sparse_sample(n=200, p=8, seed=25), rng.normal(size=(200, 8, 2))
        v[:, 5:, :] -= 0.4
        cfg = ThreeStepConfig(alpha=self.ALPHA, beta=self.BETA, scheme=scheme,
                              replications=self.B, seed=self.SEED)
        n, flat = g.shape[0], v.reshape(200, 16)
        stream = SeededStream(self.SEED)
        levels = 1.0 - (self.BETA + cfg.resolve_phi(n)), 1.0 - (self.BETA - cfg.resolve_phi(n))
        # the gradient thresholds, single against double
        ours = bootstrap._values(scheme, flat, summarize(flat), np.arange(16), self.B,
                                 stream.child("grad-select"))
        oracle = oracle_draws(flat, scheme, np.arange(16), self.B, stream.child("grad-select"))
        c_plus, c_minus = (bootstrap._quantile(oracle, level) for level in levels)
        for level, c in zip(levels, (c_plus, c_minus)):
            assert close_to_oracle(bootstrap._quantile(ours, level), c)
        # the three sets and the cutoff, from the oracle's thresholds
        scores = studentized_scores(summarize(flat)).reshape(8, 2)
        j_prime = frozenset(int(j) + 1 for j in np.flatnonzero((scores > -c_plus).all(axis=1)))
        j_dprime = frozenset(
            int(j) + 1 for j in np.flatnonzero((scores > -3.0 * c_minus).all(axis=1)))
        every = oracle_draws(g, scheme, np.arange(8), self.B, stream.child(scheme))
        j_hat = threshold_select(summarize(g), -2.0 * bootstrap._quantile(every, 1.0 - self.BETA))
        cut = j_hat & j_dprime
        cutoff = bootstrap._quantile(oracle_draws(g, scheme, columns(g, cut), self.B,
                                                  stream.child(scheme)),
                                     1.0 - self.ALPHA + 4 * self.BETA)
        if scale:
            g, v = self.scaled(g), v * np.array([2.0 ** 900, 2.0 ** -900])
        d = three_step_test(ParametricMomentData(g=g, v=v), cfg)
        assert d.sets == (j_hat, j_prime, j_dprime)
        assert 0 < len(j_prime) < 8 and 0 < len(cut) < 8
        assert close_to_oracle(d.critical_value, cutoff)


class TestSelection:
    def test_rule_matches_recomputed_threshold(self, gauss_sample):
        s = summarize(gauss_sample)
        d = bootstrap._values("MB", gauss_sample, s, columns(gauss_sample), 500,
                              SeededStream(31).child("MB"))
        c_beta = bootstrap._quantile(d, 1 - 0.01)
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

    The reference rebuilds every critical value from the draws of one pass
    (``bootstrap._values``) and their quantile, all on the scheme's child of
    the test's stream (``MB`` or ``EB``): selection draws at level
    ``1 - beta``, cutoff draws at level ``1 - alpha + m beta``, and the
    analytic formula for the SN scheme.
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
        scheme = "MB" if "mb" in method else "EB"
        stream = stream.child(scheme)
        if method.endswith("1"):
            crit = bootstrap._values(scheme, x, s, columns(x), B, stream)
            return bootstrap._quantile(crit, 1 - alpha), everything
        if method.endswith("2"):
            sel = bootstrap._values(scheme, x, s, columns(x), B, stream)
            kept = threshold_select(s, -2.0 * bootstrap._quantile(sel, 1 - beta))
        else:
            kept = sn_select(s, beta)
        crit = bootstrap._values(scheme, x, s, columns(x, kept), B, stream)
        return bootstrap._quantile(crit, 1 - alpha + 2 * beta), kept

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


class TestRunTests:
    """``run_tests`` shares one all-column pass per scheme among the methods on a sample.

    Every draw lives on the scheme's child of the stream, the pass and a
    cutoff over a selected set alike, so each decision is ``run_test``'s on
    the same stream.
    """

    ALPHA, BETA, B = 0.05, 0.004, 300

    @pytest.fixture(scope="class")
    def x(self):
        rng = np.random.default_rng(21)
        return rng.normal(size=(200, 8)) + [0.1, -0.5, 0.0, -2.0, 0.2, -1.0, 0.0, -0.3]

    def spec(self, method):
        return CriticalValueSpec(method, alpha=self.ALPHA, beta=self.BETA,
                                 replications=self.B, seed=3)

    def run(self, x, methods, rep):
        return dict(zip(methods, run_tests(x, [self.spec(m) for m in methods], rep)))

    @staticmethod
    def all_columns(x, scheme, B, stream):
        return bootstrap._values(scheme, x, summarize(x), columns(x), B, stream.child(scheme))

    def test_analytic_and_hybrid_decide_as_run_test(self, x):
        rep = SeededStream(5).child("mc", 0)
        methods = ("sn1", "sn2", "hyb-mb", "hyb-eb", "mb1", "mb2", "eb1", "eb2")
        got = self.run(x, methods, rep)
        for m in ("sn1", "sn2", "hyb-mb", "hyb-eb"):
            assert got[m] == run_test(x, self.spec(m), stream=rep)

    def test_one_step_cutoffs_are_quantiles_of_the_shared_pass(self, x):
        rep = SeededStream(5).child("mc", 1)
        got = self.run(x, ("mb1", "eb1"), rep)
        for m, scheme in (("mb1", "MB"), ("eb1", "EB")):
            vals = self.all_columns(x, scheme, self.B, rep)
            assert got[m].critical_value == bootstrap._quantile(vals, 1 - self.ALPHA)
            assert got[m].selected == tuple(range(1, 9))

    def test_two_step_selection_reads_the_same_pass(self, x):
        rep = SeededStream(5).child("mc", 2)
        got = self.run(x, ("mb1", "mb2"), rep)
        vals = self.all_columns(x, "MB", self.B, rep)
        kept = threshold_select(summarize(x), -2.0 * bootstrap._quantile(vals, 1 - self.BETA))
        assert 0 < len(kept) < 8
        assert got["mb2"].selected == tuple(sorted(kept))

    def test_full_selection_keeps_run_tests_cutoff(self):
        x = sample_with_scores([0.0, 0.3, 0.8, 1.5])
        rep = SeededStream(5).child("mc", 3)
        for m in ("mb2", "eb2"):
            got = self.run(x, (m,), rep)[m]
            lone = run_test(x, self.spec(m), stream=rep)
            assert got.selected == lone.selected == (1, 2, 3, 4)
            assert got.critical_value == lone.critical_value

    def test_run_test_is_run_tests_of_one_spec(self, x):
        rep = SeededStream(5).child("mc", 5)
        methods = list(METHODS)
        np.random.default_rng(5).shuffle(methods)
        specs = [self.spec(m) for m in methods]
        for spec, d in zip(specs, run_tests(x, specs, rep)):
            assert run_test(x, spec, stream=rep) == d, spec.method

    @pytest.mark.parametrize("method", ["sn1", "sn2"])
    def test_an_analytic_spec_ignores_its_seed(self, x, method):
        # the SN formula draws nothing, so no stream is built from the seed
        d = run_test(x, CriticalValueSpec(method, seed=-1), include_diagnostics=True)
        seeded = run_test(x, CriticalValueSpec(method), include_diagnostics=True)
        assert d.method.seed == -1
        assert dataclasses.replace(d, method=seeded.method) == seeded

    @pytest.mark.parametrize("method, scheme", [("mb1", "MB"), ("hyb-eb", "EB")])
    def test_a_bootstrap_spec_without_a_stream_names_its_scheme(self, x, method, scheme):
        with pytest.raises(ValueError, match=f"{scheme} bootstrap needs a stream"):
            run_tests(x, [self.spec(method)], None)

    def test_analytic_specs_need_no_stream(self, x):
        specs = [self.spec("sn1"), self.spec("sn2")]
        assert run_tests(x, specs, None) == [run_test(x, spec) for spec in specs]

    def test_other_methods_and_their_order_change_nothing(self, x):
        rep = SeededStream(5).child("mc", 4)
        alone = self.run(x, ("mb2",), rep)["mb2"]
        assert self.run(x, ("eb1", "mb1", "mb2"), rep)["mb2"] == alone
        methods = ("sn2", "eb2", "mb1", "hyb-eb", "mb2", "eb1")
        base = self.run(x, methods, rep)
        for perm in itertools.islice(itertools.permutations(methods), 0, 720, 97):
            assert self.run(x, perm, rep) == base
