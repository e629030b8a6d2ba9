"""Normal quantile accuracy against an mpmath oracle, and stream contracts."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtri

from momentineq import SeededStream
from momentineq.gaussian import _placed, open_uniform

mp.mp.dps = 40


def phi_oracle(x: float) -> float:
    return float(0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2)))


def phi_inv_oracle(u: float) -> float:
    return float(-mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(u)))


class TestNormalQuantile:
    # ``ndtri`` is the quantile behind every normal draw and the SN cutoff
    def test_half_is_zero(self):
        assert ndtri(0.5) == 0.0

    def test_known_995_point(self):
        assert abs(ndtri(0.995) - 2.5758293) <= 1e-6

    def test_against_high_precision_oracle(self):
        for u in np.concatenate([np.linspace(0.001, 0.999, 51), [1e-8, 1 - 1e-8]]):
            assert abs(ndtri(u) - phi_inv_oracle(u)) <= 1e-9

    def test_tail_symmetry(self):
        # below u ~ 1e-5 the rounding of 1 - u itself dominates, so the
        # symmetry identity is only meaningful at moderate tails
        for u in (1e-4, 0.001, 0.01, 0.2, 0.49):
            assert abs(ndtri(1 - u) + ndtri(u)) <= 1e-12

    def test_round_trip_on_log_grid(self):
        for u in np.geomspace(1e-8, 0.5, 40):
            assert abs(phi_oracle(ndtri(u)) - u) <= 1e-9
            assert abs(phi_oracle(ndtri(1 - u)) - (1 - u)) <= 1e-9

    def test_strictly_increasing(self):
        grid = np.linspace(1e-6, 1 - 1e-6, 301)
        vals = ndtri(grid)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_domain_error(self, bad):
        # ndtri signals its domain by a non-finite value, not an exception,
        # which is why draws invert open-interval uniforms only
        assert not np.isfinite(ndtri(bad))


class TestSeededStream:
    def test_identical_streams_give_identical_draws(self):
        a = ndtri(open_uniform(SeededStream(9, (("rep", 3),)).generator(), 1000))
        b = ndtri(open_uniform(SeededStream(9, (("rep", 3),)).generator(), 1000))
        np.testing.assert_array_equal(a, b)

    def test_child_paths_compose(self):
        s = SeededStream(5).child("mc", 2).child("crit")
        assert s.path == (("mc", 2), ("crit", 0))

    def test_keys_are_frozen(self):
        # Locks the hashing scheme: changing it would silently break
        # reproducibility of published seeds.
        assert SeededStream(0).key() == 151015775380282788912884916853709694677
        assert (
            SeededStream(9, (("rep", 3),)).key()
            == 39972213866369779937436424399471077804
        )

    def test_rejects_bad_seeds_and_paths(self):
        with pytest.raises(ValueError):
            SeededStream(-1)
        with pytest.raises(ValueError):
            SeededStream(2 ** 64)
        with pytest.raises(ValueError):
            SeededStream(0, (("a", -1),))

    def test_sibling_paths_differ(self):
        root = SeededStream(123)
        a = ndtri(open_uniform(root.child("rep", 0).generator(), 64))
        b = ndtri(open_uniform(root.child("rep", 1).generator(), 64))
        c = ndtri(open_uniform(root.child("crit", 0).generator(), 64))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestStandardNormalDraws:
    """Normal draws by inversion, ``ndtri`` of open-interval uniforms, as the samples' are."""

    def test_moments_at_one_million_draws(self):
        z = ndtri(open_uniform(SeededStream(2024).generator(), 1_000_000))
        assert abs(z.mean()) <= 4.0 / np.sqrt(1_000_000)
        assert abs(z.var() - 1.0) <= 0.01

    def test_disjoint_paths_uncorrelated(self):
        root = SeededStream(77)
        a = ndtri(open_uniform(root.child("left").generator(), 100_000))
        b = ndtri(open_uniform(root.child("right").generator(), 100_000))
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_uniforms_are_strictly_interior(self):
        u = open_uniform(SeededStream(5).generator(), 10_000)
        assert u.min() > 0.0
        assert u.max() < 1.0
        # odd multiples of 2^-53: scaling by 2^53 recovers odd integers
        k = u * 2.0 ** 53
        assert np.all(k == np.round(k))
        assert np.all(np.asarray(k, dtype=np.int64) % 2 == 1)

    @staticmethod
    def oracle(gen, size):
        """The uniforms as ``Generator.integers`` makes them: ``(2k + 1) 2^-53``, ``k < 2^52``."""
        k = gen.integers(0, 1 << 52, size=size, dtype=np.int64)
        return (2 * k + 1) * 0.5 ** 53

    @pytest.mark.parametrize("size", [(1000, 400), (7, 3), 5, (2, 3, 4), 1, 0])
    def test_uniforms_match_the_closed_form_bitwise(self, size):
        expected = self.oracle(SeededStream(9).generator(), size)
        u = open_uniform(SeededStream(9).generator(), size)
        assert u.dtype == np.float64 and u.shape == expected.shape
        assert u.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 10 ** 6 + 4, 10 ** 6 + 5, 10 ** 6 + 6,
                                        10 ** 6 + 7])
    def test_placed_uniforms_match_the_closed_form_bitwise(self, offset):
        # the raw outputs behind the uniforms continue from any remainder mod 4
        stream = SeededStream(9, (("mc", 1),))
        drained = stream.generator()
        drained.bit_generator.random_raw(offset)
        u = open_uniform(_placed(stream, offset), (13, 5))
        assert u.tobytes() == self.oracle(drained, (13, 5)).tobytes()


class TestAhead:
    """Uniforms drawn ahead in parts continue the stream: the bits of one call.

    Each call starts where the last left off, at any place in Philox's four
    outputs per counter, which the multiplier fill's row pieces rely on.
    """

    @pytest.mark.parametrize("taken", [0, 1, 3, 4, 5, 8, 11])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7, 4 * 10 ** 6 + 1])
    def test_draws_continue_the_stream(self, taken, count):
        stream = SeededStream(3, (("MB", 0),))
        gen = stream.generator()
        parts = [open_uniform(gen, size) for size in (taken, count, 9)]
        whole = open_uniform(stream.generator(), taken + count + 9)
        assert np.concatenate(parts).tobytes() == whole.tobytes()


class TestPlaced:
    """A placed generator draws what a generator drained of ``offset`` outputs draws next.

    Philox makes four outputs per counter step, so the offsets take every
    remainder mod 4, at the start and far into the stream.
    """

    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 5, 6, 7, 10 ** 6, 10 ** 6 + 1,
                                        10 ** 6 + 2, 10 ** 6 + 3])
    def test_continues_where_a_drained_generator_does(self, offset):
        stream = SeededStream(4, (("mc", 2),))
        drained = stream.generator()
        drained.bit_generator.random_raw(offset)
        placed = _placed(stream, offset)
        for size in (1, 6, 9):
            assert open_uniform(placed, size).tobytes() == open_uniform(drained, size).tobytes()
        assert placed.bit_generator.random_raw(5).tolist() == drained.bit_generator.random_raw(
            5).tolist()
