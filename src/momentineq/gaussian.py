"""Reproducible random substreams and open-interval uniforms.

Every randomized procedure in this package draws from a :class:`SeededStream`,
a value type identifying a substream by ``(master_seed, path)``.  The stream's
Philox generator is keyed by a hash of that pair, so distinct paths yield
independent streams and results never depend on wall clock, call order, or
thread identity.  Every draw takes a fixed number of raw Philox outputs,
whatever the values drawn, which keeps consumption patterns, and therefore
reproducibility, independent of the values: the samples' normal variates are
``ndtri`` of :func:`open_uniform` draws (inversion), and the bootstrap
multipliers are Box-Muller cosines, each from one raw output (see
``bootstrap._normal_weights``).

Each uniform and each multiplier takes exactly one 64-bit Philox output, read
through ``random_raw``, whose stream numpy keeps fixed across versions; and
Philox makes four outputs per counter step.  So the ``k``-th uniform of a
stream is reached without drawing the ones before it (:func:`_placed`:
``advance(k // 4)``, then ``k % 4`` raw outputs), and a block drawn in runs
of whole rows (:func:`_row_pieces`) holds the bits of one call over the
block.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import check_count

__all__ = [
    "SeededStream",
]

_U53 = 0.5 ** 53  # spacing of the open-interval uniform grid

# Draws fill a block in runs of whole rows of about this many scalars, so
# their temporaries stay small: the bootstrap weight builders and the design
# samples alike.  Philox yields one output per uniform and per multiplier,
# and bounded integers keep their spare 32-bit half-word in the bit
# generator, so the piece boundaries move no bit.
_PIECE_SCALARS = 32_768


@dataclass(frozen=True)
class SeededStream:
    """A reproducible random substream identified by ``(master_seed, path)``.

    ``path`` is a sequence of ``(label, index)`` pairs.  Sibling streams
    (same parent, different path element) are statistically independent:
    each stream's Philox key is a 128-bit hash of the full identity, and
    Philox produces independent sequences for distinct keys.

    Streams are immutable; derive substreams with :meth:`child`.

    Parameters
    ----------
    master_seed : int
        Nonnegative 64-bit seed.
    path : tuple of (str, int) pairs
        Substream identity below the master seed.
    """

    master_seed: int
    path: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        seed = check_count("master_seed", self.master_seed, least=0, below=2 ** 64)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "path", tuple(
            (str(label), check_count("path index", index, least=0)) for label, index in self.path))

    def child(self, label: str, index: int = 0) -> "SeededStream":
        """Return the substream ``(label, index)`` below this one."""
        return SeededStream(self.master_seed, self.path + ((label, index),))

    def key(self) -> int:
        """128-bit Philox key derived by hashing ``(master_seed, path)``."""
        h = hashlib.blake2s(digest_size=16)
        h.update(self.master_seed.to_bytes(8, "little"))
        for label, index in self.path:
            raw = label.encode("utf-8")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
            h.update(index.to_bytes(8, "little"))
        return int.from_bytes(h.digest(), "little")

    def generator(self) -> np.random.Generator:
        """A fresh counter-based generator for this stream."""
        return np.random.Generator(np.random.Philox(key=self.key()))


def open_uniform(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws on the *open* interval (0, 1), one raw Philox output each.

    Values are odd multiples of 2^-53, so the endpoints 0 and 1 are
    unreachable and ``ndtri`` stays finite.  The value of a raw output ``r``
    is ``(2k + 1) 2^-53`` for its top 52 bits ``k = r >> 12``.
    """
    r = gen.bit_generator.random_raw(size)
    # (r >> 11) | 1 = 2k + 1 < 2^53 in place, which converts to float exactly
    r >>= 11
    r |= 1
    u = r.astype(np.float64)
    u *= _U53
    return u


def _row_pieces(out: np.ndarray):
    """``out`` in runs of whole rows of about ``_PIECE_SCALARS`` scalars (one row at least)."""
    step = max(1, _PIECE_SCALARS // out.shape[1])
    return (out[s:s + step] for s in range(0, out.shape[0], step))


def _placed(stream: SeededStream, offset: int) -> np.random.Generator:
    """A fresh generator on ``stream`` whose next uniform is the stream's ``offset``-th (from 0).

    Exact because :func:`open_uniform` takes one Philox output per value,
    and ``advance`` moves the counter by whole steps of four outputs.
    """
    gen = stream.generator()
    gen.bit_generator.advance(offset // 4)
    gen.bit_generator.random_raw(offset % 4)
    return gen
