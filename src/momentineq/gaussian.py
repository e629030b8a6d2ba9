"""Reproducible random substreams and standard normal draws.

Every randomized procedure in this package draws from a :class:`SeededStream`,
a value type identifying a substream by ``(master_seed, path)``.  The stream's
Philox generator is keyed by a hash of that pair, so distinct paths yield
independent streams and results never depend on wall clock, call order, or
thread identity.  Normal variates are produced by inversion (quantile applied
to open-interval uniforms), which keeps consumption patterns, and therefore
reproducibility, independent of the values drawn.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import check_count

__all__ = [
    "SeededStream",
    "standard_normal_draws",
]

_U53 = 0.5 ** 53  # spacing of the open-interval uniform grid


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
    """Uniform draws on the *open* interval (0, 1).

    Values are odd multiples of 2^-53, so the endpoints 0 and 1 are
    unreachable and ``ndtri`` stays finite.
    """
    k = gen.integers(0, 1 << 52, size=size, dtype=np.int64)
    # (2k + 1) * 2^-53 in place: 2k + 1 < 2^53 converts to float exactly
    k <<= 1
    k |= 1
    u = k.astype(np.float64)
    u *= _U53
    return u


def standard_normal_draws(stream: SeededStream, count: int) -> np.ndarray:
    """``count`` i.i.d. N(0,1) draws, fully determined by the stream.

    Uses inversion sampling; identical ``(master_seed, path, count)``
    give bitwise-identical output.
    """
    return ndtri(open_uniform(stream.generator(), check_count("count", count)))
