"""Block multiplier bootstrap for weakly dependent rows.

For time-ordered observations the i.i.d. bootstraps are invalid; instead the
row range is split into alternating large and small blocks, one standard
normal multiplier is attached to each *large* block, and the critical value
is the empirical quantile of the resulting weighted block sums.  The small
blocks break the dependence between consecutive large-block sums and are
ignored by the bootstrap statistic.  The draws come from the multiplier
bootstrap's engine, on the large-block sums in place of the studentized rows,
so they keep its exact column invariances.  The test statistic here is
non-studentized: ``max_j sqrt(n) * mean_j``, the studentized one of a
summary with unit standard deviations, so the decision goes through the
same rule as every other test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import _normal_weights, _quantile, _rowmax_draws
from .core import (
    MomentSummary,
    TestDecision,
    as_sample_matrix,
    check_count,
    check_sizes,
    decide,
    summarize,
)
from .gaussian import SeededStream

__all__ = [
    "BlockPlan",
    "make_blocks",
    "default_block_lengths",
    "bmb_test",
]


@dataclass(frozen=True)
class BlockPlan:
    """Partition of ``{0, ..., n-1}`` into alternating large and small blocks.

    Large block ``l`` (``0 <= l < m``) starts at row ``l (q + r)`` and is
    followed by small block ``l``; one trailing remainder block (possibly
    empty) ends the range.  The plan stores these four numbers alone, so its
    size does not grow with ``n``; ``large_blocks`` and ``small_blocks``
    list the 0-based half-open ``(start, stop)`` ranges when they are read.

    A plan checks itself: a ``ValueError`` refuses one that breaks ``1 <= r < q``,
    ``q + r <= n / 2`` or ``m == n // (q + r)``.
    """

    n: int
    q: int
    r: int
    m: int

    def __post_init__(self):
        for name in ("n", "q", "r", "m"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if not self.r < self.q:
            raise ValueError(f"need r < q, got q={self.q}, r={self.r}")
        if not 2 * (self.q + self.r) <= self.n:
            raise ValueError(f"need q + r <= n/2, got q+r={self.q + self.r} with n={self.n}")
        if self.m != self.n // (self.q + self.r):
            raise ValueError(f"need m = n // (q + r) = {self.n // (self.q + self.r)}, got {self.m}")

    @property
    def _starts(self) -> range:
        """The first row of each large block."""
        return range(0, self.m * (self.q + self.r), self.q + self.r)

    @property
    def large_blocks(self) -> tuple[tuple[int, int], ...]:
        """The ``m`` ranges of length ``q``."""
        return tuple((a, a + self.q) for a in self._starts)

    @property
    def small_blocks(self) -> tuple[tuple[int, int], ...]:
        """The ``m`` ranges of length ``r``, then the remainder up to ``n``."""
        inner = tuple((a + self.q, a + self.q + self.r) for a in self._starts)
        return inner + ((self.m * (self.q + self.r), self.n),)


def make_blocks(n: int, q: int, r: int) -> BlockPlan:
    """Alternating block partition with large length ``q`` and small length ``r``.

    Requires ``1 <= r < q`` and ``q + r <= n / 2`` (at least two full
    large/small cycles fit); :class:`BlockPlan` checks them.  The trailing
    remainder after the last small block forms one extra small block.
    """
    try:
        m = n // (q + r)
    except (TypeError, ZeroDivisionError):
        m = 0  # lengths the plan refuses by name before it reads m
    return BlockPlan(n=n, q=q, r=r, m=m)


def default_block_lengths(n: int) -> tuple[int, int]:
    """Default ``(q, r)``: ``q = floor(n^(1/3))``, ``r = max(1, floor(n^(1/6)))``."""
    n = check_count("n", n)
    # the float cube root can land below an exact cube (64 ** (1/3) is
    # 3.9999999999999996), so it is corrected with integer comparisons; and
    # floor(sqrt(floor(x))) = floor(sqrt(x)) makes r exact too
    q = round(n ** (1.0 / 3.0))
    while q ** 3 > n:
        q -= 1
    while (q + 1) ** 3 <= n:
        q += 1
    return q, max(1, math.isqrt(q))


def bmb_test(sample, plan: BlockPlan, alpha: float, B: int,
             stream: SeededStream) -> TestDecision:
    """Dependent-data test: reject when ``max_j sqrt(n) mean_j`` exceeds the BMB cutoff.

    Each replication draws one N(0,1) multiplier per large block and records
    ``max_j (mq)^(-1/2) * sum_l eps_l * sum_{i in I_l} (x_ij - mean_j)``;
    the cutoff is the ``1 - alpha`` empirical quantile of ``B``
    replications.  A cutoff past the float range raises
    :class:`~momentineq.errors.UndefinedCriticalValueError`.
    """
    check_sizes(alpha, replications=B)
    x = as_sample_matrix(sample)
    if plan.n != x.shape[0]:
        raise ValueError(
            f"block plan is for n={plan.n} but sample has n={x.shape[0]} rows"
        )
    s = summarize(x)
    # The block sums are formed from the sample scaled by one power of two
    # 2^-k, k the largest column exponent, so neither they nor their weighted
    # sums overflow; the cutoff is scaled back, and the scaling is exact.
    k = int(s.e.max())
    xc = np.ldexp(x, -k)
    xc -= np.ldexp(s.ms, s.e - k)
    block_sums = np.stack([xc[a:a + plan.q].sum(axis=0) for a in plan._starts])
    scale = 1.0 / math.sqrt(plan.m * plan.q)
    draws = _rowmax_draws(_normal_weights, block_sums, B, stream) * scale
    # A cutoff past the float range scales back to inf, which exceeds names
    with np.errstate(over="ignore"):
        cv = np.ldexp(_quantile(draws, 1.0 - alpha), k)
    return decide(MomentSummary(s.means, np.ones(s.p), s.n), cv, range(1, s.p + 1), "bmb")
