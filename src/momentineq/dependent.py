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
    check_sizes,
    decide,
    summarize,
)
from .gaussian import SeededStream

__all__ = [
    "BlockPlan",
    "make_blocks",
    "bmb_test",
]


@dataclass(frozen=True)
class BlockPlan:
    """Partition of ``{0, ..., n-1}`` into alternating large and small blocks.

    ``large_blocks`` holds ``m`` half-open row ranges of length ``q``;
    ``small_blocks`` holds ``m`` ranges of length ``r`` plus one trailing
    remainder range (possibly empty).  Ranges are 0-based ``(start, stop)``.
    """

    n: int
    q: int
    r: int
    m: int
    large_blocks: tuple[tuple[int, int], ...]
    small_blocks: tuple[tuple[int, int], ...]


def make_blocks(n: int, q: int, r: int) -> BlockPlan:
    """Alternating block partition with large length ``q`` and small length ``r``.

    Requires ``1 <= r < q`` and ``q + r <= n / 2`` (at least two full
    large/small cycles fit).  The trailing remainder after the last small
    block forms one extra small block.
    """
    n, q, r = int(n), int(q), int(r)
    if r < 1:
        raise ValueError("small-block length r must be at least 1")
    if not r < q:
        raise ValueError(f"need r < q, got q={q}, r={r}")
    if not 2 * (q + r) <= n:
        raise ValueError(
            f"need q + r <= n/2, got q+r={q + r} with n={n}"
        )
    m = n // (q + r)
    large = tuple((l * (q + r), l * (q + r) + q) for l in range(m))
    small = tuple((l * (q + r) + q, (l + 1) * (q + r)) for l in range(m))
    small = small + ((m * (q + r), n),)
    return BlockPlan(n=n, q=q, r=r, m=m, large_blocks=large, small_blocks=small)


def default_block_lengths(n: int) -> tuple[int, int]:
    """Default ``(q, r)``: ``q = floor(n^(1/3))``, ``r = max(1, floor(n^(1/6)))``."""
    q = int(n ** (1.0 / 3.0))
    r = max(1, int(n ** (1.0 / 6.0)))
    return q, r


def bmb_test(sample, plan: BlockPlan, alpha: float, B: int,
             stream: SeededStream) -> TestDecision:
    """Dependent-data test: reject when ``max_j sqrt(n) mean_j`` exceeds the BMB cutoff.

    Each replication draws one N(0,1) multiplier per large block and records
    ``max_j (mq)^(-1/2) * sum_l eps_l * sum_{i in I_l} (x_ij - mean_j)``;
    the cutoff is the ``1 - alpha`` empirical quantile of ``B``
    replications.  A cutoff past the float range raises
    :class:`~momentineq.errors.UndefinedCriticalValueError`.
    """
    B = int(B)
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
    block_sums = np.stack([xc[a:b].sum(axis=0) for a, b in plan.large_blocks])
    scale = 1.0 / math.sqrt(plan.m * plan.q)
    draws = _rowmax_draws(_normal_weights, block_sums, B, stream) * scale
    # A cutoff past the float range scales back to inf, which exceeds names
    with np.errstate(over="ignore"):
        cv = np.ldexp(_quantile(draws, 1.0 - alpha), k)
    return decide(MomentSummary(s.means, np.ones(s.p), s.n), cv, range(1, s.p + 1), "bmb")
