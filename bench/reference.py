"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the method's definitions with numpy and
scipy.stats alone; nothing is imported from ``momentineq``.  Bootstrap
critical values are random, so they are not compared with a number but
located within the benchmark's own simulated distribution: the program's
cutoff ``c`` is the ``k``-th of its ``B`` draws, so the number of
reference draws at or below ``c`` has a known beta-binomial law, and ``c``
passes unless that number falls in a tail of it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import betabinom, binom, norm

# Chance that a check fails a correct program, in each tail.
FALSE_ALARM = 1e-7
# Column chunk for the reference products, which bounds their memory.
_CHUNK = 512


def moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and n-divisor standard deviations."""
    return x.mean(axis=0), x.std(axis=0, ddof=0)


def scores(x: np.ndarray) -> np.ndarray:
    """Studentized column means ``sqrt(n) mean_j / sd_j`` with the n-divisor."""
    mean, sd = moments(x)
    return math.sqrt(x.shape[0]) * mean / sd


def studentized_max(x: np.ndarray) -> float:
    """The test statistic: the largest studentized column mean."""
    return float(scores(x).max())


def sn_critical(tail: float, n: int) -> float:
    """Self-normalized cutoff ``z / sqrt(1 - z^2/n)`` with ``z`` the upper-``tail`` normal quantile."""
    z = float(norm.isf(tail))
    return z / math.sqrt(1.0 - z * z / n)


def sn_selected(x: np.ndarray, beta: float) -> np.ndarray:
    """0-based columns kept by self-normalized selection at size ``beta``."""
    n, p = x.shape
    return np.flatnonzero(scores(x) > -2.0 * sn_critical(beta / p, n))


def sn2_critical(x: np.ndarray, alpha: float, beta: float) -> tuple[float, int]:
    """Two-step self-normalized cutoff and the number of columns it selected."""
    k = sn_selected(x, beta).size
    return (sn_critical((alpha - 2.0 * beta) / k, x.shape[0]) if k else 0.0), k


def mb_max_draws(x: np.ndarray, B: int, rng: np.random.Generator, subsets) -> list[np.ndarray]:
    """Multiplier-bootstrap maxima over each 0-based column subset.

    Replication ``b`` draws ``eps ~ N(0, I_n)`` and records
    ``max_j sum_i eps_i (x_ij - mean_j) / (sqrt(n) sd_j)`` over the subset.
    """
    n = x.shape[0]
    mean, sd = moments(x)
    weights = rng.standard_normal((B, n))
    return _subset_maxima(weights, (x - mean) / (math.sqrt(n) * sd), subsets)


def eb_max_draws(x: np.ndarray, B: int, rng: np.random.Generator, subsets) -> list[np.ndarray]:
    """Empirical-bootstrap maxima over each 0-based column subset.

    Replication ``b`` resamples ``n`` rows with replacement and records
    ``max_j sqrt(n) (resampled mean_j - mean_j) / sd_j`` over the subset.
    """
    n = x.shape[0]
    mean, sd = moments(x)
    rows = rng.integers(0, n, size=(B, n))
    counts = np.zeros((B, n))
    np.add.at(counts, (np.arange(B)[:, None], rows), 1.0)
    return _subset_maxima(counts, (x - mean) / (math.sqrt(n) * sd), subsets)


def _subset_maxima(weights: np.ndarray, g: np.ndarray, subsets) -> list[np.ndarray]:
    masks = []
    for cols in subsets:
        mask = np.zeros(g.shape[1], dtype=bool)
        mask[np.asarray(cols, dtype=np.intp)] = True
        masks.append(mask)
    out = [np.full(weights.shape[0], -np.inf) for _ in masks]
    for s in range(0, g.shape[1], _CHUNK):
        prod = weights @ g[:, s:s + _CHUNK]
        for m, mask in enumerate(masks):
            part = mask[s:s + _CHUNK]
            if part.any():
                np.maximum(out[m], prod[:, part].max(axis=1), out=out[m])
    return out


def order_statistic_index(level: float, B: int) -> int:
    """1-based index ``ceil(level * B)`` of the order statistic a bootstrap cutoff takes."""
    t = level * B
    return max(1, math.ceil(t - 1e-9 * max(1.0, t)))


def _rank_law(level: float, B_program: int, B_reference: int):
    """Law of the number of reference draws at or below the program's cutoff.

    The cutoff is the ``k``-th of ``B_program`` draws, so ``F(cutoff)`` is
    Beta(k, B_program - k + 1), and given it the count out of
    ``B_reference`` draws from the same law is binomial.
    """
    k = order_statistic_index(level, B_program)
    return betabinom(B_reference, k, B_program - k + 1)


def quantile_consistent(draws: np.ndarray, c: float, level: float, B_program: int) -> bool:
    """Does the program's cutoff ``c`` sit at ``level`` of the reference draws?"""
    law = _rank_law(level, B_program, draws.size)
    m = int(np.count_nonzero(draws <= c))
    return law.cdf(m) > FALSE_ALARM and law.sf(m - 1) > FALSE_ALARM


def quantile_floor(draws: np.ndarray, level: float, B_program: int) -> float:
    """A cutoff a correct program falls below with chance at most ``FALSE_ALARM``.

    The program's cutoff is below the ``j``-th smallest reference draw
    exactly when fewer than ``j`` draws are at or below it; the largest
    ``j`` whose chance of that is within ``FALSE_ALARM`` gives the floor.
    """
    law = _rank_law(level, B_program, draws.size)
    j = int(np.searchsorted(law.cdf(np.arange(draws.size)), FALSE_ALARM, side="right"))
    return float(np.sort(draws)[j - 1]) if j else -math.inf


# Grid of Chernoff exponents for the empirical-bootstrap tail bound.  Any
# exponent gives a valid bound; the grid only decides how tight it is.
_CHERNOFF_S = np.geomspace(0.25, 16.0, 64)


def _column_tail_bound(x: np.ndarray, scheme: str):
    """``t -> P(draw of column j > t)`` bounded per column, given the sample.

    MB: the draw of column ``j`` is exactly N(0, 1) given the sample, since
    its weights ``(x_ij - mean_j) / (sqrt(n) sd_j)`` have unit sum of squares.
    EB: it is a sum of ``n`` resampled terms ``z_ij / sqrt(n)`` (``z`` the
    standardized column), so the Chernoff bound
    ``min_s exp(n log mean_i exp(s z_ij / sqrt(n)) - s t)`` holds.
    """
    if scheme == "MB":
        return lambda t: np.full(x.shape[1], norm.sf(t))
    n = x.shape[0]
    mean, sd = moments(x)
    z = (x - mean) / (math.sqrt(n) * sd)
    # cumulant K_j(s) = n log mean_i exp(s z_ij), one row per exponent
    K = np.empty((_CHERNOFF_S.size, x.shape[1]))
    for row, s in enumerate(_CHERNOFF_S):
        a = s * z
        top = a.max(axis=0)
        K[row] = n * (top + np.log(np.exp(a - top).mean(axis=0)))
    return lambda t: np.exp(np.minimum((K - _CHERNOFF_S[:, None] * t).min(axis=0), 0.0))


def cutoff_ceiling(x: np.ndarray, level: float, B_program: int, scheme: str) -> float:
    """A cutoff a correct program exceeds with chance at most ``FALSE_ALARM``.

    The program's cutoff is the ``k``-th of ``B_program`` draws of the
    maximum over every column.  A union bound over the columns bounds the
    chance ``q(t)`` that one draw exceeds ``t``, and the cutoff exceeds ``t``
    only when ``B_program - k + 1`` draws do, which a binomial tail in
    ``q(t)`` bounds.  The smallest such ``t`` is found by bisection.  At
    level ``1 - beta`` this upper end is finite, unlike one read from a
    few thousand reference draws.
    """
    tail = _column_tail_bound(x, scheme)
    needed = B_program - order_statistic_index(level, B_program) + 1

    def chance(t):
        q = min(1.0, float(tail(t).sum()))
        return float(binom.sf(needed - 1, B_program, q))

    lo, hi = 0.0, 64.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if chance(mid) > FALSE_ALARM else (lo, mid)
    return hi


def bootstrap_selection_consistent(x: np.ndarray, selected0: np.ndarray, draws: np.ndarray,
                                   beta: float, B_program: int, scheme: str) -> bool:
    """Is a bootstrap selection at size ``beta`` one a correct program can make?

    The program keeps columns with score above ``-2 c(beta)``.  With ``c``
    anywhere between the floor read from the reference draws and the
    ceiling of :func:`cutoff_ceiling`, the kept set lies between the columns
    clearing ``-2 floor`` and those clearing ``-2 ceiling``.
    """
    level = 1.0 - beta
    lo = quantile_floor(draws, level, B_program)
    hi = cutoff_ceiling(x, level, B_program, scheme)
    sc = scores(x)
    chosen = np.zeros(x.shape[1], dtype=bool)
    chosen[selected0] = True
    must = sc > -2.0 * lo
    may = sc > -2.0 * hi
    return bool(np.all(chosen[must]) and np.all(may[chosen]))


def diagnostics(x: np.ndarray) -> dict[str, float]:
    """In-sample L3/L4 column norms and the L4 norm of the row maximum of ``z^4``."""
    mean, sd = moments(x)
    z4 = ((x - mean) / sd) ** 4
    return {
        "m3": float((np.abs((x - mean) / sd) ** 3).mean(axis=0).max() ** (1 / 3)),
        "m4": float(z4.mean(axis=0).max() ** 0.25),
        "bn": float(z4.max(axis=1).mean() ** 0.25),
    }


def block_layout(n: int) -> tuple[int, int, int]:
    """Default block lengths ``q = floor(n^(1/3))``, ``r = max(1, floor(n^(1/6)))`` and the count ``m``."""
    q = int(math.floor(n ** (1.0 / 3.0) + 1e-9))
    r = max(1, int(math.floor(n ** (1.0 / 6.0) + 1e-9)))
    return q, r, n // (q + r)


def bmb_max_draws(x: np.ndarray, q: int, r: int, m: int, B: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Block-multiplier maxima: one N(0,1) weight per large block of ``q`` rows."""
    xc = x - x.mean(axis=0)
    sums = np.stack([xc[l * (q + r):l * (q + r) + q].sum(axis=0) for l in range(m)])
    return (rng.standard_normal((B, m)) @ sums).max(axis=1) / math.sqrt(m * q)
