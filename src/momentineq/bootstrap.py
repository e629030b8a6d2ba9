"""Multiplier and empirical bootstrap critical values, and the one pipeline behind all methods.

Both schemes simulate the conditional law of the max of studentized centered
column averages: the multiplier bootstrap (MB) reweights the centered rows
with i.i.d. standard normal multipliers, the empirical bootstrap (EB)
resamples rows with replacement.  Critical values are left-continuous
empirical quantiles (the ``ceil(level * B)``-th order statistic) of ``B``
such draws.

Every critical value is three choices, and :data:`~momentineq.core.METHODS`
maps each of the eight method names to them: the selection rule (all
columns, the SN threshold ``-2 c_SN(beta)`` or the bootstrap threshold
``-2 c_B(beta)``), the scheme computing the cutoff (the SN formula, MB or
EB), and the multiplier ``m`` in the level ``1 - alpha + m beta`` (the SN
formula uses the tail ``(alpha - m beta) / k`` over ``k`` selected columns).
:func:`_critical` runs that pipeline for :func:`run_test`, the
approximate-data test and, with ``m = 4``, the three-step test; each
critical value is read off the decision they return.

Stream discipline: within one test, selection draws and critical-value draws
come from disjoint substreams (``select`` vs ``crit`` children of the test's
stream), so each quantile is computed from fresh randomness and the whole
pipeline is reproducible.  Replication ``b`` consumes the ``b``-th row of the
run's multiplier (or index) block, which makes every draw independent of the
restriction set: restricting to a subset of columns, duplicating a column, or
permuting columns never changes the randomness a replication sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import (
    METHODS,
    CriticalValueSpec,
    MomentSummary,
    Rule,
    TestDecision,
    _diagnostics,
    as_sample_matrix,
    decide,
    summarize,
)
from .errors import DegenerateColumnError
from .gaussian import SeededStream, open_uniform
from .sn import _sn_from_tail, sn_select, threshold_select

__all__ = [
    "BootstrapDraws",
    "mb_draws",
    "eb_draws",
    "empirical_quantile",
    "run_test",
]

SCHEMES = ("MB", "EB")

# Replication blocks are generated in chunks of roughly this many scalars
# to bound memory at large B; chunking never changes the values drawn.
_CHUNK_SCALARS = 4_000_000

# The draw matrix is multiplied in fixed-width column blocks (zero-padded at
# the tail) so that every matrix product has the same width.  BLAS kernels
# can pick different accumulation orders for different shapes; the fixed
# width makes a column's draw value a function of that column alone, which
# the exact invariants (duplication, permutation, restriction to a subset)
# rely on bit for bit.
_COL_BLOCK = 64


@dataclass(frozen=True)
class BootstrapDraws:
    """Realizations of the bootstrap max statistic over a restricted column set."""

    values: np.ndarray
    restricted_to: frozenset[int]


def _columns_mask(J, p: int) -> np.ndarray:
    """Validate a 1-based column set against ``p`` and return a 0-based index array."""
    if J is None:
        return np.arange(p)
    cols = sorted({int(j) for j in J})
    if cols and (cols[0] < 1 or cols[-1] > p):
        raise ValueError(f"column set {cols} not within 1..{p}")
    return np.asarray(cols, dtype=np.intp) - 1


def _chunk(n: int, B: int) -> int:
    return max(1, min(B, _CHUNK_SCALARS // max(n, 1)))


def _check_nondegenerate(sigma: np.ndarray, cols0: np.ndarray, context: str):
    bad = cols0[sigma[cols0] == 0.0]
    if bad.size:
        raise DegenerateColumnError(bad + 1, context=context)


def _blocked_rowmax(weights: np.ndarray, g: np.ndarray, shift=None) -> np.ndarray:
    """Row max of ``weights @ g`` (minus ``shift``) in fixed-width column blocks."""
    n, c = g.shape
    out = None
    for s in range(0, c, _COL_BLOCK):
        block = g[:, s:s + _COL_BLOCK]
        w = block.shape[1]
        if w < _COL_BLOCK:
            padded = np.zeros((n, _COL_BLOCK))
            padded[:, :w] = block
            block = padded
        prod = (weights @ block)[:, :w]
        if shift is not None:
            prod = prod - shift[s:s + w]
        m = prod.max(axis=1)
        out = m if out is None else np.maximum(out, m)
    return out


def _mb_values(x, mu, sigma, cols0, B, stream) -> np.ndarray:
    n = x.shape[0]
    if cols0.size == 0:
        return np.zeros(B)
    _check_nondegenerate(sigma, cols0, "multiplier bootstrap undefined")
    g = (x[:, cols0] - mu[cols0]) / (math.sqrt(n) * sigma[cols0])
    gen = stream.generator()
    out = np.empty(B)
    step = _chunk(n, B)
    for start in range(0, B, step):
        stop = min(start + step, B)
        eps = ndtri(open_uniform(gen, (stop - start, n)))
        out[start:stop] = _blocked_rowmax(eps, g)
    return out


def _eb_values(x, mu, sigma, cols0, B, stream) -> np.ndarray:
    n = x.shape[0]
    if cols0.size == 0:
        return np.zeros(B)
    _check_nondegenerate(sigma, cols0, "empirical bootstrap undefined")
    h = x[:, cols0] / (math.sqrt(n) * sigma[cols0])
    s0 = math.sqrt(n) * mu[cols0] / sigma[cols0]
    gen = stream.generator()
    out = np.empty(B)
    step = _chunk(n, B)
    for start in range(0, B, step):
        stop = min(start + step, B)
        k = stop - start
        idx = gen.integers(0, n, size=(k, n))
        flat = (idx + (np.arange(k) * n)[:, None]).ravel()
        counts = np.bincount(flat, minlength=k * n).reshape(k, n).astype(np.float64)
        out[start:stop] = _blocked_rowmax(counts, h, shift=s0)
    return out


def _values(scheme, x, mu, sigma, cols0, B, stream) -> np.ndarray:
    if scheme == "MB":
        return _mb_values(x, mu, sigma, cols0, B, stream)
    return _eb_values(x, mu, sigma, cols0, B, stream)


def _draws(scheme, sample, summary: MomentSummary, J, B: int, stream: SeededStream) -> BootstrapDraws:
    x = as_sample_matrix(sample)
    cols0 = _columns_mask(J, summary.p)
    values = _values(scheme, x, summary.means, summary.sds, cols0, int(B), stream)
    return BootstrapDraws(values=values, restricted_to=frozenset(int(c) + 1 for c in cols0))


def mb_draws(sample, summary: MomentSummary, J, B: int, stream: SeededStream) -> BootstrapDraws:
    """Multiplier bootstrap draws of the max statistic restricted to ``J``.

    Replication ``b`` multiplies the centered rows by fresh N(0,1) weights
    and records ``max_{j in J} sqrt(n) * mean_i(eps_i (x_ij - mean_j)) / sd_j``.
    An empty ``J`` yields all zeros.  Raises
    :class:`~momentineq.errors.DegenerateColumnError` if ``J`` contains a
    zero-variance column.
    """
    return _draws("MB", sample, summary, J, B, stream)


def eb_draws(sample, summary: MomentSummary, J, B: int, stream: SeededStream) -> BootstrapDraws:
    """Empirical bootstrap draws of the max statistic restricted to ``J``.

    Replication ``b`` draws ``n`` row indices with replacement and records
    ``max_{j in J} sqrt(n) * (resampled mean_j - mean_j) / sd_j``.
    """
    return _draws("EB", sample, summary, J, B, stream)


def _order_statistic_index(level: float, B: int) -> int:
    """1-based index ``ceil(level * B)`` with a half-ulp guard.

    ``level * B`` that is an integer up to rounding must not be pushed to
    the next order statistic by floating-point excess (0.95 * 1000 is a hair
    above 950 in binary).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {level}")
    t = level * B
    r = round(t)
    if r >= 1 and abs(t - r) <= 1e-9 * max(1.0, t):
        k = int(r)
    else:
        k = math.ceil(t)
    return min(max(k, 1), B)


def _quantile(values: np.ndarray, level: float) -> float:
    k = _order_statistic_index(level, len(values))
    return float(np.partition(values, k - 1)[k - 1])


def empirical_quantile(draws: BootstrapDraws, level: float) -> float:
    """Left-continuous empirical quantile: the ``ceil(level * B)``-th order statistic."""
    return _quantile(np.asarray(draws.values, dtype=np.float64), level)


def _select(rule: Rule, x, s: MomentSummary, beta, B, stream) -> frozenset[int]:
    """The 1-based columns the rule keeps: all, the SN rule's, or the bootstrap rule's."""
    if rule.selection is None:
        return frozenset(range(1, s.p + 1))
    if rule.selection == "sn":
        return sn_select(s, beta)
    vals = _values(rule.scheme, x, s.means, s.sds, np.arange(s.p), B, stream.child("select"))
    return threshold_select(s, -2.0 * _quantile(vals, 1.0 - beta))


def _cutoff(rule: Rule, x, s: MomentSummary, selected, alpha, beta, B, stream) -> float:
    """The rule's cutoff over ``selected`` at size ``alpha - m beta``; 0 over no columns."""
    if rule.scheme == "SN":
        k = len(selected)
        return _sn_from_tail((alpha - rule.m * beta) / k, s.n) if k else 0.0
    cols0 = np.asarray(sorted(selected), dtype=np.intp) - 1
    vals = _values(rule.scheme, x, s.means, s.sds, cols0, B, stream.child("crit"))
    return _quantile(vals, 1.0 - alpha + rule.m * beta)


def _critical(rule: Rule, x, s: MomentSummary, alpha, beta, B, stream):
    """The pipeline behind every method: ``(critical value, selected columns)``.

    ``stream`` may be ``None`` for the analytic scheme, which draws nothing.
    """
    selected = _select(rule, x, s, beta, B, stream)
    return _cutoff(rule, x, s, selected, alpha, beta, B, stream), selected


def run_test(sample, spec: CriticalValueSpec, *, stream: SeededStream | None = None,
             include_diagnostics: bool = False) -> TestDecision:
    """Run the test selected by ``spec`` and return the full decision record.

    The statistic is always the max studentized score over all columns; the
    critical value and the reported ``selected`` set depend on the method.
    The rejection decision goes through the coordinate-wise rule, so it is
    well-defined even when some column has zero variance (analytic methods
    only; bootstrap draws over a zero-variance column raise).

    ``stream`` overrides the default ``SeededStream(spec.seed)``, which lets
    a simulation harness nest the bootstrap randomness under its own
    substream tree.
    """
    x = as_sample_matrix(sample)
    s = summarize(x)
    rule = METHODS[spec.method]
    if stream is None and rule.scheme != "SN":
        stream = SeededStream(spec.seed)
    cv, selected = _critical(rule, x, s, spec.alpha, spec.beta, spec.replications, stream)
    diagnostics = None
    if include_diagnostics and not s.any_degenerate():
        diagnostics = _diagnostics(x, s)
    return decide(s, cv, selected, spec, diagnostics=diagnostics)
