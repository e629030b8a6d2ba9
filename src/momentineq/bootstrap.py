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
approximate-data test, :func:`run_tests` and, with ``m = 4``, the
three-step test; each critical value is read off the decision they return.

Stream discipline: within one test, selection draws and critical-value draws
come from disjoint substreams (``select`` vs ``crit`` children of the test's
stream), so each quantile is computed from fresh randomness and the whole
pipeline is reproducible.  :func:`run_tests`, which runs several methods on
one sample, draws the all-column values once per scheme on the ``MB`` or
``EB`` child of its stream and takes both the one-step cutoffs and the
two-step selection thresholds from them; a cutoff over a selected set still
draws on the method's own ``crit`` child.  Replication ``b`` consumes the
``b``-th row of the run's multiplier (or index) block, which makes every
draw independent of the restriction set: restricting to a subset of
columns, duplicating a column, or permuting columns never changes the
randomness a replication sees.

Memory: every bootstrap pass builds its ``k x n`` weight block (multipliers
or resampling counts) and the ``k x 64`` product of each column block in
workspaces that belong to the calling thread and are reused by its next
pass, so a warm pass maps no fresh pages.  The weight block is bounded by
``_CHUNK_SCALARS`` scalars (one row when a row alone is larger), and the
product by ``64 / n`` times that.  A thread keeps workspaces of at most
``_CHUNK_SCALARS`` scalars until it ends (a larger block lives for its pass
only); they never leave this module, and every array returned to a caller is
its own.
"""

from __future__ import annotations

import math
import threading
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
    _scaled_columns,
    as_sample_matrix,
    decide,
    studentized_scores,
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
    "run_tests",
]

SCHEMES = ("MB", "EB")

# Replication blocks are drawn in chunks of roughly this many scalars to
# bound memory at large B.  The chunk height depends on the row count and B
# only, so chunking keeps the column invariances but may move a draw's bits.
_CHUNK_SCALARS = 4_000_000

# The draw matrix is multiplied in fixed-width column blocks (zero-padded at
# the tail) so that every matrix product has the same width.  BLAS kernels
# can pick different accumulation orders for different shapes; the fixed
# width makes a column's draw value a function of that column alone, which
# the exact invariants (duplication, permutation, restriction to a subset)
# rely on bit for bit.
_COL_BLOCK = 64

# The weight builders fill a block in runs of whole rows of about this many
# scalars, so their temporaries stay small.  Philox yields one output per
# uniform, and bounded integers keep their spare 32-bit half-word in the bit
# generator, so the piece boundaries move no bit.
_PIECE_SCALARS = 32_768

# Per-thread workspaces of the draw loop (see _buffer): the weight block and
# the per-block product.  Threads of a pool never share one.
_workspace = threading.local()


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


def _buffer(name: str, shape) -> np.ndarray:
    """This thread's float64 workspace ``name``, viewed as ``shape``.

    The buffer grows to the largest shape asked for, up to ``_CHUNK_SCALARS``
    scalars, and is then reused, so a pass writes into pages already mapped
    instead of faulting in fresh ones; a larger block is a fresh array.
    """
    size = math.prod(shape)
    if size > _CHUNK_SCALARS:
        return np.empty(shape)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_workspace, name, buf)
    return buf[:size].reshape(shape)


def _blocked_rowmax(weights: np.ndarray, g: np.ndarray, shift=None) -> np.ndarray:
    """Row max of ``weights @ g`` (minus ``shift``) in fixed-width column blocks."""
    n, c = g.shape
    prod = _buffer("prod", (weights.shape[0], _COL_BLOCK))
    out = None
    for s in range(0, c, _COL_BLOCK):
        block = g[:, s:s + _COL_BLOCK]
        w = block.shape[1]
        if w < _COL_BLOCK:
            padded = np.zeros((n, _COL_BLOCK))
            padded[:, :w] = block
            block = padded
        np.matmul(weights, block, out=prod)
        vals = prod[:, :w]
        if shift is not None:
            vals -= shift[s:s + w]
        m = vals.max(axis=1)
        out = m if out is None else np.maximum(out, m, out=out)
    return out


def _row_pieces(out: np.ndarray):
    """``out`` in runs of whole rows of about ``_PIECE_SCALARS`` scalars (one row at least)."""
    step = max(1, _PIECE_SCALARS // out.shape[1])
    return (out[s:s + step] for s in range(0, out.shape[0], step))


def _normal_weights(gen, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (replications x rows) with i.i.d. N(0,1) multipliers, one per row."""
    for piece in _row_pieces(out):
        ndtri(open_uniform(gen, piece.shape), out=piece)
    return out


def _count_weights(gen, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (replications x rows) with resampling counts: how often each row is drawn."""
    rows = out.shape[1]
    for piece in _row_pieces(out):
        idx = gen.integers(0, rows, size=piece.shape)
        idx += np.arange(0, piece.size, rows)[:, None]
        piece.reshape(-1)[:] = np.bincount(idx.reshape(-1), minlength=piece.size)
    return out


def _rowmax_draws(weights, target: np.ndarray, B: int, stream: SeededStream,
                  shift=None) -> np.ndarray:
    """``B`` draws of the row max of ``weights(gen, block) @ target`` (minus ``shift``).

    The one draw loop of every bootstrap.  Its chunk height ``k`` depends
    only on the row count and ``B``, never on the columns, so the column
    invariances hold bit for bit; the BLAS kernel may depend on ``k``, so
    chunked draws can differ from unchunked ones in the last bits.

    ``weights`` fills each ``k x rows`` block in place.  The block lives in
    this thread's workspace (see :func:`_buffer`) and is reused by the next
    chunk and the next pass; like the product workspace of
    :func:`_blocked_rowmax`, it is never returned.  The builders
    consume the generator in the block's row-major order, piece by piece, so
    pieces draw the same bits as one call over the whole block.
    """
    rows = target.shape[0]
    gen = stream.generator()
    out = np.empty(B)
    step = max(1, min(B, _CHUNK_SCALARS // max(rows, 1)))
    for start in range(0, B, step):
        stop = min(start + step, B)
        block = weights(gen, _buffer("weights", (stop - start, rows)))
        out[start:stop] = _blocked_rowmax(block, target, shift)
    return out


def _mb_values(x, s: MomentSummary, cols0, B, stream) -> np.ndarray:
    g, ms, ss = _scaled_columns(x, s, cols0)
    g -= ms
    g /= math.sqrt(x.shape[0]) * ss
    return _rowmax_draws(_normal_weights, g, B, stream)


def _eb_values(x, s: MomentSummary, cols0, B, stream) -> np.ndarray:
    h, _, ss = _scaled_columns(x, s, cols0)
    h /= math.sqrt(x.shape[0]) * ss
    return _rowmax_draws(_count_weights, h, B, stream, shift=studentized_scores(s)[cols0])


def _values(scheme, x, s: MomentSummary, cols0, B, stream) -> np.ndarray:
    if cols0.size == 0:
        return np.zeros(B)
    name, values = ("multiplier", _mb_values) if scheme == "MB" else ("empirical", _eb_values)
    bad = cols0[s.degenerate[cols0]]
    if bad.size:
        raise DegenerateColumnError(bad + 1, context=f"{name} bootstrap undefined")
    return values(x, s, cols0, B, stream)


def _draws(scheme, sample, summary: MomentSummary, J, B: int, stream: SeededStream) -> BootstrapDraws:
    x = as_sample_matrix(sample)
    cols0 = _columns_mask(J, summary.p)
    values = _values(scheme, x, summary, cols0, int(B), stream)
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


def _select(rule: Rule, s: MomentSummary, beta, B, full) -> frozenset[int]:
    """The 1-based columns the rule keeps: all, the SN rule's, or the bootstrap rule's."""
    if rule.selection is None:
        return frozenset(range(1, s.p + 1))
    if rule.selection == "sn":
        return sn_select(s, beta)
    return threshold_select(s, -2.0 * _quantile(full(rule.scheme, B, "select"), 1.0 - beta))


def _cutoff(rule: Rule, x, s: MomentSummary, selected, alpha, beta, B, stream, full) -> float:
    """The rule's cutoff over ``selected`` at size ``alpha - m beta``; 0 over no columns.

    A rule that keeps every column reads its draws from ``full``; a selected
    set draws on the ``crit`` child of ``stream``.
    """
    if rule.scheme == "SN":
        k = len(selected)
        return _sn_from_tail((alpha - rule.m * beta) / k, s.n) if k else 0.0
    if rule.selection is None:
        vals = full(rule.scheme, B, "crit")
    else:
        cols0 = np.asarray(sorted(selected), dtype=np.intp) - 1
        vals = _values(rule.scheme, x, s, cols0, B, stream.child("crit"))
    return _quantile(vals, 1.0 - alpha + rule.m * beta)


def _fresh(x, s: MomentSummary, stream):
    """The all-column draws of a lone test: ``full(scheme, B, use)`` on ``stream.child(use)``.

    ``use`` is ``"select"`` for the bootstrap selection threshold and
    ``"crit"`` for a one-step cutoff, so the two never share randomness.
    """
    return lambda scheme, B, use: _values(scheme, x, s, np.arange(s.p), B, stream.child(use))


def _critical(rule: Rule, x, s: MomentSummary, alpha, beta, B, stream, full):
    """The pipeline behind every method: ``(critical value, selected columns)``.

    ``full(scheme, B, use)`` returns ``B`` all-column draws of the scheme,
    for the selection threshold (``use == "select"``) or a one-step cutoff
    (``"crit"``): :func:`_fresh` for a lone test, one shared pass per scheme
    in :func:`run_tests`.  A cutoff over a selected set draws on the
    ``crit`` child of ``stream``.  ``stream`` may be ``None`` for the
    analytic scheme, which draws nothing.
    """
    selected = _select(rule, s, beta, B, full)
    return _cutoff(rule, x, s, selected, alpha, beta, B, stream, full), selected


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
    cv, selected = _critical(rule, x, s, spec.alpha, spec.beta, spec.replications, stream,
                             _fresh(x, s, stream))
    diagnostics = None
    if include_diagnostics and not s.any_degenerate():
        diagnostics = _diagnostics(x, s)
    return decide(s, cv, selected, spec, diagnostics=diagnostics)


def run_tests(sample, specs, stream: SeededStream) -> list[TestDecision]:
    """Run every test in ``specs`` on one sample; one decision per spec, in order.

    The sample is validated and summarized once.  For each scheme and ``B``
    the all-column draws are computed once, on ``stream.child(scheme)``
    (``"MB"`` or ``"EB"``), and serve both the one-step cutoffs and the
    two-step selection thresholds.  A cutoff over a selected set draws on
    ``stream.child(method).child("crit")``, so selection and cutoff within
    one method still use disjoint randomness.  Because the shared draws are
    keyed by the scheme, a method's decision does not depend on which other
    methods are listed, or in what order.  The analytic and hybrid methods
    decide as :func:`run_test` does on ``stream.child(method)``; the
    one-step and two-step bootstrap methods draw differently from it.
    """
    x = as_sample_matrix(sample)
    s = summarize(x)
    draw = _fresh(x, s, stream)
    passes = {}

    def full(scheme, B, use):
        # one pass per scheme and B, on stream.child(scheme), whatever the use
        if (scheme, B) not in passes:
            passes[scheme, B] = draw(scheme, B, scheme)
        return passes[scheme, B]

    decisions = []
    for spec in specs:
        cv, selected = _critical(METHODS[spec.method], x, s, spec.alpha, spec.beta,
                                 spec.replications, stream.child(spec.method), full)
        decisions.append(decide(s, cv, selected, spec))
    return decisions
