"""Multiplier and empirical bootstrap critical values, and the one pipeline behind all methods.

Both schemes simulate the conditional law of the max of studentized centered
column averages, and both weight the same centered, studentized columns
``(x_ij - mean_j) / (sqrt(n) sd_j)``: the multiplier bootstrap (MB) by i.i.d.
standard normal multipliers, the empirical bootstrap (EB) by resampling
counts, how often each row is drawn with replacement.  Critical values are
left-continuous empirical quantiles (the ``ceil(level * B)``-th order
statistic) of ``B`` such draws.

Every critical value is three choices, and :data:`~momentineq.core.METHODS`
maps each of the eight method names to them: the selection rule (all
columns, the SN threshold ``-2 c_SN(beta)`` or the bootstrap threshold
``-2 c_B(beta)``), the scheme computing the cutoff (the SN formula, MB or
EB), and the multiplier ``m`` in the level ``1 - alpha + m beta`` (the SN
formula uses the tail ``(alpha - m beta) / k`` over ``k`` selected columns).
:func:`_select` and :func:`_cutoff` run that pipeline for :func:`run_tests`
(and so :func:`run_test`), the approximate-data test and, with ``m = 4``,
the three-step test; each critical value is read off the decision they
return.

Stream discipline: every bootstrap draw of a test lives on the scheme's
child of the test's stream (``MB`` or ``EB``), for the selection threshold
and the cutoff alike; both are quantiles conditional on the data, so they
may share multipliers.  (Only the three-step test's gradient draws keep a
child of their own.)  Replication ``b`` consumes the ``b``-th row of the
run's multiplier (or index) block, and the fixed-width product makes each
column's value depend on that column alone.  So a pass over a set of
columns sees the multipliers of the all-column pass and takes its row max
over that set, and restricting to a subset of columns, duplicating a
column, or permuting columns never changes the randomness a replication
sees.

Threads: :func:`_on_cores` is the one map over the cores, for a pass's
column runs, the Monte Carlo replications and the grid points of
``invert_region``; a job it spreads runs any nested call serially.  Every
pass runs its products on one OpenBLAS thread (see :class:`_OneBlasThread`)
and fills its weight block (multipliers or resampling counts) on the
calling thread.  Its 64-wide column blocks are multiplied in contiguous
runs, up to one per core.  Every block's product has the shape and operands
it has alone, so no bit depends on the share count or the BLAS thread
count.  A lone test's pass splits, as does each pass of a serial Monte
Carlo run (``threads=1``); a pass inside a spread replication or grid point
runs on that job's thread.

Precision: MB and EB passes run in single precision.  Their target is
built in float64 from the scaled moments and rounded to float32 once (see
:func:`_target`); the weight block, the products and the draws follow the
target's dtype, so a cutoff sits about 1e-6 relative from a float64
product's.  The block multiplier bootstrap passes a float64 target and keeps
double precision.

Memory: every bootstrap pass builds its ``k x n`` weight block (multipliers
or resampling counts) in a workspace of the calling thread, and each share
takes the ``k x 64`` product of each of its column blocks in a workspace of
the thread that runs it.  A workspace is one run of bytes per name, viewed
in the pass's dtype, so a float32 block takes half a float64 one's bytes: at
``B = 1000``, ``n = 400`` the weight block drops from 3.2 to 1.6 MB.  The
calling thread reuses both in its next pass, so a warm pass that does not
split maps no fresh pages; a thread started for a share ends with its run of
blocks, and its product workspace with it.  The weight block is bounded by
``_CHUNK_SCALARS`` scalars (one row when a row alone is larger).  A pass
splits its column blocks into no more shares than keep its products within
``_CHUNK_SCALARS`` scalars together; one share always runs, and its product
is ``64 / n`` times the weight block.  A thread keeps workspaces of at most
``_CHUNK_SCALARS`` float64 scalars' bytes until it ends (a larger block
lives for its pass only).  They never leave this module, and every array
returned to a caller is its own.  A weight block that is one chunk is kept
past its pass: until the thread's next pass with another ``(stream, builder,
B, rows, dtype)`` overwrites it, a pass with the same five (the cutoff over
a two-step selection, a shifted sample of the same replication) takes its
products from the kept block (see :func:`_rowmax_draws`).  A block is a
function of those five alone, so no bit moves, and no memory is added.  The
float32 target is filled 256 columns at a time (see :func:`_target`), so
beyond itself it holds one float64 block of the sample's rows.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .core import (
    METHODS,
    CriticalValueSpec,
    MomentSummary,
    Rule,
    TestDecision,
    _column_blocks,
    _diagnostics,
    _studentized_columns,
    decide,
    summarize,
)
from .errors import DegenerateColumnError
from .gaussian import SeededStream, _row_pieces, open_uniform
from .sn import _sn_from_tail, sn_select, threshold_select

__all__ = [
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

# Per-thread workspaces of the draw loop (see _buffer): the weight block and
# the per-block product, as raw bytes viewed in the pass's dtype.  Threads of
# a pool never share one.
_workspace = threading.local()

# Per thread, which block the "weights" workspace holds: the (stream,
# builder, B, rows, dtype) of the last one-chunk pass, or None.  It sits
# outside _workspace, which holds arrays only.
_held = threading.local()

# The usable cores.  A pass splits its column blocks into up to this many
# shares, each multiplying what the whole pass would on one BLAS thread, so
# the count moves no bit.  _on_cores runs on this many threads by default.
_PASS_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)

# Marks a thread while it runs a job of a spread _on_cores call, whose
# nested calls run serially: the cores are already busy.
_busy = threading.local()


@functools.cache
def _openblas():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or ``None``.

    Wheels ship the library as ``numpy.libs/libscipy_openblas64_*`` (Linux,
    Windows) or ``numpy/.dylibs/`` (macOS); opening the loaded file again
    returns the handle numpy uses.  Other BLAS builds give ``None``.
    """
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/libscipy_openblas64_*"),
                        *root.glob(".dylibs/libscipy_openblas64_*")]):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _OneBlasThread:
    """Pins OpenBLAS to one thread while any bootstrap pass runs.

    The BLAS thread count is process-wide, so nested or concurrent passes
    share one pin: the first to enter saves the count, the last to leave
    restores it.  Without a bundled OpenBLAS it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None  # (set, saved count) while pinned

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                api = _openblas()
                if api is not None:
                    get, put = api
                    self._restore = (put, get())
                    put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self._unpin()

    def _unpin(self):
        if self._restore is not None:
            put, count = self._restore
            self._restore = None
            put(count)

    def _after_fork(self):
        """In a forked child no pass runs: drop the pin, restoring the count it saved."""
        self._lock = threading.Lock()
        self._depth = 0
        self._unpin()


_one_blas_thread = _OneBlasThread()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_one_blas_thread._after_fork)


def _on_cores(job, items, workers=None) -> list:
    """``[job(i) for i in items]`` on up to ``workers`` threads (default: every usable core).

    The caller takes items too; the other threads start here and are joined
    before this returns or raises.  Inside a job of a spread call, a nested
    call runs serially.  Every item runs, and the first failing item's
    error, in item order, is raised once every thread has joined.
    """
    items = list(items)
    count = min(_PASS_WORKERS if workers is None else workers, len(items))
    if count <= 1 or getattr(_busy, "on", False):
        return [job(item) for item in items]
    futures = [Future() for _ in items]
    pending = zip(items, futures)
    lock = threading.Lock()

    def take():
        _busy.on = True
        try:
            while True:
                with lock:
                    item, future = next(pending, (None, None))
                if future is None:
                    return
                try:
                    future.set_result(job(item))
                except Exception as exc:
                    future.set_exception(exc)
        finally:
            _busy.on = False

    with ThreadPoolExecutor(count - 1, thread_name_prefix="momentineq-core") as pool:
        takers = [pool.submit(take) for _ in range(count - 1)]
        take()
    for taker in takers:
        taker.result()  # a thread ended by a BaseException leaves its item unset
    return [f.result() for f in futures]


def _buffer(name: str, shape, dtype) -> np.ndarray:
    """This thread's workspace ``name``, viewed as a ``dtype`` array of ``shape``.

    The workspace is one run of bytes per name, whatever the dtype.  It grows
    to the largest block asked for, up to ``_CHUNK_SCALARS`` float64 scalars'
    bytes, and is then reused, so a pass writes into pages already mapped
    instead of faulting in fresh ones; a larger block is a fresh array.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > _CHUNK_SCALARS * 8:
        return np.empty(shape, dtype)
    buf = getattr(_workspace, name, None)
    if buf is None or buf.nbytes < nbytes:
        buf = np.empty(nbytes, np.uint8)
        setattr(_workspace, name, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def _block_run_rowmax(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row max of ``weights @ g`` in fixed-width column blocks, on this thread.

    The product, the padded tail block and the row maxima take ``g``'s dtype,
    and the tail block is laid out as ``g``'s blocks are, column-major when
    its columns are contiguous: at short chunk heights OpenBLAS picks its
    kernel by the operands' memory order, so a column's bits in the tail
    equal its bits in a full block only when both are laid out alike.
    """
    n, c = g.shape
    prod = _buffer("prod", (weights.shape[0], _COL_BLOCK), g.dtype)
    out = None
    for s in range(0, c, _COL_BLOCK):
        block = g[:, s:s + _COL_BLOCK]
        w = block.shape[1]
        if w < _COL_BLOCK:
            order = "F" if g.strides[0] < g.strides[1] else "C"
            padded = np.zeros((n, _COL_BLOCK), g.dtype, order=order)
            padded[:, :w] = block
            block = padded
        np.matmul(weights, block, out=prod)
        m = prod[:, :w].max(axis=1)
        out = m if out is None else np.maximum(out, m, out=out)
    return out


def _blocked_rowmax(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row max of ``weights @ g`` in fixed-width column blocks, spread over the pass's shares.

    Each share takes a contiguous run of blocks, and every block's product
    has the shape and operands it has alone, so the max over the runs' row
    maxima is exact and the split moves no bit.  The shares' product
    workspaces stay within ``_CHUNK_SCALARS`` scalars together, unless one
    alone is larger.
    """
    blocks = -(-g.shape[1] // _COL_BLOCK)
    fit = _CHUNK_SCALARS // (weights.shape[0] * _COL_BLOCK)
    count = max(1, min(_PASS_WORKERS, blocks, fit))
    edges = [_COL_BLOCK * (blocks * i // count) for i in range(count + 1)]
    runs = _on_cores(lambda ab: _block_run_rowmax(weights, g[:, ab[0]:ab[1]]),
                     zip(edges, edges[1:]))
    out = runs[0]
    for m in runs[1:]:
        np.maximum(out, m, out=out)
    return out


def _normal_weights(gen, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (replications x rows) with i.i.d. N(0,1) multipliers, one per row.

    The block fills on the calling thread, piece by piece in row-major
    order, so it draws the bits of one ``open_uniform`` call over ``out``
    and leaves ``gen`` where that call would.  ``ndtri`` runs in double
    precision and each multiplier is rounded once into ``out``'s dtype.
    """
    for piece in _row_pieces(out):
        ndtri(open_uniform(gen, piece.shape), out=piece)
    return out


def _count_weights(gen, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (replications x rows) with resampling counts: how often each row is drawn.

    A count is an integer of at most ``rows``, exact in ``out``'s dtype.
    """
    rows = out.shape[1]
    for piece in _row_pieces(out):
        idx = gen.integers(0, rows, size=piece.shape)
        idx += np.arange(0, piece.size, rows)[:, None]
        piece.reshape(-1)[:] = np.bincount(idx.reshape(-1), minlength=piece.size)
    return out


def _rowmax_draws(weights, target: np.ndarray, B: int, stream: SeededStream) -> np.ndarray:
    """``B`` draws of the row max of ``weights(gen, block) @ target``, in ``target``'s dtype.

    The one draw loop of every bootstrap: MB and EB differ only in
    ``weights``, and take the same ``target``.  The weight block and the
    products take the target's dtype too.  Its chunk height ``k`` depends
    only on the row count and ``B``, never on the columns, so the column
    invariances hold bit for bit; the BLAS kernel may depend on ``k``, so
    chunked draws can differ from unchunked ones in the last bits.  The pass
    keeps OpenBLAS on one thread from its start to its end.

    ``weights`` fills each ``k x rows`` block in place.  The block lives in
    this thread's workspace (see :func:`_buffer`) and is reused by the next
    chunk and the next pass; like the product workspaces of
    :func:`_blocked_rowmax`, it is never returned.  The builders
    consume the generator in the block's row-major order, piece by piece, so
    pieces draw the same bits as one call over the whole block.

    A block is a function of ``(stream, weights, B, rows, dtype)`` alone.
    When the whole block is one chunk (``B * rows <= _CHUNK_SCALARS``) the
    loop records that tuple, and the next pass with an equal tuple on this
    thread uses the workspace as it stands instead of building it again: the
    selection pass and the cutoff pass of a two-step test, or the shifted
    samples of one replication.  Each pass opens a fresh generator on its
    stream, so skipping a build moves no bit.  Every other pass clears the
    record before it writes, and nothing else asks for the workspace.
    """
    rows, dtype = target.shape[0], target.dtype
    key = (stream, weights, B, rows, dtype) if B * rows <= _CHUNK_SCALARS else None
    with _one_blas_thread:
        if key is not None and key == getattr(_held, "block", None):
            return _blocked_rowmax(_buffer("weights", (B, rows), dtype), target)
        _held.block = None
        gen = stream.generator()
        out = np.empty(B, dtype)
        step = max(1, min(B, _CHUNK_SCALARS // max(rows, 1)))
        for start in range(0, B, step):
            stop = min(start + step, B)
            block = weights(gen, _buffer("weights", (stop - start, rows), dtype))
            out[start:stop] = _blocked_rowmax(block, target)
    _held.block = key
    return out


def _target(x, s: MomentSummary, cols0) -> np.ndarray:
    """The studentized columns ``cols0`` that MB and EB weight, rounded once to float32.

    They are built in float64 from the scaled moments, so no deviation
    overflows, and every entry lies in [-1, 1] (a column's squares sum to
    1), so the rounding cannot overflow; it moves a cutoff by about 1e-6
    relative.  The pass follows this dtype: this is where MB and EB choose
    single precision.  The target is column-major, one column included, so
    every product block and the padded tail share one layout.  It is filled
    one column block at a time, so the float64 columns never exist whole.
    """
    n = x.shape[0]
    g = np.empty((n, cols0.size), np.float32, order="F")
    for a, b in _column_blocks(cols0.size):
        g[:, a:b] = _studentized_columns(x, s, cols0[a:b], math.sqrt(n))
    return g


def _mb_values(x, s: MomentSummary, cols0, B, stream) -> np.ndarray:
    return _rowmax_draws(_normal_weights, _target(x, s, cols0), B, stream)


def _eb_values(x, s: MomentSummary, cols0, B, stream) -> np.ndarray:
    return _rowmax_draws(_count_weights, _target(x, s, cols0), B, stream)


def _values(scheme, x, s: MomentSummary, cols0, B, stream) -> np.ndarray:
    """``B`` draws of ``scheme`` over the 0-based ``cols0`` on ``stream``; zeros over none."""
    if cols0.size == 0:
        return np.zeros(B)
    name, values = ("multiplier", _mb_values) if scheme == "MB" else ("empirical", _eb_values)
    bad = cols0[s.degenerate[cols0]]
    if bad.size:
        raise DegenerateColumnError(bad + 1, context=f"{name} bootstrap undefined")
    return values(x, s, cols0, B, stream)


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


def _select(rule: Rule, s: MomentSummary, beta, B, draws) -> frozenset[int]:
    """The 1-based columns the rule keeps: all, the SN rule's, or the bootstrap rule's."""
    if rule.selection is None:
        return frozenset(range(1, s.p + 1))
    if rule.selection == "sn":
        return sn_select(s, beta)
    vals = draws(rule.scheme, B, np.arange(s.p))
    return threshold_select(s, -2.0 * _quantile(vals, 1.0 - beta))


def _cutoff(rule: Rule, s: MomentSummary, selected, alpha, beta, B, draws) -> float:
    """The rule's cutoff over ``selected`` at size ``alpha - m beta``; 0 over no columns."""
    if rule.scheme == "SN":
        k = len(selected)
        return _sn_from_tail((alpha - rule.m * beta) / k, s.n) if k else 0.0
    cols0 = np.asarray(sorted(selected), dtype=np.intp) - 1
    return _quantile(draws(rule.scheme, B, cols0), 1.0 - alpha + rule.m * beta)


def _provider(x, s: MomentSummary, stream):
    """``draws(scheme, B, cols0)``: the ``B`` bootstrap draws of one sample over ``cols0``.

    Every draw of a scheme lives on ``stream.child(scheme)``, and one pass
    is kept per scheme, ``B`` and column set for as long as the provider
    lives, so a selection that keeps every column reuses the all-column
    pass.  ``stream`` may be ``None`` when only the analytic scheme runs.
    """
    passes = {}

    def draws(scheme, B, cols0):
        if stream is None:
            raise ValueError(f"the {scheme} bootstrap needs a stream, got None")
        key = scheme, B, cols0.tobytes()
        if key not in passes:
            passes[key] = _values(scheme, x, s, cols0, B, stream.child(scheme))
        return passes[key]

    return draws


def _decisions(x, s: MomentSummary, specs, stream, diagnostics=None) -> list[TestDecision]:
    """The pipeline behind every method: one decision per spec, all on one provider.

    Each spec selects its columns (:func:`_select`) and takes its cutoff
    over them (:func:`_cutoff`).
    """
    draws = _provider(x, s, stream)
    decisions = []
    for spec in specs:
        rule, B = METHODS[spec.method], spec.replications
        selected = _select(rule, s, spec.beta, B, draws)
        cv = _cutoff(rule, s, selected, spec.alpha, spec.beta, B, draws)
        decisions.append(decide(s, cv, selected, spec, diagnostics=diagnostics))
    return decisions


def run_test(sample, spec: CriticalValueSpec, *, stream: SeededStream | None = None,
             include_diagnostics: bool = False) -> TestDecision:
    """Run the test selected by ``spec`` and return the full decision record.

    The statistic is always the max studentized score over all columns; the
    critical value and the reported ``selected`` set depend on the method.
    The rejection decision goes through the coordinate-wise rule, so it is
    well-defined even when some column has zero variance (analytic methods
    only; bootstrap draws over a zero-variance column raise).

    The decision is ``run_tests(sample, [spec], stream)[0]``, with the
    diagnostics attached on request.  ``stream`` overrides the default
    ``SeededStream(spec.seed)``, which lets a simulation harness nest the
    bootstrap randomness under its own substream tree; an analytic spec
    draws nothing and builds no stream.
    """
    x = np.asarray(sample, np.float64)
    s = summarize(x)
    if stream is None and METHODS[spec.method].scheme != "SN":
        stream = SeededStream(spec.seed)
    diagnostics = None
    if include_diagnostics and not s.any_degenerate():
        diagnostics = _diagnostics(x, s)
    return _decisions(x, s, [spec], stream, diagnostics)[0]


def run_tests(sample, specs, stream: SeededStream) -> list[TestDecision]:
    """Run every test in ``specs`` on one sample; one decision per spec, in order.

    The sample is validated and summarized once, and every method draws
    through one provider (:func:`_provider`): the all-column pass of a
    scheme is computed once and serves the one-step cutoffs, the two-step
    selection thresholds and every cutoff whose selection keeps all
    columns.  Because the draws are keyed by the scheme, a method's
    decision does not depend on which other methods are listed, or in what
    order, and equals :func:`run_test` on the same stream.
    """
    x = np.asarray(sample, np.float64)
    return _decisions(x, summarize(x), specs, stream)
