"""Sample summaries, the max-studentized statistic, and the zero-variance convention.

The data object throughout the package is an ``n x p`` matrix: row ``i`` is an
observation, column ``j`` a moment inequality.  All column moments use the
``n``-divisor and come from each column scaled by a power of two, so every
consumer is invariant to column scale over the whole finite range.  A
constant column, and no other, has zero variance and an undefined studentized
score; :func:`test_statistic` resolves it coordinate-wise (``+inf`` when
such a column has positive mean, otherwise the max over the defined scores),
so the one rejection rule ``test_statistic(s) > c`` of :func:`exceeds` is
exactly ``sqrt(n) * mean_j > c * sd_j`` for some ``j``.  Columns are numbered
from 1 in all reporting (selected sets, error messages).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateColumnError, InputError, UndefinedCriticalValueError

__all__ = [
    "as_sample_matrix",
    "MomentSummary",
    "summarize",
    "studentized_scores",
    "test_statistic",
    "exceeds",
    "RegularityDiagnostics",
    "regularity_diagnostics",
    "CriticalValueSpec",
    "TestDecision",
]


class Rule(NamedTuple):
    """The three choices behind one method's critical value, and its limit on ``beta``.

    ``selection`` picks the columns the cutoff runs over: ``None`` keeps them
    all, ``"sn"`` keeps scores above ``-2 c_SN(beta)``, ``"boot"`` scores
    above ``-2 c_B(beta)``.  ``scheme`` computes the cutoff: the ``"SN"``
    formula or the ``"MB"``/``"EB"`` bootstrap.  The cutoff is taken at level
    ``1 - alpha + m * beta``.  ``cap = (d, closed)`` requires
    ``beta < alpha / d`` (``<=`` when ``closed``); ``None`` means the method
    ignores ``beta``.
    """

    selection: str | None
    scheme: str
    m: int
    cap: tuple[int, bool] | None


METHODS = {
    "sn1": Rule(None, "SN", 0, None),
    "sn2": Rule("sn", "SN", 2, (3, False)),
    "mb1": Rule(None, "MB", 0, None),
    "mb2": Rule("boot", "MB", 2, (2, False)),
    "eb1": Rule(None, "EB", 0, None),
    "eb2": Rule("boot", "EB", 2, (2, False)),
    "hyb-mb": Rule("sn", "MB", 2, (3, True)),
    "hyb-eb": Rule("sn", "EB", 2, (3, True)),
}


def check_sizes(alpha, beta=None, *, cap=None, replications=None, seed=None):
    """The one check of test sizes and bootstrap settings; raises ``ValueError``.

    ``alpha`` must lie in (0, 0.5).  ``beta``, when given, must be finite;
    with ``cap = (d, closed)`` it must also be positive and below
    ``alpha / d`` (at most that when ``closed``).  ``replications``, when
    given, must be at least 100, and ``seed`` must fit in an unsigned 64-bit
    integer.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    if beta is not None and not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if beta is not None and cap is not None:
        d, closed = cap
        if not (0.0 < beta <= alpha / d if closed else 0.0 < beta < alpha / d):
            raise ValueError(
                f"beta must satisfy 0 < beta {'<=' if closed else '<'} alpha/{d}, "
                f"got beta={beta} with alpha={alpha}"
            )
    if replications is not None and replications < 100:
        raise ValueError(
            "need at least 100 bootstrap replications for a usable quantile"
        )
    if seed is not None and not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def as_sample_matrix(data) -> np.ndarray:
    """Validate and return data as an ``n x p`` float matrix.

    Requires ``n >= 2``, ``p >= 1`` and finite entries.  ``p == 1`` is
    accepted even though the distributional theory behind the critical
    values is stated for two or more inequalities.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"sample must be a 2-d matrix, got shape {x.shape}")
    n, p = x.shape
    if n < 2:
        raise InputError(f"need at least 2 observations, got n={n}")
    if p < 1:
        raise InputError("need at least one column")
    if not np.isfinite(x).all():
        bad = np.argwhere(~np.isfinite(x))[0]
        raise InputError(
            f"non-finite entry at row {bad[0] + 1}, column {bad[1] + 1}"
        )
    return x


@dataclass(frozen=True)
class MomentSummary:
    """Per-column sample means and n-divisor standard deviations, and their scaled copies.

    Column ``j`` is also kept as an exponent ``e[j]`` with its mean and sd
    times ``2^-e[j]`` (``ms``, ``ss``), which neither overflow nor underflow;
    every consumer reads those.  A column is degenerate exactly when its
    scaled sd is 0, which :func:`summarize` gives to constant columns only.
    A summary built from means and sds alone takes ``e`` from each sd.
    """

    means: np.ndarray
    sds: np.ndarray
    n: int
    e: np.ndarray | None = field(default=None, repr=False, compare=False)
    ms: np.ndarray | None = field(default=None, repr=False, compare=False)
    ss: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.e is None:
            e = np.frexp(self.sds)[1]
            object.__setattr__(self, "e", e)
            object.__setattr__(self, "ms", np.ldexp(self.means, -e))
            object.__setattr__(self, "ss", np.ldexp(self.sds, -e))

    @property
    def p(self) -> int:
        return self.means.shape[0]

    @property
    def degenerate(self) -> np.ndarray:
        """``ss == 0`` per column: the score is undefined there."""
        return self.ss == 0.0

    def any_degenerate(self) -> bool:
        return bool(self.degenerate.any())

    def degenerate_columns(self) -> tuple[int, ...]:
        """1-based indices of zero-variance columns."""
        return tuple(int(j) + 1 for j in np.flatnonzero(self.degenerate))


def summarize(sample, centers=None) -> MomentSummary:
    """Column means (or the given ``centers``) and n-divisor sds around them.

    Both are taken from each column times ``2^-e``, ``e`` the exponent of a
    bound on its entries and center, so no sum or square overflows or
    underflows; the scaling is exact.
    """
    x = as_sample_matrix(sample)
    hi, lo = x.max(axis=0), x.min(axis=0)
    bound = np.maximum(hi, -lo)
    if centers is not None:
        bound = np.maximum(bound, np.abs(centers))
    e = np.frexp(bound)[1]
    # Column-major layout makes each column's reduction a contiguous pairwise
    # sum that depends only on its own entries, so a column's summary is
    # bit-identical wherever the column sits and whatever sits next to it.
    xs = np.ldexp(x, -e, order="F")
    ms = xs.mean(axis=0) if centers is None else np.ldexp(centers, -e)
    xs -= ms
    xs *= xs
    ss = np.sqrt(xs.mean(axis=0))
    if centers is None:
        # A literally constant column must come out exactly (mean c, sd 0);
        # the centered two-pass formula can leave rounding residue there.
        constant = hi == lo
        ms = np.where(constant, np.ldexp(x[0], -e), ms)
        ss = np.where(constant, 0.0, ss)
    return MomentSummary(means=np.ldexp(ms, e), sds=np.ldexp(ss, e), n=x.shape[0],
                         e=e, ms=ms, ss=ss)


def _studentized_columns(x: np.ndarray, s: MomentSummary, cols0: np.ndarray, c: float):
    """Columns ``cols0`` of ``x``, centered and over ``c`` sds: ``(x_j 2^-e_j - ms_j) / (c ss_j)``.

    From the scaled columns, so no deviation overflows; always a fresh copy.
    """
    z = x[:, cols0]
    np.ldexp(z, -s.e[cols0], out=z)
    z -= s.ms[cols0]
    z /= c * s.ss[cols0]
    return z


def studentized_scores(summary: MomentSummary) -> np.ndarray:
    """``sqrt(n) * mean_j / sd_j`` per column from the scaled moments; NaN where constant."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scores = np.sqrt(summary.n) * summary.ms / summary.ss
    return np.where(summary.degenerate, np.nan, scores)


def test_statistic(summary: MomentSummary) -> float:
    """Max studentized score, with zero-variance columns resolved coordinate-wise.

    ``+inf`` when a zero-variance column has positive mean (it exceeds any
    cutoff); otherwise the max over the defined scores, or ``-inf`` when no
    column has one.
    """
    degenerate = summary.degenerate
    if np.any(degenerate & (summary.means > 0)):
        return np.inf
    scores = studentized_scores(summary)[~degenerate]
    return float(scores.max()) if scores.size else -np.inf


def exceeds(summary: MomentSummary, c: float) -> bool:
    """The rejection rule: ``test_statistic(summary) > c`` for a finite ``c``.

    Through the resolution in :func:`test_statistic` this is
    ``sqrt(n) * mean_j > c * sd_j`` for some ``j``: a zero-variance column
    forces rejection exactly when its mean is positive.  A non-finite ``c``
    raises :class:`~momentineq.errors.UndefinedCriticalValueError`.
    """
    c = float(c)
    if not np.isfinite(c):
        raise UndefinedCriticalValueError(f"critical value must be finite, got {c}")
    return test_statistic(summary) > c


@dataclass(frozen=True)
class RegularityDiagnostics:
    """In-sample analogues of the moment bounds entering the validity theory.

    Computed from the standardized columns ``Zhat_ij = (x_ij - mean_j)/sd_j``:
    ``m3`` and ``m4`` are the largest column L3/L4 norms, ``bn`` the L4 norm
    of the row-wise maximum.  These are plug-in diagnostics, not estimates of
    the population quantities.  Jensen's inequality gives
    ``bn >= m4 >= m3 >= 1`` (up to rounding).
    """

    m3: float
    m4: float
    bn: float


def regularity_diagnostics(sample) -> RegularityDiagnostics:
    x = as_sample_matrix(sample)
    s = summarize(x)
    if s.any_degenerate():
        raise DegenerateColumnError(
            s.degenerate_columns(), context="regularity diagnostics undefined"
        )
    return _diagnostics(x, s)


def _diagnostics(x: np.ndarray, s: MomentSummary) -> RegularityDiagnostics:
    """The diagnostics of a validated sample ``x`` from its summary ``s`` (no degenerate column)."""
    z = _studentized_columns(x, s, np.arange(s.p), 1.0)
    z2 = z * z
    m3 = float(np.mean(np.abs(z) ** 3, axis=0).max() ** (1 / 3))
    m4 = float(np.mean(z2 * z2, axis=0).max() ** 0.25)
    bn = float(np.mean((z2 * z2).max(axis=1)) ** 0.25)
    return RegularityDiagnostics(m3=m3, m4=m4, bn=bn)


@dataclass(frozen=True)
class CriticalValueSpec:
    """Which critical value to use, and with what tuning constants.

    ``method`` is one of ``sn1, sn2, mb1, mb2, eb1, eb2, hyb-mb, hyb-eb``
    (case-insensitive).  ``beta`` is the selection size used by the two-step
    and hybrid variants; ``replications`` and ``seed`` drive the bootstrap
    methods and are ignored by the analytic ones.
    """

    method: str
    alpha: float = 0.05
    beta: float = 0.001
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", str(self.method).lower())
        rule = METHODS.get(self.method)
        if rule is None:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {tuple(METHODS)}"
            )
        boot = rule.scheme != "SN"
        check_sizes(
            self.alpha,
            self.beta,
            cap=rule.cap,
            replications=self.replications if boot else None,
            seed=self.seed if boot else None,
        )


@dataclass(frozen=True)
class TestDecision:
    """Outcome of one test: statistic, cutoff, and the decision itself.

    ``reject`` is ``statistic > critical_value`` through :func:`exceeds`,
    and ``statistic`` is ``+/-inf`` when zero-variance columns force the
    resolution of :func:`test_statistic`.  ``selected`` holds the
    1-based columns the critical value was computed over (the full set for
    one-step methods).  ``method`` echoes the spec that produced the
    decision; the dependent-data and three-step tests echo a short tag
    instead.  ``sets`` holds the three-step sets ``(J, J', J'')``.
    """

    statistic: float
    critical_value: float
    reject: bool
    selected: tuple[int, ...]
    method: CriticalValueSpec | str
    diagnostics: RegularityDiagnostics | None = field(default=None)
    sets: tuple[frozenset[int], frozenset[int], frozenset[int]] | None = None


def decide(summary: MomentSummary, critical_value: float, selected, method, *,
           diagnostics=None, sets=None) -> TestDecision:
    """The decision record: statistic from :func:`test_statistic`, reject from :func:`exceeds`.

    A summary over no columns has statistic 0 and never rejects.
    """
    return TestDecision(
        statistic=test_statistic(summary) if summary.p else 0.0,
        critical_value=float(critical_value),
        reject=exceeds(summary, critical_value),
        selected=tuple(sorted(selected)),
        method=method,
        diagnostics=diagnostics,
        sets=sets,
    )
