"""Sample summaries, the max-studentized statistic, and the zero-variance convention.

The data object throughout the package is an ``n x p`` matrix: row ``i`` is an
observation, column ``j`` a moment inequality.  All column moments use the
``n``-divisor.  A column with zero sample variance makes the studentized score
undefined; the rejection rule is then resolved coordinate-wise by
:func:`exceeds`, which tests ``sqrt(n) * mean_j > c * sd_j`` and therefore
stays meaningful at ``sd_j == 0``.  Columns are numbered from 1 in all
reporting (selected sets, error messages).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateColumnError, InputError

__all__ = [
    "as_sample_matrix",
    "MomentSummary",
    "summarize",
    "studentized_scores",
    "test_statistic",
    "DegenerateStatistic",
    "max_score_index",
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
    """Per-column sample means and n-divisor standard deviations.

    ``degenerate[j]`` is True exactly when ``sds[j] == 0``; constant columns
    are detected exactly (their mean is the constant itself, their sd is 0).
    """

    means: np.ndarray
    sds: np.ndarray
    n: int
    degenerate: np.ndarray

    @property
    def p(self) -> int:
        return self.means.shape[0]

    def any_degenerate(self) -> bool:
        return bool(self.degenerate.any())

    def degenerate_columns(self) -> tuple[int, ...]:
        """1-based indices of zero-variance columns."""
        return tuple(int(j) + 1 for j in np.flatnonzero(self.degenerate))


def summarize(sample) -> MomentSummary:
    """Column means and n-divisor standard deviations of a sample matrix."""
    x = as_sample_matrix(sample)
    n = x.shape[0]
    # Column-major layout makes each column's reduction a contiguous pairwise
    # sum that depends only on its own entries, so a column's summary is
    # bit-identical wherever the column sits and whatever sits next to it.
    xf = np.asfortranarray(x)
    means = xf.mean(axis=0)
    sds = np.sqrt(np.mean((xf - means) ** 2, axis=0))
    # A literally constant column must come out exactly (mean c, sd 0);
    # the centered two-pass formula can leave rounding residue there.
    constant = x.max(axis=0) == x.min(axis=0)
    if constant.any():
        means = np.where(constant, x[0], means)
        sds = np.where(constant, 0.0, sds)
    return MomentSummary(means=means, sds=sds, n=n, degenerate=sds == 0.0)


def studentized_scores(summary: MomentSummary) -> np.ndarray:
    """``sqrt(n) * mean_j / sd_j`` per column; NaN where ``sd_j == 0``."""
    root_n = np.sqrt(summary.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = root_n * summary.means / summary.sds
    return np.where(summary.degenerate, np.nan, scores)


@dataclass(frozen=True)
class DegenerateStatistic:
    """Marker returned by :func:`test_statistic` when some ``sd_j == 0``.

    Carries the summary so the rejection rule can still be applied through
    :func:`exceeds`.  ``bound`` is the coordinate-wise resolution of the max:
    ``+inf`` if a zero-variance column has positive mean (it exceeds any
    cutoff), otherwise the max over the well-defined scores (``-inf`` when
    none exists).
    """

    summary: MomentSummary

    @property
    def bound(self) -> float:
        s = self.summary
        if np.any(s.degenerate & (s.means > 0)):
            return np.inf
        scores = studentized_scores(s)
        finite = scores[~s.degenerate]
        return float(finite.max()) if finite.size else -np.inf


def test_statistic(summary: MomentSummary):
    """Max studentized score, or a :class:`DegenerateStatistic` marker.

    Returns a float when every column has positive sample variance;
    otherwise returns the marker instead of silently dividing by zero.
    """
    if summary.any_degenerate():
        return DegenerateStatistic(summary)
    return float(studentized_scores(summary).max())


def max_score_index(summary: MomentSummary) -> int:
    """1-based index attaining the max score (lowest index on ties)."""
    scores = studentized_scores(summary)
    if summary.any_degenerate():
        raise DegenerateColumnError(summary.degenerate_columns())
    return int(np.argmax(scores)) + 1


def exceeds(summary: MomentSummary, c: float) -> bool:
    """Rejection rule: does ``sqrt(n) * mean_j > c * sd_j`` hold for some j?

    Coincides with ``test_statistic(summary) > c`` whenever no column is
    degenerate.  For a zero-variance column the right side is 0 regardless
    of ``c``, so such a column forces rejection exactly when its mean is
    positive.
    """
    c = float(c)
    if not np.isfinite(c):
        raise ValueError(f"critical value must be finite, got {c}")
    s = summary
    if np.any(s.degenerate & (s.means > 0)):
        return True
    scores = studentized_scores(s)
    finite = scores[~s.degenerate]
    return bool(finite.size and finite.max() > c)


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
    z = (x - s.means) / s.sds
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

    ``reject`` is the authoritative decision (computed through the
    coordinate-wise rule of :func:`exceeds`); never re-derive it from
    ``statistic > critical_value``, which is ill-defined under zero-variance
    columns.  ``statistic`` is ``+/-inf`` when degeneracy forces the
    resolution of :class:`DegenerateStatistic`.  ``selected`` holds the
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
    """The decision record: statistic from the max over ``summary``, reject from :func:`exceeds`.

    A degenerate summary reports :attr:`DegenerateStatistic.bound`.  A
    summary over no columns has statistic 0 and never rejects.
    """
    stat = test_statistic(summary) if summary.p else 0.0
    return TestDecision(
        statistic=stat.bound if isinstance(stat, DegenerateStatistic) else stat,
        critical_value=float(critical_value),
        reject=exceeds(summary, critical_value),
        selected=tuple(sorted(selected)),
        method=method,
        diagnostics=diagnostics,
        sets=sets,
    )
