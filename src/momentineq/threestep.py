"""Three-step testing with gradient-based weak-inequality selection.

For parametric models where column ``j`` of the data is ``g_j`` evaluated at
the tested parameter and ``v[:, j, l]`` holds the gradient coordinate
``l`` of ``g_j``, the three-step procedure additionally drops *weakly
informative* inequalities: those whose moment function is nearly flat in the
parameter, so a violation nearby could only produce a weak signal.  Both the
statistic (max over the kept set) and the critical value (bootstrap quantile
over a second, more generous kept set intersected with the usual selection)
depend on the estimated sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import SCHEMES, _cutoff, _fresh, _quantile, _select, _values
from .core import (
    MomentSummary,
    Rule,
    TestDecision,
    as_sample_matrix,
    check_sizes,
    decide,
    studentized_scores,
    summarize,
)
from .errors import DegenerateColumnError, InputError
from .gaussian import SeededStream

__all__ = [
    "ParametricMomentData",
    "ThreeStepConfig",
    "three_step_test",
]


@dataclass(frozen=True)
class ParametricMomentData:
    """Moment values ``g`` (n x p) and their parameter gradients ``v`` (n x p x r)."""

    g: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        g = as_sample_matrix(self.g)
        v = np.asarray(self.v, dtype=np.float64)
        if v.ndim != 3:
            raise InputError(f"gradient array must be n x p x r, got shape {v.shape}")
        if v.shape[:2] != g.shape:
            raise InputError(
                f"gradient shape {v.shape} does not match data shape {g.shape}"
            )
        if v.shape[2] < 1:
            raise InputError("parameter dimension r must be at least 1")
        if not np.isfinite(v).all():
            raise InputError("gradient array contains non-finite entries")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def p(self) -> int:
        return self.g.shape[1]

    @property
    def r(self) -> int:
        return self.v.shape[2]


@dataclass(frozen=True)
class ThreeStepConfig:
    """Sizes and bootstrap settings for the three-step test.

    ``phi`` splits the selection size ``beta`` into the two gradient
    thresholds (``beta + phi`` and ``beta - phi``); when omitted it defaults
    to ``min(beta / 2, 1 / log n)``, resolved once ``n`` is known.  All
    bootstrap draws come from streams below ``SeededStream(seed)``.
    """

    alpha: float
    beta: float = 0.001
    phi: float | None = None
    scheme: str = "MB"
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scheme", str(self.scheme).upper())
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be MB or EB, got {self.scheme!r}")
        check_sizes(self.alpha, self.beta, cap=self.rule.cap,
                    replications=self.replications, seed=self.seed)
        if self.phi is not None and not 0.0 < self.phi < self.beta:
            raise ValueError(
                f"phi must satisfy 0 < phi < beta, got phi={self.phi}"
            )

    @property
    def rule(self) -> Rule:
        """Bootstrap selection of ``J``, then the ``1 - alpha + 4 beta`` quantile.

        That level must stay below 1, which pins ``beta < alpha/4``.
        """
        return Rule("boot", self.scheme, 4, (4, False))

    def resolve_phi(self, n: int) -> float:
        if self.phi is not None:
            return self.phi
        return min(self.beta / 2.0, 1.0 / math.log(max(n, 3)))


def _flat_gradient_summary(data: ParametricMomentData) -> MomentSummary:
    """Summary of the ``p * r`` gradient coordinates, column ``(j - 1) r + l`` for ``(j, l)``.

    Raises on a zero-variance gradient column, naming the ``(j, l)`` pair;
    the studentized gradient statistics are undefined there.
    """
    flat = summarize(data.v.reshape(data.n, data.p * data.r))
    if flat.any_degenerate():
        r = data.r
        pairs = ", ".join(
            f"(j={(c - 1) // r + 1}, l={(c - 1) % r + 1})"
            for c in flat.degenerate_columns()
        )
        raise DegenerateColumnError(
            flat.degenerate_columns(),
            context=f"zero-variance gradient column(s) {pairs}",
        )
    return flat


def _sets(data, g_summary, cfg, stream):
    """The three estimated column sets ``(J, J', J'')``.

    ``J`` keeps columns whose score clears ``-2 c_boot(beta)`` (the usual
    slack-inequality selection on the data itself).  ``J'`` and ``J''`` keep
    columns whose *every* gradient score clears ``-c_grad(beta + phi)`` and
    ``-3 c_grad(beta - phi)`` respectively; both gradient thresholds come
    from one shared set of gradient bootstrap draws.
    """
    j_hat = _select(cfg.rule, g_summary, cfg.beta, cfg.replications,
                    _fresh(data.g, g_summary, stream))
    flat = _flat_gradient_summary(data)
    phi = cfg.resolve_phi(data.n)
    # the max studentized gradient average over all p * r coordinates
    vals = _values(cfg.scheme, data.v.reshape(data.n, flat.p), flat, np.arange(flat.p),
                   cfg.replications, stream.child("grad-select"))
    c_plus = _quantile(vals, 1.0 - (cfg.beta + phi))
    c_minus = _quantile(vals, 1.0 - (cfg.beta - phi))
    scores = studentized_scores(flat).reshape(data.p, data.r)
    j_prime = frozenset(
        int(j) + 1 for j in np.flatnonzero((scores > -c_plus).all(axis=1))
    )
    j_dprime = frozenset(
        int(j) + 1 for j in np.flatnonzero((scores > -3.0 * c_minus).all(axis=1))
    )
    return j_hat, j_prime, j_dprime


def three_step_test(data: ParametricMomentData, cfg: ThreeStepConfig) -> TestDecision:
    """Three-step bootstrap test.

    The statistic is the max score over ``J'``; the critical value is the
    ``1 - alpha + 4 beta`` bootstrap quantile over ``J`` intersected with
    ``J''``.  An empty ``J'`` sets both the statistic and the critical value
    to 0, so the test never rejects (the comparison is strict).  The
    decision carries ``(J, J', J'')`` as ``sets``.
    """
    g_summary = summarize(data.g)
    stream = SeededStream(cfg.seed)
    sets = j_hat, j_prime, j_dprime = _sets(data, g_summary, cfg, stream)
    cv_set = j_hat & j_dprime
    # over no columns the cutoff is 0 and nothing is drawn
    cv = _cutoff(cfg.rule, data.g, g_summary, cv_set if j_prime else frozenset(),
                 cfg.alpha, cfg.beta, cfg.replications, stream,
                 _fresh(data.g, g_summary, stream))
    keep = np.asarray(sorted(j_prime), dtype=np.intp) - 1
    kept = MomentSummary(g_summary.means[keep], g_summary.sds[keep], g_summary.n,
                         g_summary.e[keep], g_summary.ms[keep], g_summary.ss[keep])
    return decide(kept, cv, cv_set, f"3s-{cfg.scheme.lower()}", sets=sets)
