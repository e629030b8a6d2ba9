"""Confidence regions by test inversion, and tests on approximated data.

A confidence region for a partially identified parameter collects every grid
point whose moment matrix survives the hypothesis test: the region is the
exact dual of the test, point by point.  Each grid point runs on its own
substream, so the region does not depend on evaluation order and bootstrap
noise is independent across points.

The approximate-inequality test covers the case where the moment data matrix
is only an approximation (estimated nuisance parameters, linearization) and
the column means to test come from elsewhere: the usual two-step bootstrap
runs on the approximated matrix, centered and studentized with the supplied
means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import _decisions, run_test
from .core import CriticalValueSpec, TestDecision, as_sample_matrix, summarize
from .errors import GridPointError, InputError
from .gaussian import SeededStream

__all__ = [
    "GridPoint",
    "ConfidenceRegion",
    "invert_region",
    "ApproxSample",
    "approximate_two_step_test",
]


@dataclass(frozen=True)
class GridPoint:
    """One candidate parameter value and its evaluated moment matrix."""

    label: str
    theta: tuple[float, ...]
    g_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "label", str(self.label))
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        object.__setattr__(self, "g_values", as_sample_matrix(self.g_values))


@dataclass(frozen=True)
class PointResult:
    label: str
    statistic: float
    critical_value: float
    accepted: bool


@dataclass(frozen=True)
class ConfidenceRegion:
    """Accepted grid labels plus the per-point test record behind them."""

    accepted: frozenset[str]
    alpha: float
    method: CriticalValueSpec
    points: tuple[PointResult, ...]


def invert_region(grid, spec: CriticalValueSpec) -> ConfidenceRegion:
    """Invert the test over a parameter grid.

    A grid point is accepted exactly when the test at that point does not
    reject.  Point ``k`` uses the substream ``(spec.seed, "theta", k)``; an
    error at any point is re-raised naming the point's label.  Labels must
    be unique, since the region is a set of labels.
    """
    grid = list(grid)
    ns = {pt.g_values.shape[0] for pt in grid}
    if len(ns) > 1:
        raise InputError(
            f"grid points disagree on the number of observations: {sorted(ns)}"
        )
    labels = set()
    for pt in grid:
        if pt.label in labels:
            raise InputError(f"grid label {pt.label!r} is repeated")
        labels.add(pt.label)
    root = SeededStream(spec.seed)
    points = []
    accepted = []
    for k, pt in enumerate(grid):
        try:
            decision = run_test(pt.g_values, spec, stream=root.child("theta", k))
        except Exception as exc:
            raise GridPointError(pt.label, exc) from exc
        ok = not decision.reject
        points.append(
            PointResult(
                label=pt.label,
                statistic=decision.statistic,
                critical_value=decision.critical_value,
                accepted=ok,
            )
        )
        if ok:
            accepted.append(pt.label)
    return ConfidenceRegion(
        accepted=frozenset(accepted),
        alpha=spec.alpha,
        method=spec,
        points=tuple(points),
    )


@dataclass(frozen=True)
class ApproxSample:
    """Approximated data matrix plus externally supplied column means to test."""

    xhat: np.ndarray
    muhat: np.ndarray

    def __post_init__(self):
        x = as_sample_matrix(self.xhat)
        mu = np.asarray(self.muhat, dtype=np.float64)
        if mu.shape != (x.shape[1],):
            raise InputError(
                f"muhat must have length p={x.shape[1]}, got shape {mu.shape}"
            )
        if not np.isfinite(mu).all():
            raise InputError("muhat contains non-finite entries")
        object.__setattr__(self, "xhat", x)
        object.__setattr__(self, "muhat", mu)


def approximate_two_step_test(approx: ApproxSample, spec: CriticalValueSpec, *,
                              stream: SeededStream | None = None) -> TestDecision:
    """Two-step bootstrap test on approximated data with supplied means.

    Column scale is measured around the supplied means,
    ``sd_j = sqrt(mean_i (xhat_ij - muhat_j)^2)``, and both the statistic
    ``max_j sqrt(n) muhat_j / sd_j`` and the bootstrap draws use that
    centering.  With ``xhat`` equal to the raw data and ``muhat`` equal to
    its column means this reproduces the ordinary two-step test bit for bit
    under shared streams.
    """
    if spec.method not in ("mb2", "eb2"):
        raise ValueError(
            f"approximate test requires a two-step bootstrap method, got {spec.method!r}"
        )
    s = summarize(approx.xhat, centers=approx.muhat)
    return _decisions(approx.xhat, s, [spec], stream or SeededStream(spec.seed))[0]
