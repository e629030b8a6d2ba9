"""Self-normalized (analytic) critical values and the column selection rules.

These cutoffs need no simulation: the one-step value is a normal-quantile
formula in ``(alpha, p, n)``.  They depend on ``p`` only through ``log p``
but ignore correlation across columns, so they are conservative relative to
the bootstrap cutoffs when columns are dependent.

The methods themselves are rows of the method table
(:data:`~momentineq.core.METHODS`): ``sn1`` is the formula over all
columns, ``sn2`` first keeps the columns :func:`sn_select` keeps (score
above ``-2 c_sn(beta)``) and applies the formula with tail
``(alpha - 2 beta) / k`` over the ``k`` kept columns, and the hybrid
methods pair :func:`sn_select` with a bootstrap cutoff.  Run them through
:func:`~momentineq.bootstrap.run_test`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .core import MomentSummary, check_count, check_sizes, studentized_scores
from .errors import UndefinedCriticalValueError

__all__ = ["sn_one_step", "sn_select"]


def _sn_from_tail(tail: float, n: int) -> float:
    """Critical value ``z / sqrt(1 - z^2/n)`` with ``z`` the upper-``tail`` quantile."""
    z = float(-ndtri(tail))
    if z * z >= n:
        raise UndefinedCriticalValueError(
            "SN critical value undefined: p too large relative to n"
        )
    return z / np.sqrt(1.0 - z * z / n)


def sn_one_step(alpha: float, p: int, n: int) -> float:
    """One-step self-normalized critical value for ``p`` inequalities at size ``alpha``."""
    check_sizes(alpha)
    return _sn_from_tail(alpha / check_count("p", p), check_count("n", n, least=2))


def threshold_select(summary: MomentSummary, threshold: float) -> frozenset[int]:
    """Columns (1-based) whose studentized score exceeds ``threshold``.

    A zero-variance column has no score; it is kept when its mean is
    nonnegative (maximally binding) and dropped when negative (maximally
    slack).
    """
    keep = np.where(
        summary.degenerate, summary.means >= 0.0,
        studentized_scores(summary) > threshold,
    )
    return frozenset(int(j) + 1 for j in np.flatnonzero(keep))


def sn_select(summary: MomentSummary, beta: float) -> frozenset[int]:
    """Selection step: keep columns with score above ``-2 c_sn(beta)``."""
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 0.5), got {beta}")
    c_beta = sn_one_step(beta, summary.p, summary.n)
    return threshold_select(summary, -2.0 * c_beta)
