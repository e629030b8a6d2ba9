"""Samples with crafted studentized scores, shared by the test modules."""

import math

import numpy as np


def sample_with_scores(scores, n=400):
    """Data whose column means and sds are ``score / sqrt(n)`` and 1.

    Rows alternate ``mu + 1`` and ``mu - 1``.  The summary is exact when
    ``sqrt(n)`` is a power of two and each ``mu +/- 1`` is representable
    (``n = 1024`` with scores in multiples of 1/32, say); otherwise it holds
    up to rounding.
    """
    scores = np.asarray(scores, dtype=np.float64)
    mu = scores / math.sqrt(n)
    x = np.empty((n, len(scores)))
    x[0::2] = mu + 1.0
    x[1::2] = mu - 1.0
    return x
