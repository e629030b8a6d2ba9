"""Data-generating processes and the Monte Carlo rejection-rate harness.

Eight benchmark designs on rows ``x_i = mu + A' eps_i`` with unit column
variances: designs 1, 2, 5, 6 use an equicorrelated covariance (all
off-diagonal entries ``rho``), designs 3, 4, 7, 8 an autoregressive one
(``rho^|j-k|``).  Designs 1-4 satisfy the null (means 0, or 0 on the first
``gamma`` fraction of columns and -0.8 after), designs 5-8 violate it (0.05
everywhere, or 0.05 then -0.75).  Innovations are either Student's t with 4
degrees of freedom scaled to unit variance, or uniform on
``(-sqrt(3), sqrt(3))``.

``run_mc`` estimates rejection rates over independent replications, one
substream per replication, so results do not depend on execution order or
the thread count.  While replications run on a thread pool, numpy's bundled
OpenBLAS runs on one thread, so the pool's threads are the only busy ones.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri

from .bootstrap import run_tests
from .core import CriticalValueSpec, check_sizes
from .gaussian import SeededStream, open_uniform

__all__ = [
    "DesignSpec",
    "McConfig",
    "McResult",
    "draw_sample",
    "run_mc",
    "PowerCurve",
    "power_sweep",
]

EQUI_DESIGNS = (1, 2, 5, 6)
DISTS = ("t4", "uniform")


@dataclass(frozen=True)
class DesignSpec:
    """One benchmark data-generating process."""

    design: int
    n: int
    p: int
    rho: float
    dist: str
    gamma: float = 0.1

    def __post_init__(self):
        if self.design not in range(1, 9):
            raise ValueError(f"design must be 1..8, got {self.design}")
        if self.n < 2 or self.p < 1:
            raise ValueError("need n >= 2 and p >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        object.__setattr__(self, "dist", str(self.dist).lower())
        if self.dist not in DISTS:
            raise ValueError(f"dist must be one of {DISTS}, got {self.dist!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")

    @property
    def structure(self) -> str:
        return "EQUI" if self.design in EQUI_DESIGNS else "AR"

    def mean_vector(self) -> np.ndarray:
        mu = np.zeros(self.p)
        cut = int(math.floor(self.gamma * self.p + 1e-12))
        if self.design in (1, 3):
            pass
        elif self.design in (2, 4):
            mu[cut:] = -0.8
        elif self.design in (5, 7):
            mu[:] = 0.05
        else:
            mu[:cut] = 0.05
            mu[cut:] = -0.75
        return mu


def _innovations(gen, n: int, p: int, dist: str) -> np.ndarray:
    """Unit-variance i.i.d. innovations by inversion from open-interval uniforms."""
    if dist == "normal":
        return ndtri(open_uniform(gen, (n, p)))
    if dist == "t4":
        z = ndtri(open_uniform(gen, (n, p)))
        # chi^2 with 4 df as the sum of two exponentials; t(4)/sqrt(2) then
        # has variance one.
        v = -2.0 * (
            np.log(open_uniform(gen, (n, p))) + np.log(open_uniform(gen, (n, p)))
        )
        return math.sqrt(2.0) * z / np.sqrt(v)
    if dist == "uniform":
        return math.sqrt(3.0) * (2.0 * open_uniform(gen, (n, p)) - 1.0)
    raise ValueError(f"unknown innovation law {dist!r}")


def _apply_equi(eps: np.ndarray, rho: float) -> np.ndarray:
    p = eps.shape[1]
    a = math.sqrt(1.0 - rho)
    b = (math.sqrt(1.0 - rho + p * rho) - a) / p
    return a * eps + b * eps.sum(axis=1, keepdims=True)


def _apply_ar(eps: np.ndarray, rho: float) -> np.ndarray:
    if rho == 0.0:
        return eps
    scaled = eps.copy()
    scaled[:, 1:] *= math.sqrt(1.0 - rho * rho)
    return lfilter([1.0], [1.0, -rho], scaled, axis=1)


def draw_sample(spec: DesignSpec, stream: SeededStream) -> np.ndarray:
    """One ``n x p`` sample from the design, fully determined by the stream."""
    gen = stream.generator()
    eps = _innovations(gen, spec.n, spec.p, spec.dist)
    if spec.structure == "EQUI":
        y = _apply_equi(eps, spec.rho)
    else:
        y = _apply_ar(eps, spec.rho)
    return spec.mean_vector() + y


@dataclass(frozen=True)
class McConfig:
    """Replication counts, sizes, methods, and seeding for one experiment."""

    sims: int
    bootstrap_reps: int = 1000
    alpha: float = 0.05
    beta: float = 0.001
    methods: tuple[str, ...] = ("sn1", "sn2", "mb1", "mb2", "eb1", "eb2")
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        if self.sims < 1:
            raise ValueError("sims must be a positive integer")
        object.__setattr__(
            self, "methods", tuple(str(m).lower() for m in self.methods)
        )
        if not self.methods:
            raise ValueError("need at least one method")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be a positive integer")
        # the replication streams hang below the seed whatever the methods
        check_sizes(self.alpha, seed=self.seed)
        self.specs()  # each method's beta, B and seed checks

    def specs(self) -> tuple[CriticalValueSpec, ...]:
        return tuple(
            CriticalValueSpec(
                method=m,
                alpha=self.alpha,
                beta=self.beta,
                replications=self.bootstrap_reps,
                seed=self.seed,
            )
            for m in self.methods
        )


@dataclass(frozen=True)
class McResult:
    """Per-method rejection frequencies with binomial standard errors."""

    rates: dict[str, float]
    ses: dict[str, float]
    sims: int
    design: DesignSpec
    config: McConfig
    elapsed_seconds: float = field(compare=False, default=0.0)


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
    """Pins OpenBLAS to one thread while any pooled replication loop runs.

    The BLAS thread count is process-wide, so nested or concurrent loops
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
            if self._depth == 0 and self._restore is not None:
                put, count = self._restore
                self._restore = None
                put(count)


_one_blas_thread = _OneBlasThread()


def _rejections(mc: McConfig, samples) -> np.ndarray:
    """Reject indicators, shape ``(sims, samples per replication, methods)``.

    The one replication loop: replication ``k`` runs on substream
    ``(seed, "mc", k)``, ``samples(rep)`` yields its data sets, and
    :func:`~momentineq.bootstrap.run_tests` runs every method on each.  It
    summarizes the sample once, and every bootstrap draw lives on
    ``(seed, "mc", k, scheme)``, with one all-column pass per scheme.
    """
    specs = mc.specs()
    root = SeededStream(mc.seed)

    def replication(k):
        rep = root.child("mc", k)
        return [[d.reject for d in run_tests(x, specs, rep)] for x in samples(rep)]

    if mc.threads is not None and mc.threads > 1:
        # each pool thread calls BLAS; BLAS threads of their own would only
        # compete with the pool for the same cores
        with _one_blas_thread, ThreadPoolExecutor(max_workers=mc.threads) as pool:
            rows = list(pool.map(replication, range(mc.sims)))
    else:
        rows = [replication(k) for k in range(mc.sims)]
    return np.asarray(rows, dtype=np.float64)


def run_mc(design: DesignSpec, mc: McConfig) -> McResult:
    """Rejection frequency of every requested method over ``mc.sims`` replications.

    Each replication draws one sample on substream ``(seed, "mc", k)`` and
    runs every method on it through :func:`~momentineq.bootstrap.run_tests`
    on that substream, so each decision is that of a lone ``run_test`` on
    ``(seed, "mc", k)``: every bootstrap draw lives on
    ``(seed, "mc", k, scheme)``.  A method's rate therefore does not depend
    on which other methods run.  Sharing the sample across methods reduces
    the variance of method comparisons.  Results are identical under any
    ``threads`` setting.
    """
    t0 = time.perf_counter()
    rejects = _rejections(mc, lambda rep: [draw_sample(design, rep)])[:, 0]
    elapsed = time.perf_counter() - t0
    rates = rejects.mean(axis=0)
    ses = np.sqrt(rates * (1.0 - rates) / mc.sims)
    return McResult(
        rates={m: float(v) for m, v in zip(mc.methods, rates)},
        ses={m: float(v) for m, v in zip(mc.methods, ses)},
        sims=mc.sims,
        design=design,
        config=mc,
        elapsed_seconds=elapsed,
    )


@dataclass(frozen=True)
class PowerCurve:
    """Rejection frequency of each method along a grid of signal strengths."""

    r_values: tuple[float, ...]
    rates: dict[str, tuple[float, ...]]
    ses: dict[str, tuple[float, ...]]
    sims: int


def power_sweep(n: int, p: int, rho: float, r_values, mc: McConfig) -> PowerCurve:
    """Rejection frequency against the common signal strength ``r``.

    For each ``r`` every column mean is ``r`` (columns have unit standard
    deviation), with standard normal innovations under equicorrelation
    ``rho``.  Replication ``k`` reuses the same innovation draw for every
    ``r``, so per-replication rejection is monotone in ``r`` by construction
    for the one-step methods and the estimated curves compare cleanly.
    Replications run through the same loop as :func:`run_mc`, so
    ``mc.threads`` applies and never changes the result.
    """
    r_values = tuple(float(r) for r in r_values)
    if any(r < 0 for r in r_values):
        raise ValueError("signal strengths must be nonnegative")

    def shifted(rep):
        eps = _innovations(rep.generator(), n, p, "normal")
        base = _apply_equi(eps, rho) if rho > 0 else eps
        return (base + r for r in r_values)

    # the reshape keeps the (r, method) shape when r_values is empty
    rates = _rejections(mc, shifted).mean(axis=0).reshape(len(r_values), len(mc.methods))
    ses = np.sqrt(rates * (1.0 - rates) / mc.sims)
    return PowerCurve(
        r_values=r_values,
        rates={m: tuple(map(float, rates[:, j])) for j, m in enumerate(mc.methods)},
        ses={m: tuple(map(float, ses[:, j])) for j, m in enumerate(mc.methods)},
        sims=mc.sims,
    )
