"""Data-generating processes and the Monte Carlo rejection-rate harness.

Eight benchmark designs on rows ``x_i = mu + A' eps_i`` with unit column
variances: designs 1, 2, 5, 6 use an equicorrelated covariance (all
off-diagonal entries ``rho``), designs 3, 4, 7, 8 an autoregressive one
(``rho^|j-k|``).  Designs 1-4 satisfy the null (means 0, or 0 on the first
``gamma`` fraction of columns and -0.8 after), designs 5-8 violate it (0.05
everywhere, or 0.05 then -0.75).  Innovations are either Student's t with 4
degrees of freedom scaled to unit variance, or uniform on
``(-sqrt(3), sqrt(3))``.  The AR filter is ``scipy.signal.lfilter``, imported
on a process's first AR draw and not with the package, since
``scipy.signal`` loads ``scipy.stats`` and costs most of an import.

A sample is written one slab of whole rows at a time, each slab about
``_PIECE_SCALARS`` values (one row when a row is longer), so a draw holds
a few slabs of temporaries beyond the sample.  Every step runs on whole
rows in the order of the plain expressions over the whole matrix (the
equicorrelation row sum and the AR filter need the whole row), so the bits
are theirs.  A t4 draw reads three ``n x p`` uniform arrays, which sit at
offsets ``0``, ``n p`` and ``2 n p`` of the sample's stream: one generator
is placed at each (see :func:`~momentineq.gaussian._placed`), and each
continues from slab to slab.

``run_mc`` estimates rejection rates over independent replications, one
substream per replication, so results do not depend on execution order or
the thread count.  By default (``McConfig.threads`` is ``None``) the
replications run on one thread per usable core, the calling thread among
them, through :func:`~momentineq.bootstrap._on_cores`; each runs its
bootstrap passes on its own thread, so the replications alone fill the
cores.  ``threads=1`` runs them one after another on the calling thread,
each pass spread over the cores: the opt-out for a caller that already runs
``run_mc`` inside a pool of its own.  No rate depends on the setting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import bootstrap
from .bootstrap import _on_cores, run_tests
from .core import CriticalValueSpec, check_count, check_sizes
from .gaussian import SeededStream, _placed, _row_pieces, open_uniform

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
        check_count("design", self.design, below=9)
        check_count("n", self.n, least=2)
        check_count("p", self.p)
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


def _innovations(gens, shape, dist: str) -> np.ndarray:
    """One slab of unit-variance i.i.d. innovations by inversion from open-interval uniforms.

    ``gens`` holds one generator per uniform array the law reads (three for
    t4, one otherwise), each placed where its array starts in the slab.
    Each step runs in place on the arrays ``open_uniform`` returns, in the
    order of the plain expressions, so the bits are theirs.
    """
    z = open_uniform(gens[0], shape)
    if dist == "uniform":
        z *= 2.0
        z -= 1.0
        z *= math.sqrt(3.0)
        return z
    ndtri(z, out=z)
    if dist == "normal":
        return z
    # chi^2 with 4 df as the sum of two exponentials; t(4)/sqrt(2) then has
    # variance one: sqrt(2) z / sqrt(-2 (log u + log w)).
    v = open_uniform(gens[1], shape)
    np.log(v, out=v)
    w = open_uniform(gens[2], shape)
    v += np.log(w, out=w)
    v *= -2.0
    np.sqrt(v, out=v)
    z *= math.sqrt(2.0)
    z /= v
    return z


def _slabs(stream: SeededStream, out: np.ndarray, dist: str):
    """``(slab, innovations)`` for each slab of whole rows of ``out``, top to bottom.

    Row ``i`` of the ``n x p`` innovations is the one a single draw over the
    whole matrix gives: the uniform arrays start at offsets ``0``, ``n p``
    and ``2 n p`` of ``stream`` (one generator placed at each), and each
    continues from slab to slab.  A slab is ``_PIECE_SCALARS`` scalars, or
    one row when a row is longer, so the caller's temporaries stay that size.
    """
    gens = [_placed(stream, k * out.size) for k in range(3 if dist == "t4" else 1)]
    for slab in _row_pieces(out):
        yield slab, _innovations(gens, slab.shape, dist)


def _apply_equi(eps: np.ndarray, rho: float) -> np.ndarray:
    """``a eps + b (row sums of eps)``, written over ``eps``."""
    p = eps.shape[1]
    a = math.sqrt(1.0 - rho)
    b = (math.sqrt(1.0 - rho + p * rho) - a) / p
    sums = eps.sum(axis=1, keepdims=True)
    eps *= a
    eps += b * sums
    return eps


def _apply_ar(eps: np.ndarray, rho: float) -> np.ndarray:
    """The AR(1) filter along each row, after scaling ``eps`` in place."""
    if rho == 0.0:
        return eps
    # scipy.signal pulls in scipy.stats and costs most of an import; only AR draws need it
    from scipy.signal import lfilter

    eps[:, 1:] *= math.sqrt(1.0 - rho * rho)
    return lfilter([1.0], [1.0, -rho], eps, axis=1)


def draw_sample(spec: DesignSpec, stream: SeededStream) -> np.ndarray:
    """One ``n x p`` sample from the design, fully determined by the stream, slab by slab."""
    apply = _apply_equi if spec.structure == "EQUI" else _apply_ar
    mu = spec.mean_vector()
    out = np.empty((spec.n, spec.p))
    for slab, eps in _slabs(stream, out, spec.dist):
        np.add(apply(eps, spec.rho), mu, out=slab)
    return out


@dataclass(frozen=True)
class McConfig:
    """Replication counts, sizes, methods, and seeding for one experiment.

    ``threads`` is how many threads run the replications, the calling
    thread included, at most the usable cores and ``sims``: ``None`` (the
    default) means one per usable core, and ``1`` runs them serially on the
    calling thread, for a caller that already runs ``run_mc`` inside a pool
    of its own.  No rate depends on it.
    """

    sims: int
    bootstrap_reps: int = 1000
    alpha: float = 0.05
    beta: float = 0.001
    methods: tuple[str, ...] = ("sn1", "sn2", "mb1", "mb2", "eb1", "eb2")
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        check_count("sims", self.sims)
        object.__setattr__(
            self, "methods", tuple(str(m).lower() for m in self.methods)
        )
        if not self.methods:
            raise ValueError("need at least one method")
        for i, m in enumerate(self.methods):
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} is listed more than once")
        if self.threads is not None:
            check_count("threads", self.threads)
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


def _workers(mc: McConfig) -> int:
    """How many threads run ``mc``'s replications: ``mc.threads``, or by default
    one per usable core, but no more than the usable cores or the replications.
    """
    cores = bootstrap._PASS_WORKERS
    return min(cores if mc.threads is None else mc.threads, cores, mc.sims)


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

    return np.asarray(_on_cores(replication, range(mc.sims), _workers(mc)), dtype=np.float64)


def run_mc(design: DesignSpec, mc: McConfig) -> McResult:
    """Rejection frequency of every requested method over ``mc.sims`` replications.

    Each replication draws one sample on substream ``(seed, "mc", k)`` and
    runs every method on it through :func:`~momentineq.bootstrap.run_tests`
    on that substream, so each decision is that of a lone ``run_test`` on
    ``(seed, "mc", k)``: every bootstrap draw lives on
    ``(seed, "mc", k, scheme)``.  A method's rate therefore does not depend
    on which other methods run.  Sharing the sample across methods reduces
    the variance of method comparisons.  The replications run on every
    usable core unless ``mc.threads`` says otherwise (``1`` runs them
    serially); results are identical under any ``threads`` setting.
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
    Replications run through the same loop as :func:`run_mc`: on every
    usable core by default, serially under ``mc.threads = 1``, and with the
    same rates under any setting.
    """
    check_count("n", n, least=2)
    check_count("p", p)
    r_values = tuple(float(r) for r in r_values)
    if any(not 0 <= r < math.inf for r in r_values):
        raise ValueError(f"signal strengths must be finite and nonnegative, got {r_values}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")

    def shifted(rep):
        base = np.empty((n, p))
        for slab, eps in _slabs(rep, base, "normal"):
            slab[...] = _apply_equi(eps, rho) if rho > 0 else eps
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
