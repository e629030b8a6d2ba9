"""Command-line front end.

Commands
--------
test       run one test on a CSV matrix, emit the decision as JSON on stdout
mc         Monte Carlo rejection rates for a benchmark design, CSV + JSON sidecar
invert     confidence region over a grid directory, CSV of per-point results
threestep  three-step test from data and gradient CSV files, JSON on stdout
bmb        dependent-data block-bootstrap test, JSON on stdout
diagnose   regularity diagnostics of a CSV matrix, JSON on stdout

File formats: CSV is comma-separated with '.' decimal and an optional single
header row (``--header``); matrices are n rows by p columns.  JSON output has
a fixed key order and prints numbers with 12 significant digits; non-finite
numbers appear as the strings "inf", "-inf", or "nan".

Exit status: 0 success, 2 input error (including a file that is not UTF-8
text), 3 statistical precondition violation (including a non-finite critical
value), 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from .bootstrap import run_test
from .core import CriticalValueSpec, METHODS, as_sample_matrix, regularity_diagnostics
from .dependent import bmb_test, default_block_lengths, make_blocks
from .errors import (
    DegenerateColumnError,
    GridPointError,
    InputError,
    UndefinedCriticalValueError,
)
from .gaussian import SeededStream
from .inference import GridPoint, invert_region
from .simulate import DesignSpec, McConfig, run_mc
from .threestep import ParametricMomentData, ThreeStepConfig, three_step_test

USAGE_ERROR = 64
INPUT_ERROR = 2
PRECONDITION_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _jsonable(x):
    """12-significant-digit JSON value; non-finite floats become strings."""
    x = float(x)
    if not np.isfinite(x):
        return "nan" if np.isnan(x) else ("inf" if x > 0 else "-inf")
    return json.loads(_fmt(x))


def read_matrix(path, header: bool = False) -> np.ndarray:
    """Read an n x p numeric CSV, reporting line and column on failure.

    numpy's C reader parses the common case.  A file it refuses or finds
    empty, and any input that cannot be rewound (a pipe), is read by the row
    loop ``_read_rows``, which accepts every field ``float`` reads.  The two
    give bit-equal matrices wherever both accept a file.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            x = _loadtxt(fh, header) if fh.seekable() else None
            if x is None:
                x = _read_rows(fh, path, header)
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from exc
    return as_sample_matrix(x)


def _undecodable(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not {exc.encoding} text: {exc.reason}")


def _loadtxt(fh, header: bool):
    """The matrix from numpy's C reader, or None (and ``fh`` rewound) when it
    refuses the file or finds no rows."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            x = np.loadtxt(
                fh, dtype=np.float64, comments=None, delimiter=",",
                skiprows=int(header), ndmin=2,
            )
    except ValueError:
        x = None
    if x is None or x.size == 0:
        fh.seek(0)
        return None
    return x


def _read_rows(fh, path, header: bool) -> np.ndarray:
    """``csv.reader`` rows of ``float`` fields, skipping blank lines."""
    rows = []
    reader = csv.reader(fh)
    for lineno, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if header and not rows and lineno == 1:
            header = False  # consume exactly one header row
            continue
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            bad = next(
                i for i, v in enumerate(row, start=1)
                if not _is_float(v)
            )
            raise InputError(
                f"{path}: line {lineno}, column {bad}: not a number"
            ) from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise InputError(f"{path}: rows have unequal lengths {sorted(widths)}")
    return np.asarray(rows, dtype=np.float64)


def _is_float(v: str) -> bool:
    try:
        float(v)
        return True
    except ValueError:
        return False


def _decision_json(decision, extra=None) -> str:
    spec = decision.method
    payload = {
        "statistic": _jsonable(decision.statistic),
        "critical_value": _jsonable(decision.critical_value),
        "reject": bool(decision.reject),
        "method": spec.method if isinstance(spec, CriticalValueSpec) else str(spec),
        "alpha": _jsonable(spec.alpha) if isinstance(spec, CriticalValueSpec) else None,
        "beta": _jsonable(spec.beta) if isinstance(spec, CriticalValueSpec) else None,
        "selected": list(decision.selected),
        "seed": spec.seed if isinstance(spec, CriticalValueSpec) else None,
        "diagnostics": None,
    }
    if decision.diagnostics is not None:
        payload["diagnostics"] = {
            "m3": _jsonable(decision.diagnostics.m3),
            "m4": _jsonable(decision.diagnostics.m4),
            "bn": _jsonable(decision.diagnostics.bn),
        }
    if extra:
        payload.update(extra)
    return json.dumps(payload)


def _at_least_one(text: str) -> int:
    """An integer flag value of 1 or more; anything else is a usage error."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _add_seeded(p, beta=True):
    p.add_argument("--alpha", type=float, default=0.05)
    if beta:
        p.add_argument("--beta", type=float, default=0.001)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="momentineq")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test a CSV matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--header", action="store_true")
    _add_seeded(p)

    p = sub.add_parser("mc", help="Monte Carlo rejection rates")
    p.add_argument("--design", type=int, required=True)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--dist", default="t4")
    p.add_argument("--sims", type=int, default=1000)
    p.add_argument("--methods", default="sn1,sn2,mb1,mb2,eb1,eb2")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_seeded(p)

    p = sub.add_parser("invert", help="confidence region over a grid directory")
    p.add_argument("--grid", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out", required=True)
    _add_seeded(p)

    p = sub.add_parser("threestep", help="three-step test from g and gradient files")
    p.add_argument("--g", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--r", type=_at_least_one, required=True)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--scheme", default="mb", choices=["mb", "eb"])
    p.add_argument("--header", action="store_true")
    _add_seeded(p)

    p = sub.add_parser("bmb", help="block multiplier bootstrap test")
    p.add_argument("--input", required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--header", action="store_true")
    _add_seeded(p, beta=False)

    p = sub.add_parser("diagnose", help="regularity diagnostics of a CSV matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--header", action="store_true")

    return parser


def cmd_test(args) -> int:
    spec = CriticalValueSpec(
        method=args.method, alpha=args.alpha, beta=args.beta,
        replications=args.reps, seed=args.seed,
    )
    x = read_matrix(args.input, header=args.header)
    decision = run_test(x, spec, include_diagnostics=True)
    print(_decision_json(decision))
    return 0


def cmd_mc(args) -> int:
    design = DesignSpec(
        design=args.design, n=args.n, p=args.p, rho=args.rho, dist=args.dist
    )
    mc = McConfig(
        sims=args.sims,
        bootstrap_reps=args.reps,
        alpha=args.alpha,
        beta=args.beta,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        seed=args.seed,
        threads=args.threads,
    )
    result = run_mc(design, mc)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "rejection_rate", "se", "sims"])
        for m in mc.methods:
            writer.writerow([m, _fmt(result.rates[m]), _fmt(result.ses[m]), mc.sims])
    sidecar = {
        "design": args.design, "n": args.n, "p": args.p,
        "rho": _jsonable(args.rho), "dist": design.dist, "gamma": _jsonable(design.gamma),
        "sims": mc.sims, "bootstrap_reps": mc.bootstrap_reps,
        "alpha": _jsonable(mc.alpha), "beta": _jsonable(mc.beta),
        "methods": list(mc.methods), "seed": mc.seed,
        "threads": mc.threads,
        "elapsed_seconds": _jsonable(result.elapsed_seconds),
    }
    with open(_sidecar_path(args.out), "w") as fh:
        json.dump(sidecar, fh)
        fh.write("\n")
    return 0


def _sidecar_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".json"


def _load_grid(grid_dir):
    grid_csv = os.path.join(grid_dir, "grid.csv")
    try:
        fh = open(grid_csv, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {grid_csv}: {exc}") from exc
    with fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise _undecodable(grid_csv, exc) from exc
    points = []
    for lineno, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        label = row[0].strip()
        try:
            theta = tuple(float(v) for v in row[1:])
        except ValueError as exc:
            raise InputError(
                f"{grid_csv}: line {lineno}: bad theta coordinates"
            ) from exc
        matrix = read_matrix(os.path.join(grid_dir, f"point_{label}.csv"))
        points.append(GridPoint(label=label, theta=theta, g_values=matrix))
    return points


def cmd_invert(args) -> int:
    spec = CriticalValueSpec(
        method=args.method, alpha=args.alpha, beta=args.beta,
        replications=args.reps, seed=args.seed,
    )
    grid = _load_grid(args.grid)
    region = invert_region(grid, spec)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "statistic", "critical_value", "accepted"])
        for pt in region.points:
            writer.writerow(
                [pt.label, _fmt(pt.statistic), _fmt(pt.critical_value),
                 str(pt.accepted).lower()]
            )
    return 0


def cmd_threestep(args) -> int:
    g = read_matrix(args.g, header=args.header)
    vmat = read_matrix(args.v, header=args.header)
    n, p = g.shape
    if vmat.shape != (n, p * args.r):
        raise InputError(
            f"gradient file must be n x (p*r) = {n} x {p * args.r}, "
            f"got {vmat.shape[0]} x {vmat.shape[1]}"
        )
    data = ParametricMomentData(g=g, v=vmat.reshape(n, p, args.r))
    cfg = ThreeStepConfig(
        alpha=args.alpha, beta=args.beta, phi=args.phi,
        scheme=args.scheme, replications=args.reps, seed=args.seed,
    )
    decision = three_step_test(data, cfg)
    j_hat, j_prime, j_dprime = decision.sets
    print(_decision_json(decision, extra={
        "alpha": _jsonable(cfg.alpha),
        "beta": _jsonable(cfg.beta),
        "phi": _jsonable(cfg.resolve_phi(n)),
        "seed": args.seed,
        "J": sorted(j_hat),
        "J_prime": sorted(j_prime),
        "J_dprime": sorted(j_dprime),
    }))
    return 0


def cmd_bmb(args) -> int:
    x = read_matrix(args.input, header=args.header)
    n = x.shape[0]
    q, r = default_block_lengths(n)
    if args.q is not None:
        q = args.q
    if args.r is not None:
        r = args.r
    try:
        plan = make_blocks(n, q, r)
    except ValueError as exc:
        # Infeasible blocking for this sample size is a statistical
        # precondition failure, not a flag problem.
        raise UndefinedCriticalValueError(str(exc)) from exc
    decision = bmb_test(x, plan, args.alpha, args.reps, SeededStream(args.seed))
    print(_decision_json(decision, extra={
        "alpha": _jsonable(args.alpha),
        "q": q, "r": r, "m": plan.m,
        "seed": args.seed,
    }))
    return 0


def cmd_diagnose(args) -> int:
    x = read_matrix(args.input, header=args.header)
    d = regularity_diagnostics(x)
    print(json.dumps({
        "m3": _jsonable(d.m3), "m4": _jsonable(d.m4), "bn": _jsonable(d.bn),
    }))
    return 0


_COMMANDS = {
    "test": cmd_test,
    "mc": cmd_mc,
    "invert": cmd_invert,
    "threestep": cmd_threestep,
    "bmb": cmd_bmb,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"momentineq: input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except GridPointError as exc:
        cause = exc.__cause__
        print(f"momentineq: {exc}", file=sys.stderr)
        if isinstance(cause, (DegenerateColumnError, UndefinedCriticalValueError)):
            return PRECONDITION_ERROR
        return INPUT_ERROR
    except (DegenerateColumnError, UndefinedCriticalValueError) as exc:
        print(f"momentineq: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except ValueError as exc:
        # Remaining ValueErrors are bad flag combinations caught before any
        # statistics run (sizes out of range, unknown scheme, ...).
        print(f"momentineq: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
