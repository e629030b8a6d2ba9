"""Benchmark command: one workload, timed in whole rounds, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer figures of
the traced rounds plus the tracing overhead against the untraced ones.  A
record of the run, with the layer totals of a traced run, is written to
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc-ar-sparse", "mc-equi-dense", "cli-session")
# set-up is repeated and its median reported: the import in this process
# plus IMPORT_PROBES fresh interpreters, and BUILDS builds of the inputs
IMPORT_PROBES = 5
BUILDS = 3
IMPORT_CODE = "import time; t = time.perf_counter(); import momentineq; print(time.perf_counter() - t)"
# SpeedProbe's median time on the reference machine (README), so that the
# scaled throughput reads close to wall-clock throughput there
PROBE_REF_S = 0.030
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Share of rounds dropped at each end before throughput is averaged: a
# round slowed by another tenant of the host does not pull the figure down
TRIM = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


# The speed probe: a fixed mix of array, special-function, generator and
# interpreter work (no BLAS, no allocation of arrays), timed for every line
# read from stdin after an untimed pass that brings its data into cache.
PROBE_CODE = """
import sys, time
import numpy as np
from scipy.special import ndtri
rng = np.random.default_rng(0)
a = rng.standard_normal(60_000)
work = np.empty_like(a)
u = rng.random(60_000)
out = np.empty_like(u)
text = [repr(v) for v in rng.standard_normal(6_000).tolist()]

def one_pass():
    work[:] = a
    work.sort()
    ndtri(u, out=out)
    rng.random(out=out)
    for v in text:
        float(v)

print("ready", flush=True)
for _ in sys.stdin:
    one_pass()
    t0 = time.perf_counter()
    for _ in range(6):
        one_pass()
    print(time.perf_counter() - t0, flush=True)
"""


class SpeedProbe:
    """Times the probe work in an idle interpreter of its own, on request.

    The probe runs between operations.  Its time tracks how fast the machine
    is at that moment, which on a shared host drifts by tens of percent
    over seconds; dividing by it takes the drift out of the figures.  It
    runs in a separate process so that the heap, imports and state of the
    program's process do not enter its time.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", PROBE_CODE], cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed probe did not start")

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        """Stop the probe process and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def timed_rounds(workload, seconds, tracer, problems, probe):
    """Run whole rounds until ``seconds`` have passed; one record per round.

    Each operation is timed alone, between two runs of the speed probe.
    With a tracer, odd rounds are traced and even ones are not, and the run
    stops after an even number of rounds, so both kinds are measured on
    the same mix of operations.
    """
    rounds = []
    start = time.perf_counter()
    speed = probe()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        record = {"traced": traced, "seconds": 0.0, "ref_seconds": 0.0, "cpu_s": 0.0,
                  "probe_s": [], "ops": 0, "failed": 0}
        if traced:
            tracer.install()
        try:
            for label, count, run in workload.ops(r, problems):
                c0, t0 = time.process_time(), time.perf_counter()
                failed = run()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                after = probe()
                record["probe_s"].append(after)
                record["seconds"] += wall
                record["ref_seconds"] += wall * PROBE_REF_S / ((speed + after) / 2.0)
                record["cpu_s"] += cpu
                record["ops"] += count
                record["failed"] += failed
                speed = after
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(record)
        r += 1
        if time.perf_counter() - start >= seconds and (tracer is None or r % 2 == 0):
            return rounds


def trimmed_mean(values):
    """Mean of ``values`` without the lowest and the highest ``TRIM`` share of them."""
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])


def layer_metrics(tracer, rounds):
    """Per-layer figures per operation of the traced rounds, and the overhead."""
    traced = [x for x in rounds if x["traced"]]
    plain = [x for x in rounds if not x["traced"]]
    ops = sum(x["ops"] for x in traced)
    L = tracer.layers

    def per_op(value):
        return value / ops

    def ratio(a, b):
        return a / b if b else 0.0

    rowmax = L["bootstrap.blocked_rowmax"]
    select = L["sn.select"]
    # speed-normalized times, so machine drift does not pass for overhead
    t_traced = sum(x["ref_seconds"] for x in traced) / ops
    t_plain = sum(x["ref_seconds"] for x in plain) / sum(x["ops"] for x in plain)
    values = {
        "simulate.draw_sample.s": (per_op(L["simulate.draw_sample"].seconds), "s/op"),
        "simulate.draw_sample.calls": (per_op(L["simulate.draw_sample"].calls), "calls/op"),
        "gaussian.open_uniform.s": (per_op(L["gaussian.open_uniform"].seconds), "s/op"),
        "gaussian.open_uniform.draws": (per_op(L["gaussian.open_uniform"].extra.get("draws", 0)), "draws/op"),
        "bootstrap.ndtri.s": (per_op(L["bootstrap.ndtri"].seconds), "s/op"),
        "bootstrap.eb_counts.s": (per_op(L["bootstrap.eb_counts"].seconds), "s/op"),
        "bootstrap.blocked_rowmax.s": (per_op(rowmax.seconds), "s/op"),
        "bootstrap.blocked_rowmax.gflop": (per_op(rowmax.extra.get("flop", 0)) / 1e9, "gflop/op"),
        "bootstrap.blocked_rowmax.useful_ratio": (
            ratio(rowmax.extra.get("useful_flop", 0), rowmax.extra.get("flop", 0)), "ratio"),
        "bootstrap.passes": (per_op(L["bootstrap.mb_pass"].calls + L["bootstrap.eb_counts"].calls), "passes/op"),
        "bootstrap.quantile.s": (per_op(L["bootstrap.quantile"].seconds), "s/op"),
        "sn.select.s": (per_op(select.seconds), "s/op"),
        "sn.selected_ratio": (ratio(select.extra.get("selected", 0), select.extra.get("offered", 0)), "ratio"),
        "core.summarize.s": (per_op(L["core.summarize"].seconds), "s/op"),
        "core.summarize.calls": (per_op(L["core.summarize"].calls), "calls/op"),
        "core.regularity_diagnostics.s": (per_op(L["core.regularity_diagnostics"].seconds), "s/op"),
        "cli.read_matrix.s": (per_op(L["cli.read_matrix"].seconds), "s/op"),
        "cli.read_matrix.cells": (per_op(L["cli.read_matrix"].extra.get("cells", 0)), "cells/op"),
        "threestep.s": (per_op(L["threestep"].seconds), "s/op"),
        "dependent.bmb.s": (per_op(L["dependent.bmb"].seconds), "s/op"),
        "inference.invert.s": (per_op(L["inference.invert"].seconds), "s/op"),
        "gaussian.stream.generators": (per_op(L["gaussian.stream"].calls), "calls/op"),
        "process.cpu_s": (sum(x["cpu_s"] for x in plain) / sum(x["ops"] for x in plain), "s/op"),
        "process.wall_ops_per_s": (trimmed_mean(x["ops"] / x["seconds"] for x in plain), "1/s"),
        "process.probe_ms": (1e3 * statistics.median(p for x in rounds for p in x["probe_s"]), "ms"),
        "trace.overhead_pct": (100.0 * (t_traced / t_plain - 1.0), "%"),
        "trace.absent_layers": (len(tracer.absent()), "count"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def machine():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentineq" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import momentineq  # noqa: F401  (timed: the import is part of set-up)
    import_s = [time.perf_counter() - t0] + [import_probe() for _ in range(IMPORT_PROBES)]

    import numpy as np

    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as workdir:
        workload = workloads.make(args.workload, args.seed, workdir)
        build_s = []
        for _ in range(BUILDS):
            t0 = time.perf_counter()
            workload.build()
            build_s.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_s) + statistics.median(build_s)

        tracer = spans.Tracer(spans.default_layers()) if args.trace else None
        probe = SpeedProbe()
        try:
            rounds = timed_rounds(workload, args.seconds, tracer, problems, probe)
        finally:
            probe.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.verify(np.random.default_rng([args.seed, 2]), problems)

    plain = [x for x in rounds if not x["traced"]]
    if tracer is None:
        metrics = {
            "ops_per_ref_s": {"value": trimmed_mean(x["ops"] / x["ref_seconds"] for x in plain),
                              "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer, rounds)
        if tracer.absent():
            print("absent layers: " + ", ".join(tracer.absent()))
    digest = hashlib.sha256(
        json.dumps(workload.record, sort_keys=True).encode()).hexdigest()
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(x["ops"] for x in rounds),
        "failed": sum(x["failed"] for x in rounds),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  digest=digest, machine=machine(), import_s=import_s, build_s=build_s,
                  rounds=rounds, problems=problems,
                  layers=None if tracer is None else {
                      name: {"calls": x.calls, "seconds": x.seconds, **x.extra}
                      for name, x in tracer.layers.items()})
    with open(OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, digest {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
