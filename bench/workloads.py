"""The benchmark's workloads: Monte Carlo cells and a CLI session.

A workload builds its inputs from the benchmark seed, runs in whole rounds
of the same operations, and checks the program's outputs against
:mod:`reference` once the timed rounds are over.  Seeds handed to the
program (``McConfig.seed``, the CLI's ``--seed``) are derived from the
benchmark seed by hashing, so the program never sees the benchmark seed.

Each workload offers ``build()``, ``ops(r, problems)`` (the operations of
round ``r`` as ``(label, count, run)`` triples, ``run()`` returning the
number of failed operations) and ``verify(rng, problems)``, which leaves in
``record`` the decisions and critical values it checked.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import traceback

import numpy as np

import momentineq as mi
from momentineq.cli import main as cli_main

import reference as ref

ALPHA = 0.05
BETA = 0.001
B = 1000
# Reference bootstrap draws behind each Monte Carlo band check.
B_REF = 2000
METHODS = ("sn1", "sn2", "mb1", "mb2", "eb1", "eb2", "hyb-mb", "hyb-eb")
# Replications of a workload's first Monte Carlo batch re-run through
# ``run_test`` and checked decision by decision.
CHECKED_REPLICATIONS = 2


def derived_seed(seed: int, *labels) -> int:
    """A 32-bit program seed derived from the benchmark seed and a label path."""
    text = ":".join(str(v) for v in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_decision(x, method, statistic, cv, reject, selected, rng):
    """Problems found in one ``run_test``-style decision on sample ``x``.

    ``selected`` holds 1-based columns.  Returns a list of messages, empty
    when the decision is consistent with the reference computations.
    """
    n, p = x.shape
    problems = []
    stat_ref = ref.studentized_max(x)
    if not close(statistic, stat_ref):
        problems.append(f"{method}: statistic {statistic!r} != reference {stat_ref!r}")
    if not close(statistic, cv) and bool(reject) != (statistic > cv):
        problems.append(f"{method}: reject={reject} but statistic {statistic} vs cutoff {cv}")
    sel0 = np.asarray(sorted(selected), dtype=np.intp) - 1
    full = np.arange(p)
    if method == "sn1":
        if not close(cv, ref.sn_critical(ALPHA / p, n)):
            problems.append(f"sn1: cutoff {cv} != z/sqrt(1-z^2/n) = {ref.sn_critical(ALPHA / p, n)}")
        if sel0.size != p:
            problems.append("sn1: selected set is not every column")
        return problems
    if method == "sn2":
        cv_ref, k = ref.sn2_critical(x, ALPHA, BETA)
        if not close(cv, cv_ref) or sel0.size != k or not np.array_equal(sel0, ref.sn_selected(x, BETA)):
            problems.append(f"sn2: cutoff {cv} over {sel0.size} columns, reference {cv_ref} over {k}")
        return problems
    draws_fn = ref.mb_max_draws if method in ("mb1", "mb2", "hyb-mb") else ref.eb_max_draws
    if method in ("mb1", "eb1"):
        (d_full,) = draws_fn(x, B_REF, rng, [full])
        if sel0.size != p:
            problems.append(f"{method}: selected set is not every column")
        if not ref.quantile_consistent(d_full, cv, 1.0 - ALPHA, B):
            problems.append(f"{method}: cutoff {cv} outside the Monte Carlo band of the reference quantile")
        return problems
    if method in ("mb2", "eb2"):
        subsets = [full] + ([sel0] if sel0.size else [])
        draws = draws_fn(x, B_REF, rng, subsets)
        scheme = "MB" if method == "mb2" else "EB"
        if not ref.bootstrap_selection_consistent(x, sel0, draws[0], BETA, B, scheme):
            problems.append(f"{method}: selected {sel0.size} columns, outside the reference selection band")
    else:  # hybrid: analytic selection, bootstrap quantile
        if not np.array_equal(sel0, ref.sn_selected(x, BETA)):
            problems.append(f"{method}: selection differs from the SN rule")
        draws = [None] + (draws_fn(x, B_REF, rng, [sel0]) if sel0.size else [])
    level = 1.0 - ALPHA + 2.0 * BETA
    if sel0.size == 0:
        if cv != 0.0:
            problems.append(f"{method}: empty selection but cutoff {cv}")
    elif not ref.quantile_consistent(draws[-1], cv, level, B):
        problems.append(f"{method}: cutoff {cv} outside the Monte Carlo band at level {level}")
    return problems


class McWorkload:
    """Repeated ``run_mc`` batches on one design; a round is one batch.

    Each batch is a fresh ``run_mc`` call on its own derived seed, so every
    round attempts the same number of replications.
    """

    def __init__(self, seed, design, methods, batch, threads, reference_rates):
        self.seed = seed
        self.design_args = design
        self.methods = methods
        self.batch = batch
        self.threads = threads
        self.reference_rates = reference_rates
        self.rejects = dict.fromkeys(methods, 0.0)
        self.sims = 0
        self.first = None

    def build(self):
        self.design = mi.DesignSpec(*self.design_args)

    def ops(self, r, problems):
        """Round ``r``: one ``run_mc`` batch, as ``(label, count, run)`` triples."""
        return [("run_mc", self.batch, lambda: self._batch(r, problems))]

    def _batch(self, r, problems):
        mc = mi.McConfig(
            sims=self.batch, bootstrap_reps=B, alpha=ALPHA, beta=BETA,
            methods=self.methods, seed=derived_seed(self.seed, "batch", r),
            threads=self.threads,
        )
        try:
            result = mi.run_mc(self.design, mc)
        except Exception:
            problems.append(f"batch {r}: run_mc raised\n{traceback.format_exc()}")
            return self.batch
        for m in self.methods:
            self.rejects[m] += result.rates[m] * result.sims
        self.sims += result.sims
        if self.first is None:
            self.first = (mc, result.rates)
        return 0

    def verify(self, rng, problems):
        """Binomial bands on the rates, then deep checks of a few replications."""
        self.record = None
        if not self.sims:
            problems.append("no batch completed")
            return
        for m, target in self.reference_rates.items():
            rate = self.rejects[m] / self.sims
            # Five binomial standard errors, plus 0.03 for how far the
            # program's true rate may sit from the published reference.
            band = 5.0 * math.sqrt(target * (1.0 - target) / self.sims) + 0.03
            if abs(rate - target) > band:
                problems.append(f"{m}: rejection rate {rate:.4f} over {self.sims} sims "
                                f"outside {target} +/- {band:.4f}")
        mc, rates = self.first
        root = mi.SeededStream(mc.seed)
        decisions = []
        for k in range(CHECKED_REPLICATIONS):
            rep = root.child("mc", k)
            x = mi.draw_sample(self.design, rep)
            for spec in mc.specs():
                d = mi.run_test(x, spec, stream=rep.child(spec.method))
                problems.extend(check_decision(
                    x, spec.method, d.statistic, d.critical_value, d.reject, d.selected, rng))
                decisions.append([spec.method, d.statistic, d.critical_value, bool(d.reject)])
        self.record = {"batch0_rates": rates, "decisions": decisions}


class CliSession:
    """Every analysis command of the CLI, called in-process, on files written at set-up.

    One round runs the commands below in order; each command is one
    operation.  The four rescaled ``test`` calls are expected to fail
    until ``core.summarize`` handles underflowing and overflowing squares:
    they are counted as failed, and they do not depend on the seed.
    """

    N, P = 200, 4096            # the wide test matrix
    N3, P3, R3 = 200, 512, 2    # three-step g and gradient files
    N_INV = 400                 # location model of the inversion grid
    THETAS = np.linspace(-0.3, 0.3, 13)
    SMALL_SEED = 20240311       # fixed: the rescaled calls must not depend on --seed
    SCALES = (("tiny", 2.0 ** -565), ("huge", 2.0 ** 532))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.cli_seed = derived_seed(seed, "cli")
        self.outputs = []  # per round: label -> (exit code, output)

    def path(self, name):
        return os.path.join(self.dir, name)

    def build(self):
        rng = np.random.default_rng([self.seed, 1])
        n, p = self.N, self.P
        mean = np.full(p, -0.8)
        mean[: p // 10] = 0.0     # binding columns; the rest are slack
        mean[0] = 0.3             # one violated inequality, near the cutoffs
        self.wide = mean + rng.standard_normal((n, p))
        self._write("wide.csv", self.wide)

        n3, p3, r3 = self.N3, self.P3, self.R3
        gmean = np.full(p3, -0.6)
        gmean[: p3 // 4] = 0.0
        self.g = gmean + rng.standard_normal((n3, p3))
        vmean = np.empty((p3, r3))
        vmean[: p3 // 2] = 0.5      # informative gradients
        vmean[p3 // 2: 3 * p3 // 4] = 0.0
        vmean[3 * p3 // 4:] = -1.0  # flat-to-decreasing: dropped from J'
        self.v = vmean.reshape(-1) + rng.standard_normal((n3, p3 * r3))
        self._write("g.csv", self.g)
        self._write("v.csv", self.v)

        self.xi = rng.standard_normal(self.N_INV)
        grid = self.path("grid")
        os.makedirs(grid, exist_ok=True)
        with open(os.path.join(grid, "grid.csv"), "w") as fh:
            for i, t in enumerate(self.THETAS):
                fh.write(f"t{i},{float(t)!r}\n")
        for i, t in enumerate(self.THETAS):
            self._write(os.path.join("grid", f"point_t{i}.csv"), (self.xi - t)[:, None])

        small = np.random.default_rng(self.SMALL_SEED).standard_normal((50, 3)) + 0.35
        self.small = small
        self._write("small.csv", small)
        for tag, scale in self.SCALES:
            self._write(f"small_{tag}.csv", small * scale)

    def _write(self, name, matrix):
        np.savetxt(self.path(name), matrix, delimiter=",", fmt="%.17g")

    def commands(self):
        s = str(self.cli_seed)
        cmds = [(f"test-{m}", ["test", "--input", self.path("wide.csv"), "--method", m, "--seed", s])
                for m in METHODS]
        cmds += [
            ("diagnose", ["diagnose", "--input", self.path("wide.csv")]),
            ("bmb", ["bmb", "--input", self.path("wide.csv"), "--seed", s]),
            ("threestep", ["threestep", "--g", self.path("g.csv"), "--v", self.path("v.csv"),
                           "--r", str(self.R3), "--seed", s]),
            ("invert", ["invert", "--grid", self.path("grid"), "--method", "sn1",
                        "--out", self.path("region.csv")]),
        ]
        for m in ("sn1", "mb1"):
            cmds.append((f"small-{m}", ["test", "--input", self.path("small.csv"), "--method", m]))
        for tag, _ in self.SCALES:
            for m in ("sn1", "mb1"):
                cmds.append((f"small_{tag}-{m}",
                             ["test", "--input", self.path(f"small_{tag}.csv"), "--method", m]))
        return cmds

    @staticmethod
    def unit_scale_label(label):
        """The unit-scale call a rescaled call must agree with, or None."""
        head, _, method = label.partition("-")
        return f"small-{method}" if head.startswith("small_") else None

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # an uncaught error is a failed command, reported with its traceback
                traceback.print_exc()
                rc = 1
        return rc, out.getvalue(), err.getvalue()

    def ops(self, r, problems):
        """Round ``r``: every command once, as ``(label, 1, run)`` triples."""
        self.outputs.append({})
        return [(label, 1, functools.partial(self._command, label, argv, problems))
                for label, argv in self.commands()]

    def _command(self, label, argv, problems):
        """Run one command and keep its output; return 1 if it failed."""
        rc, out, err = self.call(argv)
        if label == "invert" and rc == 0:
            with open(self.path("region.csv"), newline="") as fh:
                out = fh.read()
        outputs = self.outputs[-1]
        outputs[label] = (rc, out)
        unit = self.unit_scale_label(label)
        if unit is not None:
            return int(not self._same_decision(outputs[unit], (rc, out)))
        if rc != 0:
            problems.append(f"{label}: exit {rc}: {err.strip()}")
            return 1
        return 0

    @staticmethod
    def _same_decision(unit, scaled):
        """Does a rescaled ``test`` reproduce the unit-scale statistic, cutoff and decision?"""
        if unit[0] != 0 or scaled[0] != 0:
            return False
        a, b = json.loads(unit[1]), json.loads(scaled[1])
        if a["reject"] != b["reject"]:
            return False
        for key in ("statistic", "critical_value"):
            if isinstance(a[key], str) or isinstance(b[key], str) or not close(a[key], b[key]):
                return False
        return True

    def verify(self, rng, problems):
        out = self.outputs[0]
        for r, later in enumerate(self.outputs[1:], start=1):
            for label, value in later.items():
                if value != out[label]:
                    problems.append(f"{label}: output in round {r} differs from round 0")
        records = []

        def decision(label):
            rc, text = out[label]
            return json.loads(text) if rc == 0 else None

        for m in METHODS:
            d = decision(f"test-{m}")
            if d is not None:
                problems.extend(check_decision(self.wide, m, d["statistic"], d["critical_value"],
                                               d["reject"], d["selected"], rng))
                records.append([m, d["statistic"], d["critical_value"], d["reject"]])

        d = decision("diagnose")
        if d is not None:
            want = ref.diagnostics(self.wide)
            for key in ("m3", "m4", "bn"):
                if not close(d[key], want[key]):
                    problems.append(f"diagnose: {key}={d[key]} != reference {want[key]}")
            if not d["bn"] >= d["m4"] >= d["m3"] >= 1.0 - 1e-12:
                problems.append(f"diagnose: expected bn >= m4 >= m3 >= 1, got {d}")
            records.append(["diagnose", d["m3"], d["m4"], d["bn"]])

        d = decision("bmb")
        if d is not None:
            n = self.N
            q, r, m = ref.block_layout(n)
            stat = math.sqrt(n) * float(self.wide.mean(axis=0).max())
            if (d["q"], d["r"], d["m"]) != (q, r, m):
                problems.append(f"bmb: blocks {(d['q'], d['r'], d['m'])} != {(q, r, m)}")
            if not close(d["statistic"], stat):
                problems.append(f"bmb: statistic {d['statistic']} != reference {stat}")
            draws = ref.bmb_max_draws(self.wide, q, r, m, B_REF, rng)
            if not ref.quantile_consistent(draws, d["critical_value"], 1.0 - ALPHA, B):
                problems.append(f"bmb: cutoff {d['critical_value']} outside the Monte Carlo band")
            if d["reject"] != (d["statistic"] > d["critical_value"]):
                problems.append("bmb: reject disagrees with statistic > cutoff")
            records.append(["bmb", d["statistic"], d["critical_value"], d["reject"]])

        d = decision("threestep")
        if d is not None:
            problems.extend(self._check_threestep(d, rng))
            records.append(["threestep", d["statistic"], d["critical_value"], d["reject"],
                            d["J"], d["J_prime"], d["J_dprime"]])

        rc, text = out["invert"]
        if rc == 0:
            problems.extend(self._check_invert(text))
            records.append(["invert", text])

        for m in ("sn1", "mb1"):
            d = decision(f"small-{m}")
            if d is None:
                problems.append(f"small-{m}: unit-scale test failed")
                continue
            problems.extend(check_decision(self.small, m, d["statistic"], d["critical_value"],
                                           d["reject"], d["selected"], rng))
            if not d["reject"]:
                problems.append(f"small-{m}: the unit-scale sample must be rejected")
            records.append([f"small-{m}", d["statistic"], d["critical_value"], d["reject"]])
        self.record = records

    def _check_threestep(self, d, rng):
        problems = []
        J, Jp, Jpp = set(d["J"]), set(d["J_prime"]), set(d["J_dprime"])
        if not Jp <= Jpp:
            problems.append("threestep: J' is not a subset of J''")
        if set(d["selected"]) != J & Jpp:
            problems.append("threestep: critical-value set is not J & J''")
        g = self.g
        sc = ref.scores(g)
        stat = float(sc[np.asarray(sorted(Jp)) - 1].max()) if Jp else 0.0
        if not close(d["statistic"], stat):
            problems.append(f"threestep: statistic {d['statistic']} != max over J' {stat}")
        full = np.arange(g.shape[1])
        sel0 = np.asarray(sorted(J & Jpp), dtype=np.intp) - 1
        draws = ref.mb_max_draws(g, B_REF, rng, [full] + ([sel0] if sel0.size else []))
        if not ref.bootstrap_selection_consistent(g, np.asarray(sorted(J), dtype=np.intp) - 1,
                                                  draws[0], BETA, B, "MB"):
            problems.append("threestep: J outside the reference selection band")
        cv = d["critical_value"]
        if not Jp or not sel0.size:
            if cv != 0.0:
                problems.append(f"threestep: empty set but cutoff {cv}")
        elif not ref.quantile_consistent(draws[-1], cv, 1.0 - ALPHA + 4.0 * BETA, B):
            problems.append(f"threestep: cutoff {cv} outside the Monte Carlo band")
        if d["reject"] != (d["statistic"] > cv):
            problems.append("threestep: reject disagrees with statistic > cutoff")
        return problems

    def _check_invert(self, text):
        problems = []
        rows = list(csv.reader(io.StringIO(text)))[1:]
        accepted = {row[0] for row in rows if row[3] == "true"}
        n = self.N_INV
        mean, sd = float(self.xi.mean()), float(self.xi.std())
        boundary = mean - ref.sn_critical(ALPHA, n) * sd / math.sqrt(n)
        expected = {f"t{i}" for i, t in enumerate(self.THETAS) if t >= boundary}
        if accepted != expected:
            problems.append(f"invert: accepted {sorted(accepted)} != half-line {sorted(expected)}")
        for row in rows:
            i = int(row[0][1:])
            stat = ref.studentized_max((self.xi - self.THETAS[i])[:, None])
            if not close(float(row[1]), stat):
                problems.append(f"invert: {row[0]} statistic {row[1]} != reference {stat}")
        return problems


def make(name, seed, workdir):
    """The workload called ``name``, with its inputs not yet built."""
    if name == "mc-ar-sparse":
        # Acceptance criterion 5: design 8 (AR, rho 0.5, t4), n 400, p 1000.
        return McWorkload(seed, (8, 400, 1000, 0.5, "t4"), ("mb1", "mb2"), batch=8,
                          threads=len(os.sched_getaffinity(0)),
                          reference_rates={"mb1": 0.168, "mb2": 0.656})
    if name == "mc-equi-dense":
        # Design 1 (EQUI, rho 0, t4), n 400, p 200: every column binds, so
        # selection keeps them all and the two-step rates track the one-step
        # references of acceptance criterion 1.
        return McWorkload(seed, (1, 400, 200, 0.0, "t4"),
                          ("sn1", "sn2", "mb1", "mb2", "eb1", "eb2"), batch=4, threads=None,
                          reference_rates={"sn1": 0.047, "sn2": 0.047, "mb1": 0.065,
                                           "mb2": 0.065, "eb1": 0.056, "eb2": 0.056})
    if name == "cli-session":
        return CliSession(seed, workdir)
    raise KeyError(name)
