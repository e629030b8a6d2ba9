"""Command-line interface: formats, determinism, and the exit-code contract."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentineq
from momentineq import bootstrap, cli, sn_one_step
from momentineq.cli import main, read_matrix
from momentineq.core import as_sample_matrix
from momentineq.errors import InputError


def write_csv(path, matrix, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        for row in np.atleast_2d(matrix):
            w.writerow([repr(float(v)) for v in row])
    return str(path)


@pytest.fixture
def normal_csv(tmp_path):
    rng = np.random.default_rng(7)
    return write_csv(tmp_path / "x.csv", rng.normal(size=(400, 200)))


class TestCmdTest:
    def test_sn1_matches_library(self, tmp_path, normal_csv, capsys):
        rc = main(["test", "--input", normal_csv, "--method", "sn1", "--alpha", "0.05"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["critical_value"] - sn_one_step(0.05, 200, 400)) <= 1e-9
        assert payload["method"] == "sn1"
        assert payload["selected"] == list(range(1, 201))
        assert payload["diagnostics"]["bn"] >= payload["diagnostics"]["m4"]

    def test_bootstrap_output_is_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = write_csv(tmp_path / "m.csv", rng.normal(size=(60, 8)))
        args = ["test", "--input", path, "--method", "mb2", "--reps", "1000",
                "--beta", "0.001", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_exit_zero_even_when_rejecting(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = write_csv(tmp_path / "m.csv", rng.normal(size=(50, 3)) + 2.0)
        assert main(["test", "--input", path, "--method", "sn1"]) == 0
        assert json.loads(capsys.readouterr().out)["reject"] is True

    def test_header_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = write_csv(tmp_path / "h.csv", rng.normal(size=(30, 2)), header=["a", "b"])
        assert main(["test", "--input", path, "--method", "sn1", "--header"]) == 0

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["test", "--input", str(tmp_path / "nope.csv"), "--method", "sn1"]) == 2

    def test_malformed_csv_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        assert main(["test", "--input", str(path), "--method", "sn1"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column 2" in err

    def test_degenerate_with_bootstrap_is_exit_3(self, tmp_path, capsys):
        path = write_csv(tmp_path / "deg.csv", np.column_stack(
            [np.ones(20), np.arange(20.0)]
        ))
        assert main(["test", "--input", str(path), "--method", "eb1"]) == 3
        assert "column" in capsys.readouterr().err

    def test_sn_undefined_is_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = write_csv(tmp_path / "tiny.csv", rng.normal(size=(4, 500)))
        assert main(["test", "--input", str(path), "--method", "sn1"]) == 3

    def test_degenerate_statistic_encodes_as_inf_string(self, tmp_path, capsys):
        # constant positive column: the convention forces rejection and the
        # reported statistic is the string "inf" (JSON has no infinity)
        path = write_csv(tmp_path / "deg.csv", np.column_stack(
            [np.ones(20), np.arange(20.0)]
        ))
        assert main(["test", "--input", str(path), "--method", "sn1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == "inf"
        assert payload["reject"] is True
        assert payload["diagnostics"] is None

    @pytest.mark.parametrize("scale", [2.0 ** -565, 2.0 ** 532], ids=["2^-565", "2^532"])
    @pytest.mark.parametrize("method", ["sn1", "mb1"])
    def test_rescaled_sample_keeps_the_unit_scale_decision(self, tmp_path, capsys,
                                                           method, scale):
        # squared deviations underflow at 2^-565 and overflow at 2^532
        x = np.random.default_rng(11).normal(size=(50, 3)) + 0.35
        out = []
        for name, m in (("unit.csv", x), ("scaled.csv", x * scale)):
            path = write_csv(tmp_path / name, m)
            assert main(["test", "--input", path, "--method", method]) == 0
            out.append(json.loads(capsys.readouterr().out))
        unit, scaled = out
        assert unit["reject"] is True
        assert scaled["reject"] is True
        for key in ("statistic", "critical_value"):
            assert isinstance(scaled[key], float)
            assert abs(scaled[key] - unit[key]) <= 1e-9 * abs(unit[key])

    def test_bad_flag_combination_is_usage_error(self, tmp_path, normal_csv, capsys):
        rc = main(["test", "--input", normal_csv, "--method", "sn2",
                   "--alpha", "0.05", "--beta", "0.4"])
        assert rc == 64

    def test_non_finite_beta_is_usage_error_for_one_step_methods(self, normal_csv, capsys):
        rc = main(["test", "--input", normal_csv, "--method", "sn1", "--beta", "inf"])
        assert rc == 64
        assert "beta" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, tmp_path, normal_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--input", normal_csv, "--method", "wald"])
        assert exc.value.code == 64


def run_json(argv, path, capsys):
    """The JSON that ``argv`` prints for the input ``path``; the command must exit 0."""
    assert main(argv[:1] + ["--input", path] + argv[1:]) == 0
    return json.loads(capsys.readouterr().out)


class TestOverflowingColumnSums:
    # Every entry is finite at both scales, but the column sums behind the
    # means overflow: max |x| is 1.04e307 at 2^1018.
    SCALES = pytest.mark.parametrize("scale", [2.0 ** 1018, 2.0 ** 1020],
                                     ids=["2^1018", "2^1020"])

    @staticmethod
    def unit_and_scaled(tmp_path, capsys, argv, scale):
        x = np.random.default_rng(0).normal(size=(200, 5)) + 0.2
        return [run_json(argv, write_csv(tmp_path / name, m), capsys)
                for name, m in (("unit.csv", x), ("scaled.csv", x * scale))]

    @SCALES
    @pytest.mark.parametrize("method", ["sn1", "mb1"])
    def test_test_keeps_the_unit_scale_decision(self, tmp_path, capsys, method, scale):
        unit, scaled = self.unit_and_scaled(tmp_path, capsys, ["test", "--method", method], scale)
        assert unit["reject"] is True
        assert scaled["reject"] is True
        for key in ("statistic", "critical_value"):
            assert isinstance(scaled[key], float)
            assert abs(scaled[key] - unit[key]) <= 1e-9 * abs(unit[key])

    @SCALES
    def test_diagnose_keeps_the_unit_scale_values(self, tmp_path, capsys, scale):
        unit, scaled = self.unit_and_scaled(tmp_path, capsys, ["diagnose"], scale)
        for key in ("m3", "m4", "bn"):
            assert isinstance(scaled[key], float)
            assert abs(scaled[key] - unit[key]) <= 1e-9 * abs(unit[key])

    def test_bmb_scales_with_the_data(self, tmp_path, capsys):
        # not studentized: statistic and cutoff carry the scale
        scale = 2.0 ** 1018
        unit, scaled = self.unit_and_scaled(tmp_path, capsys, ["bmb"], scale)
        assert scaled["reject"] == unit["reject"]
        for key in ("statistic", "critical_value"):
            assert isinstance(scaled[key], float)
            assert abs(scaled[key] - scale * unit[key]) <= 1e-9 * scale * abs(unit[key])

    def test_bmb_at_the_top_of_the_range_is_the_unit_scale_times_the_scale(self, tmp_path, capsys):
        # the weighted block sums of the unscaled sample overflow at 2^1020
        scale = 2.0 ** 1020
        unit, scaled = self.unit_and_scaled(tmp_path, capsys, ["bmb"], scale)
        assert scaled["reject"] == unit["reject"]
        # the printed values carry 12 digits; the library's carry every bit
        x = np.random.default_rng(0).normal(size=(200, 5)) + 0.2
        plan = momentineq.make_blocks(200, *momentineq.default_block_lengths(200))
        a, b = (momentineq.bmb_test(m, plan, 0.05, 1000, momentineq.SeededStream(0))
                for m in (x, x * scale))
        assert b.reject == a.reject
        assert b.statistic == scale * a.statistic
        assert b.critical_value == scale * a.critical_value


class TestSpanningColumn:
    """A column spanning the float range in both signs: its deviations overflow unscaled."""

    @staticmethod
    def sample():
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 3))
        sign = np.where(np.arange(100) < 20, 1.0, -1.0)
        x[:, 1] = sign * 1.6e308 * rng.uniform(0.9, 1.0, size=100)
        return x

    def run(self, tmp_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_json(argv, write_csv(tmp_path / "span.csv", self.sample()), capsys)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        return out

    def test_test_gives_a_finite_statistic(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, ["test", "--method", "sn1"])
        assert isinstance(out["statistic"], float) and math.isfinite(out["statistic"])
        assert isinstance(out["critical_value"], float)
        assert out["reject"] is (out["statistic"] > out["critical_value"])

    def test_diagnose_gives_finite_values(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, ["diagnose"])
        for key in ("m3", "m4", "bn"):
            assert isinstance(out[key], float) and math.isfinite(out[key])


@pytest.mark.parametrize("argv", [
    ["test", "--method", "mb1"],
    ["bmb", "--reps", "200"],
])
def test_each_command_summarizes_once(tmp_path, monkeypatch, argv):
    import momentineq.core as core

    path = write_csv(tmp_path / "x.csv", np.random.default_rng(8).normal(size=(120, 4)))
    calls = []
    original = core.summarize

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name in ("core", "bootstrap", "dependent"):
        monkeypatch.setattr(f"momentineq.{name}.summarize", counted)
    assert main(argv[:1] + ["--input", path] + argv[1:]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["test", "--method", "mb1", "--reps", "200"],
    ["bmb", "--reps", "200"],
])
def test_non_finite_cutoff_is_precondition_error(tmp_path, monkeypatch, capsys, argv):
    # forced here; an overflowing sample can produce the same NaN quantile
    for name in ("bootstrap", "dependent"):
        monkeypatch.setattr(f"momentineq.{name}._quantile", lambda values, level: math.nan)
    path = write_csv(tmp_path / "x.csv", np.random.default_rng(9).normal(size=(120, 4)))
    assert main(argv[:1] + ["--input", path] + argv[1:]) == 3
    assert "critical value must be finite" in capsys.readouterr().err


NOT_UTF8 = b"1,2\n3,\xff4\n"


@pytest.mark.parametrize("argv", [["diagnose"], ["test", "--method", "sn1"]])
def test_non_utf8_file_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "latin.csv"
    path.write_bytes(NOT_UTF8)
    assert main(argv[:1] + ["--input", str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"momentineq: input error: {path}: not utf-8 text")
    assert err.count("\n") == 1


# ``--out`` cases that cannot be written, by the reason the CLI names
UNWRITABLE = ["no directory", "not a writable file"]


def refuse(*args, **kwargs):
    raise AssertionError("the work ran before the output was checked")


def unwritable_out(tmp_path, monkeypatch, where):
    """An ``--out`` path that cannot be written, for the reason ``where``."""
    if where == "no directory":
        return str(tmp_path / "missing" / "x.csv")
    # root may write anywhere, so the denial is simulated for the one folder
    folder = tmp_path / "locked"
    folder.mkdir()
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        path != str(folder) and access(path, mode)))
    return str(folder / "x.csv")


class TestCmdMc:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        rc = main(["mc", "--design", "1", "--n", "60", "--p", "4", "--rho", "0.0",
                   "--dist", "uniform", "--sims", "20", "--reps", "200",
                   "--methods", "sn1,mb1", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert [r["method"] for r in rows] == ["sn1", "mb1"]
        for r in rows:
            rate = float(r["rejection_rate"])
            assert 0.0 <= rate <= 1.0
            assert int(r["sims"]) == 20
            # full printed precision round-trips
            assert format(rate, ".12g") == r["rejection_rate"]
        sidecar = json.loads((tmp_path / "rates.json").read_text())
        assert sidecar["methods"] == ["sn1", "mb1"]
        assert sidecar["design"] == 1

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        outs, used = [], []
        for threads, name in ((["--threads", "1"], "a"), (["--threads", "3"], "b"),
                              ([], "c")):
            out = tmp_path / f"{name}.csv"
            rc = main(["mc", "--design", "2", "--n", "50", "--p", "5",
                       "--dist", "t4", "--sims", "16", "--reps", "150",
                       "--methods", "sn2,eb1", "--seed", "11",
                       *threads, "--out", str(out)])
            assert rc == 0
            outs.append(out.read_text())
            used.append(json.loads((tmp_path / f"{name}.json").read_text())["threads"])
        assert outs[0] == outs[1] == outs[2]
        # the sidecar records the count that ran: every usable core by default
        assert used[:2] == [1, 3]
        assert type(used[2]) is int and used[2] == min(bootstrap._PASS_WORKERS, 16)

    def test_zero_sims_is_usage_error(self, tmp_path, capsys):
        rc = main(["mc", "--design", "1", "--p", "4", "--sims", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 64

    def test_invalid_design_is_usage_error(self, tmp_path, capsys):
        rc = main(["mc", "--design", "12", "--p", "4", "--sims", "5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 64

    def test_invalid_dist_is_usage_error(self, tmp_path, capsys):
        rc = main(["mc", "--design", "1", "--p", "4", "--dist", "cauchy",
                   "--sims", "5", "--out", str(tmp_path / "x.csv")])
        assert rc == 64

    def test_repeated_method_is_usage_error_before_any_replication(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_mc", refuse)
        out = tmp_path / "x.csv"
        rc = main(["mc", "--design", "1", "--p", "4", "--sims", "5",
                   "--methods", "mb1,MB1", "--out", str(out)])
        assert rc == 64
        assert "method 'mb1' is listed more than once" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", UNWRITABLE)
    def test_unwritable_out_is_input_error_before_any_replication(
            self, tmp_path, monkeypatch, capsys, where):
        monkeypatch.setattr(cli, "run_mc", refuse)
        out = unwritable_out(tmp_path, monkeypatch, where)
        before = sorted(tmp_path.rglob("*"))
        rc = main(["mc", "--design", "1", "--p", "20", "--n", "100", "--sims", "200",
                   "--out", out])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"momentineq: input error: cannot write {out}: {where}")
        assert sorted(tmp_path.rglob("*")) == before

    def test_sidecar_that_cannot_be_written_is_refused_before_any_replication(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_mc", refuse)
        (tmp_path / "rates.json").mkdir()
        assert main(["mc", "--design", "1", "--p", "4", "--sims", "5",
                     "--out", str(tmp_path / "rates.csv")]) == 2
        assert not (tmp_path / "rates.csv").exists()


class TestCmdInvert:
    def make_grid(self, tmp_path, xi, thetas):
        gdir = tmp_path / "grid"
        gdir.mkdir()
        with open(gdir / "grid.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            for i, t in enumerate(thetas):
                w.writerow([f"t{i}", repr(float(t))])
        for i, t in enumerate(thetas):
            write_csv(gdir / f"point_t{i}.csv", (xi - t)[:, None])
        return gdir

    def test_location_model_half_line(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        xi = rng.normal(loc=0.5, size=50)
        thetas = np.linspace(-1.0, 2.0, 13)
        gdir = self.make_grid(tmp_path, xi, thetas)
        out = tmp_path / "region.csv"
        rc = main(["invert", "--grid", str(gdir), "--method", "sn1",
                   "--alpha", "0.05", "--out", str(out)])
        assert rc == 0
        rows = {r["label"]: r for r in csv.DictReader(open(out))}
        c = sn_one_step(0.05, 1, 50)
        sd = momentineq.summarize(xi[:, None]).sds[0]
        boundary = xi.mean() - c * sd / math.sqrt(50)
        for i, t in enumerate(thetas):
            assert (rows[f"t{i}"]["accepted"] == "true") == (t >= boundary)

    def test_empty_grid_is_ok(self, tmp_path, capsys):
        gdir = tmp_path / "grid"
        gdir.mkdir()
        (gdir / "grid.csv").write_text("")
        out = tmp_path / "region.csv"
        assert main(["invert", "--grid", str(gdir), "--method", "sn1",
                     "--out", str(out)]) == 0
        assert list(csv.DictReader(open(out))) == []

    def test_missing_point_file_is_input_error(self, tmp_path, capsys):
        gdir = tmp_path / "grid"
        gdir.mkdir()
        (gdir / "grid.csv").write_text("a,0.0\n")
        assert main(["invert", "--grid", str(gdir), "--method", "sn1",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_non_utf8_grid_is_input_error(self, tmp_path, capsys):
        gdir = tmp_path / "grid"
        gdir.mkdir()
        (gdir / "grid.csv").write_bytes(b"a,0.0\nb,\xff1.0\n")
        assert main(["invert", "--grid", str(gdir), "--method", "sn1",
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"momentineq: input error: {gdir / 'grid.csv'}: not utf-8 text")

    def test_inconsistent_n_is_input_error(self, tmp_path, capsys):
        gdir = tmp_path / "grid"
        gdir.mkdir()
        (gdir / "grid.csv").write_text("a,0.0\nb,1.0\n")
        rng = np.random.default_rng(0)
        write_csv(gdir / "point_a.csv", rng.normal(size=(10, 1)))
        write_csv(gdir / "point_b.csv", rng.normal(size=(12, 1)))
        assert main(["invert", "--grid", str(gdir), "--method", "sn1",
                     "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("where", UNWRITABLE)
    def test_unwritable_out_is_input_error_before_any_grid_point(
            self, tmp_path, monkeypatch, capsys, where):
        monkeypatch.setattr(cli, "invert_region", refuse)
        gdir = self.make_grid(tmp_path, np.arange(10.0), [0.0, 1.0])
        out = unwritable_out(tmp_path, monkeypatch, where)
        before = sorted(tmp_path.rglob("*"))
        assert main(["invert", "--grid", str(gdir), "--method", "sn1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"momentineq: input error: cannot write {out}: {where}")
        assert sorted(tmp_path.rglob("*")) == before

    def test_directory_as_out_is_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "invert_region", refuse)
        gdir = self.make_grid(tmp_path, np.arange(10.0), [0.0])
        assert main(["invert", "--grid", str(gdir), "--method", "sn1",
                     "--out", str(gdir)]) == 2
        assert capsys.readouterr().err.endswith(": not a writable file\n")


class TestCmdThreestep:
    def test_happy_path_emits_sets(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        n, p, r = 60, 3, 2
        g = rng.normal(size=(n, p))
        v = rng.normal(size=(n, p * r)) + 5.0
        gp = write_csv(tmp_path / "g.csv", g)
        vp = write_csv(tmp_path / "v.csv", v)
        rc = main(["threestep", "--g", gp, "--v", vp, "--r", "2",
                   "--alpha", "0.05", "--beta", "0.001", "--seed", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["J_prime"] == [1, 2, 3]
        assert payload["J_dprime"] == [1, 2, 3]
        assert set(payload) >= {"statistic", "critical_value", "reject", "J"}

    def test_sets_come_from_the_one_test_run(self, tmp_path, capsys, monkeypatch):
        import momentineq.threestep as threestep

        rng = np.random.default_rng(33)
        gp = write_csv(tmp_path / "g.csv", rng.normal(size=(60, 3)))
        vp = write_csv(tmp_path / "v.csv", rng.normal(size=(60, 6)) + 1.0)
        calls = {"_sets": 0}

        def counted(name):
            original = getattr(threestep, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(threestep, name, counted(name))
        assert main(["threestep", "--g", gp, "--v", vp, "--r", "2", "--seed", "4"]) == 0
        assert calls == {"_sets": 1}
        payload = json.loads(capsys.readouterr().out)
        assert payload["J_prime"] == [1, 2, 3]

    def test_shape_mismatch_is_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(32)
        gp = write_csv(tmp_path / "g.csv", rng.normal(size=(30, 3)))
        vp = write_csv(tmp_path / "v.csv", rng.normal(size=(30, 5)))
        assert main(["threestep", "--g", gp, "--v", vp, "--r", "2"]) == 2

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_r_below_one_is_usage_error_before_any_file_is_read(self, tmp_path, capsys, r):
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main(["threestep", "--g", missing, "--v", missing, "--r", r])
        assert exc.value.code == 64
        assert "--r" in capsys.readouterr().err


class TestCmdBmb:
    def test_happy_path(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        path = write_csv(tmp_path / "x.csv", rng.normal(size=(120, 4)))
        rc = main(["bmb", "--input", path, "--q", "10", "--r", "2",
                   "--alpha", "0.05", "--reps", "300", "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "bmb"
        assert payload["m"] == 10
        assert isinstance(payload["reject"], bool)

    def test_default_block_lengths_used(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        path = write_csv(tmp_path / "x.csv", rng.normal(size=(400, 3)))
        assert main(["bmb", "--input", path, "--reps", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["q"], payload["r"]) == (7, 2)

    def test_alpha_outside_the_test_sizes_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(44)
        path = write_csv(tmp_path / "x.csv", rng.normal(size=(120, 4)))
        assert main(["bmb", "--input", path, "--alpha", "0.9", "--reps", "200"]) == 64
        assert "alpha" in capsys.readouterr().err

    def test_beta_is_not_a_bmb_flag(self, tmp_path, capsys):
        path = write_csv(tmp_path / "x.csv", np.random.default_rng(45).normal(size=(120, 4)))
        with pytest.raises(SystemExit) as exc:
            main(["bmb", "--input", path, "--beta", "0.3"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("flag", ["--q", "--r"])
    def test_block_length_below_one_is_usage_error_before_any_file_is_read(
            self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bmb", "--input", str(tmp_path / "missing.csv"), flag, "0"])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert flag in err
        assert len([line for line in err.splitlines() if "error" in line]) == 1

    def test_infeasible_blocks_are_precondition_error(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        path = write_csv(tmp_path / "x.csv", rng.normal(size=(30, 2)))
        assert main(["bmb", "--input", path, "--q", "20", "--r", "5"]) == 3

    def test_cutoff_past_the_float_range_is_precondition_error(self, tmp_path, capsys):
        col = np.tile([1.5e308, 1.5e308, -1.5e308, -1.5e308], 50)
        path = write_csv(tmp_path / "big.csv", np.column_stack([col, col, col]))
        assert main(["bmb", "--input", path, "--q", "2", "--r", "1"]) == 3
        assert "critical value must be finite" in capsys.readouterr().err


class TestCmdDiagnose:
    def test_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(40, 3))
        path = write_csv(tmp_path / "x.csv", x)
        assert main(["diagnose", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        d = momentineq.regularity_diagnostics(x)
        assert abs(payload["m3"] - d.m3) <= 1e-9
        assert abs(payload["bn"] - d.bn) <= 1e-9

    def test_degenerate_is_exit_3(self, tmp_path, capsys):
        path = write_csv(tmp_path / "x.csv", np.ones((10, 2)))
        assert main(["diagnose", "--input", path]) == 3


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        rng = np.random.default_rng(61)
        path = write_csv(tmp_path / "x.csv", rng.normal(size=(30, 2)))
        proc = subprocess.run(
            [sys.executable, "-m", "momentineq", "test", "--input", path,
             "--method", "sn1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "sn1"


def reference_read_matrix(path, header=False):
    """The csv.reader + float() loop that read every matrix before numpy's C
    reader took the common case; read_matrix must agree with it exactly."""
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
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
    return as_sample_matrix(np.asarray(rows, dtype=np.float64))


def _is_float(v):
    try:
        float(v)
        return True
    except ValueError:
        return False


def outcome(read, path, header):
    """Bytes, dtype and shape of the matrix read, or the error type and message."""
    try:
        x = read(path, header)
    except Exception as exc:  # the oracle's own exceptions are the expectation
        return type(exc), str(exc)
    return x.dtype, x.shape, x.tobytes()


def write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return str(path)


EDGE_FILES = {
    "plain": "1,2\n3,4\n",
    "cr": "1,2\r3,4\r",
    "crlf": "1,2\r\n3,4\r\n",
    "mixed-newlines": "1,2\r\n3,4\n5,6\r",
    "no-final-newline": "1,2\n3,4",
    "blank-lines": "1,2\n\n3,4\n\n",
    "blank-first-line": "\n1,2\n3,4\n",
    "whitespace-line": "1,2\n  \t\n3,4\n",
    "whitespace-line-one-column": "1\n \n3\n",
    "form-feed-line": "1,2\n\x0c\n3,4\n",
    "quoted": '"1","2"\n3,4\n',
    "quoted-comma": '"1,5",2\n3,4\n',
    "hash-line": "# note\n1,2\n3,4\n",
    "hash-inline": "1,2 # note\n3,4\n",
    "trailing-comma": "1,2,\n3,4,\n",
    "empty-field": "1,,2\n3,4,5\n",
    "unequal-rows": "1,2\n3,4,5\n",
    "empty": "",
    "header-only": "a,b\n",
    "blank-only": "\n\n \n",
    "text-header": "a,b\n1,2\n3,4\n",
    "blank-then-header": "\na,b\n1,2\n3,4\n",
    "quoted-newline-header": '"a\nb",c\n1,2\n3,4\n',
    "not-a-number": "1,2\n3,oops\n",
    "padded": " 1 , 2 \n3\t,4\n",
    "nbsp": "\xa01,2\n3,4\xa0\n",
    "underscores": "1_0,2\n3,4\n",
    "non-ascii-digits": "\u0661,2\n3,\u0664\n",
    "signs-and-dots": "+1e5,-0\n.5,5.\n",
    "nan": "nan,1\n2,3\n",
    "inf": "1,-Infinity\n2,3\n",
    "overflow": "1e309,1\n2,3\n",
    "subnormals": "5e-324,2.2250738585072014e-308\n4.9e-324,-1e-310\n",
    "largest": "1.7976931348623157e308,-1.7976931348623157e308\n1,2\n",
    "seventeen-digits": "0.10000000000000001,2.9999999999999996\n1e-5,123456789012345678\n",
    "single-row": "1,2,3\n",
    "single-column": "1\n2\n3\n",
    "single-value": "1\n",
}


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_read_matrix_matches_the_row_loop(tmp_path, name, header):
    path = write_text(tmp_path / "m.csv", EDGE_FILES[name])
    assert outcome(read_matrix, path, header) == outcome(reference_read_matrix, path, header)


TOKENS = st.one_of(
    st.sampled_from([
        "0", "1", "-2.5", "1e309", "5e-324", "1.7976931348623157e308", "nan",
        "-inf", "Infinity", " 3 ", "\xa04", "1_0", "\u0661", '"7"', "", "#",
        "x", "1e", ".", "+.5", "0x10",
    ]),
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
)
LINES = st.one_of(
    st.lists(TOKENS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", "a,b"]),
)
TEXTS = st.tuples(
    st.lists(LINES, max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


@settings(max_examples=300, deadline=None)
@given(text=TEXTS, header=st.booleans())
def test_read_matrix_matches_the_row_loop_on_generated_csv(tmp_path_factory, text, header):
    path = write_text(tmp_path_factory.getbasetemp() / "generated.csv", text)
    assert outcome(read_matrix, path, header) == outcome(reference_read_matrix, path, header)


COMMANDS = st.sampled_from([
    ["test", "--method", "sn1"],
    ["test", "--method", "mb1", "--reps", "200"],
    ["diagnose"],
])


@settings(max_examples=200, deadline=None)
@given(text=TEXTS, header=st.booleans(), command=COMMANDS)
def test_generated_csv_exits_with_a_contract_code_and_one_line(tmp_path_factory, text, header,
                                                               command):
    # 0 success, 2 input error, 3 unmet precondition, 64 usage error; a failure
    # says one line on stderr, never a traceback
    path = write_text(tmp_path_factory.getbasetemp() / "generated-main.csv", text)
    argv = command + ["--input", path] + (["--header"] if header else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    message = err.getvalue()
    assert rc in (0, 2, 3, 64), (rc, message)
    assert message.count("\n") <= 1 and "Traceback" not in message, message
    if rc == 0:
        assert message == ""
        json.loads(out.getvalue())


class TestReadMatrixFastPath:
    @pytest.fixture(autouse=True)
    def no_row_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ordinary file read by the row loop")

        monkeypatch.setattr(cli, "_read_rows", refuse)

    @pytest.fixture
    def matrix(self):
        x = np.random.default_rng(12).normal(size=(40, 300)) * 10.0 ** np.arange(-150, 150)
        x[0, :3] = [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        return x

    def test_savetxt_file(self, tmp_path, matrix):
        path = tmp_path / "m.csv"
        np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
        assert read_matrix(str(path)).tobytes() == matrix.tobytes()

    def test_repr_file(self, tmp_path, matrix):
        path = write_csv(tmp_path / "m.csv", matrix)
        assert read_matrix(path).tobytes() == matrix.tobytes()

    def test_header_file(self, tmp_path, matrix):
        path = write_csv(tmp_path / "m.csv", matrix, header=[f"c{j}" for j in range(300)])
        x = read_matrix(path, header=True)
        assert x.shape == matrix.shape and x.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank-only"])
def test_no_rows_is_an_input_error_without_warnings(tmp_path, text):
    path = write_text(tmp_path / "m.csv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="no data rows"):
            read_matrix(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("text", ["1,2\n3,4\n", "1,2\n3,oops\n"], ids=["good", "bad"])
def test_pipe_input_is_read_by_the_row_loop(tmp_path, text):
    # a pipe cannot be rewound, so it never tries numpy's reader first
    pipe = str(tmp_path / "pipe.csv")
    os.mkfifo(pipe)
    twin = write_text(tmp_path / "file.csv", text)

    def feed():
        with open(pipe, "w", newline="") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = outcome(read_matrix, pipe, False)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    expected = outcome(reference_read_matrix, twin, False)
    assert got == tuple(v.replace(twin, pipe) if isinstance(v, str) else v for v in expected)
