"""End-to-end command-line checks, run in-process except for one
subprocess test of the installed entry point."""

import csv
import filecmp
import math
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pseudosurv import cli, fit_pch, interval_dataset, km_fit, km_pseudo_survival, save_dataset
from pseudosurv.cli import main
from pseudosurv.gee import fit_gee, wald_table
from pseudosurv.jackknife import jackknife_pch
from pseudosurv.pch import CutGrid, evaluate
from pseudosurv.simulate import ScenarioConfig, generate


@pytest.fixture()
def rc_csv(tmp_path):
    ds = generate(ScenarioConfig("rc", n=40, seed=1))
    path = tmp_path / "rc.csv"
    save_dataset(ds, path)
    return path, ds


@pytest.fixture()
def ic_csv(tmp_path):
    ds = generate(ScenarioConfig("ic1", n=60, seed=2))
    path = tmp_path / "ic.csv"
    save_dataset(ds, path)
    return path, ds


def _parse_pseudo(text):
    lines = text.strip().split("\n")
    assert lines[0] == "id,pseudo"
    ids = [int(row.split(",")[0]) for row in lines[1:]]
    values = np.array([float(row.split(",")[1]) for row in lines[1:]])
    return ids, values


def test_pseudo_rc_stdout_matches_library(rc_csv, capsys):
    path, ds = rc_csv
    code = main(["pseudo", "--data", str(path), "--kind", "rc",
                 "--target", "surv", "--t", "4.0"])
    assert code == 0
    ids, values = _parse_pseudo(capsys.readouterr().out)
    assert ids == list(range(1, 41))
    expected = km_pseudo_survival(km_fit(ds), 4.0).values
    np.testing.assert_allclose(values, expected, atol=1e-9)


def test_pseudo_output_files_are_reproducible(rc_csv, tmp_path):
    path, _ = rc_csv
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        args = ["pseudo", "--data", str(path), "--kind", "rc",
                "--target", "rmst", "--tau", "5.0", "--out", str(out)]
        assert main(args) == 0
    assert filecmp.cmp(out1, out2, shallow=False)


def _pseudo_reference(values):
    """The pseudo output formatted row by row."""
    return "id,pseudo\n" + "".join(
        f"{i},{v:.12g}\n" for i, v in enumerate(values.tolist(), start=1)
    )


def _curve_reference(header, *columns):
    """A curve CSV formatted row by row."""
    rows = [",".join(f"{x:.12g}" for x in row) for row in zip(*columns)]
    return "\n".join([header] + rows) + "\n"


def test_csv_writer_is_byte_identical_to_row_by_row_formatting():
    # more than two pieces, with the awkward floats at both ends and
    # across the first piece boundary
    n = 140_000
    awkward = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1 / 3]
    values = np.random.default_rng(3).normal(0.0, 1e3, (n, 2))
    for rows in (slice(0, 7), slice(cli._CSV_ROWS - 3, cli._CSV_ROWS + 4), slice(n - 7, n)):
        values[rows, 0] = awkward
        values[rows, 1] = awkward[::-1]
    pseudo = "".join(cli._csv("id,pseudo\n", "%d,%.12g\n", np.arange(1, n + 1), values[:, 0]))
    assert pseudo == _pseudo_reference(values[:, 0])
    curve = "".join(cli._csv("t,survival\n", "%.12g,%.12g\n", values[:, 0], values[:, 1]))
    assert curve == _curve_reference("t,survival", values[:, 0], values[:, 1])


def test_pseudo_rc_outputs_are_byte_identical_to_row_by_row_formatting(
    rc_csv, tmp_path, monkeypatch
):
    path, ds = rc_csv
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)  # several pieces from a small sample
    out, curve = tmp_path / "pseudo.csv", tmp_path / "curve.csv"
    assert main(["pseudo", "--data", str(path), "--kind", "rc", "--target", "surv",
                 "--t", "4.0", "--out", str(out), "--curve-out", str(curve)]) == 0
    km = km_fit(ds)
    assert out.read_bytes() == _pseudo_reference(km_pseudo_survival(km, 4.0).values).encode()
    assert curve.read_bytes() == _curve_reference("t,survival", *km.survival_curve()).encode()


def test_pseudo_jackknife_output_writes_a_flagged_nan(tmp_path, capsys, monkeypatch):
    # index 6 holds the only finite bracket touching the second piece, so
    # its leave-one-out refit fails
    ds = interval_dataset([0.2] * 6 + [1.2] + [2.0, 2.0], [0.8] * 6 + [1.8] + [math.inf] * 2)
    path, curve = tmp_path / "ic.csv", tmp_path / "curve.csv"
    save_dataset(ds, path)
    monkeypatch.setattr(cli, "_CSV_ROWS", 4)
    assert main(["pseudo", "--data", str(path), "--kind", "ic", "--target", "surv",
                 "--t", "1.5", "--cuts", "1.0", "--method", "jackknife",
                 "--curve-out", str(curve)]) == 0
    captured = capsys.readouterr()
    assert "1 leave-one-out refits failed" in captured.err
    grid = CutGrid((1.0,))
    expected = jackknife_pch(ds, grid, "survival", 1.5).values
    assert math.isnan(expected[6])
    assert captured.out == _pseudo_reference(expected)
    t = np.linspace(0.0, 1.5, 201)
    hazard, _, survival = evaluate(fit_pch(ds, grid).model, t)
    assert curve.read_bytes() == _curve_reference(
        "t,survival,hazard", t, survival, hazard
    ).encode()


def test_pseudo_ic_both_methods_match_library(ic_csv, tmp_path, capsys):
    path, ds = ic_csv
    cuts = "4,5,6,7"
    assert main(["pseudo", "--data", str(path), "--kind", "ic", "--target",
                 "rmst", "--tau", "8.0", "--cuts", cuts]) == 0
    _, fast = _parse_pseudo(capsys.readouterr().out)
    assert main(["pseudo", "--data", str(path), "--kind", "ic", "--target",
                 "rmst", "--tau", "8.0", "--cuts", cuts,
                 "--method", "jackknife"]) == 0
    _, jack = _parse_pseudo(capsys.readouterr().out)
    expected = jackknife_pch(ds, CutGrid((4.0, 5.0, 6.0, 7.0)), "rmst", 8.0)
    np.testing.assert_allclose(jack, expected.values, atol=1e-9)
    assert np.max(np.abs(fast - jack)) < 1.0
    assert fast.mean() == pytest.approx(jack.mean(), abs=0.01)


def test_pseudo_ic_unrestricted_mean_allowed(ic_csv, capsys):
    path, _ = ic_csv
    assert main(["pseudo", "--data", str(path), "--kind", "ic", "--target",
                 "rmst", "--tau", "inf", "--cuts", "4,5,6,7"]) == 0
    _, values = _parse_pseudo(capsys.readouterr().out)
    assert np.all(np.isfinite(values))


def test_usage_errors_exit_2(rc_csv, ic_csv, capsys, tmp_path):
    rc_path, _ = rc_csv
    ic_path, _ = ic_csv
    cases = [
        # survival target without an evaluation time
        ["pseudo", "--data", str(rc_path), "--kind", "rc", "--target", "surv"],
        # interval kind without cuts
        ["pseudo", "--data", str(ic_path), "--kind", "ic",
         "--target", "surv", "--t", "5.0"],
        # unrestricted mean unsupported for the product-limit estimator
        ["pseudo", "--data", str(rc_path), "--kind", "rc",
         "--target", "rmst", "--tau", "inf"],
        # unparseable tau
        ["pseudo", "--data", str(rc_path), "--kind", "rc",
         "--target", "rmst", "--tau", "soon"],
        # missing input file
        ["pseudo", "--data", str(tmp_path / "nope.csv"), "--kind", "rc",
         "--target", "surv", "--t", "1.0"],
    ]
    for args in cases:
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error:usage:"), args


def test_unknown_choice_exits_2(rc_csv):
    path, _ = rc_csv
    with pytest.raises(SystemExit) as excinfo:
        main(["pseudo", "--data", str(path), "--kind", "xx",
              "--target", "surv", "--t", "1.0"])
    assert excinfo.value.code == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    rows = [("left", "right"), ("0.5", "0.8"), ("2.0", "inf")]
    path = tmp_path / "thin.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    code = main(["fit", "--data", str(path), "--cuts", "1.0", "--strict"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:NonIdentifiable:")


def test_fit_report_and_curve(ic_csv, tmp_path, capsys):
    path, _ = ic_csv
    curve = tmp_path / "curve.csv"
    assert main(["fit", "--data", str(path), "--cuts", "4,5,6,7",
                 "--curve-out", str(curve)]) == 0
    report = capsys.readouterr().out
    assert report.startswith("pieces: 5 (cuts: 4,5,6,7)")
    assert "rates: " in report
    assert "loglik: " in report
    assert "conditions: all pieces identifiable" in report
    lines = curve.read_text().strip().split("\n")
    assert lines[0] == "t,survival,hazard"
    assert len(lines) == 202
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_regress_round_trip(rc_csv, tmp_path, capsys):
    path, ds = rc_csv
    pseudo_path = tmp_path / "pv.csv"
    assert main(["pseudo", "--data", str(path), "--kind", "rc", "--target",
                 "rmst", "--tau", "5.0", "--out", str(pseudo_path)]) == 0
    cov_path = tmp_path / "design.csv"
    Z = ds.covariates[:, 1:]  # drop the saved intercept column
    with open(cov_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["z1_only", "z2_only", "z1_and_z2"])
        writer.writerows([[f"{v:g}" for v in row] for row in Z])
    assert main(["regress", "--pseudo", str(pseudo_path), "--covariates",
                 str(cov_path), "--intercept"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "coefficient,estimate,se,z,p"
    assert [row.split(",")[0] for row in out[1:]] == [
        "intercept", "z1_only", "z2_only", "z1_and_z2"
    ]
    est = np.array([float(row.split(",")[1]) for row in out[1:]])
    y = np.loadtxt(pseudo_path, delimiter=",", skiprows=1)[:, 1]
    ols, *_ = np.linalg.lstsq(np.column_stack([np.ones(40), Z]), y, rcond=None)
    np.testing.assert_allclose(est, ols, atol=1e-8)


def test_regress_shape_mismatch_exits_2(rc_csv, tmp_path, capsys):
    path, _ = rc_csv
    pseudo_path = tmp_path / "pv.csv"
    main(["pseudo", "--data", str(path), "--kind", "rc", "--target",
          "rmst", "--tau", "5.0", "--out", str(pseudo_path)])
    bad = tmp_path / "short.csv"
    with open(bad, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["z"])
        writer.writerows([["1.0"], ["0.0"]])
    assert main(["regress", "--pseudo", str(pseudo_path),
                 "--covariates", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")


_PV = "id,pseudo\n1,0.5\n2,1.25\n3,2\n4,3.5\n5,1000\n6,-0.75\n"
_COV = "z1,z2\n0,1\n1,0\n1,1\n0,0\n1,0.5\n0,2\n"


def _regress(tmp_path, pseudo_text, cov_text):
    pseudo, cov = tmp_path / "pv.csv", tmp_path / "cov.csv"
    pseudo.write_bytes(pseudo_text.encode())
    cov.write_bytes(cov_text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["regress", "--pseudo", str(pseudo), "--covariates", str(cov),
                     "--intercept"])


@pytest.mark.parametrize("pseudo_text, cov_text", [
    (_PV, _COV),
    ('"id","pseudo"\n"1","0.5"\n2,"1.25"\n3,2\n4,3.5\n5,"1000"\n6,-0.75\n',
     '"z1","z2"\n"0","1"\n1,0\n1,1\n0,0\n"1","0.5"\n0,2\n'),
    ("id,pseudo\n1, 0.5\n2 ,1.25 \n3,  2\n4,3.5\n5,1000\n6,\t-0.75\n",
     "z1,z2\n 0 ,1\n1,0 \n1,1\n0,0\n1,0.5\n0,2\n"),
    (_PV.replace("\n", "\r\n"), _COV.replace("\n", "\r\n")),
    (_PV.replace("\n", "\r"), _COV.replace("\n", "\r")),
    ("\n" + _PV.replace("\n", "\n\n"), "\n\n" + _COV.replace("\n", "\r\n\r\n")),
    ("id,pseudo\na,0.5\nb,1.25\n\"c, d\",2\nd,3.5\ne,1000\nf,-0.75\n", _COV),
    (_PV.replace("1000", "1_000"), _COV.replace("0.5", "0.5_0")),
], ids=["plain", "quoted", "spaces", "crlf", "cr", "blank-lines", "text-id", "underscore"])
def test_regress_reads_each_cell_as_float(pseudo_text, cov_text, tmp_path, capsys):
    assert _regress(tmp_path, pseudo_text, cov_text) == 0
    y = np.array([0.5, 1.25, 2.0, 3.5, 1000.0, -0.75])
    z = np.array([[0, 1], [1, 0], [1, 1], [0, 0], [1, 0.5], [0, 2]], dtype=float)
    fit = fit_gee(y, np.column_stack([np.ones(6), z]))
    assert capsys.readouterr().out == wald_table(fit, ["intercept", "z1", "z2"])


@pytest.mark.parametrize("pseudo_text, cov_text, message", [
    ("", _COV, "expected columns id,pseudo"),
    (_PV, "", "cov.csv: "),
    ("id,pseudo\n", _COV, "error:usage: "),
    (_PV, "z1,z2\n\n", "no data rows"),
    (_PV.replace("3.5", "x"), _COV, "x"),
    (_PV, _COV.replace("0.5", "half"), "half"),
    (_PV, _COV.replace("0,0\n", "0\n"), "cov.csv"),
    (_PV, _COV.replace("0,0\n", "0,0,0\n"), "cov.csv"),
    (_PV.replace("4,3.5\n", "4,3.5\n7,1\n"), _COV, "matching the responses"),
    (_PV.replace("4,3.5\n", "4\n"), _COV, "pv.csv"),
    (_PV, _COV.replace("z1,z2", "z1"), "the header names 1 columns, the rows hold 2"),
    (_PV, _COV.replace("z1,z2", "z1,z2,z3"), "the header names 3 columns, the rows hold 2"),
], ids=["empty-pseudo", "empty-covariates", "header-only-pseudo", "header-only-covariates",
        "bad-pseudo-cell", "bad-covariate-cell", "short-row", "long-row", "row-counts",
        "no-pseudo-cell", "header-names-fewer", "header-names-more"])
def test_regress_input_errors_exit_2(pseudo_text, cov_text, message, tmp_path, capsys):
    assert _regress(tmp_path, pseudo_text, cov_text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("pseudo_text, cov_text, message", [
    (_PV.replace("3.5", "x"), _COV, "pv.csv: line 5, column 2: cannot parse 'x' as a number"),
    ("\n" + _PV.replace("3.5", "x").replace("\n", "\n\n"), _COV,
     "pv.csv: line 10, column 2: cannot parse 'x' as a number"),
    (_PV, _COV.replace("0.5", "half"), "cov.csv: line 6, column 2: cannot parse 'half'"),
    (_PV, _COV.replace("0,0\n", "0\n"), "cov.csv: line 5: expected 2 cells, got 1"),
    (_PV, "\n" + _COV.replace("0,0\n", "0,0,0\n").replace("\n", "\r\n\r\n"),
     "cov.csv: line 10: expected 2 cells, got 3"),
    (_PV.replace("4,3.5\n", "4\n"), _COV, "pv.csv: line 5: expected at least 2 cells, got 1"),
], ids=["bad-cell", "bad-cell-after-blank-lines", "bad-covariate-cell", "short-row",
        "long-row-after-blank-lines", "no-pseudo-cell"])
def test_regress_errors_name_the_file_line(pseudo_text, cov_text, message, tmp_path, capsys):
    """Lines count from 1 in the file, header and blank lines included."""
    assert _regress(tmp_path, pseudo_text, cov_text) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "usecols" not in err


def test_simulate_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["simulate", "--scenario", "rc", "--n", "50", "--reps",
                     "3", "--method", "fast", "--seed", "5",
                     "--out", str(out)]) == 0
        assert "replications used" in capsys.readouterr().out
        outs.append(out)
    assert filecmp.cmp(*outs, shallow=False)
    header = outs[0].read_text().split("\n")[0]
    assert header.startswith("# scenario=rc method=fast")


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--scenario", "rc", "--n", "150", "--repeat", "1",
                 "--out", str(out)]) == 0
    assert "ratio (jackknife / fast)" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scenario,n,target,tau,fast_seconds,jackknife_seconds,ratio"
    assert lines[1].startswith("rc,150,rmst,6,")


def test_installed_entry_point(rc_csv):
    exe = shutil.which("pseudosurv")
    assert exe is not None, "console script not on PATH"
    path, _ = rc_csv
    proc = subprocess.run(
        [exe, "pseudo", "--data", str(path), "--kind", "rc",
         "--target", "surv", "--t", "4.0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("id,pseudo")
    assert len(proc.stdout.strip().split("\n")) == 41
