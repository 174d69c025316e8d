"""End-to-end command-line checks, run in-process except for the
subprocess tests of a pipe, of a redirected stdout and of the installed
entry point."""

import csv
import filecmp
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pseudosurv import (
    cli, data, fit_pch, interval_dataset, km_fit, km_pseudo_survival, save_dataset, simulate,
)
from pseudosurv.cli import main
from pseudosurv.gee import fit_gee, wald_table
from pseudosurv.jackknife import jackknife_km, jackknife_pch
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
    for rows in (slice(0, 7), slice(data._WRITE_ROWS - 3, data._WRITE_ROWS + 4), slice(n - 7, n)):
        values[rows, 0] = awkward
        values[rows, 1] = awkward[::-1]
    pseudo = "".join(data._csv("id,pseudo\n", "%d,%.12g\n", np.arange(1, n + 1), values[:, 0]))
    assert pseudo == _pseudo_reference(values[:, 0])
    curve = "".join(data._csv("t,survival\n", "%.12g,%.12g\n", values[:, 0], values[:, 1]))
    assert curve == _curve_reference("t,survival", values[:, 0], values[:, 1])


def test_pseudo_rc_outputs_are_byte_identical_to_row_by_row_formatting(
    rc_csv, tmp_path, monkeypatch
):
    path, ds = rc_csv
    monkeypatch.setattr(data, "_WRITE_ROWS", 7)  # several pieces from a small sample
    out, curve = tmp_path / "pseudo.csv", tmp_path / "curve.csv"
    assert main(["pseudo", "--data", str(path), "--kind", "rc", "--target", "surv",
                 "--t", "4.0", "--out", str(out), "--curve-out", str(curve)]) == 0
    km = km_fit(ds)
    assert out.read_bytes() == _pseudo_reference(km_pseudo_survival(km, 4.0).values).encode()
    assert curve.read_bytes() == _curve_reference("t,survival", *km.survival_curve()).encode()
    for target, flags, horizon in (("survival", ["surv", "--t"], 4.0),
                                   ("rmst", ["rmst", "--tau"], 5.0)):
        assert main(["pseudo", "--data", str(path), "--kind", "rc", "--method", "jackknife",
                     "--target", *flags, str(horizon), "--out", str(out)]) == 0
        expected = jackknife_km(ds, target, horizon).values
        assert out.read_bytes() == _pseudo_reference(expected).encode()


def test_pseudo_jackknife_output_writes_a_flagged_nan(tmp_path, capsys, monkeypatch):
    # index 6 holds the only finite bracket touching the second piece, so
    # its leave-one-out refit fails
    ds = interval_dataset([0.2] * 6 + [1.2] + [2.0, 2.0], [0.8] * 6 + [1.8] + [math.inf] * 2)
    path, curve = tmp_path / "ic.csv", tmp_path / "curve.csv"
    save_dataset(ds, path)
    monkeypatch.setattr(data, "_WRITE_ROWS", 4)
    with pytest.warns(UserWarning, match="1 leave-one-out refits failed"):
        assert main(["pseudo", "--data", str(path), "--kind", "ic", "--target", "surv",
                     "--t", "1.5", "--cuts", "1.0", "--method", "jackknife",
                     "--curve-out", str(curve)]) == 0
    captured = capsys.readouterr()
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


_BAD_SCENARIO_CUTS = [
    ("5,4", "cut points must be strictly increasing"),
    ("4,nan", "cut points must be finite and positive"),
    ("1e400", "cut points must be finite and positive"),
]


def test_usage_errors_exit_2(rc_csv, ic_csv, capsys, tmp_path):
    rc_path, _ = rc_csv
    ic_path, _ = ic_csv
    rc = ["pseudo", "--data", str(rc_path), "--kind", "rc"]
    ic_rmst = ["pseudo", "--data", str(ic_path), "--kind", "ic", "--target", "rmst", "--tau", "6"]
    cases = [
        # survival target without an evaluation time
        (rc + ["--target", "surv"], "--target surv requires --t"),
        # evaluation time negative or not a number
        (rc + ["--target", "surv", "--t", "-1"], "--t must be finite and nonnegative"),
        (rc + ["--target", "surv", "--t", "nan"], "--t must be finite and nonnegative"),
        # interval kind without cuts
        (["pseudo", "--data", str(ic_path), "--kind", "ic", "--target", "surv", "--t", "5.0"],
         "--kind ic requires --cuts"),
        # restricted mean without a restriction time
        (rc + ["--target", "rmst"], "--target rmst requires --tau"),
        # unrestricted mean unsupported for the product-limit estimator
        (rc + ["--target", "rmst", "--tau", "inf"], "--tau must be finite for --kind rc"),
        # unparseable, zero or not-a-number tau
        (rc + ["--target", "rmst", "--tau", "soon"], "cannot parse tau 'soon'"),
        (rc + ["--target", "rmst", "--tau", "0"], "tau must be positive"),
        (rc + ["--target", "rmst", "--tau", "nan"], "tau must be positive"),
        # unparseable, empty or unordered cuts
        (ic_rmst + ["--cuts", "x"], "cannot parse cuts 'x'"),
        (ic_rmst + ["--cuts", ","], "cuts must list at least one point"),
        (ic_rmst + ["--cuts", "5,4"], "cut points must be strictly increasing"),
        # missing input file
        (["pseudo", "--data", str(tmp_path / "nope.csv"), "--kind", "rc",
          "--target", "surv", "--t", "1.0"], "No such file or directory"),
        # a scenario too small, too few replications
        (["simulate", "--scenario", "rc", "--n", "1", "--reps", "3"], "scenario needs n >= 2"),
        (["simulate", "--scenario", "rc", "--n", "20", "--reps", "1"],
         "need at least two replications"),
        # cuts for a scenario without a piecewise-hazard fit
        (["simulate", "--scenario", "rc", "--n", "100", "--reps", "3", "--method", "fast",
          "--seed", "2", "--cuts", "3,4"], "scenario rc takes no cuts"),
        (["bench", "--scenario", "rc", "--n", "100", "--cuts", "3,4"], "scenario rc takes no cuts"),
        (rc + ["--target", "surv", "--t", "1.0", "--cuts", "3,4"], "--kind rc takes no cuts"),
        # unordered, not-a-number or overflowing cuts for a scenario, from either command
        *((["simulate", "--scenario", "ic1", "--n", "20", "--reps", "3", "--cuts", cuts], message)
          for cuts, message in _BAD_SCENARIO_CUTS),
        *((["bench", "--scenario", "ic1", "--n", "20", "--cuts", cuts], message)
          for cuts, message in _BAD_SCENARIO_CUTS),
        # Newton flags for the product-limit estimator, which has no solver
        (rc + ["--target", "surv", "--t", "1.0", "--tol", "1e-6"],
         "--kind rc takes no --tol or --max-iter"),
        (rc + ["--target", "surv", "--t", "1.0", "--max-iter", "5"],
         "--kind rc takes no --tol or --max-iter"),
        # solver settings with which Newton cannot converge
        (ic_rmst + ["--cuts", "4,5,6,7", "--tol", "inf"], "need a finite tol >= 0"),
        (ic_rmst + ["--cuts", "4,5,6,7", "--tol", "-1"], "need a finite tol >= 0"),
        (ic_rmst + ["--cuts", "4,5,6,7", "--method", "jackknife", "--tol", "nan"],
         "need a finite tol >= 0"),
        (["fit", "--data", str(ic_path), "--cuts", "4,5,6,7", "--max-iter", "-5"],
         "max_iter >= 1"),
        (["fit", "--data", str(ic_path), "--cuts", "4,5,6,7", "--tol", "inf"],
         "need a finite tol >= 0"),
    ]
    for args, message in cases:
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error:usage:") and err.count("\n") == 1, (args, err)
        assert message in err, (args, err)


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


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_an_infinite_rc_scenario_tau_exits_3_before_any_data(command, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "generate", None)  # any replication would fail on it
    args = [command, "--scenario", "rc", "--n", "20", "--tau", "inf"]
    assert main(args + (["--reps", "2"] if command == "simulate" else [])) == 3
    assert capsys.readouterr().err == "error:InvalidTau: tau must be finite and positive, got inf\n"


# Text the CSV layer cannot read, as (the bytes of a cell, the message):
# a byte that is not UTF-8, and a quoted cell longer than the csv module's
# field limit, which np.loadtxt cannot read either.
_TEXT_FAULTS = {
    "not-utf8": (b"\xff", "cannot decode b'\\xff': the input is not UTF-8 text"),
    "long-cell": (b'"' + b"x" * (csv.field_size_limit() + 1) + b'"',
                  f"field larger than field limit ({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("fault", _TEXT_FAULTS)
@pytest.mark.parametrize("command", ["pseudo", "fit"])
def test_unreadable_data_text_exits_3(command, fault, tmp_path, capsys):
    """A --data file that is not UTF-8 text, or that holds an over-long
    cell, exits 3 with one ParseError line; the cell's row is named."""
    cell, message = _TEXT_FAULTS[fault]
    header = b"time,status" if command == "pseudo" else b"left,right"
    path = tmp_path / "data.csv"
    path.write_bytes(header + b"\n1,1\n" + cell + b",1\n2,2\n")
    args = (["pseudo", "--kind", "rc", "--target", "surv", "--t", "1"] if command == "pseudo"
            else ["fit", "--cuts", "1"])
    assert main([*args, "--data", str(path)]) == 3
    row = "row 2: " if fault == "long-cell" else ""
    assert capsys.readouterr().err == f"error:ParseError: {row}{message}\n"


@pytest.mark.parametrize("fault", _TEXT_FAULTS)
@pytest.mark.parametrize("where", ["pseudo", "covariates"])
def test_unreadable_regress_text_exits_2_naming_the_file(where, fault, tmp_path, capsys):
    cell, message = _TEXT_FAULTS[fault]
    templates = {"pseudo": b"id,pseudo\n1,0.5\n2,%s\n3,0.2\n", "covariates": b"z\n1\n%s\n1\n"}
    paths = {name: tmp_path / f"{name}.csv" for name in templates}
    for name, template in templates.items():
        paths[name].write_bytes(template % (cell if name == where else b"0"))
    assert main(["regress", "--pseudo", str(paths["pseudo"]),
                 "--covariates", str(paths["covariates"])]) == 2
    assert capsys.readouterr().err == f"error:usage: {paths[where]}: {message}\n"


def test_header_without_rows_exits_3(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("time,status,z\n")
    code = main(["pseudo", "--data", str(path), "--kind", "rc", "--target", "rmst", "--tau", "6"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:EmptyInput:")


def _run_module(args, stdin_text):
    """``python -m pseudosurv.cli args`` in a new process, ``stdin_text`` on a pipe."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "pseudosurv.cli", *args],
        input=stdin_text, capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.mark.parametrize("text, code, message", [
    ("time,status\n1,1\nx,0\n", 3,
     "error:ParseError: row 2: cannot parse time='x' as a number\n"),
    ("time,status\n1,1\n-1,0\n", 3, "error:MalformedInterval:"),
    (None, 0, None),
], ids=["bad-cell", "negative-time", "valid"])
def test_pseudo_reads_a_pipe_once(text, code, message, rc_csv, capsys):
    """--data /dev/stdin is read once: errors keep their type and row, and a
    valid file gives the output of the same file named by path."""
    path, _ = rc_csv
    if text is None:
        text = path.read_text()
    args = ["pseudo", "--kind", "rc", "--target", "rmst", "--tau", "6"]
    proc = _run_module([*args, "--data", "/dev/stdin"], text)
    assert proc.returncode == code, proc.stderr
    if message is not None:
        assert proc.stderr.startswith(message)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*args, "--data", str(path)]) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("scenario", ["rc", "ic1"])
def test_pseudo_stdout_is_the_out_file(scenario, tmp_path):
    """Without --out, a new process writes to its stdout, redirected to a
    file, the bytes that --out writes, over more than one formatted piece."""
    config = ScenarioConfig(scenario, n=data._WRITE_ROWS + 100, seed=3)
    path = tmp_path / "data.csv"
    save_dataset(generate(config), path)
    kind = ["--kind", "rc"] if scenario == "rc" else [
        "--kind", "ic", "--cuts", ",".join(f"{c:g}" for c in config.cuts)]
    args = ["pseudo", "--data", str(path), *kind, "--target", "rmst", "--tau", "6"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    with open(tmp_path / "stdout.csv", "wb") as stdout:
        proc = subprocess.run([sys.executable, "-m", "pseudosurv.cli", *args], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert main([*args, "--out", str(tmp_path / "out.csv")]) == 0
    assert (tmp_path / "stdout.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()


def test_warnings_reach_stderr_as_one_line_each(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("time,status\n1,1\n2,0\n3,1\n")
    args = ["pseudo", "--data", str(path), "--kind", "rc", "--target", "rmst", "--tau", "6"]
    proc = _run_module(args, "")
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning:UserWarning: tau=6.0 exceeds the last observed time 3.0;"
        " nobody is at risk near tau and the curve is extended flat\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out


def _with_extra_cells(text):
    """``text``, a two-column CSV, with a header naming two more columns and
    rows whose further cells are numeric, text, NaN, quoted or missing, or
    more than the header names."""
    extras = [",1.5,-2", ",a,b", ",nan,", "", ',"x, y","line\nbreak",3,4', ",,NaN"]
    lines = text.splitlines()
    rows = [line + extras[i % len(extras)] for i, line in enumerate(lines[1:])]
    return "\n".join([lines[0] + ",z,group"] + rows) + "\n"


@pytest.mark.parametrize("command", [
    ["pseudo", "--kind", "rc", "--target", "rmst", "--tau", "5"],
    ["pseudo", "--kind", "ic", "--target", "surv", "--t", "5", "--cuts", "4,5,6,7"],
    ["fit", "--cuts", "4,5,6,7"],
], ids=["pseudo-rc", "pseudo-ic", "fit"])
def test_pseudo_and_fit_ignore_cells_past_the_first_two(command, tmp_path, capsys):
    config = ScenarioConfig("rc" if "rc" in command else "ic1", n=60, seed=4)
    ds = generate(config)
    two = tmp_path / "two.csv"
    save_dataset(data.Dataset(ds.kind, ds.columns), two)
    wide = tmp_path / "wide.csv"
    wide.write_text(_with_extra_cells(two.read_text()), newline="")
    outputs = []
    for path in (two, wide):
        assert main([*command, "--data", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
    ("\ufeff" + _PV, "\ufeff" + _COV),
], ids=["plain", "quoted", "spaces", "crlf", "cr", "blank-lines", "text-id", "underscore",
        "byte-order-mark"])
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


def test_regress_names_the_line_of_a_piped_file(tmp_path):
    """A pipe is read once; its bad cell is still located by file line."""
    cov = tmp_path / "cov.csv"
    cov.write_text(_COV)
    proc = _run_module(["regress", "--pseudo", "/dev/stdin", "--covariates", str(cov)],
                       _PV.replace("3.5", "x"))
    assert proc.returncode == 2
    assert proc.stderr == "error:usage: /dev/stdin: line 5, column 2: cannot parse 'x' as a number\n"


def test_regress_names_the_line_of_a_bad_cell_in_a_later_batch_of_a_pipe(tmp_path):
    """The bad cell of a piped file lies past the first batch of lines."""
    line = data._READ_LINES + 500
    rows = [f"{i},{i / 8}" for i in range(1, line + 100)]
    rows[line - 2] = f"{line - 1},x"
    cov = tmp_path / "cov.csv"
    cov.write_text("z\n" + "\n".join(f"{i % 2}" for i in range(len(rows))) + "\n")
    proc = _run_module(["regress", "--pseudo", "/dev/stdin", "--covariates", str(cov)],
                       "id,pseudo\n" + "\n".join(rows) + "\n")
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error:usage: /dev/stdin: line {line}, column 2: cannot parse 'x' as a number\n"
    )


@pytest.mark.parametrize("read_lines", [1, 2, 3])
def test_regress_skips_blank_lines_across_batch_boundaries(read_lines, tmp_path, capsys,
                                                            monkeypatch):
    assert _regress(tmp_path, _PV, _COV) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(data, "_READ_LINES", read_lines)
    # blank runs of one to three lines, some of them across each boundary
    pseudo = _PV.replace("\n2,", "\n\n2,").replace("\n4,", "\n\n\n4,").replace("\n6,", "\n\n\n\n6,")
    cov = "\n\n" + _COV.replace("\n1,1", "\n\n1,1").replace("\n", "\r\n") + "\r\n"
    assert _regress(tmp_path, pseudo, cov) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("where", ["pseudo", "covariates"])
def test_regress_rejects_a_non_finite_cell(cell, where, tmp_path, capsys):
    """A NaN or infinite response or covariate exits 2 instead of printing
    NaN coefficients."""
    pseudo, cov = "id,pseudo\n1,0.5\n2,0.1\n3,0.2\n", "z\n1\n0\n1\n"
    if where == "pseudo":
        pseudo = pseudo.replace("0.1", cell)
    else:
        cov = cov.replace("0", cell)
    assert _regress(tmp_path, pseudo, cov) == 2
    assert capsys.readouterr().err == "error:usage: responses and covariates must be finite\n"


def test_regress_zero_variance_coefficient_gets_an_infinite_z(tmp_path, capsys):
    """The intercept is fitted without residual, so its sandwich variance is
    0 up to rounding, which may fall below 0."""
    assert _regress(tmp_path, "id,pseudo\n1,0.5\n2,0.1\n3,0.2\n", "z\n1\n0\n1\n") == 0
    assert capsys.readouterr().out.split("\n")[1] == "intercept,0.1,0,inf,0"


def test_regress_zero_estimate_with_zero_variance_gets_z_0_and_p_1(tmp_path, capsys):
    """All-zero pseudo values, as survival past the last event gives, fit
    zero coefficients with zero SEs: 0/0 is reported as z = 0, p = 1."""
    assert _regress(tmp_path, "id,pseudo\n1,0\n2,0\n3,0\n4,0\n", "z\n1\n0\n1\n0\n") == 0
    assert capsys.readouterr().out.split("\n")[1:3] == ["intercept,0,0,0,1", "z,0,0,0,1"]


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
