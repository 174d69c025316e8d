"""Command-line surface: pseudo, fit, regress, simulate, bench.

Outputs are plot-ready CSV tables or small human-readable reports; every
error path exits nonzero with a single-line ``error:<Kind>: message`` on
stderr (exit 2 for flags and ``regress`` inputs, 3 for a bad ``--data``
file and for numerical failures). Warnings, such as identifiability
diagnostics, go to stderr without changing the exit code.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings

import numpy as np

from .data import (
    load_interval_dataset,
    load_right_censored_dataset,
)
from .errors import PseudosurvError
from .fitting import fit_pch
from .gee import LinkSpec, fit_gee, wald_table
from .jackknife import jackknife_km, jackknife_pch
from .km import FAST, RMST, SURVIVAL, km_fit, km_pseudo_rmst, km_pseudo_survival
from .parametric import pseudo_rmst, pseudo_survival
from .pch import CutGrid, evaluate
from .simulate import ScenarioConfig, benchmark, monte_carlo

_TOL_HELP = "Newton stops after a full step that moves no log-rate by more than this"
# Rows formatted per string by _csv, which bounds the text held at once.
_CSV_ROWS = 1 << 16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error:usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except _UsageError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 2
    except PseudosurvError as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pseudosurv",
        description="Pseudo-observations for survival targets, fast or by exact jackknife.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pseudo", help="compute per-subject pseudo-observations")
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--kind", required=True, choices=["rc", "ic"],
                   help="rc: time,status columns; ic: left,right columns")
    p.add_argument("--target", required=True, choices=["surv", "rmst"])
    p.add_argument("--t", type=float, default=None, help="evaluation time for --target surv")
    p.add_argument("--tau", default=None, help="restriction time for --target rmst ('inf' allowed)")
    p.add_argument("--method", choices=["fast", "jackknife"], default="fast")
    p.add_argument("--cuts", default=None, help="comma-separated interior cut points (ic only)")
    p.add_argument("--tol", type=float, default=1e-8, help=_TOL_HELP)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--curve-out", default=None,
                   help="also write the fitted survival curve as CSV")
    p.set_defaults(run=_cmd_pseudo)

    p = sub.add_parser("fit", help="fit a piecewise-constant hazard and report it")
    p.add_argument("--data", required=True)
    p.add_argument("--cuts", required=True)
    p.add_argument("--tol", type=float, default=1e-8, help=_TOL_HELP)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--strict", action="store_true",
                   help="fail instead of warning on identifiability violations")
    p.add_argument("--out", default=None)
    p.add_argument("--curve-out", default=None,
                   help="write (t,survival,hazard) curve samples as CSV")
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("regress", help="pseudo-regression with sandwich standard errors")
    p.add_argument("--pseudo", required=True, help="CSV with columns id,pseudo")
    p.add_argument("--covariates", required=True, help="CSV design matrix with header")
    p.add_argument("--link", choices=["identity", "cloglog"], default="identity")
    p.add_argument("--intercept", action="store_true", help="prepend a column of ones")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_regress)

    p = sub.add_parser("simulate", help="Monte-Carlo comparison on a built-in scenario")
    p.add_argument("--scenario", required=True, choices=["rc", "ic1", "ic2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--method", choices=["fast", "jackknife", "both"], default="both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", default=None)
    p.add_argument("--cuts", default=None)
    p.add_argument("--out", default=None,
                   help="write the deterministic report CSV here (timing stays on stdout)")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("bench", help="time fast vs jackknife pseudo-observations")
    p.add_argument("--scenario", required=True, choices=["rc", "ic1", "ic2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--tau", default=None)
    p.add_argument("--cuts", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_bench)

    return parser


def _cmd_pseudo(args):
    horizon = _pseudo_horizon(args)
    if args.kind == "ic" and args.cuts is None:
        raise _UsageError("--kind ic requires --cuts")
    target = SURVIVAL if args.target == "surv" else RMST

    if args.kind == "rc":
        dataset = load_right_censored_dataset(args.data)
        km = km_fit(dataset)
        if args.method == FAST:
            pv = (km_pseudo_survival(km, horizon) if target == SURVIVAL
                  else km_pseudo_rmst(km, horizon))
        else:
            pv = jackknife_km(dataset, target, horizon)
        if args.curve_out:
            _emit(_csv("t,survival\n", "%.12g,%.12g\n", *km.survival_curve()), args.curve_out)
    else:
        dataset = load_interval_dataset(args.data)
        grid = _make_grid(args.cuts)
        pfit = fit_pch(dataset, grid, tol=args.tol, max_iter=args.max_iter)
        if args.method == FAST:
            pv = (pseudo_survival(pfit, dataset, horizon) if target == SURVIVAL
                  else pseudo_rmst(pfit, dataset, horizon))
        else:
            pv = jackknife_pch(dataset, grid, target, horizon,
                               tol=args.tol, max_iter=args.max_iter, fit=pfit)
        if args.curve_out:
            _emit(_pch_curve_csv(pfit.model, horizon), args.curve_out)
    if pv.flagged is not None:
        print(
            f"warning: {int(pv.flagged.sum())} leave-one-out refits failed; "
            "their pseudo values are NaN",
            file=sys.stderr,
        )
    _emit(_csv("id,pseudo\n", "%d,%.12g\n", np.arange(1, pv.n + 1), pv.values), args.out)


def _cmd_fit(args):
    dataset = load_interval_dataset(args.data)
    grid = _make_grid(args.cuts)
    pfit = fit_pch(dataset, grid, tol=args.tol, max_iter=args.max_iter,
                   strict=args.strict)
    lines = [
        f"pieces: {grid.K} (cuts: {','.join(f'{c:g}' for c in grid.cuts)})",
        "rates: " + " ".join(f"{a:.10g}" for a in pfit.model.rates),
        "observed information:",
    ]
    lines += ["  " + " ".join(f"{v:.10g}" for v in row) for row in pfit.info]
    lines += [
        f"loglik: {pfit.loglik:.10g}",
        f"score norm: {pfit.grad_norm:.3e}",
        f"iterations: {pfit.iterations}",
        f"conditions: {pfit.condition_report.describe()}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    if args.curve_out:
        _emit(_pch_curve_csv(pfit.model, math.inf), args.curve_out)


def _cmd_regress(args):
    _, y = _read_csv(args.pseudo, usecols=1)
    names, design = _read_csv(args.covariates)
    if len(names) != design.shape[1]:
        raise _UsageError(f"{args.covariates}: the header names {len(names)} columns,"
                          f" the rows hold {design.shape[1]}")
    if args.intercept:
        design = np.column_stack([np.ones(design.shape[0]), design])
        names = ["intercept"] + names
    try:
        fit = fit_gee(y[:, 0], design, LinkSpec(args.link))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _emit(wald_table(fit, names), args.out)


def _cmd_simulate(args):
    config = _make_config(args)
    methods = ["fast", "jackknife"] if args.method == "both" else [args.method]
    try:
        reports = [monte_carlo(config, m, args.reps) for m in methods]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    for report in reports:
        print(report.summary())
    if args.out:
        _emit("".join(r.to_csv() for r in reports), args.out)


def _cmd_bench(args):
    config = _make_config(args)
    report = benchmark(config, repeat=args.repeat)
    print(report.summary())
    if args.out:
        _emit(report.to_csv(), args.out)


def _pseudo_horizon(args) -> float:
    if args.target == "surv":
        if args.t is None:
            raise _UsageError("--target surv requires --t")
        if args.t < 0 or not math.isfinite(args.t):
            raise _UsageError("--t must be finite and nonnegative")
        return args.t
    if args.tau is None:
        raise _UsageError("--target rmst requires --tau")
    tau = _parse_tau(args.tau)
    if args.kind == "rc" and math.isinf(tau):
        raise _UsageError("--tau must be finite for --kind rc")
    return tau


def _parse_tau(raw) -> float:
    try:
        tau = float(raw)
    except ValueError:
        raise _UsageError(f"cannot parse tau {raw!r}") from None
    if math.isnan(tau) or tau <= 0:
        raise _UsageError("tau must be positive (or 'inf')")
    return tau


def _parse_cuts(raw) -> tuple:
    try:
        cuts = tuple(float(c) for c in str(raw).split(",") if c.strip() != "")
    except ValueError:
        raise _UsageError(f"cannot parse cuts {raw!r}") from None
    if not cuts:
        raise _UsageError("cuts must list at least one point")
    return cuts


def _make_grid(raw) -> CutGrid:
    try:
        return CutGrid(_parse_cuts(raw))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _make_config(args) -> ScenarioConfig:
    try:
        return ScenarioConfig(
            scenario=args.scenario,
            n=args.n,
            seed=args.seed,
            tau=_parse_tau(args.tau) if args.tau is not None else None,
            cuts=_parse_cuts(args.cuts) if args.cuts is not None else None,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _pch_curve_csv(model, horizon, points: int = 201):
    upto = horizon if math.isfinite(horizon) else model.grid.cuts[-1] * 1.5
    grid = np.linspace(0.0, upto, points)
    hazard, _, survival = evaluate(model, grid)
    return _csv("t,survival,hazard\n", "%.12g,%.12g,%.12g\n", grid, survival, hazard)


def _csv(header, row_format, *columns):
    """Pieces of the CSV text of the array ``columns`` under ``header``.

    Each piece after the header holds up to ``_CSV_ROWS`` rows and is one
    ``%`` of ``row_format`` repeated over the piece's cells, interleaved
    row by row: ``"%.12g" % x`` gives the bytes of ``f"{x:.12g}"``, and
    ``"%d"`` those of an integer column.
    """
    yield header
    width = len(columns)
    for start in range(0, len(columns[0]), _CSV_ROWS):
        parts = [column[start:start + _CSV_ROWS].tolist() for column in columns]
        cells = [None] * (width * len(parts[0]))
        for j, part in enumerate(parts):
            cells[j::width] = part
        yield (row_format * len(parts[0])) % tuple(cells)


def _read_csv(path, usecols=None):
    """Header row and float body of one of ``regress``'s input CSVs.

    The header is the first non-empty CSV row. numpy only splits the body
    lines and each cell goes through Python's ``float``, so quoted cells,
    spaces around numbers and ``1_000`` are accepted. Blank lines are
    skipped. ``usecols=1`` reads the pseudo column of an ``id,pseudo`` file.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        header = next((row for row in csv.reader(handle) if row), [])
        if usecols is not None and len(header) <= usecols:
            raise _UsageError(f"{path}: expected columns id,pseudo")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data"
                body = np.loadtxt(handle, delimiter=",", quotechar='"', comments=None,
                                  ndmin=2, converters=float, usecols=usecols)
        except ValueError as exc:
            raise _UsageError(f"{path}: {_first_fault(path, usecols) or exc}") from None
    if body.shape[0] == 0:
        raise _UsageError(f"{path}: no data rows")
    return header, body


def _first_fault(path, usecols):
    """Where and why the first body row of a CSV fails to read as numbers.

    Lines are counted from 1 in the file, header and blank lines included.
    The body rows must all be as long as the first one, or, when one column
    is used, merely hold it.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        past_header = False
        width = None
        line = 1
        for row in reader:
            if row and not past_header:
                past_header = True
            elif row:
                width = width or len(row)
                if usecols is not None and len(row) <= usecols:
                    return f"line {line}: expected at least {usecols + 1} cells, got {len(row)}"
                if usecols is None and len(row) != width:
                    return f"line {line}: expected {width} cells, got {len(row)}"
                for j in range(len(row)) if usecols is None else [usecols]:
                    try:
                        float(row[j])
                    except ValueError:
                        return f"line {line}, column {j + 1}: cannot parse {row[j]!r} as a number"
            line = reader.line_num + 1
    return None


def _emit(text, out_path):
    """Write ``text``, a string or an iterable of strings, to ``out_path``
    or, when that is None, to stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out_path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)


if __name__ == "__main__":
    sys.exit(main())
