"""Command-line surface: pseudo, fit, regress, simulate, bench.

Outputs are plot-ready CSV tables or small human-readable reports. The
commands call the library directly; `main` alone turns an error into one
``error:<Kind>: message`` line on stderr and an exit code: 2 for flags,
``regress`` inputs and any ``ValueError``, 3 for a package error (a bad
``--data`` file, a numerical failure). Python warnings, such as
identifiability diagnostics, go to stderr as one ``warning:<Category>:
message`` line each, without changing the exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
import warnings

import numpy as np

from .data import _csv, _not_utf8, _read_body, load_interval_dataset, load_right_censored_dataset
from .errors import PseudosurvError
from .fitting import fit_pch
from .gee import LinkSpec, fit_gee, wald_table
from .jackknife import jackknife_km, jackknife_pch
from .km import FAST, RMST, SURVIVAL, km_fit, km_pseudo_rmst, km_pseudo_survival
from .parametric import pseudo_rmst, pseudo_survival
from .pch import CutGrid, evaluate
from .simulate import _SCENARIOS, ScenarioConfig, benchmark, monte_carlo

_TOL_HELP = "Newton stops after a full step that moves no log-rate by more than this"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error:usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    default_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 2
    except PseudosurvError as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = default_format
    return 0


def _format_warning(message, category, *_):
    """A shown warning as one ``warning:<Category>: message`` line."""
    return f"warning:{category.__name__}: {' '.join(str(message).splitlines())}\n"


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
    p.add_argument("--tol", type=float, help=_TOL_HELP + " (ic only)")
    p.add_argument("--max-iter", type=int, help="Newton iteration budget (ic only)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--curve-out", default=None,
                   help="also write the fitted survival curve as CSV")
    p.set_defaults(run=_cmd_pseudo)

    p = sub.add_parser("fit", help="fit a piecewise-constant hazard and report it")
    p.add_argument("--data", required=True)
    p.add_argument("--cuts", required=True)
    p.add_argument("--tol", type=float, help=_TOL_HELP)
    p.add_argument("--max-iter", type=int)
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

    # the flags of ScenarioConfig, shared by simulate and bench
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True, choices=list(_SCENARIOS))
    scenario.add_argument("--n", type=int, required=True)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--tau", default=None)
    scenario.add_argument("--cuts", default=None, help="comma-separated cut points (ic1 and ic2 only)")

    p = sub.add_parser("simulate", parents=[scenario],
                       help="Monte-Carlo comparison on a built-in scenario")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--method", choices=["fast", "jackknife", "both"], default="both")
    p.add_argument("--out", default=None,
                   help="write the deterministic report CSV here (timing stays on stdout)")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("bench", parents=[scenario],
                       help="time fast vs jackknife pseudo-observations")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_bench)

    return parser


def _cmd_pseudo(args):
    horizon = _pseudo_horizon(args)
    if args.kind == "ic" and args.cuts is None:
        raise ValueError("--kind ic requires --cuts")
    if args.kind == "rc" and args.cuts is not None:
        raise ValueError("--kind rc takes no cuts")
    if args.kind == "rc" and _solver(args):
        raise ValueError("--kind rc takes no --tol or --max-iter")
    target = SURVIVAL if args.target == "surv" else RMST

    if args.kind == "rc":
        dataset = load_right_censored_dataset(args.data, covariates=False)
        km = km_fit(dataset)
        if args.method == FAST:
            pv = (km_pseudo_survival(km, horizon) if target == SURVIVAL
                  else km_pseudo_rmst(km, horizon))
        else:
            pv = jackknife_km(dataset, target, horizon)
        if args.curve_out:
            _emit(_csv("t,survival\n", "%.12g,%.12g\n", *km.survival_curve()), args.curve_out)
    else:
        dataset = load_interval_dataset(args.data, covariates=False)
        grid = CutGrid(_parse_cuts(args.cuts))
        pfit = fit_pch(dataset, grid, **_solver(args))
        if args.method == FAST:
            pv = (pseudo_survival(pfit, dataset, horizon) if target == SURVIVAL
                  else pseudo_rmst(pfit, dataset, horizon))
        else:
            pv = jackknife_pch(dataset, grid, target, horizon, **_solver(args), fit=pfit)
        if args.curve_out:
            _emit(_pch_curve_csv(pfit.model, horizon), args.curve_out)
    if pv.flagged is not None:
        warnings.warn(f"{int(pv.flagged.sum())} leave-one-out refits failed;"
                      " their pseudo values are NaN")
    _emit(_csv("id,pseudo\n", "%d,%.12g\n", np.arange(1, pv.n + 1), pv.values), args.out)


def _cmd_fit(args):
    dataset = load_interval_dataset(args.data, covariates=False)
    grid = CutGrid(_parse_cuts(args.cuts))
    pfit = fit_pch(dataset, grid, strict=args.strict, **_solver(args))
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
    if args.intercept:
        design = np.column_stack([np.ones(design.shape[0]), design])
        names = ["intercept"] + names
    _emit(wald_table(fit_gee(y[:, 0], design, LinkSpec(args.link)), names), args.out)


def _cmd_simulate(args):
    config = _make_config(args)
    methods = ["fast", "jackknife"] if args.method == "both" else [args.method]
    reports = [monte_carlo(config, m, args.reps) for m in methods]
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
            raise ValueError("--target surv requires --t")
        if args.t < 0 or not math.isfinite(args.t):
            raise ValueError("--t must be finite and nonnegative")
        return args.t
    if args.tau is None:
        raise ValueError("--target rmst requires --tau")
    tau = _parse_tau(args.tau)
    if args.kind == "rc" and math.isinf(tau):
        raise ValueError("--tau must be finite for --kind rc")
    return tau


def _parse_tau(raw) -> float:
    try:
        tau = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse tau {raw!r}") from None
    if math.isnan(tau) or tau <= 0:
        raise ValueError("tau must be positive (or 'inf')")
    return tau


def _parse_cuts(raw) -> tuple:
    try:
        cuts = tuple(float(c) for c in str(raw).split(",") if c.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse cuts {raw!r}") from None
    if not cuts:
        raise ValueError("cuts must list at least one point")
    return cuts


def _solver(args) -> dict:
    """The Newton flags given, as keyword arguments; the library's defaults fill in the rest."""
    return {name: getattr(args, name) for name in ("tol", "max_iter") if getattr(args, name) is not None}


def _make_config(args) -> ScenarioConfig:
    return ScenarioConfig(
        scenario=args.scenario,
        n=args.n,
        seed=args.seed,
        tau=_parse_tau(args.tau) if args.tau is not None else None,
        cuts=_parse_cuts(args.cuts) if args.cuts is not None else None,
    )


def _pch_curve_csv(model, horizon, points: int = 201):
    upto = horizon if math.isfinite(horizon) else model.grid.cuts[-1] * 1.5
    grid = np.linspace(0.0, upto, points)
    hazard, _, survival = evaluate(model, grid)
    return _csv("t,survival,hazard\n", "%.12g,%.12g,%.12g\n", grid, survival, hazard)


def _read_csv(path, usecols=None):
    """Header (the first non-empty CSV row) and float body of a ``regress``
    input, read once, so a pipe works; ``usecols=1`` reads the pseudo column
    of an ``id,pseudo`` file, a byte-order mark dropped. The body's row rule
    is `_parse_rows`; non-UTF-8 bytes or a record csv refuses raise ValueError naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            rows = csv.reader(handle)
            header = next((row for row in rows if row), [])
            if usecols is not None and len(header) <= usecols:
                raise ValueError(f"{path}: expected columns id,pseudo")
            body = _read_body(handle, functools.partial(_parse_rows, path, usecols, rows.line_num),
                              usecols=usecols)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {_not_utf8(exc)}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    if body.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if usecols is None and len(header) != body.shape[1]:
        raise ValueError(f"{path}: the header names {len(header)} columns,"
                         f" the rows hold {body.shape[1]}")
    return header, body


def _parse_rows(path, usecols, skipped, records, _, width):
    """``regress``'s row rule: the non-blank records as a float table, or a
    ValueError naming the file line of the first one whose column
    ``usecols + 1`` (all ``width`` cells if None) is not a Python float.
    ``skipped`` lines precede the body."""
    table = []
    for line, row in (record for record in records if record[1]):
        at = f"{path}: line {skipped + line + 1}"
        if usecols is not None and len(row) <= usecols:
            raise ValueError(f"{at}: expected at least {usecols + 1} cells, got {len(row)}")
        width = width or len(row)
        if usecols is None and len(row) != width:
            raise ValueError(f"{at}: expected {width} cells, got {len(row)}")
        values = []
        for j in range(len(row)) if usecols is None else [usecols]:
            try:
                values.append(float(row[j]))
            except ValueError:
                raise ValueError(f"{at}, column {j + 1}: cannot parse {row[j]!r} as a number") from None
        table.append(values)
    return np.array(table, dtype=float).reshape(len(table), -1 if table else 0)


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
