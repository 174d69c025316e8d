"""Compare the fits, fast pseudo values and jackknife values of source trees bit for bit.

Run from the repository root, for example to check a change against a
checkout of its parent commit:

    python tools/compare_fits.py --tree parent=../parent/src --tree change=src

The cases are the interval-censored data of the benchmark and of the known
hard replications, each scenario at its tau and, but for the last case, its
default cuts:

- sim-small: ic1 at n = 200 and ic2 at n = 1000, seeds 1-3, replications
  0-119 (replication r from the r-th stream of ``SeedSequence(seed).spawn``,
  as ``monte_carlo`` draws it), with the jackknife for ic1 only;
- ic2 at n = 300, seed 7, replications 0-199, with the jackknife;
- ic1 and ic2 at n = 10^6, seeds 1-2 (``generate`` at the seed, as the
  ic-fit workload draws them), without the jackknife;
- at the threshold of ``fit_pch``'s pilot start, ic1 and ic2 at
  n = 2^17 (the first size that fits a pilot) and n = 2^17 - 1 (the last
  that does not), and at n = 2^17 + 1, the first whose per-record passes
  exceed ``_parts.SPLIT_ELEMENTS`` (2^17) and run in parts, while n = 2^17
  runs every pass whole, seed 1, without the jackknife but with
  ``pseudo_alpha``, whose K-column score products split there too; at
  n = 2^17 + 1 also leave-one-out refits, run as ``jackknife_pch`` runs
  them, by ``newton_prepared(fit.likelihood.leave_out(rows), rates, 1e-8,
  200)`` from the fitted rates: one refit each of subjects 0, 1, n // 2 and
  n - 1, which run whole, and one stack of the 6 subjects
  ``linspace(0, n - 1, 6)``, whose kernel and increment passes run in parts
  on more than one CPU;
- ic1 at n = 10^6, seed 2, cut into 20 pieces at the k/20 quantiles of the
  finite right endpoints (named ``K=20``), without the jackknife: its pilot
  pins some rate only loosely, so ``fit_pch`` must drop it for the midpoint
  start.

The data are generated once, by the pseudosurv next to this script. Each
tree then runs every case in a fresh process and dumps, per case, the fit's
iterations, rates, information and log-likelihood trace, the fast RMST
pseudo values, their regression on the scenario's covariates (``gee``:
``fit_gee``'s coefficients followed by its covariance, row by row),
``pseudo_alpha`` where the case asks for it, the refits' rates,
iterations and error texts, and the jackknife RMST values and flags, or
the typed error a step ended with. The regression reads its design in
blocks of ``gee.BLOCK_ROWS`` (2^16) rows, so the cases at n = 2^17 - 1,
2^17, 2^17 + 1 and 10^6 span more than one block and the others one. The
tool lists every case whose dumps differ between the first tree and
another, field by field, then one summary line per differing field: how
many cases and values differ and, for float fields, the largest absolute
and relative gap between two finite values (relative to the larger of
the two magnitudes). It exits 1 if a case differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIELDS = ("error", "iterations", "rates", "info", "trace", "fast", "fast_error", "gee",
          "gee_error", "alpha", "alpha_error", "refit_rates", "refit_iterations", "refit_errors",
          "jackknife", "flagged", "jackknife_error")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append",
                        help="LABEL=SRC: a label and the src directory holding its pseudosurv")
    parser.add_argument("--worker", nargs=3, metavar=("SRC", "WORK", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _run_cases(*args.worker)
        return 0
    if not args.tree or len(args.tree) < 2:
        parser.error("give at least two --tree LABEL=SRC")
    trees = dict(t.split("=", 1) for t in args.tree)

    with tempfile.TemporaryDirectory() as work:
        cases = _write_cases(Path(work))
        print(f"{len(cases)} cases", file=sys.stderr)
        dumps = {}
        for label, src in trees.items():
            dumps[label] = Path(work) / f"dump-{len(dumps)}.npz"
            subprocess.run([sys.executable, __file__, "--worker", os.path.abspath(src), work,
                            str(dumps[label])], check=True)
        differing = _compare(cases, dumps)
    print(f"{len(differing)} of {len(cases)} cases differ")
    return 1 if differing else 0


def _write_cases(work: Path) -> list:
    """Generate every case's data into ``work``; returns the case list."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy as np

    from pseudosurv import ScenarioConfig, generate

    plan = [(config, np.random.SeedSequence(config.seed).spawn(reps), jackknife)
            for seed in (1, 2, 3)
            for config, reps, jackknife in ((ScenarioConfig("ic1", 200, seed=seed), 120, True),
                                            (ScenarioConfig("ic2", 1000, seed=seed), 120, False))]
    plan.append((ScenarioConfig("ic2", 300, seed=7), np.random.SeedSequence(7).spawn(200), True))
    plan += [(ScenarioConfig(kind, 10**6, seed=seed), [None], False)
             for kind in ("ic1", "ic2") for seed in (1, 2)]
    threshold = (2**17 + 1, 2**17, 2**17 - 1)
    plan += [(ScenarioConfig(kind, n, seed=1), [None], False)
             for kind in ("ic1", "ic2") for n in threshold]
    right = generate(ScenarioConfig("ic1", 10**6, seed=2)).right
    cuts = np.quantile(right[np.isfinite(right)], np.arange(1, 20) / 20)
    plan.append((ScenarioConfig("ic1", 10**6, seed=2, cuts=cuts), [None], False))
    cases = []
    for config, streams, jackknife in plan:
        for r, stream in enumerate(streams):
            name = f"{config.scenario} n={config.n} seed={config.seed}"
            if config.cuts != ScenarioConfig(config.scenario, config.n).cuts:
                name += f" K={len(config.cuts) + 1}"
            if stream is not None:
                name += f" rep={r}"
            dataset = generate(config, seed=stream)
            path = work / f"case-{len(cases)}.npz"
            np.savez(path, left=dataset.left, right=dataset.right, covariates=dataset.covariates)
            n = config.n
            refits = ([[0], [1], [n // 2], [n - 1], np.linspace(0, n - 1, 6).astype(int).tolist()]
                      if n == threshold[0] else [])
            cases.append({"name": name, "data": str(path), "cuts": list(config.cuts),
                          "tau": config.tau, "jackknife": jackknife,
                          "alpha": n in threshold, "refits": refits})
    (work / "cases.json").write_text(json.dumps(cases))
    return cases


def _run_cases(src, work, out):
    """Run every case on the pseudosurv in ``src``; dump the results to ``out``."""
    sys.path.insert(0, src)
    import warnings

    import numpy as np

    from pseudosurv import (CutGrid, PseudosurvError, fit_gee, fit_pch, interval_dataset,
                            jackknife_pch, pseudo_alpha, pseudo_rmst)
    from pseudosurv.fitting import newton_prepared

    def error(exc):
        return np.array(f"{type(exc).__name__}: {exc}")

    dump = {}
    for i, case in enumerate(json.loads((Path(work) / "cases.json").read_text())):
        with np.load(case["data"]) as data:
            dataset = interval_dataset(data["left"], data["right"])
            covariates = data["covariates"]
        grid, tau = CutGrid(case["cuts"]), case["tau"]
        out_case = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                fit = fit_pch(dataset, grid)
            except PseudosurvError as exc:
                out_case["error"] = error(exc)
            else:
                out_case.update(iterations=np.array(fit.iterations), rates=fit.model.rates,
                                info=fit.info, trace=np.array(fit.loglik_trace))
                try:
                    out_case["fast"] = pseudo_rmst(fit, dataset, tau).values
                except PseudosurvError as exc:
                    out_case["fast_error"] = error(exc)
                else:
                    try:
                        regression = fit_gee(out_case["fast"], covariates)
                    except PseudosurvError as exc:
                        out_case["gee_error"] = error(exc)
                    else:
                        out_case["gee"] = np.concatenate([regression.beta,
                                                          regression.cov.ravel()])
                if case["alpha"]:
                    try:
                        out_case["alpha"] = pseudo_alpha(fit, dataset)
                    except PseudosurvError as exc:
                        out_case["alpha_error"] = error(exc)
                if case["refits"]:
                    outs = [newton_prepared(fit.likelihood.leave_out(rows),
                                            np.tile(fit.model.rates, (len(rows), 1)), 1e-8, 200)
                            for rows in case["refits"]]
                    out_case.update(
                        refit_rates=np.concatenate([o.rates for o in outs]),
                        refit_iterations=np.concatenate([o.iterations for o in outs]),
                        refit_errors=np.array(["" if e is None else str(error(e))
                                               for o in outs for e in o.errors]))
                if case["jackknife"]:
                    try:
                        pv = jackknife_pch(dataset, grid, "rmst", tau, fit=fit)
                    except PseudosurvError as exc:
                        out_case["jackknife_error"] = error(exc)
                    else:
                        out_case["jackknife"] = pv.values
                        out_case["flagged"] = (np.zeros(dataset.n, dtype=bool)
                                               if pv.flagged is None else pv.flagged)
        dump.update({f"{i}/{field}": value for field, value in out_case.items()})
    np.savez(out, **dump)


def _compare(cases, dumps) -> list:
    """Print each case whose fields differ from the first tree's, bit for bit,
    then one summary line per differing field."""
    import numpy as np

    labels = list(dumps)
    loaded = {label: np.load(path) for label, path in dumps.items()}
    keys = {label: set(d.files) for label, d in loaded.items()}
    # per (label, field): cases, values, and the largest absolute and relative gap
    totals = {}
    try:
        differing = []
        for i, case in enumerate(cases):
            fields = {label: {f: d[f"{i}/{f}"] for f in FIELDS if f"{i}/{f}" in keys[label]}
                      for label, d in loaded.items()}
            first = fields[labels[0]]
            for label in labels[1:]:
                other = fields[label]
                changed = [f for f in FIELDS if (f in first) != (f in other)
                           or f in first and not _same(first[f], other[f])]
                if changed:
                    differing.append(case["name"])
                    print(f"{case['name']}: {labels[0]} -> {label}: "
                          + "; ".join(_describe(f, first.get(f), other.get(f)) for f in changed))
                for f in changed:
                    count, *gaps = _gaps(first.get(f), other.get(f))
                    total = totals.setdefault((label, f), [0, 0, np.nan, np.nan])
                    total[:] = [total[0] + 1, total[1] + count, *np.fmax(total[2:], gaps)]
    finally:
        for d in loaded.values():
            d.close()
    for (label, field), (count, values, absolute, relative) in totals.items():
        gap = "" if np.isnan(absolute) else (f", largest gap {absolute:.3e} absolute,"
                                             f" {relative:.3e} relative")
        print(f"{labels[0]} -> {label}: {field}: {count} cases, {values} values{gap}")
    return differing


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _gaps(a, b):
    """How many values of one field differ between two dumps, and for float
    arrays of one shape the largest absolute and relative gap between two
    finite values that differ (NaN when there is none); the relative gap is
    taken to the larger magnitude of the two. A field missing from a dump,
    or of another shape, counts every value of the larger."""
    import numpy as np

    if a is None or b is None or a.shape != b.shape:
        return max(np.size(a), np.size(b)), np.nan, np.nan  # np.size(None) is 1
    if a.dtype.kind != "f" or b.dtype.kind != "f":
        return np.count_nonzero(a != b), np.nan, np.nan
    unequal = a.view(np.uint64) != b.view(np.uint64)
    both = unequal & np.isfinite(a) & np.isfinite(b)
    if not both.any():
        return np.count_nonzero(unequal), np.nan, np.nan
    gap = np.abs(a[both] - b[both])
    scale = np.maximum(np.abs(a[both]), np.abs(b[both]))
    with np.errstate(invalid="ignore"):
        relative = np.where(gap > 0, gap / scale, 0.0)
    return np.count_nonzero(unequal), float(gap.max()), float(relative.max())


def _describe(field, a, b) -> str:
    """One field's change, short: scalars and error messages in full, flag
    masks by their flagged subjects, float arrays by how many values differ
    and the largest gap between two finite ones."""
    import numpy as np

    def show(x):
        if x is None:
            return "-"
        if x.ndim == 0:
            return str(x)
        if x.dtype == bool:
            return str(np.flatnonzero(x).tolist())
        return f"{x.size} values"

    if a is not None and b is not None and a.dtype.kind == "f" and a.shape == b.shape:
        count, gap, _ = _gaps(a, b)
        by = "" if np.isnan(gap) else f", by up to {gap:.3e}"
        return f"{field}: {count} of {a.size} differ{by}"
    return f"{field} {show(a)} -> {show(b)}"


if __name__ == "__main__":
    sys.exit(main())
