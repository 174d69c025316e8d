"""Seconds per stage of the ``pseudo`` command, for one or more source trees.

Run from the repository root, for example to compare a checkout of the
parent commit with this one:

    python tools/bench_cli.py --kind rc --tree parent=../parent/src --tree change=src \
        --n 1000 10000 100000 1000000 --seeds 1 2 3 --out BENCH_rc_cli.json
    python tools/bench_cli.py --kind ic1 ic2 --tree parent=../parent/src --tree change=src \
        --n 1000 10000 100000 1000000 --seeds 1 2 3 --out BENCH_ic_cli.json

For each kind, n and seed, the scenario is generated once and saved as CSV
(for rc, with its covariates less the intercept column as a second CSV).
Each tree then runs, in a fresh process and trees alternating, the stages of
``pseudosurv pseudo --target rmst --method fast`` at the scenario's tau
(rc and ic1: 6, ic2: inf; ic at the scenario's cuts):

- ``load``: ``load_right_censored_dataset`` or ``load_interval_dataset``;
- rc: ``km_fit``, then ``pseudo_map``, ``km_pseudo_rmst``;
- ic: ``prepare``, ``prepare_likelihood`` on the grid, then ``fit``,
  ``fit_pch``, then ``pseudo_map``, ``pseudo_rmst``;
- ``format``: the ``id,pseudo`` text, made by the tree's bulk writer
  ``data._csv``;
- ``write``: writing that text to a file;
- ``cli``: the whole command through ``cli.main``, for reference;
- rc only, ``regress``: ``cli.main`` running ``regress --intercept`` on that
  command's ``id,pseudo`` output and the covariates CSV.

Every stage is timed with ``simulate._timed``; a run repeats the stages
``--repeat`` times and keeps each stage's median. The trees' outputs must
agree: for rc the digests of the ``id,pseudo`` and ``regress`` outputs are
equal; for ic the pseudo values of the command's output differ between the
trees by at most ``DIGIT_UNITS`` units in the last printed digit (the 12th
significant one) of the largest value. The JSON records the largest
difference, ``max_abs_diff``, and the same in those units,
``max_digit_units``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

STAGES = {"rc": ("load", "km_fit", "pseudo_map", "format", "write", "cli", "regress"),
          "ic": ("load", "prepare", "fit", "pseudo_map", "format", "write", "cli")}
TAU = {"rc": 6.0, "ic1": 6.0, "ic2": math.inf}
# The command writes pseudo values with %.12g. Trees whose fits agree to
# rounding print the same digits up to a few units in the last one of the
# largest value; a value near zero, a difference of larger terms, shares
# that absolute rounding, not its own last digit's.
PRINTED_DIGITS = 12
DIGIT_UNITS = 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kind", nargs="+", choices=sorted(TAU), default=["rc"])
    parser.add_argument("--tree", action="append",
                        help="LABEL=SRC: a label and the src directory holding its pseudosurv")
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 10_000, 100_000, 1_000_000])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_cli.json")
    parser.add_argument("--worker", nargs=5, metavar=("SRC", "KIND", "CSV", "COVARIATES", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(_run_stages(*args.worker, args.repeat)))
        return 0
    if not args.tree:
        parser.error("give at least one --tree LABEL=SRC")

    trees = dict(t.split("=", 1) for t in args.tree)
    here = str(Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, here)
    from pseudosurv import ScenarioConfig, generate, save_dataset

    runs = []
    with tempfile.TemporaryDirectory() as work:
        for kind in args.kind:
            for n in args.n:
                for seed in args.seeds:
                    data, covariates = Path(work) / "data.csv", Path(work) / "covariates.csv"
                    dataset = generate(ScenarioConfig(kind, n, seed=seed))
                    save_dataset(dataset, data)
                    if kind == "rc":
                        _save_covariates(dataset, covariates)
                    del dataset
                    outputs = {}
                    for label, src in trees.items():
                        outputs[label] = Path(work) / f"pseudo-{len(outputs)}.csv"
                        out = subprocess.run(
                            [sys.executable, __file__, "--repeat", str(args.repeat), "--worker",
                             os.path.abspath(src), kind, str(data), str(covariates),
                             str(outputs[label])],
                            check=True, capture_output=True, text=True,
                        ).stdout
                        record = json.loads(out.strip().splitlines()[-1])
                        runs.append({"tree": label, "kind": kind, "n": n, "seed": seed, **record})
                        print(kind, label, n, seed,
                              {k: round(v, 4) for k, v in record["seconds"].items()},
                              file=sys.stderr)
                    _check_agreement(runs[-len(trees):], outputs, kind)
                    for path in outputs.values():
                        path.unlink()

    Path(args.out).write_text(json.dumps(_report(args, list(trees), runs), indent=1) + "\n")
    return 0


def _check_agreement(runs, outputs, kind):
    """rc: equal output digests; ic: pseudo values within ``DIGIT_UNITS``
    units in the last printed digit of the largest value."""
    where = f"{kind} n={runs[0]['n']} seed={runs[0]['seed']}"
    if kind == "rc":
        for output in ("output_sha256", "regress_sha256"):
            digests = {r["tree"]: r[output] for r in runs}
            if len(set(digests.values())) != 1:
                raise SystemExit(f"{where}: {output} differs between trees: {digests}")
        return
    import numpy as np

    values = [np.loadtxt(path, delimiter=",", skiprows=1, usecols=1) for path in outputs.values()]
    gap = max(float(np.max(np.abs(v - values[0]))) for v in values)
    scale = max(float(np.max(np.abs(v))) for v in values)
    units = gap / 10.0 ** (math.floor(math.log10(scale)) - (PRINTED_DIGITS - 1)) if gap else 0.0
    for r in runs:
        r["max_abs_diff"] = gap
        r["max_digit_units"] = units
    if not units <= DIGIT_UNITS:
        raise SystemExit(f"{where}: pseudo values differ between trees by {gap:.3e},"
                         f" {units:.1f} units in the last printed digit of the largest")


def _save_covariates(dataset, path):
    """The covariates less the intercept column, as ``regress --intercept`` reads them."""
    import numpy as np

    names = ",".join(dataset.covariate_names[1:])
    np.savetxt(path, dataset.covariates[:, 1:], fmt="%d", delimiter=",", header=names,
               comments="")


def _run_stages(src, kind, csv_path, covariates_path, out_path, repeat):
    sys.path.insert(0, src)
    import numpy as np

    from pseudosurv import CutGrid, ScenarioConfig, cli, data
    from pseudosurv.simulate import _timed

    family = "rc" if kind == "rc" else "ic"
    tau = TAU[kind]
    regress_path = str(Path(out_path).with_suffix(".regress.csv"))

    def format_text(values):
        return list(data._csv("id,pseudo\n", "%d,%.12g\n", np.arange(1, values.size + 1), values))

    def write(pieces):
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)

    if family == "rc":
        from pseudosurv import km_fit, km_pseudo_rmst, load_right_censored_dataset

        def estimate(samples):
            dataset, seconds = _timed(load_right_censored_dataset, csv_path)
            samples["load"].append(seconds)
            km, seconds = _timed(km_fit, dataset)
            samples["km_fit"].append(seconds)
            pv, seconds = _timed(km_pseudo_rmst, km, tau)
            samples["pseudo_map"].append(seconds)
            return pv
        flags = ["--kind", "rc"]
    else:
        from pseudosurv import fit_pch, load_interval_dataset, pseudo_rmst
        from pseudosurv.pch import prepare_likelihood

        cuts = ScenarioConfig(kind, 1000).cuts
        grid = CutGrid(cuts)

        def estimate(samples):
            dataset, seconds = _timed(load_interval_dataset, csv_path)
            samples["load"].append(seconds)
            samples["prepare"].append(_timed(prepare_likelihood, dataset, grid)[1])
            fit, seconds = _timed(fit_pch, dataset, grid)
            samples["fit"].append(seconds)
            pv, seconds = _timed(pseudo_rmst, fit, dataset, tau)
            samples["pseudo_map"].append(seconds)
            return pv
        flags = ["--kind", "ic", "--cuts", ",".join(f"{c:g}" for c in cuts)]

    samples = {stage: [] for stage in STAGES[family]}
    for _ in range(repeat):
        pv = estimate(samples)
        pieces, seconds = _timed(format_text, pv.values)
        samples["format"].append(seconds)
        samples["write"].append(_timed(write, pieces)[1])
        del pv, pieces
        argv = ["pseudo", "--data", csv_path, *flags, "--target", "rmst", "--tau", str(tau),
                "--out", out_path]
        code, seconds = _timed(cli.main, argv)
        if code != 0:
            raise SystemExit(f"pseudo exited with {code}")
        samples["cli"].append(seconds)
        if family == "rc":
            argv = ["regress", "--pseudo", out_path, "--covariates", covariates_path,
                    "--intercept", "--out", regress_path]
            code, seconds = _timed(cli.main, argv)
            if code != 0:
                raise SystemExit(f"regress exited with {code}")
            samples["regress"].append(seconds)
    record = {"seconds": {k: statistics.median(v) for k, v in samples.items()},
              "output_sha256": hashlib.sha256(Path(out_path).read_bytes()).hexdigest()}
    if family == "rc":
        record["regress_sha256"] = hashlib.sha256(Path(regress_path).read_bytes()).hexdigest()
        os.unlink(regress_path)
    return record


def _report(args, labels, runs):
    import numpy

    medians = {}
    for kind in args.kind:
        stages = STAGES["rc" if kind == "rc" else "ic"]
        for label in labels:
            for n in args.n:
                rows = [r["seconds"] for r in runs
                        if r["tree"] == label and r["kind"] == kind and r["n"] == n]
                medians.setdefault(kind, {}).setdefault(label, {})[str(n)] = {
                    stage: round(statistics.median(row[stage] for row in rows), 6)
                    for stage in stages
                }
    return {
        "what": "seconds per stage of `pseudosurv pseudo --target rmst --method fast` at the "
                "scenario's tau (rc and ic1: 6, ic2: inf), and for rc of `regress --intercept` "
                "on its output and the covariates, per scenario and source tree",
        "stages": {kind: list(STAGES["rc" if kind == "rc" else "ic"]) for kind in args.kind},
        "timer": "pseudosurv.simulate._timed",
        "repeat": args.repeat,
        "seeds": args.seeds,
        "machine": {
            "cpus": os.cpu_count(),
            "processor": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "median_over_seeds": medians,
        "runs": [
            {**r, "seconds": {k: round(v, 6) for k, v in r["seconds"].items()}} for r in runs
        ],
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
