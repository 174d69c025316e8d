"""Seconds per stage of the ``pseudo`` command, for one or more source trees.

Run from the repository root, for example to time this tree, or to compare
a checkout of the parent commit with it:

    python tools/bench_cli.py --kind rc ic1 ic2 --tree head=src
    python tools/bench_cli.py --kind rc --tree parent=../parent/src --tree change=src

For each kind, n and seed, the scenario is generated once and saved as CSV
(for rc, with its covariates less the intercept column as a second CSV).
Each tree then runs, in a fresh process and in the order of ``--tree``,
reversed on every other (kind, n, seed) cell,
``pseudosurv pseudo --target rmst --method fast`` at the scenario's tau and
cuts through ``cli.main``, ``--repeat`` times, with each call in ``CALLS``
wrapped so that ``simulate._timed`` times it where the command makes it:
``load``, then rc ``km_fit`` or ic ``fit`` (with ``prepare`` of the full
sample inside it; a pilot fit's prepare counts in ``fit`` alone),
``pseudo_map``, and ``output``, formatting and writing the ``id,pseudo``
text, which interleave (a lazy ``data._csv`` feeds ``cli._emit``).
``other`` is the rest of ``cli``, the whole command: argument parsing and
set-up. A call that does not run exactly once per command ends the tool
nonzero, naming its stage. For rc, ``regress`` is ``cli.main`` running
``regress --intercept`` on that output and the covariates. ``import`` is
the worker's seconds from its launch (the launcher's ``time.monotonic``,
which Linux shares between processes) until ``pseudosurv.cli`` is
imported: interpreter start-up, this tool's own imports and pseudosurv's,
the part of every command's wall time that comes before its work.

A run keeps each stage's median over the repeats; its ``peak_rss_mb``,
the worker's peak resident set in MB read after the stage's last call (for
``import`` once pseudosurv is imported, for ``cli`` after the last whole
command, for rc's ``regress`` after the last regression), which is the
peak of the process so far, earlier stages and the import included, not
of the stage alone; and ``python_share``,
the share of the pseudo values whose ``%.12g`` cell the tree leaves to
Python's ``%`` rather than numpy (1 for a tree that formats every cell in
Python). The peak is ``VmHWM`` from ``/proc/self/status`` (so Linux only),
not ``ru_maxrss``: Linux carries the launching process's peak over into
``ru_maxrss`` through exec, so a worker would read at least the peak of
this tool's own process, which generates the data. The trees' outputs
must agree: for rc the digests of the ``id,pseudo`` and ``regress``
outputs are equal; for ic the pseudo values differ between the trees by
at most ``DIGIT_UNITS`` units in the last printed digit (the 12th
significant one) of the largest value. The JSON
records the largest difference, ``max_abs_diff``, and the same in those
units, ``max_digit_units``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import pkgutil
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

# Each timed stage of `pseudo` and the call that makes it, by the module of
# pseudosurv that looks it up. The calls looked up in `cli` are the
# command's own and do not overlap; `prepare` runs inside `fit`.
CALLS = {
    "rc": {"load": "cli.load_right_censored_dataset", "km_fit": "cli.km_fit",
           "pseudo_map": "cli.km_pseudo_rmst", "output": "cli._emit"},
    "ic": {"load": "cli.load_interval_dataset", "prepare": "fitting.prepare_likelihood",
           "fit": "cli.fit_pch", "pseudo_map": "cli.pseudo_rmst", "output": "cli._emit"},
}
STAGES = {"rc": ("import", *CALLS["rc"], "other", "cli", "regress"),
          "ic": ("import", *CALLS["ic"], "other", "cli")}
# The command writes pseudo values with %.12g. Trees whose fits agree to
# rounding print the same digits up to a few units in the last one of the
# largest value; a value near zero, a difference of larger terms, shares
# that absolute rounding, not its own last digit's.
PRINTED_DIGITS = 12
DIGIT_UNITS = 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kind", nargs="+", choices=["rc", "ic1", "ic2"], default=["rc"])
    parser.add_argument("--tree", action="append",
                        help="LABEL=SRC: a label and the src directory holding its pseudosurv")
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 10_000, 100_000, 1_000_000])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_cli.json")
    parser.add_argument("--worker", nargs=7,
                        metavar=("SRC", "KIND", "N", "CSV", "COVARIATES", "OUT", "LAUNCHED"),
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
    cells = itertools.product(args.kind, args.n, args.seeds)
    with tempfile.TemporaryDirectory() as work:
        for cell, (kind, n, seed) in enumerate(cells):
            data, covariates = Path(work) / "data.csv", Path(work) / "covariates.csv"
            dataset = generate(ScenarioConfig(kind, n, seed=seed))
            save_dataset(dataset, data)
            if kind == "rc":
                _save_covariates(dataset, covariates)
            del dataset
            outputs = {}
            order = list(trees.items())
            if cell % 2:
                # every other cell runs the trees last to first, so that an
                # order effect falls on every tree alike
                order.reverse()
            for label, src in order:
                outputs[label] = Path(work) / f"pseudo-{len(outputs)}.csv"
                out = subprocess.run(
                    [sys.executable, __file__, "--repeat", str(args.repeat), "--worker",
                     os.path.abspath(src), kind, str(n), str(data), str(covariates),
                     str(outputs[label]), repr(time.monotonic())],
                    check=True, stdout=subprocess.PIPE, text=True,
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


def _run_stages(src, kind, n, csv_path, covariates_path, out_path, launched, repeat):
    sys.path.insert(0, src)
    from pseudosurv import ScenarioConfig, cli, data
    from pseudosurv.simulate import _timed

    imported = time.monotonic() - float(launched)

    family = "rc" if kind == "rc" else "ic"
    config = ScenarioConfig(kind, int(n))
    cuts = ["--cuts", ",".join(f"{c:g}" for c in config.cuts)] if config.cuts else []
    pseudo = ["pseudo", "--data", csv_path, "--kind", family, *cuts, "--target", "rmst",
              "--tau", str(config.tau), "--out", out_path]
    regress_path = str(Path(out_path).with_suffix(".regress.csv"))
    regress = ["regress", "--pseudo", out_path, "--covariates", covariates_path, "--intercept",
               "--out", regress_path]

    def run(argv):
        code, seconds = _timed(cli.main, argv)
        if code != 0:
            raise SystemExit(f"{argv[0]} exited with {code}")
        return seconds

    def timing(stage, call):
        def timed(*args, **kwargs):
            if stage == "prepare" and args[0].n != int(n):
                # a pilot fit's own prepare, timed inside `fit` only
                return call(*args, **kwargs)
            result, seconds = _timed(functools.partial(call, *args, **kwargs))
            samples[stage].append(seconds)
            peaks[stage] = _peak_rss_mb()
            if stage == "pseudo_map":
                pseudo_values[:] = [result.values]
            return result
        return timed

    samples = {stage: [] for stage in STAGES[family]}
    samples["import"].append(imported)
    peaks = {"import": _peak_rss_mb()}
    pseudo_values = []
    own = [stage for stage, call in CALLS[family].items() if call.startswith("cli.")]
    with ExitStack() as patches:
        for stage, call in CALLS[family].items():
            target = f"pseudosurv.{call}"
            patches.enter_context(mock.patch(target, timing(stage, pkgutil.resolve_name(target))))
        for _ in range(repeat):
            samples["cli"].append(run(pseudo))
            peaks["cli"] = _peak_rss_mb()
            for stage in CALLS[family]:
                if len(samples[stage]) != len(samples["cli"]):
                    raise SystemExit(f"stage {stage} did not run exactly once in a pseudo command")
            samples["other"].append(samples["cli"][-1] - sum(samples[s][-1] for s in own))
    if family == "rc":
        samples["regress"] = [run(regress) for _ in range(repeat)]
        peaks["regress"] = _peak_rss_mb()
    # A tree without data._fixed formats every pseudo value with Python's %.
    fixed = getattr(data, "_fixed", None)
    record = {"seconds": {k: statistics.median(v) for k, v in samples.items()},
              "peak_rss_mb": {k: round(peaks[k], 1) for k in STAGES[family] if k in peaks},
              "output_sha256": hashlib.sha256(Path(out_path).read_bytes()).hexdigest(),
              "python_share": 1.0 if fixed is None else float(1.0 - fixed(pseudo_values[0])[0].mean())}
    if family == "rc":
        record["regress_sha256"] = hashlib.sha256(Path(regress_path).read_bytes()).hexdigest()
        os.unlink(regress_path)
    return record


def _peak_rss_mb():
    """The process's peak resident set so far, in MB: ``VmHWM``, given in kB."""
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


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
        "what": "seconds per stage of one `pseudosurv pseudo --target rmst --method fast` run "
                "through cli.main, each stage timed where the command calls it (`import`: from the "
                "worker's launch until pseudosurv.cli is imported; `output`: "
                "formatting and writing, which interleave; `other`: `cli` less the command's own "
                "stages), and for rc of `regress --intercept` on its output, per scenario and tree; "
                "`peak_rss_mb`: the worker's VmHWM after each stage's last call, the process "
                "peak so far rather than the stage's own; "
                "`python_share`: the share of pseudo values whose %.12g cell the tree formats with "
                "Python's % rather than numpy",
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
