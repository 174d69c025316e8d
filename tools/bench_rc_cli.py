"""Seconds per stage of the rc ``pseudo`` path, for one or more source trees.

Run from the repository root, for example to compare a checkout of the
parent commit with this one:

    python tools/bench_rc_cli.py --tree parent=../parent/src --tree change=src \
        --n 1000 10000 100000 1000000 --seeds 1 2 3 --out BENCH_rc_cli.json

For each n and seed, the rc scenario is generated once and saved as CSV.
Each tree then runs, in a fresh process and trees alternating, the stages
of ``pseudosurv pseudo --kind rc --target rmst --tau 6 --method fast``:

- ``load``: ``load_right_censored_dataset`` on the CSV;
- ``km_fit``: ``km_fit`` on the loaded dataset;
- ``pseudo_map``: ``km_pseudo_rmst`` at tau = 6;
- ``format``: the ``id,pseudo`` text, made as the tree's CLI makes it;
- ``write``: writing that text to a file;
- ``cli``: the whole command through ``cli.main``, for reference.

Every stage is timed with ``simulate._timed``; a run repeats the stages
``--repeat`` times and keeps each stage's median. The JSON also holds the
digest of each tree's output, which must agree across trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

STAGES = ("load", "km_fit", "pseudo_map", "format", "write", "cli")
TAU = 6.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append",
                        help="LABEL=SRC: a label and the src directory holding its pseudosurv")
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 10_000, 100_000, 1_000_000])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_rc_cli.json")
    parser.add_argument("--worker", nargs=3, metavar=("SRC", "CSV", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        src, csv_path, out_path = args.worker
        print(json.dumps(_run_stages(src, csv_path, out_path, args.repeat)))
        return 0
    if not args.tree:
        parser.error("give at least one --tree LABEL=SRC")

    trees = dict(t.split("=", 1) for t in args.tree)
    here = str(Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, here)
    from pseudosurv import ScenarioConfig, generate, save_dataset

    runs = []
    with tempfile.TemporaryDirectory() as work:
        for n in args.n:
            for seed in args.seeds:
                data = Path(work) / "data.csv"
                save_dataset(generate(ScenarioConfig("rc", n, seed=seed)), data)
                for label, src in trees.items():
                    out = subprocess.run(
                        [sys.executable, __file__, "--repeat", str(args.repeat),
                         "--worker", os.path.abspath(src), str(data),
                         str(Path(work) / "pseudo.csv")],
                        check=True, capture_output=True, text=True,
                    ).stdout
                    record = json.loads(out.strip().splitlines()[-1])
                    runs.append({"tree": label, "n": n, "seed": seed, **record})
                    print(label, n, seed, {k: round(v, 4) for k, v in record["seconds"].items()},
                          file=sys.stderr)
                digests = {r["tree"]: r["output_sha256"] for r in runs[-len(trees):]}
                if len(set(digests.values())) != 1:
                    raise SystemExit(f"n={n} seed={seed}: outputs differ between trees: {digests}")

    Path(args.out).write_text(json.dumps(_report(args, list(trees), runs), indent=1) + "\n")
    return 0


def _run_stages(src, csv_path, out_path, repeat):
    sys.path.insert(0, src)
    import numpy as np

    from pseudosurv import cli, km_fit, km_pseudo_rmst, load_right_censored_dataset
    from pseudosurv.simulate import _timed

    def format_text(values):
        if hasattr(cli, "_csv"):
            return list(cli._csv("id,pseudo\n", "%d,%.12g\n", np.arange(1, values.size + 1), values))
        # The row-by-row formatting of earlier versions of the CLI.
        rows = enumerate(values.tolist(), start=1)
        return ["id,pseudo\n" + "".join([f"{i},{v:.12g}\n" for i, v in rows])]

    def write(pieces):
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)

    samples = {stage: [] for stage in STAGES}
    for _ in range(repeat):
        dataset, seconds = _timed(load_right_censored_dataset, csv_path)
        samples["load"].append(seconds)
        km, seconds = _timed(km_fit, dataset)
        samples["km_fit"].append(seconds)
        pv, seconds = _timed(km_pseudo_rmst, km, TAU)
        samples["pseudo_map"].append(seconds)
        del dataset, km
        pieces, seconds = _timed(format_text, pv.values)
        samples["format"].append(seconds)
        samples["write"].append(_timed(write, pieces)[1])
        del pv, pieces
        argv = ["pseudo", "--data", csv_path, "--kind", "rc", "--target", "rmst",
                "--tau", str(TAU), "--out", out_path]
        code, seconds = _timed(cli.main, argv)
        if code != 0:
            raise SystemExit(f"pseudo exited with {code}")
        samples["cli"].append(seconds)
    digest = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
    return {"seconds": {k: statistics.median(v) for k, v in samples.items()},
            "output_sha256": digest}


def _report(args, labels, runs):
    import numpy

    medians = {}
    for label in labels:
        for n in args.n:
            rows = [r["seconds"] for r in runs if r["tree"] == label and r["n"] == n]
            medians.setdefault(label, {})[str(n)] = {
                stage: round(statistics.median(row[stage] for row in rows), 6) for stage in STAGES
            }
    return {
        "what": "seconds per stage of `pseudosurv pseudo --kind rc --target rmst --tau 6 "
                "--method fast` on the rc scenario, per source tree",
        "stages": list(STAGES),
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
