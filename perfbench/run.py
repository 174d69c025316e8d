"""Layered benchmark for pseudosurv.

Run from the repository root:

    python3 perfbench/run.py --workload rc-cli --seed 1 --seconds 20 --trace 0

Workloads are rc-cli, ic-fit and sim-small (see README.md beside this file).
One client drives the library in a closed loop: each public call starts after
the previous one returns. With ``--trace 0`` the run measures the end-to-end
metrics with the span recorder off; with ``--trace 1`` it runs one cycle of
passes with the recorder off and then the same cycle traced, and reports the
per-layer metrics and the tracing overhead. Either way it checks the outputs and exits
nonzero if the check fails. The last line of standard output is one JSON
object; the lines before it are a readable table and a JSON detail record
(provenance, sample counts, failures by type).

BLAS threads are capped at the number of CPUs the process may use, in the
runner's own environment, before numpy is imported.
"""

import os
import sys
import time

T_TOP = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_TOP = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("rc-cli", "ic-fit", "sim-small")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
SETUPS = 3
TAIL_BEYOND = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "pseudosurv" / "__init__.py").is_file():
        print(f"perfbench: no pseudosurv sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import pseudosurv  # noqa: F401  (its import time belongs to set-up)

    from spans import Recorder
    from workloads import WORKLOADS, GateError

    warnings.simplefilter("ignore")
    WORK.mkdir(exist_ok=True)
    tracing = bool(args.trace)
    rec = Recorder(tracing)
    workload = WORKLOADS[args.workload](args.seed, WORK, rec)
    try:
        outcome = _measure(workload, rec, args.seconds)
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.cleanup()
    outcome["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    kind = "per_layer" if tracing else "end_to_end"
    metrics = (_layer_metrics if tracing else _end_to_end_metrics)(outcome)
    # The table also prints pseudo_per_s, which BENCHMARK.json leaves out
    # (see README.md); every metric it lists must be computed here.
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    if not set(wanted) <= set(metrics):
        raise RuntimeError(f"{kind} in BENCHMARK.json lists metrics not computed here")
    result = {name: {"value": metrics[name][0], "unit": wanted[name]} for name in wanted}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": _provenance(args.seed, nproc),
        **{k: v for k, v in outcome.items() if k != "ledger"},
        "metrics": {name: {"value": v, "unit": u, "note": note}
                    for name, (v, u, note) in metrics.items()},
    }
    if tracing:
        rec.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, default=float)

    _print_table(detail, metrics)
    print(json.dumps(detail, default=float))
    print(json.dumps({"correct": True, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": result}))
    return 0


def _measure(workload, rec, budget):
    """Set up, run the timed cycles, then the untimed tail and the checks."""
    from spans import Ledger
    from workloads import GateError

    ready = AGE_AT_TOP + (time.perf_counter() - T_TOP)
    setups = []
    rec.pass_id = "setup"
    tracing = rec.enabled
    for i in range(SETUPS):
        # Traced runs set up as often as untraced ones, so that their
        # untraced cycle starts from the same state; only the last set-up
        # is traced.
        rec.enabled = tracing and i == SETUPS - 1
        start = time.perf_counter()
        workload.prepare()
        setups.append(ready + time.perf_counter() - start)
    if len(set(workload.input_digests)) != 1:
        raise GateError("the same seed gave different inputs")

    cycles = []
    steal = _host_steal_seconds()
    if tracing:
        # One cycle with the recorder off, then the same cycle traced; the
        # difference is the tracing overhead.
        rec.enabled = False
        cycles.append(_cycle(workload, Ledger(rec)))
        rec.enabled = True
        cycles.append(_cycle(workload, Ledger(rec)))
    else:
        while True:
            cycles.append(_cycle(workload, Ledger(rec)))
            spent = sum(c["seconds"] for c in cycles)
            if spent + statistics.median(c["seconds"] for c in cycles) > budget:
                break
    steal = _host_steal_seconds() - steal
    first = cycles[0]["ledger"].signature()
    if any(c["ledger"].signature() != first for c in cycles[1:]):
        raise GateError("repeating a cycle on the same inputs changed its calls or counts")

    led = cycles[-1]["ledger"]
    rec.pass_id = "tail"
    tail_start = time.perf_counter()
    workload.finish(led)
    tail_seconds = time.perf_counter() - tail_start
    if tracing:
        rec.pass_id = "probe"
        workload.probe(led)
    return {
        "stated_n": workload.stated_n,
        "setup_samples": setups,
        "cycle_seconds": [c["seconds"] for c in cycles],
        "pass_seconds": [t for c in cycles for t in c["passes"]],
        "pass_cpu_seconds": workload.pass_cpu,
        "untimed_tail_seconds": tail_seconds,
        "host_steal_seconds": steal,
        "delivered_per_cycle": workload.delivered,
        "attempted": led.attempted,
        "failed": led.failed,
        "failures": dict(led.failures),
        "counts": dict(led.counts),
        "gaps": dict(led.gaps),
        "ledger": led,
    }


def _host_steal_seconds() -> float:
    """CPU time the hypervisor took from the host's CPUs, summed, from /proc."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def _cycle(workload, led):
    passes = workload.cycle(led)
    return {"seconds": sum(passes), "passes": passes, "ledger": led}


def _end_to_end_metrics(o):
    passes = o["pass_seconds"]
    wall = statistics.median(o["cycle_seconds"])
    tail, level, applies = _tail(passes)
    return {
        "setup_s": (statistics.median(o["setup_samples"]), "s",
                    f"median of {len(o['setup_samples'])} set-ups"),
        "wall_s": (wall, "s", f"median of {len(o['cycle_seconds'])} cycles"),
        "pseudo_per_s": (o["delivered_per_cycle"] / wall, "1/s",
                         f"{o['delivered_per_cycle']} pseudo values per cycle, n={o['stated_n']}"),
        "pass_p50_s": (statistics.median(passes), "s", f"{len(passes)} passes"),
        "pass_tail_s": (tail, "s", f"p{level:.1f} of {len(passes)} passes" + (
            "" if applies else f"; fewer than {TAIL_BEYOND + 1} passes, so the maximum")),
        "peak_rss_mb": (o["peak_rss_mb"], "MB", "ru_maxrss of the run's process"),
    }


def _tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, False
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, True


SPAN_METRICS = {
    "data.load_s": "data.load",
    "data.build_s": "data.build",
    "data.save_s": "data.save",
    "cli.pseudo_s": "cli.pseudo",
    "cli.regress_s": "cli.regress",
    "km.fit_s": "km.fit",
    "km.pseudo_rmst_s": "km.pseudo_rmst",
    "pch.prepare_s": "pch.prepare",
    "pch.loglik_parts_s": "pch.loglik_parts",
    "pch.score_matrix_s": "pch.score_matrix",
    "fitting.fit_s": "fitting.fit",
    "fitting.info_factor_s": "fitting.info_factor",
    "parametric.pseudo_rmst_s": "parametric.pseudo_rmst",
    "parametric.pseudo_surv_s": "parametric.pseudo_surv",
    "jackknife.pch_s": "jackknife.pch",
    "jackknife.km_s": "jackknife.km",
    "gee.fit_s": "gee.fit",
    "simulate.generate_s": "simulate.generate",
}
COUNT_METRICS = {
    "km.event_times": "count",
    "pch.kernel_bytes": "B",
    "fitting.iterations": "count",
    "fitting.fail": "count",
    "jackknife.flagged": "count",
    "jackknife.over_tol": "count",
    "gee.iterations": "count",
    "gee.fail": "count",
    "simulate.excluded": "count",
}


def _layer_metrics(o):
    """Per-layer self times (seconds per cycle, set-up and tail included)
    and counts from public result fields; a layer the workload does not
    call reads 0."""
    self_time = o["ledger"].rec.self_times()
    o["self_seconds"] = dict(self_time)
    out = {name: (float(self_time[span]), "s", "self time")
           for name, span in SPAN_METRICS.items()}
    counts = o["counts"]
    for name, unit in COUNT_METRICS.items():
        out[name] = (counts.get(name, 0), unit,
                     "computed from array sizes" if unit == "B" else "from result fields")
    load = self_time["data.load"]
    out["data.load_rows_per_s"] = (o["stated_n"] / load if load else 0.0, "1/s",
                                   "rows per second of data.load")
    replayed = sum(self_time[s] for s in ("data.load", "km.fit", "km.pseudo_rmst", "gee.fit"))
    cli_time = self_time["cli.pseudo"] + self_time["cli.regress"]
    out["cli.self_s"] = (cli_time - replayed if cli_time else 0.0, "s",
                         "cli main spans less the library replay of their steps")
    refits = counts.get("jackknife.refits", 0)
    out["jackknife.refit_s"] = (self_time["jackknife.pch"] / refits if refits else 0.0, "s",
                                f"jackknife.pch_s over {refits} leave-one-out refits")
    out["parametric.mean_gap"] = (o["gaps"].get("parametric.mean_gap", 0.0), "abs",
                                  "max |mean pseudo - plug-in|")
    out["jackknife.max_gap"] = (o["gaps"].get("jackknife.max_gap", 0.0), "abs",
                                "max fast vs jackknife coefficient gap")
    untraced, traced = o["cycle_seconds"]
    out["trace.overhead_s"] = (traced - untraced, "s",
                               f"traced cycle {traced:.4f} s less untraced {untraced:.4f} s")
    spans = o["ledger"].rec.spans
    o["recorder_cost_seconds"] = len(spans) * o["ledger"].rec.seconds_per_span()
    o["spans_recorded"] = len(spans)
    return out


def _print_table(detail, metrics):
    head = (f"perfbench {detail['workload']} seed={detail['seed']} n={detail['stated_n']} "
            f"cycles={len(detail['cycle_seconds'])} passes={len(detail['pass_seconds'])} "
            "(closed loop, one client)")
    print(head)
    if detail["trace"]:
        untraced, traced = detail["cycle_seconds"]
        print(f"  tracing overhead {traced - untraced:+.4f} s "
              f"(traced cycle {traced:.4f} s, untraced {untraced:.4f} s); the recorder's "
              f"own cost is {detail['recorder_cost_seconds']:.6f} s for "
              f"{detail['spans_recorded']} spans in the run; the rest is cycle-to-cycle noise")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {unit:<6} {note}")
    failures = ", ".join(f"{k} {v}" for k, v in sorted(detail["failures"].items())) or "none"
    print(f"  {'fail_share':<26} {detail['failed'] / detail['attempted']:>16.6g} {'':<6} "
          f"{detail['failed']}/{detail['attempted']} calls failed: {failures}")
    print(f"  correctness                ok; mean gaps {detail['gaps']}")


def _provenance(seed, nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "seed": seed,
        "nproc": nproc,
        "cpu": _lscpu(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(top):
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _lscpu():
    keys = ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache")
    try:
        done = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    out = {}
    for line in done.stdout.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            out[key.strip()] = value.strip()
    return out


if __name__ == "__main__":
    sys.exit(main())
