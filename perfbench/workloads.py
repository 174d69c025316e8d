"""The three workloads: rc-cli, ic-fit and sim-small.

Each workload makes its inputs from the seed in ``prepare`` (which the
runner may call several times, to take a median set-up time), then runs a
fixed, seed-determined set of passes in ``cycle``. The runner repeats cycles
while its time budget lasts; every cycle repeats the same calls, so the
failure counts of one cycle are the run's counts. ``finish`` runs the
untimed tail of the pipeline and the correctness gate, and ``probe`` makes
the extra calls a traced run needs for its per-layer numbers.

Why each workload exists, and which layers it should move, is written down
in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from pseudosurv import (
    RMST,
    CutGrid,
    ScenarioConfig,
    fit_gee,
    fit_pch,
    generate,
    interval_dataset,
    jackknife_km,
    jackknife_pch,
    km_fit,
    km_pseudo_rmst,
    load_right_censored_dataset,
    monte_carlo,
    pseudo_rmst,
    pseudo_survival,
    right_censored_dataset,
    rmst_closed_form,
    save_dataset,
)
from pseudosurv import cli
from pseudosurv.errors import DidNotConverge
from pseudosurv.pch import loglik_parts, prepare_likelihood, score_matrix

from spans import PassStopped

# Acceptance criterion 1: the fast pseudo values average to the plug-in,
# within these absolute gaps for the KM and the PCH pseudo maps.
MEAN_GAP = {"km": 1e-12, "parametric": 1e-7}
# Acceptance criteria 2 and 3: fast and jackknife regression coefficients.
COEF_GAP = {"rc": 5e-3, "ic1": 1e-2}


class GateError(Exception):
    """An output is wrong; the run must exit nonzero."""


class Workload:
    name = ""
    stated_n = 0

    def __init__(self, seed: int, workdir: Path, recorder):
        self.seed = seed
        self.work = workdir
        self.rec = recorder
        self.input_digests = []
        self.delivered = 0
        self.pass_cpu = []

    def _pass(self, label: str, body):
        """Time one pass; a failed call ends it early."""
        self.rec.pass_id = label
        cpu = time.process_time()
        start = time.perf_counter()
        with self.rec.span("bench.pass"):
            try:
                body()
            except PassStopped:
                pass
        self.pass_cpu.append(time.process_time() - cpu)
        return time.perf_counter() - start

    def probe(self, led):
        pass

    def cleanup(self):
        pass


class RcCli(Workload):
    """rc scenario at n = 10^6 through the command line, as a user runs it."""

    name = "rc-cli"
    stated_n = 1_000_000
    tau = 6.0

    def __init__(self, seed, workdir, recorder):
        super().__init__(seed, workdir, recorder)
        self.data_csv = workdir / "rc-cli-data.csv"
        self.cov_csv = workdir / "rc-cli-covariates.csv"
        self.pseudo_csv = workdir / "rc-cli-pseudo.csv"
        self.regress_csv = workdir / "rc-cli-regress.csv"
        self.dataset = None
        self.output_digests = []
        self.pseudo_ok = False
        self.regress_failed = None

    def prepare(self):
        self.dataset = None
        with self.rec.span("simulate.generate"):
            dataset = generate(ScenarioConfig("rc", self.stated_n, seed=self.seed))
        with self.rec.span("data.save"):
            save_dataset(dataset, self.data_csv)
        _write_binary_covariates(dataset, self.cov_csv)
        self.dataset = dataset
        self.input_digests.append(
            (_sha256(self.data_csv), _sha256(self.cov_csv))
        )

    def cycle(self, led):
        self.pseudo_ok = False

        def body():
            led.call_cli("cli.pseudo", cli.main, [
                "pseudo", "--data", str(self.data_csv), "--kind", "rc",
                "--target", "rmst", "--tau", "6", "--method", "fast",
                "--out", str(self.pseudo_csv),
            ])
            self.pseudo_ok = True

        seconds = self._pass("cycle", body)
        if self.pseudo_ok:
            self.output_digests.append(_sha256(self.pseudo_csv))
        self.delivered = self.stated_n if self.pseudo_ok else 0
        return [seconds]

    def finish(self, led):
        """Check the CLI output, then run the regression step untimed."""
        if not self.pseudo_ok:
            return
        if len(set(self.output_digests)) != 1:
            raise GateError("pseudo CSV bytes differ between cycles")
        with self.rec.span("km.fit"):
            km = km_fit(self.dataset)
        with self.rec.span("km.pseudo_rmst"):
            pv = km_pseudo_rmst(km, self.tau)
        led.counts["km.event_times"] += km.event_times.size
        _check_mean_gap(led, "km", pv, km.rmst(self.tau))
        written = self.pseudo_csv.read_bytes()
        if written.count(b"\n") != self.stated_n + 1:
            raise GateError("pseudo CSV does not hold exactly n rows")
        expected = "id,pseudo\n" + "".join(
            f"{i},{v:.12g}\n" for i, v in enumerate(pv.values, start=1)
        )
        if written != expected.encode():
            raise GateError("pseudo CSV differs from the library's values")
        self._check_against_earlier_runs()
        self.regress_failed = True
        try:
            led.call_cli("cli.regress", cli.main, [
                "regress", "--pseudo", str(self.pseudo_csv),
                "--covariates", str(self.cov_csv), "--intercept",
                "--out", str(self.regress_csv),
            ])
            self.regress_failed = False
        except PassStopped:
            pass

    def _check_against_earlier_runs(self):
        """Same seed, same input bytes: the output bytes must match the
        last run in this checkout. Delete the state file after a change
        that is meant to alter the output."""
        state = self.work / f"rc-cli-seed{self.seed}.sha256"
        inputs = ",".join(self.input_digests[-1])
        output = self.output_digests[-1]
        if state.is_file():
            seen_inputs, seen_output = state.read_text(encoding="ascii").split()
            if seen_inputs == inputs and seen_output != output:
                raise GateError(f"pseudo CSV bytes differ from an earlier run ({state})")
        state.write_text(f"{inputs} {output}\n", encoding="ascii")

    def probe(self, led):
        """Replay the CLI's load and regression steps as library calls.

        The CLI's own time is its ``main`` spans less these replays (and the
        KM replay in ``finish``). The regression replay reads the same CSV
        cells the CLI reads, so its result must match the CLI's.
        """
        ds = self.dataset
        columns = (ds.times, ds.status, ds.covariates, ds.covariate_names)
        # Free the generated records before the load builds a second set.
        self.dataset = ds = None
        with self.rec.span("data.build"):
            right_censored_dataset(*columns)
        with self.rec.span("data.load"):
            load_right_censored_dataset(self.data_csv)
        if self.regress_failed is None:
            return
        y = np.loadtxt(self.pseudo_csv, delimiter=",", skiprows=1, usecols=1)
        z = np.loadtxt(self.cov_csv, delimiter=",", skiprows=1, ndmin=2)
        design = np.column_stack([np.ones(z.shape[0]), z])
        failed = False
        with self.rec.span("gee.fit"):
            try:
                led.counts["gee.iterations"] += fit_gee(y, design).iterations
            except DidNotConverge as exc:
                led.counts["gee.iterations"] += exc.iterations
                led.counts["gee.fail"] += 1
                failed = True
        if failed != self.regress_failed:
            raise GateError("regression replay disagrees with the CLI")

    def cleanup(self):
        for path in (self.data_csv, self.cov_csv, self.pseudo_csv, self.regress_csv):
            path.unlink(missing_ok=True)


class IcFit(Workload):
    """ic1 at n = 10^6 from arrays: the large-array Newton fit."""

    name = "ic-fit"
    stated_n = 1_000_000
    tau = 6.0
    t = 5.0

    def __init__(self, seed, workdir, recorder):
        super().__init__(seed, workdir, recorder)
        self.config = ScenarioConfig("ic1", self.stated_n, seed=seed)
        self.grid = CutGrid(self.config.cuts)
        self.columns = None
        self.last = None

    def prepare(self):
        self.columns = None
        with self.rec.span("simulate.generate"):
            ds = generate(self.config)
        self.columns = (ds.left, ds.right, ds.covariates, ds.covariate_names)
        self.input_digests.append(_array_digest(*self.columns[:3]))

    def cycle(self, led):
        self.last = None
        out = {}

        def body():
            ds = out["ds"] = led.call("data.build", interval_dataset, *self.columns)
            fit = out["fit"] = led.call("fitting.fit", fit_pch, ds, self.grid)
            led.counts["fitting.iterations"] += fit.iterations
            led.call("fitting.info_factor", lambda: fit.info_factor)
            out["rmst"] = led.call("parametric.pseudo_rmst", pseudo_rmst, fit, ds, self.tau)
            out["surv"] = led.call("parametric.pseudo_surv", pseudo_survival, fit, ds, self.t)

        seconds = self._pass("cycle", body)
        self.last = out
        self.delivered = self.stated_n * (("rmst" in out) + ("surv" in out))
        return [seconds]

    def finish(self, led):
        """Check mean preservation, then run the regression step untimed."""
        out = self.last
        if "surv" not in out:
            return
        model = out["fit"].model
        for pv, plug_in in ((out["rmst"], rmst_closed_form(model, self.tau)),
                            (out["surv"], float(model.survival(self.t)))):
            _check_mean_gap(led, "parametric", pv, plug_in)
        try:
            result = led.call("gee.fit", fit_gee, out["rmst"], out["ds"].covariates)
            led.counts["gee.iterations"] += result.iterations
        except PassStopped:
            pass

    def probe(self, led):
        out = self.last
        if "fit" in out:
            _probe_kernel(self.rec, led, out["ds"], out["fit"])


class SimSmall(Workload):
    """The paper's simulation study at small n, one replication per pass."""

    name = "sim-small"
    # Replications per cycle. Pass times vary with the data (ic2 Newton
    # counts run from 9 to the 200-iteration cap), so wall_s and pass_tail_s
    # need many distinct replications to agree across seeds; 120 take about
    # 23 s, one cycle per run.
    reps = 120
    # monte_carlo repeats a cycle's work, so the exclusion check covers the
    # first check_reps replications: SeedSequence.spawn(k) yields the first
    # k streams of spawn(reps), so these are the same datasets.
    check_reps = 40
    # scenario: (n, methods); every scenario draws replication r from the
    # r-th spawned stream of the seed, as monte_carlo does.
    plan = {"rc": (500, ("fast", "jackknife")),
            "ic1": (200, ("fast", "jackknife")),
            "ic2": (1000, ("fast",))}
    stated_n = sum(n for n, _ in plan.values())

    def __init__(self, seed, workdir, recorder):
        super().__init__(seed, workdir, recorder)
        self.configs = {s: ScenarioConfig(s, n, seed=seed) for s, (n, _) in self.plan.items()}
        self.replications = None
        self.outcomes = []
        self.fits = []
        self.coef_gaps = {}

    def prepare(self):
        self.replications = None
        streams = np.random.SeedSequence(self.seed).spawn(self.reps)
        replications = []
        for stream in streams:
            rep = {}
            for scenario, config in self.configs.items():
                with self.rec.span("simulate.generate"):
                    rep[scenario] = generate(config, seed=stream)
            replications.append(rep)
        self.replications = replications
        self.input_digests.append(_array_digest(*(
            np.concatenate([getattr(rep[s], a) for rep in replications])
            for s, a in (("rc", "times"), ("ic1", "left"), ("ic1", "right"),
                         ("ic2", "left"), ("ic2", "right"))
        )))

    def cycle(self, led):
        self.outcomes = []
        self.fits = []
        self.coef_gaps = {"rc": [], "ic1": []}
        self.delivered = 0
        times = []
        for r, rep in enumerate(self.replications):
            outcome = {}

            def body():
                # Each dataset's pipeline stops at its own first failure;
                # the other datasets of the replication still run.
                outcome["rc"] = self._rc(led, rep["rc"])
                for scenario in ("ic1", "ic2"):
                    outcome[scenario] = self._ic(led, scenario, rep[scenario])

            times.append(self._pass(f"rep{r}", body))
            self.outcomes.append(outcome)
        return times

    def _rc(self, led, ds):
        tau = self.configs["rc"].tau
        try:
            km = led.call("km.fit", km_fit, ds)
        except PassStopped:
            return {"fast": "fail", "jackknife": "fail"}
        led.counts["km.event_times"] += km.event_times.size
        try:
            pv = led.call("km.pseudo_rmst", km_pseudo_rmst, km, tau)
            _check_mean_gap(led, "km", pv, km.rmst(tau))
            fast = self._gee(led, pv, ds)
        except PassStopped:
            return {"fast": "fail", "jackknife": "skip"}
        try:
            jack = self._gee(led, led.call("jackknife.km", jackknife_km, ds, RMST, tau), ds)
        except PassStopped:
            return {"fast": "ok", "jackknife": "fail"}
        self._check_coefficients(led, "rc", fast, jack)
        return {"fast": "ok", "jackknife": "ok"}

    def _ic(self, led, scenario, ds):
        config = self.configs[scenario]
        grid = CutGrid(config.cuts)
        with_jackknife = "jackknife" in self.plan[scenario][1]
        fast_failed = {"fast": "fail", "jackknife": "skip"} if with_jackknife else {"fast": "fail"}
        try:
            fit = led.call("fitting.fit", fit_pch, ds, grid)
        except PassStopped:
            return dict.fromkeys(fast_failed, "fail")
        led.counts["fitting.iterations"] += fit.iterations
        self.fits.append((ds, fit))
        try:
            led.call("fitting.info_factor", lambda: fit.info_factor)
            pv = led.call("parametric.pseudo_rmst", pseudo_rmst, fit, ds, config.tau)
            _check_mean_gap(led, "parametric", pv, rmst_closed_form(fit.model, config.tau))
            fast = self._gee(led, pv, ds)
        except PassStopped:
            return fast_failed
        if not with_jackknife:
            return {"fast": "ok"}
        led.counts["jackknife.refits"] += ds.n
        try:
            pj = led.call("jackknife.pch", jackknife_pch, ds, grid, RMST, config.tau, fit=fit)
            jack = self._gee(led, pj, ds)
        except PassStopped:
            return {"fast": "ok", "jackknife": "fail"}
        self._check_coefficients(led, scenario, fast, jack)
        return {"fast": "ok", "jackknife": "ok"}

    def _gee(self, led, pv, ds):
        self.delivered += pv.n
        result = led.call("gee.fit", fit_gee, pv, ds.covariates)
        led.counts["gee.iterations"] += result.iterations
        return result.beta

    def _check_coefficients(self, led, scenario, fast, jack):
        gap = float(np.max(np.abs(fast - jack)))
        led.gap("jackknife.max_gap", gap)
        self.coef_gaps[scenario].append(gap)
        if gap > COEF_GAP[scenario]:
            led.counts["jackknife.over_tol"] += 1

    def finish(self, led):
        """Check the fast-vs-jackknife gaps and the exclusion counts.

        Criteria 2 and 3 bound the largest gap over the replications of one
        fixed seed. Over arbitrary seeds a single ic1 replication exceeds
        1e-2 now and then (about 1 in 300 at the seed commit), so a
        replication over the tolerance is counted, and the gate is that the
        median replication stays within it.

        Over the first ``check_reps`` replications, each scenario's failed
        replications must be exactly the ones monte_carlo excludes for the
        same config. A replication whose fast arm failed after the shared fit
        never ran its jackknife arm, so for that arm the count is bounded,
        not exact.
        """
        for scenario, gaps in self.coef_gaps.items():
            if gaps and float(np.median(gaps)) > COEF_GAP[scenario]:
                raise GateError(
                    f"{scenario}: median fast vs jackknife coefficient gap "
                    f"{float(np.median(gaps)):.3e} > {COEF_GAP[scenario]:g}"
                )
        for scenario, (_, methods) in self.plan.items():
            for method in methods:
                states = [o[scenario][method] for o in self.outcomes[:self.check_reps]]
                low = states.count("fail")
                high = low + states.count("skip")
                with self.rec.span("simulate.monte_carlo"):
                    report = monte_carlo(self.configs[scenario], method, self.check_reps)
                led.counts["simulate.excluded"] += report.excluded
                if not low <= report.excluded <= high:
                    raise GateError(
                        f"{scenario} {method}: monte_carlo excludes {report.excluded}"
                        f" replications, the benchmark saw {low}..{high} fail"
                    )

    def probe(self, led):
        for ds, fit in self.fits:
            _probe_kernel(self.rec, led, ds, fit)


WORKLOADS = {w.name: w for w in (RcCli, IcFit, SimSmall)}


def _check_mean_gap(led, layer, pv, plug_in):
    limit = MEAN_GAP[layer]
    gap = abs(pv.mean() - plug_in)
    led.gap(f"{layer}.mean_gap", gap)
    if gap > limit:
        raise GateError(f"{layer} mean preservation gap {gap:.3e} > {limit:g}")


def _probe_kernel(rec, led, ds, fit):
    """One call each of the likelihood kernel's pieces at the fitted rates.

    ``pch.kernel_bytes`` is computed, not measured: the bytes of the prepared
    arrays one ``loglik_parts`` call reads, each counted once (the exposure
    matrix, the bracket rows of the difference matrix and the index arrays).
    """
    rates = fit.model.rates
    with rec.span("pch.prepare"):
        prep = prepare_likelihood(ds, fit.model.grid)
    with rec.span("pch.loglik_parts"):
        loglik_parts(rates, prep)
    with rec.span("pch.score_matrix"):
        score_matrix(rates, prep)
    led.counts["pch.kernel_bytes"] += (
        prep.expo_left.nbytes
        + prep.interval_rows.size * prep.K * prep.diff.itemsize
        + prep.interval_rows.nbytes
        + prep.exact_rows.nbytes
        + prep.exact_piece.nbytes
    )


def _write_binary_covariates(dataset, path):
    """Write the design without its intercept column, for ``regress --intercept``.

    The rc covariates are 0/1 indicators, so each row is one of eight
    strings; a lookup keeps this input step from dominating set-up time.
    """
    z = dataset.covariates[:, 1:]
    if not np.all((z == 0.0) | (z == 1.0)):
        raise GateError("rc covariates are expected to be 0/1 indicators")
    codes = z.astype(np.int64) @ (1 << np.arange(z.shape[1] - 1, -1, -1))
    rows = [",".join(bin(c)[2:].zfill(z.shape[1])) for c in range(1 << z.shape[1])]
    header = ",".join(dataset.covariate_names[1:])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        handle.write("\n".join(rows[c] for c in codes))
        handle.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _array_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()
