"""Simulation scenarios, Monte-Carlo comparisons, and timing benchmarks.

Three data-generating scenarios are built in, each one entry of the
``_SCENARIOS`` table:

``rc``
    Right-censored. The latent time is 5.5 + 0.25 z1 + 0.25 z2 plus a
    uniform disturbance on [-3, 3] with z1, z2 independent Bernoulli(1/2);
    censoring is exponential with rate 0.07 (about a third of subjects);
    the regression target is restricted mean survival at tau = 6 on the
    saturated design (1, z1(1-z2), z2(1-z1), z1 z2).
``ic1``
    The same latent time, observed through five visits (the first uniform
    on [0, 6], gaps uniform on [0, 2]), giving mixed interval-censoring;
    default cuts 4, 5, 6, 7 and the same regression target.
``ic2``
    Latent time 6 + 4 z + standard normal noise with z uniform on [0, 2],
    five visits (first uniform on [0, 10], gaps uniform on [0, 4]),
    default cuts 6, 8, 10, 12, 14, and unrestricted mean (tau = inf) on
    the design (1, z).

Any other tau may be given; the regression truth is always the
least-squares projection of E[min(T, tau) | covariates] on the design.
Replications draw from independent spawned generator streams, so reports
are reproducible bit for bit from the scenario seed, and the fast and
jackknife arms of a comparison see identical datasets.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .data import KIND_RIGHT, Dataset, right_censored_dataset, interval_dataset
from .errors import (
    DidNotConverge,
    NoEvents,
    NonIdentifiable,
    SingularDesign,
    SingularInformation,
    check_tau,
)
from .fitting import fit_pch
from .gee import IDENTITY, LinkSpec, fit_gee
from .jackknife import jackknife_km, jackknife_pch
from .km import FAST, JACKKNIFE, RMST, km_fit, km_pseudo_rmst
from .parametric import pseudo_rmst
from .pch import CutGrid

SE_CONVENTION = "sample standard deviation of replication estimates (ddof=1)"


@dataclass(frozen=True)
class _Scenario:
    """A built-in scenario: its latent draw, observation scheme, defaults and truth."""

    draw: Callable  # (rng, n) -> (latent times, tuple of covariate arrays)
    design: Callable  # (*covariates) -> design matrix
    coef_names: tuple
    tau: float
    cuts: tuple | None
    truth: Callable  # tau -> the regression truth in closed form
    estimate: Callable  # (min(T, tau), design) -> the truth from latent draws
    censor_rate: float | None = None  # right-censoring: the exponential rate
    visits: tuple | None = None  # interval-censoring: _visit_bracket's two scales


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario with its constants resolved.

    ``tau`` and ``cuts`` default per scenario (see the module docstring);
    pass explicit values to override them. The rc scenario fits no
    piecewise hazard, so it refuses ``cuts``. Cuts that ``CutGrid`` refuses,
    and a tau that ``check_tau`` does (inf for rc), raise before any draw.
    """

    scenario: str
    n: int
    seed: int = 0
    tau: float | None = None
    cuts: tuple | None = None

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.n < 2:
            raise ValueError("scenario needs n >= 2")
        spec = _SCENARIOS[self.scenario]
        if self.tau is None:
            object.__setattr__(self, "tau", spec.tau)
        if spec.cuts is None and self.cuts is not None:
            raise ValueError(f"scenario {self.scenario} takes no cuts")
        cuts = spec.cuts if self.cuts is None else self.cuts
        if cuts is not None:
            object.__setattr__(self, "cuts", CutGrid(cuts).cuts)
        check_tau(self.tau, finite=spec.visits is None)

    @property
    def beta0(self) -> np.ndarray:
        """Closed-form regression truth for the scenario's target."""
        return _SCENARIOS[self.scenario].truth(self.tau)

    @property
    def coef_names(self) -> tuple:
        return _SCENARIOS[self.scenario].coef_names


def generate(config: ScenarioConfig, seed=None, with_latent: bool = False):
    """Generate one dataset for a scenario config (seed override optional);
    ``with_latent`` adds a dict of the latent ``tstar`` (and ``censor``) times."""
    spec = _SCENARIOS[config.scenario]
    rng = np.random.default_rng(config.seed if seed is None else seed)
    tstar, covariates = spec.draw(rng, config.n)
    latent = {"tstar": tstar}
    # Building the design before the observation step leaves glibc's heap so
    # that later large allocations fault their pages in again: an ic1 fit and
    # its pseudo maps at n = 10^6 then took 10-20% longer, with about 7000
    # more page faults.
    if spec.visits is None:
        censor = latent["censor"] = rng.exponential(1.0 / spec.censor_rate, config.n)
        dataset = right_censored_dataset(np.minimum(tstar, censor), (tstar <= censor).astype(int),
                                         spec.design(*covariates), spec.coef_names)
    else:
        left, right = _visit_bracket(rng, tstar, *spec.visits)
        dataset = interval_dataset(left, right, spec.design(*covariates), spec.coef_names)
    return (dataset, latent) if with_latent else dataset


def true_rmst_beta(scenario: str, draws: int = 10_000_000, seed=0) -> np.ndarray:
    """Monte-Carlo regression truth at the scenario's default tau, from
    uncensored latent draws.

    Complements the closed-form ``ScenarioConfig.beta0``; the two agree to
    Monte-Carlo accuracy and the simulation tests check both.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    spec = _SCENARIOS[scenario]
    tstar, covariates = spec.draw(np.random.default_rng(seed), draws)
    return spec.estimate(np.minimum(tstar, spec.tau), spec.design(*covariates))


def _draw_saturated(rng, n):
    """z1, z2 Bernoulli(1/2); T uniform on 5.5 + 0.25 (z1 + z2) -/+ 3."""
    z1 = rng.binomial(1, 0.5, n)
    z2 = rng.binomial(1, 0.5, n)
    tstar = 5.5 + 0.25 * z1 + 0.25 * z2 + rng.uniform(-3.0, 3.0, n)
    return tstar, (z1, z2)


def _saturated_design(z1, z2):
    return np.column_stack(
        [np.ones(z1.size), z1 * (1 - z2), z2 * (1 - z1), z1 * z2]
    ).astype(float)


def _saturated_truth(tau: float) -> np.ndarray:
    """E[min(T, tau)] in the cell z1 = z2 = 0, and the other cells' differences from it."""
    base = _uniform_cell_rmst(5.5, tau)
    return np.array([base] + [_uniform_cell_rmst(m, tau) - base for m in (5.75, 5.75, 6.0)])


def _cell_contrasts(y, design) -> np.ndarray:
    """The mean of y in the cell with no indicator set, and the other cells'
    differences from it: the least-squares fit on a saturated design."""
    indicators = design[:, 1:]
    base = y[~indicators.any(axis=1)].mean()
    return np.array([base] + [y[column == 1].mean() - base for column in indicators.T])


def _uniform_cell_rmst(m: float, tau: float, half: float = 3.0) -> float:
    """E[min(T, tau)] for T uniform on [m - half, m + half]."""
    lo, hi = m - half, m + half
    if tau >= hi:
        return m
    if tau <= lo:
        return tau
    width = hi - lo
    return (tau**2 - lo**2) / (2 * width) + tau * (hi - tau) / width


def _draw_linear(rng, n):
    """z uniform on [0, 2]; T = 6 + 4 z + standard normal noise."""
    z = rng.uniform(0.0, 2.0, n)
    tstar = 6.0 + 4.0 * z + rng.normal(0.0, 1.0, n)
    return tstar, (z,)


def _linear_design(z):
    return np.column_stack([np.ones(z.size), z])


def _linear_truth(tau: float) -> np.ndarray:
    """Projection of E[min(T, tau) | z] = tau - g Phi(g) - phi(g), g = tau - 6 - 4 z,
    on (1, z) over z uniform on [0, 2], by 40-node Gauss-Legendre sums; (6, 4) at tau = inf."""
    if math.isinf(tau):
        return np.array([6.0, 4.0])
    x, weights = np.polynomial.legendre.leggauss(40)
    design = np.column_stack([np.ones(x.size), 1.0 + x])  # nodes mapped onto [0, 2]
    gap = tau - design @ (6.0, 4.0)
    mean = tau - gap * special.ndtr(gap) - np.exp(-0.5 * gap**2) / math.sqrt(2 * math.pi)
    # the uniform density's constant cancels between the two sides
    return np.linalg.solve(design.T @ (weights[:, None] * design), design.T @ (weights * mean))


def _least_squares(y, design) -> np.ndarray:
    return np.linalg.lstsq(design, y, rcond=None)[0]


_SATURATED_NAMES = ("intercept", "z1_only", "z2_only", "z1_and_z2")
_SCENARIOS = {
    "rc": _Scenario(_draw_saturated, _saturated_design, _SATURATED_NAMES, 6.0, None,
                    _saturated_truth, _cell_contrasts, censor_rate=0.07),
    "ic1": _Scenario(_draw_saturated, _saturated_design, _SATURATED_NAMES, 6.0,
                     (4.0, 5.0, 6.0, 7.0), _saturated_truth, _cell_contrasts, visits=(6.0, 2.0)),
    "ic2": _Scenario(_draw_linear, _linear_design, ("intercept", "z"), math.inf,
                     (6.0, 8.0, 10.0, 12.0, 14.0), _linear_truth, _least_squares,
                     visits=(10.0, 4.0)),
}


def _visit_bracket(rng, tstar, first_scale, gap_scale, visits: int = 5):
    """Bracket each latent time by a subject-specific visit schedule.

    The first visit is uniform on [0, first_scale]; later visits add
    uniform [0, gap_scale] gaps. Times before the first visit are
    left-censored at it; times after the last are right-censored.
    """
    n = tstar.size
    v = np.empty((n, visits))
    v[:, 0] = rng.uniform(0.0, first_scale, n)
    for j in range(1, visits):
        v[:, j] = v[:, j - 1] + rng.uniform(0.0, gap_scale, n)
    # >= keeps a time landing exactly on a visit inside its bracket
    after = v >= tstar[:, None]
    first_after = np.argmax(after, axis=1)
    left_censored = tstar < v[:, 0]
    right_censored = tstar > v[:, -1]
    rows = np.arange(n)
    left = np.where(
        left_censored, 0.0, v[rows, np.maximum(first_after - 1, 0)]
    )
    left = np.where(right_censored, v[:, -1], left)
    right = np.where(right_censored, np.inf, v[rows, first_after])
    right = np.where(left_censored, v[:, 0], right)
    return left, right


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Bias, spread, and timing of one estimation method over replications.

    ``estimates`` keeps the per-replication coefficient vectors so paired
    comparisons between methods stay possible after aggregation. The MSE
    column satisfies MSE = Bias^2 + (used-1)/used * SE^2 exactly under the
    documented SE convention.
    """

    scenario: str
    method: str
    reps: int
    used: int
    excluded: int
    beta0: np.ndarray
    coef_names: tuple
    estimates: np.ndarray
    bias: np.ndarray
    se: np.ndarray
    mse: np.ndarray
    total_seconds: float

    def to_csv(self) -> str:
        """Deterministic per-coefficient table (no timing columns)."""
        lines = [f"# scenario={self.scenario} method={self.method} reps={self.reps}"
                 f" used={self.used} excluded={self.excluded}",
                 f"# SE convention: {SE_CONVENTION}",
                 "coefficient,true,bias,se,mse"]
        for name, b0, bias, se, mse in zip(
            self.coef_names, self.beta0, self.bias, self.se, self.mse
        ):
            lines.append(f"{name},{b0:.10g},{bias:.10g},{se:.10g},{mse:.10g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        head = (
            f"scenario {self.scenario}, method {self.method}: "
            f"{self.used}/{self.reps} replications used "
            f"({self.excluded} excluded), "
            f"pseudo+regression time {self.total_seconds:.3f} s"
        )
        return head + "\n" + self.to_csv()


def monte_carlo(config: ScenarioConfig, method: str, reps: int) -> MonteCarloReport:
    """Replicate the scenario and summarize the chosen method's estimates.

    Pathological replications (non-convergence, lost identifiability,
    singular information) are counted and excluded rather than raised.
    Replication r uses the r-th spawned stream of the scenario seed, so
    fast and jackknife runs with the same config see identical data.
    """
    if method not in (FAST, JACKKNIFE):
        raise ValueError(f"unknown method {method!r}")
    if reps < 2:
        raise ValueError("need at least two replications")
    streams = np.random.SeedSequence(config.seed).spawn(reps)
    estimates = []
    excluded = 0
    total = 0.0
    for stream in streams:
        dataset = generate(config, seed=stream)
        try:
            beta_hat, seconds = _estimate_once(config, dataset, method)
        except (DidNotConverge, NonIdentifiable, SingularInformation,
                SingularDesign, NoEvents):
            excluded += 1
            continue
        estimates.append(beta_hat)
        total += seconds
    beta0 = config.beta0
    used = len(estimates)
    est = np.array(estimates) if used else np.empty((0, beta0.size))
    if used >= 2:
        bias = est.mean(axis=0) - beta0
        se = est.std(axis=0, ddof=1)
        mse = ((est - beta0) ** 2).mean(axis=0)
    else:
        bias = se = mse = np.full(beta0.size, np.nan)
    return MonteCarloReport(
        scenario=config.scenario,
        method=method,
        reps=reps,
        used=used,
        excluded=excluded,
        beta0=beta0,
        coef_names=config.coef_names,
        estimates=est,
        bias=bias,
        se=se,
        mse=mse,
        total_seconds=total,
    )


def _estimate_once(config: ScenarioConfig, dataset: Dataset, method: str):
    """Pseudo-observations plus regression for one dataset; returns
    (coefficients, seconds). Timing excludes the initial estimator fit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = _fit_step(config, dataset)
        result, seconds = _timed(_pseudo_gee_step, config, dataset, fit, method)
    return result.beta, seconds


def _fit_step(config: ScenarioConfig, dataset: Dataset):
    """The untimed estimator fit: the product-limit pass for right-censored
    data; for interval-censored data the hazard fit and its information factor."""
    if dataset.kind == KIND_RIGHT:
        return km_fit(dataset)
    pfit = fit_pch(dataset, CutGrid(config.cuts))
    pfit.info_factor
    return pfit


def _pseudo_gee_step(config: ScenarioConfig, dataset: Dataset, fit, method: str):
    """RMST pseudo-observations by ``method`` regressed on the covariates.

    A jackknife vector with failed leave-one-out refits raises
    DidNotConverge instead of reaching the regression as NaN.
    """
    if dataset.kind == KIND_RIGHT:
        pv = (km_pseudo_rmst(fit, config.tau) if method == FAST
              else jackknife_km(dataset, RMST, config.tau))
    elif method == FAST:
        pv = pseudo_rmst(fit, dataset, config.tau)
    else:
        pv = jackknife_pch(dataset, fit.model.grid, RMST, config.tau, fit=fit)
        if pv.flagged is not None:
            raise DidNotConverge(
                f"leave-one-out refits failed for {int(pv.flagged.sum())} subjects"
            )
    return fit_gee(pv, dataset.covariates, LinkSpec(IDENTITY))


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    """Wall-clock comparison of the fast and jackknife pipelines."""

    scenario: str
    n: int
    target: str
    tau: float
    fast_seconds: float
    jackknife_seconds: float

    @property
    def ratio(self) -> float:
        return self.jackknife_seconds / self.fast_seconds

    def summary(self) -> str:
        return "\n".join([
            f"scenario {self.scenario}, n={self.n}, target {self.target} at {self.tau:g}",
            f"fast pseudo + regression:      {self.fast_seconds:.6f} s",
            f"jackknife pseudo + regression: {self.jackknife_seconds:.6f} s",
            f"ratio (jackknife / fast):      {self.ratio:.1f}x",
        ])

    def to_csv(self) -> str:
        return (
            "scenario,n,target,tau,fast_seconds,jackknife_seconds,ratio\n"
            f"{self.scenario},{self.n},{self.target},{self.tau:g},"
            f"{self.fast_seconds:.6f},{self.jackknife_seconds:.6f},{self.ratio:.3f}\n"
        )


def benchmark(config: ScenarioConfig, *, repeat: int = 3) -> BenchmarkReport:
    """Time the pseudo-observation computation plus regression on one dataset.

    The initial survival estimator (product-limit pass or hazard fit) is
    excluded from both arms. The fast arm reports the best of ``repeat``
    runs; the jackknife arm runs once, since it dominates the budget.
    """
    dataset = generate(config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = _fit_step(config, dataset)
        fast_seconds = min(
            _timed(_pseudo_gee_step, config, dataset, fit, FAST)[1]
            for _ in range(max(1, repeat))
        )
        _, jackknife_seconds = _timed(_pseudo_gee_step, config, dataset, fit, JACKKNIFE)
    return BenchmarkReport(
        scenario=config.scenario,
        n=config.n,
        target=RMST,
        tau=config.tau,
        fast_seconds=fast_seconds,
        jackknife_seconds=jackknife_seconds,
    )


def _timed(step, *args):
    """Run ``step(*args)``; returns (its result, wall seconds)."""
    start = time.perf_counter()
    result = step(*args)
    return result, time.perf_counter() - start
