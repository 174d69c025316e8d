"""Top-level acceptance sweep.

Each test prints exactly one verdict line of the form

    criterion N (label): PASS [supporting numbers]

with output capture suspended, so the verdicts always reach the console,
then asserts. Tolerances are fixed here on purpose; loosening them is a
behavior change, not a test fix. The heavier replication studies share
module-scoped fixtures so the whole file stays within a desk-scale budget.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from pseudosurv import (
    CutGrid,
    NonIdentifiable,
    PchModel,
    PseudosurvError,
    fit_gee,
    fit_pch,
    interval_dataset,
    km_fit,
    km_pseudo_rmst,
    km_pseudo_survival,
    pseudo_alpha,
    pseudo_rmst,
    pseudo_survival,
    recode_right_censored_as_interval,
    right_censored_dataset,
)
from pseudosurv.gee import CLOGLOG, LinkSpec, sandwich_variance
from pseudosurv.pch import (
    loglik_parts,
    prepare_likelihood,
    rmst_closed_form,
    rmst_gradient,
    score_matrix,
)
from pseudosurv.simulate import ScenarioConfig, _estimate_once, benchmark, generate

IC_CUTS = CutGrid((4.0, 5.0, 6.0, 7.0))


@pytest.fixture()
def verdict(capsys):
    def report(num, label, ok, detail):
        line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return report


def _paired_estimates(config, reps):
    """Fast and jackknife coefficient estimates on identical datasets.

    Replications where either pipeline fails are skipped as a pair, so the
    two arrays stay aligned row for row.
    """
    streams = np.random.SeedSequence(config.seed).spawn(reps)
    fast, jack = [], []
    skipped = 0
    for stream in streams:
        dataset = generate(config, seed=stream)
        try:
            beta_fast, _ = _estimate_once(config, dataset, "fast")
            beta_jack, _ = _estimate_once(config, dataset, "jackknife")
        except PseudosurvError:
            skipped += 1
            continue
        fast.append(beta_fast)
        jack.append(beta_jack)
    return np.array(fast), np.array(jack), skipped


@pytest.fixture(scope="module")
def rc_paired():
    return _paired_estimates(ScenarioConfig("rc", n=500, seed=20260823), 100)


@pytest.fixture(scope="module")
def ic_paired():
    return _paired_estimates(ScenarioConfig("ic1", n=200, seed=3), 50)


def test_criterion_1_mean_preservation(verdict):
    rng = np.random.default_rng(123)
    worst_km = 0.0
    for n in (50, 500, 5000):
        times = rng.exponential(2.0, n)
        status = (rng.uniform(size=n) < 0.7).astype(int)
        km = km_fit(right_censored_dataset(times, status))
        t = float(np.quantile(times, 0.5))
        tau = float(np.quantile(times, 0.8))
        worst_km = max(
            worst_km,
            abs(km_pseudo_survival(km, t).values.mean() - km.survival_at(t)),
            abs(km_pseudo_rmst(km, tau).values.mean() - km.rmst(tau)),
        )
    worst_pch = 0.0
    for scenario, n in (("ic1", 50), ("ic1", 300), ("ic2", 300)):
        config = ScenarioConfig(scenario, n=n, seed=0)
        ds = generate(config)
        fit = fit_pch(ds, CutGrid(config.cuts))
        mid = config.cuts[1]
        worst_pch = max(
            worst_pch,
            abs(pseudo_survival(fit, ds, mid).values.mean()
                - float(fit.model.survival(mid))),
            abs(pseudo_rmst(fit, ds, config.tau).values.mean()
                - rmst_closed_form(fit.model, config.tau)),
            float(np.max(np.abs(
                pseudo_alpha(fit, ds).mean(axis=0) - fit.model.rates
            ))),
        )
    ok = worst_km <= 1e-12 and worst_pch <= 1e-7
    verdict(1, "fast pseudo means preserve the plug-in", ok,
             f"km {worst_km:.1e} <= 1e-12, pch {worst_pch:.1e} <= 1e-7")


def test_criterion_2_rc_oracle_equivalence(rc_paired, verdict):
    fast, jack, skipped = rc_paired
    assert fast.shape[0] >= 90
    worst = float(np.max(np.abs(fast - jack)))
    ok = worst <= 5e-3
    verdict(2, "right-censored fast vs jackknife coefficients", ok,
             f"max componentwise gap {worst:.2e} <= 5e-3 over "
             f"{fast.shape[0]} paired replications, {skipped} skipped")


def test_criterion_3_ic_oracle_equivalence(ic_paired, verdict):
    fast, jack, skipped = ic_paired
    assert fast.shape[0] >= 40
    worst = float(np.max(np.abs(fast - jack)))
    ok = worst <= 1e-2
    verdict(3, "interval-censored fast vs jackknife coefficients", ok,
             f"max componentwise gap {worst:.2e} <= 1e-2 over "
             f"{fast.shape[0]} paired replications, {skipped} skipped")


def test_criterion_4_bias_and_spread(rc_paired, verdict):
    fast, _, _ = rc_paired
    beta0 = ScenarioConfig("rc", n=500).beta0
    bias = np.abs(fast.mean(axis=0) - beta0)
    se = fast.std(axis=0, ddof=1)
    target = np.array([0.120, 0.158, 0.161, 0.158])
    ratio = se / target
    ok = bool(np.all(bias <= 0.05) and np.all(np.abs(ratio - 1) <= 0.30))
    verdict(4, "right-censored bias and spread at n=500", ok,
             f"max |bias| {bias.max():.3f} <= 0.05, "
             f"SE/target in [{ratio.min():.2f}, {ratio.max():.2f}] within +-30%")


def test_criterion_5_speedup_floors(verdict):
    rc = benchmark(ScenarioConfig("rc", n=10000, seed=0))
    ic = benchmark(ScenarioConfig("ic1", n=500, seed=0))
    ok = rc.ratio >= 10 and ic.ratio >= 20
    verdict(5, "jackknife/fast time ratios", ok,
             f"rc n=10000: {rc.ratio:.0f}x >= 10, ic n=500: {ic.ratio:.0f}x >= 20")


def test_criterion_6_derivative_and_quadrature_oracles(verdict):
    rng = np.random.default_rng(2026)
    worst_score = worst_hess = worst_rmst = worst_grad = 0.0
    for _ in range(120):
        K = int(rng.integers(1, 6))
        cuts = tuple(np.sort(rng.uniform(0.3, 6.0, K - 1)))
        model = PchModel(CutGrid(cuts), rng.uniform(0.05, 3.0, K))
        span = (cuts[-1] if cuts else 2.0) + 1.0
        a = float(rng.uniform(0.0, span))
        kind = rng.integers(4)
        if kind == 0:
            left, right = a, a + float(rng.uniform(0.05, 2.0))
        elif kind == 1:
            left, right = a, math.inf
        elif kind == 2:
            left, right = 0.0, a + 0.05
        else:
            left, right = a, a

        prep = prepare_likelihood(interval_dataset([left], [right]), model.grid)

        def log_density(rates):
            return loglik_parts(rates, prep)[0]

        def score(rates):
            return score_matrix(rates, prep)[0]

        s = score(model.rates)
        H = loglik_parts(model.rates, prep)[2]
        for k in range(K):
            h = 1e-6 * (1.0 + model.rates[k])
            up, down = model.rates.copy(), model.rates.copy()
            up[k] += h
            down[k] -= h
            fd = (log_density(up) - log_density(down)) / (2 * h)
            worst_score = max(
                worst_score, abs(fd - s[k]) / max(1.0, abs(s[k]))
            )
            h2 = 1e-5 * (1.0 + model.rates[k])
            up2, down2 = model.rates.copy(), model.rates.copy()
            up2[k] += h2
            down2[k] -= h2
            fd_row = (score(up2) - score(down2)) / (2 * h2)
            worst_hess = max(worst_hess, float(np.max(np.abs(fd_row - H[k]))))

        tau = float(rng.uniform(0.3, span + 2.0))
        breaks = [c for c in cuts if c < tau]
        quad_value, _ = integrate.quad(
            lambda t: float(model.survival(t)), 0.0, tau,
            points=breaks, limit=200, epsabs=1e-11, epsrel=1e-11,
        )
        worst_rmst = max(worst_rmst, abs(rmst_closed_form(model, tau) - quad_value))
        g = rmst_gradient(model, tau)
        for k in range(K):
            quad_k, _ = integrate.quad(
                lambda t: float(model.survival(t)) * float(model.grid.exposure(t)[k]),
                0.0, tau, points=breaks, limit=200, epsabs=1e-11, epsrel=1e-11,
            )
            worst_grad = max(worst_grad, abs(g[k] - quad_k))
    ok = (worst_score <= 1e-6 and worst_hess <= 1e-4
          and worst_rmst <= 1e-8 and worst_grad <= 1e-8)
    verdict(6, "analytic derivatives vs numeric oracles", ok,
             f"score {worst_score:.1e} <= 1e-6, hessian {worst_hess:.1e} <= 1e-4, "
             f"rmst {worst_rmst:.1e} <= 1e-8, gradient {worst_grad:.1e} <= 1e-8")


def test_criterion_7_closed_form_fits(verdict):
    exact = fit_pch(
        interval_dataset([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]), CutGrid(())
    )
    gap_exact = abs(exact.model.rates[0] - 0.5)
    bracket = fit_pch(interval_dataset([1.0] * 6, [2.0] * 6), CutGrid(()))
    gap_log2 = abs(bracket.model.rates[0] - math.log(2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            fit_pch(
                interval_dataset([1.0] * 5, [math.inf] * 5), CutGrid(())
            )
            raised = False
        except NonIdentifiable:
            raised = True
    ok = gap_exact <= 1e-8 and gap_log2 <= 1e-8 and raised
    verdict(7, "closed-form fits and failure detection", ok,
             f"occurrence/exposure gap {gap_exact:.1e}, log-2 gap {gap_log2:.1e}, "
             f"all-right-censored raised: {raised}")


def test_criterion_8_refining_cuts_approach_the_product_limit(verdict):
    good = 0
    per_seed = []
    for seed in range(10):
        ds = generate(ScenarioConfig("rc", n=2000, seed=seed))
        km = km_fit(ds)
        km_values = km_pseudo_rmst(km, 6.0).values
        recoded = recode_right_censored_as_interval(ds)
        event_times = ds.times[ds.status == 1]
        gaps = []
        for K in (5, 10, 20):
            cuts = np.unique(np.quantile(event_times, np.arange(1, K) / K))
            fit = fit_pch(recoded, CutGrid(tuple(float(c) for c in cuts)))
            pch_values = pseudo_rmst(fit, recoded, 6.0).values
            gaps.append(float(np.mean(np.abs(pch_values - km_values))))
        per_seed.append(gaps)
        if gaps[0] >= gaps[1] >= gaps[2]:
            good += 1
    ok = good >= 8
    mean_gaps = np.mean(per_seed, axis=0)
    verdict(8, "hazard-model pseudo values approach the product-limit ones", ok,
             f"non-increasing for {good}/10 seeds "
             f"(mean gaps K=5,10,20: {mean_gaps[0]:.3f}, {mean_gaps[1]:.3f}, "
             f"{mean_gaps[2]:.3f})")


def test_criterion_9_estimating_equation_exactness(verdict):
    rng = np.random.default_rng(7)
    n, p = 200, 4
    Z = rng.normal(size=(n, p))
    Z[:, 0] = 1.0
    y = rng.normal(size=n) + Z @ rng.normal(size=p)
    fit = fit_gee(y, Z)
    ols, *_ = np.linalg.lstsq(Z, y, rcond=None)
    gap_beta = float(np.max(np.abs(fit.beta - ols)))
    resid = y - Z @ ols
    bread = np.linalg.inv(Z.T @ Z)
    hc0 = bread @ (Z * resid[:, None] ** 2).T @ Z @ bread
    gap_cov = float(np.max(np.abs(sandwich_variance(y, Z, fit.beta) - hc0)))
    y2 = rng.uniform(0.2, 0.9, 50)
    cll = fit_gee(y2, np.ones((50, 1)), LinkSpec(CLOGLOG))
    gap_cll = abs(cll.beta[0] - math.log(-math.log(y2.mean())))
    ok = gap_beta <= 1e-10 and gap_cov <= 1e-10 and gap_cll <= 1e-8
    verdict(9, "estimating-equation exact equivalences", ok,
             f"beta vs OLS {gap_beta:.1e} <= 1e-10, sandwich vs HC0 "
             f"{gap_cov:.1e} <= 1e-10, cloglog intercept {gap_cll:.1e} <= 1e-8")
