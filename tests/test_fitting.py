"""Newton fitting of piecewise-constant hazards: closed forms, safeguards,
identifiability handling, and the cached information solves."""

import math
import warnings

import numpy as np
import pytest
from scipy import linalg

from pseudosurv import (
    CutGrid,
    DidNotConverge,
    EmptyInput,
    NonIdentifiable,
    PchModel,
    SingularInformation,
    fit_pch,
    interval_dataset,
    right_censored_dataset,
)
from pseudosurv.fitting import PchFit, observed_information
from pseudosurv.pch import loglik_parts, prepare_likelihood
from pseudosurv.simulate import ScenarioConfig, generate

IC_CUTS = CutGrid((4.0, 5.0, 6.0, 7.0))


def test_exact_exponential_closed_form():
    """Exact observations: rate = n / total time, information = 1/rate^2."""
    ds = interval_dataset([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
    fit = fit_pch(ds, CutGrid(()))
    assert fit.model.rates[0] == pytest.approx(0.5, abs=1e-10)
    assert fit.info[0, 0] == pytest.approx(4.0, abs=1e-8)
    assert fit.loglik == pytest.approx(4 * math.log(0.5) - 4.0, abs=1e-10)
    assert fit.grad_norm <= 1e-8
    assert fit.n == 4


def test_mixed_censoring_closed_form():
    # one failure in (0, 1], one survivor past 1: the stationarity condition
    # reduces to exp(-rate) = 1/2
    ds = interval_dataset([0.0, 1.0], [1.0, math.inf])
    fit = fit_pch(ds, CutGrid(()))
    assert fit.model.rates[0] == pytest.approx(math.log(2.0), abs=1e-9)


def test_reported_information_is_minus_mean_hessian():
    ds = generate(ScenarioConfig("ic1", n=150, seed=5))
    fit = fit_pch(ds, IC_CUTS)
    prep = prepare_likelihood(ds, IC_CUTS)
    _, _, hess = loglik_parts(fit.model.rates, prep)
    np.testing.assert_allclose(fit.info, -(hess + hess.T) / (2 * fit.n), atol=1e-12)
    np.testing.assert_array_equal(fit.info, fit.info.T)


def test_solve_information_matches_direct_solve():
    ds = generate(ScenarioConfig("ic1", n=200, seed=8))
    fit = fit_pch(ds, IC_CUTS)
    rhs = np.random.default_rng(0).normal(size=(fit.info.shape[0], 3))
    np.testing.assert_allclose(
        fit.solve_information(rhs), linalg.solve(fit.info, rhs), atol=1e-12
    )


def test_warm_and_cold_starts_reach_the_same_optimum():
    ds = generate(ScenarioConfig("ic1", n=200, seed=8))
    cold = fit_pch(ds, IC_CUTS)
    warm = fit_pch(ds, IC_CUTS, init=cold.model.rates * 1.5)
    np.testing.assert_allclose(warm.model.rates, cold.model.rates, atol=1e-8)


def test_trace_is_monotone_and_counts_iterations():
    ds = generate(ScenarioConfig("ic1", n=200, seed=2))
    fit = fit_pch(ds, IC_CUTS)
    trace = np.array(fit.loglik_trace)
    assert len(trace) == fit.iterations + 1
    assert np.all(np.diff(trace) >= -1e-9)
    assert trace[-1] == fit.loglik


def test_init_validation():
    ds = interval_dataset([0.0, 1.0], [1.0, math.inf])
    for bad in ([1.0, 1.0], [-1.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError):
            fit_pch(ds, CutGrid(()), init=bad)


def test_empty_and_wrong_kind_inputs():
    empty = interval_dataset([], [])
    with pytest.raises(EmptyInput):
        fit_pch(empty, CutGrid(()))
    rc = right_censored_dataset([1.0, 2.0], [1, 0])
    with pytest.raises(ValueError):
        fit_pch(rc, CutGrid(()))


def test_strict_mode_raises_before_fitting():
    ds = interval_dataset([0.5, 2.0], [0.8, math.inf])
    with pytest.raises(NonIdentifiable) as excinfo:
        fit_pch(ds, CutGrid((1.0,)), strict=True)
    assert excinfo.value.piece == 2
    assert excinfo.value.condition == 1


def test_strict_mode_names_second_condition():
    ds = interval_dataset([0.0, 0.0], [0.5, 2.0])
    with pytest.raises(NonIdentifiable) as excinfo:
        fit_pch(ds, CutGrid(()), strict=True)
    assert excinfo.value.piece == 1
    assert excinfo.value.condition == 2


def test_collapsing_rate_reports_the_missing_bracket():
    # nothing pins down the hazard beyond the cut, so that rate drifts to
    # the boundary and the error names the empirical gap behind it
    ds = interval_dataset([0.5, 2.0, 0.2], [0.8, math.inf, 1.0])
    with pytest.warns(UserWarning, match="identifiability"):
        with pytest.raises(NonIdentifiable) as excinfo:
            fit_pch(ds, CutGrid((1.0,)))
    assert excinfo.value.condition == 1
    assert "collapsed" in str(excinfo.value)


def test_nonstrict_mode_warns_but_proceeds():
    # all records left-censored: the likelihood keeps rising in the rate and
    # the score only dries up numerically, which is exactly why the
    # diagnostics exist; the fit still returns, at an absurd rate
    ds = interval_dataset([0.0, 0.0], [0.5, 2.0])
    with pytest.warns(UserWarning, match="no left endpoint"):
        fit = fit_pch(ds, CutGrid(()))
    assert fit.model.rates[0] > 10.0


def test_iteration_budget_exhaustion_carries_state():
    ds = generate(ScenarioConfig("ic1", n=200, seed=2))
    with pytest.raises(DidNotConverge) as excinfo:
        fit_pch(ds, IC_CUTS, max_iter=2)
    exc = excinfo.value
    assert exc.iterations == 2
    assert exc.last_iterate.shape == (IC_CUTS.K,)
    assert np.all(exc.last_iterate > 0)
    assert exc.grad_norm > 1e-8


def _manual_fit(info):
    model = PchModel(CutGrid((1.0,)), [1.0, 1.0])
    report = None
    return PchFit(
        model=model,
        info=np.asarray(info, float),
        loglik=-1.0,
        grad_norm=0.0,
        iterations=1,
        condition_report=report,
        n=10,
        loglik_trace=(-2.0, -1.0),
    )


def test_observed_information_rejects_singular_matrix():
    with pytest.raises(SingularInformation):
        observed_information(_manual_fit([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularInformation):
        _manual_fit([[1.0, 2.0], [2.0, 1.0]]).info_factor  # indefinite


def test_fit_recovers_generating_rates_at_scale():
    """With dense brackets the fitted hazard tracks the truth."""
    rng = np.random.default_rng(9)
    true = PchModel(CutGrid((1.0, 2.0)), [0.4, 0.9, 0.6])
    n = 4000
    u = rng.uniform(size=n)
    # invert the piecewise cumulative hazard
    target = -np.log(u)
    times = np.empty(n)
    for i, h in enumerate(target):
        acc = 0.0
        for lo, width, rate in zip((0.0, 1.0, 2.0), (1.0, 1.0, math.inf), true.rates):
            if h <= acc + rate * width:
                times[i] = lo + (h - acc) / rate
                break
            acc += rate * width
    left = np.floor(times * 4) / 4
    right = left + 0.25
    fit = fit_pch(interval_dataset(left, right), true.grid)
    np.testing.assert_allclose(fit.model.rates, true.rates, rtol=0.15)
