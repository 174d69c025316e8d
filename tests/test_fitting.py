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
    jackknife_pch,
    right_censored_dataset,
)
from pseudosurv import fitting
from pseudosurv.fitting import PchFit, _ascent_steps, _initial_rates, observed_information
from pseudosurv.pch import _kernel, loglik_parts, prepare_likelihood
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
    assert fit.dataset.n == 4


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
    np.testing.assert_allclose(fit.info, -(hess + hess.T) / (2 * fit.dataset.n), atol=1e-12)
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


def test_start_at_the_optimum_takes_one_step():
    """From the optimum the first step is within tol, so it is taken without
    a log-likelihood comparison and ends the fit."""
    ds = generate(ScenarioConfig("ic1", n=200, seed=8))
    cold = fit_pch(ds, IC_CUTS)
    again = fit_pch(ds, IC_CUTS, init=cold.model.rates)
    assert again.iterations == 1
    np.testing.assert_allclose(again.model.rates, cold.model.rates, rtol=1e-14)


@pytest.mark.parametrize("scenario", ["ic1", "ic2"])
def test_record_order_changes_neither_iterations_nor_rates(scenario):
    """Summation order moves the log-likelihood by a few ulps; the stopping
    rule must not turn that into a different path. At n = 10^5 the fit
    starts at the midpoint rates; from PILOT_MIN_N records on, the pilot
    takes every stride-th record in record order, so there the iteration
    count may change with the order (see
    test_record_order_moves_pilot_started_rates_by_rounding)."""
    for seed in range(1, 6):
        config = ScenarioConfig(scenario, n=100_000, seed=seed)
        ds = generate(config)
        grid = CutGrid(config.cuts)
        fit = fit_pch(ds, grid)
        rng = np.random.default_rng(seed)
        for order in (np.arange(ds.n)[::-1], rng.permutation(ds.n)):
            other = fit_pch(interval_dataset(ds.left[order], ds.right[order]), grid)
            assert other.iterations == fit.iterations
            np.testing.assert_allclose(other.model.rates, fit.model.rates, rtol=1e-13, atol=0)


PILOT_N = fitting.PILOT_MIN_N


def _quantile_grid(ds, K):
    """K pieces cut at the k/K quantiles of the finite right endpoints."""
    return CutGrid(tuple(np.quantile(ds.right[np.isfinite(ds.right)], np.arange(1, K) / K)))


def _strided_fit(ds, grid):
    """The pilot fit that fit_pch makes of ds: every (n // PILOT_RECORDS)-th record."""
    stride = ds.n // fitting.PILOT_RECORDS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_pch(interval_dataset(ds.left[::stride], ds.right[::stride]), grid,
                       max_iter=fitting.PILOT_MAX_ITER)


def _default_and_midpoint_fits(ds, grid):
    return fit_pch(ds, grid), fit_pch(ds, grid, init=_initial_rates(ds, grid))


def _assert_same_fit(fit, other):
    assert fit.iterations == other.iterations
    assert fit.loglik_trace == other.loglik_trace
    np.testing.assert_array_equal(fit.model.rates, other.model.rates)
    np.testing.assert_array_equal(fit.info, other.info)


@pytest.mark.parametrize("scenario", ["ic1", "ic2"])
def test_pilot_start_saves_iterations_at_the_same_rates(scenario):
    for seed in (1, 2, 3):
        config = ScenarioConfig(scenario, n=PILOT_N, seed=seed)
        ds = generate(config)
        fit, midpoint = _default_and_midpoint_fits(ds, CutGrid(config.cuts))
        assert fit.iterations < midpoint.iterations
        np.testing.assert_allclose(fit.model.rates, midpoint.model.rates, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scenario", ["ic1", "ic2"])
def test_below_the_pilot_threshold_the_fit_starts_at_the_midpoint_rates(scenario):
    config = ScenarioConfig(scenario, n=PILOT_N - 1, seed=1)
    _assert_same_fit(*_default_and_midpoint_fits(generate(config), CutGrid(config.cuts)))


def test_a_pilot_with_a_loose_rate_falls_back_to_the_midpoint_start():
    """With 20 quantile pieces the pilot converges, but some rate's relative
    standard error exceeds PILOT_MAX_RSE; from such a start the full fit
    can crawl, so it starts at the midpoint rates."""
    ds = generate(ScenarioConfig("ic1", n=PILOT_N, seed=1))
    grid = _quantile_grid(ds, 20)
    pilot = _strided_fit(ds, grid)
    se = np.sqrt(np.diag(pilot.solve_information(np.eye(grid.K))) / pilot.dataset.n)
    assert np.max(se / pilot.model.rates) > fitting.PILOT_MAX_RSE
    _assert_same_fit(*_default_and_midpoint_fits(ds, grid))


def test_a_failing_pilot_falls_back_to_the_midpoint_start():
    """A last piece that the left endpoints of 3 records reach, fewer than
    the stride of 8: the pilot holds none of them and its rate diverges,
    while the full sample fits."""
    config = ScenarioConfig("ic2", n=PILOT_N, seed=3)
    ds = generate(config)
    grid = CutGrid(config.cuts + (float(np.sort(ds.left)[-4]),))
    with pytest.raises(NonIdentifiable):
        _strided_fit(ds, grid)
    _assert_same_fit(*_default_and_midpoint_fits(ds, grid))


@pytest.mark.parametrize("scenario", ["ic1", "ic2"])
def test_scaling_time_by_a_power_of_two_scales_the_pilot_started_fit(scenario):
    config = ScenarioConfig(scenario, n=PILOT_N, seed=1)
    ds = generate(config)
    fit = fit_pch(ds, CutGrid(config.cuts))
    for c in (0.25, 8.0):
        scaled = fit_pch(interval_dataset(ds.left * c, ds.right * c),
                         CutGrid(tuple(np.array(config.cuts) * c)))
        assert scaled.iterations == fit.iterations
        np.testing.assert_allclose(scaled.model.rates * c, fit.model.rates, rtol=1e-15, atol=0)


@pytest.mark.parametrize("scenario", ["ic1", "ic2"])
def test_record_order_moves_pilot_started_rates_by_rounding(scenario):
    """Another record order gives another pilot, and perhaps another
    iteration count, but the same optimum."""
    config = ScenarioConfig(scenario, n=PILOT_N, seed=1)
    ds = generate(config)
    grid = CutGrid(config.cuts)
    fit = fit_pch(ds, grid)
    for order in (np.arange(ds.n)[::-1], np.random.default_rng(1).permutation(ds.n)):
        other = fit_pch(interval_dataset(ds.left[order], ds.right[order]), grid)
        np.testing.assert_allclose(other.model.rates, fit.model.rates, rtol=1e-13, atol=0)


def test_ic2_replication_that_walked_to_the_cap_converges():
    """From one global rate, Newton spent all 200 iterations walking the
    nearly empty first piece's rate down on this replication."""
    config = ScenarioConfig("ic2", n=1000, seed=1)
    stream = np.random.SeedSequence(1).spawn(2)[1]
    fit = fit_pch(generate(config, seed=stream), CutGrid(config.cuts))
    assert fit.iterations <= 10
    fit.info_factor


def test_trace_is_monotone_and_counts_iterations():
    ds = generate(ScenarioConfig("ic1", n=200, seed=2))
    fit = fit_pch(ds, IC_CUTS)
    trace = np.array(fit.loglik_trace)
    assert len(trace) == fit.iterations + 1
    assert np.all(np.diff(trace[:-1]) >= 0)
    assert trace[-1] == fit.loglik


def test_an_overflowing_trial_is_rejected_by_the_kernel(monkeypatch):
    """A first step 2^12 times too long overflows the trial rates, which the
    kernel rejects without a warning; twelve halvings give back the unscaled
    step exactly, so the fit is the unpatched one bit for bit."""
    ds = generate(ScenarioConfig("ic1", n=200, seed=2))
    plain = fit_pch(ds, IC_CUTS)
    steps, overflowed = [], []

    def long_first_step(hess_b, grad_b):
        steps.append(_ascent_steps(hess_b, grad_b))
        return steps[-1] * (2.0**12 if len(steps) == 1 else 1.0)

    def watched_kernel(alpha, dlam, prep, rows):
        overflowed.append(np.isinf(alpha).any())
        return _kernel(alpha, dlam, prep, rows)

    monkeypatch.setattr(fitting, "_ascent_steps", long_first_step)
    monkeypatch.setattr(fitting, "_kernel", watched_kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_pch(ds, IC_CUTS)
    assert overflowed[0]
    assert fit.iterations == plain.iterations
    np.testing.assert_array_equal(fit.model.rates, plain.model.rates)
    np.testing.assert_array_equal(fit.info, plain.info)
    assert fit.loglik_trace == plain.loglik_trace


def test_no_improving_trial_ends_the_fit_at_its_start(monkeypatch):
    """A fit whose every trial has a log-likelihood of -inf halves its first
    step to the limit and fails there, at the starting rates."""
    ds = generate(ScenarioConfig("ic1", n=200, seed=2))

    def rejecting_kernel(alpha, dlam, prep, rows):
        loglik, grad, hess = _kernel(alpha, dlam, prep, rows)
        return np.full_like(loglik, -np.inf), grad, hess

    monkeypatch.setattr(fitting, "_kernel", rejecting_kernel)
    with pytest.raises(DidNotConverge, match="^step-halving found no improving step") as excinfo:
        fit_pch(ds, IC_CUTS)
    assert excinfo.value.iterations == 1
    np.testing.assert_array_equal(excinfo.value.last_iterate, _initial_rates(ds, IC_CUTS))


def test_init_validation():
    ds = interval_dataset([0.0, 1.0], [1.0, math.inf])
    for bad in ([1.0, 1.0], [-1.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError):
            fit_pch(ds, CutGrid(()), init=bad)
    # A start beyond the rate bounds is the caller's error, not the data's:
    # 1e-12 used to end at once in NonIdentifiable, 2e6 to walk back.
    config = ScenarioConfig("ic1", 200, seed=1)
    ds = generate(config)
    grid = CutGrid(config.cuts)
    for rate in (1e-12, 2e6):
        init = _initial_rates(ds, grid)
        init[0] = rate
        with pytest.raises(ValueError, match=r"\[1e-10, 1e\+06\]"):
            fit_pch(ds, grid, init=init)
    for rate in (fitting.RATE_LOWER_BOUND, fitting.RATE_UPPER_BOUND):
        init[0] = rate
        fit_pch(ds, grid, init=init)


@pytest.mark.parametrize("tol, max_iter", [(math.inf, 200), (math.nan, 200), (-1e-8, 200),
                                           (1e-8, 0), (1e-8, -5)])
def test_solver_arguments_that_cannot_converge_are_refused(tol, max_iter):
    # tol = inf would end Newton after its first step and a budget below 1
    # in DidNotConverge; a zero tol converges by the rounding floor.
    config = ScenarioConfig("ic1", 200, seed=1)
    ds, grid = generate(config), CutGrid(config.cuts)
    fit = fit_pch(ds, grid, tol=0.0)
    assert fit.iterations == fit_pch(ds, grid).iterations
    with pytest.raises(ValueError, match="finite tol >= 0 and max_iter >= 1"):
        fit_pch(ds, grid, tol=tol, max_iter=max_iter)
    with pytest.raises(ValueError, match="finite tol >= 0 and max_iter >= 1"):
        jackknife_pch(ds, grid, "rmst", config.tau, tol=tol, max_iter=max_iter, fit=fit)


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


def test_a_singular_row_takes_ascent_and_the_others_keep_their_newton_step():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    concave = -(a @ a.T + 3.0 * np.eye(3))
    hess_b = np.stack([concave, np.zeros((3, 3)), concave])
    grad_b = rng.normal(size=(3, 3))
    step = _ascent_steps(hess_b, grad_b)
    for row in (0, 2):
        np.testing.assert_array_equal(step[row], np.linalg.solve(concave, -grad_b[row]))
    np.testing.assert_array_equal(step[1], grad_b[1] / max(1.0, np.max(np.abs(grad_b[1]))))


def _manual_fit(info):
    model = PchModel(CutGrid((1.0,)), [1.0, 1.0])
    report = None
    dataset = interval_dataset([0.5] * 10, [2.0] * 10)
    return PchFit(
        model=model,
        info=np.asarray(info, float),
        loglik=-1.0,
        grad_norm=0.0,
        iterations=1,
        condition_report=report,
        dataset=dataset,
        loglik_trace=(-2.0, -1.0),
        likelihood=prepare_likelihood(dataset, model.grid),
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


def test_check_sample_accepts_the_fitted_records_in_any_order():
    """Right-censored brackets (right = inf), -0.0 for 0.0 and tied records
    in another order are the fitted sample; a copy with one record changed,
    or with two right endpoints swapped, is not."""
    left = np.array([0.0, 1.0, 1.0, 2.0, 0.5, 3.0, 1.0, 0.0])
    right = np.array([1.0, math.inf, 2.0, math.inf, 0.5, math.inf, math.inf, 2.5])
    ds = interval_dataset(left, right)
    fit = fit_pch(ds, CutGrid((1.5,)))
    order = np.array([6, 3, 7, 0, 5, 2, 4, 1])
    shuffled = np.where(left == 0.0, -0.0, left)[order]
    fit.check_sample(ds)
    fit.check_sample(interval_dataset(shuffled, right[order]))
    changed = right.copy()
    changed[3] = 4.0
    swapped = right[[0, 1, 7, 3, 4, 5, 6, 2]]
    for other in (changed, swapped):
        with pytest.raises(ValueError, match="not of this dataset"):
            fit.check_sample(interval_dataset(left, other))
