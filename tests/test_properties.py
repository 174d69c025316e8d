"""Properties of the fast pseudo-observations over generated samples.

The piecewise-hazard fit is checked on interval-censored samples of 5 to 60
records of every censoring class on a grid of 1 to 4 pieces. Samples whose
fit is not identifiable, does not converge or has a singular information
are rejected, since no pseudo-observation exists for them.

The product-limit maps are checked on right-censored samples of 1 to 60
records whose times lie on a coarse grid, so that events, censorings and
the horizon tie heavily. Hypothesis runs derandomized, so every run checks
the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from pseudosurv import (
    CutGrid,
    PseudosurvError,
    fit_pch,
    interval_dataset,
    km_fit,
    km_pseudo_rmst,
    km_pseudo_survival,
    pseudo_alpha,
    pseudo_rmst,
    pseudo_survival,
    right_censored_dataset,
)
from pseudosurv.fitting import _initial_rates
from pseudosurv.pch import loglik_parts, prepare_likelihood, rmst_closed_form, score_matrix

examples = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def ic_samples(draw):
    """(dataset, grid): brackets, right-censored, exact and left-censored records."""
    gaps = draw(st.lists(st.floats(0.3, 2.0), max_size=3))
    grid = CutGrid(tuple(np.cumsum(gaps)))
    top = (grid.cuts[-1] if grid.cuts else 1.0) + 1.0
    record = st.tuples(st.integers(0, 3), st.floats(0.05, top), st.floats(0.1, 2.0))
    left, right = [], []
    for kind, a, w in draw(st.lists(record, min_size=5, max_size=60)):
        lo, hi = ((a, a + w), (a, math.inf), (a, a), (0.0, a))[kind]
        left.append(lo)
        right.append(hi)
    return interval_dataset(left, right), grid


def _fit_or_reject(ds, grid, **options):
    try:
        fit = fit_pch(ds, grid, strict=True, **options)
        fit.info_factor
    except PseudosurvError:
        reject()
    return fit


@examples
@given(ic_samples(), st.floats(0.1, 5.0), st.one_of(st.floats(0.1, 5.0), st.just(math.inf)))
def test_fast_pseudo_values_average_to_the_plugin(sample, t, tau):
    ds, grid = sample
    # The mean misses the plug-in by info^-1 times the mean score, which is
    # the Newton step from the fitted rates: the default stopping rule, on
    # the step, bounds it whatever the information's condition.
    fit = _fit_or_reject(ds, grid)
    np.testing.assert_allclose(pseudo_alpha(fit, ds).mean(axis=0), fit.model.rates, atol=1e-7)
    assert pseudo_survival(fit, ds, t).mean() == pytest.approx(
        float(fit.model.survival(t)), abs=1e-7
    )
    assert pseudo_rmst(fit, ds, tau).mean() == pytest.approx(
        rmst_closed_form(fit.model, tau), abs=1e-7
    )


@examples
@given(ic_samples(), st.floats(0.1, 5.0), st.randoms(use_true_random=False))
def test_permuting_the_records_permutes_the_pseudo_values(sample, t, rnd):
    ds, grid = sample
    fit = _fit_or_reject(ds, grid)
    order = np.array(rnd.sample(range(ds.n), ds.n))
    shuffled = interval_dataset(ds.left[order], ds.right[order])
    np.testing.assert_allclose(
        pseudo_alpha(fit, shuffled), pseudo_alpha(fit, ds)[order], rtol=0, atol=1e-13
    )
    for pseudo in (pseudo_survival, pseudo_rmst):
        np.testing.assert_allclose(
            pseudo(fit, shuffled, t).values, pseudo(fit, ds, t).values[order],
            rtol=0, atol=1e-13,
        )


@examples
@given(ic_samples(), st.randoms(use_true_random=False))
def test_permuting_the_records_leaves_the_fit_unchanged(sample, rnd):
    ds, grid = sample
    fit = _fit_or_reject(ds, grid)
    order = np.array(rnd.sample(range(ds.n), ds.n))
    other = fit_pch(interval_dataset(ds.left[order], ds.right[order]), grid, strict=True)
    assert other.iterations == fit.iterations
    np.testing.assert_allclose(other.model.rates, fit.model.rates, rtol=1e-13, atol=0)


@examples
@given(ic_samples())
def test_start_matches_brute_force_exposure(sample):
    """The start's per-piece sums against the n x K exposure matrix; a piece
    nobody reaches starts at the pooled rate."""
    ds, grid = sample
    finite = np.isfinite(ds.right)
    imputed = np.where(finite, (ds.left + np.where(finite, ds.right, 0.0)) / 2.0, ds.left)
    exposure = grid.exposure(imputed).sum(axis=0)
    t = imputed[finite]
    events = np.array([np.sum((t > lo) & (t <= hi)) for lo, hi in zip(grid.lower, grid.upper)])
    events[0] += np.sum(t == 0.0)
    pooled = (events.sum() + 0.5) / exposure.sum()
    expected = [(e + 0.5) / x if x > 0 else pooled for e, x in zip(events, exposure)]
    np.testing.assert_allclose(_initial_rates(ds, grid), expected, rtol=1e-12, atol=0)


@examples
@given(ic_samples(), st.lists(st.floats(0.05, 3.0), min_size=4, max_size=4))
def test_score_matrix_columns_sum_to_the_kernel_gradient(sample, rates):
    """The per-record scores against the hoisted aggregate gradient."""
    ds, grid = sample
    alpha = np.array(rates[: grid.K])
    prep = prepare_likelihood(ds, grid)
    np.testing.assert_allclose(
        score_matrix(alpha, prep).sum(axis=0), loglik_parts(alpha, prep)[1],
        rtol=1e-12, atol=1e-12,
    )


# Times on a grid of step 0.5 up to 4, and horizons on the same grid or off
# it, up to beyond the last time (where the maps warn and extend flat).
_GRID_STEP = 0.5
_horizons = st.one_of(
    st.integers(1, 10).map(lambda i: i * _GRID_STEP), st.floats(0.01, 5.5)
)
beyond_last_time = pytest.mark.filterwarnings("ignore:.*last observed time:UserWarning")


@st.composite
def rc_samples(draw):
    """A right-censored dataset with at least one event and heavy ties."""
    records = draw(st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 1)), min_size=1, max_size=60
    ))
    assume(any(status for _, status in records))
    times = [i * _GRID_STEP for i, _ in records]
    return right_censored_dataset(times, [status for _, status in records])


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@beyond_last_time
@examples
@given(rc_samples(), _horizons, _horizons)
def test_km_fast_pseudo_values_average_to_the_plugin(ds, t, tau):
    km = km_fit(ds)
    for pv, plug_in in ((km_pseudo_survival(km, t), km.survival_at(t)),
                        (km_pseudo_rmst(km, tau), km.rmst(tau))):
        assert abs(pv.mean() - plug_in) <= 1e-12 * abs(plug_in)


@beyond_last_time
@examples
@given(rc_samples(), _horizons, _horizons, st.randoms(use_true_random=False))
def test_km_permuting_the_records_permutes_the_pseudo_values(ds, t, tau, rnd):
    order = np.array(rnd.sample(range(ds.n), ds.n))
    km = km_fit(ds)
    other = km_fit(right_censored_dataset(ds.times[order], ds.status[order]))
    _assert_same_bits(km_pseudo_survival(other, t).values, km_pseudo_survival(km, t).values[order])
    _assert_same_bits(km_pseudo_rmst(other, tau).values, km_pseudo_rmst(km, tau).values[order])


@beyond_last_time
@examples
@given(rc_samples(), _horizons, _horizons, st.integers(-12, 12))
def test_km_scaling_time_by_a_power_of_two(ds, t, tau, k):
    """RMST values scale exactly with the time unit; survival values do not move."""
    scale = 2.0 ** k
    km = km_fit(ds)
    scaled = km_fit(right_censored_dataset(ds.times * scale, ds.status))
    _assert_same_bits(km_pseudo_survival(scaled, t * scale).values,
                      km_pseudo_survival(km, t).values)
    _assert_same_bits(km_pseudo_rmst(scaled, tau * scale).values,
                      km_pseudo_rmst(km, tau).values * scale)


@examples
@given(st.integers(1, 60), st.integers(1, 8))
def test_km_all_events_tied(n, i):
    """Every subject has its event at one time c: the curve drops from 1 to
    0 at c, so each survival value is the indicator of outliving the
    horizon and each RMST value is min(c, tau)."""
    c = i * _GRID_STEP
    km = km_fit(right_censored_dataset([c] * n, [1] * n))
    _assert_same_bits(km_pseudo_survival(km, c - _GRID_STEP / 2).values, np.ones(n))
    _assert_same_bits(km_pseudo_survival(km, c).values, np.zeros(n))
    _assert_same_bits(km_pseudo_rmst(km, c).values, np.full(n, c))
    _assert_same_bits(km_pseudo_rmst(km, c / 2).values, np.full(n, c / 2))


@examples
@given(rc_samples(), st.floats(0.01, 1.0))
def test_km_horizon_before_the_first_event(ds, fraction):
    km = km_fit(ds)
    first = float(km.event_times[0])
    assume(first > 0)
    horizon = first * fraction * (1 - 1e-9)
    _assert_same_bits(km_pseudo_survival(km, horizon).values, np.ones(ds.n))
    _assert_same_bits(km_pseudo_rmst(km, horizon).values, np.full(ds.n, horizon))


@examples
@given(rc_samples(), st.floats(1e-6, 10.0))
def test_km_horizon_past_the_last_time(ds, beyond):
    """Past the last time the maps warn, extend the curve flat and still
    average to the plug-in."""
    km = km_fit(ds)
    horizon = km.max_time + beyond
    with pytest.warns(UserWarning, match="last observed time"):
        survival = km_pseudo_survival(km, horizon)
    with pytest.warns(UserWarning, match="last observed time"):
        rmst = km_pseudo_rmst(km, horizon)
    with pytest.warns(UserWarning, match="last observed time"):
        assert survival.mean() == pytest.approx(km.survival_at(horizon), rel=1e-12, abs=0)
    with pytest.warns(UserWarning, match="last observed time"):
        assert rmst.mean() == pytest.approx(km.rmst(horizon), rel=1e-12, abs=0)
