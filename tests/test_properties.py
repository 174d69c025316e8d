"""Properties of the piecewise-hazard fit and its fast pseudo-observations over
interval-censored samples.

Each sample has 5 to 60 records of every censoring class on a grid of 1 to
4 pieces. Samples whose fit is not identifiable, does not converge or has a
singular information are rejected, since no pseudo-observation exists for
them. Hypothesis runs derandomized, so every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pseudosurv import (
    CutGrid,
    PseudosurvError,
    fit_pch,
    interval_dataset,
    pseudo_alpha,
    pseudo_rmst,
    pseudo_survival,
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
