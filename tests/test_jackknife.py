"""Exact leave-one-out pseudo-observations checked against literal refits.

These oracles are deliberately slow and explicit: drop a subject, rebuild
the estimate from scratch, apply the n*full - (n-1)*loo rule, and demand
agreement with the packaged implementations.
"""

import math

import numpy as np
import pytest

from pseudosurv import (
    CutGrid,
    InvalidTau,
    NoEvents,
    fit_pch,
    interval_dataset,
    jackknife_km,
    jackknife_pch,
    km_fit,
    right_censored_dataset,
)
from pseudosurv.pch import rmst_closed_form
from pseudosurv.simulate import ScenarioConfig, generate


def _drop(dataset, l):
    if dataset.kind == "right-censored":
        keep = [i for i in range(dataset.n) if i != l]
        return right_censored_dataset(dataset.times[keep], dataset.status[keep])
    keep = [i for i in range(dataset.n) if i != l]
    return interval_dataset(dataset.left[keep], dataset.right[keep])


def _random_rc(rng, n):
    times = np.round(rng.exponential(2.0, n), 1) + 0.1
    status = (rng.uniform(size=n) < 0.7).astype(int)
    if status.sum() < 2:
        status[:2] = 1
    return right_censored_dataset(times, status)


def test_uncensored_survival_pseudo_is_the_indicator():
    ds = right_censored_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
    pv = jackknife_km(ds, "survival", 2.5)
    np.testing.assert_allclose(pv.values, [0.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert pv.method == "jackknife"


def test_uncensored_rmst_pseudo_is_the_truncated_time():
    ds = right_censored_dataset([1.0, 3.0], [1, 1])
    pv = jackknife_km(ds, "rmst", 2.0)
    np.testing.assert_allclose(pv.values, [1.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("target,horizon", [("survival", 2.1), ("rmst", 3.0)])
def test_km_jackknife_equals_literal_refits(target, horizon):
    rng = np.random.default_rng(12)
    ds = _random_rc(rng, 30)
    pv = jackknife_km(ds, target, horizon)
    km = km_fit(ds)
    full = km.survival_at(horizon) if target == "survival" else km.rmst(horizon)
    for l in range(ds.n):
        sub = km_fit(_drop(ds, l))
        loo = sub.survival_at(horizon) if target == "survival" else sub.rmst(horizon)
        assert pv.values[l] == pytest.approx(ds.n * full - (ds.n - 1) * loo, abs=1e-12)


def test_km_jackknife_handles_heavy_ties():
    ds = right_censored_dataset([1.0, 1.0, 1.0, 2.0, 2.0, 2.0], [1, 0, 1, 1, 0, 1])
    pv = jackknife_km(ds, "survival", 1.5)
    km = km_fit(ds)
    for l in range(ds.n):
        loo = km_fit(_drop(ds, l)).survival_at(1.5)
        assert pv.values[l] == pytest.approx(6 * km.survival_at(1.5) - 5 * loo, abs=1e-12)


def test_removing_the_only_event_is_an_error():
    ds = right_censored_dataset([1.0, 2.0, 3.0], [1, 0, 0])
    with pytest.raises(NoEvents) as excinfo:
        jackknife_km(ds, "survival", 1.5)
    assert excinfo.value.subject == 0


def test_km_target_validation():
    ds = right_censored_dataset([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError):
        jackknife_km(ds, "hazard", 1.0)
    with pytest.raises(InvalidTau):
        jackknife_km(ds, "rmst", math.inf)


IC_CUTS = CutGrid((4.0, 5.0, 6.0, 7.0))


@pytest.mark.parametrize("target,horizon", [("survival", 5.5), ("rmst", 8.0)])
def test_pch_jackknife_equals_literal_refits(target, horizon):
    ds = generate(ScenarioConfig("ic1", n=60, seed=2))
    pv = jackknife_pch(ds, IC_CUTS, target, horizon)
    assert pv.flagged is None
    full_fit = fit_pch(ds, IC_CUTS)
    full = (
        float(full_fit.model.survival(horizon))
        if target == "survival"
        else rmst_closed_form(full_fit.model, horizon)
    )
    for l in range(0, ds.n, 7):
        sub_fit = fit_pch(_drop(ds, l), IC_CUTS)
        loo = (
            float(sub_fit.model.survival(horizon))
            if target == "survival"
            else rmst_closed_form(sub_fit.model, horizon)
        )
        assert pv.values[l] == pytest.approx(ds.n * full - (ds.n - 1) * loo, abs=1e-6)


def test_pch_jackknife_accepts_unrestricted_mean():
    ds = generate(ScenarioConfig("ic1", n=40, seed=4))
    pv = jackknife_pch(ds, IC_CUTS, "rmst", math.inf)
    fit = fit_pch(ds, IC_CUTS)
    loo = fit_pch(_drop(ds, 5), IC_CUTS)
    expected = 40 * rmst_closed_form(fit.model, math.inf) - 39 * rmst_closed_form(
        loo.model, math.inf
    )
    assert pv.values[5] == pytest.approx(expected, abs=1e-5)


def test_identical_records_collapse_to_the_plugin_value():
    ds = interval_dataset([1.0] * 8, [2.5] * 8)
    fit = fit_pch(ds, CutGrid(()))
    pv = jackknife_pch(ds, CutGrid(()), "survival", 2.0, fit=fit)
    np.testing.assert_allclose(
        pv.values, float(fit.model.survival(2.0)), atol=1e-7
    )


def test_supplied_fit_must_match_the_grid():
    ds = generate(ScenarioConfig("ic1", n=40, seed=4))
    fit = fit_pch(ds, IC_CUTS)
    with pytest.raises(ValueError):
        jackknife_pch(ds, CutGrid((4.0, 6.0)), "survival", 5.0, fit=fit)


def test_supplied_fit_must_be_of_the_same_sample_size():
    ds = interval_dataset([0.0, 1.0, 0.5, 2.0, 1.5], [1.0, math.inf, 2.0, 3.0, math.inf])
    fit = fit_pch(interval_dataset([0.0, 1.0, 0.5], [1.0, math.inf, 2.0]), CutGrid(()))
    with pytest.raises(ValueError):
        jackknife_pch(ds, CutGrid(()), "survival", 1.0, fit=fit)


def test_failed_subfit_is_flagged_not_fatal():
    # index 6 holds the only finite bracket touching the second piece, so
    # its removal makes that rate collapse; the vector survives with one NaN
    lefts = [0.2] * 6 + [1.2] + [2.0, 2.0]
    rights = [0.8] * 6 + [1.8] + [math.inf, math.inf]
    ds = interval_dataset(lefts, rights)
    pv = jackknife_pch(ds, CutGrid((1.0,)), "survival", 1.5)
    assert pv.flagged is not None
    assert pv.flagged[6]
    assert pv.flagged.sum() == 1
    assert math.isnan(pv.values[6])
    assert np.all(np.isfinite(np.delete(pv.values, 6)))
