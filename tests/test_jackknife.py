"""Exact leave-one-out pseudo-observations checked against literal refits.

These oracles are deliberately slow and explicit: drop a subject, rebuild
the estimate from scratch, apply the n*full - (n-1)*loo rule, and demand
agreement with the packaged implementations.
"""

import math
import warnings

import numpy as np
import pytest

from pseudosurv import (
    CutGrid,
    InvalidTau,
    NoEvents,
    SingularInformation,
    fit_pch,
    interval_dataset,
    jackknife_km,
    jackknife_pch,
    km_fit,
    right_censored_dataset,
)
from pseudosurv import fitting, jackknife
from pseudosurv._parts import blocks
from pseudosurv.fitting import newton_prepared
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


def test_no_events_names_the_subject_past_the_first_block(monkeypatch):
    # one event time, so blocks of two subjects: the only event is in the fifth
    monkeypatch.setattr(jackknife, "BLOCK_ELEMENTS", 2)
    ds = right_censored_dataset(np.arange(1.0, 11.0), [0] * 8 + [1, 0])
    with pytest.raises(NoEvents) as excinfo:
        jackknife_km(ds, "survival", 5.0)
    assert excinfo.value.subject == 8


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


def test_supplied_fit_must_be_of_the_same_sample():
    ds = interval_dataset([0.0, 1.0, 0.5, 2.0, 1.5], [1.0, math.inf, 2.0, 3.0, math.inf])
    other = interval_dataset([0.2, 1.5, 0.1, 2.5, 0.5], [1.2, math.inf, 0.9, 3.5, 2.0])
    with pytest.raises(ValueError, match="not of this dataset"):
        jackknife_pch(ds, CutGrid(()), "survival", 1.0, fit=fit_pch(other, CutGrid(())))
    own = jackknife_pch(ds, CutGrid(()), "survival", 1.0, fit=fit_pch(ds, CutGrid(())))
    np.testing.assert_array_equal(
        own.values, jackknife_pch(ds, CutGrid(()), "survival", 1.0).values
    )


def test_a_reordered_sample_is_prepared_once(monkeypatch):
    """A supplied fit of the records in another order prepares their
    likelihood once, for the starts and the refits alike."""
    ds = generate(ScenarioConfig("ic1", n=40, seed=4))
    fit = fit_pch(ds, IC_CUTS)
    order = np.arange(ds.n)[::-1]
    reordered = interval_dataset(ds.left[order], ds.right[order])
    calls = []
    prepare = fitting.prepare_likelihood
    monkeypatch.setattr(fitting, "prepare_likelihood", lambda *a: calls.append(a) or prepare(*a))
    pv = jackknife_pch(reordered, IC_CUTS, "rmst", 6.0, fit=fit)
    assert len(calls) == 1
    np.testing.assert_allclose(pv.values[order],
                               jackknife_pch(ds, IC_CUTS, "rmst", 6.0, fit=fit).values, rtol=1e-9)


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


@pytest.mark.parametrize("replication", [24, 85])
def test_refits_whose_trials_must_not_fall_converge(replication):
    """One refit of each of these ic2 replications (subjects 196 and 163)
    ran to the 200-iteration cap when trials a few units in the last place
    below the current log-likelihood were also taken; with no trial allowed
    to fall, they converge in 71 and 22 iterations (71 and 57 when every
    refit started at the full-sample rates; replication 24's information is
    singular, so its refits still start there)."""
    config = ScenarioConfig("ic2", n=300, seed=7)
    ds = generate(config, seed=np.random.SeedSequence(7).spawn(200)[replication])
    grid = CutGrid(config.cuts)
    with warnings.catch_warnings():
        # replication 24 has no left endpoint beyond the last cut
        warnings.simplefilter("ignore", UserWarning)
        fit = fit_pch(ds, grid)
    assert jackknife_pch(ds, grid, "rmst", config.tau, fit=fit).flagged is None


def _by_single_subjects(monkeypatch, run):
    """The oracle's output at the default block size, then one subject a block."""
    default = run()
    monkeypatch.setattr(jackknife, "BLOCK_ELEMENTS", 1)
    return default, run()


def _assert_same_pseudo(a, b):
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)
    if a.flagged is None or b.flagged is None:
        assert a.flagged is None and b.flagged is None
    else:
        np.testing.assert_array_equal(a.flagged, b.flagged)


@pytest.mark.parametrize("target", ["survival", "rmst"])
def test_km_jackknife_does_not_depend_on_the_block_size(monkeypatch, target):
    rng = np.random.default_rng(5)
    times = np.round(rng.exponential(2.0, 80)) + 1.0  # eight distinct times
    status = (rng.uniform(size=80) < 0.6).astype(int)
    ds = right_censored_dataset(times, status)
    default, single = _by_single_subjects(
        monkeypatch, lambda: jackknife_km(ds, target, 3.5)
    )
    _assert_same_pseudo(default, single)


@pytest.mark.parametrize(
    "scenario,n,seed,target,horizon",
    [
        ("ic1", 60, 2, "rmst", 8.0),
        ("ic1", 60, 2, "survival", 5.5),
        ("ic2", 60, 19, "rmst", math.inf),  # five refits fail
    ],
)
def test_pch_jackknife_does_not_depend_on_the_block_size(
    monkeypatch, scenario, n, seed, target, horizon
):
    config = ScenarioConfig(scenario, n=n, seed=seed)
    ds = generate(config)
    grid = CutGrid(config.cuts)
    fit = fit_pch(ds, grid)
    default, single = _by_single_subjects(
        monkeypatch, lambda: jackknife_pch(ds, grid, target, horizon, fit=fit)
    )
    if scenario == "ic2":
        assert default.flagged is not None and default.flagged.sum() == 5
    _assert_same_pseudo(default, single)


def _sim_small_ic1(seed, replications):
    """ic1 n = 200 replications drawn as ``monte_carlo`` draws them, with
    their fits; the last one named per seed has a flagged refit."""
    config = ScenarioConfig("ic1", n=200, seed=seed)
    streams = np.random.SeedSequence(seed).spawn(120)
    grid = CutGrid(config.cuts)
    for r in replications:
        ds = generate(config, seed=streams[r])
        yield ds, grid, config.tau, fit_pch(ds, grid)


FIRST_ORDER_SAMPLES = {1: (0, 1, 14), 2: (0, 1, 47), 3: (0, 1, 71)}


def _refits_from_the_full_rates(ds, grid, tau, fit):
    """The RMST oracle with every refit started at the full-sample rates:
    its values, its flags and the refits' total Newton iterations."""
    prep, alpha = fit.likelihood, fit.model.rates
    rates = np.tile(alpha, (ds.n, 1))
    flagged = np.zeros(ds.n, dtype=bool)
    iterations = 0
    step = max(1, jackknife.BLOCK_ELEMENTS // max(prep.interval_rows.size, 1))
    for rows in blocks(ds.n, step):
        out = newton_prepared(prep.leave_out(rows), rates[rows], 1e-8, 200)
        rates[rows] = out.rates
        flagged[rows] = [error is not None for error in out.errors]
        iterations += int(out.iterations.sum())
    full = float(jackknife._pch_statistic(grid, alpha, "rmst", tau))
    values = ds.n * full - (ds.n - 1) * jackknife._pch_statistic(grid, rates, "rmst", tau)
    return values, flagged, iterations


def _counting_refits(monkeypatch):
    """Patch the oracle's Newton loop to add up its refits' iterations."""
    counted = []

    def newton(*args):
        out = newton_prepared(*args)
        counted.append(int(out.iterations.sum()))
        return out

    monkeypatch.setattr(jackknife, "newton_prepared", newton)
    return counted


def _flags(pv):
    return np.zeros(pv.values.size, dtype=bool) if pv.flagged is None else pv.flagged


@pytest.mark.parametrize("seed", sorted(FIRST_ORDER_SAMPLES))
def test_first_order_starts_reach_the_refits_from_the_full_rates(seed):
    for ds, grid, tau, fit in _sim_small_ic1(seed, FIRST_ORDER_SAMPLES[seed]):
        pv = jackknife_pch(ds, grid, "rmst", tau, fit=fit)
        values, flagged, _ = _refits_from_the_full_rates(ds, grid, tau, fit)
        np.testing.assert_array_equal(_flags(pv), flagged)
        np.testing.assert_allclose(pv.values, values, rtol=1e-9, atol=0)
    assert flagged.any()


def test_first_order_starts_save_newton_iterations(monkeypatch):
    counted = _counting_refits(monkeypatch)
    from_full = 0
    for seed, replications in FIRST_ORDER_SAMPLES.items():
        for ds, grid, tau, fit in _sim_small_ic1(seed, replications):
            jackknife_pch(ds, grid, "rmst", tau, fit=fit)
            from_full += _refits_from_the_full_rates(ds, grid, tau, fit)[2]
    assert sum(counted) <= 0.7 * from_full


def test_singular_information_starts_every_refit_at_the_full_rates(monkeypatch):
    config = ScenarioConfig("ic1", n=50, seed=1, cuts=(4.0, 50.0))
    ds = generate(config, seed=np.random.SeedSequence(1).spawn(1)[0])
    grid = CutGrid(config.cuts)
    with warnings.catch_warnings():
        # no record reaches the last piece
        warnings.simplefilter("ignore", UserWarning)
        fit = fit_pch(ds, grid)
    with pytest.raises(SingularInformation):
        fit.info_factor
    counted = _counting_refits(monkeypatch)
    pv = jackknife_pch(ds, grid, "rmst", config.tau, fit=fit)
    values, flagged, iterations = _refits_from_the_full_rates(ds, grid, config.tau, fit)
    assert pv.values.tobytes() == values.tobytes()
    np.testing.assert_array_equal(_flags(pv), flagged)
    assert sum(counted) == iterations
