"""Product-limit fit and the expansion-based pseudo-observations."""

import warnings

import numpy as np
import pytest

from pseudosurv import (
    EmptyInput,
    InvalidTau,
    InvalidTime,
    NoEvents,
    PseudoVector,
    jackknife_km,
    km_fit,
    km_pseudo_rmst,
    km_pseudo_survival,
    right_censored_dataset,
)
from pseudosurv.km import _step_value


def _random_sample(rng, n):
    times = rng.exponential(2.0, n)
    status = (rng.uniform(size=n) < 0.7).astype(int)
    status[rng.integers(n)] = 1  # at least one event
    return right_censored_dataset(times, status)


def _exact_step_integral(km, tau):
    """Riemann sum on a partition refined by every knot, hence exact."""
    pts = np.union1d(np.linspace(0.0, tau, 10_001), km.event_times)
    pts = np.concatenate([pts[pts < tau], [tau]])
    widths = np.diff(pts)
    values = np.array([_step_value(km.event_times, km.survival, p) for p in pts[:-1]])
    return float(values @ widths)


def test_km_fit_half_survival_with_censored_tie_breaking():
    # censored at 1, events at 2 and 3: S(2) = 1 - 1/2
    ds = right_censored_dataset([1.0, 2.0, 3.0], [0, 1, 1])
    km = km_fit(ds)
    assert km.survival_at(2.0) == 0.5


def test_km_fit_censored_subject_still_at_risk_at_its_own_time():
    ds = right_censored_dataset([1.0, 1.0, 2.0], [1, 0, 1])
    km = km_fit(ds)
    # at u=1 all three are at risk, so the first factor is 1 - 1/3
    assert km.survival_at(1.0) == pytest.approx(2 / 3)
    assert km.survival_at(2.0) == 0.0


def test_km_fit_survival_is_nonincreasing():
    rng = np.random.default_rng(5)
    km = km_fit(_random_sample(rng, 300))
    assert np.all(np.diff(km.survival) <= 1e-15)


def test_km_fit_rejects_empty_and_eventless_samples():
    with pytest.raises(EmptyInput):
        km_fit(right_censored_dataset([], []))
    with pytest.raises(NoEvents):
        km_fit(right_censored_dataset([1.0, 2.0], [0, 0]))


def test_survival_curve_starts_at_one():
    km = km_fit(right_censored_dataset([1.0, 2.0], [1, 1]))
    t, s = km.survival_curve()
    assert t[0] == 0.0 and s[0] == 1.0
    assert s[-1] == km.survival_at(2.0)


def test_survival_beyond_last_time_warns_and_extends_flat():
    km = km_fit(right_censored_dataset([1.0, 2.0], [1, 0]))
    with pytest.warns(UserWarning):
        value = km.survival_at(10.0)
    assert value == 0.5


def test_rmst_beyond_last_time_warns():
    km = km_fit(right_censored_dataset([1.0, 2.0], [1, 0]))
    with pytest.warns(UserWarning):
        km.rmst(5.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda km, ds: km.survival_at(10.0),
        lambda km, ds: km.rmst(10.0),
        lambda km, ds: km_pseudo_survival(km, 10.0),
        lambda km, ds: km_pseudo_rmst(km, 10.0),
        lambda km, ds: jackknife_km(ds, "survival", 10.0),
        lambda km, ds: jackknife_km(ds, "rmst", 10.0),
    ],
    ids=["survival_at", "rmst", "pseudo_survival", "pseudo_rmst",
         "jackknife_survival", "jackknife_rmst"],
)
def test_beyond_last_time_warning_names_the_caller(call):
    ds = right_censored_dataset([1.0, 2.0, 3.0], [1, 1, 0])
    km = km_fit(ds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(km, ds)
    assert len(caught) == 1
    assert "last observed time" in str(caught[0].message)
    assert caught[0].filename == __file__


def test_rmst_is_nondecreasing_in_tau():
    rng = np.random.default_rng(8)
    km = km_fit(_random_sample(rng, 200))
    taus = np.linspace(0.1, km.max_time, 25)
    vals = [km.rmst(t) for t in taus]
    assert np.all(np.diff(vals) >= -1e-15)


def test_rmst_matches_brute_force_step_integral():
    rng = np.random.default_rng(2)
    km = km_fit(_random_sample(rng, 150))
    for tau in (0.5, 1.7, float(km.event_times[3]), km.max_time):
        assert km.rmst(tau) == pytest.approx(_exact_step_integral(km, tau), abs=1e-12)


def test_pseudo_survival_hand_values():
    """Four subjects, the third censored; values derived by hand."""
    ds = right_censored_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
    km = km_fit(ds)
    pv = km_pseudo_survival(km, 2.5)
    assert pv.values[0] == pytest.approx(0.125, abs=1e-12)
    assert pv.values[3] == pytest.approx(61 / 72, abs=1e-12)
    assert pv.target == "survival" and pv.method == "fast"
    assert pv.horizon == 2.5


def test_pseudo_rmst_hand_values_uncensored():
    ds = right_censored_dataset([1.0, 3.0], [1, 1])
    pv = km_pseudo_rmst(km_fit(ds), 2.0)
    np.testing.assert_allclose(pv.values, [1.25, 1.75], atol=1e-12)


def test_pseudo_mean_preservation_randomized():
    rng = np.random.default_rng(11)
    for n in (50, 500):
        km = km_fit(_random_sample(rng, n))
        t = float(np.quantile(km.event_times, 0.6))
        tau = float(np.quantile(km.event_times, 0.8))
        assert km_pseudo_survival(km, t).mean() == pytest.approx(
            km.survival_at(t), abs=1e-12
        )
        assert km_pseudo_rmst(km, tau).mean() == pytest.approx(km.rmst(tau), abs=1e-12)


def test_pseudo_survival_before_first_event_is_all_ones():
    km = km_fit(right_censored_dataset([2.0, 3.0], [1, 1]))
    np.testing.assert_array_equal(km_pseudo_survival(km, 1.0).values, [1.0, 1.0])


def test_pseudo_rmst_before_first_event_is_tau():
    km = km_fit(right_censored_dataset([2.0, 3.0], [1, 1]))
    np.testing.assert_allclose(km_pseudo_rmst(km, 1.5).values, [1.5, 1.5], atol=1e-15)


def test_pseudo_values_at_horizon_zero_times():
    km = km_fit(right_censored_dataset([1.0, 2.0], [1, 1]))
    with pytest.raises(InvalidTime):
        km_pseudo_survival(km, -1.0)
    with pytest.raises(InvalidTau):
        km_pseudo_rmst(km, 0.0)
    with pytest.raises(InvalidTau):
        km_pseudo_rmst(km, np.inf)


def test_pseudo_vector_validates_labels():
    with pytest.raises(ValueError):
        PseudoVector(np.zeros(2), "hazard", 1.0, "fast")
    with pytest.raises(ValueError):
        PseudoVector(np.zeros(2), "survival", 1.0, "slow")


def test_pseudo_values_independent_of_record_order():
    """Relabeling subjects permutes the vector, nothing else."""
    rng = np.random.default_rng(4)
    times = rng.exponential(1.0, 80)
    status = (rng.uniform(size=80) < 0.8).astype(int)
    status[0] = 1
    perm = rng.permutation(80)
    base = km_pseudo_rmst(km_fit(right_censored_dataset(times, status)), 1.5)
    shuffled = km_pseudo_rmst(
        km_fit(right_censored_dataset(times[perm], status[perm])), 1.5
    )
    np.testing.assert_allclose(shuffled.values, base.values[perm], atol=1e-12)
