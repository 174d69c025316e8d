"""Scenario generators and the replication/benchmark harness.

Population-level checks (class shares, censoring rates, regression
truths) run at large n so the assertions sit several standard errors
away from their targets.
"""

import dataclasses
import math

import numpy as np
import pytest

from pseudosurv import InvalidTau, censoring_summary, interval_width_summary, simulate
from pseudosurv.data import LEFT_CENSORED, RIGHT_CENSORED, STRICT_INTERVAL
from pseudosurv.jackknife import jackknife_pch
from pseudosurv.simulate import (
    MonteCarloReport,
    ScenarioConfig,
    _visit_bracket,
    benchmark,
    generate,
    monte_carlo,
    true_rmst_beta,
)


def test_config_defaults_per_scenario():
    rc = ScenarioConfig("rc", n=100)
    assert rc.tau == 6.0 and rc.cuts is None
    ic1 = ScenarioConfig("ic1", n=100)
    assert ic1.tau == 6.0 and ic1.cuts == (4.0, 5.0, 6.0, 7.0)
    ic2 = ScenarioConfig("ic2", n=100)
    assert math.isinf(ic2.tau) and ic2.cuts == (6.0, 8.0, 10.0, 12.0, 14.0)
    override = ScenarioConfig("ic1", n=100, tau=5.0, cuts=(3, 6))
    assert override.tau == 5.0 and override.cuts == (3.0, 6.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig("weird", n=100)
    with pytest.raises(ValueError):
        ScenarioConfig("rc", n=1)
    with pytest.raises(ValueError, match="scenario rc takes no cuts"):
        ScenarioConfig("rc", n=100, cuts=(3.0, 4.0))


@pytest.mark.parametrize("cuts, message", [
    ((5, 4), "strictly increasing"),
    ((math.nan,), "finite and positive"),
    ((-1,), "finite and positive"),
    ((4.0, math.inf), "finite and positive"),
])
def test_config_refuses_cuts_that_no_grid_takes(cuts, message):
    with pytest.raises(ValueError, match=f"^cut points must be {message}, got"):
        ScenarioConfig("ic1", n=20, cuts=cuts)


@pytest.mark.parametrize("scenario, tau, message", [
    ("rc", math.inf, "finite and positive"),
    ("rc", 0.0, "finite and positive"),
    ("ic1", math.nan, r"positive \(inf allowed\)"),
    ("ic2", -1.0, r"positive \(inf allowed\)"),
])
def test_config_refuses_a_tau_its_pseudo_values_refuse(scenario, tau, message):
    with pytest.raises(InvalidTau, match=f"^tau must be {message}, got"):
        ScenarioConfig(scenario, n=20, tau=tau)


def test_regression_truth_closed_form():
    rc = ScenarioConfig("rc", n=100)
    np.testing.assert_allclose(
        rc.beta0, [4.9791667, 0.140625, 0.140625, 0.2708333], atol=1e-6
    )
    assert rc.coef_names == ("intercept", "z1_only", "z2_only", "z1_and_z2")
    ic2 = ScenarioConfig("ic2", n=100)
    np.testing.assert_array_equal(ic2.beta0, [6.0, 4.0])
    assert ic2.coef_names == ("intercept", "z")


def test_rc_truth_when_tau_is_beyond_or_below_every_cell():
    """Every cell's uniform latent time lies in [2.5, 9]: a tau at or beyond
    all of it gives the cell means, one at or below all of it gives tau."""
    np.testing.assert_array_equal(ScenarioConfig("rc", 50, tau=10).beta0, [5.5, 0.25, 0.25, 0.5])
    np.testing.assert_array_equal(ScenarioConfig("rc", 50, tau=2).beta0, [2.0, 0.0, 0.0, 0.0])


def test_regression_truth_agrees_with_latent_draws():
    np.testing.assert_allclose(
        true_rmst_beta("rc", draws=400_000, seed=1),
        ScenarioConfig("rc", n=10).beta0,
        atol=0.03,
    )
    np.testing.assert_allclose(
        true_rmst_beta("ic2", draws=400_000, seed=1), [6.0, 4.0], atol=0.03
    )
    with pytest.raises(ValueError):
        true_rmst_beta("nope", draws=10)


def test_ic2_truth_at_a_finite_tau_agrees_with_latent_draws():
    """The closed-form truth against the least-squares fit of min(T, tau)
    on (1, z) over 2^25 draws of the ic2 latent model, whose standard
    error is at most about 5e-4 at these tau."""
    taus = np.array([7.0, 8.0, 12.0])
    rng = np.random.default_rng(5)
    gram, cross = np.zeros((2, 2)), np.zeros((taus.size, 2))
    for _ in range(32):
        z = rng.uniform(0.0, 2.0, 1 << 20)
        tstar = 6.0 + 4.0 * z + rng.normal(0.0, 1.0, z.size)
        design = np.column_stack([np.ones(z.size), z])
        gram += design.T @ design
        cross += np.minimum(tstar, taus[:, None]) @ design
    for tau, drawn in zip(taus, np.linalg.solve(gram, cross.T).T):
        np.testing.assert_allclose(ScenarioConfig("ic2", n=10, tau=tau).beta0, drawn, atol=2e-3)
    np.testing.assert_allclose(ScenarioConfig("ic2", n=10, tau=8.0).beta0,
                               [6.970, 0.718], atol=1e-3)


def test_rc_censoring_rate():
    ds = generate(ScenarioConfig("rc", n=100_000, seed=0))
    assert censoring_summary(ds)["censored"] == pytest.approx(0.326, abs=0.01)


def test_rc_latent_consistency():
    ds, latent = generate(ScenarioConfig("rc", 500, seed=3), with_latent=True)
    np.testing.assert_allclose(
        ds.times, np.minimum(latent["tstar"], latent["censor"]), atol=1e-12
    )
    np.testing.assert_array_equal(
        ds.status, (latent["tstar"] <= latent["censor"]).astype(int)
    )


def test_ic1_population_shape():
    ds = generate(ScenarioConfig("ic1", n=100_000, seed=0))
    shares = censoring_summary(ds)
    assert shares[LEFT_CENSORED] == pytest.approx(0.146, abs=0.01)
    assert shares[STRICT_INTERVAL] == pytest.approx(0.524, abs=0.01)
    assert shares[RIGHT_CENSORED] == pytest.approx(0.330, abs=0.01)
    width = interval_width_summary(ds)["mean_width_strict"]
    assert width == pytest.approx(1.34, abs=0.05)


def test_ic2_population_shape():
    ds = generate(ScenarioConfig("ic2", n=100_000, seed=0))
    shares = censoring_summary(ds)
    assert shares[LEFT_CENSORED] == pytest.approx(0.106, abs=0.01)
    assert shares[STRICT_INTERVAL] == pytest.approx(0.636, abs=0.01)
    assert shares[RIGHT_CENSORED] == pytest.approx(0.258, abs=0.01)
    width = interval_width_summary(ds)["mean_width_finite"]
    assert width == pytest.approx(3.51, abs=0.1)


def test_generate_is_deterministic_in_the_seed():
    config = ScenarioConfig("ic1", n=50, seed=9)
    a, b = generate(config), generate(config)
    np.testing.assert_array_equal(a.left, b.left)
    np.testing.assert_array_equal(a.right, b.right)
    c = generate(config, seed=10)
    assert not np.array_equal(a.left, c.left)


class _ScriptedRng:
    """Replays fixed uniform draws so bracket logic can be pinned exactly."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, lo, hi, n):
        return np.asarray(self.draws.pop(0), dtype=float)


def test_visit_bracket_edge_cases():
    # visits land at 2, 3, 4, 5, 6 for every subject
    draws = [[2.0] * 4] + [[1.0] * 4] * 4
    left, right = _visit_bracket(
        _ScriptedRng(draws), np.array([4.0, 1.0, 7.0, 2.5]), 6.0, 2.0
    )
    np.testing.assert_array_equal(left, [3.0, 0.0, 6.0, 2.0])
    np.testing.assert_array_equal(right, [4.0, 2.0, math.inf, 3.0])


def test_monte_carlo_moment_identity_and_csv():
    config = ScenarioConfig("rc", n=60, seed=17)
    report = monte_carlo(config, "fast", reps=6)
    assert isinstance(report, MonteCarloReport)
    assert report.used + report.excluded == 6
    assert report.estimates.shape == (report.used, 4)
    frac = (report.used - 1) / report.used
    np.testing.assert_allclose(
        report.mse, report.bias**2 + frac * report.se**2, atol=1e-12
    )
    lines = report.to_csv().strip().split("\n")
    assert lines[0].startswith("# scenario=rc method=fast reps=6")
    assert lines[2] == "coefficient,true,bias,se,mse"
    assert len(lines) == 7
    assert "replications used" in report.summary()


def test_monte_carlo_is_reproducible():
    config = ScenarioConfig("rc", n=60, seed=17)
    first = monte_carlo(config, "fast", reps=4)
    second = monte_carlo(config, "fast", reps=4)
    np.testing.assert_array_equal(first.estimates, second.estimates)


@pytest.mark.parametrize("method", ["fast", "jackknife"])
def test_monte_carlo_excludes_failed_replications(method):
    """No record reaches the last piece (50, inf), whose rate therefore
    leaves the likelihood, so every replication's information is singular;
    with fewer than two replications used, bias, SE and MSE are NaN."""
    config = ScenarioConfig("ic1", n=50, seed=1, cuts=(4.0, 50.0))
    report = monte_carlo(config, method, reps=3)
    assert (report.used, report.excluded) == (0, 3)
    assert report.estimates.shape == (0, 4)
    for column in (report.bias, report.se, report.mse):
        assert np.isnan(column).all()


def test_monte_carlo_excludes_a_jackknife_with_flagged_refits(monkeypatch):
    """A jackknife vector with a failed refit is a failed replication, as the
    regression would otherwise see its NaN."""
    def one_flagged(*args, **kwargs):
        pv = jackknife_pch(*args, **kwargs)
        flagged = np.zeros(pv.n, dtype=bool)
        flagged[0] = True
        return dataclasses.replace(pv, flagged=flagged)

    config = ScenarioConfig("ic1", n=150, seed=1)
    assert monte_carlo(config, "jackknife", reps=2).excluded == 0
    monkeypatch.setattr(simulate, "jackknife_pch", one_flagged)
    report = monte_carlo(config, "jackknife", reps=2)
    assert (report.used, report.excluded) == (0, 2)


def test_monte_carlo_validation():
    config = ScenarioConfig("rc", n=60)
    with pytest.raises(ValueError):
        monte_carlo(config, "exact", reps=4)
    with pytest.raises(ValueError):
        monte_carlo(config, "fast", reps=1)


def test_benchmark_reports_both_arms():
    report = benchmark(ScenarioConfig("rc", n=400, seed=1), repeat=1)
    assert report.fast_seconds > 0
    assert report.jackknife_seconds > 0
    assert report.ratio == report.jackknife_seconds / report.fast_seconds
    csv = report.to_csv().strip().split("\n")
    assert csv[0] == "scenario,n,target,tau,fast_seconds,jackknife_seconds,ratio"
    assert csv[1].startswith("rc,400,rmst,6,")
    assert "ratio (jackknife / fast)" in report.summary()

