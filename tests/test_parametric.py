"""Fast model-based pseudo-observations: exchangeability, mean identities,
and equivalence with per-subject linear solves."""

import math

import numpy as np
import pytest
from scipy import linalg

from pseudosurv import (
    CutGrid,
    InvalidTime,
    fit_pch,
    interval_dataset,
    pseudo_alpha,
    pseudo_rmst,
    pseudo_survival,
)
from pseudosurv.pch import (
    grad_cum_hazard,
    prepare_likelihood,
    rmst_closed_form,
    rmst_gradient,
    score_matrix,
)
from pseudosurv.simulate import ScenarioConfig, generate

CUTS = CutGrid((4.0, 5.0, 6.0, 7.0))


@pytest.fixture(scope="module")
def fitted():
    ds = generate(ScenarioConfig("ic1", n=300, seed=4))
    return ds, fit_pch(ds, CUTS)


def test_pseudo_alpha_rows_average_to_the_fit(fitted):
    ds, fit = fitted
    rows = pseudo_alpha(fit, ds)
    assert rows.shape == (ds.n, CUTS.K)
    np.testing.assert_allclose(rows.mean(axis=0), fit.model.rates, atol=1e-7)


def test_pseudo_survival_mean_matches_plugin(fitted):
    ds, fit = fitted
    for t in (3.0, 5.5, 9.0):
        pv = pseudo_survival(fit, ds, t)
        assert pv.target == "survival"
        assert pv.horizon == t
        assert pv.method == "fast"
        assert pv.values.mean() == pytest.approx(float(fit.model.survival(t)), abs=1e-7)


def test_pseudo_rmst_mean_matches_plugin(fitted):
    ds, fit = fitted
    for tau in (6.0, 10.0, math.inf):
        pv = pseudo_rmst(fit, ds, tau)
        assert pv.target == "rmst"
        assert pv.values.mean() == pytest.approx(
            rmst_closed_form(fit.model, tau), abs=1e-7
        )


def test_identical_records_give_identical_pseudo_values():
    n = 12
    ds = interval_dataset([1.0] * n, [2.5] * n)
    fit = fit_pch(interval_dataset([1.0, 0.5, 2.0], [2.5, 1.5, math.inf]), CutGrid((1.5,)))
    pv = pseudo_survival(fit, ds, 2.0)
    assert np.ptp(pv.values) == 0.0


def test_matches_per_subject_solves(fitted):
    """The batched factor-reuse path equals one explicit solve per subject."""
    ds, fit = fitted
    scores = score_matrix(fit.model.rates, prepare_likelihood(ds, CUTS))
    t, tau = 5.5, 8.0
    grad_t = grad_cum_hazard(fit.model, t)
    s_t = float(fit.model.survival(t))
    g_tau = rmst_gradient(fit.model, tau)
    surv = pseudo_survival(fit, ds, t).values
    rmst = pseudo_rmst(fit, ds, tau).values
    for l in range(0, ds.n, 37):
        shift = linalg.solve(fit.info, scores[l])
        assert surv[l] == pytest.approx(s_t * (1.0 - grad_t @ shift), abs=1e-12)
        assert rmst[l] == pytest.approx(
            rmst_closed_form(fit.model, tau) - g_tau @ shift, abs=1e-12
        )


def test_pseudo_survival_rejects_bad_times(fitted):
    ds, fit = fitted
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidTime):
            pseudo_survival(fit, ds, bad)


def test_pseudo_values_per_censoring_class(fitted):
    """Subjects censored late should sit above the plug-in survival, early
    failures below it: the leave-one-out logic pushes in opposite ways."""
    ds, fit = fitted
    pv = pseudo_survival(fit, ds, 5.5)
    late = ds.right > 7.5
    early = ds.right <= 4.0
    assert pv.values[late].mean() > float(fit.model.survival(5.5))
    assert pv.values[early].mean() < float(fit.model.survival(5.5))
