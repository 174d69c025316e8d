"""Estimating-equation regression on pseudo-observations.

The identity link has exact closed-form answers (ordinary least squares
with the HC0 robust covariance), so most checks here are equalities at
near machine precision rather than statistical approximations.
"""

import math

import numpy as np
import pytest

from pseudosurv import (
    DidNotConverge,
    SingularDesign,
    fit_gee,
    sandwich_variance,
    wald_table,
)
from pseudosurv.gee import CLOGLOG, IDENTITY, LinkSpec
from pseudosurv.km import FAST, SURVIVAL, PseudoVector


def _design(rng, n, p):
    Z = rng.normal(size=(n, p))
    Z[:, 0] = 1.0
    return Z


def test_identity_link_is_exact_least_squares():
    rng = np.random.default_rng(21)
    Z = _design(rng, 80, 3)
    y = rng.normal(size=80) + Z @ [0.2, -0.5, 1.0]
    fit = fit_gee(y, Z)
    ols, *_ = np.linalg.lstsq(Z, y, rcond=None)
    np.testing.assert_allclose(fit.beta, ols, atol=1e-10)
    assert fit.iterations <= 2


def test_identity_link_is_one_solve_whatever_the_response_scale():
    """Round-off in the estimating function grows with n and |y|; here it
    is far above the default tol, which the identity link must not use."""
    rng = np.random.default_rng(28)
    n = 5000
    Z = np.column_stack([np.ones(n), rng.integers(0, 2, n)])
    y = 1e6 * (1.0 + rng.uniform(size=n))
    fit = fit_gee(y, Z)
    ols, *_ = np.linalg.lstsq(Z, y, rcond=None)
    np.testing.assert_allclose(fit.beta, ols, rtol=1e-12)
    assert fit.iterations == 1


def test_identity_sandwich_equals_hc0():
    rng = np.random.default_rng(22)
    Z = _design(rng, 60, 2)
    y = rng.normal(size=60)
    fit = fit_gee(y, Z)
    resid = y - Z @ fit.beta
    bread = np.linalg.inv(Z.T @ Z)
    hc0 = bread @ (Z * resid[:, None] ** 2).T @ Z @ bread
    np.testing.assert_allclose(fit.cov, hc0, atol=1e-10)


def test_intercept_only_identity_recovers_the_mean():
    y = np.array([0.1, 0.4, 0.7, 1.2, -0.2])
    fit = fit_gee(y, np.ones((5, 1)))
    assert fit.beta[0] == pytest.approx(y.mean(), abs=1e-12)
    assert fit.cov[0, 0] == pytest.approx(np.sum((y - y.mean()) ** 2) / 25, abs=1e-12)


def test_cloglog_intercept_only_closed_form():
    """The solved mean is the sample mean, so the coefficient is its link."""
    y = np.array([0.3, 0.55, 0.62, 0.8, 0.45])
    fit = fit_gee(y, np.ones((5, 1)), LinkSpec(CLOGLOG))
    assert fit.beta[0] == pytest.approx(math.log(-math.log(y.mean())), abs=1e-8)


def test_cloglog_constant_half_responses():
    y = np.full(10, 0.5)
    fit = fit_gee(y, np.ones((10, 1)), LinkSpec(CLOGLOG))
    assert fit.beta[0] == pytest.approx(math.log(math.log(2.0)), abs=1e-8)
    assert fit.se[0] == pytest.approx(0.0, abs=1e-12)


def test_cloglog_recovers_generating_coefficients():
    rng = np.random.default_rng(23)
    n = 4000
    Z = np.column_stack([np.ones(n), rng.integers(0, 2, n).astype(float)])
    beta_true = np.array([-0.4, 0.7])
    theta = np.exp(-np.exp(Z @ beta_true))
    y = theta + rng.normal(scale=0.05, size=n)
    fit = fit_gee(y, Z, LinkSpec(CLOGLOG))
    np.testing.assert_allclose(fit.beta, beta_true, atol=0.05)


def test_accepts_pseudo_vector_inputs():
    values = np.array([0.9, 0.8, 0.4, 1.05])
    pv = PseudoVector(values, SURVIVAL, 2.0, FAST)
    Z = np.ones((4, 1))
    fit = fit_gee(pv, Z)
    assert fit.beta[0] == pytest.approx(values.mean(), abs=1e-12)
    direct = sandwich_variance(pv, Z, fit.beta)
    np.testing.assert_allclose(direct, fit.cov, atol=1e-15)


def test_rank_deficient_design_is_rejected():
    Z = np.ones((6, 2))  # duplicated intercept column
    with pytest.raises(SingularDesign):
        fit_gee(np.arange(6.0), Z)


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        fit_gee(np.arange(4.0), np.ones((5, 1)))
    with pytest.raises(ValueError):
        fit_gee(np.arange(4.0), np.ones(4))


def test_sandwich_is_symmetric_positive_semidefinite():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n, p = 40, 4
        Z = _design(rng, n, p)
        y = rng.normal(size=n)
        cov = sandwich_variance(y, Z, np.linalg.lstsq(Z, y, rcond=None)[0])
        np.testing.assert_array_equal(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12


def test_wald_statistics_are_consistent():
    rng = np.random.default_rng(25)
    Z = _design(rng, 50, 2)
    y = rng.normal(size=50) + Z[:, 1]
    fit = fit_gee(y, Z)
    np.testing.assert_allclose(fit.se, np.sqrt(np.diag(fit.cov)), atol=1e-15)
    np.testing.assert_allclose(fit.z, fit.beta / fit.se, atol=1e-12)
    from scipy import stats

    np.testing.assert_allclose(fit.p, 2 * stats.norm.sf(np.abs(fit.z)), atol=1e-12)


def test_wald_table_layout():
    rng = np.random.default_rng(26)
    Z = _design(rng, 30, 2)
    fit = fit_gee(rng.normal(size=30), Z)
    table = wald_table(fit, names=["intercept", "arm"])
    lines = table.strip().split("\n")
    assert lines[0] == "coefficient,estimate,se,z,p"
    assert lines[1].startswith("intercept,")
    assert lines[2].startswith("arm,")
    assert len(lines) == 3
    default = wald_table(fit)
    assert default.strip().split("\n")[1].startswith("b0,")


def test_scoring_budget_exhaustion():
    rng = np.random.default_rng(27)
    Z = _design(rng, 200, 2)
    theta = np.exp(-np.exp(Z @ np.array([-0.2, 0.4])))
    y = theta + rng.normal(scale=0.1, size=200)
    with pytest.raises(DidNotConverge):
        fit_gee(y, Z, LinkSpec(CLOGLOG), max_iter=1, tol=1e-14)


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec("logit")
    link = LinkSpec(CLOGLOG)
    eta = np.array([-0.3, 0.0, 0.4])
    h = 1e-7
    fd = (link.inverse(eta + h) - link.inverse(eta - h)) / (2 * h)
    np.testing.assert_allclose(link.derivative(eta), fd, atol=1e-7)
    np.testing.assert_allclose(link.link(link.inverse(eta)), eta, atol=1e-12)
    assert LinkSpec(IDENTITY).derivative(eta) == pytest.approx(np.ones(3))
