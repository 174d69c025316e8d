"""Pseudo-observation regression by estimating equations.

With one pseudo value per subject and a working-independence weight, the
estimating equation is U(beta) = sum_l mu_dot_l (y_l - mu_l) = 0. Under
the identity link it is ordinary least squares, solved by one
normal-equations solve, and the sandwich covariance coincides with the HC0
heteroskedasticity-robust estimator; those exact equivalences anchor the
test suite. The complementary-log-log link g(theta) = log(-log theta), solved
by Fisher scoring, maps survival-scale means to a linear predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DidNotConverge, SingularDesign
from .km import PseudoVector

IDENTITY = "identity"
CLOGLOG = "cloglog"


@dataclass(frozen=True)
class LinkSpec:
    """A response link: identity, or cloglog with g(theta) = log(-log theta)."""

    kind: str

    def __post_init__(self):
        if self.kind not in (IDENTITY, CLOGLOG):
            raise ValueError(f"unknown link {self.kind!r}")

    def inverse(self, eta):
        """Mean as a function of the linear predictor."""
        if self.kind == IDENTITY:
            return np.asarray(eta, dtype=float)
        return np.exp(-np.exp(eta))

    def derivative(self, eta):
        """d mean / d eta."""
        if self.kind == IDENTITY:
            return np.ones_like(np.asarray(eta, dtype=float))
        return -np.exp(eta - np.exp(eta))

    def link(self, theta):
        """Linear predictor as a function of the mean (initialization only)."""
        if self.kind == IDENTITY:
            return np.asarray(theta, dtype=float)
        return np.log(-np.log(theta))


@dataclass(frozen=True, eq=False)
class GeeFit:
    """Solved estimating equation with sandwich-based Wald quantities."""

    beta: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    iterations: int


def fit_gee(
    pseudo,
    covariates,
    link: LinkSpec = LinkSpec(IDENTITY),
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> GeeFit:
    """Solve the pseudo-regression estimating equation.

    Parameters
    ----------
    pseudo : PseudoVector or array-like
        Responses. Pseudo-observations may legitimately fall outside
        [0, 1]; only the fitted mean is constrained by the link.
    covariates : array-like, n x p
        Design matrix, full column rank; include the intercept column
        yourself if wanted.
    link : LinkSpec
    tol : float
        Cloglog only: Fisher scoring stops after a step whose sup-norm in
        the coefficients is at most ``tol``, which does not grow with n as
        the estimating function's rounding does. The identity link is
        solved exactly, in one step, and ignores it.
    max_iter : int
        Cloglog only: the Fisher-scoring budget.

    Raises
    ------
    ValueError
        If the shapes disagree, or a response or covariate is not finite.
    SingularDesign
        If the design is rank deficient.
    DidNotConverge
        If Fisher scoring (cloglog) exhausts its budget, or a fitted mean
        reaches 0 or 1 to working precision, where the weights vanish and
        no finite solution was reached.
    """
    y = pseudo.values if isinstance(pseudo, PseudoVector) else np.asarray(pseudo, float)
    Z = np.asarray(covariates, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != y.shape[0]:
        raise ValueError("covariates must be an n x p matrix matching the responses")
    if not (np.isfinite(y).all() and np.isfinite(Z).all()):
        raise ValueError("responses and covariates must be finite")
    n, p = Z.shape
    if np.linalg.matrix_rank(Z) < p:
        raise SingularDesign("design matrix is rank deficient")

    if link.kind == IDENTITY:
        beta, iterations = _solve(Z.T @ Z, Z.T @ y), 1
    else:
        beta, iterations = _fisher_scoring(y, Z, link, tol, max_iter)

    cov = sandwich_variance(y, Z, beta, link)
    # A sandwich is positive semi-definite: a diagonal rounded below 0 is 0.
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    # With a zero SE, z is +-inf, or 0 (p = 1) for a zero estimate, as
    # all-zero pseudo values give.
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    pvals = special.erfc(np.abs(z) / math.sqrt(2.0))
    return GeeFit(beta=beta, cov=cov, se=se, z=z, p=pvals, iterations=iterations)


def _fisher_scoring(y, Z, link, tol, max_iter):
    # Start from the link-transformed least-squares fit, clipped into (0, 1):
    # pseudo values themselves often lie outside it.
    clipped = np.clip(Z @ np.linalg.lstsq(Z, y, rcond=None)[0], 1e-6, 1.0 - 1e-6)
    beta, *_ = np.linalg.lstsq(Z, link.link(clipped), rcond=None)
    norm = math.inf
    for iterations in range(1, max_iter + 1):
        eta = Z @ beta
        with np.errstate(over="ignore"):
            mean = link.inverse(eta)
            w = link.derivative(eta)
        if not np.all((mean > 0.0) & (mean < 1.0)):
            # At a mean of 0 or 1 the weights underflow and the estimating
            # function vanishes without being solved; that is no convergence.
            raise DidNotConverge(
                f"fitted mean left (0, 1) after {iterations - 1} scoring steps: "
                "the estimating equation has no finite solution within reach",
                last_iterate=beta,
                grad_norm=norm,
                iterations=iterations - 1,
            )
        estfun = Z.T @ (w * (y - mean))
        norm = float(np.max(np.abs(estfun)))
        step = _solve((Z * w[:, None] ** 2).T @ Z, estfun)
        beta = beta + step
        if float(np.max(np.abs(step))) <= tol:
            return beta, iterations
    raise DidNotConverge(
        f"estimating equation not solved in {max_iter} iterations (norm {norm:.3e})",
        last_iterate=beta,
        grad_norm=norm,
        iterations=max_iter,
    )


def _solve(bread, rhs):
    try:
        return np.linalg.solve(bread, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("model matrix became singular during scoring") from exc


def sandwich_variance(y, covariates, beta, link: LinkSpec = LinkSpec(IDENTITY)) -> np.ndarray:
    """Robust covariance of the estimating-equation solution.

    M^{-1} (sum of squared-residual-weighted outer products) M^{-1}, where
    M stacks the mean derivatives. Under the identity link this is exactly
    the HC0 robust covariance of ordinary least squares.
    """
    y = y.values if isinstance(y, PseudoVector) else np.asarray(y, float)
    Z = np.asarray(covariates, dtype=float)
    beta = np.asarray(beta, dtype=float)
    eta = Z @ beta
    w = link.derivative(eta)
    residual = y - link.inverse(eta)
    zw = Z * w[:, None]
    bread = zw.T @ zw
    try:
        bread_inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("model matrix is singular") from exc
    meat = (zw * residual[:, None] ** 2).T @ zw
    cov = bread_inv @ meat @ bread_inv
    return (cov + cov.T) / 2.0


def wald_table(fit: GeeFit, names=None) -> str:
    """CSV-formatted coefficient table: name, estimate, se, z, p."""
    if names is None:
        names = [f"b{j}" for j in range(fit.beta.size)]
    lines = ["coefficient,estimate,se,z,p"]
    for name, b, s, zz, pp in zip(names, fit.beta, fit.se, fit.z, fit.p):
        lines.append(f"{name},{b:.10g},{s:.10g},{zz:.10g},{pp:.10g}")
    return "\n".join(lines) + "\n"
