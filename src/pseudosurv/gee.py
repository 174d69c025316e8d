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
        Cloglog only: Fisher scoring stops once the sup-norm of the
        estimating function is at most ``tol``. The identity link is solved
        exactly, in one step, and ignores it.
    max_iter : int
        Cloglog only: the Fisher-scoring budget.

    Raises
    ------
    SingularDesign
        If the design is rank deficient.
    DidNotConverge
        If Fisher scoring (cloglog) exhausts its budget.
    """
    y = pseudo.values if isinstance(pseudo, PseudoVector) else np.asarray(pseudo, float)
    Z = np.asarray(covariates, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != y.shape[0]:
        raise ValueError("covariates must be an n x p matrix matching the responses")
    n, p = Z.shape
    if np.linalg.matrix_rank(Z) < p:
        raise SingularDesign("design matrix is rank deficient")

    if link.kind == IDENTITY:
        beta, iterations = _solve(Z.T @ Z, Z.T @ y), 1
    else:
        beta, iterations = _fisher_scoring(y, Z, link, tol, max_iter)

    cov = sandwich_variance(y, Z, beta, link)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.inf * np.sign(beta))
    pvals = special.erfc(np.abs(z) / math.sqrt(2.0))
    return GeeFit(beta=beta, cov=cov, se=se, z=z, p=pvals, iterations=iterations)


def _fisher_scoring(y, Z, link, tol, max_iter):
    # Regress the link-transformed (clipped) responses to get a sane start.
    clipped = np.clip(y, 1e-6, 1.0 - 1e-6)
    beta, *_ = np.linalg.lstsq(Z, link.link(clipped), rcond=None)
    for iterations in range(max_iter + 1):
        eta = Z @ beta
        w = link.derivative(eta)
        estfun = Z.T @ (w * (y - link.inverse(eta)))
        norm = float(np.max(np.abs(estfun)))
        if norm <= tol:
            return beta, iterations
        if iterations < max_iter:
            beta = beta + _solve((Z * w[:, None] ** 2).T @ Z, estfun)
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
