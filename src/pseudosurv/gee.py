"""Pseudo-observation regression by estimating equations.

With one pseudo value per subject and a working-independence weight, the
estimating equation is U(beta) = sum_l mu_dot_l (y_l - mu_l) = 0. Under
the identity link it is ordinary least squares, solved by one
normal-equations solve, and the sandwich covariance coincides with the HC0
heteroskedasticity-robust estimator; those exact equivalences anchor the
test suite. The complementary-log-log link g(theta) = log(-log theta), solved
by Fisher scoring, maps survival-scale means to a linear predictor.

Every pass over the subjects reads the design in ``_parts.blocks`` of
``BLOCK_ROWS`` rows, so that beyond its inputs a fit holds O(BLOCK_ROWS * p)
working memory at any n; a design of at most ``BLOCK_ROWS`` rows is one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._parts import blocks
from .errors import DidNotConverge, SingularDesign
from .km import PseudoVector

IDENTITY = "identity"
CLOGLOG = "cloglog"
# Rows of the design one pass reads at a time.
BLOCK_ROWS = 1 << 16


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
    """Solved estimating equation with sandwich-based Wald quantities.

    ``p``, the two-sided normal p-values of ``z``, is computed the first
    time it is read; that is the only step of a regression that imports
    scipy.
    """

    beta: np.ndarray
    cov: np.ndarray
    se: np.ndarray
    z: np.ndarray
    iterations: int

    @cached_property
    def p(self) -> np.ndarray:
        """Two-sided p-values of the Wald statistics, erfc(|z| / sqrt(2))."""
        from scipy import special

        return special.erfc(np.abs(self.z) / math.sqrt(2.0))


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
        yourself if wanted. It is read in blocks of ``BLOCK_ROWS`` rows:
        one pass checks that every value is finite and finds its singular
        values from each block stacked under the R factor of the blocks
        before it, and the design counts as rank deficient when fewer than
        p of them exceed ``max(n, p) * eps`` times the largest,
        ``np.linalg.matrix_rank``'s default tolerance. The sandwich and
        each Fisher-scoring step sum their p x p terms over the same
        blocks, so that beyond the inputs a fit holds O(``BLOCK_ROWS`` * p)
        working memory; only the cloglog link's two least-squares starts
        copy the design. For at most ``BLOCK_ROWS`` rows every result is
        that of one pass over all rows; beyond it the sums round
        differently, but the identity link's coefficients are one
        normal-equations solve at any n.
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
        If the responses are not a vector, the covariates not a matrix with
        one row per response, or a response or covariate is not finite.
    SingularDesign
        If the design is rank deficient.
    DidNotConverge
        If Fisher scoring (cloglog) exhausts its budget, or a fitted mean
        reaches 0 or 1 to working precision, where the weights vanish and
        no finite solution was reached.
    """
    y, Z = _responses_and_design(pseudo, covariates)
    _check_finite_full_rank(y, Z)

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
    return GeeFit(beta=beta, cov=cov, se=se, z=z, iterations=iterations)


def _responses_and_design(pseudo, covariates):
    y = pseudo.values if isinstance(pseudo, PseudoVector) else np.asarray(pseudo, float)
    Z = np.asarray(covariates, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"responses must be a vector, got shape {y.shape}")
    if Z.ndim != 2 or Z.shape[0] != y.shape[0]:
        raise ValueError("covariates must be an n x p matrix matching the responses")
    return y, Z


def _blockwise_sums(terms, y, Z, *args):
    """Sum each value of ``terms(y[rows], Z[rows], *args)`` over the row
    blocks. A single block's sums are its own values, bit for bit."""
    first, *rest = blocks(max(y.size, 1), BLOCK_ROWS)
    sums = terms(y[first], Z[first], *args)
    for rows in rest:
        sums = [a + b for a, b in zip(sums, terms(y[rows], Z[rows], *args))]
    return sums


def _check_finite_full_rank(y, Z):
    """Refuse non-finite values, then a rank-deficient design, in one pass.

    Each block is stacked under the R factor of the QR decomposition of the
    blocks before it, which has their singular values; the last stack has
    Z's. A design of one block is its own stack, as ``matrix_rank`` sees it.
    """
    n, p = Z.shape
    stack = np.empty((0, p))
    for rows in blocks(max(n, 1), BLOCK_ROWS):
        if not (np.isfinite(y[rows]).all() and np.isfinite(Z[rows]).all()):
            raise ValueError("responses and covariates must be finite")
        if stack.shape[0] > p:
            stack = np.linalg.qr(stack, mode="r")
        stack = np.vstack([stack, Z[rows]])
    s = np.linalg.svd(stack, compute_uv=False)
    if np.count_nonzero(s > s.max(initial=0.0) * max(n, p) * np.finfo(float).eps) < p:
        raise SingularDesign("design matrix is rank deficient")


def _fisher_scoring(y, Z, link, tol, max_iter):
    # Start from the link-transformed least-squares fit, clipped into (0, 1):
    # pseudo values themselves often lie outside it.
    clipped = np.clip(Z @ np.linalg.lstsq(Z, y, rcond=None)[0], 1e-6, 1.0 - 1e-6)
    beta, *_ = np.linalg.lstsq(Z, link.link(clipped), rcond=None)
    norm = math.inf
    for iterations in range(1, max_iter + 1):
        estfun, information, outside = _blockwise_sums(_scoring_terms, y, Z, beta, link)
        if outside:
            # At a mean of 0 or 1 the weights underflow and the estimating
            # function vanishes without being solved; that is no convergence.
            raise DidNotConverge(
                f"fitted mean left (0, 1) after {iterations - 1} scoring steps: "
                "the estimating equation has no finite solution within reach",
                last_iterate=beta,
                grad_norm=norm,
                iterations=iterations - 1,
            )
        norm = float(np.max(np.abs(estfun)))
        step = _solve(information, estfun)
        beta = beta + step
        if float(np.max(np.abs(step))) <= tol:
            return beta, iterations
    raise DidNotConverge(
        f"estimating equation not solved in {max_iter} iterations (norm {norm:.3e})",
        last_iterate=beta,
        grad_norm=norm,
        iterations=max_iter,
    )


def _scoring_terms(y, Z, beta, link):
    """One row block's estimating function and Fisher information at beta,
    and 1 if a fitted mean in it lies outside (0, 1), else 0."""
    eta = Z @ beta
    with np.errstate(over="ignore"):
        mean = link.inverse(eta)
        w = link.derivative(eta)
    outside = int(not np.all((mean > 0.0) & (mean < 1.0)))
    return Z.T @ (w * (y - mean)), (Z * w[:, None] ** 2).T @ Z, outside


def _solve(bread, rhs):
    try:
        return np.linalg.solve(bread, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("model matrix became singular during scoring") from exc


def sandwich_variance(y, covariates, beta, link: LinkSpec = LinkSpec(IDENTITY)) -> np.ndarray:
    """Robust covariance of the estimating-equation solution.

    M^{-1} (sum of squared-residual-weighted outer products) M^{-1}, where
    M stacks the mean derivatives. Under the identity link this is exactly
    the HC0 robust covariance of ordinary least squares. Both p x p sums
    run over blocks of ``BLOCK_ROWS`` rows, in O(``BLOCK_ROWS`` * p)
    working memory; a design of at most ``BLOCK_ROWS`` rows is one block.

    Raises ``ValueError`` if ``y`` is not a vector or ``covariates`` not a
    matrix with one row per response, and ``SingularDesign`` if M is
    singular.
    """
    y, Z = _responses_and_design(y, covariates)
    beta = np.asarray(beta, dtype=float)
    bread, meat = _blockwise_sums(_sandwich_terms, y, Z, beta, link)
    try:
        bread_inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("model matrix is singular") from exc
    cov = bread_inv @ meat @ bread_inv
    return (cov + cov.T) / 2.0


def _sandwich_terms(y, Z, beta, link):
    """One row block's bread and meat."""
    eta = Z @ beta
    zw = Z * link.derivative(eta)[:, None]
    squared_residual = (y - link.inverse(eta)) ** 2
    return zw.T @ zw, (zw * squared_residual[:, None]).T @ zw


def wald_table(fit: GeeFit, names=None) -> str:
    """CSV-formatted coefficient table: name, estimate, se, z, p.

    ``names`` defaults to b0, b1, ...; given, it must hold one name per
    coefficient, or ``ValueError`` is raised.
    """
    if names is None:
        names = [f"b{j}" for j in range(fit.beta.size)]
    elif len(names) != fit.beta.size:
        raise ValueError(f"{len(names)} names for {fit.beta.size} coefficients")
    lines = ["coefficient,estimate,se,z,p"]
    for name, b, s, zz, pp in zip(names, fit.beta, fit.se, fit.z, fit.p):
        lines.append(f"{name},{b:.10g},{s:.10g},{zz:.10g},{pp:.10g}")
    return "\n".join(lines) + "\n"
