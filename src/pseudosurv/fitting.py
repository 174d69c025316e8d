"""Maximum likelihood for piecewise-constant hazards.

Newton-Raphson runs in log-rate space, which keeps every iterate strictly
positive without projections, with monotone step-halving as the safeguard.
Convergence is declared on the sup-norm of the total score in rate space,
and the observed information reported afterwards is the rate-space one, as
the downstream pseudo-observation formulas require.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg

from .data import KIND_INTERVAL, Dataset
from .errors import (
    DegenerateInterval,
    DidNotConverge,
    EmptyInput,
    NonIdentifiable,
    SingularInformation,
)
from .pch import (
    ConditionReport,
    CutGrid,
    PchModel,
    PreparedLikelihood,
    check_conditions,
    loglik_parts,
    prepare_likelihood,
)

RATE_UPPER_BOUND = 1e6
RATE_LOWER_BOUND = 1e-10
MAX_HALVINGS = 30
# Relative condition number beyond which the information matrix counts as
# singular.
INFO_CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class PchFit:
    """A converged maximum-likelihood fit.

    Parameters
    ----------
    model : PchModel
        The model at the fitted rates.
    info : numpy.ndarray
        Observed information, minus the mean Hessian of the per-record
        log-densities at the fitted rates. Symmetric; positive definite
        whenever the identifiability conditions hold.
    loglik : float
        Total log-likelihood at the fitted rates.
    grad_norm : float
        Sup-norm of the total score at the fitted rates.
    iterations : int
        Newton iterations taken.
    condition_report : ConditionReport
        Per-piece identifiability diagnostics of the training data.
    n : int
        Sample size.
    loglik_trace : tuple
        Accepted log-likelihood values, starting at the initial point;
        non-decreasing up to terminal rounding.
    """

    model: PchModel
    info: np.ndarray
    loglik: float
    grad_norm: float
    iterations: int
    condition_report: ConditionReport
    n: int
    loglik_trace: tuple

    @cached_property
    def info_factor(self):
        """Cholesky factorization of the information, computed once.

        Every per-subject linear solve reuses this factor; that single
        factorization is what makes the fast pseudo-observations cheap.
        """
        info = observed_information(self)
        try:
            return linalg.cho_factor(info)
        except linalg.LinAlgError as exc:
            raise SingularInformation(
                "observed information is not positive definite"
            ) from exc

    def solve_information(self, rhs: np.ndarray) -> np.ndarray:
        """Solve info @ x = rhs (rhs may be a matrix of stacked columns)."""
        return linalg.cho_solve(self.info_factor, rhs)


def observed_information(fit: PchFit) -> np.ndarray:
    """The observed information matrix of a converged fit.

    Raises
    ------
    SingularInformation
        If the matrix is numerically singular (relative condition number
        above 1e12).
    """
    info = fit.info
    if not np.all(np.isfinite(info)) or np.linalg.cond(info) > INFO_CONDITION_LIMIT:
        raise SingularInformation(
            "observed information is singular to working precision"
        )
    return info


def fit_pch(
    dataset: Dataset,
    grid: CutGrid,
    *,
    init=None,
    tol: float = 1e-8,
    max_iter: int = 200,
    strict: bool = False,
) -> PchFit:
    """Fit the rates by safeguarded Newton-Raphson.

    Parameters
    ----------
    dataset : Dataset
        Interval-censored records.
    grid : CutGrid
    init : array-like or None
        Starting rates. The default treats every record as an exact
        observation at its bracket midpoint (at the left endpoint when
        right-censored) and starts all pieces at the resulting global
        occurrence/exposure rate.
    tol : float
        Convergence threshold on the sup-norm of the total score.
    max_iter : int
    strict : bool
        Raise instead of warning when the identifiability diagnostics fail.

    Raises
    ------
    DidNotConverge
        If the iteration budget runs out or no step-halving improves the
        log-likelihood; carries the last iterate.
    NonIdentifiable
        If some rate escapes its bounds, naming the empirically violated
        per-piece condition.
    """
    if dataset.n == 0:
        raise EmptyInput("cannot fit on an empty dataset")
    dataset._require(KIND_INTERVAL)
    report = check_conditions(dataset, grid)
    if not report.ok:
        if strict:
            piece, condition = report.violations[0]
            raise NonIdentifiable(
                f"identifiability fails: {report.describe()}",
                piece=piece,
                condition=condition,
            )
        warnings.warn(
            f"identifiability conditions violated: {report.describe()}; "
            "fitting anyway",
            stacklevel=2,
        )
    prep = prepare_likelihood(dataset, grid)
    init_alpha = _initial_rates(dataset, grid.K) if init is None else np.asarray(init, float)
    if init_alpha.shape != (grid.K,) or not np.all(np.isfinite(init_alpha) & (init_alpha > 0)):
        raise ValueError("init must hold one positive rate per piece")
    alpha, loglik, grad_norm, iterations, trace, hess = newton_prepared(
        prep, init_alpha, tol, max_iter, report
    )
    info = -hess / dataset.n
    info = (info + info.T) / 2.0
    return PchFit(
        model=PchModel(grid, alpha),
        info=info,
        loglik=loglik,
        grad_norm=grad_norm,
        iterations=iterations,
        condition_report=report,
        n=dataset.n,
        loglik_trace=tuple(trace),
    )


def newton_prepared(
    prep: PreparedLikelihood,
    init_alpha: np.ndarray,
    tol: float,
    max_iter: int,
    report: ConditionReport | None = None,
):
    """Core Newton loop on a prepared likelihood.

    Returns (alpha, loglik, grad_norm, iterations, trace, hessian). The
    leave-one-out oracle calls this directly with warm starts, skipping
    dataset re-validation.
    """
    beta = np.log(init_alpha)
    alpha = init_alpha.copy()
    loglik, grad, hess = loglik_parts(alpha, prep)
    trace = [loglik]
    iterations = 0
    while True:
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= tol:
            return alpha, loglik, grad_norm, iterations, trace, hess
        if iterations >= max_iter:
            raise DidNotConverge(
                f"no convergence in {max_iter} iterations (score norm {grad_norm:.3e})",
                last_iterate=alpha,
                grad_norm=grad_norm,
                iterations=iterations,
            )
        iterations += 1

        # Chain rule to log-rate space; the extra diagonal term comes from
        # differentiating the reparameterization itself.
        grad_b = alpha * grad
        hess_b = alpha[:, None] * hess * alpha[None, :]
        hess_b[np.diag_indices(prep.K)] += grad_b
        step = None
        try:
            candidate = np.linalg.solve(hess_b, -grad_b)
            if float(grad_b @ candidate) > 0:
                step = candidate
        except np.linalg.LinAlgError:
            pass
        if step is None:
            # Hessian unusable; plain ascent, unit-capped
            scale = max(1.0, float(np.max(np.abs(grad_b))))
            step = grad_b / scale

        accepted = False
        factor = 1.0
        for _ in range(MAX_HALVINGS + 1):
            beta_new = beta + factor * step
            with np.errstate(over="ignore"):
                alpha_new = np.exp(beta_new)
            if np.all(np.isfinite(alpha_new)) and np.all(alpha_new > 0):
                try:
                    cand = loglik_parts(alpha_new, prep)
                except DegenerateInterval:
                    cand = None
                if cand is not None and np.isfinite(cand[0]):
                    # Near the maximum the true improvement of a full Newton
                    # step falls below float resolution of the log-likelihood,
                    # so a step whose score already meets the tolerance is
                    # accepted regardless of the monotonicity comparison.
                    converged_step = float(np.max(np.abs(cand[1]))) <= tol
                    if cand[0] >= loglik or converged_step:
                        beta, alpha = beta_new, alpha_new
                        loglik, grad, hess = cand
                        trace.append(loglik)
                        accepted = True
                        break
            factor /= 2.0
        if not accepted:
            raise DidNotConverge(
                "step-halving found no improving step "
                f"(score norm {grad_norm:.3e})",
                last_iterate=alpha,
                grad_norm=grad_norm,
                iterations=iterations,
            )
        _check_bounds(alpha, report)


def _check_bounds(alpha, report):
    if np.all(alpha <= RATE_UPPER_BOUND) and np.all(alpha >= RATE_LOWER_BOUND):
        return
    k = int(np.argmax(alpha)) if np.any(alpha > RATE_UPPER_BOUND) else int(np.argmin(alpha))
    direction = "diverged" if alpha[k] > RATE_UPPER_BOUND else "collapsed toward zero"
    condition = None
    detail = ""
    if report is not None:
        if report.finite_counts[k] == 0:
            condition = 1
            detail = "; no finite bracket intersects the piece"
        elif report.exceed_counts[k] == 0:
            condition = 2
            detail = "; no left endpoint exceeds the piece's lower edge"
    raise NonIdentifiable(
        f"rate of piece {k + 1} {direction} during fitting{detail}",
        piece=k + 1,
        condition=condition,
    )


def _initial_rates(dataset: Dataset, K: int) -> np.ndarray:
    """Global occurrence/exposure rate from a midpoint-imputation proxy."""
    left = dataset.left
    right = dataset.right
    finite = np.isfinite(right)
    events = int(finite.sum())
    exposure = float(((left[finite] + right[finite]) / 2.0).sum() + left[~finite].sum())
    if events == 0 or exposure <= 0:
        return np.ones(K)
    return np.full(K, events / exposure)
