"""Maximum likelihood for piecewise-constant hazards.

Newton-Raphson runs in log-rate space, which keeps every iterate strictly
positive without projections, with step-halving as the safeguard. It starts
from per-piece occurrence/exposure rates and stops on the Newton step, by a
rule that does not grow with n (see ``fit_pch``'s ``tol``). The step at the
fitted rates is also the gap between the mean of the fast
pseudo-observations of the rates and the rates themselves. The observed
information reported afterwards is the rate-space one, as the downstream
pseudo-observation formulas require.
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
# A trial point may fall this many units in the last place of the
# log-likelihood below the current one and still be accepted.
SLACK_ULPS = 4
# Predicted gains below this many units in the last place of
# max(|loglik|, n) are rounding noise.
FLOOR_ULPS = 8
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
        Sup-norm of the total score at the fitted rates, for diagnostics;
        it is not the stopping criterion, and at large n it stays at the
        rounding level of a sum of n scores.
    iterations : int
        Newton iterations taken.
    condition_report : ConditionReport
        Per-piece identifiability diagnostics of the training data.
    n : int
        Sample size.
    loglik_trace : tuple
        Log-likelihood values, starting at the initial point; one per
        iteration after it. Each is at least the one before, less a few
        units in the last place, except the last: the step that ends the
        fit is taken without comparison.
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
        right-censored) and starts each piece at its own
        (events + 0.5) / exposure under that imputation.
    tol : float
        Convergence threshold on the Newton step: the fit ends with a step
        whose sup-norm in log-rates (the largest relative rate change) is
        at most ``tol``, or with a step whose predicted log-likelihood gain
        is below the rounding of the log-likelihood, which no comparison
        can check. That last step is taken whole. Neither test grows with
        n, unlike a bound on the total score.
    max_iter : int
    strict : bool
        Raise instead of warning when the identifiability diagnostics fail.

    Raises
    ------
    DidNotConverge
        If the iteration budget runs out or no step-halving keeps the
        log-likelihood within its rounding slack; carries the last iterate.
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
    init_alpha = _initial_rates(dataset, grid) if init is None else np.asarray(init, float)
    if init_alpha.shape != (grid.K,) or not np.all(np.isfinite(init_alpha) & (init_alpha > 0)):
        raise ValueError("init must hold one positive rate per piece")
    alpha, iterations, trace = newton_prepared(prep, init_alpha, tol, max_iter, report)
    loglik, grad, hess = loglik_parts(alpha, prep)
    trace.append(loglik)
    info = -hess / dataset.n
    info = (info + info.T) / 2.0
    return PchFit(
        model=PchModel(grid, alpha),
        info=info,
        loglik=loglik,
        grad_norm=float(np.max(np.abs(grad))),
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

    Returns (alpha, iterations, trace): the fitted rates, the steps taken
    and the log-likelihood at the start and after every step but the last,
    which ends the fit by the rule ``fit_pch`` documents for ``tol`` and is
    taken without a kernel call. A caller that needs the log-likelihood or
    the information at the fitted rates evaluates the kernel there once;
    the leave-one-out oracle, which needs only the rates, calls this
    directly with warm starts, skipping dataset re-validation.
    """
    beta = np.log(init_alpha)
    alpha = init_alpha.copy()
    loglik, grad, hess = loglik_parts(alpha, prep)
    trace = [loglik]
    n = prep.expo_left.shape[0]
    for iterations in range(1, max_iter + 1):
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
        # A step within tol ends the fit; so does one whose predicted gain
        # is below the rounding of a sum of n log-densities, which no
        # comparison of log-likelihoods can judge. Either is taken whole.
        floor = FLOOR_ULPS * np.spacing(max(abs(loglik), n))
        if float(np.max(np.abs(step))) <= tol or float(grad_b @ step) <= floor:
            with np.errstate(over="ignore"):
                alpha = np.exp(beta + step)
            _check_bounds(alpha, report)
            return alpha, iterations, trace

        worst = loglik - SLACK_ULPS * np.spacing(abs(loglik))
        factor = 1.0
        for _ in range(MAX_HALVINGS + 1):
            with np.errstate(over="ignore"):
                alpha_new = np.exp(beta + factor * step)
            if np.all(np.isfinite(alpha_new)) and np.all(alpha_new > 0):
                try:
                    cand = loglik_parts(alpha_new, prep)
                except DegenerateInterval:
                    cand = None
                if cand is not None and np.isfinite(cand[0]) and cand[0] >= worst:
                    break
            factor /= 2.0
        else:
            grad_norm = float(np.max(np.abs(grad)))
            raise DidNotConverge(
                "step-halving found no improving step "
                f"(score norm {grad_norm:.3e})",
                last_iterate=alpha,
                grad_norm=grad_norm,
                iterations=iterations,
            )
        beta, alpha = beta + factor * step, alpha_new
        loglik, grad, hess = cand
        trace.append(loglik)
        _check_bounds(alpha, report)
    grad_norm = float(np.max(np.abs(grad)))
    raise DidNotConverge(
        f"no convergence in {max_iter} iterations (score norm {grad_norm:.3e})",
        last_iterate=alpha,
        grad_norm=grad_norm,
        iterations=max_iter,
    )


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


def _initial_rates(dataset: Dataset, grid: CutGrid) -> np.ndarray:
    """Per-piece occurrence/exposure rates from a midpoint-imputation proxy.

    Every record is treated as an exact observation at its bracket midpoint
    (censored at its left endpoint when right-censored). Piece k starts at
    (events in k + 0.5) / (exposure in k), so no rate starts at zero; a
    piece no imputed time reaches starts at the pooled rate. The exposure is
    summed from each record's piece index: full widths of the pieces below
    it plus the part inside its own piece, with no n x K array.
    """
    left = dataset.left
    right = dataset.right
    finite = np.isfinite(right)
    imputed = np.where(finite, (left + right) / 2.0, left)
    piece = np.asarray(grid.piece_index(imputed))
    K = grid.K
    events = np.bincount(piece[finite], minlength=K)
    beyond = dataset.n - np.cumsum(np.bincount(piece, minlength=K))
    exposure = np.bincount(piece, weights=imputed - grid.lower[piece], minlength=K)
    exposure[:-1] += grid.widths[:-1] * beyond[:-1]
    total = exposure.sum()
    fallback = (events.sum() + 0.5) / total if total > 0 else 1.0
    with np.errstate(divide="ignore"):
        return np.where(exposure > 0, (events + 0.5) / exposure, fallback)
