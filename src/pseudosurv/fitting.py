"""Maximum likelihood for piecewise-constant hazards.

Newton-Raphson runs in log-rate space, which keeps every iterate strictly
positive without projections, with step-halving as the safeguard. It starts
from per-piece occurrence/exposure rates or, on a large sample, from a
guarded pilot fit of a strided subsample, which leaves Newton only its
quadratic phase (see ``fit_pch``'s ``init``). It stops on the Newton step, by
a rule that does not grow with n (see ``fit_pch``'s ``tol``). The step at the
fitted rates is also the gap between the mean of the fast
pseudo-observations of the rates and the rates themselves. The observed
information reported afterwards is the rate-space one, as the downstream
pseudo-observation formulas require.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .data import KIND_INTERVAL, Dataset, interval_dataset
from .errors import (
    DidNotConverge,
    EmptyInput,
    NonIdentifiable,
    PseudosurvError,
    SingularInformation,
)
from .pch import (
    ConditionReport,
    CutGrid,
    PchModel,
    PreparedLikelihood,
    _conditions,
    _increments,
    _kernel,
    _rowdot,
    loglik_parts,
    prepare_likelihood,
)

RATE_UPPER_BOUND = 1e6
RATE_LOWER_BOUND = 1e-10
MAX_HALVINGS = 30
# Predicted gains below this many units in the last place of
# max(|loglik|, n) are rounding noise.
FLOOR_ULPS = 8
# Relative condition number beyond which the information matrix counts as
# singular.
INFO_CONDITION_LIMIT = 1e12
# The pilot start of large fits; see fit_pch's init.
PILOT_MIN_N = 2**17
PILOT_RECORDS = 2**14
PILOT_MAX_ITER = 20
PILOT_MAX_RSE = 0.25


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
        Newton iterations taken from the start; a pilot's own are not counted.
    condition_report : ConditionReport
        Per-piece identifiability diagnostics of the training data.
    dataset : Dataset
        The sample fitted, the only one (in any record order) that the fast
        pseudo-observation maps and ``jackknife_pch(fit=)`` accept.
    loglik_trace : tuple
        Log-likelihood values, starting at the initial point (the pilot's
        rates, when ``fit_pch`` started there); one per iteration after it.
        Each is at least the one before, except the last: the step that
        ends the fit is taken without comparison.
    likelihood : PreparedLikelihood
        The prepared likelihood of ``dataset`` that the fit ran on, which
        ``prepared`` hands to the fast maps and the jackknife.
    """

    model: PchModel
    info: np.ndarray
    loglik: float
    grad_norm: float
    iterations: int
    condition_report: ConditionReport
    dataset: Dataset
    loglik_trace: tuple
    likelihood: PreparedLikelihood

    def check_sample(self, dataset: Dataset) -> None:
        """Raise ValueError unless ``dataset`` is the fitted sample: the
        same object, or the same records in any order."""
        if dataset is self.dataset:
            return
        rows = [np.empty(d.n, dtype=complex) for d in (dataset, self.dataset)]
        for row, d in zip(rows, (dataset, self.dataset)):
            # sorted by real, then imaginary part; right * 1j would give nan+infj
            row.real, row.imag = d.columns
            row.sort()
        if not np.array_equal(*rows):
            raise ValueError(f"the fit is not of this dataset: its {self.dataset.n} records"
                             f" differ from the dataset's {dataset.n}")

    def prepared(self, dataset: Dataset) -> PreparedLikelihood:
        """The prepared likelihood of ``dataset``, after ``check_sample``: the
        fit's own for the fitted object itself, a new one for the fitted
        records in another order."""
        self.check_sample(dataset)
        if dataset is self.dataset:
            return self.likelihood
        return prepare_likelihood(dataset, self.model.grid)

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
        Starting rates, each within [RATE_LOWER_BOUND, RATE_UPPER_BOUND].
        The default treats every record as an exact observation at its
        bracket midpoint (at the left endpoint when right-censored) and
        starts each piece at its own (events + 0.5) / exposure under that
        imputation. From PILOT_MIN_N (2^17) records on, it first fits every
        (n // PILOT_RECORDS)-th record, silently, with at most
        min(max_iter, PILOT_MAX_ITER) iterations, and starts at that pilot's
        rates if it converged with every rate's relative standard error (from
        its own information and records) at most PILOT_MAX_RSE; from a loose
        pilot Newton can crawl, so a pilot that fails or raises is dropped.
    tol : float
        Convergence threshold on the Newton step: the fit ends with a step
        whose sup-norm in log-rates (the largest relative rate change) is
        at most ``tol``, or with a step whose predicted log-likelihood gain
        is below the rounding of the log-likelihood, which no comparison
        can check. That last step is taken whole. Neither test grows with
        n, unlike a bound on the total score.
    max_iter : int
        At least 1, with ``tol`` finite and nonnegative, or ValueError.
    strict : bool
        Raise instead of warning when the identifiability diagnostics fail.

    Raises
    ------
    DidNotConverge
        If the iteration budget runs out or no step-halving finds a trial
        whose log-likelihood is finite and does not fall; carries the last
        iterate.
    NonIdentifiable
        If some rate escapes its bounds, naming the empirically violated
        per-piece condition.
    """
    _check_solver(tol, max_iter)
    if dataset.n == 0:
        raise EmptyInput("cannot fit on an empty dataset")
    dataset._require(KIND_INTERVAL)
    prep = prepare_likelihood(dataset, grid)
    report = _conditions(prep)
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
    if init is None:
        init_alpha = _default_start(dataset, grid, max_iter)
    else:
        init_alpha = np.asarray(init, float)
        if init_alpha.shape != (grid.K,) or _out_of_bounds(init_alpha[None])[0]:
            raise ValueError(f"init must hold one rate per piece within"
                             f" [{RATE_LOWER_BOUND:g}, {RATE_UPPER_BOUND:g}]")
    out = newton_prepared(prep, init_alpha[None], tol, max_iter, report)
    if out.errors[0] is not None:
        raise out.errors[0]
    alpha = out.rates[0]
    iterations = int(out.iterations[0])
    trace = out.history[:iterations, 0].tolist()
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
        dataset=dataset,
        loglik_trace=tuple(trace),
        likelihood=prep,
    )


class NewtonRows(NamedTuple):
    """Per-row outcomes of ``newton_prepared`` on a stack of B likelihoods.

    Parameters
    ----------
    rates : numpy.ndarray
        (B, K) fitted rates; NaN in a row whose fit failed.
    iterations : numpy.ndarray
        (B,) Newton iterations each row took.
    history : numpy.ndarray
        (T, B) log-likelihoods: row 0 at the start, row t after the t-th
        accepted step, NaN once a row has left the active set.
    errors : tuple
        Per row, None or the DidNotConverge or NonIdentifiable its fit
        ended with.
    """

    rates: np.ndarray
    iterations: np.ndarray
    history: np.ndarray
    errors: tuple


def newton_prepared(
    prep: PreparedLikelihood,
    init_alpha: np.ndarray,
    tol: float,
    max_iter: int,
    report: ConditionReport | None = None,
) -> NewtonRows:
    """Core Newton loop on a stack of prepared likelihoods.

    ``init_alpha`` holds B rows of starting rates, one per likelihood of
    ``prep``: a stack from ``PreparedLikelihood.leave_out``, or B = 1 with
    one unstacked likelihood. The rows iterate in lockstep, each by the
    rule ``fit_pch`` documents for ``tol`` and with its own step, floor,
    step-halvings and rate bounds. A trial is taken iff its log-likelihood
    is finite and does not fall; one kernel call evaluates the trials of
    all the rows still searching, against their rows of the stack. A row
    that stops or fails leaves the active set; a failure is recorded in the
    result, not raised. A row's last step is taken without a kernel call,
    so a caller that needs the log-likelihood or the information at the
    fitted rates evaluates the kernel there once; the leave-one-out oracle,
    which needs only the rates, calls this directly from its first-order
    starts, skipping dataset re-validation.
    """
    init_alpha = np.asarray(init_alpha, dtype=float)
    B, K = init_alpha.shape
    n = prep.expo_left.shape[0]
    rates = np.full((B, K), np.nan)
    iterations = np.zeros(B, dtype=int)
    errors = [None] * B
    act = np.arange(B)
    beta = np.log(init_alpha)
    alpha = init_alpha.copy()
    loglik, grad, hess = loglik_parts(alpha, prep)
    history = [loglik.copy()]
    diag = np.arange(K)
    for it in range(1, max_iter + 1):
        # Chain rule to log-rate space; the extra diagonal term comes from
        # differentiating the reparameterization itself.
        grad_b = alpha * grad
        hess_b = alpha[:, :, None] * hess * alpha[:, None, :]
        hess_b[:, diag, diag] += grad_b
        step = _ascent_steps(hess_b, grad_b)
        # A step within tol ends the fit; so does one whose predicted gain
        # is below the rounding of a sum of n log-densities, which no
        # comparison of log-likelihoods can judge. Either is taken whole.
        floor = FLOOR_ULPS * np.spacing(np.maximum(np.abs(loglik), n))
        done = (np.abs(step).max(axis=1) <= tol) | (_rowdot(grad_b, step) <= floor)

        # Each row not done halves its own step until its log-likelihood is
        # finite and does not fall; the rows halve in lockstep, and a row's
        # accepted point replaces its current one in place. Rates that
        # overflow or underflow, and brackets left without mass, give the
        # kernel a log-likelihood that is nan or -inf.
        factor = np.ones(act.size)
        searching = ~done
        for _ in range(MAX_HALVINGS + 1):
            rows = np.flatnonzero(searching)
            if not rows.size:
                break
            with np.errstate(over="ignore", invalid="ignore"):
                trial = np.exp(beta[rows] + factor[rows, None] * step[rows])
                cand = (trial,) + _kernel(trial, _increments(trial, prep), prep, act[rows])
            won = np.isfinite(cand[1]) & (cand[1] >= loglik[rows])
            for current, value in zip((alpha, loglik, grad, hess), cand):
                current[rows[won]] = value[won]
            searching[rows[won]] = False
            factor[searching] /= 2.0
        beta = beta + factor[:, None] * step
        moved = ~(done | searching)
        if not done.all():
            recorded = np.full(B, np.nan)
            recorded[act[moved]] = loglik[moved]
            history.append(recorded)

        # Rows leave the active set here, and only here: done (at the
        # whole step), out of bounds, or with no improving step.
        if done.any():
            with np.errstate(over="ignore"):
                alpha[done] = np.exp(beta[done])
        bad = _out_of_bounds(alpha) & ~searching
        leaving = ~moved | bad
        if not leaving.any():
            continue
        iterations[act[leaving]] = it
        rates[act[done & ~bad]] = alpha[done & ~bad]
        for row, alpha_row in zip(act[bad], alpha[bad]):
            errors[row] = _bounds_error(alpha_row, report)
        for row, alpha_row, grad_row in zip(act[searching], alpha[searching], grad[searching]):
            errors[row] = _no_convergence(alpha_row, grad_row, it,
                                          "step-halving found no improving step")
        act, beta, alpha, loglik, grad, hess = (
            x[~leaving] for x in (act, beta, alpha, loglik, grad, hess)
        )
        if not act.size:
            break
    else:
        iterations[act] = max_iter
        for row, alpha_row, grad_row in zip(act, alpha, grad):
            errors[row] = _no_convergence(alpha_row, grad_row, max_iter,
                                          f"no convergence in {max_iter} iterations")
    return NewtonRows(rates, iterations, np.array(history), tuple(errors))


def _ascent_steps(hess_b, grad_b):
    """Newton steps of a stack of log-rate problems, one row each.

    A row whose Hessian is singular, or whose Newton step does not ascend,
    takes plain gradient ascent instead, capped at unit size.
    """
    try:
        step = np.linalg.solve(hess_b, -grad_b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Some row is singular; solve row by row, leaving its step NaN.
        step = np.full_like(grad_b, np.nan)
        for row, (h, g) in enumerate(zip(hess_b, grad_b)):
            try:
                step[row] = np.linalg.solve(h, -g)
            except np.linalg.LinAlgError:
                pass
    ascends = _rowdot(grad_b, step) > 0
    scale = np.fmax(1.0, np.max(np.abs(grad_b), axis=1))
    return np.where(ascends[:, None], step, grad_b / scale[:, None])


def _out_of_bounds(alpha):
    """Rows with a rate beyond the bounds, an overflow to inf included."""
    return ~((alpha <= RATE_UPPER_BOUND) & (alpha >= RATE_LOWER_BOUND)).all(axis=1)


def _bounds_error(alpha, report):
    """The NonIdentifiable for one row of rates beyond the bounds."""
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
    return NonIdentifiable(
        f"rate of piece {k + 1} {direction} during fitting{detail}",
        piece=k + 1,
        condition=condition,
    )


def _no_convergence(alpha, grad, it, why):
    """The DidNotConverge for one row left at rates alpha with score grad."""
    grad_norm = float(np.max(np.abs(grad)))
    return DidNotConverge(
        f"{why} (score norm {grad_norm:.3e})",
        last_iterate=alpha,
        grad_norm=grad_norm,
        iterations=it,
    )


def _check_solver(tol, max_iter):
    """Refuse a ``tol`` or ``max_iter`` with which Newton cannot converge."""
    if not (np.isfinite(tol) and tol >= 0 and max_iter >= 1):
        raise ValueError(f"need a finite tol >= 0 and max_iter >= 1, got {tol!r} and {max_iter!r}")


def _default_start(dataset: Dataset, grid: CutGrid, max_iter: int) -> np.ndarray:
    """The rates of the pilot fit that ``fit_pch``'s ``init`` describes, if
    there is one and it passes both guards; else ``_initial_rates``."""
    if dataset.n >= PILOT_MIN_N:
        stride = dataset.n // PILOT_RECORDS
        with suppress(PseudosurvError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pilot = interval_dataset(dataset.left[::stride], dataset.right[::stride])
            fit = fit_pch(pilot, grid, max_iter=min(max_iter, PILOT_MAX_ITER))
            se = np.sqrt(np.diag(fit.solve_information(np.eye(grid.K))) / pilot.n)
            if np.all(se <= PILOT_MAX_RSE * fit.model.rates):
                return fit.model.rates
    return _initial_rates(dataset, grid)


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
    piece = grid.piece_index(imputed)
    K = grid.K
    events = np.bincount(piece, weights=finite, minlength=K)
    beyond = dataset.n - np.cumsum(np.bincount(piece, minlength=K))
    exposure = np.bincount(piece, weights=imputed - grid.lower[piece], minlength=K)
    exposure[:-1] += grid.widths[:-1] * beyond[:-1]
    total = exposure.sum()
    fallback = (events.sum() + 0.5) / total if total > 0 else 1.0
    with np.errstate(divide="ignore"):
        return np.where(exposure > 0, (events + 0.5) / exposure, fallback)
