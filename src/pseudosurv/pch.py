"""Piecewise-constant-hazard model: evaluation, the vectorized likelihood
kernel, closed-form restricted-mean integrals, and identifiability
diagnostics.

The hazard is a step function over pieces (c_{k-1}, c_k] with c_0 = 0 and
c_K = +inf, so the cumulative hazard is a piecewise-linear ramp and survival
is piecewise exponential. Interval-censored records contribute the bracket
mass S(L) - S(R) to the likelihood; right-censored records contribute S(L);
exact records contribute the density lambda(T) S(T). One weighted kernel
(``loglik_parts``, with ``score_products`` for the per-record scores)
evaluates every record at once; its derivatives are analytic, with
expm1-based evaluations wherever a naive difference of exponentials would
cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import DegenerateInterval, EmptyInput, check_tau, check_time

# Below this, the cancellation-prone factor in the restricted-mean gradient
# switches to its power series.
_SERIES_CUTOFF = 1e-3


@dataclass(frozen=True)
class CutGrid:
    """Interior cut points of a piecewise-constant-hazard model.

    ``cuts`` holds c_1 < ... < c_{K-1}; the boundary pieces run from the
    implicit c_0 = 0 and out to c_K = +inf. An empty tuple means a single
    exponential piece.
    """

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if any(not math.isfinite(c) or c <= 0 for c in cuts):
            raise ValueError(f"cut points must be finite and positive, got {cuts}")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"cut points must be strictly increasing, got {cuts}")

    @property
    def K(self) -> int:
        return len(self.cuts) + 1

    @cached_property
    def lower(self) -> np.ndarray:
        """Left edges (c_0, ..., c_{K-1})."""
        return np.array((0.0,) + self.cuts)

    @cached_property
    def upper(self) -> np.ndarray:
        """Right edges (c_1, ..., c_K = inf)."""
        return np.array(self.cuts + (math.inf,))

    @cached_property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def piece_index(self, t):
        """Index k of the piece (c_k, c_{k+1}] containing t; t = 0 maps to piece 0."""
        return np.searchsorted(np.asarray(self.cuts), t, side="left")

    def exposure(self, t):
        """Per-piece time at risk up to t: (c_k ^ t - c_{k-1})+ for each piece.

        Accepts a scalar (returns a K-vector) or an array of shape (n,)
        (returns n x K). Components sum to t.
        """
        t = np.asarray(t, dtype=float)
        return np.clip(t[..., None] - self.lower, 0.0, self.widths)


@dataclass(frozen=True, eq=False)
class PchModel:
    """A piecewise-constant hazard with strictly positive rates."""

    grid: CutGrid
    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", rates)
        if rates.shape != (self.grid.K,):
            raise ValueError(
                f"rates must have one entry per piece ({self.grid.K}), got shape {rates.shape}"
            )
        if not np.all(np.isfinite(rates)) or np.any(rates <= 0):
            raise ValueError("all hazard rates must be finite and positive")

    def cum_hazard(self, t):
        return self.grid.exposure(t) @ self.rates

    def survival(self, t):
        return np.exp(-self.cum_hazard(t))

    def hazard(self, t):
        return self.rates[self.grid.piece_index(t)]


class Evaluation(NamedTuple):
    hazard: float
    cum_hazard: float
    survival: float


def evaluate(model: PchModel, t) -> Evaluation:
    """Hazard, cumulative hazard, and survival at time t (scalar or array).

    Raises
    ------
    InvalidTime
        If t is negative, infinite, or NaN.
    """
    check_time(t)
    t = np.asarray(t, dtype=float)
    lam = model.cum_hazard(t)
    if t.ndim == 0:
        return Evaluation(float(model.hazard(t)), float(lam), float(np.exp(-lam)))
    return Evaluation(model.hazard(t), lam, np.exp(-lam))


def grad_cum_hazard(model: PchModel, t) -> np.ndarray:
    """Gradient of the cumulative hazard in the rates: the exposure vector.

    Component k is the time spent in piece k before t, so the components
    sum to t.
    """
    check_time(t)
    return model.grid.exposure(t)


def rmst_closed_form(model: PchModel, tau) -> float:
    """Integral of survival over [0, tau], in closed form.

    tau may be +inf, in which case the last piece contributes its full
    exponential tail. Each piece l adds
    S(c_{l-1}) (1 - exp(-alpha_l w_l)) / alpha_l for the within-piece width
    w_l, evaluated through expm1 so that small rates lose no precision.
    """
    check_tau(tau)
    return float(rmst_rows(model.grid, model.rates, float(tau)))


def rmst_rows(grid: CutGrid, rates: np.ndarray, tau: float) -> np.ndarray:
    """Restricted means at tau of a stack of rate rows, shape (K,) or (B, K).

    Row by row the same closed form as ``rmst_closed_form``, without its
    domain check; a row of NaN rates gives NaN.
    """
    return _piece_areas(grid, rates, tau)[0].sum(axis=-1)


def survival_rows(grid: CutGrid, rates: np.ndarray, t: float) -> np.ndarray:
    """Survival at the time t of a stack of rate rows, shape (K,) or (B, K);
    each row rounds exactly as ``PchModel.survival`` does."""
    return np.exp(-_rowdot(rates, grid.exposure(t)))


def rmst_gradient(model: PchModel, tau) -> np.ndarray:
    """Sensitivity integrals of the restricted mean in the rates.

    Component k is the integral of S(t) dLambda(t)/d alpha_k over [0, tau],
    which equals minus the derivative of the restricted mean in alpha_k.
    It is assembled from closed-form pieces: the full width of piece k
    times the area under S beyond c_k, plus the within-piece moment
    integral of (t - c_{k-1}) S(t). All components are nonnegative.
    """
    check_tau(tau)
    grid = model.grid
    areas, active, w, a, s_left = _piece_areas(grid, model.rates, float(tau))
    # Area under S strictly beyond each piece's right edge.
    tail = np.concatenate([np.cumsum(areas[::-1])[::-1][1:], [0.0]])
    out = np.zeros(grid.K)
    np.multiply(grid.widths, tail, where=tail > 0, out=out)

    own = np.empty_like(w)
    unbounded = np.isinf(w)
    own[unbounded] = (s_left / a**2)[unbounded]
    wf = w[~unbounded]
    own[~unbounded] = s_left[~unbounded] * wf**2 * _own_factor(a[~unbounded] * wf)
    out[active] += own
    return out


@dataclass(frozen=True)
class ConditionReport:
    """Empirical identifiability diagnostics, one entry per piece.

    ``finite_counts[k]`` counts records with a finite right endpoint whose
    bracket intersects piece k; ``exceed_counts[k]`` counts records whose
    left endpoint lies beyond the piece's lower edge. A zero in the former
    lets the piece's rate collapse to 0; a zero in the latter lets it
    diverge. ``violations`` lists (piece, condition) pairs with pieces
    numbered from 1 and condition 1 naming the intersection requirement.
    """

    finite_counts: tuple
    exceed_counts: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "all pieces identifiable"
        parts = []
        for piece, condition in self.violations:
            what = (
                "no finite bracket intersects it"
                if condition == 1
                else "no left endpoint exceeds its lower edge"
            )
            parts.append(f"piece {piece}: {what}")
        return "; ".join(parts)


def check_conditions(dataset: Dataset, grid: CutGrid) -> ConditionReport:
    """Count, per piece, the records that pin its rate down.

    Advisory only; fitting proceeds with a warning when a piece fails,
    because near-violations merely make the fit fragile rather than wrong.
    """
    if dataset.n == 0:
        raise EmptyInput("cannot check conditions on an empty dataset")
    left = dataset.left
    right = dataset.right
    finite = np.isfinite(right)
    finite_counts = []
    exceed_counts = []
    violations = []
    for k in range(grid.K):
        lo = grid.lower[k]
        hi = grid.upper[k]
        n_finite = int(np.sum(finite & (left <= hi) & (right > lo)))
        n_exceed = int(np.sum(left > lo))
        finite_counts.append(n_finite)
        exceed_counts.append(n_exceed)
        if n_finite == 0:
            violations.append((k + 1, 1))
        if n_exceed == 0:
            violations.append((k + 1, 2))
    return ConditionReport(tuple(finite_counts), tuple(exceed_counts), tuple(violations))


def _piece_areas(grid: CutGrid, rates: np.ndarray, tau: float):
    """Area under survival within each piece, truncated at tau.

    ``rates`` is one row of K rates or a (B, K) stack; the last axis runs
    over pieces throughout. Returns (areas, active, w, a, s_left): the
    areas, then the mask of the pieces that start before tau and, for
    those, their widths truncated at tau, their rates and the survival at
    their left edges.
    """
    active = tau > grid.lower
    w = np.minimum(grid.upper, tau)[active] - grid.lower[active]
    a = rates[..., active]
    inner = np.cumsum(rates[..., :-1] * grid.widths[:-1], axis=-1)
    cum_at_lower = np.concatenate([np.zeros(rates.shape[:-1] + (1,)), inner], axis=-1)
    s_left = np.exp(-cum_at_lower[..., active])
    areas = np.zeros(rates.shape)
    areas[..., active] = s_left * (-np.expm1(-a * w)) / a
    return areas, active, w, a, s_left


def _own_factor(x: np.ndarray) -> np.ndarray:
    """(1 - (1 + x) exp(-x)) / x^2, series-evaluated near zero."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    xs = x[small]
    out[small] = 0.5 - xs / 3.0 + xs**2 / 8.0 - xs**3 / 30.0 + xs**4 / 144.0
    xl = x[~small]
    out[~small] = (1.0 - (1.0 + xl) * np.exp(-xl)) / xl**2
    return out


# ---------------------------------------------------------------------------
# Vectorized likelihood kernel shared by the fitter, the fast
# pseudo-observations, and the leave-one-out oracle.


@dataclass(frozen=True, eq=False)
class PreparedLikelihood:
    """Exposures and rate-free sums of one weighted dataset, computed once.

    ``diff`` holds one row per bracket record, aligned with ``interval_rows``:
    the exposure difference between its endpoints. Each record weighs one,
    or zero when left out. The terms that do not depend on the rates are
    hoisted: ``expo_sum`` is the weighted column sum of ``expo_left`` and
    ``exact_counts`` the weighted number of exact records per piece;
    ``bracket_weights`` holds the bracket records' weights. In a stack made
    by ``leave_out`` these three gain a leading axis with one row per
    likelihood, and ``loglik_parts`` evaluates one rate row against each.
    """

    K: int
    expo_left: np.ndarray
    diff: np.ndarray
    interval_rows: np.ndarray
    exact_rows: np.ndarray
    exact_piece: np.ndarray
    expo_sum: np.ndarray
    exact_counts: np.ndarray
    bracket_weights: np.ndarray

    def leave_out(self, rows) -> "PreparedLikelihood":
        """A stack of B likelihoods, the b-th with subject rows[b]'s weight set to zero.

        The stack shares ``expo_left`` and ``diff``; only the B x K sums and
        the B x (bracket rows) weights are new, so no n x K array is copied.
        """
        rows = np.asarray(rows, dtype=int)
        expo_sum = self.expo_sum - self.expo_left[rows]
        exact_counts = np.tile(self.exact_counts, (rows.size, 1))
        b, j = _matches(self.exact_rows, rows)
        exact_counts[b, self.exact_piece[j]] -= 1.0
        bracket_weights = np.tile(self.bracket_weights, (rows.size, 1))
        b, j = _matches(self.interval_rows, rows)
        bracket_weights[b, j] = 0.0
        return replace(
            self,
            expo_sum=expo_sum,
            exact_counts=exact_counts,
            bracket_weights=bracket_weights,
        )

    def take(self, idx) -> "PreparedLikelihood":
        """Rows idx of a stack; an unstacked likelihood is returned as is."""
        if self.bracket_weights.ndim == 1:
            return self
        return replace(
            self,
            expo_sum=self.expo_sum[idx],
            exact_counts=self.exact_counts[idx],
            bracket_weights=self.bracket_weights[idx],
        )


def prepare_likelihood(dataset: Dataset, grid: CutGrid) -> PreparedLikelihood:
    """Precompute per-record exposures for repeated likelihood evaluation."""
    if dataset.n == 0:
        raise EmptyInput("cannot prepare an empty dataset")
    left = dataset.left
    right = dataset.right
    is_exact = left == right
    rows = np.flatnonzero(np.isfinite(right) & ~is_exact)
    expo_left = grid.exposure(left)
    exact_rows = np.flatnonzero(is_exact)
    exact_piece = np.asarray(grid.piece_index(left[exact_rows]), dtype=int)
    return PreparedLikelihood(
        K=grid.K,
        expo_left=expo_left,
        diff=grid.exposure(right[rows]) - expo_left[rows],
        interval_rows=rows,
        exact_rows=exact_rows,
        exact_piece=exact_piece,
        expo_sum=expo_left.sum(axis=0),
        exact_counts=np.bincount(exact_piece, minlength=grid.K).astype(float),
        bracket_weights=np.ones(rows.size),
    )


def loglik_parts(alpha, prep: PreparedLikelihood):
    """Weighted total log-likelihood, score, and Hessian at the rates alpha.

    The log-likelihood is
    -expo_sum @ alpha + w @ log(1 - exp(-dlam)) + exact_counts @ log(alpha)
    for the bracket weights w and the bracket increments dlam = diff @ alpha,
    so a call reads the bracket rows and never the n x K exposures.

    alpha is one row of K rates, or a (B, K) stack evaluated row by row
    against a stack from ``leave_out`` or against one unstacked likelihood.
    Returns (loglik, gradient, Hessian), of shapes (), (K,), (K, K) for one
    row and (B,), (B, K), (B, K, K) for a stack. The Hessian is symmetric
    only to rounding, because it is formed as (curve * diff).T @ diff from
    two different factors; ``fit_pch`` symmetrizes the information it keeps.
    Raises DegenerateInterval if any bracket's mass underflows to zero, a
    zero-weight bracket included; that happens only at rates far outside
    the fitter's bounds.
    """
    alpha = np.asarray(alpha, dtype=float)
    loglik, grad, hess = _kernel(alpha, _bracket_increments(alpha, prep), prep)
    return (float(loglik) if alpha.ndim == 1 else loglik), grad, hess


def _kernel(alpha, dlam, prep: PreparedLikelihood):
    """``loglik_parts`` at known bracket increments dlam, all of them positive."""
    w = prep.bracket_weights
    counts = prep.exact_counts
    # numpy's pairwise sum, not a BLAS dot: near the maximum the line search
    # compares log-likelihoods that differ by less than their rounding, and
    # a dot over n terms rounds several units in the last place worse.
    log_mass = (w * np.log(-np.expm1(-dlam))).sum(axis=-1)
    loglik = -_rowdot(prep.expo_sum, alpha) + log_mass + _rowdot(counts, np.log(alpha))
    # expm1 may overflow to inf for extreme trial rates during line
    # search; the reciprocal is then exactly the limiting value 0.
    with np.errstate(over="ignore"):
        inv = 1.0 / np.expm1(dlam)
    grad = -prep.expo_sum + (w * inv) @ prep.diff + counts / alpha

    hess = np.zeros(alpha.shape + (prep.K,))
    diag = np.arange(prep.K)
    # For trial rates where a bracket's mass nearly underflows, or where a
    # rate's square over- or underflows, the curvature is not finite; such
    # steps are rejected (their log-likelihood is far worse) or end the fit
    # at the rate bounds, so the noise is suppressed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        curve = np.exp(-dlam) / np.expm1(-dlam) ** 2 * w
        hess -= (curve[..., None] * prep.diff).swapaxes(-1, -2) @ prep.diff
        hess[..., diag, diag] -= counts / alpha**2
    return loglik, grad, hess


def _rowdot(x, y):
    """Row-wise dot products over the last axis, broadcasting the rows.

    Each row goes through the same BLAS dot as a single vector's ``x @ y``,
    so a one-row stack rounds exactly as the vector does.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _matches(sorted_rows, rows):
    """Index pairs (i, j) with sorted_rows[j] == rows[i]; sorted_rows ascends."""
    j = np.searchsorted(sorted_rows, rows)
    i = np.flatnonzero(j < sorted_rows.size)
    i = i[sorted_rows[j[i]] == rows[i]]
    return i, j[i]


def score_products(alpha, prep: PreparedLikelihood, D) -> np.ndarray:
    """Per-record score vectors times the directions D, at the rates alpha.

    Row l of the result is subject l's unweighted score (the derivative of
    the weighted score in subject l's weight) times D, for D a K-vector or
    a K x M matrix. It is summed term by term: minus the exposures times D,
    the bracket rows' exposure differences times D over expm1 of their
    increments, and D's exact piece row over that piece's rate; no n x K
    score matrix is formed.
    """
    alpha = np.asarray(alpha, dtype=float)
    D = np.asarray(D, dtype=float)
    dlam = _bracket_increments(alpha, prep)
    out = -(prep.expo_left @ D)
    # Transposes put the rows last, so the per-row divisors broadcast
    # for a vector D and a matrix D alike.
    out[prep.interval_rows] += ((prep.diff @ D).T / np.expm1(dlam)).T
    out[prep.exact_rows] += (D[prep.exact_piece].T / alpha[prep.exact_piece]).T
    return out


def score_matrix(alpha, prep: PreparedLikelihood) -> np.ndarray:
    """Per-record score vectors as an n x K matrix: ``score_products`` at D = I."""
    return score_products(alpha, prep, np.eye(prep.K))


def _bracket_increments(alpha, prep: PreparedLikelihood) -> np.ndarray:
    """Cumulative hazard across each bracket, for each rate row; raises if
    one has no mass."""
    dlam = alpha @ prep.diff.T
    if np.any(dlam <= 0.0):
        bad = prep.interval_rows[int(np.argmin(dlam)) % dlam.shape[-1]]
        raise DegenerateInterval(f"record {bad}: bracket has zero probability mass")
    return dlam
