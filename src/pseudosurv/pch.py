"""Piecewise-constant-hazard model: evaluation, likelihood derivatives,
closed-form restricted-mean integrals, and identifiability diagnostics.

The hazard is a step function over pieces (c_{k-1}, c_k] with c_0 = 0 and
c_K = +inf, so the cumulative hazard is a piecewise-linear ramp and survival
is piecewise exponential. Interval-censored records contribute the bracket
mass S(L) - S(R) to the likelihood; right-censored records contribute S(L);
exact records contribute the density lambda(T) S(T). All derivatives are
analytic, with expm1-based evaluations wherever a naive difference of
exponentials would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import EXACT, RIGHT_CENSORED, Dataset, IntervalRecord
from .errors import (
    DegenerateInterval,
    EmptyInput,
    InvalidTau,
    InvalidTime,
)

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

    @cached_property
    def _cum_at_lower(self) -> np.ndarray:
        """Cumulative hazard at each piece's left edge."""
        inner = self.rates[:-1] * self.grid.widths[:-1]
        return np.concatenate([[0.0], np.cumsum(inner)])

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
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t < 0):
        raise InvalidTime(f"time must be finite and nonnegative, got {t}")
    lam = model.cum_hazard(t)
    if t.ndim == 0:
        return Evaluation(float(model.hazard(t)), float(lam), float(np.exp(-lam)))
    return Evaluation(model.hazard(t), lam, np.exp(-lam))


def grad_cum_hazard(model: PchModel, t) -> np.ndarray:
    """Gradient of the cumulative hazard in the rates: the exposure vector.

    Component k is the time spent in piece k before t, so the components
    sum to t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t < 0):
        raise InvalidTime(f"time must be finite and nonnegative, got {t}")
    return model.grid.exposure(t)


def rmst_closed_form(model: PchModel, tau) -> float:
    """Integral of survival over [0, tau], in closed form.

    tau may be +inf, in which case the last piece contributes its full
    exponential tail. Each piece l adds
    S(c_{l-1}) (1 - exp(-alpha_l w_l)) / alpha_l for the within-piece width
    w_l, evaluated through expm1 so that small rates lose no precision.
    """
    _check_tau(tau)
    return float(_piece_areas(model, float(tau)).sum())


def rmst_gradient(model: PchModel, tau) -> np.ndarray:
    """Sensitivity integrals of the restricted mean in the rates.

    Component k is the integral of S(t) dLambda(t)/d alpha_k over [0, tau],
    which equals minus the derivative of the restricted mean in alpha_k.
    It is assembled from closed-form pieces: the full width of piece k
    times the area under S beyond c_k, plus the within-piece moment
    integral of (t - c_{k-1}) S(t). All components are nonnegative.
    """
    _check_tau(tau)
    tau = float(tau)
    grid = model.grid
    alpha = model.rates
    areas = _piece_areas(model, tau)
    # Area under S strictly beyond each piece's right edge.
    tail = np.concatenate([np.cumsum(areas[::-1])[::-1][1:], [0.0]])
    out = np.zeros(grid.K)
    np.multiply(grid.widths, tail, where=tail > 0, out=out)

    active = tau > grid.lower
    w = np.minimum(grid.upper, tau)[active] - grid.lower[active]
    a = alpha[active]
    s_left = np.exp(-model._cum_at_lower[active])
    own = np.empty_like(w)
    unbounded = np.isinf(w)
    own[unbounded] = (s_left / a**2)[unbounded]
    wf = w[~unbounded]
    own[~unbounded] = s_left[~unbounded] * wf**2 * _own_factor(a[~unbounded] * wf)
    out[active] += own
    return out


def log_density(model: PchModel, record: IntervalRecord) -> float:
    """Log of the mixed interval-censoring density of one record.

    For a bracket with distinct finite endpoints this is
    log(S(L) - S(R)) = -Lambda(L) + log(1 - exp(-(Lambda(R) - Lambda(L)))),
    computed in log space so that deep-tail intervals keep their mass.
    Right-censored records contribute -Lambda(L); exact records contribute
    log lambda(T) - Lambda(T).

    Raises
    ------
    DegenerateInterval
        If the bracket has zero probability mass to machine precision.
    """
    lam_l = float(model.cum_hazard(record.left))
    cls = record.censoring_class
    if cls == RIGHT_CENSORED:
        return -lam_l
    if cls == EXACT:
        return float(np.log(model.hazard(record.left))) - lam_l
    dlam = float(model.cum_hazard(record.right)) - lam_l
    if dlam <= 0.0:
        raise DegenerateInterval(
            f"interval ({record.left}, {record.right}) has zero probability mass "
            "under the current rates"
        )
    return -lam_l + math.log(-math.expm1(-dlam))


def score(model: PchModel, record: IntervalRecord) -> np.ndarray:
    """Analytic gradient of the record's log-density in the rates."""
    grid = model.grid
    expo_l = grid.exposure(record.left)
    out = -expo_l
    cls = record.censoring_class
    if cls == RIGHT_CENSORED:
        return out
    if cls == EXACT:
        k = int(grid.piece_index(record.left))
        out[k] += 1.0 / model.rates[k]
        return out
    diff = grid.exposure(record.right) - expo_l
    dlam = float(diff @ model.rates)
    if dlam <= 0.0:
        raise DegenerateInterval(
            f"interval ({record.left}, {record.right}) has zero probability mass"
        )
    return out + diff / math.expm1(dlam)


def hessian(model: PchModel, record: IntervalRecord) -> np.ndarray:
    """Analytic Hessian of the record's log-density in the rates.

    Right-censored records contribute a zero matrix; exact records a
    diagonal -1/alpha_k^2 in their piece; bracket records the negative
    rank-one matrix built from the exposure difference.
    """
    grid = model.grid
    K = grid.K
    cls = record.censoring_class
    if cls == RIGHT_CENSORED:
        return np.zeros((K, K))
    if cls == EXACT:
        out = np.zeros((K, K))
        k = int(grid.piece_index(record.left))
        out[k, k] = -1.0 / model.rates[k] ** 2
        return out
    diff = grid.exposure(record.right) - grid.exposure(record.left)
    dlam = float(diff @ model.rates)
    if dlam <= 0.0:
        raise DegenerateInterval(
            f"interval ({record.left}, {record.right}) has zero probability mass"
        )
    # exp(dlam)/expm1(dlam)^2, written with decaying exponentials
    w = math.exp(-dlam)
    factor = w / math.expm1(-dlam) ** 2
    return -factor * np.outer(diff, diff)


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


def _piece_areas(model: PchModel, tau: float) -> np.ndarray:
    """Area under survival within each piece, truncated at tau."""
    grid = model.grid
    alpha = model.rates
    areas = np.zeros(grid.K)
    active = tau > grid.lower
    w = np.minimum(grid.upper, tau)[active] - grid.lower[active]
    a = alpha[active]
    s_left = np.exp(-model._cum_at_lower[active])
    areas[active] = s_left * (-np.expm1(-a * w)) / a
    return areas


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


def _check_tau(tau):
    tau = float(tau)
    if math.isnan(tau) or tau <= 0:
        raise InvalidTau(f"tau must be positive (inf allowed), got {tau}")


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
    ``bracket_weights`` holds the bracket records' weights.
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

    def leave_out(self, l: int) -> "PreparedLikelihood":
        """The same likelihood with subject l's weight set to zero.

        The view shares ``expo_left`` and ``diff``; only the K-vectors and
        the bracket weights are new, so no n x K array is copied.
        """
        exact_piece = self.exact_piece[self.exact_rows == l]
        return replace(
            self,
            expo_sum=self.expo_sum - self.expo_left[l],
            exact_counts=self.exact_counts - np.bincount(exact_piece, minlength=self.K),
            bracket_weights=np.where(self.interval_rows == l, 0.0, self.bracket_weights),
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

    Returns (loglik, gradient, hessian). Raises DegenerateInterval if any
    bracket's mass underflows to zero, a zero-weight bracket included; that
    happens only at rates far outside the fitter's bounds.
    """
    alpha = np.asarray(alpha, dtype=float)
    dlam = _bracket_increments(alpha, prep)
    w = prep.bracket_weights
    counts = prep.exact_counts
    # numpy's pairwise sum, not a BLAS dot: near the maximum the line search
    # compares log-likelihoods that differ by less than their rounding, and
    # a dot over n terms rounds several units in the last place worse.
    log_mass = (w * np.log(-np.expm1(-dlam))).sum()
    loglik = -prep.expo_sum @ alpha + log_mass + counts @ np.log(alpha)
    # expm1 may overflow to inf for extreme trial rates during line
    # search; the reciprocal is then exactly the limiting value 0.
    with np.errstate(over="ignore"):
        inv = 1.0 / np.expm1(dlam)
    grad = -prep.expo_sum + (w * inv) @ prep.diff + counts / alpha

    hess = np.zeros((prep.K, prep.K))
    # For trial rates where a bracket's mass nearly underflows, or where a
    # rate's square over- or underflows, the curvature is not finite; such
    # steps are rejected (their log-likelihood is far worse) or end the fit
    # at the rate bounds, so the noise is suppressed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        curve = np.exp(-dlam) / np.expm1(-dlam) ** 2 * w
        hess -= (prep.diff * curve[:, None]).T @ prep.diff
        hess[np.diag_indices(prep.K)] -= counts / alpha**2
    return float(loglik), grad, hess


def score_matrix(alpha, prep: PreparedLikelihood) -> np.ndarray:
    """Per-record score vectors as an n x K matrix at the rates alpha.

    Rows are unweighted: row l is the derivative of the weighted score in
    subject l's weight, which is what the fast pseudo-observations solve
    against the information.
    """
    alpha = np.asarray(alpha, dtype=float)
    dlam = _bracket_increments(alpha, prep)
    out = -prep.expo_left.copy()
    out[prep.interval_rows] += prep.diff / np.expm1(dlam)[:, None]
    out[prep.exact_rows, prep.exact_piece] += 1.0 / alpha[prep.exact_piece]
    return out


def _bracket_increments(alpha, prep: PreparedLikelihood) -> np.ndarray:
    """Cumulative hazard across each bracket; raises if one has no mass."""
    dlam = prep.diff @ alpha
    if np.any(dlam <= 0.0):
        bad = prep.interval_rows[int(np.argmin(dlam))]
        raise DegenerateInterval(f"record {bad}: bracket has zero probability mass")
    return dlam
