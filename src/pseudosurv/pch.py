"""Piecewise-constant-hazard model: evaluation, the vectorized likelihood
kernel, closed-form restricted-mean integrals, and identifiability
diagnostics.

The hazard is a step function over pieces (c_{k-1}, c_k] with c_0 = 0 and
c_K = +inf, so the cumulative hazard is a piecewise-linear ramp and survival
is piecewise exponential. Interval-censored records contribute the bracket
mass S(L) - S(R) to the likelihood; right-censored records contribute S(L);
exact records contribute the density lambda(T) S(T). One kernel
(``loglik_parts``, with ``score_products`` for the per-record scores)
evaluates every record at once; its derivatives are analytic, with
expm1-based evaluations wherever a naive difference of exponentials would
cancel.

The kernel describes each record by piece indices, never by an n x K row of
exposures: an exposure is the full widths of the pieces below the record's
piece plus the part within it, and a bracket's cumulative hazard is its two
own-piece lengths times those pieces' rates plus the full pieces between,
which it shares with every bracket of its (first piece, last piece) class.
So a likelihood evaluation reads O(n) numbers at any number of pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._parts import split
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
        """Index k of the piece (c_k, c_{k+1}] containing t; t = 0 maps to piece 0.
        It counts the cuts below t, one comparison per cut, in the smallest
        unsigned type that holds K, and returns intp, as np.searchsorted does."""
        t = np.asarray(t)
        piece = np.zeros(t.shape, dtype=np.min_scalar_type(self.K))
        for c in self.cuts:
            piece += t > c
        return piece.astype(np.intp)[()]

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
    return _conditions(prepare_likelihood(dataset, grid))


def _conditions(prep: PreparedLikelihood) -> ConditionReport:
    """``check_conditions`` of the prepared dataset, in one pass over its
    piece indices: a bracket meets pieces jL to jR (an exact record at
    t > 0 its own), counted as the running sum of +1 at jL and -1 after jR;
    a left endpoint exceeds the lower edges up to its own piece's, and
    piece 0's if it is positive."""
    K = prep.K
    timed = prep.exact_piece[prep.expo_left[prep.exact_rows] > 0]
    lo, hi = np.concatenate([prep.classes[:2].argmax(axis=2), [timed, timed]], axis=1)
    weight = np.concatenate([prep.class_sizes, np.ones(timed.size)])
    ends = np.bincount(lo, weight, K + 1) - np.bincount(hi + 1, weight, K + 1)
    finite_counts = np.cumsum(ends)[:K].astype(int)
    exceed_counts = np.cumsum(np.bincount(prep.left_piece, minlength=K)[::-1])[::-1]
    exceed_counts[0] = np.count_nonzero(prep.expo_left > 0)
    violations = [(k + 1, condition) for k in range(K)
                  for condition, counts in ((1, finite_counts), (2, exceed_counts))
                  if counts[k] == 0]
    return ConditionReport(tuple(finite_counts.tolist()), tuple(exceed_counts.tolist()),
                           tuple(violations))


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

# A class's 3 x 3 curvature moments, in the order of its basis rows, as
# indices into its sums of c b^2, c a^2, c ab, c, c a and c b.
_MOMENTS = np.array([[1, 2, 4], [2, 0, 5], [4, 5, 3]])


@dataclass(frozen=True, eq=False)
class PreparedLikelihood:
    """One dataset's records by piece index, and its rate-free sums, computed once.

    Nothing here has a row per record and a column per piece. A record's
    exposure (its time at risk in each piece up to its left endpoint L) is
    the full widths of the pieces below its piece jL plus L - c_jL within
    it; ``expo_left`` holds L (the dataset's own column) and ``left_piece``
    jL. A bracket, a record with a finite right endpoint R > L, lies in
    pieces jL to jR, its class (jL, jR). Its cumulative hazard is
    alpha_jL a + alpha_jR b plus the rates of the full pieces between times
    their widths, where a and b are its own-piece lengths: a from L to the
    top of piece jL and b from the bottom of piece jR to R, or a = R - L and
    b = 0 within one piece.

    The brackets are stored class by class: ``interval_rows`` gives their
    records and ``diff`` (2, brackets) their a and b; ``class_bounds``
    (Q + 1) holds each of the Q classes' first position and then the number
    of brackets, and ``class_sizes`` each class's size. ``classes``
    (3, Q, K) holds the classes' bases, the unit vectors of jL and jR and
    the widths of the full pieces between, so the class's increments are
    its bases times the rates dotted with (a, b, 1). Exact records are
    ``exact_rows``, in pieces ``exact_piece``.

    The rate-free terms are hoisted: ``expo_sum``, the column sum of the
    exposures, and ``exact_counts``, the exact records per piece. In a stack
    made by ``leave_out`` these two have one row per likelihood, and
    ``left_out`` holds each row's left-out bracket position, or -1; every
    pass over a stack runs as over one likelihood (see ``_kernel``).
    """

    grid: CutGrid
    expo_left: np.ndarray
    left_piece: np.ndarray
    diff: np.ndarray
    interval_rows: np.ndarray
    class_bounds: np.ndarray
    class_sizes: np.ndarray
    classes: np.ndarray
    exact_rows: np.ndarray
    exact_piece: np.ndarray
    expo_sum: np.ndarray
    exact_counts: np.ndarray
    left_out: np.ndarray | None = None

    @property
    def K(self) -> int:
        return self.grid.K

    def leave_out(self, rows) -> "PreparedLikelihood":
        """A stack of B likelihoods, the b-th without subject rows[b] (indices or a slice).

        Only the B x K sums and the B left-out positions are new: each row's
        sums lose its subject's ``CutGrid.exposure`` and exact record. The
        stack shares every per-record and per-bracket array; ``_kernel``
        gives a left-out bracket an infinite increment, which adds nothing.
        """
        position, exact = self._record_index
        left_out = position[rows]
        gone = np.flatnonzero(exact[rows])
        exact_counts = np.tile(self.exact_counts, (left_out.size, 1))
        exact_counts[gone, self.left_piece[rows][gone]] -= 1.0
        return replace(self, expo_sum=self.expo_sum - self.grid.exposure(self.expo_left[rows]),
                       exact_counts=exact_counts, left_out=left_out)

    @cached_property
    def _record_index(self) -> tuple:
        """Per record, its bracket position or -1, and whether it is exact;
        built once, on the first ``leave_out``."""
        n = self.expo_left.size
        position = np.full(n, -1)
        position[self.interval_rows] = np.arange(self.interval_rows.size)
        exact = np.zeros(n, bool)
        exact[self.exact_rows] = True
        return position, exact


def prepare_likelihood(dataset: Dataset, grid: CutGrid) -> PreparedLikelihood:
    """Describe every record by its piece indices, and hoist the rate-free sums."""
    if dataset.n == 0:
        raise EmptyInput("cannot prepare an empty dataset")
    left, right = dataset.left, dataset.right
    n, K = dataset.n, grid.K
    # A stable sort by small-int key puts the brackets first, class (jL, jR)
    # after class (key jL K + jR), then the others by piece (key jL + K^2).
    piece, index, own = np.zeros(n, np.min_scalar_type(K)), np.empty(n, np.intp), np.empty(n)
    key, other = np.zeros((2, n), np.min_scalar_type(K * (K + 1)))
    flag, exact = np.empty((2, n), bool)
    def lookup(start, stop):
        jL, j, o, k, d, f, e, L, R = (x[start:stop] for x in (
            piece, index, own, key, other, flag, exact, left, right))
        for c in grid.cuts:
            jL += np.greater(L, c, out=f)
            k += np.greater(R, c, out=f)
        np.copyto(j, jL)
        np.subtract(L, grid.lower.take(j, out=o, mode="clip"), out=o)
        # k = jL K + jR, plus jL + K^2 - k for no bracket (exact wrapping sums)
        k += np.multiply(jL, K, out=d, dtype=d.dtype)
        np.add(jL, K * K, out=d, dtype=d.dtype)
        d -= k
        d *= np.logical_or(np.isinf(R, out=f), np.equal(L, R, out=e), out=f)
        k += d

    split(lookup, n, n)
    order = np.argsort(key, kind="stable")
    sizes = np.bincount(key, minlength=K * (K + 1))
    groups = np.flatnonzero(sizes)
    starts = np.cumsum(sizes) - sizes
    classes = groups[groups < K * K]
    lo, hi = np.divmod(classes, K)
    brackets = int(sizes[:K * K].sum())
    # A class's brackets share the top of jL, the bottom of jR, and jL != jR.
    top, bottom, apart = (x.repeat(sizes[classes])
                          for x in (grid.upper[lo], grid.lower[hi], lo != hi))
    by_key, diff = np.empty(n), np.empty((2, brackets))
    def gather(start, stop):
        own.take(order[start:stop], out=by_key[start:stop], mode="clip")
        b = slice(start, min(stop, brackets))
        a, d = (x.take(order[b], out=y, mode="clip") for x, y in zip((left, right), diff[:, b]))
        np.subtract(np.minimum(top[b], d, out=top[b]), a, out=a)
        d -= bottom[b]
        d *= apart[b]

    split(gather, n, n)
    # numpy's pairwise sum of the own parts of each group, then at most K + 1
    # group sums per piece, and the full widths of the records beyond it; a
    # running sum over n records would round about n units in the last place.
    group_piece = np.where(groups < K * K, groups // K, groups - K * K)
    expo_sum = np.bincount(group_piece, np.add.reduceat(by_key, starts[groups]), K)
    beyond = n - np.cumsum(np.bincount(group_piece, sizes[groups], K))
    expo_sum[:-1] += grid.widths[:-1] * beyond[:-1]

    basis = np.zeros((3, classes.size, K))
    basis[0, np.arange(classes.size), lo] = 1.0
    basis[1, np.arange(classes.size), hi] = 1.0
    inner = np.arange(K - 1)
    basis[2, :, :-1] = ((inner > lo[:, None]) & (inner < hi[:, None])) * grid.widths[:-1]
    exact_rows = np.flatnonzero(exact)
    exact_piece = piece[exact_rows]
    return PreparedLikelihood(
        grid=grid,
        expo_left=left,
        left_piece=piece,
        diff=diff,
        interval_rows=order[:brackets].astype(np.min_scalar_type(n)),
        class_bounds=np.append(starts[classes], brackets),
        class_sizes=sizes[classes],
        classes=basis,
        exact_rows=exact_rows.astype(np.min_scalar_type(n)),
        exact_piece=exact_piece,
        expo_sum=expo_sum,
        exact_counts=np.bincount(exact_piece, minlength=K).astype(float),
    )


def loglik_parts(alpha, prep: PreparedLikelihood):
    """Total log-likelihood, score, and Hessian at the rates alpha.

    The log-likelihood is
    -expo_sum @ alpha + sum log(1 - exp(-dlam)) + exact_counts @ log(alpha)
    over the bracket increments dlam, so a call reads only the brackets,
    never the exposures. It sums, class by class, the score factor
    g = 1 / expm1(dlam) times a, b and 1 and the curvature
    exp(-dlam) / expm1(-dlam)^2 = g (1 + g) times the six products of a, b
    and 1, and spreads these sums over the pieces by the classes' bases.

    alpha is one row of K rates, or a (B, K) stack evaluated row by row
    against a stack from ``leave_out`` or against one unstacked likelihood.
    Returns (loglik, gradient, Hessian), of shapes (), (K,), (K, K) for one
    row and (B,), (B, K), (B, K, K) for a stack. The Hessian is symmetric
    only to rounding, because each class's curvature sums meet its basis on
    one side first; ``fit_pch`` symmetrizes the information it keeps.
    Raises DegenerateInterval if any bracket's mass underflows to zero, a
    left-out one included; that happens only at rates far outside the
    fitter's bounds.
    """
    alpha = np.asarray(alpha, dtype=float)
    rows = np.atleast_2d(alpha)
    loglik, grad, hess = _kernel(rows, _increments(rows, prep, check=True), prep)
    if alpha.ndim == 1:
        return float(loglik[0]), grad[0], hess[0]
    return loglik, grad, hess


def _kernel(alpha, dlam, prep: PreparedLikelihood, rows=slice(None)):
    """``loglik_parts`` of R rate rows, alpha (R, K), at known bracket
    increments dlam (brackets, R), against one likelihood or the ``rows`` of a
    stack, whose left-out entries of dlam it overwrites with +inf (score
    factor 1 / expm1(inf) = +0.0). A rate of 0 or inf, or a bracket without
    mass, gives a log-likelihood that is nan or -inf."""
    R, K = alpha.shape
    Q, bounds = prep.class_sizes.size, prep.class_bounds
    expo_sum, counts, left_out = prep.expo_sum, prep.exact_counts, prep.left_out
    if left_out is not None:  # a stack: the rows' sums, and no terms for a left-out bracket
        expo_sum, counts, left_out = expo_sum[rows], counts[rows], left_out[rows]
        dlam[left_out[left_out >= 0], np.flatnonzero(left_out >= 0)] = np.inf
    # Per bracket, g = 1 / expm1(dlam) is the score factor, c = g (1 + g)
    # the curvature and -log1p(g) the log of the bracket mass. They are
    # summed class by class, three bracket rows at a time in one buffer: g
    # times a, b and 1, then c times 1, a and b, then c times b^2, a^2 and
    # ab. For trial rates where a bracket's mass nearly underflows, or where
    # a rate's square over- or underflows, the curvature is not finite; such
    # steps are rejected (their log-likelihood is far worse) or end the fit
    # at the rate bounds, so the noise is suppressed.
    terms, masses = np.empty((3,) + dlam.shape), np.empty(dlam.shape[::-1])
    score, curvature = np.empty((3, Q, R)), np.empty((6, Q, R))
    def part(q0, q1):
        b, q = slice(bounds[q0], bounds[q1]), slice(q0, q1)
        t, lengths, starts = terms[:, b], prep.diff[:, b, None], bounds[q]
        upto = terms[:, :b.stop]  # reduceat's last class ends where its input does
        g = np.reciprocal(np.expm1(dlam[b], out=t[2]), out=t[2])
        np.multiply(g, lengths, out=t[:2])
        np.add.reduceat(upto, starts, axis=1, out=score[:, q])
        c = np.multiply(g, g, out=t[0])
        c += g
        np.log1p(g.T, out=masses[:, b])
        np.multiply(c, lengths, out=t[1:])
        np.add.reduceat(upto, starts, axis=1, out=curvature[3:, q])
        np.multiply(t[2], lengths[1], out=t[0])
        np.multiply(t[1], lengths[1], out=t[2])
        np.multiply(t[1], lengths[0], out=t[1])
        np.add.reduceat(upto, starts, axis=1, out=curvature[:3, q])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        split(part, Q, dlam.size, bounds)
        # Each row's log masses, summed by numpy's pairwise sum rather than
        # a BLAS dot: near the maximum the line search compares
        # log-likelihoods that differ by less than their rounding, and a
        # dot over n terms rounds several units in the last place worse.
        log_mass = masses.sum(axis=-1)
        del terms, masses
        loglik = _rowdot(counts, np.log(alpha)) - _rowdot(expo_sum, alpha) - log_mass
        basis = prep.classes.reshape(3 * Q, K)
        grad = (basis.T @ score.reshape(3 * Q, R)).T - expo_sum + counts / alpha
        # Each class's 3 x 3 moments times its basis, one product per class
        # for all the rows, then the bases times those, summed over the
        # classes in one product.
        moments = curvature.transpose(1, 2, 0)[..., _MOMENTS].reshape(Q, 3 * R, 3)
        spread = (moments @ prep.classes.transpose(1, 0, 2)).reshape(Q, R, 3, K)
        hess = spread.transpose(1, 3, 2, 0).reshape(R * K, 3 * Q) @ basis
        hess = -hess.reshape(R, K, K)
        hess.reshape(R, K * K)[:, ::K + 1] -= counts / alpha**2
    return loglik, grad, hess


def _rowdot(x, y):
    """Row-wise dot products over the last axis, broadcasting the rows.

    Each row goes through the same BLAS dot as a single vector's ``x @ y``,
    so a one-row stack rounds exactly as the vector does.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def score_products(alpha, prep: PreparedLikelihood, D) -> np.ndarray:
    """Per-record score vectors times the directions D, at the rates alpha.

    Row l of the result is subject l's score times D, for D a K-vector or a
    K x M matrix, summed term by term from the piece indices with no n x K
    score matrix: minus the exposure times D, which is ``cumsum(widths * D)``
    below jL plus (L - c_jL) D_jL; for a bracket, the increment of D across
    it (``_increments`` of the column as a rate row) over expm1 of the
    rates' increment; for an exact record, D's row of its piece j over
    alpha_j. Each of the M columns is worked on as one contiguous row, and
    the result is their transpose.
    """
    alpha = np.asarray(alpha, dtype=float)
    D = np.asarray(D, dtype=float)
    dlam = _increments(alpha[None], prep, check=True)[:, 0]
    grid, n = prep.grid, prep.expo_left.size
    cols = D.reshape(prep.K, -1).T
    below = np.zeros_like(cols)
    np.cumsum(grid.widths[:-1] * cols[:, :-1], axis=1, out=below[:, 1:])
    out = np.empty((cols.shape[0], n))
    piece, offset, own = prep.left_piece.astype(np.intp), np.empty(n), np.empty(n)
    def records(start, stop):
        p, o, w = piece[start:stop], offset[start:stop], own[start:stop]
        np.subtract(prep.expo_left[start:stop], grid.lower.take(p, out=o, mode="clip"), out=o)
        for column, b, c in zip(out, below, cols):
            x = b.take(p, out=column[start:stop], mode="clip")
            x += np.multiply(c.take(p, out=w, mode="clip"), o, out=w)
            np.negative(x, out=x)

    split(records, n, out.size)
    del piece, offset, own
    terms = [_increments(c[None], prep)[:, 0] for c in cols]
    def brackets(start, stop):
        e = np.expm1(dlam[start:stop], out=dlam[start:stop])
        # One column at a time: a scatter into a row is cheaper than into the
        # strided rows of a matrix.
        for column, x in zip(out, terms):
            np.add.at(column, prep.interval_rows[start:stop], np.divide(
                x[start:stop], e, out=x[start:stop]))

    split(brackets, dlam.size, dlam.size * len(terms))
    out[:, prep.exact_rows] += cols[:, prep.exact_piece] / alpha[prep.exact_piece]
    return out.T.reshape(out.shape[1:] + D.shape[1:])


def score_matrix(alpha, prep: PreparedLikelihood) -> np.ndarray:
    """Per-record score vectors as an n x K matrix: ``score_products`` at D = I."""
    return score_products(alpha, prep, np.eye(prep.K))


def _increments(alpha, prep: PreparedLikelihood, check=False) -> np.ndarray:
    """Cumulative hazard across each bracket, in ``interval_rows`` order, for
    the R rate rows alpha (R, K), as (brackets, R): alpha_jL a + alpha_jR b
    plus the full pieces between, which is exactly alpha_j (R - L) for a
    bracket within piece j. With ``check``, raises DegenerateInterval if a
    bracket has no mass."""
    K, Q = prep.K, prep.class_sizes.size
    per_class = (prep.classes.reshape(3 * Q, K) @ alpha.T).reshape(3, Q, alpha.shape[0])
    dlam, other, between = [p.repeat(prep.class_sizes, axis=0) for p in per_class]
    def part(start, stop):
        x, y, (a, b) = dlam[start:stop], other[start:stop], prep.diff[:, start:stop, None]
        x *= a
        x += np.multiply(y, b, out=y)
        x += between[start:stop]

    split(part, dlam.shape[0], dlam.size)
    if check and (dlam <= 0.0).any():
        bad = prep.interval_rows[int(np.argmin(dlam)) // dlam.shape[1]]
        raise DegenerateInterval(f"record {bad}: bracket has zero probability mass")
    return dlam
