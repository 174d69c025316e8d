"""Kaplan-Meier machinery and fast pseudo-observations for right-censored data.

The fast pseudo-observations avoid the n leave-one-out refits of the
jackknife by a first-order expansion of the product-limit functional. For a
subject l, the survival pseudo-observation at time t is

    S_hat(t) * (1 - integral_0^t dM_l(u) / H_hat(u)),

where M_l is the subject's martingale residual built from the Nelson-Aalen
increments and H_hat(u) is the at-risk fraction. The restricted-mean version
replaces the constant weight by the tail integral of S_hat over [u, tau].
Both preserve the plug-in estimate as the exact mean over subjects, because
the martingale residuals sum to zero at every event time.

Each subject enters both maps only through its event rank, the number of
distinct event times at or before its own time. `km_fit` finds every rank
with one sort of the times, so the maps make no per-subject search of the
event-time grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import EmptyInput, NoEvents, check_tau, check_time

FAST = "fast"
JACKKNIFE = "jackknife"

SURVIVAL = "survival"
RMST = "rmst"


@dataclass(frozen=True, eq=False)
class PseudoVector:
    """Per-subject pseudo-observations for one target.

    Parameters
    ----------
    values : numpy.ndarray
        One value per subject, index-aligned with the originating dataset.
    target : str
        ``"survival"`` or ``"rmst"``.
    horizon : float
        The time t (survival) or restriction time tau (RMST).
    method : str
        ``"fast"`` for the expansion-based values, ``"jackknife"`` for exact
        leave-one-out values.
    flagged : numpy.ndarray or None
        Boolean mask of subjects whose leave-one-out refit failed; their
        values are NaN. None when every value is valid.
    """

    values: np.ndarray
    target: str
    horizon: float
    method: str
    flagged: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.target not in (SURVIVAL, RMST):
            raise ValueError(f"unknown target {self.target!r}")
        if self.method not in (FAST, JACKKNIFE):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        """Mean over subjects, which equals the plug-in estimate."""
        return float(self.values.mean())


@dataclass(frozen=True, eq=False)
class KmFit:
    """Product-limit fit on a right-censored sample.

    Fields hold the distinct event-time grid together with, at each event
    time, the at-risk fraction H_hat, the Nelson-Aalen increment d/r, and
    the product-limit survival value. The per-subject statuses are kept,
    and ``rank`` holds each subject's event rank: the number of event times
    at or before its time, so ``event_times[rank - 1]`` is the subject's
    own time when it had an event. The pseudo-observation maps read these
    two instead of searching the grid for every subject's time.
    """

    n: int
    times: np.ndarray
    status: np.ndarray
    rank: np.ndarray
    event_times: np.ndarray
    at_risk: np.ndarray
    na_increments: np.ndarray
    survival: np.ndarray
    max_time: float

    def survival_at(self, t: float) -> float:
        """Step-function value of the product-limit estimator at time t.

        Beyond the last observed time the curve is extended flat, with a
        warning, because nobody remains at risk there.
        """
        return self._survival_at(t, stacklevel=3)

    def rmst(self, tau: float) -> float:
        """Integral of the product-limit curve over [0, tau], exact on the step grid."""
        return self._rmst(tau, stacklevel=3)

    # The pseudo maps and the jackknife evaluate the plug-in through these,
    # with the stack level that makes a warning name their own caller.

    def _survival_at(self, t, stacklevel):
        check_time(t)
        if t > self.max_time:
            warnings.warn(
                f"evaluating survival at t={t} beyond the last observed time "
                f"{self.max_time}; flat extension used",
                stacklevel=stacklevel,
            )
        return float(_step_value(self.event_times, self.survival, t))

    def _rmst(self, tau, stacklevel):
        check_tau(tau, finite=True)
        if tau > self.max_time:
            warnings.warn(
                f"tau={tau} exceeds the last observed time {self.max_time}; "
                "nobody is at risk near tau and the curve is extended flat",
                stacklevel=stacklevel,
            )
        return float(_step_integral(self.event_times, self.survival, tau))

    def survival_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Plot-ready step curve (times, survival) starting at (0, 1)."""
        t = np.concatenate([[0.0], self.event_times])
        s = np.concatenate([[1.0], self.survival])
        return t, s


def km_fit(dataset: Dataset) -> KmFit:
    """Fit the product-limit estimator on a right-censored dataset.

    Survival is the product of (1 - d/r) over event times; the cumulative
    hazard is the running sum of the same increments (Nelson-Aalen). Ties
    between events and censorings at a time u count the censored subject as
    still at risk at u, matching the at-risk indicator I(T >= u).

    Raises
    ------
    EmptyInput
        If the dataset has no records.
    NoEvents
        If no record has status 1.
    """
    if dataset.n == 0:
        raise EmptyInput("cannot fit on an empty dataset")
    times = dataset.times
    status = dataset.status
    u, d, r, rank = _event_grid(times, status)
    if u.size == 0:
        raise NoEvents("no events in the sample")
    increments = d / r
    return KmFit(
        n=dataset.n,
        times=times,
        status=status,
        rank=rank,
        event_times=u,
        at_risk=r / dataset.n,
        na_increments=increments,
        survival=np.cumprod(1.0 - increments),
        max_time=float(times.max()),
    )


def km_pseudo_survival(km: KmFit, t: float) -> PseudoVector:
    """Fast pseudo-observations for S(t), one per subject.

    Exact mean preservation holds: the subject values average to the
    plug-in estimate S_hat(t), since the martingale residuals cancel.
    """
    s_t = km._survival_at(t, stacklevel=3)
    event_part, risk_part = _martingale_sums(km, t, np.ones_like(km.event_times))
    return PseudoVector(s_t * (1.0 - event_part + risk_part), SURVIVAL, float(t), FAST)


def km_pseudo_rmst(km: KmFit, tau: float) -> PseudoVector:
    """Fast pseudo-observations for restricted mean survival time at tau.

    The correction integral weights each event time u by the remaining area
    under the survival curve between u and tau, computed exactly on the
    step grid.
    """
    total = km._rmst(tau, stacklevel=3)
    m = int(np.searchsorted(km.event_times, tau, side="right"))
    weights = np.zeros_like(km.event_times)
    if m > 0:
        u = km.event_times[:m]
        s = km.survival[:m]
        # prefix[j] = area under the curve over [0, u_j]
        prefix = np.empty(m)
        prefix[0] = u[0]
        if m > 1:
            prefix[1:] = u[0] + np.cumsum(s[:-1] * np.diff(u))
        weights[:m] = total - prefix
    event_part, risk_part = _martingale_sums(km, tau, weights)
    return PseudoVector(total - event_part + risk_part, RMST, float(tau), FAST)


def _martingale_sums(km, horizon, weights):
    """Per-subject weighted sums over the martingale increments.

    Returns (event_part, risk_part) where, for each subject l,
    event_part_l = w(T_l)/H(T_l) if l has an event at or before the horizon,
    and risk_part_l sums w_j * dLambda_j / H_j over event times at which l
    is still at risk (u_j <= min(T_l, horizon)). Those are the first
    min(rank_l, m) event times, m the number at or before the horizon; an
    event of l lies at or before the horizon when rank_l <= m, and falls on
    the event time of index rank_l - 1.
    """
    m = int(np.searchsorted(km.event_times, horizon, side="right"))
    q = np.zeros(m + 1)
    if m > 0:
        np.cumsum(weights[:m] * km.na_increments[:m] / km.at_risk[:m], out=q[1:])
    risk_part = q[np.minimum(km.rank, m)]

    event_part = np.zeros(km.n)
    has_event = (km.status == 1) & (km.rank <= m)
    j = km.rank[has_event] - 1
    event_part[has_event] = weights[j] / km.at_risk[j]
    return event_part, risk_part


def _event_grid(times, status):
    """Distinct event times u with event counts d and at-risk counts r, and
    each subject's event rank, the number of event times <= T.

    ``times`` must be non-empty but need not be sorted; r counts every
    subject with T >= u, censored or not. One sort of the times serves all
    of them: in sorted order each distinct time is a run, an event time is
    a run holding an event, and r and the ranks follow from where the runs
    start. The ranks are then scattered back to subject order.
    """
    n = times.size
    order = np.argsort(times)
    times_sorted = times[order]
    starts = np.flatnonzero(np.concatenate([[True], times_sorted[1:] != times_sorted[:-1]]))
    deaths = np.add.reduceat(status[order], starts)
    is_event_time = deaths > 0
    first = starts[is_event_time]
    marks = np.zeros(n, dtype=np.intp)
    marks[first] = 1
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.cumsum(marks)
    return times_sorted[first], deaths[is_event_time], n - first, rank


def _step_value(knots, values, t):
    """Right-continuous step evaluation at t of each row of values (the last
    axis runs along the knots); 1 before the first knot."""
    j = int(np.searchsorted(knots, t, side="right")) - 1
    return np.ones(values.shape[:-1]) if j < 0 else values[..., j]


def _step_integral(knots, values, tau):
    """Exact integral over [0, tau] of each row of values read as the
    right-continuous step curve that equals 1 before the first knot and
    values[..., j] on [knots[j], knots[j+1])."""
    m = int(np.searchsorted(knots, tau, side="left"))
    pts = np.concatenate([[0.0], knots[:m], [tau]])
    vals = np.concatenate([np.ones(values.shape[:-1] + (1,)), values[..., :m]], axis=-1)
    # One BLAS dot per row, as for a single curve, so that a row's integral
    # does not depend on the rows evaluated with it.
    return (vals[..., None, :] @ np.diff(pts)[:, None])[..., 0, 0]
