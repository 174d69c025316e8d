"""Exact leave-one-out pseudo-observations, the slow ground truth.

For an estimate theta computed on the full sample and theta_(-l) computed
with subject l removed, the jackknife pseudo-observation is
n * theta - (n - 1) * theta_(-l). This module recomputes theta_(-l)
honestly for every subject: by rebuilding the product-limit curve for the
Kaplan-Meier targets, and for the piecewise-hazard targets by a full
refit of the fit's own likelihood kernel with subject l's weight set to
zero, started at the first-order estimate of its rates that the fast
formulas imply. The subjects are taken in blocks, and a block's
curves, or its refits, are computed together in numpy calls: one
cumulative product for the block's curves, one Newton loop whose rows
iterate in lockstep for its refits. Every refit still runs to its own
convergence. The fast formulas elsewhere in the package differentiate
the kernel in the weight instead of refitting (the infinitesimal
jackknife); they are validated against, and benchmarked against, these
oracles.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import NoEvents, SingularInformation, check_tau, check_time
from .fitting import PchFit, _check_solver, _out_of_bounds, fit_pch, newton_prepared
from .km import (
    JACKKNIFE,
    RMST,
    SURVIVAL,
    PseudoVector,
    _step_integral,
    _step_value,
    km_fit,
)
from .pch import CutGrid, rmst_rows, score_products, survival_rows

# A block of left-out subjects holds at most this many elements per
# block-by-column array: subjects times event times for the product-limit
# curves, subjects times bracket records for the refits.
BLOCK_ELEMENTS = 1 << 15


def jackknife_km(dataset: Dataset, target: str, horizon: float) -> PseudoVector:
    """Exact jackknife pseudo-observations for the product-limit targets.

    Parameters
    ----------
    dataset : Dataset
        Right-censored records.
    target : str
        ``"survival"`` or ``"rmst"``.
    horizon : float
        The evaluation time t or restriction time tau.

    Raises
    ------
    NoEvents
        If the full sample, or any leave-one-out sample, has no events;
        the exception carries the removed subject's index in the latter
        case.
    """
    _check_target(target, horizon)
    km = km_fit(dataset)
    full = (km._survival_at(horizon, stacklevel=3) if target == SURVIVAL
            else km._rmst(horizon, stacklevel=3))

    times, status, n, u, rank = km.times, km.status, km.n, km.event_times, km.rank
    events = np.flatnonzero(status == 1)
    if events.size == 1:
        raise NoEvents(
            f"removing subject {events[0]} leaves a sample with no events",
            subject=int(events[0]),
        )
    # A subject's own event time is the last one at or before it, of index rank - 1,
    # and it is at risk at the first rank event times; so the ranks give the counts d and r.
    where = rank - 1
    d = np.bincount(where[events], minlength=u.size)
    r = n - np.cumsum(np.bincount(rank))[:u.size]
    evaluate = _step_value if target == SURVIVAL else _step_integral
    loo = np.empty(n)
    for rows in _blocks(n, u.size):
        at_risk = r - (u <= times[rows, None])
        deaths = np.tile(d, (rows.size, 1))
        died = np.flatnonzero(status[rows] == 1)
        deaths[died, where[rows[died]]] -= 1
        # Event times whose last at-risk subject was left out keep a factor of 1.
        survival = np.cumprod(1.0 - deaths / np.maximum(at_risk, 1), axis=1)
        loo[rows] = evaluate(u, survival, horizon)
    values = n * full - (n - 1) * loo
    return PseudoVector(values, target, float(horizon), JACKKNIFE)


def jackknife_pch(
    dataset: Dataset,
    grid: CutGrid,
    target: str,
    horizon: float,
    *,
    tol: float = 1e-8,
    max_iter: int = 200,
    fit: PchFit | None = None,
) -> PseudoVector:
    """Exact jackknife pseudo-observations under the piecewise-hazard model.

    Runs n leave-one-out refits. Refit l starts at the first-order
    estimate alpha * exp(-info^-1 s_l / ((n - 1) alpha)), the fast
    pseudo-observations' shift taken in log-rates, and at the full-sample
    rates when the information is singular or that start lies outside the
    rate bounds; each still runs to its own convergence. A subfit that
    fails to converge or loses identifiability does not abort the whole
    vector: its entry is NaN and flagged.

    Parameters
    ----------
    fit : PchFit, optional
        A converged full-sample fit to reuse; must be on ``grid`` and of
        ``dataset``, in any record order (`PchFit.check_sample`).
    """
    _check_target(target, horizon, finite=False)
    _check_solver(tol, max_iter)
    if fit is None:
        fit = fit_pch(dataset, grid, tol=tol, max_iter=max_iter)
    if fit.model.grid != grid:
        raise ValueError("provided fit uses a different cut grid")
    prep = fit.prepared(dataset)
    alpha_full = fit.model.rates
    full = float(_pch_statistic(grid, alpha_full, target, horizon))

    n = dataset.n
    try:
        # alpha_(-l) = alpha - info^-1 s_l / (n - 1) + O(n^-2), stepped in log-rates
        shift = score_products(alpha_full, prep, fit.solve_information(np.eye(grid.K)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            start = alpha_full * np.exp(-shift / ((n - 1) * alpha_full))
    except SingularInformation:
        start = np.tile(alpha_full, (n, 1))
    start[_out_of_bounds(start)] = alpha_full
    rates = np.empty((n, grid.K))
    flagged = np.zeros(n, dtype=bool)
    for rows in _blocks(n, prep.interval_rows.size):
        out = newton_prepared(prep.leave_out(rows), start[rows], tol, max_iter)
        rates[rows] = out.rates
        flagged[rows] = [error is not None for error in out.errors]
    loo = _pch_statistic(grid, rates, target, horizon)
    values = n * full - (n - 1) * loo
    return PseudoVector(
        values, target, float(horizon), JACKKNIFE,
        flagged=flagged if flagged.any() else None,
    )


def _pch_statistic(grid: CutGrid, rates: np.ndarray, target: str, horizon: float):
    """The target at each row of rates; a failed refit's NaN row stays NaN."""
    if target == SURVIVAL:
        return survival_rows(grid, rates, horizon)
    return rmst_rows(grid, rates, horizon)


def _blocks(n: int, columns: int):
    """Consecutive blocks of subject indices, each holding at most
    ``BLOCK_ELEMENTS`` subject-by-column elements, at least one subject."""
    size = max(1, BLOCK_ELEMENTS // max(columns, 1))
    for start in range(0, n, size):
        yield np.arange(start, min(start + size, n))


def _check_target(target, horizon, finite=True):
    if target not in (SURVIVAL, RMST):
        raise ValueError(f"unknown target {target!r}")
    if target == SURVIVAL:
        check_time(horizon)
    else:
        check_tau(horizon, finite=finite)
