"""Exact leave-one-out pseudo-observations, the slow ground truth.

For an estimate theta computed on the full sample and theta_(-l) computed
with subject l removed, the jackknife pseudo-observation is
n * theta - (n - 1) * theta_(-l). This module recomputes theta_(-l)
honestly for every subject: by rebuilding the product-limit curve for the
Kaplan-Meier targets, and for the piecewise-hazard targets by a full
(warm-started) refit of the fit's own likelihood kernel with subject l's
weight set to zero. The fast formulas elsewhere in the package
differentiate that kernel in the weight instead of refitting (the
infinitesimal jackknife); they are validated against, and benchmarked
against, these oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import DidNotConverge, NoEvents, NonIdentifiable, check_tau, check_time
from .fitting import PchFit, fit_pch, newton_prepared
from .km import (
    JACKKNIFE,
    RMST,
    SURVIVAL,
    PseudoVector,
    _event_grid,
    _step_integral,
    _step_value,
    km_fit,
)
from .pch import CutGrid, PchModel, loglik_parts, prepare_likelihood, rmst_closed_form


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
    full = km.survival_at(horizon) if target == SURVIVAL else km.rmst(horizon)

    times = km.times
    status = km.status
    n = km.n
    u, d, r = _event_grid(times, status)
    loo = np.empty(n)
    for l in range(n):
        at_risk = u <= times[l]
        r_l = r - at_risk
        if status[l] == 1:
            d_l = d.copy()
            d_l[np.searchsorted(u, times[l])] -= 1
            if d_l.sum() == 0:
                raise NoEvents(
                    f"removing subject {l} leaves a sample with no events",
                    subject=l,
                )
        else:
            d_l = d
        # Event times whose last at-risk subject was l keep a factor of 1.
        survival = np.cumprod(1.0 - d_l / np.maximum(r_l, 1))
        if target == SURVIVAL:
            loo[l] = _step_value(u, survival, horizon)
        else:
            loo[l] = _step_integral(u, survival, horizon)
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

    Runs n leave-one-out refits, each warm-started at the full-sample
    rates, which is both the fairest slow baseline and the most stable one.
    A subfit that fails to converge or loses identifiability does not abort
    the whole vector: its entry is NaN and flagged.

    Parameters
    ----------
    fit : PchFit, optional
        A converged full-sample fit to reuse; must be on ``grid`` and of
        ``dataset`` itself: its log-likelihood is evaluated again on
        ``dataset`` and must agree with ``fit.loglik`` to 1e-12 relative.
    """
    _check_target(target, horizon, finite=False)
    if fit is None:
        fit = fit_pch(dataset, grid, tol=tol, max_iter=max_iter)
    elif fit.model.grid != grid:
        raise ValueError("provided fit uses a different cut grid")
    elif fit.n != dataset.n:
        raise ValueError(f"provided fit is of {fit.n} records, the dataset has {dataset.n}")
    alpha_full = fit.model.rates
    prep = prepare_likelihood(dataset, grid)
    loglik = loglik_parts(alpha_full, prep)[0]
    if not math.isclose(loglik, fit.loglik, rel_tol=1e-12):
        raise ValueError(
            f"provided fit is not of this dataset: its log-likelihood {fit.loglik!r}"
            f" is {loglik!r} on the dataset"
        )
    full = _pch_statistic(fit.model, target, horizon)

    n = dataset.n
    loo = np.empty(n)
    flagged = np.zeros(n, dtype=bool)
    for l in range(n):
        try:
            alpha_l, *_ = newton_prepared(prep.leave_out(l), alpha_full, tol, max_iter)
            loo[l] = _pch_statistic(PchModel(grid, alpha_l), target, horizon)
        except (DidNotConverge, NonIdentifiable):
            loo[l] = np.nan
            flagged[l] = True
    values = n * full - (n - 1) * loo
    return PseudoVector(
        values, target, float(horizon), JACKKNIFE,
        flagged=flagged if flagged.any() else None,
    )


def _pch_statistic(model: PchModel, target: str, horizon: float) -> float:
    if target == SURVIVAL:
        return float(model.survival(horizon))
    return rmst_closed_form(model, horizon)


def _check_target(target, horizon, finite=True):
    if target not in (SURVIVAL, RMST):
        raise ValueError(f"unknown target {target!r}")
    if target == SURVIVAL:
        check_time(horizon)
    else:
        check_tau(horizon, finite=finite)
