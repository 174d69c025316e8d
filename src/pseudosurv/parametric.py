"""Fast pseudo-observations under a fitted piecewise-constant hazard.

The jackknife recomputes the maximum-likelihood estimate n times; to first
order, removing subject l shifts the estimate by the solve of the observed
information against that subject's score. Pushing the shift through the
delta method gives closed-form per-subject pseudo-observations for the
rates themselves, for survival at a time point, and for the restricted
mean, all from a single fit. The information is factorized once and the
factor reused across all n right-hand sides.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import InvalidTime
from .fitting import PchFit
from .km import FAST, RMST, SURVIVAL, PseudoVector
from .pch import (
    grad_cum_hazard,
    prepare_likelihood,
    rmst_closed_form,
    rmst_gradient,
    score_matrix,
)


def pseudo_alpha(fit: PchFit, dataset: Dataset) -> np.ndarray:
    """Per-subject pseudo-observations of the rate vector, one row each.

    Row l is the fitted rates plus the information solve of subject l's
    score. The rows average to the fitted rates up to solver tolerance,
    because the total score vanishes at the maximum.
    """
    scores = _score_rows(fit, dataset)
    return fit.model.rates + fit.solve_information(scores.T).T


def pseudo_survival(fit: PchFit, dataset: Dataset, t) -> PseudoVector:
    """Fast pseudo-observations for S(t) under the fitted model."""
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise InvalidTime(f"time must be finite and nonnegative, got {t}")
    s_t = float(fit.model.survival(t))
    direction = fit.solve_information(np.asarray(grad_cum_hazard(fit.model, t)))
    scores = _score_rows(fit, dataset)
    values = s_t * (1.0 - scores @ direction)
    return PseudoVector(values, SURVIVAL, t, FAST)


def pseudo_rmst(fit: PchFit, dataset: Dataset, tau) -> PseudoVector:
    """Fast pseudo-observations for restricted mean survival time at tau.

    tau may be +inf, giving the unrestricted mean of the fitted model. Both
    the plug-in value and its gradient in the rates come from closed forms,
    so no quadrature is involved.
    """
    total = rmst_closed_form(fit.model, tau)
    direction = fit.solve_information(rmst_gradient(fit.model, tau))
    scores = _score_rows(fit, dataset)
    values = total - scores @ direction
    return PseudoVector(values, RMST, float(tau), FAST)


def _score_rows(fit: PchFit, dataset: Dataset) -> np.ndarray:
    prep = prepare_likelihood(dataset, fit.model.grid)
    return score_matrix(fit.model.rates, prep)
