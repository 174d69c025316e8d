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
from .fitting import PchFit
from .km import FAST, RMST, SURVIVAL, PseudoVector
from .pch import (
    grad_cum_hazard,
    rmst_closed_form,
    rmst_gradient,
    score_products,
)


def pseudo_alpha(fit: PchFit, dataset: Dataset) -> np.ndarray:
    """Per-subject pseudo-observations of the rate vector, one row each.

    Row l is the fitted rates plus the information solve of subject l's
    score. The rows average to the fitted rates up to solver tolerance,
    because the total score vanishes at the maximum.
    """
    return fit.model.rates + _score_solves(fit, dataset, np.eye(fit.model.grid.K))


def pseudo_survival(fit: PchFit, dataset: Dataset, t) -> PseudoVector:
    """Fast pseudo-observations for S(t) under the fitted model."""
    grad = grad_cum_hazard(fit.model, t)  # rejects an invalid t before any work
    s_t = float(fit.model.survival(t))
    values = s_t * (1.0 - _score_solves(fit, dataset, grad))
    return PseudoVector(values, SURVIVAL, float(t), FAST)


def pseudo_rmst(fit: PchFit, dataset: Dataset, tau) -> PseudoVector:
    """Fast pseudo-observations for restricted mean survival time at tau.

    tau may be +inf, giving the unrestricted mean of the fitted model. Both
    the plug-in value and its gradient in the rates come from closed forms,
    so no quadrature is involved.
    """
    total = rmst_closed_form(fit.model, tau)
    values = total - _score_solves(fit, dataset, rmst_gradient(fit.model, tau))
    return PseudoVector(values, RMST, float(tau), FAST)


def _score_solves(fit: PchFit, dataset: Dataset, g) -> np.ndarray:
    """s_l . (info^-1 g) for every subject l, in one pass over the records.

    The information is symmetric, so this is g . (info^-1 s_l), the
    first-order jackknife correction along g; g may be a K-vector or a
    K x M matrix of stacked directions. ``dataset`` must be the fitted sample.
    """
    return score_products(fit.model.rates, fit.prepared(dataset), fit.solve_information(g))
