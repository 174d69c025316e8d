"""Jackknife-free pseudo-observations for survival targets.

Computes per-subject pseudo-observations for survival probabilities and
restricted mean survival time, under right-censoring (via the product-limit
estimator) and mixed interval-censoring (via a piecewise-constant-hazard
maximum-likelihood fit), without the n leave-one-out refits of the
jackknife. An exact jackknife oracle, a pseudo-regression solver with
sandwich variance, and a simulation and benchmark harness are included.
"""

from .data import (
    EXACT,
    LEFT_CENSORED,
    RIGHT_CENSORED,
    STRICT_INTERVAL,
    Dataset,
    censoring_summary,
    interval_dataset,
    interval_width_summary,
    load_interval_dataset,
    load_right_censored_dataset,
    recode_right_censored_as_interval,
    right_censored_dataset,
    save_dataset,
)
from .errors import (
    DegenerateInterval,
    DidNotConverge,
    EmptyInput,
    InvalidTau,
    InvalidTime,
    MalformedInterval,
    NoEvents,
    NonIdentifiable,
    ParseError,
    PseudosurvError,
    SingularDesign,
    SingularInformation,
)
from .fitting import PchFit, fit_pch, observed_information
from .gee import CLOGLOG, IDENTITY, GeeFit, LinkSpec, fit_gee, sandwich_variance, wald_table
from .jackknife import jackknife_km, jackknife_pch
from .km import (
    FAST,
    JACKKNIFE,
    RMST,
    SURVIVAL,
    KmFit,
    PseudoVector,
    km_fit,
    km_pseudo_rmst,
    km_pseudo_survival,
)
from .parametric import pseudo_alpha, pseudo_rmst, pseudo_survival
from .pch import (
    ConditionReport,
    CutGrid,
    Evaluation,
    PchModel,
    check_conditions,
    evaluate,
    grad_cum_hazard,
    rmst_closed_form,
    rmst_gradient,
)
from .simulate import (
    BenchmarkReport,
    MonteCarloReport,
    ScenarioConfig,
    benchmark,
    generate,
    monte_carlo,
    true_rmst_beta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
