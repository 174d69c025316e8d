"""Exception hierarchy shared by every module in the package, and the two
domain checks on time arguments that raise from it."""

import numpy as np


class PseudosurvError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInterval(PseudosurvError):
    """An observation breaks the record rule of `pseudosurv.data`: its
    time or left endpoint is not finite and nonnegative, or its right
    endpoint is NaN or smaller than the left one. A bad status is a
    `ParseError`."""


class ParseError(PseudosurvError):
    """A CSV cell could not be parsed into the expected domain.

    Carries the offending row index when raised by a loader.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptyInput(PseudosurvError):
    """An operation that requires data received an empty dataset."""


class NoEvents(PseudosurvError):
    """A (sub)sample contains no events, so no survival fit exists.

    ``subject`` identifies the removed subject when the empty-event sample
    arose during a leave-one-out computation, and is None otherwise.
    """

    def __init__(self, message, subject=None):
        super().__init__(message)
        self.subject = subject


class InvalidTau(PseudosurvError):
    """The restriction time tau is outside its domain (tau > 0 required)."""


class InvalidTime(PseudosurvError):
    """A time argument is outside its domain (t >= 0 and finite required)."""


class DegenerateInterval(PseudosurvError):
    """An interval with distinct endpoints carries zero probability mass
    under the current model, to machine precision."""


class DidNotConverge(PseudosurvError):
    """An iterative solver exhausted its budget without meeting tolerance.

    Carries the last iterate and diagnostics so callers can inspect or
    restart.
    """

    def __init__(self, message, last_iterate=None, grad_norm=None,
                 iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm
        self.iterations = iterations


class NonIdentifiable(PseudosurvError):
    """A hazard rate diverged during fitting because the data cannot pin it
    down; the message names the empirically violated condition and piece."""

    def __init__(self, message, piece=None, condition=None):
        super().__init__(message)
        self.piece = piece
        self.condition = condition


class SingularInformation(PseudosurvError):
    """The observed information matrix is singular or numerically so."""


class SingularDesign(PseudosurvError):
    """The regression design matrix is rank deficient."""


def check_time(t) -> None:
    """Raise InvalidTime unless every entry of t is finite and nonnegative."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise InvalidTime(f"time must be finite and nonnegative, got {t}")


def check_tau(tau, finite: bool = False) -> None:
    """Raise InvalidTau unless every entry of tau is positive; +inf passes
    unless ``finite`` is set."""
    tau = np.asarray(tau, dtype=float)
    if not np.all((tau > 0) & ~(finite & np.isinf(tau))):
        kind = "finite and positive" if finite else "positive (inf allowed)"
        raise InvalidTau(f"tau must be {kind}, got {tau}")
