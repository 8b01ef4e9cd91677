"""Exception hierarchy. All library errors derive from LogndivError so the
CLI can map them to stable exit codes (domain/validity -> 3)."""

import math
import sys

_LN_FLOAT_MAX = math.log(sys.float_info.max)


class LogndivError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LogndivError, ValueError):
    """Input outside the mathematical domain of an operation."""


class BelowAsymptoticRegimeError(DomainError):
    """High-SNR approximation requested below its validity region.

    Carries ln of the smallest average received power (watts) for which the
    approximation is defined (of the largest valid y for the sum-CDF tail
    form), so sweeps can annotate instead of aborting, also past the float range.
    """

    def __init__(self, message: str, ln_bound: float):
        super().__init__(message)
        self.ln_bound = ln_bound
        self.min_er_watts = math.inf if ln_bound >= _LN_FLOAT_MAX else math.exp(ln_bound)


class DegenerateGeometryError(DomainError):
    """Fully correlated channels (a = 1): the osculating hypersphere of the
    EGC/MRC outage region degenerates; treat as a single branch instead."""


class SeriesCapError(LogndivError):
    """A series evaluation hit its hard iteration cap before converging."""


class IntegrationFailureError(LogndivError):
    """Adaptive quadrature could not reach the requested tolerance.

    The best estimate and its error bound are attached for diagnostics.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SearchFailureError(LogndivError):
    """Constrained numerical search found no feasible/converged point."""
