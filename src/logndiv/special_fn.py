"""Scalar special functions used by every closed-form expression in this
package: Gaussian tail Q, regularized incomplete gamma, and the generalized
Marcum-Q function evaluated through the noncentral chi-squared series.

All functions are pure, deterministic, and safe to call concurrently. They
return plain floats. Each probability has one evaluator, in log space. Its
linear value is the exp (for Marcum-Q, -expm1) of that log clamped at 0, so
every linear value lies in [0, 1]. The clamp binds only where the series for
ln P(s, x) rounds a few ulps above 0, once s is below about 1e-14.

The noncentral chi-squared log-CDF is one bounded forward pass over the dual
series of Ding (1992, Appl. Statist. 41, AS 275), whose summand is unimodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SeriesCapError

_SQRT2 = math.sqrt(2.0)

# Incomplete-gamma iteration controls.
_EPS = 1e-16
_FPMIN = 1e-300
_ITMAX = 10 ** 6
# Longest noncentral chi-squared series summed; a longer one is a domain error.
_NCX2_MAX_TERMS = 10 ** 7


def gaussian_q(x: float) -> float:
    """Standard normal tail probability Pr{N(0,1) > x}.

    Computed via the complementary error function; accurate to full double
    precision for moderate x and keeps the correct exponential decay deep
    into the tail (x up to ~38, where the result goes subnormal).
    """
    if not math.isfinite(x):
        raise DomainError(f"gaussian_q requires finite x, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def gaussian_q_asym(x: float) -> float:
    """Leading-order tail approximation exp(-x^2/2) / (sqrt(2*pi) * x).

    Only meaningful for x > 0; the ratio to gaussian_q(x) tends to 1 as
    x grows.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"gaussian_q_asym requires x > 0, got {x!r}")
    return math.exp(-0.5 * x * x) / (math.sqrt(2.0 * math.pi) * x)


def _check_gamma_args(s: float, x: float) -> None:
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"gamma shape must be finite and > 0, got {s!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"gamma argument must be finite and >= 0, got {x!r}")


def _gser_sum(s: float, x: float) -> float:
    # Series part of P(s,x): sum_{n>=0} x^n / (s(s+1)...(s+n)) * s, i.e.
    # P = sum * x^s e^-x / Gamma(s) with sum = 1/s * (1 + ...).
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise SeriesCapError(f"incomplete gamma series did not converge (s={s}, x={x})")


def _gcf_factor(s: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for Q(s,x);
    # Q = x^s e^-x / Gamma(s) * factor. Valid for x >= s + 1.
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise SeriesCapError(f"incomplete gamma continued fraction did not converge (s={s}, x={x})")


def reg_gamma_upper_log(s: float, x: float) -> float:
    """ln Q(s, x), stable far into the right tail where Q underflows."""
    _check_gamma_args(s, x)
    if x == 0.0:
        return 0.0
    ln_f = math.log(s) + _log_poisson(s, x)   # ln(e^-x x^s / Gamma(s)), accurate at large s
    if x < s + 1.0:
        p = _gser_sum(s, x) * math.exp(ln_f)
        # P rounds to >= 1 only for tiny s, where Q is below P's rounding.
        return math.log1p(-p) if p < 1.0 else -math.inf
    return ln_f + math.log(_gcf_factor(s, x))


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x), as exp(ln Q)."""
    return math.exp(min(reg_gamma_upper_log(s, x), 0.0))


def reg_gamma_lower_log(s: float, x: float) -> float:
    """ln P(s, x), stable far into the left tail where P underflows."""
    _check_gamma_args(s, x)
    if x == 0.0:
        return -math.inf
    ln_f = math.log(s) + _log_poisson(s, x)   # ln(e^-x x^s / Gamma(s)), accurate at large s
    if x < s + 1.0:
        return math.log(_gser_sum(s, x)) + ln_f
    q = _gcf_factor(s, x) * math.exp(ln_f)
    return math.log1p(-q) if q < 0.5 else math.log(1.0 - q)


def reg_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = exp(ln P), nondecreasing in x."""
    return math.exp(min(reg_gamma_lower_log(s, x), 0.0))


def _log_poisson(n: float, mean: float) -> float:
    """ln(e^-mean mean^n / Gamma(n + 1)) for real n >= 0 and mean > 0. Above
    n = 15 in Loader's saddle-point form -stirlerr - bd0 - ln(2 pi n)/2, whose
    rounding error is near eps*|n - mean|, not the eps*n*ln(n) of lgamma."""
    if n <= 15.0:
        return n * math.log(mean) - mean - math.lgamma(n + 1.0)
    d = n - mean
    bd0 = n * (math.log1p(d / mean) if abs(d) < mean else math.log(n) - math.log(mean)) - d
    # ln Gamma(n + 1) - (n + 1/2) ln n + n - ln(2 pi)/2, Stirling's series.
    nn = 1.0 / (n * n)
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n
    return -stirlerr - bd0 - 0.5 * math.log(2.0 * math.pi * n)


def noncentral_chi2_cdf_log(k: float, lam: float, x: float) -> float:
    """ln Pr{X <= x} for X noncentral chi-squared with k dof and
    noncentrality lam. This is the one evaluator of that law: the linear
    CDF and the Marcum-Q function are views of it, and it stays finite
    where the linear CDF underflows.

    With s = k/2, y = x/2 and h = lam/2, P = sum_m d_m C_m: d_m is the
    gamma density e^-y y^(s+m) / Gamma(s+m+1) and C_m the Poisson(h) CDF at m.
    Both are log-concave in m, so the summand is unimodal. One pass log-adds
    C_m, sums the terms against the running peak and stops 46 nats below it.
    The summand rises until about m = max(y, sqrt(y h)) - s or later; a series
    that would rise for more than _NCX2_MAX_TERMS terms is refused at once.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"degrees of freedom must be > 0, got {k!r}")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"noncentrality must be >= 0, got {lam!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"evaluation point must be >= 0, got {x!r}")
    s, y, h = 0.5 * k, 0.5 * x, 0.5 * lam
    # Halving the smallest subnormal gives 0, so test the halves.
    if y == 0.0:
        return -math.inf
    if h == 0.0:
        return reg_gamma_lower_log(s, y)
    rise = max(y, math.sqrt(y * h)) - s
    if rise > _NCX2_MAX_TERMS:
        raise SeriesCapError(f"noncentral chi-squared series rises for {rise:.3g} terms, "
                             f"more than {_NCX2_MAX_TERMS} (k={k}, lam={lam}, x={x})")

    ln_c = peak = -math.inf
    total = 0.0  # sum of exp(term - peak)
    for m in range(_NCX2_MAX_TERMS):
        ln_p = _log_poisson(m, h)
        ln_c = max(ln_c, ln_p) + math.log1p(math.exp(-abs(ln_c - ln_p)))
        t = _log_poisson(s + m, y) + ln_c
        if t > peak:
            total = total * math.exp(peak - t) + 1.0
            peak = t
        elif t < peak - 46.0:
            return min(peak + math.log(total), 0.0)
        else:
            total += math.exp(t - peak)
    raise SeriesCapError(f"noncentral chi-squared series still within 46 nats of its peak "
                         f"after {_NCX2_MAX_TERMS} terms (k={k}, lam={lam}, x={x})")


def noncentral_chi2_cdf(k: float, lam: float, x: float) -> float:
    """CDF of the noncentral chi-squared law with k dof and noncentrality
    lam, as exp(noncentral_chi2_cdf_log)."""
    return math.exp(min(noncentral_chi2_cdf_log(k, lam, x), 0.0))


@dataclass(frozen=True)
class MarcumArgs:
    """Arguments of the generalized Marcum-Q function Q_order(a, b).

    The order may be any positive real (half-integers arise from odd branch
    counts); a is the noncentrality arm, b the threshold arm.
    """

    order: float
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.order) and self.order > 0.0):
            raise DomainError(f"Marcum order must be finite and > 0, got {self.order!r}")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise DomainError(f"Marcum a must be finite and >= 0, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise DomainError(f"Marcum b must be finite and >= 0, got {self.b!r}")


def marcum_q(args: MarcumArgs) -> float:
    """Generalized Marcum-Q: the survival function of a noncentral
    chi-squared law with 2*order dof and noncentrality a^2, evaluated
    at b^2. Nonincreasing in b, nondecreasing in a."""
    if args.a == 0.0:
        # Central case on the upper-tail branch, which keeps small tails exact.
        return reg_gamma_upper(args.order, 0.5 * args.b * args.b)
    return -math.expm1(min(marcum_q_complement_log(args.order, args.a, args.b), 0.0))


def marcum_q_complement_log(order: float, a: float, b: float) -> float:
    """ln(1 - Q_order(a, b)): the log lower tail of the associated
    noncentral chi-squared law. Stable when the complement underflows,
    which is the regime of high-SNR combining curves."""
    MarcumArgs(order, a, b)  # validates the arguments
    return noncentral_chi2_cdf_log(2.0 * order, a * a, b * b)
