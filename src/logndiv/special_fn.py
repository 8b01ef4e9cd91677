"""Scalar special functions used by every closed-form expression in this
package: Gaussian tail Q, regularized incomplete gamma, and the generalized
Marcum-Q function evaluated through the noncentral chi-squared series.

All functions are pure, deterministic, and safe to call concurrently. They
return plain floats. Each probability has one evaluator, in log space. Its
linear value is the exp (for Marcum-Q, -expm1) of that log clamped at 0, so
every linear value lies in [0, 1]. The clamp binds only where the series for
ln P(s, x) rounds a few ulps above 0, once s is below about 1e-14.
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
    # P = sum * exp(-x + s ln x - lgamma(s)) with sum = 1/s * (1 + ...).
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
    # Q = exp(-x + s ln x - lgamma(s)) * factor. Valid for x >= s + 1.
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
    if x < s + 1.0:
        p = _gser_sum(s, x) * math.exp(-x + s * math.log(x) - math.lgamma(s))
        # P rounds to >= 1 only for tiny s, where Q is below P's rounding.
        return math.log1p(-p) if p < 1.0 else -math.inf
    return -x + s * math.log(x) - math.lgamma(s) + math.log(_gcf_factor(s, x))


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = 1 - P(s, x), as exp(ln Q)."""
    return math.exp(min(reg_gamma_upper_log(s, x), 0.0))


def reg_gamma_lower_log(s: float, x: float) -> float:
    """ln P(s, x), stable far into the left tail where P underflows."""
    _check_gamma_args(s, x)
    if x == 0.0:
        return -math.inf
    if x < s + 1.0:
        return math.log(_gser_sum(s, x)) - x + s * math.log(x) - math.lgamma(s)
    q = _gcf_factor(s, x) * math.exp(-x + s * math.log(x) - math.lgamma(s))
    return math.log1p(-q) if q < 0.5 else math.log(1.0 - q)


def reg_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = exp(ln P), nondecreasing in x."""
    return math.exp(min(reg_gamma_lower_log(s, x), 0.0))


def _check_ncx2_args(k: float, lam: float, x: float) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"degrees of freedom must be > 0, got {k!r}")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"noncentrality must be >= 0, got {lam!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"evaluation point must be >= 0, got {x!r}")


def noncentral_chi2_cdf_log(k: float, lam: float, x: float) -> float:
    """ln Pr{X <= x} for X noncentral chi-squared with k dof and
    noncentrality lam. This is the one evaluator of that law: the linear
    CDF and the Marcum-Q function are views of it, and it stays finite
    where the linear CDF underflows.

    Log-sum-exp over the Poisson-gamma series; the summand is unimodal in
    the mixture index, so the peak is located by integer ternary search and
    the sum is taken outward until terms fall 46 nats below the peak.
    """
    _check_ncx2_args(k, lam, x)
    y = 0.5 * x
    half = 0.5 * lam
    # Halving the smallest subnormal gives 0, so test the halves.
    if y == 0.0:
        return -math.inf
    if half == 0.0:
        return reg_gamma_lower_log(0.5 * k, y)

    log_half = math.log(half)

    def log_term(j: int) -> float:
        return (-half + j * log_half - math.lgamma(j + 1.0)
                + reg_gamma_lower_log(0.5 * k + j, y))

    lo, hi = 0, int(half + 10.0 * math.sqrt(half) + 60.0)
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if log_term(m1) < log_term(m2):
            lo = m1 + 1
        else:
            hi = m2
    jstar = max(range(max(lo - 2, 0), hi + 3), key=log_term)
    tstar = log_term(jstar)

    total = 1.0
    j = jstar + 1
    for _ in range(_ITMAX):
        d = log_term(j) - tstar
        if d < -46.0:
            break
        total += math.exp(d)
        j += 1
    j = jstar - 1
    while j >= 0:
        d = log_term(j) - tstar
        if d < -46.0:
            break
        total += math.exp(d)
        j -= 1

    return min(tstar + math.log(total), 0.0)


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
    if not (math.isfinite(order) and order > 0.0):
        raise DomainError(f"Marcum order must be finite and > 0, got {order!r}")
    if not (math.isfinite(a) and a >= 0.0) or not (math.isfinite(b) and b >= 0.0):
        raise DomainError("Marcum arms must be finite and >= 0")
    return noncentral_chi2_cdf_log(2.0 * order, a * a, b * b)
