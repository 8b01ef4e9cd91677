"""Scalar special functions used by every closed-form expression in this
package: Gaussian tail Q and log-CDF, regularized incomplete gamma, and the
generalized Marcum-Q function evaluated through the noncentral chi-squared
series.

All functions are pure, deterministic, and safe to call concurrently, and
return plain floats. Each probability has one evaluator, in log space. Its
linear value is the exp (for Marcum-Q, -expm1) of that log clamped at 0, so
every linear value lies in [0, 1]. The clamp binds only where the series
for ln P(s, x) rounds a few ulps above 0, once s is below about 1e-14.

The noncentral chi-squared log-CDF has two routes, and
noncentral_chi2_cdf_log picks one per point. Below the noncentrality it is
Nuttall's series of Bessel functions, summed by one scalar loop of the
ratios I_(nu+1)/I_nu with no numpy call (_ncx2_bessel_log). Elsewhere it
sums the dual series of Ding (1992, Appl. Statist. 41, AS 275) over a numpy
window around the peak of its unimodal summand (_ncx2_window_log), whose
terms one function evaluates (_ncx2_block_terms).

The incomplete-gamma series is refused before its first term where a lower
bound on the terms it needs exceeds its iteration cap, and so is the
continued fraction, where an estimate of the terms it needs does. Below
shape 1/2 the series branch of ln Q sums two parts of order s, not
1 - P, so it keeps its relative accuracy at any small shape.

The Gaussian log-CDF ln Phi has one evaluator, log_ndtr, on a float:
math.erfc above -37 and the asymptotic series below it.

numpy is imported only inside the Ding window and its term step, on their
first call. The Gaussian tails, the Bessel series, the incomplete gamma at
every shape and log_ndtr run on the standard library alone, and so does
every noncentral chi-squared point that takes the Bessel series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, SeriesCapError

if TYPE_CHECKING:   # imported where arrays are built, so that scalar calls do not pay for it
    import numpy as np

_SQRT2 = math.sqrt(2.0)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Below this a float's ln Phi comes from the asymptotic series, not math.erfc.
_LOG_NDTR_SERIES_BELOW = -37.0
# Incomplete-gamma iteration controls.
_EPS = 1e-16
_EULER_GAMMA = 0.5772156649015329
# (-1)^k (zeta(k) - 1)/k for k = 2..27, the power series of ln Gamma(1 + s)
# + ln(1 + s) - (1 - Euler's gamma) s (Abramowitz & Stegun 6.1.41 with
# zeta(k) - 1 for zeta(k)). Below s = 1/2 the first term left out, near
# (s/2)^28/28, is under 1e-17 of ln Gamma(1 + s).
_LGAMMA1P_ZETA = (
    0.3224670334241132, -0.0673523010531981, 0.020580808427784546, -0.007385551028673986,
    0.0028905103307415234, -0.001192753911703261, 0.0005096695247430425,
    -0.00022315475845357939, 9.945751278180853e-05, -4.492623673813314e-05,
    2.050721277567069e-05, -9.439488275268397e-06, 4.374866789907488e-06,
    -2.039215753801366e-06, 9.55141213040742e-07, -4.492469198764566e-07,
    2.1207184805554665e-07, -1.0043224823968099e-07, 4.7698101693639804e-08,
    -2.2711094608943164e-08, 1.0838659214896955e-08, -5.183475041970047e-09,
    2.4836745438024785e-09, -1.1921401405860912e-09, 5.731367241678862e-10,
    -2.7595228851242334e-10)
_FPMIN = 1e-300
_ITMAX = 10 ** 6
# Longest noncentral chi-squared series summed; a longer one is a domain error.
_NCX2_MAX_TERMS = 10 ** 7
# Terms evaluated per numpy pass of that series.
_NCX2_CHUNK = 2 ** 16
# Largest s = k/2 that the lower-tail Bessel series takes. With the cap
# above, its loop runs at most s + sqrt(80 xi) + 10 < 2^16 steps.
_NCX2_BESSEL_MAX_ORDER = 2.0 ** 14
# From here on e^-xi I_nu(xi) comes from Hankel's expansion.
_HANKEL_FROM = 25.0
_LN2 = math.log(2.0)
# Veltkamp's splitter 2^27 + 1, which halves a float's 53 bits for Dekker's product.
_SPLIT = 134217729.0


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


def _ndtr_tail_series(a: float) -> float:
    """s in Phi(a) = phi(a) s/|a|, s = 1 - 1/a^2 + 3/a^4 - ..., summed by Horner's
    rule through 15!!/a^16: at |a| >= 37 the first term left out is below 3e-21."""
    x = 1.0 / (a * a)
    s = 1.0
    for j in range(15, 0, -2):
        s = 1.0 - j * x * s
    return s


def log_ndtr(a: float) -> float:
    """ln Phi(a), the standard normal log-CDF, for a float. It keeps full
    relative accuracy where Phi underflows (a below about -38) and where
    ln Phi rounds toward 0 (a above about 8)."""
    if a >= _LOG_NDTR_SERIES_BELOW:
        return (math.log(0.5 * math.erfc(-a / _SQRT2)) if a < 0.0
                else math.log1p(-0.5 * math.erfc(a / _SQRT2)))
    return -0.5 * a * a - math.log(-a) - _LN_SQRT_2PI + math.log(_ndtr_tail_series(a))


def _check_gamma_args(s: float, x: float) -> None:
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"gamma shape must be finite and > 0, got {s!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"gamma argument must be finite and >= 0, got {x!r}")


def _gser_sum(s: float, x: float) -> float:
    # Series part of P(s,x): sum_{n>=0} x^n / (s(s+1)...(s+n)) * s, i.e.
    # P = sum * x^s e^-x / Gamma(s) with sum = 1/s * (1 + ...).
    # Here x < s + 1, so no term exceeds the first, 1/s, and term n is at
    # least exp(-n (s + n - x) / x) / s. The loop cannot stop at term n while
    # that is above _EPS (n + 1) / s; if it still is at n = _ITMAX, the loop
    # would run out, so the call is refused before it starts.
    if _ITMAX * (s + _ITMAX - x) / x + math.log(_ITMAX + 1.0) <= -math.log(_EPS):
        raise SeriesCapError(f"incomplete gamma series needs more than {_ITMAX} terms "
                             f"(s={s}, x={x})")
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


def _gser_upper_small_shape_log(s: float, x: float) -> float:
    # ln Q(s,x) for s < 1/2 and x < s + 1, without forming 1 - P, whose
    # rounding swamps Q (about s E1(x)) once s is below about 1e-14. With
    # f = x^s / Gamma(1+s) = e^(s c), P = f (1 + s sum_{n>=1} (-x)^n /
    # (n! (s+n))), so Q = u + v with u = 1 - f = -expm1(s c) and
    # v = -f s sum_{n>=1} ...; both are of order s. math.lgamma(1 + s) is
    # accurate only in absolute terms, so c = ln x - ln Gamma(1+s)/s comes
    # from the zeta series. The terms x^n / n! fall from n = 2 on.
    z = 0.0
    for coef in reversed(_LGAMMA1P_ZETA):
        z = coef + s * z
    c = math.log(x) - (s * z - math.log1p(s) / s + 1.0 - _EULER_GAMMA)
    term, total, n = 1.0, 0.0, 0
    while True:
        n += 1
        term *= -x / n
        total += term / (s + n)
        if abs(term) <= abs(total) * _EPS * (s + n):   # <=: term may underflow to 0
            break
    if s > _FPMIN:
        t = s * c
        return math.log(-math.expm1(t) - math.exp(t) * s * total)
    # Here e^(s c) rounds to 1, so Q = s (-c - total), whose product would lose
    # digits below the normal range, or round to 0.
    return math.log(s) + math.log(-c - total)


def _gcf_factor(s: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for Q(s,x);
    # Q = x^s e^-x / Gamma(s) * factor. Valid for x >= s + 1.
    # With b = x + 1 - s, step i has a_i = i (s - i) and b_i = b + 2i, and
    # while i << s it shrinks the error by about exp(-(b + 2i)/sqrt(i s)),
    # so n steps gain at most about (2b + 4n/3) sqrt(n/s) nats. Set equal to
    # the -ln _EPS that the stop needs, that gives n within 0.96-1.13 of the
    # steps taken from s = 1e2 to 1e12, for x - s up to sqrt(s). If _ITMAX
    # steps would gain less than half of it, the loop would run out, so the
    # call is refused before it starts.
    b = x + 1.0 - s
    if (2.0 * b + (4.0 / 3.0) * _ITMAX) * math.sqrt(_ITMAX / s) < -0.5 * math.log(_EPS):
        raise SeriesCapError(f"incomplete gamma continued fraction needs more than {_ITMAX} "
                             f"terms (s={s}, x={x})")
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
    if x - s < 1.0 and s < 0.5:
        return _gser_upper_small_shape_log(s, x)
    ln_f = math.log(s) + _log_poisson(s, x)   # ln(e^-x x^s / Gamma(s)), accurate at large s
    if x - s < 1.0:   # not x < s + 1, which fails once s + 1 rounds to s
        return math.log1p(-_gser_sum(s, x) * math.exp(ln_f))   # P < P(1/2, 3/2) = 0.917
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
    if x - s < 1.0:
        return math.log(_gser_sum(s, x)) + ln_f
    q = _gcf_factor(s, x) * math.exp(ln_f)
    return math.log1p(-q) if q < 0.5 else math.log(1.0 - q)


def reg_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = exp(ln P), nondecreasing in x."""
    return math.exp(min(reg_gamma_lower_log(s, x), 0.0))


def _log_poisson(n: float, mean: float) -> float:
    """ln(e^-mean mean^n / Gamma(n + 1)) for floats n >= 0 and mean > 0.
    Above n = 15 in Loader's saddle-point form -stirlerr - bd0 - ln(2 pi n)/2,
    whose rounding error is near eps*|n - mean|, not the eps*n*ln(n) of
    lgamma; _ncx2_block_terms computes the same form on arrays."""
    if n <= 15.0:
        return n * math.log(mean) - mean - math.lgamma(n + 1.0)
    d = n - mean
    # ln(n / mean), by log1p only near the mean, where the quotient lies in (-1, 1).
    ratio = math.log1p(d / mean) if abs(d) < mean else math.log(n) - math.log(mean)
    # ln Gamma(n + 1) - (n + 1/2) ln n + n - ln(2 pi)/2, Stirling's series.
    nn = 1.0 / n / n   # not 1 / (n n), which overflows for n above 1e154
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n
    return -stirlerr - (n * ratio - d) - 0.5 * math.log(2.0 * math.pi * n)


def _ncx2_block_terms(s: float, y: float, h: float, m0: int, m1: int) -> np.ndarray:
    """ln(d_m C_m) for m0 <= m < m1, the terms of the Ding window, in one
    numpy pass: Loader's form of _log_poisson on arrays, with the entries at
    or below 15 from the scalar. C at m0 is one incomplete gamma, ln Q(m0 +
    1, h), or the first Poisson term e^-h at m0 = 0, and numpy log-adds the
    Poisson terms past it. The caller keeps a pass within _NCX2_CHUNK terms."""
    import numpy as np

    # Row 0: the Poisson(h) terms at m; row 1: the gamma density at s + m.
    n = np.empty((2, m1 - m0))
    n[0] = np.arange(m0, m1, dtype=float)
    np.add(n[0], s, out=n[1])
    mean = np.array((h, y))[:, None]
    big = np.where(n <= 15.0, 16.0, n)   # entries at or below 15 are replaced below
    d = big - mean
    ratio = np.log(big) - np.log(mean)
    np.log1p(np.minimum(d, mean) / mean, out=ratio, where=np.abs(d) < mean)
    nn = 1.0 / big / big
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / big
    terms = -stirlerr - (big * ratio - d) - 0.5 * np.log(2.0 * math.pi * big)
    for row, v in ((0, h), (1, y)):   # n rises along a row, so its entries at or below 15 lead it
        k = int(np.count_nonzero(n[row] <= 15.0))
        terms[row, :k] = [_log_poisson(u, v) for u in n[row, :k].tolist()]
    ln_p, ln_d = terms
    if m0 > 0:
        ln_p[0] = reg_gamma_upper_log(m0 + 1.0, h)
    t = np.logaddexp.accumulate(ln_p)
    t += ln_d
    return t


def _ncx2_window_log(k: float, lam: float, x: float) -> float:
    """noncentral_chi2_cdf_log by the Ding window, for checked arguments
    with x, lam > 0 whose series rises for at most _NCX2_MAX_TERMS terms.

    With s = k/2, y = x/2 and h = lam/2, P = sum_m d_m C_m: d_m is the
    gamma density e^-y y^(s+m) / Gamma(s+m+1) and C_m the Poisson(h) CDF at m.
    Both are log-concave in m, so the summand is unimodal. Its peak lies
    near c = r - s with r = max(y, sqrt(y h)), and there its log has a
    curvature of at least about 1/r, so 46 nats down lie within about
    sqrt(92 r) terms of it. The first window spans that many terms plus 50
    on each side of c, cut at m = 0. _ncx2_block_terms fills it in passes
    of at most _NCX2_CHUNK terms, each seeded with one ln Q(m0 + 1, h) at
    its left edge m0 (-h at m0 = 0). If an end of the window, other than
    m = 0, is not 46 nats below the peak, the window is centred on the peak
    found and its half-width doubled; once both are, the terms are summed
    as e^(t - peak), and ln P is clamped at 0. A window that would grow
    past _NCX2_MAX_TERMS terms is refused."""
    import numpy as np

    s, y, h = 0.5 * k, 0.5 * x, 0.5 * lam
    r = max(y, math.sqrt(y * h))
    centre, half = max(int(r - s), 0), int(math.sqrt(92.0 * r)) + 50
    while True:
        m0, m1 = max(centre - half, 0), centre + half + 1
        if m1 - m0 > _NCX2_MAX_TERMS:
            raise SeriesCapError(f"noncentral chi-squared window needs {m1 - m0} terms, "
                                 f"more than {_NCX2_MAX_TERMS} (k={k}, lam={lam}, x={x})")
        t = np.empty(m1 - m0)
        for a in range(m0, m1, _NCX2_CHUNK):
            b = min(a + _NCX2_CHUNK, m1)
            t[a - m0:b - m0] = _ncx2_block_terms(s, y, h, a, b)
        i = int(t.argmax())
        peak = float(t[i])
        if (m0 == 0 or t[0] < peak - 46.0) and t[-1] < peak - 46.0:
            t -= peak
            return min(peak + math.log(float(np.exp(t, out=t).sum())), 0.0)
        centre, half = m0 + i, 2 * half


def _bessel_i_scaled_log(nu: float, xi: float, ln_xi: float) -> float:
    """ln(e^-xi I_nu(xi)) for 0 <= nu < 1 and a normal xi > 0, given
    ln_xi = ln xi. From xi = _HANKEL_FROM on by Hankel's expansion, whose
    terms (4 nu^2 - 1)(4 nu^2 - 9)... / (k! (8 xi)^k) fall to their least,
    about e^(-2 xi), near k = 2 xi; below it by the power series, whose
    terms are all positive (Abramowitz & Stegun 9.7.1 and 9.6.10)."""
    t = total = 1.0
    j = 0
    if xi >= _HANKEL_FROM:
        mu = 4.0 * nu * nu
        while abs(t) > _EPS * total:
            j += 1
            t *= ((2 * j - 1) ** 2 - mu) / (8.0 * j * xi)
            total += t
        return math.log(total) - _LN_SQRT_2PI - 0.5 * ln_xi
    q = 0.25 * xi * xi
    while t > _EPS * total:
        j += 1
        t *= q / (j * (nu + j))
        total += t
    return nu * (ln_xi - _LN2) - math.lgamma(nu + 1.0) + math.log(total * math.exp(-xi))


def _two_prod(p: float, q: float) -> tuple[float, float]:
    """p q and its rounding error, by Dekker's product on Veltkamp's halves:
    exact while p q is below 1e300 and its error is a normal float."""
    pq = p * q
    c = _SPLIT * p
    ph = c - (c - p)
    pl = p - ph
    c = _SPLIT * q
    qh = c - (c - q)
    ql = q - qh
    return pq, ((ph * qh - pq) + ph * ql + pl * qh) + pl * ql


def _ncx2_d2(lam: float, x: float, xi: float) -> tuple[float, float]:
    """d^2 = (sqrt(lam) - sqrt(x))^2 for 0 < x < lam, as (lam - x)^2 /
    (lam + x + 2 xi) with xi = sqrt(lam x) rounded, and a second float that
    carries its rounding error. Deep in the tail -d^2/2 is nearly all of
    ln P, so its rounding, a few ulps of d^2 in one float, would be a few
    ulps of ln P; head plus tail is within about eps^2 of d^2. From lam =
    1e150 on, where the squares would overflow, the tail is 0."""
    t = lam - x
    if lam >= 1e150:
        return t * (t / (lam + x + 2.0 * xi)), 0.0
    t_lo = (lam - t) - x   # lam - x = t + t_lo exactly, as lam > x
    p, p_lo = _two_prod(lam, x)
    q, q_lo = _two_prod(xi, xi)
    xi_lo = ((p - q) - q_lo + p_lo) / (2.0 * xi)   # sqrt(lam x) = xi + xi_lo
    u = lam + x
    den = u + 2.0 * xi   # lam + x >= 2 xi, so both sums are exact in two parts
    den_lo = ((u - den) + 2.0 * xi) + ((lam - u) + x) + 2.0 * xi_lo
    num, num_lo = _two_prod(t, t)
    num_lo += 2.0 * t * t_lo
    d2 = num / den
    m, m_lo = _two_prod(d2, den)
    return d2, (((num - m) - m_lo) + num_lo - d2 * den_lo) / den


def _ncx2_bessel_log(s: float, lam: float, x: float) -> float:
    """noncentral_chi2_cdf_log(2 s, lam, x) for 0 < x < lam, with xi =
    sqrt(lam x) at least 2e-152 and s at most _NCX2_BESSEL_MAX_ORDER.

    With a = sqrt(lam) and b = sqrt(x), P = 1 - Q_s(a, b) is the positive
    series e^(-(a^2 + b^2)/2) sum_(j >= 0) rho^(s+j) I_(s+j)(xi), rho = b/a
    < 1 (Nuttall 1975, IEEE Trans. IT 21), so

        ln P = -d^2/2 + s ln rho + ln I~_nu0(xi) + sum ln r + ln H

    with d = a - b, I~_nu(xi) = e^-xi I_nu(xi) at nu0 = s - floor(s), and
    the ratios r_nu = I_(nu+1)(xi) / I_nu(xi): the sum runs over nu = nu0
    .. s - 1, and H = 1 + rho r_s (1 + rho r_(s+1) (1 + ...)). Two scalar
    loops build them, the second going on from the first, down from nu =
    s + K by r_(nu-1) = xi / (2 nu + xi r_nu): H first, then the sum. The
    recurrence damps the error
    of its start (Amos 1974, Math. Comp. 28, whose bound it starts from)
    by about r^2 a step. It carries u = 1 - r as (2 nu - xi u) / (2 nu +
    xi r), which keeps the error of r near eps where r is near 1, and
    rho r as r - delta r, delta = d/a, so that no rounded rho biases every
    term of H alike. With K = max(sqrt(40 xi), min(40/|ln rho|, sqrt(80
    xi))) + 10 the start is damped by e^-40 or more, and the first term of
    H left out is below e^-40 of the first. The loops run floor(s) + K
    steps, at most floor(s) + sqrt(80 xi) + 10. d itself is (lam - x)/(a +
    b), and d^2 a head and a tail (_ncx2_d2), added after the other terms."""
    a, b = math.sqrt(lam), math.sqrt(x)
    xi = math.sqrt(lam * x)
    ln_xi = math.log(xi)
    d = (lam - x) / (a + b)
    delta = d / a
    # ln rho by log1p where rho is near 1, where a rounded rho would lose it.
    ln_rho = math.log1p(-delta) if delta < 0.5 else 0.5 * (math.log(x) - math.log(lam))
    n = int(s)
    nu0 = s - n
    steps = int(max(math.sqrt(40.0 * xi), min(40.0 / -ln_rho, math.sqrt(80.0 * xi)))) + 10
    nu = s + steps
    u = 1.0 - xi / (nu + 0.5 + math.sqrt((nu + 1.5) ** 2 + xi * xi))
    hh = 1.0
    for j in range(steps, 0, -1):
        num = 2.0 * (s + j) - xi * u
        den = xi + num
        r = xi / den
        u = num / den
        hh = 1.0 + (r - delta * r) * hh
    ln_r = 0.0
    for j in range(n, 0, -1):
        num = 2.0 * (nu0 + j) - xi * u
        den = xi + num
        ln_r += math.log(xi / den)
        u = num / den
    d2, d2_lo = _ncx2_d2(lam, x, xi)
    rest = s * ln_rho + _bessel_i_scaled_log(nu0, xi, ln_xi) + ln_r + math.log(hh)
    return (rest - 0.5 * d2_lo) - 0.5 * d2


def noncentral_chi2_cdf_log(k: float, lam: float, x: float) -> float:
    """ln Pr{X <= x} for X noncentral chi-squared with k dof and
    noncentrality lam. This is the one evaluator of that law: the linear
    CDF and the Marcum-Q function are views of it, and it stays finite
    where the linear CDF underflows.

    With s = k/2, y = x/2 and h = lam/2, the dual series of Ding (1992)
    rises for about r - s terms, r = max(y, sqrt(y h)); a series that would
    rise for more than _NCX2_MAX_TERMS terms is refused at once, whichever
    route then takes the point. Below the noncentrality, x < lam, the point
    is a scalar Bessel series (_ncx2_bessel_log), unless s exceeds
    _NCX2_BESSEL_MAX_ORDER or sqrt(y h) is below 1e-152, where its ratios
    would lose their normal range. Every other point is the numpy Ding
    window (_ncx2_window_log). At lam = 0 the law is central, and at x = 0
    or a y that rounds to 0 the first term of the series is all of P.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"degrees of freedom must be > 0, got {k!r}")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"noncentrality must be >= 0, got {lam!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"evaluation point must be >= 0, got {x!r}")
    s, y, h = 0.5 * k, 0.5 * x, 0.5 * lam
    # Halving the smallest subnormal gives 0, so test the halves. Past x = 0
    # the first term, e^-h (x/2)^s / Gamma(s + 1), is then all of P: the
    # next is smaller by a factor x (1 + h)/(2 s + 2), below 2.3e-16/(s + 1).
    if y == 0.0:
        if x == 0.0:
            return -math.inf
        return s * (math.log(x) - math.log(2.0)) - math.lgamma(s + 1.0) - h
    if h == 0.0:
        return reg_gamma_lower_log(s, y)
    r = max(y, math.sqrt(y * h))
    if r - s > _NCX2_MAX_TERMS:
        raise SeriesCapError(f"noncentral chi-squared series rises for {r - s:.3g} terms, "
                             f"more than {_NCX2_MAX_TERMS} (k={k}, lam={lam}, x={x})")
    if x < lam and r >= 1e-152 and s <= _NCX2_BESSEL_MAX_ORDER:
        return _ncx2_bessel_log(s, lam, x)
    return _ncx2_window_log(k, lam, x)


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
    ln_p = noncentral_chi2_cdf_log(2.0 * args.order, args.a * args.a, args.b * args.b)
    return -math.expm1(min(ln_p, 0.0))
