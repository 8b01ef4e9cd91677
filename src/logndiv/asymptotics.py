"""Closed-form high-SNR outage approximations for SC/EGC/MRC over equally
correlated lognormal channels, and the matching left-tail CDF of a sum of
lognormal variables.

Conventions shared by every function here:

  * q.er is the average received electrical power Er (watts) and
    q.gamma_th the outage threshold (watts).
  * The SC approximation is an elementary expression; EGC and MRC come out
    as lower tails of a noncentral chi-squared law (complement of a
    generalized Marcum-Q of order L/2).
  * The forms are written in w = 1/a in [0, 1), where the powers of a
    cancel. rho = 0 is the point w = 0 of the same expressions, not a
    separate code path: derive_params maps a ChannelSpec with rho = 0.0
    to it.
    EGC, MRC and the sum-CDF share one noncentral chi-squared arm map.
  * The per-scheme functions give the approximation at every L, L = 1
    included; outage_asym puts the exact lognormal CDF in its place there.
  * Everything is evaluated in log-space, so L = 8 with mixing weight
    a = 10^3 neither overflows nor underflows; the linear and *_log10
    variants are views of the same log value.
  * Below the validity region of an approximation a typed
    BelowAsymptoticRegimeError is raised carrying the log of the smallest
    valid Er, so grid sweeps can annotate pre-asymptotic points instead of
    dropping them, even where that Er overflows a float.
  * The private curve form of EGC and MRC (_outage_curve, which presets
    calls) takes a whole grid through the same arm map and evaluates each
    point with the same kernel call as the per-point functions, so its
    values equal theirs bit for bit. A point below the regime gets the
    curve's one BelowAsymptoticRegimeError in place of its value.
  * Fully correlated channels (a = 1) are rejected: the osculating
    geometry behind the EGC/MRC forms degenerates, and the SC coefficient
    divides by the vanishing mixing determinant. Identical branches should
    be modeled as a single branch with scaled power by the caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .channel import ChannelSpec, DerivedParams, log_det_mixing, mixing_weight, mu_g_from_er
from .errors import (_LN_FLOAT_MAX, BelowAsymptoticRegimeError, DegenerateGeometryError,
                     DomainError)
from .schemes import SchemeKind
from .special_fn import gaussian_q, noncentral_chi2_cdf_log

_LN_2PI = math.log(2.0 * math.pi)
_LG_E = math.log10(math.e)
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class OutageQuery:
    """One evaluation point: threshold gamma_th and average power er, both
    in watts."""

    gamma_th: float
    er: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma_th) and self.gamma_th > 0.0):
            raise DomainError(f"gamma_th must be finite and > 0 watts, got {self.gamma_th!r}")
        if not (math.isfinite(self.er) and self.er > 0.0):
            raise DomainError(f"er must be finite and > 0 watts, got {self.er!r}")


def _weight(params: DerivedParams) -> float:
    """w = 1/a in [0, 1): the closed forms below are written in w, so
    rho = 0 is the point w = 0 of the same formulas."""
    if params.w >= 1.0:
        raise DegenerateGeometryError(
            "the asymptotic forms are undefined for fully correlated channels (a = 1); "
            "model them as a single branch with scaled power")
    return params.w


def _below_regime(name: str, ln_min_er: float) -> BelowAsymptoticRegimeError:
    return BelowAsymptoticRegimeError(
        f"below the {name} asymptotic regime: need Er > {10.0 * ln_min_er / _LN10:.6g} dB",
        ln_min_er)


def _ln_power_ratio(L: int, er: float, gamma_th: float) -> float:
    """ln(L Er / gamma_th) for Er and gamma_th finite and > 0: the log of the
    quotient where that is a normal float, and ln L + ln Er - ln gamma_th
    where the quotient would underflow or overflow."""
    r = L * er / gamma_th
    if sys.float_info.min <= r < math.inf:
        return math.log(r)
    return math.log(L) + math.log(er) - math.log(gamma_th)


def _sc_z(q: OutageQuery, sigma_g: float) -> float:
    # Validity region of the SC form: ln sqrt(Er/gamma_th) > sigma_G^2.
    z = 0.5 * _ln_power_ratio(1, q.er, q.gamma_th) - sigma_g ** 2
    if z <= 0.0:
        raise _below_regime("SC", math.log(q.gamma_th) + 2.0 * sigma_g ** 2)
    return z


def _sc_coefficients(L: int, w: float, sigma_g: float) -> tuple[float, float]:
    """(c, Od) of ln P_SC = L ln(sigma_G/z) - (L/2) ln 2pi + c - Od z^2.
    With s = 1+(L-1)w and s2 = 1+(L-1)w^2 the powers of a cancel; at w = 0
    the correlation term c is exactly 0 and Od = L/(2 sigma_G^2), the
    L-th power of the one-branch Gaussian tail."""
    s, s2 = 1.0 + (L - 1) * w, 1.0 + (L - 1) * w * w
    c = (2 * L - 1) * math.log(s) - 0.5 * L * math.log(s2) - (L - 1) * math.log1p(-w)
    return c, L * s2 / (2.0 * sigma_g * sigma_g * s * s)


def _sc_ln(L: int, w: float, sigma_g: float, q: OutageQuery) -> float:
    z = _sc_z(q, sigma_g)
    c, od = _sc_coefficients(L, w, sigma_g)
    # Grouped as the printed rho = 0 form, so w = 0 reproduces it bit for bit.
    return L * (math.log(sigma_g) - math.log(z)) - 0.5 * L * _LN_2PI + c - od * z * z


def sc_outage_asym(params: DerivedParams, q: OutageQuery) -> float:
    """High-SNR SC outage over equally correlated branches (rho = 0
    included, as w = 0).

    The value is the approximation exactly as derived (no re-simplification
    of its higher-order terms); immediately above the validity threshold it
    can exceed 1 and is not yet a meaningful probability there.
    """
    ln = _sc_ln(params.L, _weight(params), params.sigma_G, q)
    # Just above the regime edge the raw SC value exceeds 1, at large L past the float range.
    return math.inf if ln >= _LN_FLOAT_MAX else math.exp(ln)


def sc_outage_asym_log10(params: DerivedParams, q: OutageQuery) -> float:
    return _sc_ln(params.L, _weight(params), params.sigma_G, q) / _LN10


def sc_outage_asym_latent(a: float, L: int, mu_X: float, sigma_X: float,
                          gamma_th: float) -> float:
    """The same SC approximation parameterized by the latent mean/std
    instead of (Er, sigma_G); kept as an independent evaluation path so the
    two printed forms can be checked against each other."""
    if a <= 1.0:
        raise DegenerateGeometryError("latent SC form requires a > 1")
    x_nst = 0.5 * math.log(gamma_th) / (a + L - 1.0)
    if mu_X <= x_nst:
        raise DomainError(
            f"latent SC form needs mu_X > {x_nst:.6g} (the nearest-point coordinate)")
    ln_p = (-log_det_mixing(a, L)
            - 0.5 * L * (_LN_2PI + 2.0 * math.log(sigma_X))
            + L * math.log(sigma_X * sigma_X * (a + L - 1.0) / (mu_X - x_nst))
            - (L / (2.0 * sigma_X ** 2)) * (x_nst - mu_X) ** 2)
    return math.exp(ln_p)


def _ncx2_arms(L: int, w: float, sigma_g: float, zs, c: float) -> tuple[list, float, float]:
    """Noncentral chi-squared arms k(z/s + h), one per z, and k*h, shared by
    EGC (c = 1), MRC (c = 1/2) and the sum-CDF (EGC at z = ln L + mu_G - ln y),
    with k = sqrt(L*s2)/sigma_G and h = c*s/(1-w)^2. The third value is the
    regime edge -h*s: the form is defined only for z above it."""
    s, s2 = 1.0 + (L - 1) * w, 1.0 + (L - 1) * w * w
    k = math.sqrt(L * s2) / sigma_g
    h = c * s / (1.0 - w) ** 2
    return [k * (z / s + h) for z in zs], k * h, -h * s


def _combiner_curve_ln(params: DerivedParams, gamma_th: float, ers, c: float,
                       name: str) -> list:
    """ln P of EGC (c = 1) or MRC (c = 1/2) at each Er of a curve (watts),
    or, at a point below the regime, the curve's one
    BelowAsymptoticRegimeError: the bound does not depend on Er."""
    L, sigma_g = params.L, params.sigma_G
    zs = [0.5 * _ln_power_ratio(L, er, gamma_th) - sigma_g ** 2 for er in ers]
    firsts, second, z_edge = _ncx2_arms(L, _weight(params), sigma_g, zs, c)
    below = (_below_regime(name, math.log(gamma_th / L) + 2.0 * (sigma_g ** 2 + z_edge))
             if any(a <= 0.0 for a in firsts) else None)
    x = second * second
    return [below if a <= 0.0 else noncentral_chi2_cdf_log(L, a * a, x) for a in firsts]


def _combiner_ln(params: DerivedParams, q: OutageQuery, c: float, name: str) -> float:
    L, sigma_g = params.L, params.sigma_G
    z = 0.5 * _ln_power_ratio(L, q.er, q.gamma_th) - sigma_g ** 2
    (first,), second, z_edge = _ncx2_arms(L, _weight(params), sigma_g, (z,), c)
    if first <= 0.0:
        raise _below_regime(name, math.log(q.gamma_th / L) + 2.0 * (sigma_g ** 2 + z_edge))
    return noncentral_chi2_cdf_log(L, first * first, second * second)


def egc_outage_asym(params: DerivedParams, q: OutageQuery) -> float:
    """High-SNR EGC outage: lower noncentral chi-squared tail of order L/2."""
    return math.exp(_combiner_ln(params, q, 1.0, "EGC"))


def egc_outage_asym_log10(params: DerivedParams, q: OutageQuery) -> float:
    return _combiner_ln(params, q, 1.0, "EGC") / _LN10


def mrc_outage_asym(params: DerivedParams, q: OutageQuery) -> float:
    """High-SNR MRC outage: the EGC noncentral chi-squared tail with the
    offset h halved."""
    return math.exp(_combiner_ln(params, q, 0.5, "MRC"))


def mrc_outage_asym_log10(params: DerivedParams, q: OutageQuery) -> float:
    return _combiner_ln(params, q, 0.5, "MRC") / _LN10


def _sum_cdf_ln(L: int, rho: float, mu_G: float, sigma_G: float, y: float) -> float:
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"sum-CDF argument y must be finite and > 0, got {y!r}")
    ChannelSpec(L=L, rho=rho, sigma_G=sigma_G, mu_G=mu_G)   # the channel's input checks
    w = mixing_weight(rho, L)
    (first,), second, z_edge = _ncx2_arms(L, w, sigma_G, (math.log(L) + mu_G - math.log(y),), 1.0)
    if first <= 0.0:
        ln_max_y = math.log(L) + mu_G - z_edge
        raise BelowAsymptoticRegimeError(
            f"sum-CDF tail form is only valid left of ln y = {ln_max_y:.6g}", ln_max_y)
    return noncentral_chi2_cdf_log(L, first * first, second * second)


def _sum_cdf_curve(L: int, rho: float, mu_G: float, sigma_G: float, ys) -> list:
    """sum_lognormal_cdf_asym at each y of a curve, with the
    BelowAsymptoticRegimeError of a y right of the tail region in its place.
    Each point is its own call: perfbench's traced mode times the sum-CDF
    form only through sum_lognormal_cdf_asym, and its workloads reach that
    form only through this curve."""
    return [_or_below(lambda: sum_lognormal_cdf_asym(L, rho, mu_G, sigma_G, y)) for y in ys]


def sum_lognormal_cdf_asym(L: int, rho: float, mu_G: float, sigma_G: float,
                           y: float) -> float:
    """Left-tail CDF approximation of Y = sum_l exp(G_l) for equally
    correlated exponents; algebraically the EGC outage re-anchored at
    y = sqrt(L * gamma_th)."""
    return math.exp(_sum_cdf_ln(L, rho, mu_G, sigma_G, y))


def sum_lognormal_cdf_asym_log10(L: int, rho: float, mu_G: float,
                                 sigma_G: float, y: float) -> float:
    return _sum_cdf_ln(L, rho, mu_G, sigma_G, y) / _LN10


@dataclass(frozen=True)
class AsymptoteDecomposition:
    """lg of the SC approximation split as

        lg P = lg(Oc_ln) + term2 + term3

    Oc_ln shifts the curve; Od_ln scales the quadratic drop (it carries the
    lg(e) factor, so term3 = -Od_ln * z^2 is already in decades); term2 is
    the slowly varying -L*lg(z) part, z = ln sqrt(Er/gamma_th) - sigma_G^2.
    """

    Oc_ln: float
    Od_ln: float
    term2: float
    term3: float

    @property
    def lg_outage(self) -> float:
        return math.log10(self.Oc_ln) + self.term2 + self.term3


def sc_asymptote_decomposition(params: DerivedParams, q: OutageQuery) -> AsymptoteDecomposition:
    """Shift/curvature decomposition of the SC approximation."""
    L, sg = params.L, params.sigma_G
    z = _sc_z(q, sg)
    c, od = _sc_coefficients(L, _weight(params), sg)
    od *= _LG_E
    return AsymptoteDecomposition(Oc_ln=math.exp(L * math.log(sg) - 0.5 * L * _LN_2PI + c),
                                  Od_ln=od, term2=-L * math.log10(z), term3=-od * z * z)


def single_branch_outage_exact(mu_G: float, sigma_G: float, gamma_th: float) -> float:
    """Exact outage of one lognormal branch: Pr{exp(2G) < gamma_th}."""
    if not (math.isfinite(sigma_G) and sigma_G > 0.0):
        raise DomainError(f"sigma_G must be finite and > 0, got {sigma_G!r}")
    if not (math.isfinite(gamma_th) and gamma_th > 0.0):
        raise DomainError(f"gamma_th must be finite and > 0, got {gamma_th!r}")
    return gaussian_q((mu_G - 0.5 * math.log(gamma_th)) / sigma_G)


def outage_asym(params: DerivedParams, scheme, q: OutageQuery) -> float:
    """Scheme dispatcher used by sweeps. A single branch (L = 1) short-
    circuits every scheme to the exact lognormal CDF, since all three
    combiners coincide there and the exact form is available; the
    per-scheme functions stay the approximation at L = 1."""
    if params.L == 1:
        return single_branch_outage_exact(mu_g_from_er(q.er, params.sigma_G), params.sigma_G,
                                          q.gamma_th)
    if scheme is SchemeKind.SC:
        return sc_outage_asym(params, q)
    if scheme is SchemeKind.EGC:
        return egc_outage_asym(params, q)
    if scheme is SchemeKind.MRC:
        return mrc_outage_asym(params, q)
    raise DomainError(f"unknown scheme {scheme!r}")


def _outage_curve(params: DerivedParams, scheme, gamma_th: float, ers) -> list:
    """outage_asym at each Er of a curve (watts), with the
    BelowAsymptoticRegimeError of a point below the regime in its place;
    EGC and MRC points below the regime share one."""
    qs = [OutageQuery(gamma_th, er) for er in ers]   # every point's input checks
    if params.L > 1 and scheme in (SchemeKind.EGC, SchemeKind.MRC):
        c, name = (1.0, "EGC") if scheme is SchemeKind.EGC else (0.5, "MRC")
        return [v if isinstance(v, BelowAsymptoticRegimeError) else math.exp(v)
                for v in _combiner_curve_ln(params, gamma_th, ers, c, name)]
    return [_or_below(lambda: outage_asym(params, scheme, q)) for q in qs]


def _or_below(evaluate: Callable[[], float]):
    """evaluate(), or the BelowAsymptoticRegimeError it raises."""
    try:
        return evaluate()
    except BelowAsymptoticRegimeError as exc:
        return exc
