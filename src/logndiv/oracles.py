"""Independent ground-truth computations used for testing and the `verify`
command: exact closed forms, a log-space quadrature, constrained nearest-point
searches (exact for SC, one Newton solve from the mean for EGC and MRC), and
numeric checks of the geometric facts behind the high-SNR approximations
(tail-ratio decay, KKT minimizers, region inclusion, implicit derivatives).

Nothing here shares formula code with the asymptotics module beyond the
scalar special-function kernel and the exact one-branch lognormal CDF
(asymptotics.single_branch_outage_exact, from which the exact independent SC
outage is built), so agreement with the approximations is evidence, not
tautology.

The two-branch quadrature runs on the standard library alone; numpy is
imported inside the functions that build arrays, on their first call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .asymptotics import single_branch_outage_exact
from .channel import _U64, ChannelSpec, _check_branches
from .errors import DomainError, IntegrationFailureError, SearchFailureError
from .schemes import SchemeKind
from .special_fn import (_LN_SQRT_2PI, _LOG_NDTR_SERIES_BELOW, _ndtr_tail_series, log_ndtr,
                         reg_gamma_upper_log)

if TYPE_CHECKING:   # imported where arrays are built, so that the quadrature does not pay for it
    import numpy as np

_LN_2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
_EPS = sys.float_info.epsilon
# ln 2^-1075, half the least subnormal: a probability below it rounds to 0.
_LN_HALF_TINY = -1075.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# Exact closed forms
# ---------------------------------------------------------------------------

def sc_outage_exact_indep(L: int, mu_G: float, sigma_G: float, gamma_th: float) -> float:
    """Exact SC outage over independent branches: the one-branch lognormal
    CDF raised to the L-th power."""
    _check_branches(L)
    return single_branch_outage_exact(mu_G, sigma_G, gamma_th) ** L


# ---------------------------------------------------------------------------
# Two-branch sum CDF in log space
# ---------------------------------------------------------------------------

def _sum2_log_integrand(g1: float, mu: float, sigma: float, rho: float, y: float) -> float:
    rem = y - math.exp(g1)
    if rem <= 0.0:
        return -math.inf
    sig_c = sigma * math.sqrt(1.0 - rho * rho)
    mu_c = mu + rho * (g1 - mu)
    lpdf = -0.5 * ((g1 - mu) / sigma) ** 2 - math.log(sigma) - 0.5 * _LN_2PI
    return lpdf + log_ndtr((math.log(rem) - mu_c) / sig_c)


def _sum2_cdf_log(mu_G: float, sigma_G: float, rho: float, y: float) -> tuple[float, float]:
    """(ln P, how far the rounding of c = ln(y/2) - mu_G can raise it) for
    P = Pr{exp(G1) + exp(G2) <= y}, y > 0. Write the sum as 2 e^S cosh D with
    S = (G1 + G2)/2 ~ N(mu_G, s_s^2) and D = (G1 - G2)/2 ~ N(0, s_d^2)
    independent: P = 2 int_0^inf phi(t) Phi(a) dt with a = (c - ln cosh(s_d t))/s_s,
    whose log-concave integrand peaks at t = 0. The trapezoid rule on [0, b],
    past where it has fallen 60 nats, halves its step from 8 steps until two
    steps agree to the rounding of ln P, at most 4096 steps. Node k of the
    m-step rule is k (b/m). Each halving evaluates only its new midpoints,
    one scalar ln Phi each, and adds their fsum to a running total. ln P is
    concave in c; its slope, the integrand's mean inverse Mills ratio
    phi(a)/Phi(a) over s_s, bounds the move."""
    s_s = sigma_G * math.sqrt(0.5 * (1.0 + rho))
    s_d = sigma_G * math.sqrt(0.5 * (1.0 - rho))
    # 0.5 * y is exact above 1; below it ln y and -ln 2 share a sign.
    ln_half_y = math.log(0.5 * y) if y > 1.0 else math.log(y) - _LN_2
    c = ln_half_y - mu_G
    dc = 2.0 * _EPS * (abs(ln_half_y) + abs(c))   # two ulps per operation

    peak = log_ndtr(c / s_s)   # ln f(0)
    if peak == -math.inf:
        return -math.inf, 0.0

    def a_at(t):
        # ln cosh x = 0.5 ln(1 + sinh^2 x) keeps its x^2/2; past 350 it grows as x.
        st = s_d * t
        x = st if st < 350.0 else 350.0
        sh = math.sinh(x)
        return (c - 0.5 * math.log1p(sh * sh) - (st - x)) / s_s

    def ratios(ts):
        """f(t)/f(0) and f(t) phi(a)/Phi(a) / f(0) at each t, for f(t) = e^(-t^2/2) Phi(a)."""
        e, w = [], []
        for t in ts:
            a = a_at(t)
            e.append(math.exp(log_ndtr(a) - 0.5 * t * t - peak))
            # Below -37 phi(a)/Phi(a) is |a|/s for the series s, as a^2/2 would cancel ln f(0).
            w.append(e[-1] * -a / _ndtr_tail_series(a) if a < _LOG_NDTR_SERIES_BELOW
                     else math.exp(-0.5 * (a * a + t * t) - _LN_SQRT_2PI - peak))
        return e, w

    b = 11.0   # phi alone has fallen 60.5 nats here
    while peak - (log_ndtr(a_at(0.5 * b)) - 0.125 * b * b) >= 60.0:
        b *= 0.5
    m, ln_prev = 8, math.nan
    e, w = ratios([k * (b / m) for k in range(m + 1)])
    for v in (e, w):   # the trapezoid rule halves its end nodes
        v[0] *= 0.5
        v[-1] *= 0.5
    sum_e, sum_w = math.fsum(e), math.fsum(w)
    while True:
        ln_p = peak + math.log(sum_e * 2.0 * b / m) - 0.5 * _LN_2PI
        tol = 32.0 * _EPS * (1.0 + abs(ln_p))
        if abs(ln_p - ln_prev) <= tol:
            break
        if m == 4096:
            raise IntegrationFailureError(f"sum2 CDF trapezoid rule did not settle at y={y}",
                                          math.exp(min(ln_p, 0.0)), math.inf)
        m, ln_prev = 2 * m, ln_p
        e, w = ratios([k * (b / m) for k in range(1, m, 2)])
        sum_e, sum_w = sum_e + math.fsum(e), sum_w + math.fsum(w)
    # Within the rule's rounding of 1 the value is 1; the node sum can land an ulp below.
    return (0.0 if ln_p > -tol else ln_p), dc * (sum_w / sum_e) / s_s


def sum2_cdf_quadrature(mu_G: float, sigma_G: float, rho: float, y: float) -> float:
    """Pr{exp(G1) + exp(G2) <= y} for bivariate Gaussian exponents with common
    mean/variance and correlation rho: exp of the log-space rule above. The
    rounding of ln(y/2) - mu_G, which a narrow channel magnifies, limits it:
    where the largest value it allows underflows the result is 0, and where
    it moves the value by more than 1e-10 relative IntegrationFailureError
    is raised with the estimate. The channel is checked as a ChannelSpec,
    whose floor on sigma_G keeps that bound finite."""
    ChannelSpec(L=2, rho=rho, sigma_G=sigma_G, mu_G=mu_G)
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    if y <= 0.0:
        return 0.0
    ln_p, move = _sum2_cdf_log(mu_G, sigma_G, rho, y)
    if ln_p + move < _LN_HALF_TINY:
        return 0.0
    p = math.exp(ln_p)
    if move > 1e-10:
        raise IntegrationFailureError(
            f"sum2 CDF at y={y} moves by up to {move:.3e} (relative) with the rounding of "
            f"ln(y/2) - mu_G: the channel is too narrow", p, p * move)
    return p


def sum2_cdf_tensor_gl(mu_G: float, sigma_G: float, y: float) -> float:
    """Independent-exponent cross-check of sum2_cdf_quadrature (rho = 0 only):
    12 panels of 160-point Gauss-Legendre over the first exponent with the
    second dimension closed by the Gaussian CDF. A different variable and
    engine on a fixed grid, for self-consistency tests."""
    import numpy as np

    top = math.log(y)
    lo = min(mu_G - 40.0 * sigma_G, top - 40.0 * sigma_G)
    nodes, weights = np.polynomial.legendre.leggauss(160)
    edges = np.linspace(lo, top, 13)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g = mid + half * nodes
        vals = np.array([math.exp(_sum2_log_integrand(float(t), mu_G, sigma_G, 0.0, y))
                         for t in g])
        total += half * float(np.dot(weights, vals))
    return total


# ---------------------------------------------------------------------------
# Outage-region geometry
# ---------------------------------------------------------------------------

def _linear_forms(x: np.ndarray, a: float) -> np.ndarray:
    # g_l = a x_l + sum_{k != l} x_k = (a - 1) x_l + sum(x).
    return (a - 1.0) * x + x.sum()


def region_indicator(scheme: SchemeKind, x: Sequence[float], a: float,
                     gamma_th: float) -> float:
    """Constraint functional of the outage region (<= 0 means inside):

        SC:  max_l exp(g_l) - sqrt(gamma_th)
        EGC: sum_l exp(g_l) - sqrt(L * gamma_th)
        MRC: sum_l exp(2 g_l) - gamma_th

    with g_l = a x_l + sum_{k != l} x_k. Symmetric under permutations of x.
    """
    import numpy as np

    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1 or xv.size < 1:
        raise DomainError("x must be a 1-D point")
    if not np.all(np.isfinite(xv)):
        raise DomainError("x must be finite")
    g = _linear_forms(xv, a)
    if scheme is SchemeKind.SC:
        return float(np.exp(g).max() - math.sqrt(gamma_th))
    if scheme is SchemeKind.EGC:
        return float(np.exp(g).sum() - math.sqrt(xv.size * gamma_th))
    if scheme is SchemeKind.MRC:
        return float(np.exp(2.0 * g).sum() - gamma_th)
    raise DomainError(f"unknown scheme {scheme!r}")


def nearest_point_closed(scheme: SchemeKind, a: float, L: int, gamma_th: float) -> np.ndarray:
    """Closed-form nearest point (to any mean on the diagonal, far out) of
    the outage region: all coordinates equal; EGC and MRC share theirs,
    shifted from SC's by -ln(sqrt(L))/(a+L-1)."""
    import numpy as np

    if not a > 1.0:
        raise DomainError(f"nearest-point geometry requires a > 1, got {a!r}")
    c = 0.5 * math.log(gamma_th)
    if scheme is SchemeKind.SC:
        v = c / (a + L - 1.0)
    elif scheme in (SchemeKind.EGC, SchemeKind.MRC):
        v = (c - 0.5 * math.log(L)) / (a + L - 1.0)
    else:
        raise DomainError(f"unknown scheme {scheme!r}")
    return np.full(L, v)


@dataclass(frozen=True)
class NearestPointReport:
    closed_form: np.ndarray
    numeric: np.ndarray
    distance_gap: float
    active_constraints: tuple[int, ...]
    feasibility: float      # region_indicator at the numeric point
    objective: float        # squared distance to the mean at the numeric point


def _sc_nearest(a: float, c: float, mu: np.ndarray) -> Optional[np.ndarray]:
    """Exact minimizer of |x - mu|^2 subject to g_l(x) <= c for every l, by
    trying every active set S: its KKT point x = mu - A_S^T lam solves
    A_S x = c, where the rows of A_S are the gradients of the g_l in S. The
    nearest point that is feasible with lam >= 0 wins; None if none is."""
    import numpy as np

    L = mu.size
    grads = (a - 1.0) * np.eye(L) + 1.0
    best = None
    for mask in range(1 << L):
        A = grads[[l for l in range(L) if mask >> l & 1]]
        lam = np.linalg.solve(A @ A.T, A @ mu - c) if A.size else np.zeros(0)
        x = mu - A.T @ lam
        if lam.min(initial=0.0) < -1e-9 or _linear_forms(x, a).max() > c + 1e-9:
            continue
        if best is None or (x - mu) @ (x - mu) < (best - mu) @ (best - mu):
            best = x
    return best


def _kkt_newton(x0: np.ndarray, mu: np.ndarray, a: float, scale: float,
                bound: float) -> Optional[tuple[np.ndarray, float]]:
    """Newton from x0 on the KKT system of min |x - mu|^2 / 2 subject to
    sum_l exp(scale * g_l(x)) = bound, with the constraint taken in its log
    form h(x) = logsumexp(scale * g(x)) - ln(bound):

        x - mu + lam * grad h(x) = 0,   h(x) = 0.

    h is convex like the sum, but its gradient neither vanishes deep inside
    the region nor blows up outside it. A step is halved until it lowers the
    residual norm. Returns (x, lam) once a full step falls below 1e-14
    relative; None if the system turns singular, no step lowers the
    residual, or 100 steps do not settle."""
    import numpy as np

    L = x0.size
    A = (a - 1.0) * np.eye(L) + 1.0     # symmetric: g = A x
    ln_bound = math.log(bound)

    def residual(z):
        sg = scale * _linear_forms(z[:L], a)
        top = sg.max()
        p = np.exp(sg - top)
        q = p / p.sum()
        grad = scale * (A @ q)
        return np.append(z[:L] - mu + z[L] * grad, top + math.log(p.sum()) - ln_bound), q, grad

    grad = residual(np.append(x0, 0.0))[2]
    z = np.append(x0, (mu - x0) @ grad / (grad @ grad))     # least-squares multiplier
    F, q, grad = residual(z)
    for _ in range(100):
        J = np.zeros((L + 1, L + 1))
        J[:L, :L] = np.eye(L) + z[L] * scale * scale * (A * q - np.outer(A @ q, q)) @ A
        J[:L, L] = J[L, :L] = grad
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        if np.linalg.norm(dz) <= 1e-14 * (1.0 + np.linalg.norm(z)):
            z = z + dz
            return z[:L], float(z[L])
        norm, t = np.linalg.norm(F), 1.0
        while True:
            F_t, q_t, grad_t = residual(z + t * dz)
            if np.linalg.norm(F_t) < norm:
                break
            t *= 0.5
            if t < 1e-10:
                return None
        z, F, q, grad = z + t * dz, F_t, q_t, grad_t
    return None


def nearest_point_numeric(scheme: SchemeKind, a: float, L: int, gamma_th: float,
                          mu_X: float) -> NearestPointReport:
    """Minimize |x - mu_X*1|^2 subject to the outage-region constraint, then
    compare against the closed form.

    SC: the region is its L linear constraints g_l(x) <= ln sqrt(gamma_th)
    (the max in the indicator is not smooth), solved exactly by trying all
    2^L active sets. EGC/MRC: one Newton solve of the KKT system of the one
    smooth constraint from the mean; the constraint is convex, so a solve
    that converges with a multiplier >= 0 finds the one minimizer. Its
    feasibility is still checked through region_indicator itself, to 1e-9.
    """
    import numpy as np

    if L > 4:
        raise DomainError("constrained searches are desk-scale: L <= 4")
    if not a > 1.0:
        raise DomainError(f"nearest-point search requires a > 1, got {a!r}")
    closed = nearest_point_closed(scheme, a, L, gamma_th)
    mu = np.full(L, float(mu_X))
    c = 0.5 * math.log(gamma_th)

    if scheme is SchemeKind.SC:
        best = _sc_nearest(a, c, mu)
    elif region_indicator(scheme, mu, a, gamma_th) <= 0.0:
        best = mu     # the mean lies in the region
    else:
        bound = math.sqrt(L * gamma_th) if scheme is SchemeKind.EGC else gamma_th
        scale = 1.0 if scheme is SchemeKind.EGC else 2.0
        found = _kkt_newton(mu, mu, a, scale, bound)
        best = found[0] if found is not None and found[1] >= 0.0 else None
    if best is None or region_indicator(scheme, best, a, gamma_th) > 1e-9:
        raise SearchFailureError(
            f"no feasible minimizer found for {scheme.value} (a={a}, L={L}, gamma_th={gamma_th})")

    if scheme is SchemeKind.SC:
        g = _linear_forms(best, a)
        active = tuple(int(l) for l in range(L) if abs(c - g[l]) < 1e-6)
    else:
        active = (0,) if abs(region_indicator(scheme, best, a, gamma_th)) < 1e-6 * gamma_th else ()

    return NearestPointReport(
        closed_form=closed, numeric=best,
        distance_gap=float(np.linalg.norm(best - closed)),
        active_constraints=active,
        feasibility=region_indicator(scheme, best, a, gamma_th),
        objective=float((best - mu) @ (best - mu)))


# ---------------------------------------------------------------------------
# Tail-integral ratio decay (the limit behind the region-swap argument)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaProbe:
    """Probe for the Gaussian tail-ratio decay check.

    For mean vectors mu = t*1 along the increasing grid of scales t, compare
    the Gaussian mass outside the sphere of radius |x0 - mu| + (sqrt(L)+1)*eps
    (chi-distribution closed form) against the mass inside the hypercube of
    half-width eps at x0. The ratio must decay as t grows.
    """

    L: int
    sigma: float
    x0: tuple[float, ...]
    eps: float
    mu_scales: tuple[float, ...]

    def __post_init__(self):
        if self.L not in (2, 3):
            raise DomainError("probe dimension is desk-scale: L in {2, 3}")
        if len(self.x0) != self.L:
            raise DomainError("x0 must have L coordinates")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise DomainError(f"eps must be > 0, got {self.eps!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"sigma must be > 0, got {self.sigma!r}")
        if any(b <= a for a, b in zip(self.mu_scales, self.mu_scales[1:])):
            raise DomainError("mu_scales must be strictly increasing")


@dataclass(frozen=True)
class LemmaRatioPoint:
    mu_scale: float
    log10_ratio: float
    ratio: float                 # exp of the above; 0.0 if it underflows
    linear_underflow: bool       # numerator or denominator below e^-700


def lemma_ratio(probe: LemmaProbe) -> list[LemmaRatioPoint]:
    """Ratio of the outside-sphere Gaussian mass to the hypercube mass along
    the mean-scale grid; everything is carried in log space because both
    masses underflow long before the ratio does."""
    out = []
    for t in probe.mu_scales:
        d = math.sqrt(sum((x - t) ** 2 for x in probe.x0))
        r = d + (math.sqrt(probe.L) + 1.0) * probe.eps
        log_num = reg_gamma_upper_log(0.5 * probe.L, r * r / (2.0 * probe.sigma ** 2))

        log_den = 0.0
        for x in probe.x0:
            hi = log_ndtr((x + probe.eps - t) / probe.sigma)
            lo = log_ndtr((x - probe.eps - t) / probe.sigma)
            log_den += hi + math.log1p(-math.exp(min(lo - hi, -1e-17)))

        log_ratio = log_num - log_den
        out.append(LemmaRatioPoint(
            mu_scale=t,
            log10_ratio=log_ratio / math.log(10.0),
            ratio=math.exp(log_ratio) if log_ratio > -700.0 else 0.0,
            linear_underflow=min(log_num, log_den) < -700.0))
    return out


# ---------------------------------------------------------------------------
# Region-inclusion sampling check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetCheckReport:
    accepted: int
    violations: int
    inconclusive: bool    # fewer than 100 accepted samples
    in_regime: bool       # mean large enough for the inclusion to be expected
    delta: float          # slab thickness L*(a+L-1)*eps


def subset_inclusion_check(a: float, L: int, gamma_th: float, eps: float,
                           mu_X: float, n_samples: int, seed: int,
                           permutation: Optional[Sequence[int]] = None) -> SubsetCheckReport:
    """Sample the region {all g_l < ln sqrt(gamma_th)} intersected with the
    ball |x - mu_X*1| < |x0 - mu_X*1| (x0 = nearest point shifted out by
    eps) and count points falling outside the slab
    ln sqrt(gamma_th) - L*(a+L-1)*eps < g_l. The inclusion is asymptotic in
    mu_X: in regime the expected count is zero; out of regime violations are
    reported, not an error.

    Sampling runs in the linear-form coordinates s_l = ln sqrt(gamma_th) -
    g_l >= 0, where the region is exactly the positive cone cut by the ball;
    a box [0, 1.5*delta]^L covers the cut for any in-regime mean (checked).
    """
    import numpy as np

    if not a > 1.0:
        raise DomainError(f"subset check requires a > 1, got {a!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be > 0, got {eps!r}")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    c = 0.5 * math.log(gamma_th)
    x_nst = c / (a + L - 1.0)
    if mu_X <= x_nst:
        raise DomainError("mean must sit outside the outage region (mu_X > nearest point)")
    delta = L * (a + L - 1.0) * eps
    radius = math.sqrt(L) * (mu_X - x_nst + eps)

    width = 1.5 * delta
    # Ball cut allows sum(s) up to delta + (a+L-1)*L*eps^2/(2*(mu_X - x_nst));
    # make sure the box covers it.
    overshoot = delta + (a + L - 1.0) * L * eps * eps / (2.0 * (mu_X - x_nst))
    if overshoot > width:
        width = 1.2 * overshoot

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed) & _U64)))
    s = rng.uniform(0.0, width, size=(int(n_samples), L))
    if permutation is not None:
        s = s[:, list(permutation)]

    g = c - s
    # x = A^{-1} g for the equicorrelation mixing matrix.
    x = (g - g.sum(axis=1, keepdims=True) / (a + L - 1.0)) / (a - 1.0)
    dist2 = ((x - mu_X) ** 2).sum(axis=1)
    accept = dist2 < radius * radius
    violations = int(np.count_nonzero(accept & (s >= delta).any(axis=1)))
    accepted = int(np.count_nonzero(accept))
    return SubsetCheckReport(
        accepted=accepted, violations=violations,
        inconclusive=accepted < 100,
        in_regime=mu_X > 10.0 * (abs(c) + 1.0),
        delta=delta)


# ---------------------------------------------------------------------------
# Implicit-derivative matching of the EGC boundary and its osculating sphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceDerivatives:
    first: float
    second_diag: float
    second_offdiag: Optional[float]   # None for L = 2


@dataclass(frozen=True)
class DerivativeCheckReport:
    exact: SurfaceDerivatives
    sphere: SurfaceDerivatives
    expected_first: float
    expected_second_diag: float
    expected_second_offdiag: float
    max_abs_error: float


def _bracketed_root(f, lo: float, hi: float) -> float:
    """Root of an increasing f with f(lo) < 0 < f(hi), in plain floats: Newton
    steps from the midpoint, each point narrowing the bracket, and a
    bisection wherever a step would leave it. It stops where a step no longer
    moves the point or the bracket holds no float between its ends. f
    returns its value and slope."""
    x = 0.5 * (lo + hi)
    while True:
        v, slope = f(x)
        if v < 0.0:
            lo = x
        elif v > 0.0:
            hi = x
        else:
            return x
        nxt = x - v / slope
        if nxt == x:
            return x
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return x
        x = nxt


def _richardson(f) -> float:
    return (4.0 * f(0.5e-4) - f(1e-4)) / 3.0


def implicit_derivative_check(a: float, L: int, gamma_th: float) -> DerivativeCheckReport:
    """Differentiate x1 as an implicit function of the other coordinates on
    two surfaces through the shared EGC/MRC nearest point: the true EGC
    boundary, whose x1 is the root of sum_l exp(g_l) = sqrt(L*gamma_th) found
    by _bracketed_root to the rounding of that sum, and the osculating
    hypersphere (explicit branch). Central differences with one Richardson step at step
    1e-4.

    Expected values: first derivative -1; second derivatives
    -(1-a)^2 * (1 + [m = n]) / (L - 1 + a).
    """
    import numpy as np

    if not a > 1.0:
        raise DomainError(f"derivative check requires a > 1, got {a!r}")
    if L < 2:
        raise DomainError("derivative check needs L >= 2")
    x_nst = (0.5 * math.log(gamma_th) - 0.5 * math.log(L)) / (a + L - 1.0)
    target = math.sqrt(L * gamma_th)
    shift = (L - 1.0 + a) / (1.0 - a) ** 2
    center = x_nst - shift
    radius = shift * math.sqrt(L)

    def x1_exact(rest: np.ndarray) -> float:
        r = rest.tolist()
        s = math.fsum(r)

        def phi(x1: float) -> tuple[float, float]:
            # sum_l exp(g_l) - target and its slope in x1, with g_l = (a-1) x_l + sum(x).
            e = [math.exp((a - 1.0) * v + (x1 + s)) for v in [x1] + r]
            total = math.fsum(e)
            return total - target, total + (a - 1.0) * e[0]

        lo, hi = x_nst - 1.0, x_nst + 1.0
        for _ in range(60):
            if phi(lo)[0] < 0.0 < phi(hi)[0]:
                break
            lo, hi = lo - 1.0, hi + 1.0
        else:
            raise SearchFailureError("could not bracket the EGC boundary root")
        return _bracketed_root(phi, lo, hi)

    def x1_sphere(rest: np.ndarray) -> float:
        rad2 = radius * radius - float(((rest - center) ** 2).sum())
        if rad2 <= 0.0:
            raise SearchFailureError("point left the osculating sphere")
        return center + math.sqrt(rad2)

    base = np.full(L - 1, x_nst)

    def derivs(x1_of) -> SurfaceDerivatives:
        def bumped(deltas: dict[int, float]) -> float:
            rest = base.copy()
            for idx, dv in deltas.items():
                rest[idx] += dv
            return x1_of(rest)

        def d1(step: float) -> float:
            return (bumped({0: step}) - bumped({0: -step})) / (2.0 * step)

        def d2_diag(step: float) -> float:
            return (bumped({0: step}) - 2.0 * bumped({}) + bumped({0: -step})) / step ** 2

        first = _richardson(d1)
        diag = _richardson(d2_diag)
        off = None
        if L >= 3:
            def d2_off(step: float) -> float:
                return (bumped({0: step, 1: step}) - bumped({0: step, 1: -step})
                        - bumped({0: -step, 1: step}) + bumped({0: -step, 1: -step})) / (4.0 * step ** 2)

            off = _richardson(d2_off)
        return SurfaceDerivatives(first=first, second_diag=diag, second_offdiag=off)

    exact = derivs(x1_exact)
    sphere = derivs(x1_sphere)
    exp_first = -1.0
    exp_diag = -2.0 * (a - 1.0) ** 2 / (L - 1.0 + a)
    exp_off = -((1.0 - a) ** 2) / (L - 1.0 + a)
    errs = [abs(exact.first - exp_first), abs(sphere.first - exp_first),
            abs(exact.second_diag - exp_diag), abs(sphere.second_diag - exp_diag)]
    if L >= 3:
        errs += [abs(exact.second_offdiag - exp_off), abs(sphere.second_offdiag - exp_off)]
    return DerivativeCheckReport(
        exact=exact, sphere=sphere,
        expected_first=exp_first,
        expected_second_diag=exp_diag,
        expected_second_offdiag=exp_off,
        max_abs_error=max(errs))
