"""Seeded Monte Carlo estimation of exact outage probabilities.

Plain Monte Carlo only: the point of the closed forms elsewhere in this
package is that simulation stops being feasible once outage drops below
~100/samples, and these estimators document that floor rather than fight it
with variance reduction.

Determinism contract: identical (seed, samples) give identical hit counts
for a channel however batches are scheduled: batch i draws an (L, batch)
block of exponents, row l for branch l, from a substream derived only from
(seed, i), the channel module alone sizes the batches, and counts reduce by
addition. A sweep draws one stream at its first power and counts every
point and scheme from it, since a power change scales every combiner's SNR
alike; its errors are therefore correlated along the curve. `presets` turns
counts into curves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .asymptotics import OutageQuery
from .channel import _U64, DerivedParams, iter_latent_batches
from .errors import DomainError
from .schemes import SchemeKind, combiner_snr


@dataclass(frozen=True)
class SimConfig:
    """What fixes a simulated count: the sample count and the seed."""

    samples: int
    seed: int

    def __post_init__(self):
        if not (isinstance(self.samples, (int, np.integer)) and self.samples >= 1000):
            raise DomainError(f"samples must be an integer >= 1000, got {self.samples!r}")


@dataclass(frozen=True)
class SimEstimate:
    """Binomial outage estimate.

    stderr is the normal-approximation binomial standard error. With fewer
    than 30 hits the estimate additionally carries a Clopper-Pearson 95%
    interval (Clopper & Pearson 1934, Biometrika 26): each end is the p at
    which the exact binomial CDF, a sum of at most 30 terms, meets 0.975 or
    0.025, solved here to within a few ulps. With zero hits it is flagged
    resolution_exhausted and p_upper_95 holds the rule-of-three bound 3/n.
    """

    p_hat: float
    stderr: float
    n: int
    hits: int
    resolution_exhausted: bool = False
    p_upper_95: Optional[float] = None
    ci95: Optional[tuple[float, float]] = None


# The 0.975 quantile of N(0, 1).
_Z975 = 1.959963984540054


def _binomial_cdf_root(n: int, ratios: list[float], alpha: float, z: float) -> float:
    """The p at which Pr{Bin(n, p) <= k} = alpha, for k = len(ratios) < n,
    where ratios[j] = C(n, j+1)/C(n, j) and z is the N(0, 1) quantile at
    1 - alpha.

    With s = p/(1 - p), F = (1 - p)^n sum_{j<=k} C(n, j) s^j, so F costs k
    multiply-adds. F is a beta CDF in 1 - p, so ln F is concave and
    decreasing in p, and d ln F/dp = -(n - k) C(n, k) s^k / ((1 - p) sum): one
    binomial term over F. Halley's method on ln F - ln alpha starts from
    Paulson's approximation of the beta quantile and keeps to the bracket
    that the signs of its values build. A step cubes the error, so once one
    is below 1e-6 of p the next would be below an ulp. At k = 0, F = (1 - p)^n
    is solved in closed form."""
    k = len(ratios)
    if k == 0:
        return -math.expm1(math.log(alpha) / n)
    a, b, zz = k + 1.0, float(n - k), z * z
    # Paulson: F(2a, 2b) from the Wilson-Hilferty cube roots of its chi-squares.
    va, vb = 1.0 / (9.0 * a), 1.0 / (9.0 * b)
    ma, mb = 1.0 - va, 1.0 - vb
    y = ((ma * mb + math.copysign(math.sqrt(zz * (va * mb * mb + vb * ma * ma - zz * va * vb)), z))
         / (mb * mb - zz * vb))
    f = a * y ** 3
    p = f / (b + f)
    ln_alpha = math.log(alpha)
    lo, hi = 0.0, 1.0
    for _ in range(200):   # bisection alone would settle well within this
        q = 1.0 - p
        s = p / q
        term = total = 1.0
        for r in ratios:
            term *= r * s
            total += term
        if total == math.inf:   # only far above the root, where F is tiny
            hi = p
            p = 0.5 * (lo + hi)
            continue
        g = n * math.log1p(-p) + math.log(total) - ln_alpha
        if g > 0.0:
            lo = p
        elif g < 0.0:
            hi = p
        d1 = -b * term / (q * total)
        d2 = d1 * (k / p - (b - 1.0) / q - d1)
        step = g / (d1 - 0.5 * g * d2 / d1)
        if abs(step) <= 1e-6 * p:
            return p - step
        p -= step
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
    return p


def _estimate_from_hits(hits: int, n: int) -> SimEstimate:
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    if hits == 0:
        return SimEstimate(p_hat=0.0, stderr=0.0, n=n, hits=0,
                           resolution_exhausted=True, p_upper_95=3.0 / n,
                           ci95=(0.0, _binomial_cdf_root(n, [], 0.025, _Z975)))
    ci = None
    if hits < 30:
        ratios = list(map(operator.truediv, range(n, n - hits, -1), range(1, hits + 1)))
        lo = _binomial_cdf_root(n, ratios[:-1], 0.975, -_Z975)
        hi = _binomial_cdf_root(n, ratios, 0.025, _Z975) if hits < n else 1.0
        ci = (lo, hi)
    return SimEstimate(p_hat=p, stderr=se, n=n, hits=hits, ci95=ci)


def point_seed(seed: int, index: int) -> int:
    """Independent seed for point `index`, hashed from (seed, index); `sweep` shares one stream."""
    ss = np.random.SeedSequence(entropy=int(seed) & _U64, spawn_key=(0x9E37, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def sweep(params: DerivedParams, schemes: Sequence[SchemeKind], gamma_th: float,
          er_grid: Sequence[float], cfg: SimConfig) -> dict[SchemeKind, list[SimEstimate]]:
    """Each scheme's estimates along an Er grid (watts), in order, from one stream
    drawn at er_grid[0]: point er counts the draws below gamma_th * er_grid[0] / er."""
    if not er_grid:
        return {s: [] for s in schemes}
    cuts = [gamma_th * (er_grid[0] / OutageQuery(gamma_th, er).er) for er in er_grid]
    hits = {s: [0] * len(cuts) for s in schemes}   # a scheme listed twice is counted once
    draws = iter_latent_batches(params.with_er(er_grid[0]), cfg.samples, cfg.seed)
    for gains in draws:
        np.exp(gains, out=gains)   # each batch is a fresh array of exponents
        for s, h in hits.items():
            snr = combiner_snr(s, gains)
            for i, cut in enumerate(cuts):
                h[i] += int(np.count_nonzero(snr < cut))
        del gains   # so that the next batch is not drawn beside this one
    return {s: [_estimate_from_hits(n, cfg.samples) for n in h] for s, h in hits.items()}


def simulate_outage_multi(params: DerivedParams, schemes: Sequence[SchemeKind],
                          q: OutageQuery, cfg: SimConfig) -> dict[SchemeKind, SimEstimate]:
    """The one-point sweep: several schemes' outage at q.er from one common gain
    stream. Like the closed forms, it reads the power from q, not from params."""
    return {s: e[0] for s, e in sweep(params, schemes, q.gamma_th, [q.er], cfg).items()}


def simulate_outage(params: DerivedParams, scheme: SchemeKind,
                    q: OutageQuery, cfg: SimConfig) -> SimEstimate:
    """Single-scheme outage estimate; same stream as the multi-scheme form,
    so per-seed results are comparable across schemes."""
    return simulate_outage_multi(params, [scheme], q, cfg)[scheme]
