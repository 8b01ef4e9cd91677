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
alike; its errors are therefore correlated along the curve. A point's
estimate is its count, (samples, hits); its rate, standard error and
interval are read from that count, and `presets` turns counts into curves.
"""

from __future__ import annotations

import math
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
    """Binomial outage count: hits of n draws fell below the threshold.
    Every other value is derived from the count when it is read. A count
    needs integers with n >= 1 and 0 <= hits <= n; any other pair is a
    DomainError when it is built.

    stderr is the normal-approximation binomial standard error. With fewer
    than 30 hits ci95 is the Clopper-Pearson 95% interval (Clopper & Pearson
    1934, Biometrika 26), whose ends are the p at which the exact binomial
    CDF meets 0.975 and 0.025, solved on each read; with 30 or more it is
    None. With zero hits the estimate is resolution_exhausted, and
    p_upper_95 is the rule-of-three bound 3/n.
    """

    n: int
    hits: int

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (self.n, self.hits)):
            raise DomainError(f"a count needs integer n and hits, got ({self.n!r}, {self.hits!r})")
        if not 0 <= self.hits <= self.n or self.n < 1:
            raise DomainError(f"a count needs n >= 1 and 0 <= hits <= n, "
                              f"got ({self.n!r}, {self.hits!r})")

    @property
    def p_hat(self) -> float:
        return self.hits / self.n

    @property
    def stderr(self) -> float:
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.n)

    @property
    def resolution_exhausted(self) -> bool:
        return self.hits == 0

    @property
    def p_upper_95(self) -> Optional[float]:
        return 3.0 / self.n if self.hits == 0 else None

    @property
    def ci95(self) -> Optional[tuple[float, float]]:
        k, n = self.hits, self.n
        if k >= 30:
            return None
        return (_binomial_cdf_root(n, k - 1, 0.975) if k else 0.0,
                _binomial_cdf_root(n, k, 0.025) if k < n else 1.0)


def _binomial_cdf_root(n: int, k: int, alpha: float) -> float:
    """The p at which F(p) = Pr{Bin(n, p) <= k} = alpha, for 0 <= k < n, by
    bisection until the bracket's ends are adjacent floats.

    With s = p/(1 - p), ln F = n ln(1 - p) + ln sum_{j<=k} C(n, j) s^j, a sum
    of k + 1 terms that falls with p. Where that sum overflows, F lies far
    below alpha, so p is above the root."""
    ratios = [(n - j) / (j + 1) for j in range(k)]   # C(n, j+1)/C(n, j)
    ln_alpha = math.log(alpha)
    lo, hi = 0.0, 1.0
    while True:
        p = 0.5 * (lo + hi)
        if not lo < p < hi:
            return p
        s = p / (1.0 - p)
        term = total = 1.0
        for r in ratios:
            term *= r * s
            total += term
        if total < math.inf and n * math.log1p(-p) + math.log(total) > ln_alpha:
            lo = p
        else:
            hi = p


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
    return {s: [SimEstimate(cfg.samples, k) for k in h] for s, h in hits.items()}


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
