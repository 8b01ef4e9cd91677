"""Moment-matched single-lognormal approximation of a sum of (equally
correlated) lognormal variables: the classic comparison baseline. It matches
the sum's first two linear-domain moments, which makes it accurate near the
mean and badly optimistic in the left tail."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import _check_branches
from .errors import DomainError
from .special_fn import gaussian_q


@dataclass(frozen=True)
class MatchedLognormal:
    """Gaussian parameters (nats) of the matched lognormal."""

    mu_m: float
    sigma_m: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_m) and self.sigma_m > 0.0):
            raise DomainError(f"matched sigma must be > 0, got {self.sigma_m!r}")


def sum_moments(L: int, rho: float, mu_G: float, sigma_G: float) -> tuple[float, float]:
    """Exact mean and variance of S = sum_l exp(G_l) with equally correlated
    N(mu_G, sigma_G^2) exponents; the cross terms use
    E[exp(G_m + G_n)] = exp(2 mu_G + sigma_G^2 (1 + rho))."""
    _check(L, rho, sigma_G)
    try:
        v = sigma_G ** 2
        mean = L * math.exp(mu_G + 0.5 * v)
        var = (L * math.exp(2.0 * mu_G + v) * (math.exp(v) - 1.0)
               + L * (L - 1) * math.exp(2.0 * mu_G + v) * (math.exp(rho * v) - 1.0))
    except OverflowError:
        raise DomainError(f"moments of the sum overflow (mu_G={mu_G!r}, sigma_G={sigma_G!r})") from None
    return mean, var


def fenton_wilkinson_match(L: int, rho: float, mu_G: float, sigma_G: float) -> MatchedLognormal:
    """Match E[S] and Var[S] to a single lognormal."""
    mean, var = sum_moments(L, rho, mu_G, sigma_G)
    if not 0.0 < mean * mean < math.inf:
        raise DomainError(f"squared mean of the sum is out of range (mu_G={mu_G!r})")
    sig2 = math.log1p(var / (mean * mean))
    return MatchedLognormal(mu_m=math.log(mean) - 0.5 * sig2, sigma_m=math.sqrt(sig2))


def fenton_wilkinson_cdf(L: int, rho: float, mu_G: float, sigma_G: float, y: float) -> float:
    """CDF of the matched lognormal at y > 0: Q((mu_m - ln y) / sigma_m)."""
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be finite and > 0, got {y!r}")
    m = fenton_wilkinson_match(L, rho, mu_G, sigma_G)
    return gaussian_q((m.mu_m - math.log(y)) / m.sigma_m)


def _check(L: int, rho: float, sigma_G: float) -> None:
    _check_branches(L)
    if not (math.isfinite(rho) and 0.0 <= rho <= 1.0):
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
    if not (math.isfinite(sigma_G) and sigma_G > 0.0):
        raise DomainError(f"sigma_G must be > 0, got {sigma_G!r}")
