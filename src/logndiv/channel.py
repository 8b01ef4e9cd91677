"""Equally correlated lognormal channel model.

Each of the L branch amplitudes is c_l = exp(G_l) where the exponents G_l are
jointly Gaussian with common mean mu_G, common variance sigma_G^2, and common
pairwise correlation rho. The correlation is realized by mixing L iid latent
Gaussians X_k: G_l = a*X_l + sum_{k != l} X_k, which forces

    mu_X = mu_G / (a + L - 1)        sigma_X^2 = sigma_G^2 / (a^2 + L - 1)
    rho  = (2a + L - 2) / (a^2 + L - 1)

The average received electrical power is Er = E[exp(2 G_l)]
= exp(2 mu_G + 2 sigma_G^2), which is the quantity swept on figure x-axes
(in dB: 10*log10(Er/1 W)).

rho = 0 has no finite mixing weight and is stored as a = None. The closed
forms read it as the point w = 1/a = 0 of the same formulas; the sampler
draws the exponents directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError

_U64 = 0xFFFFFFFFFFFFFFFF


def rho_from_a(a: float, L: int) -> float:
    """Pairwise exponent correlation induced by mixing weight a >= 1.

    Equal to 1 at a = 1 (identical branches) and decays to 0 as a grows.
    """
    _check_branches(L, minimum=2)
    if not (math.isfinite(a) and a >= 1.0):
        raise DomainError(f"mixing weight must be finite and >= 1, got {a!r}")
    return (2.0 * a + L - 2.0) / (a * a + L - 1.0)


def a_from_rho(rho: float, L: int) -> float:
    """Mixing weight realizing correlation rho in (0, 1): the larger root of
    the correlation equation, so round-tripping through rho_from_a is exact
    to ~1e-15."""
    _check_branches(L, minimum=2)
    if not (math.isfinite(rho) and 0.0 < rho < 1.0):
        raise DomainError(f"correlation must lie in (0, 1) for a finite mixing weight, got {rho!r}")
    return (1.0 + math.sqrt(1.0 - rho * (rho * (L - 1) - L + 2.0))) / rho


def log_det_mixing(a: float, L: int) -> float:
    """ln det of the L x L mixing matrix (a on the diagonal, 1 elsewhere):
    det = (a-1)^(L-1) * (a+L-1). Requires a > 1."""
    if not a > 1.0:
        raise DomainError(f"mixing-matrix determinant is degenerate for a <= 1, got a={a!r}")
    return (L - 1) * math.log(a - 1.0) + math.log(a + L - 1.0)


def _check_branches(L: int, minimum: int = 1) -> None:
    if not (isinstance(L, (int, np.integer)) and L >= minimum):
        raise DomainError(f"branch count must be an integer >= {minimum}, got {L!r}")


@dataclass(frozen=True)
class ChannelSpec:
    """User-facing channel description.

    Exactly one power anchor must be given: the exponent mean mu_G (nats) or
    the average received electrical power Er (watts).
    """

    L: int
    rho: float
    sigma_G: float
    mu_G: Optional[float] = None
    Er: Optional[float] = None

    def __post_init__(self):
        _check_branches(self.L)
        if not (math.isfinite(self.rho) and 0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must lie in [0, 1), got {self.rho!r}")
        if not (math.isfinite(self.sigma_G) and self.sigma_G > 0.0):
            raise DomainError(f"sigma_G must be finite and > 0, got {self.sigma_G!r}")
        if (self.mu_G is None) == (self.Er is None):
            raise DomainError("exactly one power anchor (mu_G or Er) must be set")
        if self.Er is not None and not (math.isfinite(self.Er) and self.Er > 0.0):
            raise DomainError(f"Er must be finite and > 0 watts, got {self.Er!r}")
        if self.mu_G is not None and not math.isfinite(self.mu_G):
            raise DomainError(f"mu_G must be finite, got {self.mu_G!r}")

    @property
    def mu_g_value(self) -> float:
        """Exponent mean in nats, resolving the Er anchor if that was given."""
        if self.mu_G is not None:
            return self.mu_G
        return 0.5 * math.log(self.Er) - self.sigma_G ** 2

    @property
    def er_watts(self) -> float:
        """Average received electrical power exp(2 mu_G + 2 sigma_G^2)."""
        if self.Er is not None:
            return self.Er
        return math.exp(2.0 * self.mu_G + 2.0 * self.sigma_G ** 2)

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelSpec":
        """Build from config keys: L, rho, sigma_G, and one of
        mu_G | Er_watts | Er_dB (Er_dB = 10*log10(Er_watts))."""
        known = {"L", "rho", "sigma_G", "mu_G", "Er_watts", "Er_dB"}
        unknown = set(d) - known
        if unknown:
            raise DomainError(f"unknown channel config keys: {sorted(unknown)}")
        for key in ("L", "rho", "sigma_G"):
            if key not in d:
                raise DomainError(f"channel config missing required key {key!r}")
        anchors = [k for k in ("mu_G", "Er_watts", "Er_dB") if k in d]
        if len(anchors) != 1:
            raise DomainError(
                f"channel config needs exactly one of mu_G/Er_watts/Er_dB, got {anchors}")
        try:
            L = int(d["L"])
            rho = float(d["rho"])
            sigma_G = float(d["sigma_G"])
            anchor = float(d[anchors[0]])
            if anchors[0] == "Er_dB":
                anchor = 10.0 ** (anchor / 10.0)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"channel config field not numeric: {exc}") from exc
        except OverflowError as exc:
            raise DomainError(f"channel config field out of range: {exc}") from exc
        if anchors[0] == "mu_G":
            return cls(L=L, rho=rho, sigma_G=sigma_G, mu_G=anchor)
        return cls(L=L, rho=rho, sigma_G=sigma_G, Er=anchor)

    @classmethod
    def from_json(cls, text: str) -> "ChannelSpec":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"channel config is not valid JSON: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
        if not isinstance(d, dict):
            raise DomainError("channel config must be a JSON object")
        return cls.from_dict(d)


@dataclass(frozen=True)
class DerivedParams:
    """Internal equicorrelation parameters.

    a is None in the independent mode (rho = 0, or L = 1 where correlation is
    vacuous); in that mode mu_X/sigma_X hold the exponent's own mean/std and
    detA is None.
    """

    L: int
    rho: float
    sigma_G: float
    mu_G: float
    a: Optional[float]
    mu_X: float
    sigma_X: float
    detA: Optional[float]

    @property
    def independent(self) -> bool:
        return self.a is None

    @property
    def er_watts(self) -> float:
        return math.exp(2.0 * self.mu_G + 2.0 * self.sigma_G ** 2)

    def with_mu_g(self, mu_G: float) -> "DerivedParams":
        """Same correlation structure, different power anchor."""
        if self.independent:
            return replace(self, mu_G=mu_G, mu_X=mu_G)
        return replace(self, mu_G=mu_G, mu_X=mu_G / (self.a + self.L - 1.0))

    def with_er(self, er_watts: float) -> "DerivedParams":
        if not (math.isfinite(er_watts) and er_watts > 0.0):
            raise DomainError(f"Er must be finite and > 0 watts, got {er_watts!r}")
        return self.with_mu_g(0.5 * math.log(er_watts) - self.sigma_G ** 2)

    @classmethod
    def from_a(cls, a: float, L: int, sigma_G: float, mu_G: float) -> "DerivedParams":
        """Construct directly from a mixing weight a >= 1 (used for
        independent-limit checks at large a; a = 1 means identical branches
        and is valid for sampling only)."""
        _check_branches(L)
        if not (math.isfinite(a) and a >= 1.0):
            raise DomainError(f"mixing weight must be finite and >= 1, got {a!r}")
        rho = rho_from_a(a, L) if L >= 2 else 0.0
        return cls(
            L=L, rho=rho, sigma_G=sigma_G, mu_G=mu_G, a=a,
            mu_X=mu_G / (a + L - 1.0),
            sigma_X=sigma_G / math.sqrt(a * a + L - 1.0),
            detA=(a - 1.0) ** (L - 1) * (a + L - 1.0),
        )


def derive_params(spec: ChannelSpec) -> DerivedParams:
    """Resolve a ChannelSpec into sampling/asymptotics parameters.

    rho = 0 (or L = 1) selects the independent mode; otherwise the mixing
    weight is the larger root of the correlation equation.
    """
    mu_G = spec.mu_g_value
    if spec.L == 1 or spec.rho == 0.0:
        return DerivedParams(
            L=spec.L, rho=0.0, sigma_G=spec.sigma_G, mu_G=mu_G,
            a=None, mu_X=mu_G, sigma_X=spec.sigma_G, detA=None,
        )
    return DerivedParams.from_a(a_from_rho(spec.rho, spec.L), spec.L, spec.sigma_G, mu_G)


@dataclass(frozen=True)
class GainSample:
    """A batch of channel draws: row i holds the L branch amplitudes
    exp(G_l) in `gains` and the exponents G_l in `latent`."""

    gains: np.ndarray
    latent: np.ndarray


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Substream for one batch: PCG64 seeded by SeedSequence(seed & 2^64-1,
    spawn_key=(batch_index,)). This derivation rule is the reproducibility
    contract; merging batch counts is order-independent."""
    ss = np.random.SeedSequence(entropy=int(seed) & _U64, spawn_key=(int(batch_index),))
    return np.random.Generator(np.random.PCG64(ss))


def iter_latent_batches(params: DerivedParams, n: int, seed: int,
                        batch_size: int = 1_000_000) -> Iterator[np.ndarray]:
    """Yield (batch, L) arrays of exponents G_l, deterministically for fixed
    (seed, n, batch_size) regardless of how the consumer schedules work."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sample count must be an integer >= 1, got {n!r}")
    if not (isinstance(batch_size, (int, np.integer)) and batch_size >= 1):
        raise DomainError(f"batch size must be an integer >= 1, got {batch_size!r}")
    emitted = 0
    batch_index = 0
    while emitted < n:
        nb = min(batch_size, n - emitted)
        rng = batch_rng(seed, batch_index)
        if params.independent:
            g = rng.normal(params.mu_G, params.sigma_G, size=(nb, params.L))
        else:
            x = rng.normal(params.mu_X, params.sigma_X, size=(nb, params.L))
            g = (params.a - 1.0) * x + x.sum(axis=1, keepdims=True)
        yield g
        emitted += nb
        batch_index += 1


def sample_gains(params: DerivedParams, n: int, seed: int,
                 batch_size: int = 1_000_000) -> GainSample:
    """Draw n correlated gain vectors as a (n, L) GainSample."""
    latent = np.concatenate(list(iter_latent_batches(params, n, seed, batch_size)), axis=0)
    return GainSample(gains=np.exp(latent), latent=latent)
