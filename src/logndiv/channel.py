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

Everything downstream is written in w = 1/a in [0, 1]. rho = 0 has no
finite mixing weight; it is the point w = 0 of the same expressions, for
the closed forms and for the sampler alike (where the mix is the identity).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError

_U64 = 0xFFFFFFFFFFFFFFFF

# A sampling batch holds BATCH_ROWS rows of L draws, fewer where that would
# pass MAX_BATCH_VALUES float64 values: every batch is drawn whole. Such a
# block is 1 GiB. montecarlo.sweep exponentiates it in place and frees it
# before the next is drawn, and MRC squares it into a second block, so a
# stream of full batches peaks near 1.1 GiB, or 2.1 GiB with MRC.
BATCH_ROWS = 1_000_000
MAX_BATCH_VALUES = 2 ** 27


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


def mixing_weight(rho: float, L: int) -> float:
    """w = 1/a in [0, 1) realizing correlation rho over L branches. It is 0
    at rho = 0 and at L = 1, where the correlation of one branch is vacuous."""
    return 1.0 / a_from_rho(rho, L) if rho > 0.0 and L > 1 else 0.0


def mu_g_from_er(er_watts: float, sigma_G: float) -> float:
    """Exponent mean (nats) whose average power exp(2 mu_G + 2 sigma_G^2) is er_watts."""
    return 0.5 * math.log(er_watts) - sigma_G ** 2


def log_det_mixing(a: float, L: int) -> float:
    """ln det of the L x L mixing matrix (a on the diagonal, 1 elsewhere):
    det = (a-1)^(L-1) * (a+L-1). Requires a > 1."""
    if not a > 1.0:
        raise DomainError(f"mixing-matrix determinant is degenerate for a <= 1, got a={a!r}")
    return (L - 1) * math.log(a - 1.0) + math.log(a + L - 1.0)


def _check_branches(L: int, minimum: int = 1) -> None:
    # Every form computes with float(L), which is exact up to 2^53.
    if not (isinstance(L, (int, np.integer)) and minimum <= L <= 2 ** 53):
        big = isinstance(L, (int, np.integer)) and abs(L) > 2 ** 53   # shown by size, not digits
        shown = f"a {int(L).bit_length()}-bit integer" if big else repr(L)
        raise DomainError(f"branch count must be an integer in [{minimum}, 2^53], got {shown}")


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
        # sigma_G^2 enters every form, so it must neither overflow nor underflow.
        if not (self.sigma_G > 0.0 and 0.0 < self.sigma_G * self.sigma_G < math.inf):
            raise DomainError(f"sigma_G must be > 0 with a finite nonzero square, got {self.sigma_G!r}")
        if (self.mu_G is None) == (self.Er is None):
            raise DomainError("exactly one power anchor (mu_G or Er) must be set")
        if self.Er is not None and not (math.isfinite(self.Er) and self.Er > 0.0):
            raise DomainError(f"Er must be finite and > 0 watts, got {self.Er!r}")
        if self.mu_G is not None and not math.isfinite(self.mu_G):
            raise DomainError(f"mu_G must be finite, got {self.mu_G!r}")

    @property
    def mu_g_value(self) -> float:
        """Exponent mean in nats, resolving the Er anchor if that was given."""
        return self.mu_G if self.mu_G is not None else mu_g_from_er(self.Er, self.sigma_G)

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
        for key in ("L", "rho", "sigma_G", anchors[0]):
            if isinstance(d[key], bool) or not isinstance(d[key], (int, float)):
                raise DomainError(f"channel config field {key} must be a number, got {d[key]!r}")
        L = d["L"]
        if isinstance(L, float) and L.is_integer():   # 2.0 is 2; 2.7 and inf are refused below
            L = int(L)
        try:
            rho = float(d["rho"])
            sigma_G = float(d["sigma_G"])
            anchor = float(d[anchors[0]])
            if anchors[0] == "Er_dB":
                anchor = 10.0 ** (anchor / 10.0)
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
        except ValueError as exc:   # an integer literal past int's digit limit
            raise DomainError(f"channel config is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise DomainError("channel config must be a JSON object")
        return cls.from_dict(d)


@dataclass(frozen=True)
class DerivedParams:
    """Internal equicorrelation parameters in w = 1/a in [0, 1]. w = 0 is
    rho = 0 (and L = 1): no finite mixing weight realizes it, so the latent
    views a, mu_X and sigma_X raise DomainError there. w = 1 (identical
    branches) is valid for sampling only."""

    L: int
    rho: float
    sigma_G: float
    mu_G: float
    w: float

    @property
    def a(self) -> float:
        if self.w == 0.0:
            raise DomainError("rho = 0 has no finite mixing weight (w = 0)")
        return 1.0 / self.w

    @property
    def mu_X(self) -> float:
        return self.mu_G / (self.a + self.L - 1.0)

    @property
    def sigma_X(self) -> float:
        return self.sigma_G / math.sqrt(self.a * self.a + self.L - 1.0)

    @property
    def er_watts(self) -> float:
        return math.exp(2.0 * self.mu_G + 2.0 * self.sigma_G ** 2)

    def with_er(self, er_watts: float) -> "DerivedParams":
        """Same correlation structure, power anchored at er_watts."""
        if not (math.isfinite(er_watts) and er_watts > 0.0):
            raise DomainError(f"Er must be finite and > 0 watts, got {er_watts!r}")
        return replace(self, mu_G=mu_g_from_er(er_watts, self.sigma_G))

    @classmethod
    def from_a(cls, a: float, L: int, sigma_G: float, mu_G: float) -> "DerivedParams":
        """Construct directly from a mixing weight a >= 1 (used for rho -> 0
        limit checks at large a)."""
        _check_branches(L)
        if not (math.isfinite(a) and a >= 1.0):
            raise DomainError(f"mixing weight must be finite and >= 1, got {a!r}")
        return cls(L=L, rho=rho_from_a(a, L) if L >= 2 else 0.0, sigma_G=sigma_G, mu_G=mu_G,
                   w=1.0 / a)


def derive_params(spec: ChannelSpec) -> DerivedParams:
    """Resolve a ChannelSpec into sampling/asymptotics parameters."""
    w = mixing_weight(spec.rho, spec.L)
    return DerivedParams(L=spec.L, rho=spec.rho if w else 0.0, sigma_G=spec.sigma_G,
                         mu_G=spec.mu_g_value, w=w)


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Substream for one batch: PCG64 seeded by SeedSequence(seed & 2^64-1,
    spawn_key=(batch_index,)). This derivation rule is the reproducibility
    contract; merging batch counts is order-independent."""
    ss = np.random.SeedSequence(entropy=int(seed) & _U64, spawn_key=(int(batch_index),))
    return np.random.Generator(np.random.PCG64(ss))


def iter_latent_batches(params: DerivedParams, n: int, seed: int) -> Iterator[np.ndarray]:
    """Yield (batch, L) arrays of exponents G_l, deterministically for fixed
    (seed, n) regardless of how the consumer schedules work. Each batch holds
    min(BATCH_ROWS, MAX_BATCH_VALUES // L) rows, the last what is left, and is
    the transposed view of an (L, batch) block whose row l is branch l, so a
    reduction over branches runs across contiguous rows. A channel of more
    than MAX_BATCH_VALUES branches, whose one row could not be drawn whole,
    is refused before anything is drawn."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sample count must be an integer >= 1, got {n!r}")
    L, w = params.L, params.w
    if L > MAX_BATCH_VALUES:
        raise DomainError(f"one sample of {L} branches holds more than "
                          f"{MAX_BATCH_VALUES} values (1 GiB)")
    rows = min(BATCH_ROWS, MAX_BATCH_VALUES // L)
    # X' = a*X ~ N(mu_G/s, sigma_G^2/s2) and G = (1-w) X' + w sum X'; at w = 0
    # the mix is the identity, so it is skipped and G is drawn directly.
    mu = params.mu_G / (1.0 + (L - 1) * w)
    sd = params.sigma_G / math.sqrt(1.0 + (L - 1) * w * w)
    for batch_index, start in enumerate(range(0, n, rows)):
        g = batch_rng(seed, batch_index).normal(mu, sd, size=(L, min(rows, n - start))).T
        if w:
            mix = w * g.sum(axis=1, keepdims=True)
            g *= 1.0 - w
            g += mix
        yield g
        del g   # the consumer's last batch can be freed before the next is drawn
