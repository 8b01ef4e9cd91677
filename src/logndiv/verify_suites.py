"""Default check bundles behind `logndiv verify`: numeric verification of
the geometric/limit facts supporting the closed forms, at desk scale.

Each check returns (name, passed, detail); the CLI renders one line per
check and exits nonzero if any fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import (OutageQuery, egc_outage_asym_log10, mrc_outage_asym_log10,
                          sc_outage_asym, sc_outage_asym_latent, sc_outage_asym_log10)
from .channel import ChannelSpec, DerivedParams, a_from_rho, derive_params
from .schemes import SchemeKind

SUITES = ("lemma", "kkt", "subset", "derivatives", "limits")

_A_HALF = a_from_rho(0.5, 2)   # mixing weight for rho = 0.5, two branches


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _check(suite: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def run_lemma() -> list[CheckResult]:
    from . import oracles

    results = []
    for L in (2, 3):
        probe = oracles.LemmaProbe(L=L, sigma=1.0, x0=(0.0,) * L, eps=0.1,
                                   mu_scales=(5.0, 10.0, 20.0, 40.0))
        pts = oracles.lemma_ratio(probe)
        lg = [p.log10_ratio for p in pts]
        monotone = all(b < a for a, b in zip(lg, lg[1:]))
        results.append(_check("lemma", f"ratio-monotone-decay-L{L}", monotone,
                              f"lg ratios along t=5,10,20,40: {[f'{v:.3f}' for v in lg]}"))
        decay = pts[1].log10_ratio - pts[2].log10_ratio
        results.append(_check("lemma", f"ratio-decade-drop-10to20-L{L}", decay > 1.0,
                              f"ratio shrank by 10^{decay:.3f} when t doubled 10 -> 20"))
    # Larger hypercube at fixed mean: bigger denominator, smaller ratio.
    small = oracles.lemma_ratio(oracles.LemmaProbe(
        L=2, sigma=1.0, x0=(0.0, 0.0), eps=0.1, mu_scales=(10.0,)))[0]
    large = oracles.lemma_ratio(oracles.LemmaProbe(
        L=2, sigma=1.0, x0=(0.0, 0.0), eps=0.3, mu_scales=(10.0,)))[0]
    results.append(_check("lemma", "ratio-shrinks-with-eps",
                          large.log10_ratio < small.log10_ratio,
                          f"lg ratio {small.log10_ratio:.3f} (eps=0.1) -> {large.log10_ratio:.3f} (eps=0.3)"))
    return results


def run_kkt() -> list[CheckResult]:
    import numpy as np

    from . import oracles

    results = []
    for L in (2, 3):
        reports = {}
        for scheme in (SchemeKind.SC, SchemeKind.EGC, SchemeKind.MRC):
            rep = oracles.nearest_point_numeric(scheme, _A_HALF, L, 0.1, mu_X=5.0)
            reports[scheme] = rep
            results.append(_check(
                "kkt", f"{scheme.value}-closed-vs-numeric-L{L}", rep.distance_gap < 1e-6,
                f"|closed - numeric| = {rep.distance_gap:.3e}"))
        sc = reports[SchemeKind.SC]
        results.append(_check(
            "kkt", f"sc-all-constraints-active-L{L}",
            len(sc.active_constraints) == L,
            f"active set {sc.active_constraints}"))
        egc_mrc_gap = float(np.linalg.norm(reports[SchemeKind.EGC].numeric
                                           - reports[SchemeKind.MRC].numeric))
        results.append(_check(
            "kkt", f"egc-mrc-minimizers-coincide-L{L}", egc_mrc_gap < 1e-6,
            f"|x_egc - x_mrc| = {egc_mrc_gap:.3e}"))
    return results


def run_subset() -> list[CheckResult]:
    from . import oracles

    rep = oracles.subset_inclusion_check(
        a=_A_HALF, L=2, gamma_th=0.1, eps=0.05, mu_X=50.0,
        n_samples=200_000, seed=20240222)
    detail = f"{rep.accepted} accepted samples, {rep.violations} violations"
    return [
        _check("subset", "sampling-conclusive", not rep.inconclusive, detail),
        _check("subset", "no-violations-at-large-mean",
               rep.in_regime and rep.violations == 0, detail),
    ]


def run_derivatives() -> list[CheckResult]:
    from . import oracles

    results = []
    for L in (2, 3):
        rep = oracles.implicit_derivative_check(_A_HALF, L, 0.1)
        results.append(_check(
            "derivatives", f"boundary-vs-sphere-L{L}", rep.max_abs_error < 1e-4,
            f"max |numeric - expected| = {rep.max_abs_error:.3e} "
            f"(first {rep.expected_first:g}, diag {rep.expected_second_diag:.6g}"
            + (f", offdiag {rep.expected_second_offdiag:.6g}" if L >= 3 else "") + ")"))
    return results


def run_limits() -> list[CheckResult]:
    """Correlated forms at mixing weight 10^3 against their rho = 0 values
    (log-outage within 1%), plus the two printed forms of the SC
    approximation against each other."""
    results = []
    big = DerivedParams.from_a(1000.0, 2, 0.8, 0.0)
    indep = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, Er=1.0))
    queries = [OutageQuery(0.1, 10.0 ** (db / 10.0)) for db in range(0, 45, 5)]
    for name, fn in (("sc", sc_outage_asym_log10), ("egc", egc_outage_asym_log10),
                     ("mrc", mrc_outage_asym_log10)):
        worst = max(abs(fn(big, q) - fn(indep, q)) / abs(fn(indep, q)) for q in queries)
        results.append(_check(
            "limits", f"{name}-independent-limit", worst < 0.01,
            f"max relative log-outage gap at a=1000: {worst:.3e}"))

    p = DerivedParams.from_a(_A_HALF, 2, 0.8, 0.5 * math.log(1e5) - 0.64)
    v_er = sc_outage_asym(p, OutageQuery(0.1, 1e5))
    v_latent = sc_outage_asym_latent(p.a, 2, p.mu_X, p.sigma_X, 0.1)
    rel = abs(v_er - v_latent) / v_er
    results.append(_check("limits", "sc-two-printed-forms-agree", rel < 1e-10,
                          f"relative residual {rel:.3e}"))
    return results


def run_suites(names: list[str]) -> list[CheckResult]:
    runners = {"lemma": run_lemma, "kkt": run_kkt, "subset": run_subset,
               "derivatives": run_derivatives, "limits": run_limits}
    out: list[CheckResult] = []
    for n in names:
        out.extend(runners[n]())
    return out
