import math
import time

import numpy as np
import pytest

from logndiv.asymptotics import (OutageQuery, egc_outage_asym, egc_outage_asym_log10,
                                 mrc_outage_asym, mrc_outage_asym_log10, outage_asym,
                                 sc_asymptote_decomposition, sc_outage_asym,
                                 sc_outage_asym_latent, sc_outage_asym_log10,
                                 single_branch_outage_exact, sum_lognormal_cdf_asym)
from logndiv.channel import ChannelSpec, DerivedParams, derive_params
from logndiv.errors import (BelowAsymptoticRegimeError, DegenerateGeometryError,
                            DomainError)
from logndiv.oracles import sc_outage_exact_indep, sum2_cdf_quadrature
from logndiv.baselines import fenton_wilkinson_cdf
from logndiv.schemes import SchemeKind
from logndiv.special_fn import gaussian_q, gaussian_q_asym

FIG4_GRID_DB = [float(d) for d in range(0, 45, 5)]


def q_at(db, gamma=0.1):
    return OutageQuery(gamma, 10 ** (db / 10.0))


class TestScAsym:
    def test_large_a_near_independent(self):
        # Low-SNR point: the linear gap to the independent form shrinks like 1/a.
        p = DerivedParams.from_a(1e3, 2, 0.8, 0.0)
        q = q_at(5)
        c = sc_outage_asym(p, q)
        i = sc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, Er=1.0)), q)
        assert abs(c - i) / i < 1e-2

    def test_fig4_point_regression(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1e4))
        v = sc_outage_asym(p, OutageQuery(0.1, 1e4))
        assert 0.0 < v < 1.0
        assert v == pytest.approx(1.4519723638870837e-14, rel=1e-12)

    def test_monotone_decreasing_in_er(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        vals = [sc_outage_asym(p, q_at(db)) for db in FIG4_GRID_DB]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_validity_guard_carries_bound(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        with pytest.raises(BelowAsymptoticRegimeError) as exc:
            sc_outage_asym(p, OutageQuery(0.1, 0.3))
        min_er = exc.value.min_er_watts
        sc_outage_asym(p, OutageQuery(0.1, min_er * 1.01))  # just above: fine
        with pytest.raises(BelowAsymptoticRegimeError):
            sc_outage_asym(p, OutageQuery(0.1, min_er * 0.99))

    def test_rejects_identical_channels(self):
        p = DerivedParams.from_a(1.0, 2, 0.8, 0.0)
        with pytest.raises(DegenerateGeometryError):
            sc_outage_asym(p, q_at(20))

    def test_log10_consistent(self):
        p = derive_params(ChannelSpec(L=3, rho=0.2, sigma_G=0.9, Er=1.0))
        q = q_at(30)
        assert 10.0 ** sc_outage_asym_log10(p, q) == pytest.approx(
            sc_outage_asym(p, q), rel=1e-11)

    def test_two_printed_forms_agree(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1e5))
        v_er = sc_outage_asym(p, OutageQuery(0.1, 1e5))
        v_latent = sc_outage_asym_latent(p.a, 2, p.mu_X, p.sigma_X, 0.1)
        assert v_latent == pytest.approx(v_er, rel=1e-12)


class TestScIndep:
    def test_definitional_rewrite_at_z6(self):
        # When (ln sqrt(Er/g) - s^2)/s = 6 the L=2 value is the squared
        # one-branch tail approximation at 6.
        sg, gamma = 0.8, 0.1
        er = gamma * math.exp(2 * (6 * sg + sg * sg))
        v = sc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=sg, Er=1.0)),
                           OutageQuery(gamma, er))
        assert v == pytest.approx(gaussian_q_asym(6.0) ** 2, rel=1e-12)

    def test_vs_exact_at_z8(self):
        sg, gamma = 0.8, 0.1
        er = gamma * math.exp(2 * (8 * sg + sg * sg))
        approx = sc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=sg, Er=1.0)),
                                OutageQuery(gamma, er))
        exact = sc_outage_exact_indep(2, 0.5 * math.log(er) - sg * sg, sg, gamma)
        assert abs(approx / exact - 1.0) < 0.05

    def test_ratio_to_exact_tends_to_one(self):
        sg, gamma = 0.8, 0.1
        ratios = []
        for z in (4.0, 8.0, 12.0, 16.0):
            er = gamma * math.exp(2 * (z * sg + sg * sg))
            approx = sc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=sg, Er=1.0)),
                                OutageQuery(gamma, er))
            exact = sc_outage_exact_indep(2, 0.5 * math.log(er) - sg * sg, sg, gamma)
            ratios.append(approx / exact)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 1e-2

    def test_single_branch_reduction(self):
        sg, gamma = 0.7, 0.2
        er = gamma * math.exp(2 * (5 * sg + sg * sg))
        v = sc_outage_asym(derive_params(ChannelSpec(L=1, rho=0.0, sigma_G=sg, Er=1.0)),
                           OutageQuery(gamma, er))
        assert v == pytest.approx(gaussian_q_asym(5.0), rel=1e-12)


class TestEgcMrc:
    def test_range_and_monotone(self):
        p = derive_params(ChannelSpec(L=3, rho=0.2, sigma_G=0.9, Er=1.0))
        vals = [egc_outage_asym(p, q_at(db)) for db in FIG4_GRID_DB]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_fig5_curve_regression(self):
        p = derive_params(ChannelSpec(L=3, rho=0.2, sigma_G=0.9, Er=1.0))
        assert egc_outage_asym(p, q_at(10)) == pytest.approx(1.8783667706157253e-04, rel=1e-12)
        assert egc_outage_asym(p, q_at(20)) == pytest.approx(3.4176905087369544e-08, rel=1e-12)
        assert egc_outage_asym(p, q_at(30)) == pytest.approx(2.1752217850948290e-13, rel=1e-12)

    def test_fig6_indep_regression(self):
        p = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=1.2, Er=1.0))
        assert egc_outage_asym(p, q_at(20)) == pytest.approx(
            1.3082526605555397e-03, rel=1e-12)
        assert egc_outage_asym(p, q_at(30)) == pytest.approx(
            7.5732870944283440e-06, rel=1e-12)

    def test_egc_large_a_near_independent(self):
        p = DerivedParams.from_a(1e3, 2, 0.8, 0.0)
        q = q_at(5)
        c = egc_outage_asym(p, q)
        i = egc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, Er=1.0)), q)
        assert abs(c - i) / i < 1e-2

    def test_egc_indep_single_branch_vs_exact(self):
        # At outage ~1e-6 the one-branch noncentral form nearly equals the
        # exact lognormal CDF.
        sg, gamma = 1.0, 0.1
        z = 4.7534243088229
        er = gamma * math.exp(2 * (sg * z + sg * sg))
        approx = egc_outage_asym(derive_params(ChannelSpec(L=1, rho=0.0, sigma_G=sg, Er=1.0)),
                                 OutageQuery(gamma, er))
        exact = single_branch_outage_exact(0.5 * math.log(er) - sg * sg, sg, gamma)
        assert abs(exact - 1e-6) / 1e-6 < 1e-3
        assert abs(approx / exact - 1.0) < 0.05

    def test_monotone_in_threshold(self):
        p = derive_params(ChannelSpec(L=2, rho=0.3, sigma_G=0.8, Er=1.0))
        er = 1e3
        gammas = [0.01, 0.03, 0.1, 0.3]
        vals = [egc_outage_asym(p, OutageQuery(g, er)) for g in gammas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_mrc_substitution_identity(self):
        # The MRC form is the EGC form with doubled latent scale and the
        # threshold re-anchored; both code paths must agree to fp accuracy.
        p = derive_params(ChannelSpec(L=3, rho=0.2, sigma_G=0.9, Er=1e4))
        gamma = 0.1
        m = mrc_outage_asym(p, OutageQuery(gamma, 1e4))
        mu = p.mu_G
        p2 = DerivedParams.from_a(p.a, 3, 2 * p.sigma_G, 2 * mu)
        er2 = math.exp(4 * mu + 8 * p.sigma_G ** 2)
        e = egc_outage_asym(p2, OutageQuery(gamma * gamma / 3, er2))
        assert m == pytest.approx(e, rel=1e-12)

    def test_mrc_below_egc_at_high_snr(self):
        p = derive_params(ChannelSpec(L=3, rho=0.2, sigma_G=0.9, Er=1.0))
        for db in (25, 30, 35, 40):
            q = q_at(db)
            assert mrc_outage_asym(p, q) < egc_outage_asym(p, q)

    def test_negligible_gap_at_strong_correlation(self):
        p = derive_params(ChannelSpec(L=2, rho=0.9, sigma_G=0.8, Er=1.0))
        for db in FIG4_GRID_DB:
            q = q_at(db)
            gap = abs(egc_outage_asym_log10(p, q) - mrc_outage_asym_log10(p, q))
            assert gap < 0.1

    def test_mrc_large_a_near_independent(self):
        p = DerivedParams.from_a(1e3, 2, 0.8, 0.0)
        q = q_at(5)
        c = mrc_outage_asym(p, q)
        i = mrc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, Er=1.0)), q)
        assert abs(c - i) / i < 1e-2

    def test_degenerate_and_regime_errors(self):
        p1 = DerivedParams.from_a(1.0, 2, 0.8, 0.0)
        with pytest.raises(DegenerateGeometryError):
            egc_outage_asym(p1, q_at(20))
        with pytest.raises(DegenerateGeometryError):
            mrc_outage_asym(p1, q_at(20))
        with pytest.raises(BelowAsymptoticRegimeError):
            egc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=1.2, Er=1.0)),
                            OutageQuery(0.1, 1e-10))


class TestIndependentLimitContinuity:
    def test_one_percent_in_log_domain_on_fig4_grid(self):
        big = DerivedParams.from_a(1e3, 2, 0.8, 0.0)
        p0 = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, Er=1.0))
        for db in FIG4_GRID_DB:
            q = q_at(db)
            checks = [
                (sc_outage_asym_log10(big, q), math.log10(sc_outage_asym(p0, q))),
                (egc_outage_asym_log10(big, q), math.log10(egc_outage_asym(p0, q))),
                (mrc_outage_asym_log10(big, q), math.log10(mrc_outage_asym(p0, q))),
            ]
            for corr, indep in checks:
                assert abs(corr - indep) / abs(indep) < 0.01


class TestSumCdf:
    def test_consistency_with_egc(self):
        p = derive_params(ChannelSpec(L=3, rho=0.2, sigma_G=0.9, Er=1e4))
        gamma = 0.1
        y = math.sqrt(3 * gamma)
        v_sum = sum_lognormal_cdf_asym(3, 0.2, p.mu_G, 0.9, y)
        v_egc = egc_outage_asym(p, OutageQuery(gamma, 1e4))
        assert v_sum == pytest.approx(v_egc, rel=1e-12)

    def test_independent_form_consistency(self):
        sg, gamma, er = 1.2, 0.1, 1e3
        mu = 0.5 * math.log(er) - sg * sg
        v_sum = sum_lognormal_cdf_asym(2, 0.0, mu, sg, math.sqrt(2 * gamma))
        v_egc = egc_outage_asym(derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=sg, Er=1.0)),
                                OutageQuery(gamma, er))
        assert v_sum == pytest.approx(v_egc, rel=1e-12)

    def test_nondecreasing_in_y(self):
        ys = np.geomspace(0.05, 3.0, 40)
        vals = [sum_lognormal_cdf_asym(2, 0.0, 0.0, math.sqrt(0.3), float(y)) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_left_tail_beats_moment_matching(self):
        sg = math.sqrt(0.3)
        for y in (0.3, 0.4, 0.5):
            exact = sum2_cdf_quadrature(0.0, sg, 0.0, y)
            assert exact < 1e-3
            d_asym = abs(math.log10(sum_lognormal_cdf_asym(2, 0.0, 0.0, sg, y))
                         - math.log10(exact))
            d_fw = abs(math.log10(fenton_wilkinson_cdf(2, 0.0, 0.0, sg, y))
                       - math.log10(exact))
            assert d_asym < d_fw

    def test_beyond_tail_region_guard(self):
        with pytest.raises(BelowAsymptoticRegimeError):
            sum_lognormal_cdf_asym(2, 0.0, 0.0, math.sqrt(0.3), 1e3)

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_lognormal_cdf_asym(2, 0.0, 0.0, 0.5, -1.0)

    def test_single_branch_correlation_is_vacuous(self):
        # L = 1 is the point w = 0, whatever rho.
        for y in (0.1, 0.5, 1.0):
            assert sum_lognormal_cdf_asym(1, 0.5, 0.0, 0.8, y) == \
                sum_lognormal_cdf_asym(1, 0.0, 0.0, 0.8, y)


class TestDecomposition:
    def test_reassembly(self):
        p = derive_params(ChannelSpec(L=3, rho=0.2, sigma_G=0.9, Er=1.0))
        for db in (10, 20, 30, 40):
            q = q_at(db)
            d = sc_asymptote_decomposition(p, q)
            assert d.lg_outage == pytest.approx(sc_outage_asym_log10(p, q), abs=1e-10)

    def test_reassembly_independent(self):
        p = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, Er=1.0))
        q = q_at(25)
        d = sc_asymptote_decomposition(p, q)
        assert d.lg_outage == pytest.approx(sc_outage_asym_log10(p, q), abs=1e-10)

    def test_quadratic_coefficient_decreasing_in_rho(self):
        q = q_at(30)
        vals = []
        for rho in np.arange(0.1, 1.0, 0.1):
            p = derive_params(ChannelSpec(L=2, rho=float(rho), sigma_G=0.8, Er=1.0))
            vals.append(sc_asymptote_decomposition(p, q).Od_ln)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_single_branch_independent_value(self):
        sg = 0.8
        p = derive_params(ChannelSpec(L=1, rho=0.0, sigma_G=sg, Er=1.0))
        d = sc_asymptote_decomposition(p, q_at(20))
        assert d.Od_ln == pytest.approx(math.log10(math.e) / (2 * sg * sg), rel=1e-14)


class TestStructuralClaims:
    def test_sc_over_egc_and_mrc_ratios_increase(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        dbs = np.arange(20.0, 120.0, 5.0)
        r_egc = [sc_outage_asym_log10(p, q_at(db)) - egc_outage_asym_log10(p, q_at(db))
                 for db in dbs]
        r_mrc = [sc_outage_asym_log10(p, q_at(db)) - mrc_outage_asym_log10(p, q_at(db))
                 for db in dbs]
        assert all(b > a for a, b in zip(r_egc, r_egc[1:]))
        assert all(b > a for a, b in zip(r_mrc, r_mrc[1:]))

    def test_lg_egc_concave_in_ln_er(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        lgs = [egc_outage_asym_log10(p, OutageQuery(0.1, math.exp(u)))
               for u in np.linspace(1.0, 25.0, 30)]
        second = np.diff(lgs, 2)
        assert np.all(second <= 1e-9)

    def test_outage_increases_with_correlation(self):
        for scheme_fn in (sc_outage_asym, egc_outage_asym, mrc_outage_asym):
            vals = []
            for rho in (0.1, 0.5, 0.9):
                p = derive_params(ChannelSpec(L=2, rho=rho, sigma_G=0.8, Er=1.0))
                vals.append(scheme_fn(p, q_at(30)))
            assert vals[0] < vals[1] < vals[2]


class TestDispatcher:
    def test_single_branch_short_circuit(self):
        p = derive_params(ChannelSpec(L=1, rho=0.0, sigma_G=0.8, Er=1.0))
        q = q_at(15)
        expect = single_branch_outage_exact(0.5 * math.log(q.er) - 0.64, 0.8, 0.1)
        for s in SchemeKind:
            assert outage_asym(p, s, q) == pytest.approx(expect, rel=1e-14)

    def test_single_branch_schemes_stay_approximations(self):
        # At L = 1 only the dispatcher is exact; the per-scheme forms remain
        # the approximation (0 dB, where they differ most).
        p = derive_params(ChannelSpec(L=1, rho=0.0, sigma_G=0.8, Er=1.0))
        q = q_at(0)
        exact = single_branch_outage_exact(-0.64, 0.8, 0.1)
        assert exact == pytest.approx(0.2614, abs=1e-4)
        for s, fn, approx in ((SchemeKind.SC, sc_outage_asym, 0.5089),
                              (SchemeKind.EGC, egc_outage_asym, 0.2605),
                              (SchemeKind.MRC, mrc_outage_asym, 0.2319)):
            assert outage_asym(p, s, q) == exact
            assert fn(p, q) == pytest.approx(approx, abs=1e-4)

    def test_single_branch_exact_domain(self):
        for sg in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                single_branch_outage_exact(0.0, sg, 0.1)

    def test_scheme_dispatch(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        q = q_at(25)
        assert outage_asym(p, SchemeKind.SC, q) == sc_outage_asym(p, q)
        assert outage_asym(p, SchemeKind.EGC, q) == egc_outage_asym(p, q)
        assert outage_asym(p, SchemeKind.MRC, q) == mrc_outage_asym(p, q)


# EGC log10 outage at L = 8, rho = 0.99, sigma_G = 0.8, gamma_th = 0.1 from
# -20 to 310 dB in 30-dB steps, as the term-by-term noncentral chi-squared
# pass from m = 0 gave it (17 s for the curve on a 2-core Xeon). Each point
# sums a series of about 5e5 terms.
HIGH_RHO_EGC_LOG10 = (-0.08280285417085843, -3.4665360807736985, -14.27837446804422,
                      -33.11338398512767, -60.057535588045766, -95.13742404256467,
                      -138.36463719002305, -189.74525064876758, -249.28284375171452,
                      -316.9797018823711, -392.8373729496046, -476.85695382774605)


def test_high_rho_egc_curve_is_fast_and_unchanged():
    p = derive_params(ChannelSpec(L=8, rho=0.99, sigma_G=0.8, Er=1.0))
    start = time.perf_counter()
    got = [egc_outage_asym_log10(p, q_at(db)) for db in range(-20, 311, 30)]
    assert time.perf_counter() - start < 2.0
    for g, ref in zip(got, HIGH_RHO_EGC_LOG10, strict=True):
        assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref))
