import dataclasses
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from logndiv import oracles, verify_suites
from logndiv.channel import a_from_rho
from logndiv.errors import DomainError, IntegrationFailureError
from logndiv.oracles import (DerivativeCheckReport, LemmaProbe, implicit_derivative_check,
                             lemma_ratio, nearest_point_closed, nearest_point_numeric,
                             region_indicator, sc_outage_exact_indep,
                             subset_inclusion_check, sum2_cdf_quadrature,
                             sum2_cdf_tensor_gl)
from logndiv.asymptotics import single_branch_outage_exact
from logndiv.schemes import SchemeKind

A_HALF = a_from_rho(0.5, 2)
EPS = sys.float_info.epsilon


def _smooth_constraint(scheme, L, gamma_th):
    """(scale, bound) of the EGC/MRC region sum_l exp(scale * g_l) <= bound."""
    return (1.0, math.sqrt(L * gamma_th)) if scheme is SchemeKind.EGC else (2.0, gamma_th)


def _dense_boundary_nearest(mu, segments):
    """Nearest point to the 2-D mean mu among boundary points x = A^-1 g(t),
    for t on a 2001-node grid over each segment (g_of_t, lo, hi), refined
    three times around its best node."""
    a_inv = np.linalg.inv((A_HALF - 1.0) * np.eye(2) + 1.0)
    best_x, best_d = None, math.inf
    for g_of_t, lo, hi in segments:
        for _ in range(4):
            t = np.linspace(lo, hi, 2001)
            x = g_of_t(t) @ a_inv.T
            d = ((x - mu) ** 2).sum(axis=1)
            i = int(np.argmin(d))
            step = t[1] - t[0]
            lo, hi = max(t[i] - 2.0 * step, lo), min(t[i] + 2.0 * step, hi)
        if d[i] < best_d:
            best_x, best_d = x[i], d[i]
    return best_x


def _boundary_segments(scheme, gamma_th):
    """The L = 2 region boundary in the linear forms g, as curves over t."""
    c = 0.5 * math.log(gamma_th)
    if scheme is SchemeKind.SC:   # the two faces g1 = c and g2 = c
        return [(lambda t: np.stack([t, np.full_like(t, c)], axis=1), -40.0, c),
                (lambda t: np.stack([np.full_like(t, c), t], axis=1), -40.0, c)]
    # exp(scale * g) = bound * (w, 1 - w) with w = 1 / (1 + exp(-t)).
    scale, bound = _smooth_constraint(scheme, 2, gamma_th)
    return [(lambda t: (math.log(bound) - np.stack([np.logaddexp(0.0, -t),
                                                    np.logaddexp(0.0, t)], axis=1)) / scale,
             -40.0, 40.0)]


class TestExactScIndep:
    def test_half_power_point(self):
        for L in (1, 2, 3, 5):
            v = sc_outage_exact_indep(L, 0.5 * math.log(0.1), 0.7, 0.1)
            assert v == pytest.approx(2.0 ** (-L), rel=1e-14)

    def test_single_branch_is_lognormal_cdf(self):
        v = sc_outage_exact_indep(1, 0.3, 0.9, 0.2)
        assert v == pytest.approx(single_branch_outage_exact(0.3, 0.9, 0.2), rel=1e-14)

    def test_domain(self):
        for sg in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                sc_outage_exact_indep(2, 0.0, sg, 0.1)

    def test_against_mc(self):
        sg, gamma, er = 0.8, 0.1, 8.0
        mu = 0.5 * math.log(er) - sg * sg
        exact = sc_outage_exact_indep(2, mu, sg, gamma)
        rng = np.random.default_rng(1)
        n = 10**6
        g = rng.normal(mu, sg, size=(n, 2))
        p_hat = np.count_nonzero(np.exp(2 * g).max(axis=1) < gamma) / n
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(p_hat - exact) < 3 * se


class TestSum2Quadrature:
    def test_limits(self):
        sg = math.sqrt(0.3)
        assert sum2_cdf_quadrature(0.0, sg, 0.0, 1e6) == pytest.approx(1.0, abs=1e-12)
        assert sum2_cdf_quadrature(0.0, sg, 0.0, -1.0) == 0.0
        assert sum2_cdf_quadrature(0.0, sg, 0.0, 0.0) == 0.0

    def test_tail_regression_values(self):
        sg3 = math.sqrt(0.3)
        assert sum2_cdf_quadrature(0.0, sg3, 0.0, 0.3) == pytest.approx(
            2.8098751429431834e-07, rel=1e-9)
        assert sum2_cdf_quadrature(0.0, sg3, 0.0, 0.5) == pytest.approx(
            1.0935411709181252e-04, rel=1e-9)
        sg6 = math.sqrt(0.6)
        assert sum2_cdf_quadrature(0.0, sg6, 0.0, 0.15) == pytest.approx(
            5.9010590731187510e-07, rel=1e-9)
        assert sum2_cdf_quadrature(0.0, sg6, 0.0, 0.3) == pytest.approx(
            1.5366672877982400e-04, rel=1e-9)

    def test_tensor_quadrature_self_consistency(self):
        sg = math.sqrt(0.3)
        for y in (0.5, 1.0, 2.0):
            a = sum2_cdf_quadrature(0.0, sg, 0.0, y)
            b = sum2_cdf_tensor_gl(0.0, sg, y)
            assert abs(a - b) < 1e-9

    def test_correlated_against_mc(self):
        rho, sg = 0.4, math.sqrt(0.3)
        rng = np.random.default_rng(7)
        n = 10**6
        z1 = rng.normal(size=n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.normal(size=n)
        y_draws = np.exp(sg * z1) + np.exp(sg * z2)
        for y in (1.2, 2.0, 3.0):
            emp = np.count_nonzero(y_draws <= y) / n
            se = math.sqrt(emp * (1 - emp) / n)
            assert abs(sum2_cdf_quadrature(0.0, sg, rho, y) - emp) < 3 * se

    def test_nondecreasing(self):
        sg = math.sqrt(0.6)
        ys = np.geomspace(0.05, 20.0, 50)
        vals = [sum2_cdf_quadrature(0.0, sg, 0.2, float(y)) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("sg", [1e-8, 1e-13, 1e-100])
    def test_narrow_channel_is_a_step_at_2(self, sg):
        # e^G1 + e^G2 concentrates at 2 e^mu_G = 2: its CDF is 0 left of the
        # mass, 1 right of it and 1/2 at its centre.
        assert sum2_cdf_quadrature(0.0, sg, 0.5, 1.9) == 0.0
        assert sum2_cdf_quadrature(0.0, sg, 0.5, 2.1) == 1.0
        assert sum2_cdf_quadrature(0.0, sg, 0.5, 2.0) == pytest.approx(0.5, abs=1e-6)

    # (sigma_G, y, P) at mu_G = 0, rho = 0.5 and y = 2 exp(-k sigma_G sqrt(0.75)),
    # k = 20 and 35: P from 80-digit mpmath quadrature over g1 / sigma_G of the
    # g1-conditioned integrand, which the cosh form matches to 4e-33.
    @pytest.mark.parametrize("sg, y, exact", [
        (1e-8, 1.9999996535898685, 2.753624182462608239e-89),
        (1e-8, 1.9999993937823093, 1.1249107888738985451e-268),
        (1e-10, 1.9999999965358983, 2.7536049795216753108e-89),
        (1e-10, 1.9999999939378221, 1.1248985350128911055e-268),
        (1e-13, 1.9999999999965359, 2.7484440673733002917e-89),
        (1e-13, 1.9999999999939377, 1.1059671776567408256e-268),
    ])
    def test_narrow_channel_tail_accuracy(self, sg, y, exact):
        assert sum2_cdf_quadrature(0.0, sg, 0.5, y) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sg", [1e-7, 1e-8, 1e-10])
    def test_narrow_channel_centre_is_resolved(self, sg):
        # ln(y/2) - mu_G is exactly 0 here, so no rounding stands in the way.
        assert sum2_cdf_quadrature(0.0, sg, 0.5, 2.0) == pytest.approx(0.5, abs=1e-6)

    # ln P from 50-digit evaluations, far below the float range.
    @pytest.mark.parametrize("mu, sg, rho, y, ln_p", [
        (0.0, 0.5477, 0.0, 1e-30, -16236.080558822878),
        (0.0, 2.0, 0.5, 1e-100, -8897.764971448749),
        (0.0, 0.8, 0.9, 1e-8, -304.9092373107939),
        (2.5, 0.8, 0.5, 0.01, -67.33207338139773),
    ])
    def test_log_core_deep_tail(self, mu, sg, rho, y, ln_p):
        from logndiv.oracles import _sum2_cdf_log

        assert _sum2_cdf_log(mu, sg, rho, y)[0] == pytest.approx(ln_p, rel=1e-12)

    # ln P from 40-digit mpmath: 2 int_0^B phi(t) Phi((c - ln cosh(s_d t))/s_s) dt
    # over 64 equal panels, with B where the integrand has fallen 90 nats.
    # The rule settles at m = 64, 64 and 128 steps: it evaluates ln Phi at its
    # peak, at b/2 for each b it tries, and once at each node it uses.
    @pytest.mark.parametrize("mu, sg, rho, y, ln_p, calls", [
        (0.0, 1.5, 0.9, 0.02, -7.2240364638924987089, 1 + 1 + 65),
        (0.0, 0.6, 0.0, 1e-6, -590.54602236162592912, 1 + 2 + 65),
        (0.0, 0.7, 0.0, 0.05, -31.489226280897622412, 1 + 1 + 129),
    ])
    def test_scalar_rule_matches_mpmath(self, mu, sg, rho, y, ln_p, calls, monkeypatch):
        seen = []
        log_ndtr = oracles.log_ndtr
        monkeypatch.setattr(oracles, "log_ndtr", lambda a: seen.append(a) or log_ndtr(a))
        got = oracles._sum2_cdf_log(mu, sg, rho, y)[0]
        assert abs(got - ln_p) <= 32.0 * EPS * (1.0 + abs(ln_p))
        assert len(seen) == calls

    # A narrow channel makes a = c/s_s nearly the same at every node, so the
    # bound on the move from the rounding dc of c is dc phi(a)/Phi(a) / s_s,
    # with the ratio |a| far out. a runs from 3 through the series range of ln Phi.
    @pytest.mark.parametrize("mu, sg, y", [
        (0.0, 1e-8, 2.0 * math.exp(k * 1e-8 * math.sqrt(0.75))) for k in (3, -5, -20, -35, -50)
    ] + [(1.0, 1e-100, math.nextafter(2.0 * math.e, 0.0))])
    def test_narrow_channel_move_is_the_mills_ratio(self, mu, sg, y):
        s_s = sg * math.sqrt(0.75)
        ln_half_y = math.log(0.5 * y)
        c = ln_half_y - mu
        dc = 2.0 * EPS * (abs(ln_half_y) + abs(c))
        a = c / s_s
        mp.mp.dps = 40
        mills = abs(a) if a < -1e10 else float(mp.npdf(a) / mp.ncdf(a))
        assert oracles._sum2_cdf_log(mu, sg, 0.5, y)[1] == pytest.approx(dc * mills / s_s,
                                                                        rel=1e-7)

    def test_rounding_of_c_past_the_series_range_is_refused(self):
        # c = ln(y/2) - mu_G is an ulp below 0 and s_s is 8.7e-101, so a is
        # -2.6e84 and the rounding of c can move ln P by 1.3e169: P could be 1/2.
        with pytest.raises(IntegrationFailureError, match="too narrow"):
            sum2_cdf_quadrature(1.0, 1e-100, 0.5, math.nextafter(2.0 * math.e, 0.0))

    def test_least_subnormal_y_underflows(self):
        assert sum2_cdf_quadrature(0.0, 0.5477, 0.0, 5e-324) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sum2_cdf_quadrature(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            sum2_cdf_quadrature(0.0, 1.0, 1.0, 1.0)


class TestRegionIndicator:
    def test_boundary_at_closed_nearest_point(self):
        for scheme in SchemeKind:
            x = nearest_point_closed(scheme, A_HALF, 3, 0.1)
            assert abs(region_indicator(scheme, x, A_HALF, 0.1)) < 1e-10

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(-0.3, 0.5, size=3)
            for scheme in SchemeKind:
                v = region_indicator(scheme, x, A_HALF, 0.1)
                vp = region_indicator(scheme, x[[2, 0, 1]], A_HALF, 0.1)
                assert v == pytest.approx(vp, rel=1e-12)

    def test_mrc_region_inside_egc_and_sc(self):
        # Pathwise SNR ordering makes these inclusions global.
        rng = np.random.default_rng(3)
        x_nst = nearest_point_closed(SchemeKind.MRC, A_HALF, 2, 0.1)
        pts = x_nst + rng.normal(0.0, 2.0, size=(4000, 2))
        for x in pts:
            if region_indicator(SchemeKind.MRC, x, A_HALF, 0.1) <= 0:
                assert region_indicator(SchemeKind.EGC, x, A_HALF, 0.1) <= 0
                assert region_indicator(SchemeKind.SC, x, A_HALF, 0.1) <= 0

    def test_egc_region_inside_sc_region_near_corner(self):
        # The inclusion that feeds the gap-divergence argument is local to
        # the shared nearest point: far along an axis the EGC region pokes
        # outside the SC region, so the sampled check stays near the corner.
        rng = np.random.default_rng(4)
        x_nst = nearest_point_closed(SchemeKind.EGC, A_HALF, 2, 0.1)
        pts = x_nst + rng.normal(0.0, 0.1 / (A_HALF - 1.0), size=(20000, 2))
        inside = 0
        for x in pts:
            if region_indicator(SchemeKind.EGC, x, A_HALF, 0.1) <= 0:
                inside += 1
                assert region_indicator(SchemeKind.SC, x, A_HALF, 0.1) <= 0
        assert inside > 1000

    def test_egc_sc_inclusion_fails_far_from_corner(self):
        # Documented counterexample: one dominant branch near sqrt(L*gamma).
        L, gamma = 2, 0.1
        g = np.array([math.log(0.99 * math.sqrt(L * gamma)), -30.0])
        x = (g - g.sum() / (A_HALF + L - 1.0)) / (A_HALF - 1.0)
        assert region_indicator(SchemeKind.EGC, x, A_HALF, gamma) <= 0
        assert region_indicator(SchemeKind.SC, x, A_HALF, gamma) > 0


class TestNearestPoint:
    def test_zero_vector_at_unit_threshold(self):
        assert np.allclose(nearest_point_closed(SchemeKind.SC, 2.0, 3, 1.0), 0.0)

    def test_egc_southwest_of_sc(self):
        sc = nearest_point_closed(SchemeKind.SC, A_HALF, 2, 0.1)
        egc = nearest_point_closed(SchemeKind.EGC, A_HALF, 2, 0.1)
        assert np.all(egc < sc)

    def test_distance_formulas(self):
        # Closed-form distances from a diagonal mean to the nearest points,
        # including the midpoint used in the gap-divergence argument.
        a, L, gamma = A_HALF, 3, 0.1
        c = 0.5 * math.log(gamma)
        for mu in (3.0, 10.0, 50.0):
            m = np.full(L, mu)
            sc = nearest_point_closed(SchemeKind.SC, a, L, gamma)
            egc = nearest_point_closed(SchemeKind.EGC, a, L, gamma)
            mid = 0.5 * (sc + egc)
            d_sc = math.sqrt(L) * (mu - c / (a + L - 1))
            d_egc = math.sqrt(L) * (mu - (c - 0.5 * math.log(L)) / (a + L - 1))
            d_mid = math.sqrt(L) * (mu - (c - 0.25 * math.log(L)) / (a + L - 1))
            assert np.linalg.norm(sc - m) == pytest.approx(d_sc, abs=1e-10)
            assert np.linalg.norm(egc - m) == pytest.approx(d_egc, abs=1e-10)
            assert np.linalg.norm(mid - m) == pytest.approx(d_mid, abs=1e-10)
            assert d_egc > d_mid > d_sc

    def test_numeric_matches_closed(self):
        for scheme in SchemeKind:
            rep = nearest_point_numeric(scheme, A_HALF, 2, 0.1, mu_X=5.0)
            assert rep.distance_gap < 1e-6
            assert rep.feasibility <= 1e-9

    def test_sc_all_constraints_active(self):
        for L in (2, 3):
            rep = nearest_point_numeric(SchemeKind.SC, A_HALF, L, 0.1, mu_X=5.0)
            assert rep.active_constraints == tuple(range(L))

    def test_egc_mrc_minimizers_coincide(self):
        e = nearest_point_numeric(SchemeKind.EGC, A_HALF, 3, 0.1, mu_X=5.0)
        m = nearest_point_numeric(SchemeKind.MRC, A_HALF, 3, 0.1, mu_X=5.0)
        assert float(np.linalg.norm(e.numeric - m.numeric)) < 1e-6

    def test_desk_scale_limit(self):
        with pytest.raises(DomainError):
            nearest_point_numeric(SchemeKind.SC, A_HALF, 5, 0.1, mu_X=5.0)

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("scheme", [SchemeKind.EGC, SchemeKind.MRC])
    def test_every_start_reaches_the_minimizer_alone(self, scheme, L):
        rep = nearest_point_numeric(scheme, A_HALF, L, 0.1, mu_X=5.0)
        mu = np.full(L, 5.0)
        scale, bound = _smooth_constraint(scheme, L, 0.1)
        starts = oracles._newton_starts(rep.closed_form, mu, 5.0)
        assert len(starts) == 8 and np.array_equal(starts[0], rep.closed_form)
        for x0 in starts[1:]:
            x, lam = oracles._kkt_newton(x0, mu, A_HALF, scale, bound)
            assert lam > 0.0
            assert np.abs(x - rep.numeric).max() < 1e-12

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_off_diagonal_mean_matches_a_dense_boundary_search(self, scheme):
        # No closed form applies here: the minimizer is off the diagonal and,
        # for SC, on one face only.
        mu = np.array([6.0, -1.0])
        c = 0.5 * math.log(0.1)
        if scheme is SchemeKind.SC:
            x = oracles._sc_nearest(A_HALF, c, mu)
            g = oracles._linear_forms(x, A_HALF)
            assert abs(g[0] - c) < 1e-12 and g[1] < c - 1.0
        else:
            scale, bound = _smooth_constraint(scheme, 2, 0.1)
            start = nearest_point_closed(scheme, A_HALF, 2, 0.1)
            x, lam = oracles._kkt_newton(start, mu, A_HALF, scale, bound)
            assert lam > 0.0
        assert x[0] - x[1] > 1.0
        # A search over distances finds a flat minimum to about sqrt(eps) only.
        dense = _dense_boundary_nearest(mu, _boundary_segments(scheme, 0.1))
        assert np.abs(x - dense).max() < 1e-6

    def test_mean_inside_the_region_is_its_own_nearest_point(self):
        for scheme in SchemeKind:
            rep = nearest_point_numeric(scheme, A_HALF, 3, 0.1, mu_X=-5.0)
            assert np.array_equal(rep.numeric, np.full(3, -5.0))
            assert rep.active_constraints == () and rep.objective == 0.0

    def test_kkt_gap_check_fails_on_a_wrong_minimizer(self, monkeypatch):
        # The SC closed point handed in as the EGC answer is 0.07 away.
        real = oracles.nearest_point_numeric

        def sc_point_for_egc(scheme, a, L, gamma_th, mu_X):
            rep = real(scheme, a, L, gamma_th, mu_X)
            if scheme is not SchemeKind.EGC:
                return rep
            x = nearest_point_closed(SchemeKind.SC, a, L, gamma_th)
            return dataclasses.replace(rep, numeric=x,
                                       distance_gap=float(np.linalg.norm(x - rep.closed_form)))

        monkeypatch.setattr(oracles, "nearest_point_numeric", sc_point_for_egc)
        failed = [r.name for r in verify_suites.run_kkt() if not r.passed]
        assert failed == ["egc-closed-vs-numeric-L2", "egc-mrc-minimizers-coincide-L2",
                          "egc-closed-vs-numeric-L3", "egc-mrc-minimizers-coincide-L3"]


class TestLemmaRatio:
    def test_monotone_decay(self):
        probe = LemmaProbe(L=2, sigma=1.0, x0=(0.0, 0.0), eps=0.1,
                           mu_scales=(5.0, 10.0, 20.0, 40.0))
        pts = lemma_ratio(probe)
        lg = [p.log10_ratio for p in pts]
        assert all(b < a for a, b in zip(lg, lg[1:]))

    def test_tenfold_decay_per_doubling(self):
        probe = LemmaProbe(L=2, sigma=1.0, x0=(0.0, 0.0), eps=0.1,
                           mu_scales=(10.0, 20.0))
        pts = lemma_ratio(probe)
        assert pts[0].log10_ratio - pts[1].log10_ratio > 1.0

    def test_bigger_hypercube_smaller_ratio(self):
        small = lemma_ratio(LemmaProbe(L=3, sigma=1.0, x0=(0.0,) * 3, eps=0.1,
                                       mu_scales=(10.0,)))[0]
        large = lemma_ratio(LemmaProbe(L=3, sigma=1.0, x0=(0.0,) * 3, eps=0.25,
                                       mu_scales=(10.0,)))[0]
        assert large.log10_ratio < small.log10_ratio

    def test_underflow_flagged_not_lost(self):
        pts = lemma_ratio(LemmaProbe(L=2, sigma=1.0, x0=(0.0, 0.0), eps=0.1,
                                     mu_scales=(40.0,)))
        assert pts[0].linear_underflow
        assert math.isfinite(pts[0].log10_ratio)

    def test_probe_validation(self):
        with pytest.raises(DomainError):
            LemmaProbe(L=4, sigma=1.0, x0=(0.0,) * 4, eps=0.1, mu_scales=(5.0,))
        with pytest.raises(DomainError):
            LemmaProbe(L=2, sigma=1.0, x0=(0.0, 0.0), eps=0.1, mu_scales=(5.0, 5.0))


class TestSubsetInclusion:
    def test_no_violations_in_regime(self):
        rep = subset_inclusion_check(A_HALF, 2, 0.1, 0.05, 50.0, 100_000, seed=42)
        assert rep.in_regime and not rep.inconclusive
        assert rep.violations == 0

    def test_three_branches(self):
        rep = subset_inclusion_check(A_HALF, 3, 0.1, 0.05, 50.0, 200_000, seed=43)
        assert rep.in_regime and not rep.inconclusive
        assert rep.violations == 0

    def test_small_mean_reported_not_failed(self):
        rep = subset_inclusion_check(A_HALF, 2, 0.1, 0.05, 0.1, 50_000, seed=44)
        assert not rep.in_regime   # whatever the count, it is only reported

    def test_permutation_symmetry(self):
        base = subset_inclusion_check(A_HALF, 3, 0.1, 0.05, 50.0, 100_000, seed=45)
        perm = subset_inclusion_check(A_HALF, 3, 0.1, 0.05, 50.0, 100_000, seed=45,
                                      permutation=(2, 0, 1))
        assert base.violations == perm.violations
        assert base.accepted == perm.accepted

    def test_inconclusive_flag(self):
        rep = subset_inclusion_check(A_HALF, 2, 0.1, 0.05, 50.0, 150, seed=46)
        assert rep.inconclusive


class TestImplicitDerivatives:
    def test_first_derivatives_are_minus_one(self):
        rep = implicit_derivative_check(A_HALF, 2, 0.1)
        assert rep.exact.first == pytest.approx(-1.0, abs=1e-4)
        assert rep.sphere.first == pytest.approx(-1.0, abs=1e-4)

    def test_second_derivatives(self):
        for L in (2, 3):
            rep = implicit_derivative_check(A_HALF, L, 0.1)
            diag = -2.0 * (A_HALF - 1.0) ** 2 / (L - 1.0 + A_HALF)
            assert rep.exact.second_diag == pytest.approx(diag, abs=1e-4)
            assert rep.sphere.second_diag == pytest.approx(diag, abs=1e-4)
            if L >= 3:
                off = -((1.0 - A_HALF) ** 2) / (L - 1.0 + A_HALF)
                assert rep.exact.second_offdiag == pytest.approx(off, abs=1e-4)
                assert rep.sphere.second_offdiag == pytest.approx(off, abs=1e-4)

    def test_report_max_error(self):
        rep = implicit_derivative_check(A_HALF, 3, 0.1)
        assert isinstance(rep, DerivativeCheckReport)
        assert rep.max_abs_error < 1e-4

    @pytest.mark.parametrize("f, lo, hi, root", [
        (lambda x: (x * x * x - 2.0, 3.0 * x * x), 0.0, 4.0, 2.0 ** (1.0 / 3.0)),
        # Far from its root a Newton step on arctan leaves the bracket; bisection takes over.
        (lambda x: (math.atan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2)), -20.0, 30.0, 1.0),
    ], ids=["cube-root", "arctan"])
    def test_bracketed_root_lands_within_an_ulp(self, f, lo, hi, root):
        assert abs(oracles._bracketed_root(f, lo, hi) - root) <= math.ulp(root)
