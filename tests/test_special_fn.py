import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from logndiv.errors import DomainError, SeriesCapError
from logndiv.special_fn import (MarcumArgs, gaussian_q, gaussian_q_asym, marcum_q,
                                noncentral_chi2_cdf, noncentral_chi2_cdf_log, reg_gamma_lower,
                                reg_gamma_lower_log, reg_gamma_upper, reg_gamma_upper_log)


class TestGaussianQ:
    def test_symmetry_at_zero(self):
        assert gaussian_q(0.0) == 0.5

    def test_monotone_to_zero(self):
        xs = np.linspace(-8, 38, 200)
        qs = [gaussian_q(float(x)) for x in xs]
        assert all(b < a for a, b in zip(qs, qs[1:]))
        assert qs[-1] > 0.0

    def test_against_quadrature_oracle(self):
        # Independent oracle: adaptive quadrature of the normal density tail.
        ref, err = integrate.quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), 3.0, 60.0,
            epsabs=1e-18, epsrel=1e-13, limit=200)
        assert err < 1e-13 * ref
        assert abs(gaussian_q(3.0) - ref) / ref < 1e-12

    def test_deep_tail_decay(self):
        # Down to x = 38 the value must stay positive with the right decay.
        for x in (10.0, 20.0, 30.0, 38.0):
            ratio = gaussian_q(x) / gaussian_q_asym(x)
            assert 1.0 - 2.0 / x**2 < ratio < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_q(math.nan)
        with pytest.raises(DomainError):
            gaussian_q(math.inf)


class TestGaussianQAsym:
    def test_value_at_one(self):
        assert gaussian_q_asym(1.0) == pytest.approx(0.24197, abs=5e-6)

    def test_three_percent_at_six(self):
        assert abs(gaussian_q_asym(6.0) / gaussian_q(6.0) - 1.0) < 0.03

    def test_ratio_tends_to_one(self):
        ratios = [gaussian_q_asym(x) / gaussian_q(x) for x in (2.0, 4.0, 8.0, 16.0, 32.0)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 1e-3

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                gaussian_q_asym(bad)


class TestRegGamma:
    def test_at_zero(self):
        for s in (0.3, 1.0, 4.5):
            assert reg_gamma_lower(s, 0.0) == 0.0
            assert reg_gamma_upper(s, 0.0) == 1.0

    def test_exponential_special_case(self):
        for x in (0.1, 1.0, 3.0, 10.0):
            assert reg_gamma_lower(1.0, x) == pytest.approx(1.0 - math.exp(-x), rel=1e-14)

    def test_half_dof_vs_gaussian(self):
        # Chi-squared(1): P(1/2, x) = 1 - 2 Q(sqrt(2x)); cross-checks both kernels.
        for x in (0.05, 0.4, 1.3, 4.0, 9.0):
            lhs = reg_gamma_lower(0.5, x)
            rhs = 1.0 - 2.0 * gaussian_q(math.sqrt(2.0 * x))
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_lower_plus_upper_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = float(rng.uniform(0.1, 20.0))
            x = float(rng.uniform(0.0, 40.0))
            assert abs(reg_gamma_lower(s, x) + reg_gamma_upper(s, x) - 1.0) < 1e-14

    def test_nondecreasing_in_x(self):
        xs = np.linspace(0, 30, 120)
        ps = [reg_gamma_lower(2.7, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_log_variants(self):
        for s, x in ((0.5, 3.0), (2.0, 0.2), (4.0, 90.0), (1.0, 1614.0)):
            lq = reg_gamma_upper_log(s, x)
            lp = reg_gamma_lower_log(s, x)
            if reg_gamma_upper(s, x) > 0:
                assert lq == pytest.approx(math.log(max(reg_gamma_upper(s, x), 5e-324)), rel=1e-10)
            assert lp == pytest.approx(math.log(reg_gamma_lower(s, x)), rel=1e-10)
        # Far right tail where the linear value underflows: Q(1, x) = e^-x.
        assert reg_gamma_upper_log(1.0, 5000.0) == pytest.approx(-5000.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_gamma_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_gamma_lower(1.0, -0.5)
        with pytest.raises(DomainError):
            reg_gamma_upper(-2.0, 1.0)


    def test_scalar_log_poisson_is_the_array_form_bit_for_bit(self):
        # A float n above 15 is computed term by term in floats, for the
        # incomplete-gamma seeds of the noncentral chi-squared windows; it
        # must round exactly as the array form does on a one-value array.
        from logndiv.special_fn import _log_poisson
        rng = np.random.default_rng(1992)
        n = np.concatenate([np.linspace(15.0, 17.0, 401)[1:],
                            10.0 ** rng.uniform(1.2, 300.0, 4000)])
        for v in n.tolist():
            for mean in (v * float(rng.uniform(0.01, 3.0)),
                         v + float(rng.normal()) * math.sqrt(v),
                         float(rng.uniform(1e-6, 50.0))):
                if mean > 0.0 and math.isfinite(mean):
                    want = float(_log_poisson(np.array([v]), mean)[0])
                    assert _log_poisson(v, mean) == want, (v, mean)


class TestNoncentralChi2:
    def test_central_reduction(self):
        for k, x in ((1.0, 0.5), (2.0, 3.0), (7.0, 4.2)):
            assert noncentral_chi2_cdf(k, 0.0, x) == pytest.approx(
                reg_gamma_lower(0.5 * k, 0.5 * x), rel=1e-14)

    def test_zero_point(self):
        assert noncentral_chi2_cdf(3.0, 5.0, 0.0) == 0.0

    def test_against_mc_oracle(self):
        # Brute-force draws of Z1^2 + Z2^2 with one shifted normal (k=2, lam=1).
        rng = np.random.default_rng(24601)
        n = 10**7
        z1 = rng.normal(1.0, 1.0, size=n)
        z2 = rng.normal(0.0, 1.0, size=n)
        p_hat = np.count_nonzero(z1 * z1 + z2 * z2 <= 2.0) / n
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(noncentral_chi2_cdf(2.0, 1.0, 2.0) - p_hat) < 3.0 * se

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            k = float(rng.integers(1, 9))
            lam = float(rng.uniform(0.01, 60.0))
            x = float(rng.uniform(0.0, 120.0))
            ref = stats.ncx2.cdf(x, k, lam)
            assert noncentral_chi2_cdf(k, lam, x) == pytest.approx(ref, abs=2e-13)

    def test_dkw_band_against_simulation(self):
        # Empirical CDF of 10^6 draws within the 99% DKW band on a value grid.
        k, lam, n = 3, 4.0, 10**6
        rng = np.random.default_rng(99)
        draws = rng.chisquare(k - 1, size=n) + (rng.normal(size=n) + math.sqrt(lam)) ** 2
        draws.sort()
        eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
        for x in np.linspace(0.05, 40.0, 400):
            ecdf = np.searchsorted(draws, x, side="right") / n
            assert abs(ecdf - noncentral_chi2_cdf(k, lam, float(x))) <= eps

    def test_huge_noncentrality_no_underflow(self):
        # Weights underflow at index 0; summation must start at the mode.
        v = noncentral_chi2_cdf(2.0, 4e4, 4.2e4)
        assert 0.5 < v < 1.0

    def test_monotone_in_x(self):
        vals = [noncentral_chi2_cdf(4.0, 9.0, float(x)) for x in np.linspace(0, 60, 100)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_log_path_matches_linear(self):
        for (k, lam, x) in ((4.0, 30.0, 10.0), (2.0, 1.0, 2.0), (8.0, 100.0, 60.0)):
            lin = noncentral_chi2_cdf(k, lam, x)
            assert math.exp(noncentral_chi2_cdf_log(k, lam, x)) == pytest.approx(lin, rel=1e-11)

    def test_log_path_deep_tail(self):
        # Regime where the linear CDF underflows to zero.
        lg = noncentral_chi2_cdf_log(3.0, 2500.0, 20.0)
        assert -1100.0 < lg < -900.0

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(2.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(2.0, 1.0, -1.0)

    def test_overlong_series_refused_at_once(self):
        # The series would rise for 5e7 terms; it is refused before the first.
        start = time.perf_counter()
        with pytest.raises(SeriesCapError, match="more than"):
            noncentral_chi2_cdf_log(2.0, 1e8, 1e8)
        assert time.perf_counter() - start < 1.0


class TestMarcumQ:
    def test_full_mass_at_zero_threshold(self):
        for m, a in ((0.5, 0.0), (1.0, 2.0), (3.5, 7.0)):
            assert marcum_q(MarcumArgs(m, a, 0.0)) == 1.0

    def test_rayleigh_tail(self):
        for b in (0.1, 0.7, 1.9, 3.5, 6.0):
            assert marcum_q(MarcumArgs(1.0, 0.0, b)) == pytest.approx(
                math.exp(-0.5 * b * b), rel=1e-12)

    def test_half_order_gaussian_identity(self):
        for b in (0.2, 1.0, 2.5, 5.0, 8.0):
            assert marcum_q(MarcumArgs(0.5, 0.0, b)) == pytest.approx(
                2.0 * gaussian_q(b), rel=1e-12)

    def test_monotonicity_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = float(rng.integers(1, 9)) / 2.0
            a = float(rng.uniform(0.0, 5.0))
            bs = np.sort(rng.uniform(0.05, 8.0, size=4))
            qs = [marcum_q(MarcumArgs(m, a, float(b))) for b in bs]
            assert all(x >= y for x, y in zip(qs, qs[1:]))
            b = float(rng.uniform(0.05, 8.0))
            aa = np.sort(rng.uniform(0.0, 5.0, size=4))
            qs = [marcum_q(MarcumArgs(m, float(av), b)) for av in aa]
            assert all(y >= x for x, y in zip(qs, qs[1:]))
            assert all(0.0 <= v <= 1.0 for v in qs)

    def test_complement_log_matches_linear(self):
        for (m, a, b) in ((1.0, 3.0, 1.0), (1.5, 6.0, 2.0), (2.0, 0.0, 1.0)):
            lin = 1.0 - marcum_q(MarcumArgs(m, a, b))
            ln_p = noncentral_chi2_cdf_log(2.0 * m, a * a, b * b)
            assert math.exp(ln_p) == pytest.approx(lin, rel=1e-10)

    def test_args_validation(self):
        with pytest.raises(DomainError):
            MarcumArgs(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            MarcumArgs(1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            MarcumArgs(1.0, 1.0, math.inf)
