"""The noncentral chi-squared log-CDF against independent oracles: the
Poisson mixture of regularized incomplete gammas, summed in mpmath at 40
digits, and at large arguments the dual Poisson-CDF x gamma-density sum,
built by exact recurrences in mpmath at 50 digits. Every linear CDF and
Marcum-Q value in the package is a view of this one kernel."""

import math

import mpmath as mp
import numpy as np
import pytest

from logndiv.special_fn import noncentral_chi2_cdf_log


def ncx2_cdf_ln(k, lam, x):
    """ln Pr{X <= x}, X noncentral chi-squared with k dof and noncentrality lam."""
    with mp.workdps(40):
        half_lam, half_x = mp.mpf(lam) / 2, mp.mpf(x) / 2
        total, j = mp.mpf(0), 0
        while True:
            term = mp.exp(-half_lam + j * mp.log(half_lam) - mp.loggamma(j + 1)) \
                * mp.gammainc(mp.mpf(k) / 2 + j, 0, half_x, regularized=True)
            total += term
            if j > half_lam and term < total * mp.mpf(10) ** -40:
                return float(mp.log(total))
            j += 1


def _points(n, seed=20171):
    # k in [1, 16] and lam log-uniform in [0.1, 1e3]. Half the x are uniform
    # in (0, lam + k], the body of the law; half are log-uniform in
    # [1e-300, lam + k], the deep lower tail.
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(n):
        k = float(rng.uniform(1.0, 16.0))
        lam = float(10.0 ** rng.uniform(-1.0, 3.0))
        top = lam + k
        if i % 2:
            x = float(math.exp(rng.uniform(math.log(1e-300), math.log(top))))
        else:
            x = float(rng.uniform(0.0, top)) or top
        pts.append((k, lam, x))
    return pts


@pytest.mark.parametrize("k,lam,x", _points(40), ids=lambda v: f"{v:.3g}")
def test_log_cdf_matches_mpmath(k, lam, x):
    ref = ncx2_cdf_ln(k, lam, x)
    got = noncentral_chi2_cdf_log(k, lam, x)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def ncx2_cdf_ln_dual(k, lam, x):
    """ln Pr{X <= x} as sum_m d_m C_m: d_m = e^-y y^(s+m) / Gamma(s+m+1) and
    C_m the Poisson(lam/2) CDF at m, each term from the last by an exact
    ratio, summed from m = 0 until past both means and below 1e-50 of the sum."""
    with mp.workdps(50):
        s, y, h = mp.mpf(k) / 2, mp.mpf(x) / 2, mp.mpf(lam) / 2
        d = mp.exp(-y + s * mp.log(y) - mp.loggamma(s + 1))
        p = mp.exp(-h)
        c = p
        total, m, tiny = d * c, 0, mp.mpf(10) ** -50
        while True:
            m += 1
            d *= y / (s + m)
            p *= h / m
            c += p
            term = d * c
            total += term
            if m > y and m > h and term < total * tiny:
                return float(mp.log(total))


def _large_points(n, seed=1992):
    # k in [2, 16], lam log-uniform in [1e3, 1e4], and x in the body: from
    # 8 standard deviations below the mean to 4 above, where the series runs
    # for thousands of terms around its peak.
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        k = float(rng.uniform(2.0, 16.0))
        lam = float(10.0 ** rng.uniform(3.0, 4.0))
        x = k + lam + float(rng.uniform(-8.0, 4.0)) * math.sqrt(2.0 * (k + 2.0 * lam))
        pts.append((k, lam, x))
    return pts


@pytest.mark.parametrize("k,lam,x", _large_points(16), ids=lambda v: f"{v:.4g}")
def test_log_cdf_matches_mpmath_at_large_arguments(k, lam, x):
    ref = ncx2_cdf_ln_dual(k, lam, x)
    got = noncentral_chi2_cdf_log(k, lam, x)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
