"""The noncentral chi-squared log-CDF against independent oracles: the
Poisson mixture of regularized incomplete gammas, summed in mpmath at 40
digits, and at large arguments the dual Poisson-CDF x gamma-density sum,
built by exact recurrences in mpmath at 50 digits, from m = 0 or, up to
lam = 1e6, over a range that the oracle finds around its own peak. Every
linear CDF and Marcum-Q value in the package is a view of this one kernel."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from logndiv import special_fn
from logndiv.special_fn import _NCX2_CHUNK, noncentral_chi2_cdf_log


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


def _ln_poisson_cdf(m, h):
    """ln Pr{Poisson(h) <= m} at the working precision. Within 10 standard
    deviations of the mean by mpmath's incomplete gamma; further out, where
    that can fail to converge or take seconds, the Poisson terms are summed
    away from m, and there they fall at least geometrically."""
    if abs(m - h) < 10 * mp.sqrt(h):
        try:
            return mp.log(mp.gammainc(m + 1, h, mp.inf, regularized=True))
        except mp.libmp.NoConvergence:
            pass
    tiny = mp.mpf(10) ** -55
    term = mp.exp(-h + m * mp.log(h) - mp.loggamma(m + 1))
    if m < h:   # the left tail, summed down from m
        total, j = term, m
        while j > 0 and term > total * tiny:
            term *= j / h
            j -= 1
            total += term
        return mp.log(total)
    tail, j = 0, m   # one minus the right tail, summed up from m + 1
    while True:
        j += 1
        term *= h / j
        tail += term
        if term < tail * tiny:
            return mp.log(1 - tail)


def ncx2_cdf_ln_peak(k, lam, x):
    """ln Pr{X <= x} as the dual sum of d_m C_m at 50 digits, over a range
    found from the summand itself: its peak by bisection on the sign of its
    step (it is unimodal), then from an index where it lies 60 nats below
    the peak up to the first index past the peak where it does again."""
    with mp.workdps(50):
        s, y, h = mp.mpf(k) / 2, mp.mpf(x) / 2, mp.mpf(lam) / 2
        ln_y = mp.log(y)
        memo = {}

        def ln_term(m):
            if m not in memo:
                memo[m] = -y + (s + m) * ln_y - mp.loggamma(s + m + 1) + _ln_poisson_cdf(m, h)
            return memo[m]

        lo, hi = 0, 1   # the peak is the first m with ln_term(m + 1) <= ln_term(m)
        while ln_term(hi) > ln_term(hi - 1):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if ln_term(mid) > ln_term(mid - 1) else (lo, mid)
        peak, top = lo, ln_term(lo)
        step = 1
        while peak - step > 0 and ln_term(peak - step) > top - 60:
            step *= 2
        m = max(peak - step, 0)
        d = mp.exp(-y + (s + m) * ln_y - mp.loggamma(s + m + 1))
        p = mp.exp(-h + m * mp.log(h) - mp.loggamma(m + 1))
        c = mp.exp(_ln_poisson_cdf(m, h))
        total, cut = d * c, mp.exp(top - 60)
        while True:
            m += 1
            d *= y / (s + m)
            p *= h / m
            c += p
            term = d * c
            total += term
            if m > peak and term < cut:
                return float(mp.log(total))


def _huge_points(n, seed=2014):
    # k in [2, 16] and lam log-uniform in [1e4, 1e6]. Even points put x in
    # the body, from 8 standard deviations below the mean to 4 above; odd
    # points put it deep in the left tail, log-uniform in [1e-6, 0.3] lam.
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(n):
        k = float(rng.uniform(2.0, 16.0))
        lam = float(10.0 ** rng.uniform(4.0, 6.0))
        if i % 2:
            x = lam * float(10.0 ** rng.uniform(-6.0, math.log10(0.3)))
        else:
            x = k + lam + float(rng.uniform(-8.0, 4.0)) * math.sqrt(2.0 * (k + 2.0 * lam))
        pts.append((k, lam, x))
    return pts


# The random points, and both kinds of x at lam = 1e6 itself.
@pytest.mark.parametrize("k,lam,x", _huge_points(12) + [(8.0, 1e6, 997000.0), (16.0, 1e6, 100.0)],
                         ids=lambda v: f"{v:.4g}")
def test_log_cdf_matches_peak_ranged_mpmath_up_to_lam_1e6(k, lam, x):
    ref = ncx2_cdf_ln_peak(k, lam, x)
    got = noncentral_chi2_cdf_log(k, lam, x)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def _windows(monkeypatch):
    """Record the (m0, m1) of every window the one-point loop sums (of every
    chunk, for a window wider than _NCX2_CHUNK terms): each term-step call
    made from inside noncentral_chi2_cdf_log, not from the row form."""
    seen = []
    terms = special_fn._ncx2_block_terms

    def spy(s, y, h, m0, m1):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not noncentral_chi2_cdf_log.__code__:
            frame = frame.f_back
        if frame is not None:
            seen.append((*m0, *m1))
        return terms(s, y, h, m0, m1)

    monkeypatch.setattr(special_fn, "_ncx2_block_terms", spy)
    return seen


# With k as large as lam and x the peak lies right of the first window's
# centre. At k = 380 that window ends 20.3 nats below the peak, too close by
# 1.6e-12 in ln P; at k = 2000 it ends on the peak.
@pytest.mark.parametrize("k,lam,x", [(380.0, 380.0, 380.0), (2000.0, 2000.0, 2000.0)])
def test_window_widens_until_its_ends_are_46_nats_down(k, lam, x, monkeypatch):
    seen = _windows(monkeypatch)
    got = noncentral_chi2_cdf_log(k, lam, x)
    ref = ncx2_cdf_ln_peak(k, lam, x)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    assert len(seen) >= 2


# The widest window the tests reach (k = 16, lam = 1e6, x = 2e6, the corner
# of the property tests, 19283 terms); one in the body, where ln C climbs to
# 0 across the window; and one that log-adds ln C across thousands of terms
# near -7.7e4, where each addition rounds at about eps * 7.7e4. The Poisson
# log-CDF that the window builds must keep the oracle bound to its last term.
@pytest.mark.parametrize("k,lam,x", [(16.0, 1e6, 2e6), (16.0, 1e6, 1e6), (16.0, 1e6, 2.5e5)])
def test_accumulated_poisson_cdf_keeps_the_oracle_bound(k, lam, x, monkeypatch):
    seen = _windows(monkeypatch)
    ln_p = noncentral_chi2_cdf_log(k, lam, x)
    m0, m1 = seen[-1]
    s, y, h = k / 2, x / 2, lam / 2
    t = special_fn._ncx2_block_terms(s, (y,), (h,), (m0,), (m1,))[0]
    with mp.workdps(50):
        for m in ((m0 + m1) // 2, m1 - 1):
            ln_c = t[m - m0] - special_fn._log_poisson(s + m, y)
            ref = float(_ln_poisson_cdf(m, mp.mpf(h)))
            assert abs(ln_c - ref) <= 1e-12 * max(1.0, abs(ln_p))


# At k = 1e8, lam = 1e6, x = 0.97e8 the first window holds about 1.3e5 terms:
# the one-point loop fills it in passes of at most _NCX2_CHUNK terms, each
# seeded by its own ln Q(m0 + 1, h). The seeds move no bit of the value that
# one log-add of the Poisson terms across the whole window gives.
def test_a_window_wider_than_a_pass_is_built_in_chunks(monkeypatch):
    seen = _windows(monkeypatch)
    got = noncentral_chi2_cdf_log(1e8, 1e6, 0.97e8)
    assert len(seen) >= 2 and all(m1 - m0 <= _NCX2_CHUNK for m0, m1 in seen)
    assert got.hex() == "-0x1.3ac2983951516p+15"


# x = 5e-324 halves to 0, yet ln P is finite: the first term of the series.
@pytest.mark.parametrize("k,lam", [(2.0, 1.0), (1.0, 0.3), (16.0, 10.0), (3.0, 0.0), (8.0, 100.0)])
def test_log_cdf_at_the_smallest_subnormal_matches_mpmath(k, lam):
    ref = ncx2_cdf_ln_dual(k, lam, 5e-324)
    assert abs(noncentral_chi2_cdf_log(k, lam, 5e-324) - ref) <= 1e-15 * abs(ref)
