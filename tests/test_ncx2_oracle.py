"""The noncentral chi-squared log-CDF against independent oracles: the
Poisson mixture of regularized incomplete gammas, summed in mpmath at 40
digits, and at large arguments the dual Poisson-CDF x gamma-density sum,
built by exact recurrences in mpmath at 50 digits, from m = 0 or, up to
lam = 1e6, over a range that the oracle finds around its own peak. Every
linear CDF and Marcum-Q value in the package is a view of this one kernel."""

import math

import mpmath as mp
import numpy as np
import pytest

from logndiv import special_fn
from logndiv.errors import SeriesCapError
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
    """Record the (m0, m1) of every window the Ding loop sums (of every
    chunk, for a window wider than _NCX2_CHUNK terms)."""
    seen = []
    terms = special_fn._ncx2_block_terms

    def spy(s, y, h, m0, m1):
        seen.append((m0, m1))
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
# The kernel takes the Bessel series at x < lam, so the window is called
# directly.
@pytest.mark.parametrize("k,lam,x", [(16.0, 1e6, 2e6), (16.0, 1e6, 1e6), (16.0, 1e6, 2.5e5)])
def test_accumulated_poisson_cdf_keeps_the_oracle_bound(k, lam, x, monkeypatch):
    seen = _windows(monkeypatch)
    ln_p = special_fn._ncx2_window_log(k, lam, x)
    m0, m1 = seen[-1]
    s, y, h = k / 2, x / 2, lam / 2
    t = special_fn._ncx2_block_terms(s, y, h, m0, m1)
    with mp.workdps(50):
        for m in ((m0 + m1) // 2, m1 - 1):
            ln_c = t[m - m0] - special_fn._log_poisson(s + m, y)
            ref = float(_ln_poisson_cdf(m, mp.mpf(h)))
            assert abs(ln_c - ref) <= 1e-12 * max(1.0, abs(ln_p))


# At k = 1e8, lam = 1e6, x = 0.97e8 the first window holds about 1.3e5 terms:
# the Ding loop fills it in passes of at most _NCX2_CHUNK terms, each
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


def ncx2_cdf_ln_bessel(k, lam, x, dps=40):
    """ln Pr{X <= x} for x < lam as Nuttall's series e^(-(a^2+b^2)/2)
    sum_j rho^(s+j) I_(s+j)(ab), rho = b/a, at dps digits: I_s(ab) from
    mpmath, and the sum over j as 1 + rho r_s (1 + rho r_(s+1) (1 + ...)) of
    the ratios r_nu = I_(nu+1)/I_nu, run down from zero at nu = s + J, with
    J doubled until two sums agree to 10^-(dps+5)."""
    with mp.workdps(dps + 15):
        s = mp.mpf(k) / 2
        a, b = mp.sqrt(mp.mpf(lam)), mp.sqrt(mp.mpf(x))
        xi, rho = a * b, b / a

        def tail(n):
            r, total = mp.mpf(0), mp.mpf(1)
            for j in range(n, 0, -1):
                r = xi / (2 * (s + j) + xi * r)
                total = 1 + rho * r * total
            return total

        n = 64 + int(12 * mp.sqrt(xi))
        last, total = tail(n), tail(2 * n)
        while abs(total - last) > total * mp.mpf(10) ** -(dps + 5):
            n *= 2
            last, total = total, tail(2 * n)
        return float(-(a - b) ** 2 / 2 + s * mp.log(rho) + mp.log(mp.besseli(s, xi)) - xi
                     + mp.log(total))


@pytest.mark.parametrize("k,lam,x", [(2.0, 10.0, 3.0), (3.0, 100.0, 50.0), (0.3, 40.0, 1e-6)])
def test_bessel_oracle_matches_its_terms_summed_one_by_one(k, lam, x):
    with mp.workdps(40):
        s, a, b = mp.mpf(k) / 2, mp.sqrt(mp.mpf(lam)), mp.sqrt(mp.mpf(x))
        total, j = mp.mpf(0), 0
        while True:
            term = (b / a) ** (s + j) * mp.besseli(s + j, a * b)
            total += term
            if term < total * mp.mpf(10) ** -40:
                break
            j += 1
        ref = float(-(a * a + b * b) / 2 + mp.log(total))
    assert abs(ncx2_cdf_ln_bessel(k, lam, x) - ref) <= 1e-15 * max(1.0, abs(ref))


def _bessel_route(monkeypatch):
    """Record the (s, lam, x) of every call of the Bessel series."""
    seen = []
    series = special_fn._ncx2_bessel_log

    def spy(s, lam, x):
        seen.append((s, lam, x))
        return series(s, lam, x)

    monkeypatch.setattr(special_fn, "_ncx2_bessel_log", spy)
    return seen


def _deep_points():
    # A sample of the EGC and MRC kernel points of perfbench's closed_form_deep
    # workload: L 2, 3, 4 and 8, rho 0 to 0.9, sigma_G 0.98 to 1.02 and
    # gamma_th 0.095 to 0.105, 0 to 300 dB.
    from logndiv import asymptotics
    from logndiv.channel import ChannelSpec, derive_params

    pts = []
    cells = [(2, 0.0, 0.98, 0.1, 1.0), (2, 0.9, 1.02, 0.1, 0.5), (3, 0.1, 0.99, 0.095, 1.0),
             (3, 0.5, 1.01, 0.105, 0.5), (4, 0.5, 0.98, 0.1, 1.0), (4, 0.9, 0.99, 0.095, 0.5),
             (8, 0.1, 1.02, 0.1, 0.5), (8, 0.9, 1.01, 0.105, 1.0)]
    for L, rho, sg, g, c in cells:
        params = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=sg, Er=1.0))
        zs = [0.5 * math.log(L * 10.0 ** (db / 10.0) / g) - sg * sg for db in (0, 100, 300)]
        arms = [asymptotics._ncx2_arms(L, params.w, sg, z, c) for z in zs]
        pts += [(float(L), a * a, second * second) for a, second, _ in arms if a > 0.0]
    return pts


@pytest.mark.parametrize("k,lam,x", _deep_points(), ids=lambda v: f"{v:.4g}")
def test_bessel_series_matches_mpmath_at_deep_curve_points(k, lam, x, monkeypatch):
    seen = _bessel_route(monkeypatch)
    ref = ncx2_cdf_ln_bessel(k, lam, x)
    assert abs(noncentral_chi2_cdf_log(k, lam, x) - ref) <= 1e-14 * max(1.0, abs(ref))
    assert len(seen) == 1


# Where the routes meet: the last floats below lam take the Bessel series,
# lam itself and the floats above it the Ding window. Both keep the oracle
# bound, and the step between the routes, one float below lam to one above,
# is the oracle's step within it.
@pytest.mark.parametrize("k,lam", [(2.0, 10.0), (0.3, 3.0), (2.7, 250.0), (8.0, 4000.0),
                                   (3.0, 6e4)])
def test_routes_agree_where_they_meet(k, lam, monkeypatch):
    seen = _bessel_route(monkeypatch)
    below, above = math.nextafter(lam, 0.0), math.nextafter(lam, math.inf)
    got, ref = {}, {}
    for x in (lam * (1.0 - 1e-6), below, lam, above):
        ref[x] = (ncx2_cdf_ln_bessel if x < lam else ncx2_cdf_ln_peak)(k, lam, x)
        got[x] = noncentral_chi2_cdf_log(k, lam, x)
        assert abs(got[x] - ref[x]) <= 1e-14 * max(1.0, abs(ref[x]))
    assert [x for _, _, x in seen] == [lam * (1.0 - 1e-6), below]
    step, ref_step = got[above] - got[below], ref[above] - ref[below]
    assert abs(step - ref_step) <= 1e-14 * max(1.0, abs(ref[above]))


def _high_rho_points():
    # The EGC points of the README's L = 8, rho = 0.99, sigma_G = 0.8,
    # gamma_th = 0.1 curve, -20 to 310 dB in 30-dB steps, that lie below lam.
    from logndiv import asymptotics
    from logndiv.channel import ChannelSpec, derive_params

    params = derive_params(ChannelSpec(L=8, rho=0.99, sigma_G=0.8, Er=1.0))
    zs = [0.5 * math.log(8 * 10.0 ** (db / 10.0) / 0.1) - 0.64 for db in range(-20, 311, 30)]
    arms = [asymptotics._ncx2_arms(8, params.w, 0.8, z, 1.0) for z in zs]
    return [(8.0, a * a, second * second) for a, second, _ in arms if second < a]


@pytest.mark.parametrize("k,lam,x", _high_rho_points(), ids=lambda v: f"{v:.6g}")
def test_bessel_series_matches_mpmath_on_the_high_rho_curve(k, lam, x):
    ref = ncx2_cdf_ln_bessel(k, lam, x)
    assert abs(noncentral_chi2_cdf_log(k, lam, x) - ref) <= 1e-14 * max(1.0, abs(ref))


# Tiny xi = sqrt(lam x): the ratios r ~ xi/(2 nu) must not underflow before
# their logs are taken. Below sqrt(y h) = 1e-152 the Ding window takes over.
@pytest.mark.parametrize("k,lam,x,bessel", [
    (1.0, 1.0, 5.75e-93, True), (1.0, 1.0, 1e-300, True), (2.7, 1e-100, 1e-199, True),
    (16.0, 1e-20, 1e-280, True), (0.3, 1e-150, 1e-160, False), (1.0, 1e-300, 1e-310, False)])
def test_tiny_xi_matches_mpmath(k, lam, x, bessel, monkeypatch):
    seen = _bessel_route(monkeypatch)
    ref = ncx2_cdf_ln(k, lam, x)
    assert abs(noncentral_chi2_cdf_log(k, lam, x) - ref) <= 1e-14 * max(1.0, abs(ref))
    assert len(seen) == bessel


# Fractional orders s = k/2 start the ratio chain from I_(s - floor(s)).
@pytest.mark.parametrize("k", [2.7, 0.3])
@pytest.mark.parametrize("lam,x", [(1.0, 0.5), (30.0, 20.0), (30.0, 1e-3), (400.0, 390.0),
                                   (2e3, 10.0), (5e4, 4.9e4)])
def test_fractional_orders_match_mpmath(k, lam, x):
    ref = ncx2_cdf_ln_bessel(k, lam, x)
    assert abs(noncentral_chi2_cdf_log(k, lam, x) - ref) <= 1e-14 * max(1.0, abs(ref))


# The largest x < lam that the rise cap accepts: sqrt(y h) - s = 1e7, so xi
# is about 2e7, rho rounds to 1 and the loop takes floor(s) + sqrt(80 xi) +
# 10 steps at most; at the largest order the series takes, under 2^16.
@pytest.mark.parametrize("k", [2.0, 2.0 * special_fn._NCX2_BESSEL_MAX_ORDER])
def test_bessel_loop_stays_under_its_step_bound_at_the_largest_point(k, monkeypatch):
    s = 0.5 * k
    lam = 2.0 * (1e7 + s)
    x = math.nextafter(lam, 0.0)
    steps = []

    def counted(*args):
        steps.append(len(range(*args)))
        return range(*args)

    monkeypatch.setattr(special_fn, "range", counted, raising=False)
    got = noncentral_chi2_cdf_log(k, lam, x)
    monkeypatch.undo()
    assert sum(steps) <= int(s) + math.sqrt(80.0 * math.sqrt(lam * x)) + 10 < 2 ** 16
    assert sum(steps) >= int(s) + math.sqrt(80.0 * math.sqrt(lam * x)) - 1
    # Against the Ding window at the same point: at lam = 2e7 one rounding
    # of x moves ln P by about sqrt(lam) eps, and both sum tens of thousands
    # of terms.
    ref = special_fn._ncx2_window_log(k, lam, x)
    assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))
    with pytest.raises(SeriesCapError):
        noncentral_chi2_cdf_log(k, math.nextafter(lam, math.inf) * (1.0 + 1e-15), lam)


# Deep in the tail -d^2/2 is nearly all of ln P, so the series carries d^2
# as a head and a tail: in one float its rounding would be a few ulps of ln P.
# From lam = 1e150 on, where the squares would overflow, d^2 is one float.
@pytest.mark.parametrize("lam,x,rel", [
    (1153.1340128597728, 24.0, 1e-30), (1e6, 1.0, 1e-30), (10.0, 9.999999, 1e-30),
    (2e7, 1.9999999e7, 1e-30), (1e-100, 1e-199, 1e-30), (1e140, 1e-130, 1e-30),
    (1e200, 1e-200, 1e-15)])
def test_d2_head_and_tail_match_mpmath(lam, x, rel):
    d2, d2_lo = special_fn._ncx2_d2(lam, x, math.sqrt(lam * x))
    with mp.workdps(60):
        ref = (mp.sqrt(mp.mpf(lam)) - mp.sqrt(mp.mpf(x))) ** 2
        assert abs(mp.mpf(d2) + d2_lo - ref) <= rel * ref


def _pinned_combiner_points():
    # The EGC and MRC kernel points of the pinned asymptotic curves (L 3,
    # rho 0.5, sigma_G 1, gamma_th 1000), every 10 dB from 0 to 300 dB.
    from logndiv import asymptotics
    from logndiv.channel import ChannelSpec, derive_params

    params = derive_params(ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0))
    zs = [0.5 * math.log(3 * 10.0 ** (db / 10.0) / 1000.0) - 1.0 for db in range(0, 301, 10)]
    pts = []
    for c in (1.0, 0.5):
        arms = [asymptotics._ncx2_arms(3, params.w, 1.0, z, c) for z in zs]
        pts += [(3.0, a * a, second * second) for a, second, _ in arms if second < a]
    return pts


# Where ln P is large the other terms' rounding is well under an ulp of it,
# so with d^2 in two parts the series lands within one rounding unit.
def test_deep_pinned_points_are_within_one_ulp_of_mpmath():
    deep = 0
    for k, lam, x in _pinned_combiner_points():
        ref = ncx2_cdf_ln_bessel(k, lam, x)
        if abs(ref) >= 8.0:
            deep += 1
            assert abs(noncentral_chi2_cdf_log(k, lam, x) - ref) <= math.ulp(ref)
    assert deep >= 40
