"""The regularized incomplete gammas against mpmath at 40 digits, at large
shape: their common factor e^-x x^s / Gamma(s) holds terms of size s ln s
that cancel, so it must be formed without them."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from logndiv import special_fn
from logndiv.errors import SeriesCapError
from logndiv.special_fn import reg_gamma_lower_log, reg_gamma_upper_log


def gamma_ln_pq(s, x):
    """(ln P(s, x), ln Q(s, x)) in mpmath at 40 digits."""
    with mp.workdps(40):
        s, x = mp.mpf(s), mp.mpf(x)
        p = mp.gammainc(s, 0, x, regularized=True)
        q = mp.gammainc(s, x, mp.inf, regularized=True)
        return float(mp.log(p)), float(mp.log(q))


def _points(n, seed=1000):
    # s log-uniform in [1e3, 1e4], x uniform in [0.8 s, 1.2 s]: both the
    # series (x < s + 1) and the continued fraction are exercised.
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = float(10.0 ** rng.uniform(3.0, 4.0))
        out.append((s, s * float(rng.uniform(0.8, 1.2))))
    return out


@pytest.mark.parametrize("s,x", _points(40), ids=lambda v: f"{v:.5g}")
def test_log_incomplete_gammas_match_mpmath_at_large_shape(s, x):
    ref_p, ref_q = gamma_ln_pq(s, x)
    assert abs(reg_gamma_lower_log(s, x) - ref_p) <= 1e-12 * max(1.0, abs(ref_p))
    assert abs(reg_gamma_upper_log(s, x) - ref_q) <= 1e-12 * max(1.0, abs(ref_q))


# Near x = s the series needs about 8.6 sqrt(s) terms, 8.6e6 at s = 1e12:
# more than the cap, which the a-priori bound sees before the first term. At
# s = 1e16, s + 1 rounds to s: a branch test of x < s + 1 would send x = s to
# the continued fraction, which divides by zero there. At s = 1e200, s^2
# overflows, which must not reach the caller as a numpy warning either.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e12, 1e16, 1e200])
@pytest.mark.parametrize("fn", [reg_gamma_lower_log, reg_gamma_upper_log])
def test_series_past_the_iteration_cap_is_refused_at_once(fn, s):
    start = time.perf_counter()
    with pytest.raises(SeriesCapError, match="more than"):
        fn(s, s)
    assert time.perf_counter() - start < 0.05


# Below s = 1/2 the series branch forms Q as u + v, both O(s), not as 1 - P:
# at s = 1.5e-102, x = 0.5 the difference gave -inf for ln Q = -235.04, and
# at s = 1e-16 it gave -33.27 for -37.42. u and v cancel most near x = s + 1
# at s above 0.1 (1.5e-15 at s = 0.4, x = 1.37), where 1 - P erred by up to
# 4.6e-15. A subnormal s is summed without the product that would lose it.
@pytest.mark.parametrize("s", [5e-324, 1e-300, 1.5e-102, 1e-16, 1e-14, 1e-8, 1e-3, 0.1, 0.3, 0.49, 0.4999])
@pytest.mark.parametrize("x", [1e-30, 1e-5, 0.1, 0.5, 1.0, 1.45])
def test_upper_gamma_matches_mpmath_at_small_shape(s, x):
    with mp.workdps(40):
        # Below s = 1e-200, Q = s E1(x) to far more than double precision,
        # and mpmath's gammainc takes seconds at a subnormal s.
        q = mp.mpf(s) * mp.e1(x) if s < 1e-200 else mp.gammainc(s, x, mp.inf, regularized=True)
        ref_q = float(mp.log(q))
    assert abs(reg_gamma_upper_log(s, x) - ref_q) <= 2e-15 * max(1.0, abs(ref_q))


def test_small_shape_constants_rebuild_from_mpmath():
    with mp.workdps(50):
        coefs = tuple(float((-1) ** k * (mp.zeta(k) - 1) / k) for k in range(2, 28))
        assert special_fn._LGAMMA1P_ZETA == coefs
        assert special_fn._EULER_GAMMA == float(mp.euler)


@pytest.mark.parametrize("s", [1e5, 1e6, 1e7, 1e8])
def test_shapes_the_ncx2_window_seed_reaches_still_return_values(s):
    # mpmath gives up above s = 1e6, so P + Q = 1 is the check; at x = s,
    # P is 1/2 + 1/(3 sqrt(2 pi s)) to first order.
    for x in (s - 3.0 * math.sqrt(s), s, s + 3.0 * math.sqrt(s)):
        ln_p, ln_q = reg_gamma_lower_log(s, x), reg_gamma_upper_log(s, x)
        assert ln_p < 0.0 and ln_q < 0.0
        assert abs(math.exp(ln_p) + math.exp(ln_q) - 1.0) <= 1e-10
    p_mid = math.exp(reg_gamma_lower_log(s, s))
    assert abs(p_mid - 0.5 - 1.0 / (3.0 * math.sqrt(2.0 * math.pi * s))) <= 1e-6


# Near x = s + 1 the continued fraction needs about 9 s^(1/3) steps, 1.9e6 at
# s = 1e16: more than the cap, which its estimate sees before the first step.
# Four ulps above s keeps x - s >= 1 where s + 1 rounds to s.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e16, 1e17, 1e18])
@pytest.mark.parametrize("fn", [reg_gamma_lower_log, reg_gamma_upper_log])
def test_continued_fraction_past_the_iteration_cap_is_refused_at_once(fn, s):
    start = time.perf_counter()
    with pytest.raises(SeriesCapError, match="continued fraction needs more than"):
        fn(s, s + 4.0 * math.ulp(s))
    assert time.perf_counter() - start < 0.05


def test_continued_fraction_below_the_cap_still_returns_its_value():
    # About 9e4 steps; the value is the one the loop gave before the estimate.
    assert reg_gamma_upper_log(1e14, 1e14 + 1.0) == -0.6931472869445834


@pytest.mark.parametrize("s", [1e2, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("gap", ["1", "10", "sqrt(s)"])
def test_continued_fraction_estimate_refuses_only_caps_the_loop_would_exhaust(
        monkeypatch, s, gap):
    # Find the smallest cap that the estimate lets through. With the cap there
    # the loop itself runs out, so each cap the estimate refuses was too short.
    x = s + (math.sqrt(s) if gap == "sqrt(s)" else float(gap))

    def outcome(cap: int) -> str:
        monkeypatch.setattr(special_fn, "_ITMAX", cap)
        try:
            reg_gamma_upper_log(s, x)
        except SeriesCapError as exc:
            return "refused" if "needs more than" in str(exc) else "ran out"
        return "settled"

    lo, hi = 1, 10 ** 6
    while lo < hi:
        mid = (lo + hi) // 2
        if outcome(mid) == "refused":
            lo = mid + 1
        else:
            hi = mid
    assert outcome(lo) == "ran out"
