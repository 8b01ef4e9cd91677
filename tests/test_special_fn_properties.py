"""Properties of the linear special functions, which are views (exp or
-expm1) of the log-space kernels: every value is a probability, P + Q = 1,
and the noncentral chi-squared CDF is nondecreasing in x and nonincreasing
in the noncentrality."""

import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logndiv.special_fn import (MarcumArgs, marcum_q, noncentral_chi2_cdf,
                                noncentral_chi2_cdf_log, reg_gamma_lower, reg_gamma_upper)

settings.register_profile("kernels", max_examples=60, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("kernels")

EPS = sys.float_info.epsilon

shape = st.floats(1e-300, 60.0)
point = st.floats(0.0, 200.0)
dof = st.floats(1.0, 16.0)
noncentrality = st.floats(0.0, 400.0)


def _is_probability(v):
    return 0.0 <= v <= 1.0


@given(shape, point)
@example(1e-16, 0.01)  # the series for ln P rounds above 0 here
def test_incomplete_gammas_are_probabilities(s, x):
    assert _is_probability(reg_gamma_lower(s, x))
    assert _is_probability(reg_gamma_upper(s, x))


@given(st.floats(0.05, 60.0), point)
def test_lower_plus_upper_is_one_up_to_rounding(s, x):
    # P and Q come from two log kernels, each exp of a sum whose terms reach
    # x + s|ln x| + |ln Gamma(s)|; each rounds that sum its own way.
    terms = x + s * abs(math.log(x)) + abs(math.lgamma(s)) if x > 0.0 else 0.0
    assert abs(reg_gamma_lower(s, x) + reg_gamma_upper(s, x) - 1.0) <= 1e-14 + EPS * terms


@given(dof, noncentrality, point, point)
def test_ncx2_cdf_is_a_nondecreasing_probability(k, lam, x1, x2):
    lo, hi = sorted((x1, x2))
    p_lo, p_hi = noncentral_chi2_cdf(k, lam, lo), noncentral_chi2_cdf(k, lam, hi)
    assert _is_probability(p_lo) and _is_probability(p_hi)
    # Up to rounding: x one ulp apart can swap by ~1e-14 relative.
    assert p_lo <= p_hi * (1.0 + 1e-13)


@given(dof, st.floats(0.0, 1e4), st.floats(0.0, 1e4), st.floats(1e-300, 2e4))
def test_ncx2_log_cdf_is_nonincreasing_in_noncentrality(k, lam1, lam2, x):
    lo, hi = sorted((lam1, lam2))
    ln_lo, ln_hi = noncentral_chi2_cdf_log(k, lo, x), noncentral_chi2_cdf_log(k, hi, x)
    # Up to rounding, on the scale of the oracle bound.
    assert ln_hi <= ln_lo + 1e-13 * max(1.0, abs(ln_lo))


@given(st.floats(0.5, 8.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_marcum_q_is_a_probability(order, a, b):
    assert _is_probability(marcum_q(MarcumArgs(order, a, b)))
