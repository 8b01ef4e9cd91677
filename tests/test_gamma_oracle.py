"""The regularized incomplete gammas against mpmath at 40 digits, at large
shape: their common factor e^-x x^s / Gamma(s) holds terms of size s ln s
that cancel, so it must be formed without them."""

import mpmath as mp
import numpy as np
import pytest

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
