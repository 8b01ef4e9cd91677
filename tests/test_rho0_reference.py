"""The rho = 0 closed forms against the paper's printed independent arms,
evaluated outside the package: the noncentral chi-squared lower tail as a
Poisson mixture of regularized incomplete gammas in mpmath at 40 digits."""

import math

import mpmath as mp
import pytest

from logndiv.asymptotics import (OutageQuery, egc_outage_asym_log10, mrc_outage_asym_log10,
                                 sum_lognormal_cdf_asym_log10)
from logndiv.channel import ChannelSpec, derive_params

GAMMA = 0.1


def ncx2_lower_log10(k, first, second):
    """log10 Pr{X <= second^2}, X noncentral chi-squared with k dof and
    noncentrality first^2: 1 - Q_{k/2}(first, second)."""
    with mp.workdps(40):
        half_lam, half_x = mp.mpf(first) ** 2 / 2, mp.mpf(second) ** 2 / 2
        total, j = mp.mpf(0), 0
        while True:
            term = mp.exp(-half_lam + j * mp.log(half_lam) - mp.loggamma(j + 1)) \
                * mp.gammainc(mp.mpf(k) / 2 + j, 0, half_x, regularized=True)
            total += term
            if j > half_lam and term < total * mp.mpf(10) ** -40:
                return float(mp.log10(total))
            j += 1


CASES = [(L, sg, db) for L in (2, 3, 4) for sg in (0.8, 1.2) for db in (10, 20, 30, 40)]


def _rho0(L, sg):
    return derive_params(ChannelSpec(L=L, rho=0.0, sigma_G=sg, Er=1.0))


def _z_e(L, sg, er):
    return 0.5 * math.log(L * er / GAMMA) - sg ** 2


@pytest.mark.parametrize("L,sg,db", CASES)
def test_egc_rho0_matches_printed_arms(L, sg, db):
    er = 10.0 ** (db / 10.0)
    ref = ncx2_lower_log10(L, math.sqrt(L) * (_z_e(L, sg, er) + 1.0) / sg, math.sqrt(L) / sg)
    got = egc_outage_asym_log10(_rho0(L, sg), OutageQuery(GAMMA, er))
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("L,sg,db", CASES)
def test_mrc_rho0_matches_printed_arms(L, sg, db):
    er = 10.0 ** (db / 10.0)
    z_m = math.log(L * er / GAMMA) - 2.0 * sg ** 2
    ref = ncx2_lower_log10(L, math.sqrt(L) * (z_m + 1.0) / (2.0 * sg),
                           math.sqrt(L) / (2.0 * sg))
    got = mrc_outage_asym_log10(_rho0(L, sg), OutageQuery(GAMMA, er))
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("L,sg,db", CASES)
def test_sum_cdf_rho0_is_egc_at_sqrt_l_gamma(L, sg, db):
    er = 10.0 ** (db / 10.0)
    mu_g = 0.5 * math.log(er) - sg ** 2
    ref = ncx2_lower_log10(L, math.sqrt(L) * (_z_e(L, sg, er) + 1.0) / sg, math.sqrt(L) / sg)
    got = sum_lognormal_cdf_asym_log10(L, 0.0, mu_g, sg, math.sqrt(L * GAMMA))
    assert got == pytest.approx(ref, rel=1e-12)
