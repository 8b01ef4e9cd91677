"""ln Phi, its inverse Mills ratio and the erfcx series behind them, against
40-digit mpmath: the float path (math.erfc, and the asymptotic series below
-37), the array path (one Chebyshev pass) and the committed constants."""

import math

import mpmath as mp
import numpy as np
import pytest

from logndiv import special_fn
from logndiv.special_fn import log_ndtr, log_ndtr_mills

_SWITCH = special_fn._LOG_NDTR_SERIES_BELOW
# From -1e5 to 9, densest where ln Phi turns from quadratic to flat, with the
# neighbours of the float path's switch on both sides.
_GRID = np.unique(np.concatenate([
    -np.logspace(5.0, -3.0, 400), np.linspace(-40.0, 9.0, 491),
    [0.0, _SWITCH, np.nextafter(_SWITCH, -np.inf), np.nextafter(_SWITCH, np.inf),
     _SWITCH - 1e-9, _SWITCH + 1e-9]]))


def _reference(a: float) -> tuple[float, float]:
    """(ln Phi(a), phi(a)/Phi(a)) at 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(a)
        cdf = mp.ncdf(x)
        return float(mp.log(cdf)), float(mp.npdf(x) / cdf)


_REF = np.array([_reference(float(a)) for a in _GRID])


def test_grid_straddles_the_series_switch():
    assert (_GRID < _SWITCH).sum() > 100 and ((_GRID >= _SWITCH) & (_GRID < -30.0)).sum() > 50


def test_float_path_matches_mpmath():
    got = np.array([log_ndtr(float(a)) for a in _GRID])
    assert np.all(np.abs(got - _REF[:, 0]) <= 1e-13 * np.abs(_REF[:, 0]))


def test_array_path_matches_mpmath():
    got = log_ndtr(_GRID)
    assert np.all(np.abs(got - _REF[:, 0]) <= 1e-13 * np.abs(_REF[:, 0]))


def test_inverse_mills_ratio_matches_mpmath():
    ln_phi, mills = log_ndtr_mills(_GRID)
    assert np.array_equal(ln_phi, log_ndtr(_GRID))
    assert np.all(np.abs(mills - _REF[:, 1]) <= 1e-13 * _REF[:, 1])


def test_erfcx_series_matches_mpmath():
    u = np.concatenate([np.linspace(0.0, 50.0, 501), np.logspace(-6.0, 150.0, 157)])
    with mp.workdps(40):
        ref = np.array([float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v))) for v in u])
    assert np.all(np.abs(special_fn._erfcx_nonneg(u) - ref) <= 2e-15 * ref)


@pytest.mark.filterwarnings("error")
def test_infinities_and_far_arguments():
    a = np.array([-np.inf, -1e300, -1e160, 40.0, 1e300, np.inf])
    ln_phi, mills = log_ndtr_mills(a)
    assert ln_phi.tolist() == [-math.inf, -math.inf, -math.inf, 0.0, 0.0, 0.0]
    # phi(a)/Phi(a) = |a| (1 + 1/a^2 + ...) far left, and 0 once phi underflows.
    assert mills[0] == math.inf and mills[3:].tolist() == [0.0, 0.0, 0.0]
    assert mills[1:3].tolist() == pytest.approx([1e300, 1e160], rel=1e-14)
    assert [log_ndtr(v) for v in a.tolist()] == ln_phi.tolist()
    assert math.isnan(log_ndtr(math.nan)) and np.isnan(log_ndtr(np.array([np.nan]))).all()


def _chebyshev_constants() -> list[float]:
    """The recipe of special_fn._ERFCX_CHEB: erfcx(u) (1 + u/2) at 50 digits,
    with u = 4 (1 + t)/(1 - t), at the 64 Chebyshev points t_j = cos(theta_j),
    theta_j = (j + 1/2) pi/64; c_k = (2/64) sum_j f_j cos(k theta_j), c_0
    halved, first 27 kept."""
    n = 64
    with mp.workdps(50):
        thetas = [(j + mp.mpf(1) / 2) * mp.pi / n for j in range(n)]
        values = []
        for theta in thetas:
            t = mp.cos(theta)
            u = 4 * (1 + t) / (1 - t)
            values.append(mp.exp(u * u) * mp.erfc(u) * (1 + u / 2))
        coef = []
        for k in range(len(special_fn._ERFCX_CHEB)):
            c = mp.fsum(v * mp.cos(k * th) for v, th in zip(values, thetas)) * 2 / n
            coef.append(float(c / 2 if k == 0 else c))
    return coef


def test_chebyshev_constants_rebuild_from_mpmath():
    assert _chebyshev_constants() == list(special_fn._ERFCX_CHEB)
