"""ln Phi against 40-digit mpmath: math.erfc above -37, and the asymptotic
series below it."""

import math

import mpmath as mp
import numpy as np
import pytest

from logndiv import special_fn
from logndiv.special_fn import log_ndtr

_SWITCH = special_fn._LOG_NDTR_SERIES_BELOW
# From -1e5 to 9, densest where ln Phi turns from quadratic to flat, with the
# neighbours of the switch to the series on both sides.
_GRID = np.unique(np.concatenate([
    -np.logspace(5.0, -3.0, 400), np.linspace(-40.0, 9.0, 491),
    [0.0, _SWITCH, np.nextafter(_SWITCH, -np.inf), np.nextafter(_SWITCH, np.inf),
     _SWITCH - 1e-9, _SWITCH + 1e-9]]))


def _reference(a: float) -> float:
    """ln Phi(a) at 40 digits."""
    with mp.workdps(40):
        return float(mp.log(mp.ncdf(mp.mpf(a))))


_REF = np.array([_reference(float(a)) for a in _GRID])


def test_grid_straddles_the_series_switch():
    assert (_GRID < _SWITCH).sum() > 100 and ((_GRID >= _SWITCH) & (_GRID < -30.0)).sum() > 50


def test_float_path_matches_mpmath():
    got = np.array([log_ndtr(float(a)) for a in _GRID])
    assert np.all(np.abs(got - _REF) <= 1e-13 * np.abs(_REF))


@pytest.mark.filterwarnings("error")
def test_infinities_and_far_arguments():
    a = [-math.inf, -1e300, -1e160, 40.0, 1e300, math.inf]
    assert [log_ndtr(v) for v in a] == [-math.inf, -math.inf, -math.inf, 0.0, 0.0, 0.0]
    assert math.isnan(log_ndtr(math.nan))
