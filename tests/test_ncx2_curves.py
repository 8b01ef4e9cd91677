"""Closed-form curves against the per-point functions, bit for bit: each
point of an EGC/MRC outage curve or of an asymptotic sum-CDF curve is the
per-point value, or carries the note of the per-point error. Also the
kernel's refusals, which come before either of its routes, and a long curve
grid."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logndiv import asymptotics, special_fn
from logndiv.asymptotics import OutageQuery
from logndiv.channel import ChannelSpec, derive_params
from logndiv.errors import BelowAsymptoticRegimeError, DomainError, SeriesCapError
from logndiv.presets import _below_er, asymptotic_curve, er_grid_from, sumcdf_curve
from logndiv.schemes import SchemeKind
from logndiv.special_fn import noncentral_chi2_cdf_log

property_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@property_settings
@given(st.sampled_from([2, 3, 4, 8]), st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99]),
       st.floats(0.3, 3.0), st.sampled_from([SchemeKind.EGC, SchemeKind.MRC]),
       st.lists(st.integers(-200, 3200), min_size=1, max_size=16, unique=True).map(sorted))
def test_combiner_curve_matches_its_points(L, rho, sigma_g, scheme, tenths_db):
    spec = ChannelSpec(L=L, rho=rho, sigma_G=sigma_g, Er=1.0)
    params = derive_params(spec)
    ers = [10.0 ** (t / 100.0) for t in tenths_db]
    per_point = {SchemeKind.EGC: asymptotics.egc_outage_asym,
                 SchemeKind.MRC: asymptotics.mrc_outage_asym}[scheme]
    for er, got in zip(ers, asymptotic_curve(spec, scheme, 0.1, ers).points):
        try:
            ref = per_point(params, OutageQuery(0.1, er))
        except BelowAsymptoticRegimeError as exc:
            assert got.outage is None and got.note == _below_er(exc)
        else:
            assert got.outage == ref if ref <= 1.0 else got.note.startswith("above_unity;")


@property_settings
@given(st.sampled_from([2, 3, 4, 8]), st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99]),
       st.floats(-3.0, 3.0), st.floats(0.3, 3.0),
       st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=16, unique=True).map(sorted))
def test_sumcdf_curve_matches_its_points(L, rho, mu_g, sigma_g, ys):
    for y, got in zip(ys, sumcdf_curve(L, rho, mu_g, sigma_g, ys, "asym").points):
        try:
            ref = asymptotics.sum_lognormal_cdf_asym(L, rho, mu_g, sigma_g, y)
        except BelowAsymptoticRegimeError:
            assert got.outage is None and got.note == "beyond_tail_region"
        else:
            assert got.outage == ref if ref <= 1.0 else got.note.startswith("above_unity;")


def test_a_curve_point_that_rises_past_the_cap_is_refused_as_one_point():
    # At L = 2, rho = 0.9999 the EGC series at 100 dB rises for about 3e8
    # terms: the curve raises the SeriesCapError of its first such point.
    spec = ChannelSpec(L=2, rho=0.9999, sigma_G=0.8, Er=1.0)
    with pytest.raises(SeriesCapError) as one:
        asymptotics.egc_outage_asym(derive_params(spec), OutageQuery(0.1, 1e10))
    with pytest.raises(SeriesCapError) as curve:
        asymptotic_curve(spec, SchemeKind.EGC, 0.1, [1e10, 1e12])
    assert str(curve.value) == str(one.value)


def test_points_below_the_regime_share_one_error():
    spec = ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0)
    got = asymptotic_curve(spec, SchemeKind.MRC, 1000.0, [1e-3, 1e-2, 1e30]).points
    assert got[0].outage is None and got[0].note.startswith("below_asymptotic_regime;")
    assert got[1].outage is None and got[1].note == got[0].note
    assert 0.0 < got[2].outage < 1.0


def _routes(monkeypatch):
    """Record every call of either route of the kernel: the Bessel series
    and the Ding window's term step."""
    seen = []
    for name in ("_ncx2_bessel_log", "_ncx2_block_terms"):
        route = getattr(special_fn, name)

        def spy(*args, route=route, name=name):
            seen.append(name)
            return route(*args)

        monkeypatch.setattr(special_fn, name, spy)
    return seen


@pytest.mark.parametrize("lam,x", [(1e8, 1e8), (1.0, 2.2e7), (4.4e7, 1.1e7)])
def test_a_pair_that_rises_past_the_cap_is_refused_before_either_route(lam, x, monkeypatch):
    # At k = 2, x = 2.2e7 the series rises for 1.1e7 terms, past the cap,
    # though its first window (63 723 terms) would fit a pass of the term
    # step; at lam = 4.4e7, x = 1.1e7 (below lam) sqrt(y h) is 1.1e7.
    seen = _routes(monkeypatch)
    with pytest.raises(SeriesCapError):
        noncentral_chi2_cdf_log(2.0, lam, x)
    assert seen == []


@pytest.mark.parametrize("lam,x", [(math.nan, 1.0), (1.0, -1.0), (-0.5, 2.0), (1.0, math.inf)])
def test_a_bad_pair_is_refused_before_either_route(lam, x, monkeypatch):
    seen = _routes(monkeypatch)
    with pytest.raises(DomainError):
        noncentral_chi2_cdf_log(2.0, lam, x)
    assert seen == []


@pytest.mark.parametrize("lam,x", [(0.0, 3.0), (2.0, 0.0), (0.0, 0.0), (0.0, 5e-324)])
def test_a_pair_at_lam_or_x_zero_takes_neither_route(lam, x, monkeypatch):
    seen = _routes(monkeypatch)
    got = noncentral_chi2_cdf_log(3.0, lam, x)
    assert seen == []
    assert (got == -math.inf) == (x == 0.0)


@pytest.mark.parametrize("k,lam,x", [(16.0, 16.0, 16.0), (380.0, 380.0, 380.0),
                                     (2000.0, 2000.0, 2000.0), (16.0, 1e6, 2e6),
                                     (16.0, 1.5e6, 2e6), (2.0, 3.0, 4.0)])
def test_a_first_window_spans_its_stated_terms(k, lam, x, monkeypatch):
    # At x >= lam the first window holds sqrt(92 r) + 50 terms on each side
    # of max(r - s, 0), cut at m = 0; k = lam = x = 380 and 2000 then widen.
    seen = []
    terms = special_fn._ncx2_block_terms

    def spy(s, y, h, m0, m1):
        seen.append((m0, m1))
        return terms(s, y, h, m0, m1)

    monkeypatch.setattr(special_fn, "_ncx2_block_terms", spy)
    noncentral_chi2_cdf_log(k, lam, x)
    r = max(0.5 * x, 0.5 * math.sqrt(x * lam))
    centre, half = max(int(r - 0.5 * k), 0), int(math.sqrt(92.0 * r)) + 50
    assert seen[0] == (max(centre - half, 0), centre + half + 1)


def test_a_long_grid_sets_every_point():
    # 30 001 EGC points over 0:300:0.01 dB, each one kernel call.
    spec = ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0)
    grid = er_grid_from({"start": 0.0, "stop": 300.0, "step": 0.01})
    assert len(grid) == 30001
    curve = asymptotic_curve(spec, SchemeKind.EGC, 0.1, grid)
    assert all(p.outage is not None for p in curve.points)
