"""The row form of the noncentral chi-squared kernel, which sums the first
windows of a curve's points in shared passes and hands every other point
to the one-point call, against that call, bit for bit; its pass size and
pass count; and the EGC/MRC curves built on it."""

import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logndiv import asymptotics, special_fn
from logndiv.asymptotics import OutageQuery
from logndiv.channel import ChannelSpec, derive_params
from logndiv.errors import BelowAsymptoticRegimeError, DomainError, SeriesCapError
from logndiv.presets import asymptotic_curve, er_grid_from, figure_curves, load_preset
from logndiv.schemes import SchemeKind
from logndiv.special_fn import _NCX2_CHUNK, _ncx2_cdf_log_rows, noncentral_chi2_cdf_log

property_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _in_one_point_loop():
    """Whether the term step was called from inside noncentral_chi2_cdf_log,
    for a window of the one-point loop; any other call is a row-form pass."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not noncentral_chi2_cdf_log.__code__:
        frame = frame.f_back
    return frame is not None


def _passes(monkeypatch):
    """Record (m0 of each row, m1 of each row) of every pass of the row form's
    window step."""
    seen = []
    step = special_fn._ncx2_block_terms

    def spy(s, y, h, m0, m1):
        if not _in_one_point_loop():
            seen.append((list(m0), list(m1)))
        return step(s, y, h, m0, m1)

    monkeypatch.setattr(special_fn, "_ncx2_block_terms", spy)
    return seen


def _windows(monkeypatch):
    """Record (y, h) of every window of the one-point loop (of every chunk,
    for a window wider than _NCX2_CHUNK terms)."""
    seen = []
    step = special_fn._ncx2_block_terms

    def spy(s, y, h, m0, m1):
        if _in_one_point_loop():
            seen.append((*y, *h))
        return step(s, y, h, m0, m1)

    monkeypatch.setattr(special_fn, "_ncx2_block_terms", spy)
    return seen


def _rows_and_passes(k, rows):
    """The row form over the (lam, x) rows, checked bit for bit against the
    one-point call of each row; the passes that the row form took, and the
    (y, h) of each window that it left to the one-point loop."""
    with pytest.MonkeyPatch.context() as mp:
        seen, windows = _passes(mp), _windows(mp)
        got = _ncx2_cdf_log_rows(k, [lam for lam, _ in rows], [x for _, x in rows])
    ref = [noncentral_chi2_cdf_log(k, lam, x) for lam, x in rows]
    assert [v.hex() for v in got] == [v.hex() for v in ref]
    return seen, windows


# lam log-uniform in [1e-3, 1e4]; x either in the body of the law or deep
# in its lower tail; now and then lam = 0 or x = 0, which need no series.
@st.composite
def pairs(draw, k, n_max=12):
    out = []
    for _ in range(draw(st.integers(0, n_max))):
        lam = 10.0 ** draw(st.floats(-3.0, 4.0))
        if draw(st.booleans()):
            x = max(k + lam + draw(st.floats(-8.0, 6.0)) * math.sqrt(2.0 * (k + 2.0 * lam)), 1e-3)
        else:
            x = (k + lam) * 10.0 ** draw(st.floats(-12.0, 0.0))
        out.append(draw(st.sampled_from([(lam, x), (lam, x), (lam, x), (0.0, x), (lam, 0.0)])))
    return out


@property_settings
@given(st.data(), st.sampled_from([380.0, 2000.0]), st.integers(1, 3))
def test_rows_that_widen_match_one_by_one(data, k, copies):
    # At k = lam = x = 380 and 2000 the first window ends too close to the
    # peak (tests/test_ncx2_oracle.py), so those rows are handed on and widen
    # in the one-point loop: two windows at least for each.
    rows = data.draw(st.permutations(data.draw(pairs(k)) + [(k, k)] * copies))
    _, windows = _rows_and_passes(k, rows)
    assert windows.count((0.5 * k, 0.5 * k)) >= 2 * copies


@property_settings
@given(st.data(), st.sampled_from([16.0, 380.0, 2000.0]), st.integers(1, 3), st.integers(0, 5))
def test_each_pass_sums_first_windows_of_distinct_pairs(data, k, copies, far):
    # A pass holds only the first window of each of its pairs, sqrt(92 r) + 50
    # terms on each side of max(r - s, 0) cut at m = 0, and no pair comes back
    # in a later pass, not even the (k, k) rows that widen. The far rows
    # (19 283 terms or so each) need more than one pass between them.
    rows = [(k, k)] * copies + [(1e6 * (1.0 + 0.1 * j), 2e6) for j in range(far)]
    rows = data.draw(st.permutations(data.draw(pairs(k)) + rows))
    passes = []
    step = special_fn._ncx2_block_terms

    def spy(s, y, h, m0, m1):
        if not _in_one_point_loop():
            passes.append(list(zip(y, h, m0, m1)))
        return step(s, y, h, m0, m1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special_fn, "_ncx2_block_terms", spy)
        _ncx2_cdf_log_rows(k, [lam for lam, _ in rows], [x for _, x in rows])
    for y, h, m0, m1 in (row for p in passes for row in p):
        r = max(y, math.sqrt(y * h))
        centre, half = max(int(r - 0.5 * k), 0), int(math.sqrt(92.0 * r)) + 50
        assert (m0, m1) == (max(centre - half, 0), centre + half + 1)
    taken = Counter((y, h) for p in passes for y, h, _, _ in p)
    assert taken <= Counter((0.5 * x, 0.5 * lam) for lam, x in rows)
    assert taken[(0.5 * k, 0.5 * k)] == copies


@property_settings
@given(st.data(), st.integers(4, 6))
def test_a_block_across_the_pass_cap_matches_one_by_one(data, copies):
    # Each k = 16, lam = 1e6, x = 2e6 window holds 19283 terms, so no more
    # than three of them share a pass of at most _NCX2_CHUNK terms.
    rows = data.draw(st.permutations(data.draw(pairs(16.0, 4)) + [(1e6, 2e6)] * copies))
    seen, _ = _rows_and_passes(16.0, rows)
    assert all(len(m0) * max(b - a for a, b in zip(m0, m1)) <= _NCX2_CHUNK for m0, m1 in seen)
    assert sum(max(b - a for a, b in zip(*p)) == 19283 for p in seen) >= 2


@property_settings
@given(st.data(), st.floats(1.0, 64.0))
def test_rows_that_start_past_zero_match_one_by_one(data, k):
    # With lam above about 1e3 a window starts at m0 > 0, where ln C is seeded
    # by one ln Q(m0 + 1, h) per row.
    far = [(lam, lam * f) for lam, f in data.draw(st.lists(
        st.tuples(st.floats(2e3, 1e5), st.floats(0.3, 1.5)), min_size=2, max_size=8))]
    rows = data.draw(st.permutations(data.draw(pairs(k, 6)) + far))
    seen, _ = _rows_and_passes(k, rows)
    assert any(m > 0 for m0, _ in seen for m in m0)


def test_rows_handed_on_from_a_curve_match_one_by_one():
    # At k = 2e7 a first window of 66 553 terms is wider than a pass; the
    # pair beside it (30 382 terms from m = 0) is not.
    seen, windows = _rows_and_passes(2e7, [(1e6, 2.4e7), (1e6, 2e7)])
    assert [len(m0) for m0, _ in seen] == [1] and (1.2e7, 5e5) in windows
    # Pairs at lam = 0 or x = 0 need no series, so no pass is made.
    seen, windows = _rows_and_passes(3.0, [(0.0, 3.0), (2.0, 0.0), (0.0, 0.0), (0.0, 5e-324)])
    assert seen == [] and windows == []


@pytest.mark.parametrize("lam,x", [(1e8, 1e8), (1.0, 2.2e7)])
def test_a_curve_pair_that_rises_past_the_cap_is_refused_as_one_point(lam, x):
    # At k = 2, x = 2.2e7 the series rises for 1.1e7 terms, past the cap,
    # though its first window (63 723 terms) would fit a pass.
    with pytest.raises(SeriesCapError) as one:
        noncentral_chi2_cdf_log(2.0, lam, x)
    with pytest.raises(SeriesCapError) as rows:
        _ncx2_cdf_log_rows(2.0, [3.0, lam, 3.0], [4.0, x, 1e4])
    assert str(rows.value) == str(one.value)


@pytest.mark.parametrize("lam,x", [(math.nan, 1.0), (1.0, -1.0), (-0.5, 2.0), (1.0, math.inf)])
def test_every_curve_pair_is_checked_before_any_series(lam, x, monkeypatch):
    # The bad pair comes last, after one that rises past the cap and one
    # whose first window is wider than a pass: its DomainError comes first.
    seen, windows = _passes(monkeypatch), _windows(monkeypatch)
    with pytest.raises(DomainError):
        _ncx2_cdf_log_rows(2.0, [3.0, 1e8, 1e6, lam], [4.0, 1e8, 2.4e7, x])
    assert seen == [] and windows == []


def test_a_long_grid_holds_at_most_one_cap_a_pass(monkeypatch):
    # 30 001 EGC points over 0:300:0.01 dB: each pass stays within the cap,
    # and the rows share passes instead of taking one each.
    seen = _passes(monkeypatch)
    spec = ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0)
    grid = er_grid_from({"start": 0.0, "stop": 300.0, "step": 0.01})
    assert len(grid) == 30001
    curve = asymptotic_curve(spec, SchemeKind.EGC, 0.1, grid)
    assert all(p.outage is not None for p in curve.points)
    sizes = [len(m0) * max(b - a for a, b in zip(m0, m1)) for m0, m1 in seen]
    assert max(sizes) <= _NCX2_CHUNK
    assert sum(len(m0) for m0, _ in seen) == len(grid)
    assert len(seen) <= len(grid) // 100


@pytest.mark.parametrize("name", ["fig4", "fig6"])
def test_each_figure_combiner_curve_takes_one_pass(name, monkeypatch):
    seen = _passes(monkeypatch)
    counts = []
    build = asymptotic_curve

    def counted(spec, scheme, *args, **kwargs):
        before = len(seen)
        curve = build(spec, scheme, *args, **kwargs)
        if spec.L > 1 and scheme in (SchemeKind.EGC, SchemeKind.MRC):
            counts.append(len(seen) - before)
        return curve

    import logndiv.presets as presets
    monkeypatch.setattr(presets, "asymptotic_curve", counted)
    figure_curves(name)
    pre = load_preset(name)
    combiners = [s for s in pre["schemes"] if s in ("egc", "mrc")]
    assert counts == [1] * (len(pre["channels"]) * len(combiners))


@property_settings
@given(st.sampled_from([2, 3, 4, 8]), st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99]),
       st.floats(0.3, 3.0), st.sampled_from([SchemeKind.EGC, SchemeKind.MRC]),
       st.lists(st.floats(-20.0, 320.0), min_size=1, max_size=16))
def test_combiner_curve_matches_its_points(L, rho, sigma_g, scheme, dbs):
    params = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=sigma_g, Er=1.0))
    ers = [10.0 ** (db / 10.0) for db in dbs]
    per_point = {SchemeKind.EGC: asymptotics.egc_outage_asym,
                 SchemeKind.MRC: asymptotics.mrc_outage_asym}[scheme]
    for er, got in zip(ers, asymptotics._outage_curve(params, scheme, 0.1, ers)):
        try:
            ref = per_point(params, OutageQuery(0.1, er))
        except BelowAsymptoticRegimeError as exc:
            assert isinstance(got, BelowAsymptoticRegimeError)
            assert str(got) == str(exc) and got.ln_bound == exc.ln_bound
        else:
            assert got == ref
