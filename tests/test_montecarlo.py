import math

import mpmath as mp
import numpy as np
import pytest

from logndiv import channel
from logndiv.asymptotics import OutageQuery
from logndiv.channel import ChannelSpec, derive_params
from logndiv.errors import DomainError
from logndiv.montecarlo import (_Z975, SimConfig, SimEstimate, _binomial_cdf_root,
                                _estimate_from_hits, point_seed, simulate_outage,
                                simulate_outage_multi, sweep)
from logndiv.oracles import sc_outage_exact_indep
from logndiv.presets import simulated_curves
from logndiv.schemes import SchemeKind, combiner_snr

ALL = [SchemeKind.SC, SchemeKind.EGC, SchemeKind.MRC]

def indep_params(sigma=0.8, L=2, mu=0.0):
    return derive_params(ChannelSpec(L=L, rho=0.0, sigma_G=sigma, mu_G=mu))

class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(samples=100, seed=1)

class TestSimulateOutage:
    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(channel, "BATCH_ROWS", 9_000)
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=10.0))
        q = OutageQuery(0.1, 10.0)
        cfg = SimConfig(samples=50_000, seed=7)
        a = simulate_outage(p, SchemeKind.SC, q, cfg)
        b = simulate_outage(p, SchemeKind.SC, q, cfg)
        assert a == b

    def test_single_branch_schemes_coincide(self):
        p = indep_params(L=1)
        q = OutageQuery(0.1, 5.0)
        cfg = SimConfig(samples=20_000, seed=3)
        est = simulate_outage_multi(p, ALL, q, cfg)
        assert est[SchemeKind.SC] == est[SchemeKind.EGC] == est[SchemeKind.MRC]

    def test_repeated_scheme_is_counted_once(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        q, cfg = OutageQuery(0.1, 1.0), SimConfig(samples=2_000, seed=1)
        twice = simulate_outage_multi(p, [SchemeKind.SC, SchemeKind.EGC, SchemeKind.SC], q, cfg)
        assert twice == simulate_outage_multi(p, [SchemeKind.SC, SchemeKind.EGC], q, cfg)

    def test_query_er_wins_over_params_anchor(self):
        # The params are anchored at 0 dB, the query at 20 dB: the estimate is
        # the 20 dB outage (closed form 8.75e-6), not the 0 dB one (0.129).
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        q = OutageQuery(0.1, 100.0)
        cfg = SimConfig(100_000, 3)
        est = simulate_outage(p, SchemeKind.SC, q, cfg)
        assert est.p_hat < 1e-3
        assert est == simulate_outage(p.with_er(100.0), SchemeKind.SC, q, cfg)

    def test_quarter_point(self):
        # Independent dual-branch SC at Er = gamma * exp(2 sigma^2): the exact
        # outage is Q(0)^2 = 1/4.
        sg, gamma = 0.8, 0.1
        er = gamma * math.exp(2 * sg * sg)
        p = indep_params(sigma=sg).with_er(er)
        est = simulate_outage(p, SchemeKind.SC, OutageQuery(gamma, er),
                              SimConfig(samples=100_000, seed=5))
        assert abs(est.p_hat - 0.25) < 3 * est.stderr

    def test_pathwise_ordering(self):
        # MRC SNR dominates both EGC's and SC's draw by draw, so its hit
        # count cannot exceed theirs on a common stream; EGC vs SC is only a
        # statistical ordering.
        p = derive_params(ChannelSpec(L=3, rho=0.3, sigma_G=0.9, Er=3.0))
        q = OutageQuery(0.1, 3.0)
        for seed in (1, 2, 3, 4, 5):
            est = simulate_outage_multi(p, ALL, q, SimConfig(samples=30_000, seed=seed))
            assert est[SchemeKind.MRC].hits <= est[SchemeKind.EGC].hits
            assert est[SchemeKind.MRC].hits <= est[SchemeKind.SC].hits

    def test_statistical_ordering_egc_below_sc(self):
        p = derive_params(ChannelSpec(L=3, rho=0.3, sigma_G=0.9, Er=10.0))
        q = OutageQuery(0.1, 10.0)
        est = simulate_outage_multi(p, ALL, q, SimConfig(samples=200_000, seed=11))
        assert est[SchemeKind.EGC].p_hat < est[SchemeKind.SC].p_hat

    def test_matches_exact_closed_form(self):
        sg, gamma = 0.8, 0.1
        er = 8.0
        p = indep_params(sigma=sg).with_er(er)
        exact = sc_outage_exact_indep(2, 0.5 * math.log(er) - sg * sg, sg, gamma)
        est = simulate_outage(p, SchemeKind.SC, OutageQuery(gamma, er),
                              SimConfig(samples=10**6, seed=13))
        assert abs(est.p_hat - exact) < 3 * est.stderr

    def test_resolution_exhausted_flag(self):
        p = indep_params().with_er(1e8)
        est = simulate_outage(p, SchemeKind.MRC, OutageQuery(0.1, 1e8),
                              SimConfig(samples=2_000, seed=1))
        assert est.hits == 0 and est.resolution_exhausted
        assert est.p_upper_95 == pytest.approx(3.0 / 2000)

    def test_clopper_pearson_attached_for_rare_hits(self):
        # Tune Er so a handful of hits land in 20k trials.
        sg, gamma = 0.8, 0.1
        er = gamma * math.exp(2 * (2.0 * sg + sg * sg))
        p = indep_params(sigma=sg).with_er(er)
        est = simulate_outage(p, SchemeKind.SC, OutageQuery(gamma, er),
                              SimConfig(samples=20_000, seed=2))
        assert 0 < est.hits < 30
        lo, hi = est.ci95
        assert 0.0 <= lo < est.p_hat < hi < 1.0

    @pytest.mark.parametrize("n", [31, 50, 20_000, 10 ** 6, 10 ** 9])
    def test_clopper_pearson_ends_match_independent_inverses(self, n):
        # scipy's betaincinv is the reference, except for the upper end from
        # n = 1e6, where it is itself off by up to 9e-9 (1e-11 at 1e6) against
        # the 40-digit root of the binomial CDF, which serves there instead.
        from scipy.special import betaincinv

        for hits in range(1, 30):
            lo, hi = _estimate_from_hits(hits, n).ci95
            assert lo == pytest.approx(betaincinv(hits, n - hits + 1, 0.025), rel=1e-12, abs=0.0)
            ref_hi = betaincinv(hits + 1, n - hits, 0.975)
            if n >= 10 ** 6:
                ref_hi = _binomial_cdf_root_40_digits(hits, n, 0.025, ref_hi)
            assert hi == pytest.approx(ref_hi, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z", [-3.0, 8.0, 1e5])
    def test_interval_solver_recovers_from_a_poor_start(self, z):
        # z sets only the start. At z = 1e5 it lies near p = 0.9, where the
        # binomial sum overflows at n = 1e12; the bracket still leads to the end.
        n = 10 ** 12
        ratios = [(n - j) / (j + 1) for j in range(29)]
        ref = _binomial_cdf_root(n, ratios, 0.025, _Z975)
        assert _binomial_cdf_root(n, ratios, 0.025, z) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1_000, 10 ** 6, 10 ** 9])
    def test_zero_hit_upper_end_is_exact(self, n):
        # (1 - p)^n = 0.025; 1 - 0.025^(1/n) would lose 8 digits at n = 1e9.
        with mp.workdps(40):
            ref = float(1 - mp.mpf("0.025") ** (mp.mpf(1) / n))
        assert _estimate_from_hits(0, n).ci95 == (0.0, pytest.approx(ref, rel=1e-14, abs=0.0))

    def test_clopper_pearson_when_every_draw_hits(self):
        from scipy.special import betaincinv

        for n in (1, 5, 29):
            lo, hi = _estimate_from_hits(n, n).ci95
            assert hi == 1.0
            assert lo == pytest.approx(betaincinv(n, 1, 0.025), rel=1e-12, abs=0.0)

    def test_stderr_consistency(self):
        est = SimEstimate(p_hat=0.25, stderr=math.sqrt(0.25 * 0.75 / 1000), n=1000, hits=250)
        assert est.stderr == pytest.approx(math.sqrt(est.p_hat * (1 - est.p_hat) / est.n))

def _binomial_cdf_root_40_digits(k: int, n: int, alpha: float, near: float) -> float:
    """The p with Pr{Bin(n, p) <= k} = alpha at 40 digits, bracketed within
    1e-6 of `near`."""
    with mp.workdps(40):
        def excess(p):
            return mp.fsum(mp.binomial(n, j) * p ** j * (1 - p) ** (n - j)
                           for j in range(k + 1)) - alpha
        near = mp.mpf(near)
        return float(mp.findroot(excess, (near * (1 - mp.mpf(1e-6)), near * (1 + mp.mpf(1e-6))),
                                 solver="anderson"))


class TestSweep:
    def test_monotone_trend_up_to_noise(self):
        spec = ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0)
        grid = [10 ** (db / 10) for db in (0, 5, 10, 15)]
        [c] = simulated_curves(spec, [SchemeKind.SC], 0.1, grid, SimConfig(samples=100_000, seed=21))
        pts = c.points
        for a, b in zip(pts, pts[1:]):
            assert b.outage <= a.outage + 3 * ((a.stderr or 0) + (b.stderr or 0))

    def test_bit_identical_curves_across_runs(self, monkeypatch):
        monkeypatch.setattr(channel, "BATCH_ROWS", 6_000)
        spec = ChannelSpec(L=2, rho=0.1, sigma_G=0.8, Er=1.0)
        grid = [1.0, 10.0, 100.0]
        cfg = SimConfig(samples=20_000, seed=9)
        c1 = simulated_curves(spec, [SchemeKind.EGC], 0.1, grid, cfg)
        c2 = simulated_curves(spec, [SchemeKind.EGC], 0.1, grid, cfg)
        assert c1 == c2

    def test_exhausted_points_annotated(self):
        spec = ChannelSpec(L=2, rho=0.1, sigma_G=0.8, Er=1.0)
        [c] = simulated_curves(spec, [SchemeKind.MRC], 0.1, [1e8], SimConfig(samples=2_000, seed=1))
        assert "resolution_exhausted" in c.points[0].note
        assert "p_upper_95" in c.points[0].note

    def test_every_point_and_scheme_counted_from_one_stream(self, monkeypatch):
        # Point 0 is the one-point estimate at er_grid[0] with the same cfg,
        # the same whichever schemes are asked for.
        monkeypatch.setattr(channel, "BATCH_ROWS", 2_000)
        p = derive_params(ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0))
        grid = [1.0, 10.0, 100.0]
        cfg = SimConfig(samples=5_000, seed=4)
        est = sweep(p, ALL, 0.1, grid, cfg)
        assert {s: est[s][0] for s in ALL} == simulate_outage_multi(p, ALL, OutageQuery(0.1, 1.0), cfg)
        for s in ALL:
            assert sweep(p, [s], 0.1, grid, cfg) == {s: est[s]}
            assert sweep(p, [s, s], 0.1, grid, cfg) == {s: est[s]}
        assert sweep(p, ALL, 0.1, [], cfg) == {s: [] for s in ALL}

    def test_hits_never_rise_along_a_fine_grid(self, monkeypatch):
        # One stream serves the whole grid, so a higher power can only drop
        # draws from outage; independent streams per point would jitter.
        monkeypatch.setattr(channel, "BATCH_ROWS", 2_000)
        p = derive_params(ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0))
        grid = [1.0 + 1e-3 * i for i in range(6)]
        est = sweep(p, ALL, 0.1, grid, SimConfig(samples=5_000, seed=4))
        for s in ALL:
            hits = [e.hits for e in est[s]]
            assert hits[0] > 0 and all(b <= a for a, b in zip(hits, hits[1:])), (s, hits)

    def test_default_stream_across_a_batch_boundary(self):
        # 1.5e6 samples span two batches of the default size (10^6 rows, then
        # 5e5): these counts pin the default stream, batch boundary included.
        p = derive_params(ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0))
        est = sweep(p, ALL, 0.1, [1.0, 10.0], SimConfig(1_500_000, 11))
        assert {s: [e.hits for e in est[s]] for s in ALL} == {
            SchemeKind.SC: [296330, 22127], SchemeKind.EGC: [226012, 11517],
            SchemeKind.MRC: [190005, 8888]}

    def test_counts_match_counting_from_an_exponentiated_copy(self, monkeypatch):
        # sweep exponentiates each batch in place; counting every scheme from
        # a copy of the gains, as it once did, gives the same hits.
        monkeypatch.setattr(channel, "BATCH_ROWS", 3_000)
        p = derive_params(ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0))
        grid = [1.0, 10.0, 100.0]
        cfg = SimConfig(samples=10_000, seed=5)
        ref = {s: [0] * len(grid) for s in ALL}
        for latent in channel.iter_latent_batches(p.with_er(grid[0]), cfg.samples, cfg.seed):
            gains = np.exp(latent)
            for s in ALL:
                snr = combiner_snr(s, gains)
                for i, er in enumerate(grid):
                    ref[s][i] += int(np.count_nonzero(snr < 0.1 * (grid[0] / er)))
        est = sweep(p, ALL, 0.1, grid, cfg)
        assert {s: [e.hits for e in est[s]] for s in ALL} == ref
        assert all(h > 0 for h in ref[SchemeKind.MRC])

    def test_correlation_ordering_at_moderate_snr(self):
        # Stronger correlation hurts: simulated SC outage increases with rho
        # at a fixed moderate power (dual-branch family, common threshold).
        er = 10.0 ** 1.0
        estimates = []
        for rho in (0.1, 0.5, 0.9):
            p = derive_params(ChannelSpec(L=2, rho=rho, sigma_G=0.8, Er=er))
            est = simulate_outage(p, SchemeKind.SC, OutageQuery(0.1, er),
                                  SimConfig(samples=200_000, seed=14))
            estimates.append(est)
        for lo, hi in zip(estimates, estimates[1:]):
            assert hi.p_hat > lo.p_hat + 3 * (lo.stderr + hi.stderr)

    def test_point_seeds_differ(self):
        assert point_seed(1, 0) != point_seed(1, 1)
        assert point_seed(1, 0) == point_seed(1, 0)
        assert point_seed(1, 0) != point_seed(2, 0)
