import math

import numpy as np
import pytest

from logndiv.channel import (ChannelSpec, DerivedParams, a_from_rho, batch_rng, derive_params,
                             iter_latent_batches, log_det_mixing, rho_from_a, sample_gains)
from logndiv.errors import DomainError


class TestCorrelationConversions:
    def test_identical_channels(self):
        for L in (2, 4, 8):
            assert rho_from_a(1.0, L) == 1.0

    def test_independent_limit(self):
        assert rho_from_a(1e9, 3) < 1e-8

    def test_hand_value(self):
        assert rho_from_a(3.732051, 2) == pytest.approx(0.5, abs=1e-6)
        assert a_from_rho(0.5, 2) == pytest.approx(3.732050807568877, rel=1e-12)

    def test_round_trip_identity(self):
        for L in range(2, 9):
            for rho in np.arange(0.01, 1.0, 0.01):
                a = a_from_rho(float(rho), L)
                assert abs(rho_from_a(a, L) - rho) < 1e-12

    def test_rho_strictly_decreasing_in_a(self):
        for L in (2, 5, 8):
            grid = np.geomspace(1.01, 1e4, 60)
            vals = [rho_from_a(float(a), L) for a in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_nearly_full_correlation(self):
        # Near rho = 1 the root sits at 1 + O(sqrt(L*(1-rho))).
        eps = 1e-9
        assert a_from_rho(1.0 - eps, 3) == pytest.approx(1.0, abs=3 * (3 * eps) ** 0.5)

    def test_domains(self):
        with pytest.raises(DomainError):
            rho_from_a(0.5, 2)
        with pytest.raises(DomainError):
            a_from_rho(0.0, 2)
        with pytest.raises(DomainError):
            a_from_rho(1.0, 2)


class TestChannelSpec:
    def test_anchor_exclusivity(self):
        with pytest.raises(DomainError):
            ChannelSpec(L=2, rho=0.1, sigma_G=0.5)
        with pytest.raises(DomainError):
            ChannelSpec(L=2, rho=0.1, sigma_G=0.5, mu_G=0.0, Er=1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            ChannelSpec(L=0, rho=0.1, sigma_G=0.5, mu_G=0.0)
        with pytest.raises(DomainError):
            ChannelSpec(L=2, rho=1.0, sigma_G=0.5, mu_G=0.0)
        with pytest.raises(DomainError):
            ChannelSpec(L=2, rho=0.1, sigma_G=0.0, mu_G=0.0)
        with pytest.raises(DomainError):
            ChannelSpec(L=2, rho=0.1, sigma_G=0.5, Er=-1.0)

    def test_from_dict_variants(self):
        base = {"L": 2, "rho": 0.3, "sigma_G": 0.7}
        s1 = ChannelSpec.from_dict({**base, "mu_G": 0.5})
        assert s1.mu_G == 0.5
        s2 = ChannelSpec.from_dict({**base, "Er_watts": 10.0})
        assert s2.Er == 10.0
        s3 = ChannelSpec.from_dict({**base, "Er_dB": 10.0})
        assert s3.Er == pytest.approx(10.0, rel=1e-14)
        with pytest.raises(DomainError):
            ChannelSpec.from_dict({**base, "mu_G": 0.0, "Er_dB": 3.0})
        with pytest.raises(DomainError):
            ChannelSpec.from_dict({**base, "mu_G": 0.0, "bogus": 1})
        with pytest.raises(DomainError):
            ChannelSpec.from_dict({"L": 2, "rho": 0.3, "mu_G": 0.0})

    def test_from_json_diagnostics(self):
        with pytest.raises(DomainError, match="line"):
            ChannelSpec.from_json("{bad json")


class TestDeriveParams:
    def test_er_anchor_resolves_mu(self):
        sg = 0.9
        spec = ChannelSpec(L=2, rho=0.2, sigma_G=sg, Er=math.exp(2 * sg * sg))
        assert derive_params(spec).mu_G == pytest.approx(0.0, abs=1e-14)

    def test_independent_flag(self):
        p = derive_params(ChannelSpec(L=3, rho=0.0, sigma_G=0.8, mu_G=1.0))
        assert p.w == 0.0 and (p.mu_G, p.sigma_G) == (1.0, 0.8)
        with pytest.raises(DomainError):
            p.a

    def test_single_branch_is_independent(self):
        p = derive_params(ChannelSpec(L=1, rho=0.0, sigma_G=0.8, mu_G=0.0))
        assert p.w == 0.0
        with pytest.raises(DomainError):
            p.a

    def test_latent_std_value(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=1.0, mu_G=0.0))
        assert p.sigma_X == pytest.approx(0.258819, abs=1e-6)

    def test_relationship_identities(self):
        for rho in (0.1, 0.4, 0.8):
            for L in (2, 3, 6):
                p = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=0.7, mu_G=1.3))
                assert (p.a + L - 1) * p.mu_X == pytest.approx(p.mu_G, abs=1e-12)
                assert (p.a**2 + L - 1) * p.sigma_X**2 == pytest.approx(
                    p.sigma_G**2, rel=1e-12)

    def test_det_against_direct_determinant(self):
        for L in range(2, 7):
            p = derive_params(ChannelSpec(L=L, rho=0.35, sigma_G=0.7, mu_G=0.0))
            m = np.full((L, L), 1.0) + (p.a - 1.0) * np.eye(L)
            assert math.exp(log_det_mixing(p.a, L)) == pytest.approx(
                float(np.linalg.det(m)), rel=1e-10)

    def test_with_er_rescales_anchor(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, Er=1.0))
        p2 = p.with_er(100.0)
        assert p2.er_watts == pytest.approx(100.0, rel=1e-12)
        assert (p2.a, p2.sigma_X) == (p.a, p.sigma_X)


class TestSampling:
    def test_mean_and_er_anchor(self):
        p = derive_params(ChannelSpec(L=2, rho=0.3, sigma_G=0.5, mu_G=0.25))
        g = sample_gains(p, 10**6, seed=11).latent
        assert abs(g.mean() - 0.25) < 4 * 0.5 / math.sqrt(2e6)
        # Second-moment anchor: E[exp(2G)] = exp(2 mu + 2 sigma^2).
        er_hat = float(np.exp(2 * g).mean())
        assert er_hat == pytest.approx(p.er_watts, rel=0.01)

    def test_pairwise_correlation(self):
        p = derive_params(ChannelSpec(L=3, rho=0.6, sigma_G=0.9, mu_G=0.0))
        g = sample_gains(p, 10**6, seed=4).latent
        c = np.corrcoef(g.T)
        off = c[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off - 0.6) < 0.01)

    def test_identical_channels_at_a_one(self):
        p = DerivedParams.from_a(1.0, 3, 0.8, 0.0)
        g = sample_gains(p, 1000, seed=2).latent
        assert np.allclose(g, g[:, [0]])

    def test_gains_exp_of_latent(self):
        p = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, mu_G=0.0))
        s = sample_gains(p, 5000, seed=8)
        assert np.all(s.gains > 0)
        assert np.array_equal(s.gains, np.exp(s.latent))

    def test_rho0_batch_is_a_direct_draw(self):
        # At w = 0 the mix is skipped: one batch is the plain N(mu_G, sigma_G) draw.
        p = derive_params(ChannelSpec(L=3, rho=0.0, sigma_G=0.8, mu_G=0.3))
        batches = list(iter_latent_batches(p, 5000, seed=17, batch_size=2000))
        expected = batch_rng(17, 1).normal(0.3, 0.8, (2000, 3))
        assert np.array_equal(batches[1], expected)

    def test_bit_exact_reproducibility(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, mu_G=0.0))
        a = sample_gains(p, 30000, seed=123, batch_size=7000).latent
        b = sample_gains(p, 30000, seed=123, batch_size=7000).latent
        assert np.array_equal(a, b)

    def test_batching_is_by_index_not_schedule(self):
        p = derive_params(ChannelSpec(L=2, rho=0.5, sigma_G=0.8, mu_G=0.0))
        batches = list(iter_latent_batches(p, 10000, seed=9, batch_size=2500))
        assert [len(b) for b in batches] == [2500] * 4
        whole = np.concatenate(batches)
        again = np.concatenate(list(iter_latent_batches(p, 10000, seed=9, batch_size=2500)))
        assert np.array_equal(whole, again)

    def test_covariance_structure(self):
        rho, sg, L = 0.5, 0.8, 4
        p = derive_params(ChannelSpec(L=L, rho=rho, sigma_G=sg, mu_G=0.0))
        g = sample_gains(p, 10**6, seed=31).latent
        cov = np.cov(g.T)
        target = sg * sg * ((1 - rho) * np.eye(L) + rho * np.ones((L, L)))
        assert np.max(np.abs(cov - target)) < 0.01

    def test_domain(self):
        p = derive_params(ChannelSpec(L=2, rho=0.0, sigma_G=0.8, mu_G=0.0))
        with pytest.raises(DomainError):
            sample_gains(p, 0, seed=1)
