"""Configuration, association probabilities, and distance laws."""

import json
import math

import numpy as np
import pytest
import scipy.integrate

from sicnet.errors import ConfigError, DegenerateReaError, DomainError
from sicnet.model import (
    NetworkConfig,
    SicConfig,
    TierParams,
    association_prob_max_power,
    biased_association_prob,
    cancellation_radius,
    config_from_dict,
    config_to_dict,
    db_to_linear,
    equivalent_density,
    linear_to_db,
    load_config,
    nth_interferer_distance_pdf,
    power_weighted_user_density,
    rea_association_prob,
    rea_distance_pdf,
)
from sicnet.model import _rea_exponent_sums


def two_tier(bias2=1.0, alpha=4.0):
    return NetworkConfig(
        tiers=(
            TierParams(1e-5, 10.0, 10.0),
            TierParams(1e-4, 1.0, 1.0, bias=bias2),
        ),
        alpha=alpha,
        mu=1e-4,
        mu_j=1e-4,
    )


def random_config(rng, n_tiers=None):
    k = n_tiers or rng.integers(1, 5)
    tiers = tuple(
        TierParams(
            lam=10.0 ** rng.uniform(-6, -3),
            p_dl=10.0 ** rng.uniform(-1, 2),
            q_ul=10.0 ** rng.uniform(-1, 2),
            bias=rng.uniform(1.0, 10.0),
        )
        for _ in range(k)
    )
    mu = 10.0 ** rng.uniform(-5, -3)
    return NetworkConfig(tiers=tiers, alpha=rng.uniform(2.2, 6.0), mu=mu, mu_j=mu / 2)


class TestTypes:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": -1e-4},
            {"lam": 1e-4, "p_dl": 0.0},
            {"lam": 1e-4, "q_ul": -1.0},
            {"lam": 1e-4, "bias": 0.5},
        ],
    )
    def test_tier_invariants(self, kwargs):
        with pytest.raises(DomainError):
            TierParams(**kwargs)

    def test_network_invariants(self):
        tier = TierParams(1e-4)
        with pytest.raises(DomainError):
            NetworkConfig(tiers=(), alpha=4.0, mu=1e-4, mu_j=1e-4)
        with pytest.raises(DomainError):
            NetworkConfig(tiers=(tier,), alpha=2.0, mu=1e-4, mu_j=1e-4)
        with pytest.raises(DomainError):
            NetworkConfig(tiers=(tier,), alpha=4.0, mu=1e-4, mu_j=2e-4)

    def test_sic_config(self):
        assert SicConfig(1.0, 3).n_max == 3
        with pytest.raises(DomainError):
            SicConfig(0.0, 1)
        with pytest.raises(DomainError):
            SicConfig(1.0, -1)
        for n_max in (1.5, 2.0, "2", None):
            with pytest.raises(DomainError):
                SicConfig(1.0, n_max)
        assert SicConfig(1.0, np.int64(3)).n_max == 3

    def test_db_conversions(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert linear_to_db(db_to_linear(-3.7)) == pytest.approx(-3.7)
        with pytest.raises(DomainError):
            linear_to_db(0.0)


class TestEquivalentDensity:
    def test_single_tier_identity(self):
        cfg = NetworkConfig.single_tier(lam=1e-4, mu_j=1e-4)
        assert equivalent_density(cfg).lambda_eq == pytest.approx(1e-4, rel=1e-14)

    def test_two_tier_value(self):
        eq = equivalent_density(two_tier())
        assert eq.lambda_eq == pytest.approx(1e-5 * math.sqrt(10.0) + 1e-4, rel=1e-12)

    def test_mu_tilde_explicit(self):
        value = power_weighted_user_density([10.0, 1.0], [5e-5, 5e-5], 4.0, 1)
        assert value == pytest.approx(5e-5 * math.sqrt(10.0) + 5e-5, rel=1e-12)

    def test_power_scaling_homogeneity(self):
        # scaling every DL power by c scales lambda_eq by c^(2/alpha)
        rng = np.random.default_rng(7)
        for _ in range(100):
            cfg = random_config(rng)
            c = 10.0 ** rng.uniform(-1, 1)
            scaled = NetworkConfig(
                tiers=tuple(
                    TierParams(t.lam, t.p_dl * c, t.q_ul, t.bias) for t in cfg.tiers
                ),
                alpha=cfg.alpha,
                mu=cfg.mu,
                mu_j=cfg.mu_j,
            )
            ratio = equivalent_density(scaled).lambda_eq / equivalent_density(cfg).lambda_eq
            assert ratio == pytest.approx(c ** (2.0 / cfg.alpha), rel=1e-10)


class TestAssociationProbabilities:
    def test_two_identical_tiers(self):
        cfg = NetworkConfig(
            tiers=(TierParams(1e-4), TierParams(1e-4)), alpha=4.0, mu=1e-4, mu_j=1e-4
        )
        assert association_prob_max_power(cfg, 0) == pytest.approx(0.5)
        assert association_prob_max_power(cfg, 1) == pytest.approx(0.5)

    def test_reference_value(self):
        assert association_prob_max_power(two_tier(), 0) == pytest.approx(
            1e-5 / (1e-5 + 1e-4 * 10.0**-0.5), rel=1e-12
        )

    def test_single_tier_is_one(self):
        cfg = NetworkConfig.single_tier(lam=1e-4, mu_j=1e-4)
        assert association_prob_max_power(cfg, 0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            association_prob_max_power(two_tier(), 2)
        with pytest.raises(DomainError):
            biased_association_prob(two_tier(), -1)

    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = random_config(rng)
            total_plain = sum(
                association_prob_max_power(cfg, k) for k in range(cfg.n_tiers)
            )
            total_biased = sum(
                biased_association_prob(cfg, k) for k in range(cfg.n_tiers)
            )
            assert total_plain == pytest.approx(1.0, abs=1e-12)
            assert total_biased == pytest.approx(1.0, abs=1e-12)

    def test_joint_power_scaling_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            cfg = random_config(rng, n_tiers=3)
            c = 10.0 ** rng.uniform(-1, 1)
            scaled = NetworkConfig(
                tiers=tuple(
                    TierParams(t.lam, t.p_dl * c, t.q_ul, t.bias) for t in cfg.tiers
                ),
                alpha=cfg.alpha,
                mu=cfg.mu,
                mu_j=cfg.mu_j,
            )
            for k in range(3):
                assert association_prob_max_power(scaled, k) == pytest.approx(
                    association_prob_max_power(cfg, k), rel=1e-10
                )

    def test_biased_reduces_to_plain(self):
        cfg = two_tier(bias2=1.0)
        for k in range(2):
            assert biased_association_prob(cfg, k) == pytest.approx(
                association_prob_max_power(cfg, k), rel=1e-14
            )

    def test_biased_reference_value(self):
        cfg = two_tier(bias2=5.0)
        expected = 1e-4 / (1e-4 + 1e-5 * math.sqrt(10.0 / 5.0))
        assert biased_association_prob(cfg, 1) == pytest.approx(expected, rel=1e-12)

    def test_huge_bias_wins(self):
        cfg = two_tier(bias2=1e9)
        assert biased_association_prob(cfg, 1) == pytest.approx(1.0, abs=1e-4)


class TestReaAssociation:
    def test_no_bias_no_rea(self):
        assert rea_association_prob(two_tier(), 1) == pytest.approx(0.0, abs=1e-15)

    def test_two_tier_value(self):
        cfg = two_tier(bias2=5.0)
        expected = biased_association_prob(cfg, 1) - biased_association_prob(
            cfg, 1, bias_k=1.0
        )
        assert rea_association_prob(cfg, 1) == pytest.approx(expected, rel=1e-12)

    def test_simulation_oracle(self):
        # fraction of users whose biased winner is tier 2 while the unbiased
        # winner is a different tier, from per-tier nearest distances
        cfg = two_tier(bias2=5.0)
        rng = np.random.default_rng(42)
        n = 1_000_000
        lam = np.array([t.lam for t in cfg.tiers])
        p = np.array([t.p_dl for t in cfg.tiers])
        b = np.array([t.bias for t in cfg.tiers])
        x2 = rng.exponential(1.0 / (math.pi * lam), size=(n, 2))
        unbiased = p * x2**-2.0
        biased = b * unbiased
        frac = float(
            np.mean((np.argmax(biased, 1) == 1) & (np.argmax(unbiased, 1) != 1))
        )
        target = rea_association_prob(cfg, 1)
        stderr = math.sqrt(target * (1.0 - target) / n)
        assert abs(frac - target) <= 3.0 * stderr


class TestDistanceLaws:
    def test_nearest_pdf_normalizes(self):
        lam = 3e-4
        total, err = scipy.integrate.quad(
            lambda u: nth_interferer_distance_pdf(lam, 1, u), 0.0, np.inf
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nearest_pdf_mode(self):
        lam = 1e-4
        mode = 1.0 / math.sqrt(2.0 * math.pi * lam)
        grid = np.linspace(0.5 * mode, 1.5 * mode, 2001)
        vals = nth_interferer_distance_pdf(lam, 1, grid)
        assert grid[int(np.argmax(vals))] == pytest.approx(mode, rel=1e-3)

    def test_nearest_pdf_sampling(self):
        lam = 1e-4
        rng = np.random.default_rng(5)
        n = 100_000
        # nearest point of a PPP: distance^2 is exponential
        samples = np.sqrt(rng.exponential(1.0 / (math.pi * lam), n))
        grid = np.linspace(1.0, 200.0, 100)
        emp = np.searchsorted(np.sort(samples), grid) / n
        ana = 1.0 - np.exp(-lam * math.pi * grid**2)
        assert float(np.max(np.abs(emp - ana))) <= 0.01

    def test_nth_pdf_reduces_to_nearest(self):
        for r in (10.0, 50.0, 120.0):
            assert nth_interferer_distance_pdf(1e-4, 1, r) == pytest.approx(
                2.0 * math.pi * 1e-4 * r * math.exp(-1e-4 * math.pi * r * r), rel=1e-12
            )

    def test_nth_pdf_square_moment(self):
        mu_j, n = 1e-4, 4
        moment, _ = scipy.integrate.quad(
            lambda r: r * r * nth_interferer_distance_pdf(mu_j, n, r), 1e-9, np.inf
        )
        assert moment == pytest.approx(n / (mu_j * math.pi), rel=1e-6)

    def test_nth_pdf_sampling(self):
        # 3rd nearest distance: sum of three exponential spacings in r^2
        mu_j, n_order = 1e-4, 3
        rng = np.random.default_rng(6)
        n = 100_000
        r = np.sqrt(rng.exponential(1.0 / (math.pi * mu_j), (n, n_order)).sum(axis=1))
        grid = np.linspace(20.0, 250.0, 120)
        emp = np.searchsorted(np.sort(r), grid) / n
        cdf = np.array(
            [
                scipy.integrate.quad(
                    lambda x: nth_interferer_distance_pdf(mu_j, n_order, x), 1e-9, g
                )[0]
                for g in grid
            ]
        )
        assert float(np.max(np.abs(emp - cdf))) <= 0.01

    def test_cancellation_radius(self):
        assert cancellation_radius(1e-4, 0) == 0.0
        assert cancellation_radius(1e-4, 1) == pytest.approx(56.418958, rel=1e-6)
        for n in range(1, 8):
            r = cancellation_radius(1e-4, n)
            assert 1e-4 * math.pi * r * r == pytest.approx(n, rel=1e-12)
            assert r > cancellation_radius(1e-4, n - 1)


class TestReaDistancePdf:
    def test_normalizes(self):
        cfg = two_tier(bias2=5.0)
        total, _ = scipy.integrate.quad(
            lambda x: rea_distance_pdf(cfg, 1, x), 0.0, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_equal_biases_vanish_pointwise(self):
        # before normalization the two exponentials coincide when all tier
        # biases are equal, so the unnormalized density is identically zero
        cfg = NetworkConfig(
            tiers=(
                TierParams(1e-5, 10.0, bias=3.0),
                TierParams(1e-4, 1.0, bias=3.0),
            ),
            alpha=4.0,
            mu=1e-4,
            mu_j=1e-4,
        )
        s_biased, s_unbiased = _rea_exponent_sums(cfg, 1)
        assert s_biased == pytest.approx(s_unbiased, rel=1e-14)

    def test_degenerate_rea_raises(self):
        with pytest.raises(DegenerateReaError):
            rea_distance_pdf(two_tier(bias2=1.0), 1, 10.0)


class TestConfigIo:
    def payload(self):
        return {
            "alpha": 4.0,
            "mu": 1e-4,
            "mu_j": 1e-4,
            "tiers": [
                {"lambda": 1e-5, "p_dl": 10.0, "q_ul": 10.0},
                {"lambda": 1e-4, "p_dl": 1.0, "q_ul": 1.0, "bias": 5.0},
            ],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(self.payload()))
        cfg = load_config(path)
        assert cfg.n_tiers == 2
        assert cfg.tiers[1].bias == 5.0
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_keys_rejected(self):
        bad = self.payload()
        bad["noise_figure"] = 7.0
        with pytest.raises(ConfigError, match="noise_figure"):
            config_from_dict(bad)
        bad = self.payload()
        bad["tiers"][0]["power"] = 3.0
        with pytest.raises(ConfigError, match="power"):
            config_from_dict(bad)

    def test_missing_keys_rejected(self):
        bad = self.payload()
        del bad["mu_j"]
        with pytest.raises(ConfigError, match="mu_j"):
            config_from_dict(bad)

    def test_invalid_values_surface_cleanly(self):
        bad = self.payload()
        bad["tiers"][0]["lambda"] = -1.0
        with pytest.raises(ConfigError, match="tier 1"):
            config_from_dict(bad)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
