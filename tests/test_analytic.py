"""Closed-form probabilities against independent oracles.

Oracles used here: scipy QUADPACK integration of the raw decode integral, a
dedicated sampling experiment for the truncated decode law (interferers
removed inside the cancellation disk, serving distance gated at the disk
edge), brute-force series summation for the load model, empirical order
statistics for the minimum load, and load-by-load and level-by-level sums
as references for the array forms of the rate coverages and the SIC sum.
"""

import inspect
import math

import numpy as np
import pytest
import scipy.integrate

from sicnet.errors import DegenerateReaError, DomainError
from sicnet.experiments import DENSITY_MACRO, FIG3_ETA_DB, FIG3_N_MAX
from sicnet.model import NetworkConfig, TierParams, cancellation_radius
from sicnet.numerics import c_integral
from sicnet.analytic import (
    SicGainBreakdown,
    kurtosis_after_cancellation,
    load_order_statistic_pmf,
    load_pmf,
    load_pmf_table,
    outage_max_inst_sir,
    ps_can,
    ps_can_tsd,
    ps_ic,
    ps_ic_rea,
    ps_plain,
    ps_sic,
    ps_sic_max_inst_sir,
    rate_coverage_max_sir,
    rate_coverage_min_load,
    tsd_conditional_cancel_prob,
    tsd_cumulant,
)

from oracles import nth_interferer_distance_pdf

LAM = MU = 1e-4


def two_tier(bias2=1.0):
    return NetworkConfig(
        tiers=(TierParams(1e-5, 10.0, 10.0), TierParams(1e-4, 1.0, 1.0, bias=bias2)),
        alpha=4.0,
        mu=1e-4,
        mu_j=1e-4,
    )


def decode_integral_oracle(eta, n, lambda_eq, mu_j, alpha):
    """QUADPACK evaluation of the decode-after-n-cancellations integral,
    split at pi u^2 = pi r_n^2 + j / (lambda_eq + mu_j), j = 0.5, 1, 2, ...,
    64, and run to infinity past the last split.  One ``quad`` from r_n to
    infinity misses mass where the integrand decays fast next to r_n (3.0e-8
    low at alpha 2.4, lambda_eq / mu_j 0.1, -5 dB, n = 2)."""
    e = 2.0 / alpha
    r_n = cancellation_radius(mu_j, n)

    def integrand(u):
        b_arg = r_n * r_n / (eta**e * u * u) if r_n > 0.0 else 0.0
        return (
            math.exp(-math.pi * mu_j * eta**e * u * u * c_integral(b_arg, alpha))
            * 2.0
            * math.pi
            * lambda_eq
            * u
            * math.exp(-lambda_eq * math.pi * u * u)
        )

    scale = math.pi * (lambda_eq + mu_j)
    edges = [r_n] + [math.sqrt(r_n * r_n + j / scale) for j in 0.5 * 2.0 ** np.arange(8)]
    value = 0.0
    for lo, hi in zip(edges, edges[1:] + [np.inf]):
        part, err = scipy.integrate.quad(integrand, lo, hi, limit=300)
        assert err < 1e-7
        value += part
    return value


def reference_load_table(mu_j, lam, tail=1e-12):
    """f_M(0..M) by the scalar law, one load at a time, up to the first M
    whose cumulative mass reaches 1 - tail."""
    values, cumulative = [], 0.0
    for m in range(100_001):
        values.append(load_pmf(m, mu_j, lam))
        cumulative += values[-1]
        if cumulative >= 1.0 - tail:
            return np.array(values)
    raise AssertionError("tail not reached")


def reference_rate_coverage_max_sir(rho, lam, mu_j, alpha):
    """The max-SIR rate coverage summed load by load."""
    total = 0.0
    for m, f in enumerate(reference_load_table(mu_j, lam)):
        x = rho * (m + 1) * math.log(2.0)
        if x > 700.0:
            continue
        t = math.expm1(x) ** (2.0 / alpha)
        total += f / (1.0 + t * c_integral(1.0 / t, alpha))
    return total


def reference_rate_coverage_min_load(rho, lam, mu_j, alpha, r_con):
    """The min-load rate coverage summed load by load; the minimum of n iid
    loads takes m with probability (1 - F(m-1))^n - (1 - F(m))^n."""
    n_aps = math.floor(lam * math.pi * r_con * r_con)
    cdf = np.cumsum(reference_load_table(mu_j, lam))
    disk = math.pi * lam * r_con * r_con
    total = 0.0
    for m in range(len(cdf)):
        lo = cdf[m - 1] if m > 0 else 0.0
        w = (1.0 - lo) ** n_aps - (1.0 - cdf[m]) ** n_aps
        x = rho * (m + 1) * math.log(2.0)
        if x > 700.0:
            continue
        s = disk * math.expm1(x) ** (2.0 / alpha) * c_integral(0.0, alpha)
        total += w * (-math.expm1(-s) / s if s > 1e-8 else 1.0 - 0.5 * s)
    return total


class TestPsPlain:
    def test_reference_value(self):
        assert ps_plain(1.0, LAM, MU, 4.0) == pytest.approx(
            1.0 / (1.0 + math.pi / 2.0), rel=1e-12
        )

    def test_vanishing_threshold(self):
        assert ps_plain(1e-12, LAM, MU, 4.0) == pytest.approx(1.0, abs=1e-5)

    def test_matches_integral_oracle(self):
        for eta in (0.3, 1.0, 5.0):
            assert ps_plain(eta, LAM, MU, 4.0) == pytest.approx(
                decode_integral_oracle(eta, 0, LAM, MU, 4.0), abs=1e-8
            )

    def test_monotone(self):
        assert ps_plain(2.0, LAM, MU, 4.0) < ps_plain(1.0, LAM, MU, 4.0)
        assert ps_plain(1.0, LAM, 2 * MU, 4.0) < ps_plain(1.0, LAM, MU, 4.0)


class TestPsIc:
    def test_reduces_to_plain(self):
        assert ps_ic(1.0, 0, LAM, MU, 4.0) == pytest.approx(
            ps_plain(1.0, LAM, MU, 4.0), abs=1e-8
        )

    # alpha x lambda_eq / mu_j x eta (dB): 364 points, past the figures'
    # alpha = 4, lambda_eq = mu_j and eta <= 10 dB
    PLAIN_MAP = (
        (2.1, 2.2, 2.3, 2.35, 2.4, 2.5, 2.7, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0),
        (0.1, 0.47, 1.0, 10.0),
        (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    )

    def test_reduces_to_plain_across_the_domain(self):
        # n = 0 is ps_plain's closed form, however fast the decode
        # integrand decays next to tau0
        for alpha in self.PLAIN_MAP[0]:
            for ratio in self.PLAIN_MAP[1]:
                for eta_db in self.PLAIN_MAP[2]:
                    eta = 10.0 ** (eta_db / 10.0)
                    got = ps_ic(eta, 0, ratio * MU, MU, alpha)
                    want = ps_plain(eta, ratio * MU, MU, alpha)
                    assert got == pytest.approx(want, rel=1e-9), (alpha, ratio, eta_db)

    def test_vanishing_threshold_keeps_truncation_mass(self):
        # the serving-distance integral starts at the cancellation radius and
        # is deliberately not renormalized, so eta -> 0 leaves exp(-1)
        assert ps_ic(1e-12, 1, MU, MU, 4.0) == pytest.approx(math.exp(-1.0), abs=1e-5)

    def test_matches_quadpack_oracle(self):
        for eta, n in ((1.0, 1), (0.5, 2), (3.0, 1)):
            assert ps_ic(eta, n, LAM, MU, 4.0) == pytest.approx(
                decode_integral_oracle(eta, n, LAM, MU, 4.0), abs=1e-8
            )
        # the map of test_reduces_to_plain_across_the_domain for n = 1..3, at
        # the closed form's quadrature tolerance (largest gap 1.6e-15)
        for alpha in self.PLAIN_MAP[0]:
            for ratio in self.PLAIN_MAP[1]:
                for eta_db in self.PLAIN_MAP[2]:
                    eta = 10.0 ** (eta_db / 10.0)
                    for n in (1, 2, 3):
                        got = ps_ic(eta, n, ratio * MU, MU, alpha)
                        want = decode_integral_oracle(eta, n, ratio * MU, MU, alpha)
                        assert got == pytest.approx(want, abs=1e-12), (alpha, ratio, eta_db, n)

    def test_matches_sampling_oracle(self):
        # interferers removed inside the cancellation disk, serving distance
        # drawn from the full nearest-AP law and gated at the disk edge
        eta, n = 1.0, 1
        r_n = cancellation_radius(MU, n)
        rng = np.random.default_rng(99)
        trials, batch = 120_000, 30_000
        r_w = 20.0 / math.sqrt(math.pi * MU)
        wins = 0
        for _ in range(trials // batch):
            u = np.sqrt(rng.exponential(1.0 / (math.pi * LAM), batch))
            counts = rng.poisson(MU * math.pi * (r_w**2 - r_n**2), batch)
            pmax = int(counts.max())
            r2 = r_n**2 + (r_w**2 - r_n**2) * rng.random((batch, pmax))
            r2[np.arange(pmax)[None, :] >= counts[:, None]] = np.inf
            interference = (rng.exponential(size=(batch, pmax)) * r2**-2.0).sum(axis=1)
            soi = rng.exponential(size=batch) * u**-4.0
            wins += int(((u >= r_n) & (soi >= eta * interference)).sum())
        mc = wins / trials
        stderr = math.sqrt(mc * (1.0 - mc) / trials)
        assert abs(mc - ps_ic(eta, n, LAM, MU, 4.0)) <= 3.0 * stderr

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ps_ic(1.0, -1, LAM, MU, 4.0)


class TestPsCan:
    def test_zero_orders_is_one(self):
        assert ps_can(1.0, 0, 4.0) == 1.0

    def test_reference_values(self):
        assert ps_can(1.0, 1, 4.0) == pytest.approx(1.0 / (1.0 + math.pi / 4.0), rel=1e-12)
        base = 1.0 / (1.0 + math.sqrt(10.0) * math.atan(math.sqrt(10.0)))
        assert ps_can(10.0, 2, 4.0) == pytest.approx(base**2, rel=1e-10)

    def test_geometric_in_n(self):
        for eta in (0.5, 1.0, 7.0):
            q1 = ps_can(eta, 1, 4.0)
            for n in range(2, 9):
                assert ps_can(eta, n, 4.0) == pytest.approx(q1**n, rel=1e-12)

    def test_density_free_signature(self):
        # the cancellation law must not depend on the interferer density
        params = inspect.signature(ps_can).parameters
        assert "mu_j" not in params and "lam" not in params

    def test_tsd_reference_values(self):
        assert ps_can_tsd(0.0, 1) == pytest.approx(1.0, rel=1e-14)
        assert ps_can_tsd(1.0, 1) == pytest.approx(1.0 / (math.sqrt(5.25) - 0.5), rel=1e-12)
        assert ps_can_tsd(1.0, 3) == pytest.approx(ps_can_tsd(1.0, 1) ** 3, rel=1e-12)

    def test_pgfl_tsd_agreement_band(self):
        # the two derivations approximate the same quantity
        for eta in np.logspace(-1, 2, 40):
            assert abs(ps_can(eta, 1, 4.0) - ps_can_tsd(eta, 1)) <= 0.01


class TestTsd:
    def test_cumulant_reference(self):
        # Rayleigh fading, first moment E[h] = 1
        assert tsd_cumulant(1, 1.0, 1e-4, 50.0, 4.0, 1.0) == pytest.approx(
            2.0 * math.pi * 1e-4 / 2.0 * 50.0**-2.0, rel=1e-12
        )

    def test_ratio_scales_with_power(self):
        k1 = tsd_cumulant(1, 1.0, 1e-4, 50.0, 4.0, 1.0)
        k2 = tsd_cumulant(2, 1.0, 1e-4, 50.0, 4.0, 2.0)
        k1b = tsd_cumulant(1, 2.0, 1e-4, 50.0, 4.0, 1.0)
        k2b = tsd_cumulant(2, 2.0, 1e-4, 50.0, 4.0, 2.0)
        assert k2b / k1b == pytest.approx(2.0 * k2 / k1, rel=1e-12)

    def test_conditional_cancel_at_zero_threshold(self):
        assert tsd_conditional_cancel_prob(0.0, 1e-4, 75.0) == 1.0

    def test_invalid_cumulant_order(self):
        with pytest.raises(DomainError):
            tsd_cumulant(1, 1.0, 1e-4, 50.0, 1.9, 1.0)


class TestKurtosis:
    def test_reference_value(self):
        assert kurtosis_after_cancellation(4.0, 2) == pytest.approx(54.0 / 7.0, abs=1e-12)

    def test_inverse_scaling(self):
        assert kurtosis_after_cancellation(4.0, 2) / kurtosis_after_cancellation(
            4.0, 3
        ) == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_limit(self):
        assert kurtosis_after_cancellation(4.0, 10**6) < 1e-4

    def test_needs_two_cancellations(self):
        with pytest.raises(DomainError):
            kurtosis_after_cancellation(4.0, 1)


class TestPsSic:
    def test_no_budget_reduces_to_plain(self):
        bd = ps_sic(1.0, 0, LAM, MU, 4.0)
        assert bd.per_level == ()
        assert bd.ps_sic_total == pytest.approx(ps_plain(1.0, LAM, MU, 4.0), abs=1e-8)

    def test_breakdown_invariants(self):
        bd = ps_sic(1.0, 4, LAM, MU, 4.0)
        assert isinstance(bd, SicGainBreakdown)
        total = bd.ps_no_ic + sum(lv.level_contribution for lv in bd.per_level)
        assert bd.ps_sic_total == pytest.approx(total, rel=1e-14)
        assert bd.ps_no_ic <= bd.ps_sic_total <= 1.0

    def test_single_level_composition(self):
        eta = 1.0
        bd = ps_sic(eta, 1, LAM, MU, 4.0)
        expected = bd.ps_no_ic + (1.0 - ps_ic(eta, 0, LAM, MU, 4.0)) * ps_can(
            eta, 1, 4.0
        ) * ps_ic(eta, 1, LAM, MU, 4.0)
        assert bd.ps_sic_total == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_budget(self):
        for eta_db in (-10.0, -4.0, 0.0, 4.0, 10.0):
            eta = 10.0 ** (eta_db / 10.0)
            totals = [ps_sic(eta, n, LAM, MU, 4.0).ps_sic_total for n in range(6)]
            assert all(b >= a - 1e-14 for a, b in zip(totals, totals[1:]))

    def test_levels_match_sequential_products(self):
        # reference: the level products multiplied up one level at a time
        for eta in (0.3, 1.0, 4.0):
            bd = ps_sic(eta, 5, LAM, MU, 4.0)
            decode = [ps_ic(eta, n, LAM, MU, 4.0) for n in range(6)]
            q_single = ps_can(eta, 1, 4.0)
            total, outage, cancel = decode[0], 1.0, 1.0
            for i, lv in enumerate(bd.per_level, start=1):
                outage *= 1.0 - decode[i - 1]
                cancel *= q_single**i
                contribution = outage * cancel * decode[i]
                total += contribution
                assert lv.level == i
                assert lv.chain_outage_product == pytest.approx(outage, rel=1e-12)
                assert lv.cancel_product == pytest.approx(cancel, rel=1e-12)
                assert lv.decode_after == pytest.approx(decode[i], rel=1e-12)
                assert lv.level_contribution == pytest.approx(contribution, rel=1e-12)
            assert len(bd.per_level) == 5
            assert bd.ps_sic_total == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_lockstep_levels_match_ps_ic(self, alpha):
        # ps_sic integrates its N + 1 decode levels in one lockstep call;
        # each level is still its own ps_ic quadrature, to the rounding of
        # the batched panel sums, over fig3's thresholds and densities
        for eta_db in FIG3_ETA_DB:
            eta = 10.0 ** (eta_db / 10.0)
            bd = ps_sic(eta, FIG3_N_MAX, DENSITY_MACRO, DENSITY_MACRO, alpha)
            got = [bd.ps_no_ic] + [lv.decode_after for lv in bd.per_level]
            for n, g in enumerate(got):
                want = ps_ic(eta, n, DENSITY_MACRO, DENSITY_MACRO, alpha)
                assert abs(g - want) <= 1e-15 * want, (eta_db, n, g, want)


class TestLoadModel:
    def test_reference_value(self):
        assert load_pmf(0, 1e-4, 1e-4) == pytest.approx((3.5 / 4.5) ** 4.5, rel=1e-12)

    def test_total_mass(self):
        assert load_pmf_table(5e-5, 1e-5, tail=1e-13).sum() == pytest.approx(
            1.0, abs=1e-9
        )

    def test_brute_force_mean_is_size_biased(self):
        # summing m * f_M(m) exposes the size bias of the user-anchored cell:
        # the mean is (1 + 1/3.5) * mu_j/lam, not mu_j/lam
        for ratio in (1.0, 5.0):
            pmf = load_pmf_table(ratio * 1e-5, 1e-5, tail=1e-13)
            mean = float((np.arange(len(pmf)) * pmf).sum())
            assert mean == pytest.approx(ratio * 9.0 / 7.0, rel=1e-6)

    def test_invalid_load(self):
        with pytest.raises(DomainError):
            load_pmf(-1, 1e-4, 1e-4)

    @pytest.mark.parametrize("ratio", [5.0, 1e3])
    def test_table_matches_scalar_loop(self, ratio):
        # ratio 1e3 needs several table passes (10 822 loads)
        pmf = load_pmf_table(ratio * 1e-5, 1e-5)
        ref = reference_load_table(ratio * 1e-5, 1e-5)
        assert len(pmf) == len(ref)
        np.testing.assert_allclose(pmf, ref, rtol=1e-12, atol=0.0)
        cdf = np.cumsum(pmf)
        assert cdf[-2] < 1.0 - 1e-12 <= cdf[-1]

    @pytest.mark.parametrize("ratio", [1e3, 5e3])
    def test_log_pmf_precision(self, ratio):
        # against the law in 40-digit arithmetic, pointwise at loads up to
        # 20 mu_j/lam; and the mass over every load up to the table's cap
        mpmath = pytest.importorskip("mpmath")
        from sicnet.analytic import _LOAD_M_CAP, _load_log_pmf

        loads = np.unique(np.concatenate((np.arange(8), np.linspace(0, 20 * ratio, 200))).astype(int))
        with mpmath.workdps(40):
            c, r = mpmath.mpf(3.5), mpmath.mpf(ratio)
            want = [
                float(mpmath.exp(
                    c * mpmath.log(c) + mpmath.loggamma(m + c + 1) - mpmath.loggamma(m + 1)
                    - mpmath.loggamma(c) + m * mpmath.log(r) - (m + c + 1) * mpmath.log(c + r)
                ))
                for m in loads.tolist()
            ]
        got = np.exp(_load_log_pmf(loads, ratio))
        assert np.max(np.abs(got / np.array(want) - 1.0)) <= 5e-11
        mass = np.exp(_load_log_pmf(np.arange(_LOAD_M_CAP + 1), ratio)).sum()
        assert abs(mass - 1.0) <= 1e-12, mass

    @pytest.mark.parametrize("ratio", [3e4, 1e5])
    def test_table_beyond_cap_raises(self, ratio):
        # the mass within 100 000 loads is 0.9945 at 3e4 and 0.363 at 1e5
        with pytest.raises(DomainError, match=f"mu_j/lam = {ratio:.6g}"):
            load_pmf_table(ratio * 1e-5, 1e-5)


class TestLoadOrderStatistics:
    @staticmethod
    def make_cdf(pmf):
        cdf = np.cumsum(pmf)
        return lambda m: float(cdf[min(m, len(cdf) - 1)]) if m >= 0 else 0.0

    def test_single_sample_is_parent(self):
        pmf = load_pmf_table(5e-5, 1e-5)
        order = load_order_statistic_pmf(1, 1, np.cumsum(pmf))
        for m in range(12):
            assert order[m] == pytest.approx(pmf[m], rel=1e-10)

    def test_min_of_two_closed_form(self):
        pmf = load_pmf_table(5e-5, 1e-5)
        cdf = self.make_cdf(pmf)
        mins = load_order_statistic_pmf(1, 2, np.cumsum(pmf))
        maxs = load_order_statistic_pmf(2, 2, np.cumsum(pmf))
        for m in range(12):
            lo = cdf(m - 1) if m > 0 else 0.0
            expected_min = (1.0 - lo) ** 2 - (1.0 - cdf(m)) ** 2
            assert mins[m] == pytest.approx(expected_min, rel=1e-10)
            # the maximum of two draws carries the F^2 difference
            expected_max = cdf(m) ** 2 - lo**2
            assert maxs[m] == pytest.approx(expected_max, rel=1e-10)

    def test_sums_to_one_and_dominates(self):
        pmf = load_pmf_table(5e-5, 1e-5)
        cdf = self.make_cdf(pmf)
        n_aps = 5
        mins = load_order_statistic_pmf(1, n_aps, np.cumsum(pmf))
        assert sum(mins) == pytest.approx(1.0, abs=1e-9)
        # first order statistic is stochastically dominated by the parent
        assert all(
            np.cumsum(mins)[m] >= cdf(m) - 1e-12 for m in range(len(pmf))
        )

    def test_empirical_min_oracle(self):
        pmf = load_pmf_table(5e-5, 1e-5)
        n_aps, draws = 4, 1_000_000
        rng = np.random.default_rng(17)
        samples = rng.choice(len(pmf), size=(draws, n_aps), p=pmf / pmf.sum())
        emp = np.bincount(samples.min(axis=1), minlength=len(pmf)) / draws
        ana = load_order_statistic_pmf(1, n_aps, np.cumsum(pmf))
        assert 0.5 * float(np.abs(emp - ana).sum()) <= 0.01

    def test_rank_bounds(self):
        cdf = np.cumsum(load_pmf_table(5e-5, 1e-5))
        with pytest.raises(DomainError):
            load_order_statistic_pmf(0, 3, cdf)
        with pytest.raises(DomainError):
            load_order_statistic_pmf(4, 3, cdf)


class TestRateCoverage:
    def test_max_sir_tends_to_one(self):
        assert rate_coverage_max_sir(1e-9, 1e-5, 5e-5, 4.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_max_sir_single_term(self):
        # conditional coverage at load m = 0 carries the nearest-BS form
        rho = 0.7
        varsigma = 2.0**rho - 1.0
        term = 1.0 / (
            1.0 + math.sqrt(varsigma) * c_integral(varsigma**-0.5, 4.0)
        )
        pmf0 = load_pmf(0, 5e-5, 1e-5)
        full = rate_coverage_max_sir(rho, 1e-5, 5e-5, 4.0)
        assert full > pmf0 * term > 0.0

    def test_max_sir_decreasing(self):
        values = [rate_coverage_max_sir(r, 1e-5, 5e-5, 4.0) for r in (0.2, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_min_load_uniform_disk_factor_limit(self):
        # (1 - exp(-x))/x -> 1 as the connectivity range shrinks
        for x in (1e-3, 1e-6, 1e-9):
            assert -math.expm1(-x) / x == pytest.approx(1.0, abs=2e-3)

    def test_min_load_needs_an_ap(self):
        with pytest.raises(DomainError):
            rate_coverage_min_load(0.5, 1e-5, 5e-5, 4.0, 100.0)

    @pytest.mark.parametrize("lam, mu_j", [(1e-5, 5e-5), (1e-4, 5e-4)])
    @pytest.mark.parametrize("rho", [0.1, 0.5, 1.0, 20.0])
    def test_match_per_load_sums(self, rho, lam, mu_j):
        # at rho = 20 the rate threshold overflows for m >= 50 of the 70 loads
        assert rate_coverage_max_sir(rho, lam, mu_j, 4.0) == pytest.approx(
            reference_rate_coverage_max_sir(rho, lam, mu_j, 4.0), rel=1e-12
        )
        assert rate_coverage_min_load(rho, lam, mu_j, 4.0, 400.0) == pytest.approx(
            reference_rate_coverage_min_load(rho, lam, mu_j, 4.0, 400.0), rel=1e-12
        )

    def test_load_table_cap_raises(self):
        # mu_j/lam = 1e5 keeps 64% of the load mass beyond the table cap
        with pytest.raises(DomainError, match="mu_j/lam = 100000"):
            rate_coverage_max_sir(0.5, 1e-5, 1.0, 4.0)
        with pytest.raises(DomainError, match="mu_j/lam = 100000"):
            rate_coverage_min_load(1e-4, 1e-5, 1.0, 4.0, 400.0)

    def test_min_load_below_max_sir(self):
        # reference scenario ordering: the SIR loss of the min-load pick is
        # not recouped without cancellation
        for rho in np.linspace(0.1, 1.0, 10):
            assert rate_coverage_min_load(rho, 1e-5, 5e-5, 4.0, 400.0) < \
                rate_coverage_max_sir(rho, 1e-5, 5e-5, 4.0)


class TestMaxInstSir:
    def test_single_tier_reference(self):
        cfg = NetworkConfig.single_tier(lam=1e-4, mu_j=1e-4)
        assert outage_max_inst_sir(1.0, cfg) == pytest.approx(
            math.exp(-2.0 / math.pi), rel=1e-12
        )

    def test_single_tier_reduction_formula(self):
        cfg = NetworkConfig.single_tier(lam=3e-5, mu_j=3e-5, alpha=4.0)
        eta = 2.0
        expected = math.exp(
            -cfg.tiers[0].lam / (math.sqrt(eta) * c_integral(0.0, 4.0) * cfg.mu)
        )
        assert outage_max_inst_sir(eta, cfg) == pytest.approx(expected, rel=1e-12)

    def test_outage_tends_to_one(self):
        cfg = two_tier()
        assert outage_max_inst_sir(1e12, cfg) == pytest.approx(1.0, abs=1e-3)
        assert outage_max_inst_sir(10.0, cfg) > outage_max_inst_sir(1.0, cfg)

    def test_sic_reduces_exactly_at_zero_budget(self):
        cfg = two_tier()
        for eta in (1.0, 3.0):
            assert ps_sic_max_inst_sir(eta, 0, cfg) == 1.0 - outage_max_inst_sir(
                eta, cfg
            )

    def test_sic_only_helps(self):
        cfg = two_tier()
        for eta_db in (0.0, 5.0, 10.0):
            eta = 10.0 ** (eta_db / 10.0)
            base = 1.0 - outage_max_inst_sir(eta, cfg)
            prev = base
            for n in (1, 2, 3):
                val = ps_sic_max_inst_sir(eta, n, cfg)
                assert val >= prev - 1e-12
                prev = val

    def test_uplift_band(self):
        # reference two-tier scenario: peak gain from three cancellations
        # lands in the reported few-tenths band
        cfg = two_tier()
        uplift = max(
            ps_sic_max_inst_sir(10.0 ** (d / 10.0), 3, cfg)
            - (1.0 - outage_max_inst_sir(10.0 ** (d / 10.0), cfg))
            for d in np.linspace(0.0, 10.0, 11)
        )
        assert 0.05 <= uplift <= 0.25


class TestReaSuccess:
    def test_degenerate_guard(self):
        with pytest.raises(DegenerateReaError):
            ps_ic_rea(1.0, two_tier(bias2=1.0), 1, 0)

    def test_cancellation_helps(self):
        for b in (2.0, 5.0, 10.0):
            cfg = two_tier(bias2=b)
            for eta in (0.5, 1.0, 3.0):
                assert ps_ic_rea(eta, cfg, 1, 1) > ps_ic_rea(eta, cfg, 1, 0)

    def test_success_decreases_with_bias(self):
        for cancelled in (0, 1):
            values = [
                ps_ic_rea(1.0, two_tier(bias2=b), 1, cancelled) for b in (2.0, 5.0, 10.0)
            ]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_invalid_cancelled(self):
        with pytest.raises(DomainError):
            ps_ic_rea(1.0, two_tier(bias2=5.0), 1, 2)

    def test_threshold_array(self):
        # an array of thresholds gives the scalar calls' values, and a bad
        # threshold anywhere in it raises
        cfg, etas = two_tier(bias2=5.0), np.array([0.1, 1.0, 30.0])
        for cancelled in (0, 1):
            got = ps_ic_rea(etas, cfg, 1, cancelled)
            assert got.shape == etas.shape
            assert got.tolist() == pytest.approx(
                [ps_ic_rea(float(eta), cfg, 1, cancelled) for eta in etas], rel=1e-14
            )
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ps_ic_rea(np.array([1.0, bad]), cfg, 1, 0)


class TestProbabilityRange:
    def test_all_outputs_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            eta = 10.0 ** rng.uniform(-2, 2)
            alpha = rng.uniform(2.2, 6.0)
            lam = 10.0 ** rng.uniform(-6, -3)
            mu = 10.0 ** rng.uniform(-6, -3)
            n = int(rng.integers(0, 6))
            values = [
                ps_plain(eta, lam, mu, alpha),
                ps_can(eta, n, alpha),
                ps_can_tsd(eta, n),
            ]
            cfg = NetworkConfig.single_tier(lam=lam, mu_j=mu, alpha=alpha)
            values.append(outage_max_inst_sir(eta, cfg))
            assert all(0.0 <= v <= 1.0 for v in values), values


class TestIntegerOrders:
    """Orders, budgets and loads are integers: a fractional one raises
    DomainError (it used to be truncated or rounded up silently, or to fail
    with TypeError), and numpy integers give the int's value."""

    CALLS = {
        "ps_can": lambda n: ps_can(1.0, n, 4.0),
        "ps_ic": lambda n: ps_ic(1.0, n, LAM, MU, 4.0),
        "ps_sic": lambda n: ps_sic(1.0, n, LAM, MU, 4.0).ps_sic_total,
        "load_pmf": lambda n: load_pmf(n, MU, LAM),
        "ps_sic_max_inst_sir": lambda n: ps_sic_max_inst_sir(1.0, n, two_tier()),
        "ps_can_tsd": lambda n: ps_can_tsd(1.0, n),
        "tsd_cumulant": lambda n: tsd_cumulant(n, 1.0, MU, 50.0, 4.0, 2.0),
        "kurtosis_after_cancellation": lambda n: kurtosis_after_cancellation(4.0, n),
        "cancellation_radius": lambda n: cancellation_radius(MU, n),
        "nth_interferer_distance_pdf": lambda n: nth_interferer_distance_pdf(MU, n, 50.0),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("n", [1.5, 2.0, "2", None])
    def test_non_integer_raises(self, name, n):
        with pytest.raises(DomainError):
            self.CALLS[name](n)

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_integers_match_int(self, name):
        want = self.CALLS[name](2)
        for n in (np.int64(2), np.int32(2), np.arange(3)[2]):
            assert self.CALLS[name](n) == want
