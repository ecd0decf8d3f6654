"""Simulation engine: sampling laws, event-chain semantics, determinism."""

import math

import numpy as np
import pytest
import scipy.integrate

from sicnet.errors import DegenerateReaError, DomainError
from sicnet.model import NetworkConfig, SicConfig, TierParams, rea_distance_pdf
from sicnet.analytic import outage_max_inst_sir, ps_can, ps_plain
from sicnet.montecarlo import (
    BLOCK_TRIALS,
    Estimate,
    SampledScene,
    TrialOutcome,
    estimate_ps_can_mc,
    estimate_ps_sic_mc,
    max_sir_success_curve_mc,
    ps_can_curve_mc,
    ps_sic_curve_mc,
    run_sic_trial,
    sample_ppp,
    sample_scene,
    simulate_max_inst_sir,
    simulate_min_load,
    simulate_rea,
    trimmed_sum_oracle,
    voronoi_load_histogram,
    window_radius,
    window_sensitivity_probe,
)

LAM = MU = 1e-4


def two_tier(bias2=1.0):
    return NetworkConfig(
        tiers=(TierParams(1e-5, 10.0, 10.0), TierParams(1e-4, 1.0, 1.0, bias=bias2)),
        alpha=4.0,
        mu=1e-4,
        mu_j=1e-4,
    )


class TestStreams:
    def test_stream_is_sfc64_of_spawned_seed_sequence(self):
        from sicnet.montecarlo import _GEOMETRY_STREAM, _SERVING_STREAM, _stream

        for seed in (0, 909, 2**63):
            for index in (0, 1, 7, _SERVING_STREAM, _GEOMETRY_STREAM):
                ref = np.random.Generator(
                    np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(index,)))
                )
                got = _stream(seed, index)
                assert isinstance(got.bit_generator, np.random.SFC64)
                assert np.array_equal(got.random(32), ref.random(32))
                assert np.array_equal(got.exponential(size=32), ref.exponential(size=32))

    def test_streams_differ(self):
        from sicnet.montecarlo import _GEOMETRY_STREAM, _SERVING_STREAM, _stream

        reserved = [_SERVING_STREAM, _GEOMETRY_STREAM]
        assert min(reserved) >= 1 << 32  # beyond any block index in reach
        draws = [
            tuple(_stream(seed, index).integers(0, 2**62, 4))
            for seed in (42, 43)
            for index in list(range(8)) + reserved
        ]
        assert len(set(draws)) == len(draws)


class TestSamplePpp:
    def test_zero_density(self):
        rng = np.random.default_rng(0)
        assert len(sample_ppp(0.0, 100.0, rng)) == 0

    def test_mean_count(self):
        rng = np.random.default_rng(1)
        lam, radius, draws = 1e-4, 500.0, 10_000
        counts = [len(sample_ppp(lam, radius, rng)) for _ in range(draws)]
        expected = lam * math.pi * radius * radius
        z = (np.mean(counts) - expected) / math.sqrt(expected / draws)
        assert abs(z) <= 3.0

    def test_half_disk_uniformity(self):
        # chi-squared on left/right half counts at the 1% level
        rng = np.random.default_rng(2)
        pts = sample_ppp(1e-3, 1000.0, rng)
        left = int((pts[:, 0] < 0.0).sum())
        right = len(pts) - left
        expected = len(pts) / 2.0
        chi2 = (left - expected) ** 2 / expected + (right - expected) ** 2 / expected
        assert chi2 <= 6.635  # df=1 critical value at 1%

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_ppp(-1.0, 100.0, rng)
        with pytest.raises(DomainError):
            sample_ppp(1e-4, 0.0, rng)


class TestSceneAndTrimmedSum:
    def test_scene_invariants(self):
        scene = sample_scene(LAM, MU, rng_seed=7)
        radii = np.hypot(scene.positions[:, 0], scene.positions[:, 1])
        assert np.all(radii <= scene.window_radius + 1e-9)
        assert np.all(scene.fading > 0.0)
        assert scene.serving_distance > 0.0

    def test_scene_validation(self):
        with pytest.raises(DomainError):
            SampledScene(
                positions=np.array([[1e6, 0.0]]),
                fading=np.array([1.0]),
                serving_distance=10.0,
                window_radius=100.0,
                rng_seed=0,
            )

    def test_trimmed_sum_limits(self):
        scene = sample_scene(LAM, MU, rng_seed=8)
        n = len(scene.positions)
        full = trimmed_sum_oracle(scene, 0)
        assert full == pytest.approx(
            float((scene.fading * np.hypot(*scene.positions.T) ** -4.0).sum()), rel=1e-12
        )
        assert trimmed_sum_oracle(scene, n) == 0.0
        with pytest.raises(DomainError):
            trimmed_sum_oracle(scene, n + 1)

    def test_fading_order_minimizes_residual(self):
        # removing the n largest powers leaves no more interference than
        # removing the n nearest, for every scene and trim depth
        rng = np.random.default_rng(3)
        n_scenes, pad = 10_000, 60
        counts = rng.poisson(30.0, n_scenes)
        r2 = 500.0**2 * rng.random((n_scenes, pad))
        r2[np.arange(pad)[None, :] >= counts[:, None]] = np.inf
        r2.sort(axis=1)
        powers = rng.exponential(size=(n_scenes, pad)) * r2**-2.0
        total = powers.sum(axis=1)
        by_power = -np.sort(-powers, axis=1)
        for n_trim in (1, 3, 7):
            res_dist = total - powers[:, :n_trim].sum(axis=1)
            res_fade = total - by_power[:, :n_trim].sum(axis=1)
            assert np.all(res_fade <= res_dist + 1e-18)

    def test_trimmed_sum_orderings_on_scenes(self):
        for seed in range(30):
            scene = sample_scene(LAM, MU, rng_seed=100 + seed)
            for n_trim in (1, 4):
                fade = trimmed_sum_oracle(scene, n_trim, "power_with_fading")
                dist = trimmed_sum_oracle(scene, n_trim, "distance_only")
                assert fade <= dist + 1e-18


class TestRunSicTrial:
    def test_empty_scene_succeeds(self):
        scene = SampledScene(
            positions=np.empty((0, 2)),
            fading=np.empty(0),
            serving_distance=50.0,
            window_radius=100.0,
            rng_seed=4,
        )
        outcome = run_sic_trial(scene, SicConfig(1e6, 0))
        assert outcome == TrialOutcome(True, 0)

    def test_zero_budget_failure_stage(self):
        scene = SampledScene(
            positions=np.array([[1.0, 0.0]]),
            fading=np.array([100.0]),
            serving_distance=900.0,
            window_radius=1000.0,
            rng_seed=5,
        )
        outcome = run_sic_trial(scene, SicConfig(1.0, 0))
        assert not outcome.succeeded
        assert outcome.failure_stage == "decode_initial"

    def test_determinism(self):
        scene = sample_scene(LAM, MU, rng_seed=11)
        a = run_sic_trial(scene, SicConfig(1.0, 3))
        b = run_sic_trial(scene, SicConfig(1.0, 3))
        assert a == b

    def test_threshold_monotonicity(self):
        # success at eta implies success at every smaller threshold
        for seed in range(200):
            scene = sample_scene(LAM, MU, rng_seed=1000 + seed)
            success = [
                run_sic_trial(scene, SicConfig(eta, 3)).succeeded
                for eta in (4.0, 2.0, 1.0, 0.5, 0.25)
            ]
            first_true = success.index(True) if True in success else len(success)
            assert all(success[first_true:]), success

    def test_event_chain_consistency(self):
        # a success after n cancels must decode against the n-trimmed field
        # and fail against the (n-1)-trimmed field
        import numpy as np

        from sicnet.montecarlo import _SERVING_STREAM, _stream

        eta = 1.0
        checked = 0
        for seed in range(300):
            scene = sample_scene(LAM, MU, rng_seed=2000 + seed)
            outcome = run_sic_trial(scene, SicConfig(eta, 4))
            if not outcome.succeeded or outcome.cancellations_used == 0:
                continue
            n = outcome.cancellations_used
            h_u = _stream(scene.rng_seed, _SERVING_STREAM).exponential()
            soi = h_u * scene.serving_distance**-4.0
            assert soi >= eta * trimmed_sum_oracle(scene, n)
            assert soi < eta * trimmed_sum_oracle(scene, n - 1)
            checked += 1
        assert checked >= 10

    def test_cancel_failure_stage(self):
        for seed in range(300):
            scene = sample_scene(LAM, MU, rng_seed=3000 + seed)
            outcome = run_sic_trial(scene, SicConfig(3.0, 5))
            if outcome.failure_stage and outcome.failure_stage.startswith("cancel"):
                n = int(outcome.failure_stage.strip("cancel_stage()"))
                assert outcome.cancellations_used == n - 1
                ordered_total = trimmed_sum_oracle(scene, n)
                x_n = trimmed_sum_oracle(scene, n - 1) - ordered_total
                assert x_n < 3.0 * ordered_total
                return
        pytest.skip("no cancel-stage failure sampled")


class TestChainEstimators:
    def test_determinism_and_threads(self):
        cfg = NetworkConfig.single_tier(lam=LAM, mu_j=MU)
        sic = SicConfig(1.0, 2)
        a = estimate_ps_sic_mc(cfg, sic, 6000, seed=17, threads=1)
        b = estimate_ps_sic_mc(cfg, sic, 6000, seed=17, threads=1)
        c = estimate_ps_sic_mc(cfg, sic, 6000, seed=17, threads=4)
        assert a == b == c

    def test_zero_budget_matches_plain(self):
        cfg = NetworkConfig.single_tier(lam=LAM, mu_j=MU)
        est = estimate_ps_sic_mc(cfg, SicConfig(1.0, 0), 40_000, seed=19)
        assert abs(est.mean - ps_plain(1.0, LAM, MU, 4.0)) <= 3.0 * est.stderr

    def test_stderr_definition(self):
        est = Estimate.from_counts(250, 1000, seed=0)
        assert est.mean == 0.25
        assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 1000))

    def test_curve_levels_nested(self):
        grid = ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 4, 20_000, seed=23)
        means = [grid[0][n].mean for n in range(5)]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_block_contract(self):
        # estimates must not depend on how trials split into blocks
        assert BLOCK_TRIALS >= 1024

    def test_independent_stages_determinism_and_threads(self):
        trials = BLOCK_TRIALS + 500
        runs = [
            ps_sic_curve_mc(
                LAM, MU, 4.0, [0.5, 2.0], 2, trials, seed=29, threads=threads,
                independent_stages=True,
            ).tolist()
            for threads in (1, 1, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_independent_stages_excludes_frozen_geometry(self):
        with pytest.raises(DomainError):
            ps_sic_curve_mc(
                LAM, MU, 4.0, [1.0], 2, 1000, seed=1,
                freeze_positions=True, independent_stages=True,
            )

    def test_chain_levels_match_loop_reference(self):
        from sicnet.montecarlo import _chain_levels

        def loop_levels(soi, total, top, cum, eta, n_max):
            level = np.full(len(soi), -1, dtype=np.int64)
            done = soi >= eta * total
            level[done] = 0
            alive = np.ones(len(soi), dtype=bool)
            for n in range(1, n_max + 1):
                residual = total - cum[:, n - 1]
                alive &= top[:, n - 1] >= eta * residual
                newly = ~done & alive & (soi >= eta * residual)
                level[newly] = n
                done |= newly
            return level

        rng = np.random.default_rng(31)
        powers = -np.sort(-rng.exponential(size=(5000, 12)) ** 3, axis=1)
        soi = rng.exponential(size=5000) * 4.0
        total = powers.sum(axis=1)
        for n_max in (0, 1, 4):
            top = powers[:, :n_max]
            cum = np.cumsum(top, axis=1)
            for eta in (0.1, 1.0, 3.0):
                np.testing.assert_array_equal(
                    _chain_levels(soi, total, top, cum, eta, n_max),
                    loop_levels(soi, total, top, cum, eta, n_max),
                )


class TestPsCanEstimators:
    def test_direct_matches_closed_form(self):
        cfg = NetworkConfig.single_tier(lam=LAM, mu_j=MU)
        est = estimate_ps_can_mc(cfg, 1.0, 1, 30_000, seed=29)
        assert abs(est.mean - ps_can(1.0, 1, 4.0)) <= 3.0 * est.stderr

    def test_decreasing_in_order(self):
        curves = ps_can_curve_mc(MU, 4.0, [1.0], 6, 20_000, seed=31)["direct"]
        means = [curves[0][n].mean for n in range(6)]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_orderings_coincide_at_high_threshold(self):
        # distance and fading orderings nearly agree at 10 dB and split at 0 dB
        etas = [1.0, 10.0]
        dist = ps_can_curve_mc(MU, 4.0, etas, 1, 30_000, seed=37)["direct"]
        fade = ps_can_curve_mc(
            MU, 4.0, etas, 1, 30_000, seed=38, ordering="power_with_fading"
        )["direct"]
        gap_low = abs(dist[0][0].mean - fade[0][0].mean)
        gap_high = abs(dist[1][0].mean - fade[1][0].mean)
        assert gap_high <= 0.015
        assert gap_low > gap_high

    def test_conditioning_modes(self):
        curves = ps_can_curve_mc(MU, 4.0, [1.0], 3, 10_000, seed=41)
        for key in ("direct", "chain_survival", "chain_stage"):
            assert curves[key].shape == (1, 3)
        # stage-1 estimators coincide by construction
        assert curves["chain_survival"][0][0].mean == curves["chain_stage"][0][0].mean

    def test_invalid_arguments(self):
        cfg = NetworkConfig.single_tier(lam=LAM, mu_j=MU)
        with pytest.raises(DomainError):
            estimate_ps_can_mc(cfg, 1.0, 0, 1000, seed=1)
        with pytest.raises(DomainError):
            estimate_ps_can_mc(cfg, 1.0, 1, 1000, seed=1, conditioning="bogus")
        with pytest.raises(DomainError):
            ps_can_curve_mc(MU, 4.0, [1.0], 2, 1000, seed=1, ordering="nearest")


class TestFrozenPositions:
    def test_frozen_geometry_is_deterministic_per_seed(self):
        a = ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 2, 4000, seed=3, freeze_positions=True)
        b = ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 2, 4000, seed=3, freeze_positions=True)
        assert all(a[0][n] == b[0][n] for n in range(3))
        # another seed freezes another geometry, another conditional law
        c = ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 2, 4000, seed=4, freeze_positions=True)
        assert any(a[0][n] != c[0][n] for n in range(3))


class TestWindowSufficiency:
    def test_doubling_window_changes_little(self):
        base, doubled = window_sensitivity_probe(LAM, MU, 4.0, 1.0, 2, 20_000, seed=43)
        assert abs(base.mean - doubled.mean) < base.stderr


class TestMinLoad:
    def test_tiny_rate_threshold_covers(self):
        res = simulate_min_load(1e-5, 5e-5, 400.0, [1e-6], 300, seed=47)
        assert res.coverage[0].mean >= 0.95

    def test_load_histogram_emitted(self):
        res = simulate_min_load(1e-5, 5e-5, 400.0, [0.5], 300, seed=53)
        assert res.load_histogram.sum() > 0

    def test_sic_never_hurts(self):
        res = simulate_min_load(1e-5, 5e-5, 400.0, np.linspace(0.1, 1.0, 5), 2000, seed=59)
        for base, sic in zip(res.coverage, res.coverage_sic):
            assert sic.mean >= base.mean

    def test_invalid_rho(self):
        with pytest.raises(DomainError):
            simulate_min_load(1e-5, 5e-5, 400.0, [0.0], 100, seed=1)


class TestVoronoiLoads:
    def test_histogram_close_to_load_law(self):
        from sicnet.analytic import load_pmf_table

        hist = voronoi_load_histogram(1e-4, 5e-4, 10_000, seed=61).astype(float)
        emp = hist / hist.sum()
        ref = load_pmf_table(5e-4, 1e-4)
        width = max(len(emp), len(ref))
        e = np.zeros(width)
        e[: len(emp)] = emp
        r = np.zeros(width)
        r[: len(ref)] = ref
        assert 0.5 * float(np.abs(e - r).sum()) <= 0.05


class TestMaxSir:
    def test_single_tier_matches_formula(self):
        cfg = NetworkConfig.single_tier(lam=LAM, mu_j=MU)
        ests = max_sir_success_curve_mc(
            cfg, [1.0, 10.0**0.5], 8000, seed=67, independent_fields=True
        )
        for eta, est in zip((1.0, 10.0**0.5), ests):
            ana = 1.0 - outage_max_inst_sir(eta, cfg)
            assert abs(est.mean - ana) <= 3.0 * est.stderr

    def test_sic_chain_zero_budget_reduction(self):
        cfg = two_tier()
        eta = 10.0**0.5
        est = simulate_max_inst_sir(
            cfg, SicConfig(eta, 0), 6000, seed=71, independent_fields=True
        )
        ana = 1.0 - outage_max_inst_sir(eta, cfg)
        assert abs(est.mean - ana) <= 3.5 * est.stderr

    def test_hopeless_threshold(self):
        cfg = two_tier()
        est = simulate_max_inst_sir(cfg, SicConfig(1e9, 1), 500, seed=73)
        assert est.mean == 0.0

    def test_top_m_matches_stable_argsort(self):
        from sicnet.montecarlo import _top_m

        rng = np.random.default_rng(5)
        d2 = rng.random((6, 9))
        d2[2, 4:] = np.inf  # rows padded past their count, as sampled fields are
        d2[3, 1:] = np.inf
        p = rng.exponential(size=d2.shape) * d2**-2.0
        for ordering, key in (("distance_only", d2), ("power_with_fading", -p)):
            ref = np.take_along_axis(p, np.argsort(key, axis=1, kind="stable"), axis=1)
            for m in (0, 1, 2, 3, 5, 8, 9, 12):
                assert np.array_equal(_top_m(p, d2, m, ordering), ref[:, :m])

    def test_top_m_ties_match_stable_argsort(self):
        # every distance key occurs four times, so the m-th place is tied in
        # most rows; the powers are distinct, so a wrong tie-break shows
        from sicnet.montecarlo import _top_m

        rng = np.random.default_rng(17)
        d2 = np.repeat(rng.random((8, 5)), 4, axis=1)
        d2 = np.take_along_axis(d2, rng.permuted(np.tile(np.arange(20), (8, 1)), axis=1), axis=1)
        d2[1, 12:] = np.inf
        d2[4, 2:] = np.inf
        p = rng.exponential(size=d2.shape) * np.where(np.isinf(d2), 0.0, 1.0)
        ref = np.take_along_axis(p, np.argsort(d2, axis=1, kind="stable"), axis=1)
        for m in range(21):
            assert np.array_equal(_top_m(p, d2, m, "distance_only"), ref[:, :m]), m

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("ordering", ["distance_only", "power_with_fading"])
    @pytest.mark.parametrize("n_max", [0, 1, 3])
    def test_block_chain_matches_trial_loop(self, independent, ordering, n_max):
        # the chain run once over the block's rows against one run per trial
        from sicnet.montecarlo import _chain_levels, _max_sir_trials, _stream

        cfg, eta, trials, seed = two_tier(), 10.0**0.3, 150, 37
        wins = sum(
            bool((_chain_levels(s, t, top, np.cumsum(top, axis=1), eta, n_max) >= 0).any())
            for s, t, top in _max_sir_trials(
                cfg, _stream(seed, 0), trials, 250.0, independent, ordering, n_max
            )
        )
        est = simulate_max_inst_sir(
            cfg, SicConfig(eta, n_max), trials, seed, ordering=ordering,
            independent_fields=independent,
        )
        assert est == Estimate.from_counts(wins, trials, seed)

    def test_zero_power_padding_keeps_chain_outcome(self):
        # rows of k < N interferers: padding them with zero-power stages up
        # to N must not change the level at which the chain succeeds
        from sicnet.montecarlo import _chain_levels

        rng = np.random.default_rng(41)
        n_max = 4
        for k in range(n_max):
            field = rng.exponential(size=(500, k)) * rng.random((500, k)) ** -2.0
            top = -np.sort(-field, axis=1)
            total = field.sum(axis=1) + np.where(np.arange(500) % 2, 0.0, rng.random(500))
            soi = rng.exponential(size=500) * rng.random(500) ** -2.0
            padded = np.pad(top, ((0, 0), (0, n_max - k)))
            for eta in (0.1, 1.0, 10.0):
                short = _chain_levels(soi, total, top, np.cumsum(top, axis=1), eta, k)
                long = _chain_levels(soi, total, padded, np.cumsum(padded, axis=1), eta, n_max)
                assert np.array_equal(short, long), (k, eta)

    @pytest.mark.parametrize("independent", [False, True])
    def test_zero_budget_draws_the_curve_trials(self, independent):
        # N = 0 cancels nothing, so the ordering is idle and the chain is the
        # plain max-SIR event on the same draws as the no-SIC simulator
        cfg = two_tier()
        etas = [10.0 ** (d / 10.0) for d in (-4.0, 0.0, 6.0)]
        curve = max_sir_success_curve_mc(
            cfg, etas, 200, seed=29, independent_fields=independent
        )
        for eta, est in zip(etas, curve):
            for ordering in ("distance_only", "power_with_fading"):
                sic = simulate_max_inst_sir(
                    cfg, SicConfig(eta, 0), 200, seed=29, ordering=ordering,
                    independent_fields=independent,
                )
                assert sic.mean == est.mean

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("ordering", ["distance_only", "power_with_fading"])
    def test_success_nondecreasing_in_budget(self, independent, ordering):
        # the draws do not depend on N, and a chain that succeeds within N
        # cancellations succeeds within N + 1
        means = [
            simulate_max_inst_sir(
                two_tier(), SicConfig(1.0, n), 200, seed=31, ordering=ordering,
                independent_fields=independent,
            ).mean
            for n in range(4)
        ]
        assert means == sorted(means)
        assert means[-1] > means[0]


class TestRea:
    def test_degenerate_guard(self):
        with pytest.raises(DegenerateReaError):
            simulate_rea(two_tier(bias2=1.0), 1, [1.0], 1000, seed=79)

    def test_cancellation_helps_pairwise(self):
        res = simulate_rea(two_tier(bias2=5.0), 1, [0.5, 1.0, 2.0], 20_000, seed=83)
        for unc, can in zip(res.uncancelled, res.cancelled):
            assert can.mean >= unc.mean

    def test_rea_fraction_matches_association_probability(self):
        from sicnet.model import rea_association_prob

        cfg = two_tier(bias2=5.0)
        res = simulate_rea(cfg, 1, [1.0], 50_000, seed=89)
        target = rea_association_prob(cfg, 1)
        assert res.rea_fraction == pytest.approx(target, abs=0.01)

    def test_serving_distance_law(self):
        # empirical REA serving distances against the closed-form density
        cfg = two_tier(bias2=5.0)
        res = simulate_rea(cfg, 1, [1.0], 100_000, seed=97)
        samples = np.sort(res.serving_distances)
        grid = np.linspace(5.0, 160.0, 60)
        emp = np.searchsorted(samples, grid) / len(samples)
        cdf = np.array(
            [
                scipy.integrate.quad(lambda x: rea_distance_pdf(cfg, 1, x), 0.0, g)[0]
                for g in grid
            ]
        )
        assert float(np.max(np.abs(emp - cdf))) <= 0.02

    def test_invalid_cancel_mode(self):
        with pytest.raises(DomainError):
            simulate_rea(two_tier(bias2=5.0), 1, [1.0], 1000, seed=1, cancel_mode="x")
