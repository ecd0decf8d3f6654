"""Simulation engine: sampling laws, event-chain semantics, determinism."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from sicnet.errors import DegenerateReaError, DomainError
from sicnet.model import (
    NetworkConfig,
    SicConfig,
    TierParams,
    association_prob_max_power,
    db_to_linear,
)
from sicnet.analytic import outage_max_inst_sir, ps_can, ps_plain
from sicnet.numerics import c_integral
from sicnet.experiments import DENSITY_MACRO, FIG2_ETA_DB, FIG2_ORDERS
from sicnet.montecarlo import (
    BLOCK_TRIALS,
    _CHUNK_POINTS,
    _MAX_ROW_POINTS,
    _NEAREST_USERS,
    _chain_exponent,
    _estimates,
    _far_field,
    _independent_stage_block,
    _independent_stage_probs,
    _interferer_tiers,
    _max_sir_block,
    _max_sir_sums,
    _min_load_success,
    _min_load_trials,
    _moments,
    _nearest_chain_success,
    _nearest_users,
    _radial_chunks,
    _radial_field,
    _rea_block,
    _reached,
    _run_blocks,
    _serving_block,
    _stage_chain_success,
    _stream,
    _top_m,
    Estimate,
    max_sir_success_curve_mc,
    ps_can_curve_mc,
    ps_sic_curve_mc,
    sample_ppp,
    simulate_max_inst_sir,
    simulate_min_load,
    simulate_rea,
    voronoi_load_histogram,
    window_radius,
)

from oracles import (
    _SERVING_STREAM,
    SampledScene,
    TrialOutcome,
    _chain_levels,
    _first_level,
    _ordered_powers,
    radial_field_oracle,
    rea_distance_pdf,
    run_sic_trial,
    sample_scene,
    trimmed_sum_oracle,
)

LAM = MU = 1e-4


def two_tier(bias2=1.0):
    return NetworkConfig(
        tiers=(TierParams(1e-5, 10.0, 10.0), TierParams(1e-4, 1.0, 1.0, bias=bias2)),
        alpha=4.0,
        mu=1e-4,
        mu_j=1e-4,
    )


def _dense_macro():
    """Dense strong tier 0 around a sparse biased tier 1: the exclusion
    radius of tier 0 often lies beyond its near window."""
    return NetworkConfig(
        tiers=(TierParams(1e-4, 100.0, 1.0), TierParams(1e-5, 1.0, 1.0, bias=100.0)),
        alpha=4.0,
        mu=1e-4,
        mu_j=1e-4,
    )


def _field_block(rng, size, mu_j, radius, m, alpha):
    """Sample ``size`` interferer fields in the disk of radius ``radius``
    (:func:`_radial_field`); return (total, top, cum, counts) where total is
    each row's power sum, top[:, i] the (i+1)-th nearest power
    (:func:`_top_m`; zero past the row's count) and cum its running sum."""
    powers, r2, counts = _radial_field(rng, size, mu_j, 0.0, radius, m, alpha)
    top = _top_m(powers, r2, m)
    return powers.sum(axis=1), top, np.cumsum(top, axis=1), counts


def _sampled_chain(etas, n_max, trials, seed):
    """The faithful SIC chain for every (eta, N <= n_max) on sampled fields:
    each trial's serving distance and its field out to ``window_radius``
    (400 expected points, :func:`_field_block`), with the serving fading
    averaged out (:func:`_chain_exponent`).  The truncated estimator that
    the window-free kernel replaced in ``ps_sic_curve_mc``, draw for draw."""

    def block(rng, size):
        s0 = _serving_block(rng, size, LAM, 4.0)
        total, top, cum, _ = _field_block(rng, size, MU, window_radius(MU), n_max, 4.0)
        sums = np.zeros((2, len(etas), n_max + 1))
        for e_idx, eta in enumerate(etas):
            x = _chain_exponent(s0, total, top, cum, eta, n_max)
            sums[:, e_idx] = _moments(np.exp(-x), 0)
        return sums

    return _estimates(_run_blocks(trials, seed, block), trials, seed)


def _same_state(a, b):
    """Generators ``a`` and ``b`` (SFC64) stand at the same stream position."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return np.array_equal(sa["state"]["state"], sb["state"]["state"]) and (
        sa["has_uint32"], sa["uinteger"]) == (sb["has_uint32"], sb["uinteger"])


class TestStreams:
    def test_stream_is_sfc64_of_spawned_seed_sequence(self):
        for seed in (0, 909, 2**63):
            for index in (0, 1, 7, _SERVING_STREAM):
                ref = np.random.Generator(
                    np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(index,)))
                )
                got = _stream(seed, index)
                assert isinstance(got.bit_generator, np.random.SFC64)
                assert np.array_equal(got.random(32), ref.random(32))
                assert np.array_equal(got.exponential(size=32), ref.exponential(size=32))

    def test_sfc64_double_spends_one_raw_output(self):
        # _radial_chunks skips a block's uniforms with random_raw: SFC64's
        # random() takes the top 53 bits of exactly one 64-bit output
        a, b = _stream(89, 0), _stream(89, 0)
        raw = b.bit_generator.random_raw(1000)
        assert np.array_equal(a.random(1000), (raw >> np.uint64(11)) * 2.0**-53)
        assert _same_state(a, b)
        assert a.standard_exponential() == b.standard_exponential()

    def test_streams_differ(self):
        reserved = [_SERVING_STREAM]
        assert min(reserved) >= 1 << 32  # beyond any block index in reach
        draws = [
            tuple(_stream(seed, index).integers(0, 2**62, 4))
            for seed in (42, 43)
            for index in list(range(8)) + reserved
        ]
        assert len(set(draws)) == len(draws)


class TestBlockDriver:
    # two full blocks and a partial one
    TRIALS = 2 * BLOCK_TRIALS + 7
    SIZES = [BLOCK_TRIALS, BLOCK_TRIALS, 7]

    def test_block_receives_its_stream(self):
        def block(rng, size):
            return [(size, tuple(rng.integers(0, 2**62, 4)))]

        for threads in (1, 4):
            got = _run_blocks(self.TRIALS, 31, block, threads)
            want = [
                (size, tuple(_stream(31, b).integers(0, 2**62, 4)))
                for b, size in enumerate(self.SIZES)
            ]
            assert got == want

    def test_outputs_add_in_block_order(self):
        def block(rng, size):
            tag = int(rng.integers(0, 2**62))
            return np.array([size, 1.0]), ([tag], size), 1

        tags = [int(_stream(37, b).integers(0, 2**62)) for b in range(3)]
        sums, (listed, count), blocks = _run_blocks(self.TRIALS, 37, block)
        assert sums.tolist() == [self.TRIALS, 3.0]
        assert listed == tags
        assert count == self.TRIALS
        assert blocks == 3

    def test_thread_count_does_not_change_sums(self):
        def block(rng, size):
            p = rng.random((size, 3))
            return _moments(p, 0), size

        single, multi = (_run_blocks(self.TRIALS, 41, block, t) for t in (1, 4))
        assert np.array_equal(single[0], multi[0])
        assert single[1] == multi[1] == self.TRIALS

    def test_numpy_integer_budget(self):
        assert _run_blocks(np.int64(5000), 43, lambda rng, size: size) == 5000

    @pytest.mark.parametrize("trials", [0, -1, 5000.0, 2.5, "5000", None])
    def test_bad_budget_raises_before_any_block(self, trials):
        ran = []
        with pytest.raises(DomainError):
            _run_blocks(trials, 47, lambda rng, size: ran.append(size) or size)
        assert ran == []

    def test_float_budget_raises_in_every_family(self):
        cfg = two_tier(bias2=5.0)
        calls = [
            lambda t: ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 1, t, 1),
            lambda t: ps_can_curve_mc(MU, 4.0, [1.0], 1, t, 1),
            lambda t: simulate_min_load(1e-4, 5e-4, 100.0, [0.5], t, 1),
            lambda t: max_sir_success_curve_mc(cfg, [1.0], t, 1),
            lambda t: simulate_max_inst_sir(cfg, SicConfig(1.0, 1), t, 1),
            lambda t: simulate_rea(cfg, 1, [1.0], t, 1),
        ]
        for call in calls:
            with pytest.raises(DomainError):
                call(100.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ps_can_curve_mc(MU, 1.0, [1.0], 2, 10, 1),
            lambda: ps_can_curve_mc(MU, 4.0, [1.0], 2, 10, 1, radius=-1.0),
            lambda: ps_can_curve_mc(MU, 4.0, [1.0], 2, 10, 1, radius=math.inf),
            lambda: ps_can_curve_mc(MU, 4.0, [1.0], 2, 10, 1, radius=math.nan),
            lambda: ps_can_curve_mc(0.0, 4.0, [1.0], 2, 10, 1, radius=100.0),
            lambda: ps_can_curve_mc(MU, 4.0, [1.0], 2.5, 10, 1),
            lambda: simulate_min_load(1e-4, 5e-4, 0.0, [0.5], 10, 1),
            lambda: simulate_min_load(1e-4, 5e-4, -5.0, [0.5], 10, 1),
            lambda: simulate_min_load(0.0, 5e-4, 100.0, [0.5], 10, 1),
            lambda: simulate_min_load(1e-4, 5e-4, 100.0, [0.5], 10, 1, alpha=2.0),
            lambda: ps_sic_curve_mc(0.0, MU, 4.0, [1.0], 1, 10, 1),
            lambda: ps_sic_curve_mc(LAM, 0.0, 4.0, [1.0], 1, 10, 1),
            lambda: ps_sic_curve_mc(LAM, -1.0, 4.0, [1.0], 1, 10, 1),
            lambda: ps_sic_curve_mc(-1.0, MU, 4.0, [1.0], 1, 10, 1, independent_stages=True),
            lambda: ps_sic_curve_mc(LAM, MU, 1.5, [1.0], 1, 10, 1),
            lambda: ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 1.5, 10, 1),
            lambda: voronoi_load_histogram(0.0, 5e-4, 100, 1),
            lambda: voronoi_load_histogram(1e-4, 0.0, 100, 1),
        ],
        ids=[
            "can-alpha-1", "can-radius-neg", "can-radius-inf", "can-radius-nan", "can-mu_j-0",
            "can-n_orders-2.5",
            "minload-r_con-0", "minload-r_con-neg", "minload-lam-0", "minload-alpha-2",
            "sic-lambda_eq-0", "sic-mu_j-0", "sic-mu_j-neg", "stages-lambda_eq-neg",
            "sic-alpha-1.5", "sic-n_max-1.5", "voronoi-lam-0", "voronoi-mu_j-0",
        ],
    )
    def test_edge_inputs_raise_before_any_draw(self, monkeypatch, call):
        # every simulator checks its inputs before a block draws anything
        from sicnet import montecarlo

        def no_draws(seed, index):
            raise AssertionError("a stream was opened before the inputs were checked")

        monkeypatch.setattr(montecarlo, "_stream", no_draws)
        with pytest.raises(DomainError):
            call()


def test_montecarlo_imports_nothing_from_analytic():
    # the simulators are the closed forms' oracle, so they share no code
    # with them
    import ast
    import inspect

    from sicnet import montecarlo

    tree = ast.parse(inspect.getsource(montecarlo))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not {m for m in imported if m.split(".")[-1] == "analytic"}


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
        for density, radius in ((math.nan, 10.0), (math.inf, 10.0), (1e-4, math.inf),
                                (1e-4, math.nan)):
            with pytest.raises(DomainError):
                sample_ppp(density, radius, rng)
        for mu_j in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                window_radius(mu_j)


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
        runs = [
            ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 2, 6000, seed=17, threads=threads).tolist()
            for threads in (1, 1, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_zero_budget_matches_plain(self):
        est = ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 0, 40_000, seed=19)[0][0]
        assert abs(est.mean - ps_plain(1.0, LAM, MU, 4.0)) <= 3.0 * est.stderr

    def test_window_free_chain_matches_sampled_chain(self):
        # the window-free chain against the chain on fields sampled out to
        # window_radius (400 expected points), on independent seeds, on the
        # whole fig3 grid
        from sicnet.experiments import FIG3_ETA_DB, FIG3_N_MAX

        etas, trials = [10.0 ** (d / 10.0) for d in FIG3_ETA_DB], 20_000
        got = ps_sic_curve_mc(LAM, MU, 4.0, etas, FIG3_N_MAX, trials, 51)
        want = _sampled_chain(etas, FIG3_N_MAX, trials, 53)
        for a, b in zip(got.ravel(), want.ravel()):
            assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.stderr, b.stderr), (a, b)

    def test_stderr_definition(self):
        est = Estimate.from_sums(250, 250, 1000, seed=0)
        assert est.mean == 0.25
        assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 1000))

    def test_indicator_sums_give_bernoulli_estimate(self):
        # 0/1 samples are their own squares: a count is both sums, and the
        # plug-in variance is the Bernoulli p(1 - p) bit for bit
        for c, n in ((0, 10), (250, 1000), (7, 7), (4095, 4097)):
            p = c / n
            assert Estimate.from_sums(c, c, n, seed=3) == Estimate(
                p, math.sqrt(p * (1.0 - p) / n), n, 3
            )
        est = Estimate.from_sums(250, 250, 1000, seed=0)
        assert est.stderr == math.sqrt(0.25 * 0.75 / 1000)

    def test_from_sums_plug_in_stderr(self):
        x = np.random.default_rng(7).beta(0.5, 2.0, size=5000)
        est = Estimate.from_sums(x.sum(), (x * x).sum(), len(x), seed=0)
        assert est.mean == pytest.approx(x.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(math.sqrt(x.var() / len(x)), rel=1e-9)
        # a constant sample has no spread, and rounding never makes it negative
        flat = Estimate.from_sums(0.3 * 1000, 0.09 * 1000, 1000, seed=0)
        assert flat.stderr == pytest.approx(0.0, abs=1e-9)

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

    def test_chain_levels_match_loop_reference(self):
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
        curves = ps_can_curve_mc(MU, 4.0, [1.0], 1, 30_000, seed=29)
        est = curves["distance_only"]["direct"][0][0]
        assert abs(est.mean - ps_can(1.0, 1, 4.0)) <= 3.0 * est.stderr

    def test_decreasing_in_order(self):
        curves = ps_can_curve_mc(MU, 4.0, [1.0], 6, 20_000, seed=31)["distance_only"]["direct"]
        means = [curves[0][n].mean for n in range(6)]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_orderings_coincide_at_high_threshold(self):
        # distance and fading orderings nearly agree at 10 dB and split at 0 dB
        etas = [1.0, 10.0]
        curves = ps_can_curve_mc(MU, 4.0, etas, 1, 30_000, seed=37)
        dist = curves["distance_only"]["direct"]
        fade = curves["power_with_fading"]["direct"]
        gap_low = abs(dist[0][0].mean - fade[0][0].mean)
        gap_high = abs(dist[1][0].mean - fade[1][0].mean)
        assert gap_high <= 0.015
        assert gap_low > gap_high

    def test_conditioning_modes(self):
        curves = ps_can_curve_mc(MU, 4.0, [1.0], 3, 10_000, seed=41)
        assert {o: set(by_key) for o, by_key in curves.items()} == {
            "distance_only": {"direct", "chain_survival"},
            "power_with_fading": {"direct"},
        }
        for by_key in curves.values():
            for est in by_key.values():
                assert est.shape == (1, 3)
        # surviving stage 1 is decoding the nearest node, by construction
        dist = curves["distance_only"]
        assert dist["chain_survival"][0][0] == dist["direct"][0][0]

    def test_fading_order_wins_on_the_same_field(self):
        # n = 1 on one field: the strongest point's power is at least the
        # nearest's and its residual is no larger, so it decodes whenever the
        # nearest does, at every threshold
        etas = [10.0 ** (d / 10.0) for d in (-10.0, -3.0, 0.0, 3.0, 10.0, 20.0)]
        curves = ps_can_curve_mc(MU, 4.0, etas, 2, BLOCK_TRIALS + 700, seed=43)
        for dist, fade in zip(curves["distance_only"]["direct"], curves["power_with_fading"]["direct"]):
            assert fade[0].mean >= dist[0].mean

    def test_distance_order_is_the_field_block_construction(self):
        # the distance-ordered counts, rebuilt block by block from
        # _field_block as a per-ordering simulator drew them
        etas, n_orders, trials, seed = [0.5, 1.0, 4.0], 4, BLOCK_TRIALS + 900, 47
        radius = 2.0 * window_radius(MU)
        direct = np.zeros((len(etas), n_orders), dtype=np.int64)
        alive_after = np.zeros_like(direct)
        for block, size in enumerate((BLOCK_TRIALS, trials - BLOCK_TRIALS)):
            total, top, cum, counts = _field_block(
                _stream(seed, block), size, MU, radius, n_orders, 4.0
            )
            enough = counts[:, None] >= np.arange(1, n_orders + 1)[None, :]
            for e_idx, eta in enumerate(etas):
                ok = (top >= eta * (total[:, None] - cum)) & enough
                direct[e_idx] += ok.sum(axis=0)
                alive = np.ones(size, dtype=bool)
                for n in range(n_orders):
                    alive = alive & ok[:, n]
                    alive_after[e_idx, n] += alive.sum()
        got = ps_can_curve_mc(MU, 4.0, etas, n_orders, trials, seed, threads=2, radius=radius)
        got = got["distance_only"]
        for e_idx in range(len(etas)):
            for n in range(n_orders):
                c = int(direct[e_idx, n])
                assert got["direct"][e_idx][n] == Estimate.from_sums(c, c, trials, seed)
                c = int(alive_after[e_idx, n])
                assert got["chain_survival"][e_idx][n] == Estimate.from_sums(
                    c, c, trials, seed
                )

    def test_invalid_arguments(self):
        for n_orders in (0, -2):
            with pytest.raises(DomainError):
                ps_can_curve_mc(MU, 4.0, [1.0], n_orders, 1000, seed=1)
        with pytest.raises(DomainError):
            ps_sic_curve_mc(LAM, MU, 4.0, [1.0], -1, 1000, seed=1)


class TestExactLawStage:
    """The cancellation stage of the independent-stage chain draws the n-th
    nearest radius from its law instead of from a window."""

    def test_nth_nearest_radius_is_gamma(self):
        from scipy import stats

        n_max, size = 5, 4000
        _, _, r2, _ = _independent_stage_block(_stream(53, 0), size, LAM, MU, n_max, 4.0)
        for n in range(1, n_max + 1):
            ks = stats.kstest(math.pi * MU * r2[:, n - 1], stats.gamma(n).cdf)
            assert ks.pvalue > 1e-3, (n, ks)

    def test_cancellation_rate_matches_full_window(self):
        # stage n cancels with probability exp(-eta r_n^alpha R_n) over the
        # node's fading, R_n everything beyond it; a full window drawn by
        # _radial_field, with the n-th nearest picked by _top_m, is the same
        # event counted 0/1
        eta, n_max, size = 1.0, 5, 20_000
        stats = _independent_stage_block(_stream(59, 0), size, LAM, MU, n_max, 4.0)
        _, cancel = _independent_stage_probs(*stats, eta, MU, 4.0)
        exact = cancel.mean(axis=0)
        powers, r2, _ = _radial_field(
            _stream(60, 0), size, MU, 0.0, window_radius(MU), n_max, 4.0
        )
        nearest = _top_m(powers, r2, n_max)
        beyond = powers.sum(axis=1)[:, None] - np.cumsum(nearest, axis=1)
        window = (nearest >= eta * beyond).mean(axis=0)
        se = np.sqrt((cancel.var(axis=0) + window * (1 - window)) / size)
        assert np.all(np.abs(exact - window) <= 4.0 * se), (exact, window)


class TestRadialField:
    def test_annulus_campbell(self):
        # Campbell: E[sum of h r^-alpha] = 2 pi lam (r_in^(2-a) - r_out^(2-a)) / (a - 2)
        lam, r_in, r_out, alpha, size = 1e-4, 50.0, 400.0, 4.0, 20_000
        powers, r2, counts = _radial_field(_stream(61, 0), size, lam, r_in, r_out, 3, alpha)
        drawn = np.arange(r2.shape[1])[None, :] < counts[:, None]
        assert np.all((r2[drawn] > r_in**2) & (r2[drawn] <= r_out**2))
        assert np.all(np.isinf(r2[~drawn])) and np.all(powers[~drawn] == 0.0)
        mean_count = lam * math.pi * (r_out**2 - r_in**2)
        assert abs(counts.mean() - mean_count) <= 4.0 * math.sqrt(mean_count / size)
        sums = powers.sum(axis=1)
        campbell = 2.0 * math.pi * lam * (r_in ** (2 - alpha) - r_out ** (2 - alpha)) / (alpha - 2)
        assert abs(sums.mean() - campbell) <= 4.0 * sums.std() / math.sqrt(size)

    @pytest.mark.parametrize(
        "r_in, r_out",
        [
            (0.0, 300.0),
            (50.0, 300.0),
            # per row, the third row clipped empty (r_in > r_out)
            (np.array([0.0, 40.0, 500.0, 120.0]), np.array([200.0, 90.0, 400.0, 130.0])),
        ],
        ids=["disk", "annulus", "per-row"],
    )
    def test_in_place_matches_expression(self, r_in, r_out):
        # the in-place arithmetic against the expression it replaced, on
        # the same stream: every field is bit for bit what it was
        def reference(rng, size, density, r_in, r_out, min_cols, alpha):
            mean = density * math.pi * r_out * r_out - density * math.pi * r_in * r_in
            span = r_out * r_out - r_in * r_in
            if isinstance(span, np.ndarray):
                mean, span = np.maximum(mean, 0.0), np.maximum(span, 0.0)[:, None]
                r_in = np.reshape(r_in, (-1, 1))
            counts = rng.poisson(mean, size)
            pmax = max(int(counts.max(initial=0)), min_cols, 1)
            r2 = r_in * r_in + span * (1.0 - rng.random((size, pmax)))
            r2[np.arange(pmax)[None, :] >= counts[:, None]] = np.inf
            powers = rng.exponential(size=(size, pmax)) * r2 ** (-0.5 * alpha)
            return powers, r2, counts

        size = np.size(r_in) if np.ndim(r_in) else 50
        for alpha in (3.0, 4.0):
            for min_cols in (1, 40):
                got = _radial_field(_stream(79, 0), size, 1e-4, r_in, r_out, min_cols, alpha)
                want = reference(_stream(79, 0), size, 1e-4, r_in, r_out, min_cols, alpha)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
        if np.ndim(r_in):
            assert got[2][2] == 0 and np.all(np.isinf(got[1][2]))

    def test_standard_exponential_is_exponential(self):
        # the sampler draws fading marks with standard_exponential: the
        # same draws, and the same stream position after them, as the
        # unit-scale exponential
        a, b = _stream(83, 0), _stream(83, 0)
        for shape in ((1000,), (37, 29), (0, 5)):
            assert np.array_equal(a.standard_exponential(shape), b.exponential(size=shape))
        assert a.random() == b.random()

    # (size, density, r_in, r_out, min_cols, fewest chunks), built on the
    # chunk budget so that each case spans the chunks it names
    _FAR = 400.0 / (math.pi * MU)  # squared span of 400 expected points
    _RNG = np.random.default_rng(97)
    _R_IN = _RNG.uniform(0.0, 300.0, 2000)
    _R_OUT = np.sqrt(_R_IN**2 + _FAR)
    _R_OUT[::7] = _R_IN[::7] / 2.0  # every seventh row clipped empty
    CHUNK_CASES = {
        # about 470 columns: 4 chunks, the last one partial
        "disk": (2000, MU, 0.0, math.sqrt(_FAR), 1, 3),
        "annulus": (1500, MU, 100.0, math.sqrt(1e4 + _FAR), 1, 3),
        "per-row": (2000, MU, _R_IN, _R_OUT, 1, 3),
        # nearly every row empty, the width set by min_cols alone
        "min-cols": (2 * _CHUNK_POINTS // 100 + 11, 1e-8, 0.0, 100.0, 100, 3),
        # one row per chunk
        "row-over-budget": (3, 1e-8, 0.0, 100.0, _CHUNK_POINTS + 1, 3),
        "one-chunk": (100, MU, 0.0, math.sqrt(_FAR), 1, 1),
    }

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_chunks_are_the_block_sized_draw(self, case, alpha):
        # the row chunks concatenate to the one-shot block draw bit for bit,
        # and leave the generator where that draw leaves it
        size, density, r_in, r_out, min_cols, fewest = self.CHUNK_CASES[case]
        args = (size, density, r_in, r_out, min_cols, alpha)
        rng, ref = _stream(101, 0), _stream(101, 0)
        chunks = list(_radial_chunks(rng, *args))
        want = radial_field_oracle(ref, *args)
        rows, cols = chunks[0][0].shape
        assert len(chunks) >= fewest and (rows * cols <= _CHUNK_POINTS or rows == 1)
        assert [len(c) for _, _, c in chunks] == [rows] * (len(chunks) - 1) + [
            size - rows * (len(chunks) - 1)]
        if case == "disk":
            assert size % rows  # the last chunk is partial
        for got, w in zip(zip(*chunks), want):
            got = np.concatenate(got)
            assert got.dtype == w.dtype and np.array_equal(got, w)
        assert rng.random(8).tolist() == ref.random(8).tolist()
        assert _same_state(rng, ref)
        whole = _radial_field(_stream(101, 0), *args)
        assert all(np.array_equal(g, w) for g, w in zip(whole, want))
        if case == "per-row":
            assert np.all(want[2][::7] == 0) and np.all(np.isinf(want[1][::7]))
        if case == "min-cols":
            assert want[2].max() < min_cols

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: _independent_stage_block(rng, 3000, LAM, MU, 4, 4.0),
            lambda rng: _rea_block(two_tier(bias2=10.0), 1, rng, 3000),
        ],
        ids=["independent-stages", "rea"],
    )
    def test_whole_block_callers_draw_the_one_shot_fields(self, monkeypatch, draw):
        # both callers keep drawing after each field: with the block cut
        # into many chunks, their outputs are those of the one-shot fields
        from sicnet import montecarlo

        monkeypatch.setattr(montecarlo, "_CHUNK_POINTS", 1 << 12)
        got = draw(_stream(103, 0))
        monkeypatch.setattr(montecarlo, "_radial_field", radial_field_oracle)
        want = draw(_stream(103, 0))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestFieldMemory:
    """``ps_can_curve_mc`` at the fig2 preset's doubled window (about 1700
    points per trial) holds one row chunk of its field at a time.  Drawn
    whole, one 4096-trial block peaked at 171.5 MB of numpy arrays."""

    BOUND_MB = 16.0

    @staticmethod
    def _peak_mb(trials, threads):
        etas = [db_to_linear(d) for d in FIG2_ETA_DB]
        radius = 2.0 * window_radius(DENSITY_MACRO)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ps_can_curve_mc(DENSITY_MACRO, 4.0, etas, FIG2_ORDERS, trials, 3,
                            threads=threads, radius=radius)
            return (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_one_block_peak(self):
        assert self._peak_mb(BLOCK_TRIALS, 1) < self.BOUND_MB

    def test_two_blocks_on_two_threads_peak(self):
        assert self._peak_mb(2 * BLOCK_TRIALS, 2) < 2.0 * self.BOUND_MB

    def test_row_over_the_cap_raises_before_any_row_is_drawn(self):
        with pytest.raises(DomainError, match=r"a field row of \d+ points exceeds the cap"):
            ps_can_curve_mc(1e-4, 4.0, [1.0], 2, 10, 1, radius=1e9)
        # only the counts were drawn
        rng, ref = _stream(107, 0), _stream(107, 0)
        chunks = _radial_chunks(rng, 4, MU, 0.0, 100.0, _MAX_ROW_POINTS + 1, 4.0)
        with pytest.raises(DomainError, match=f"row of {_MAX_ROW_POINTS + 1} points"):
            next(chunks)
        ref.poisson(MU * math.pi * 100.0 * 100.0 - MU * math.pi * 0.0 * 0.0, 4)
        assert _same_state(rng, ref)


def _agree(a, b, what):
    """Estimates ``a`` and ``b`` of the same quantities, from runs that share
    only their serving draws, agree within 4 combined standard errors."""
    for x, y in zip(a, b):
        assert abs(x.mean - y.mean) <= 4.0 * math.hypot(x.stderr, y.stderr), (what, x, y)


class TestFarField:
    """The exact far-field factor of the REA simulator and the
    independent-stage oracle: those estimates do not depend on the near
    window."""

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_factor_composes_with_sampled_annulus(self, alpha):
        # the field beyond R is the annulus (R, R'] plus an independent
        # field beyond R', so a sampled annulus times the factor at R'
        # averages to the factor at R
        lam, r, r_out, size = 1e-4, 50.0, 200.0, 20_000
        s = r**alpha  # C's argument is 1 at R: neither term is negligible
        powers, _, _ = _radial_field(_stream(67, 0), size, lam, r, r_out, 1, alpha)
        x = np.exp(-s * powers.sum(axis=1) - _far_field(lam, r_out**2, s, alpha))
        want = math.exp(-_far_field(lam, r**2, s, alpha))
        assert 0.2 < want < 0.6
        assert abs(x.mean() - want) <= 4.0 * x.std() / math.sqrt(size), (x.mean(), want)

    def test_max_sir_factor_matches_independent_fields(self):
        # the exponent of the fieldless no-SIC max-SIR path, on the tiers'
        # equivalent unit-power field, against sampled per-AP fields of the
        # physical tiers: E[exp(-s I)] over the fields of _sampled_fields, I
        # the Q_k-weighted sum over the tiers; the window (400 expected
        # points per tier) leaves out under 0.1% of the exponent, well under
        # the tolerance
        cfg = two_tier()
        tiers = _interferer_tiers(cfg)
        unit = _far_field(_mu_eq(tiers, 4.0), 0.0, np.ones(1), 4.0)[0]
        # s at which the exact factor is about 0.8, 0.5 and 0.2 (alpha = 4)
        s = np.array([0.2, 0.7, 1.6]) ** 2 / unit**2
        total = np.concatenate(
            [_sampled_fields(_stream(89, b), 2000, tiers, 4.0)[0] for b in range(5)]
        )
        x = np.exp(-np.multiply.outer(total, s))
        want = np.exp(-_far_field(_mu_eq(tiers, 4.0), 0.0, s, 4.0))
        assert np.allclose(want, np.exp(-np.array([0.2, 0.7, 1.6])), rtol=1e-12)
        se = x.std(axis=0) / math.sqrt(len(x))
        assert np.all(np.abs(x.mean(axis=0) - want) <= 4.0 * se), (x.mean(axis=0), want)

    def test_stage_recursion_is_the_indicator_product(self):
        rng = np.random.default_rng(71)
        size, n_max = 5000, 5
        miss = rng.random((size, n_max + 1))
        miss[rng.random(miss.shape) < 0.2] = 1.0  # serving distance inside R_{I,n}
        # with every cancellation 0 or 1: 1 - prod(miss) over the stages
        # reached, as the chain was computed with 0/1 cancellations
        cancel = (rng.random((size, n_max)) < 0.7).astype(float)
        old = 1.0 - np.cumprod(np.where(_reached(cancel == 1.0), miss, 1.0), axis=1)
        assert np.array_equal(_stage_chain_success(miss, cancel), old)
        # fractional: sum over n <= N of (1 - miss_n) M_{n-1} W_n
        cancel = rng.random((size, n_max))
        m_prev = np.cumprod(np.column_stack((np.ones(size), miss[:, :-1])), axis=1)
        w = np.cumprod(np.column_stack((np.ones(size), cancel)), axis=1)
        direct = np.cumsum((1.0 - miss) * m_prev * w, axis=1)
        success = _stage_chain_success(miss, cancel)
        assert np.allclose(success, direct, rtol=0.0, atol=1e-12)
        # a larger budget never loses a success, not even to rounding
        assert np.all(np.diff(success, axis=1) >= 0.0)

    @pytest.mark.parametrize("cancel_mode", ["strongest", "annulus"])
    @pytest.mark.parametrize("near_points", [0.25, 50.0])
    def test_rea_window_invariance(self, monkeypatch, cancel_mode, near_points):
        # a near window of 1/4 expected point leaves almost all of the
        # interference, and for the annulus estimate the exclusion radius,
        # to the factor; twice the window (in expected points) leaves less
        from sicnet import montecarlo

        etas, size, seed = [0.1, 1.0, 4.0], 20_000, 37
        for cfg in (two_tier(bias2=5.0), _dense_macro()):
            base = simulate_rea(cfg, 1, etas, size, seed, cancel_mode=cancel_mode)
            monkeypatch.setattr(montecarlo, "_NEAR_POINTS", near_points)
            other = simulate_rea(cfg, 1, etas, size, seed, cancel_mode=cancel_mode)
            monkeypatch.undo()
            for est in ("uncancelled", "cancelled", "annulus"):
                _agree(getattr(base, est), getattr(other, est), (cfg.tiers[0].lam, est))

    @pytest.mark.parametrize("near_points", [0.25, 50.0])
    def test_independent_stage_window_invariance(self, monkeypatch, near_points):
        from sicnet import montecarlo

        etas, n_max, size, seed = [0.1, 0.3, 1.0], 3, 20_000, 41
        base = ps_sic_curve_mc(LAM, MU, 4.0, etas, n_max, size, seed, independent_stages=True)
        monkeypatch.setattr(montecarlo, "_NEAR_POINTS", near_points)
        other = ps_sic_curve_mc(LAM, MU, 4.0, etas, n_max, size, seed, independent_stages=True)
        _agree(base.ravel(), other.ravel(), "independent stages")

    def test_edges_fail_loudly(self):
        cfg = two_tier(bias2=5.0)
        with np.errstate(all="raise"):
            for eta in (0.0, -1.0, math.nan, math.inf):
                for independent in (False, True):
                    with pytest.raises(DomainError):
                        ps_sic_curve_mc(
                            LAM, MU, 4.0, [1.0, eta], 1, 100, 1,
                            independent_stages=independent,
                        )
                with pytest.raises(DomainError):
                    simulate_rea(cfg, 1, [eta], 100, 1)
                with pytest.raises(DomainError):
                    ps_can_curve_mc(MU, 4.0, [1.0, eta], 1, 100, 1)
                with pytest.raises(DomainError):
                    max_sir_success_curve_mc(cfg, [1.0, eta], 100, 1)
                with pytest.raises(DomainError):
                    simulate_min_load(1e-4, 5e-4, 100.0, [0.5, eta], 100, 1)

    def test_serving_inside_cancellation_radius_never_decodes(self):
        # rows with S_n = 0 miss for certain, with no floating-point warning
        with np.errstate(all="raise"):
            stats = _independent_stage_block(_stream(73, 0), 2000, LAM, MU, 3, 4.0)
            miss, cancel = _independent_stage_probs(*stats, 1.0, MU, 4.0)
            ps_sic_curve_mc(LAM, MU, 4.0, [0.1, 10.0], 3, 2000, 73, independent_stages=True)
            simulate_rea(two_tier(bias2=5.0), 1, [0.1, 10.0], 2000, 73)
        s = stats[0]
        assert (s[:, 1:] == 0.0).any()
        assert np.all(miss[s == 0.0] == 1.0)
        assert np.all((miss >= 0.0) & (miss <= 1.0) & np.isfinite(miss))
        assert np.all((cancel >= 0.0) & (cancel <= 1.0))


class TestWindowSufficiency:
    def test_doubling_window_changes_little(self):
        # the windowed oracle chain (_sampled_chain) against the same trials
        # with the annulus (R, 2R] added: its points lie beyond R, so only
        # the totals change
        eta, n_max, blocks, size, seed = 1.0, 2, 5, 4000, 43
        r = window_radius(MU)
        p = []
        for b in range(blocks):
            rng = _stream(seed, b)
            s0 = _serving_block(rng, size, LAM, 4.0)
            total, top, cum, _ = _field_block(rng, size, MU, r, n_max, 4.0)
            annulus, _, _ = _radial_field(rng, size, MU, r, 2.0 * r, 1, 4.0)
            p.append([
                np.exp(-_chain_exponent(s0, t, top, cum, eta, n_max)[:, n_max])
                for t in (total, total + annulus.sum(axis=1))
            ])
        base, doubled = (
            Estimate.from_sums(x.sum(), (x * x).sum(), x.size, seed)
            for x in np.concatenate(p, axis=1)
        )
        assert doubled.mean < base.mean
        assert abs(base.mean - doubled.mean) < base.stderr


class TestMinLoad:
    def test_tiny_rate_threshold_covers(self):
        res = simulate_min_load(1e-5, 5e-5, 400.0, [1e-6], 300, seed=47)
        assert res.coverage[0].mean >= 0.95

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

    def test_histogram_holds_every_cell(self):
        # a core disk with too few users is enlarged and drawn again from the
        # same stream; a draw that already held n_cells users is unchanged
        assert all(voronoi_load_histogram(1e-4, 5e-4, 5, s).sum() == 5 for s in range(200))
        assert voronoi_load_histogram(1e-4, 5e-4, 200, seed=14).sum() == 200
        hist = voronoi_load_histogram(1e-4, 5e-4, 200, seed=0)
        assert hist.tolist() == [3, 15, 6, 27, 15, 4, 22, 7, 14, 33, 19, 10, 8, 17]


def _mu_eq(tiers, alpha):
    """Density of the unit-power PPP that the user ``tiers`` ``(density, UL
    power)`` map to, ranked by mean received power: sum_k mu_k Q_k^(2/alpha)."""
    return sum(mu_k * q ** (2.0 / alpha) for mu_k, q in tiers)


def _sampled_fields(rng, n_aps, tiers, alpha):
    """Give each of ``n_aps`` receivers its own multi-tier user field, one
    disk field of :func:`_radial_field` out to ``window_radius`` (400
    expected points) per interferer tier ``(density, UL power)``.  Return
    the aggregate interference per receiver and the powers and mean-power
    keys d^2 Q_k^(-2/alpha) of all users side by side."""
    total = np.zeros(n_aps)
    parts_p, parts_key = [], []
    for mu_k, q in tiers:
        base, r2, _ = _radial_field(rng, n_aps, mu_k, 0.0, window_radius(mu_k), 1, alpha)
        total += q * base.sum(axis=1)
        parts_p.append(q * base)
        parts_key.append(r2 * q ** (-2.0 / alpha))
    return total, np.concatenate(parts_p, axis=1), np.concatenate(parts_key, axis=1)


def _sampled_field_max_sir(cfg, etas, n_max, trials, seed):
    """Max-SIR success with independent fields for every (eta, N <= n_max),
    each AP's field sampled out to its window (:func:`_sampled_fields`) and
    the chain run on it: the truncated estimator that the window-free
    kernel replaced, drawing the fields trial by trial after the block's
    candidate APs."""
    tiers = _interferer_tiers(cfg)

    def block(rng, size):
        signal, _, _, first_row = _max_sir_block(cfg, rng, size, True, n_max)
        rows = []
        for trial_signal in np.split(signal, first_row[1:]):
            total, p, key = _sampled_fields(rng, len(trial_signal), tiers, cfg.alpha)
            top = _top_m(p, key, n_max)
            rows.append((total, np.pad(top, ((0, 0), (0, n_max - top.shape[1])))))
        total, top = (np.concatenate(col) for col in zip(*rows))
        sums = np.zeros((2, len(etas), n_max + 1))
        for e_idx, eta in enumerate(etas):
            x = _chain_exponent(signal, total, top, np.cumsum(top, axis=1), eta, n_max)
            sums[:, e_idx] = _moments(1.0 - np.multiply.reduceat(-np.expm1(-x), first_row), 0)
        return sums

    return _estimates(_run_blocks(trials, seed, block), trials, seed)


def _scalar_nearest_chain(x, r2_far, tiers, s, eta, n_max, alpha):
    """One AP's chain success for budgets 0..n_max given the mean powers
    ``x`` of its nearest users in mean-power order, in scalar arithmetic:
    the reference for the array recursion of :func:`_nearest_chain_success`.
    The field beyond them is each tier ``(density, UL power)`` beyond r_far
    Q_t^(1/alpha) (``r2_far`` = r_far^2), where a user's mean power falls
    below r_far^-alpha."""

    def phi(k, c):
        prod = math.exp(-sum(
            _far_field(mu_t, r2_far * q_t ** (2.0 / alpha), c * q_t, alpha)
            for mu_t, q_t in tiers
        ))
        for x_j in x[k:]:
            prod /= 1.0 + c * x_j
        return prod

    g = eta / s
    beta, w = 0.0, 1.0
    p = [phi(0, g)]
    for k in range(1, n_max + 1):
        x_k, a_k, b = x[k - 1], eta / x[k - 1], beta + g
        before = w / (1.0 + b * x_k) * phi(k, (1.0 + b * x_k) * a_k + b)
        w, beta = w / (1.0 + beta * x_k), beta + a_k * (1.0 + beta * x_k)
        p.append(p[-1] + w * phi(k, beta + g) - before)
    return [min(max(max(p[: n + 1]), 0.0), 1.0) for n in range(n_max + 1)]


def _nearest_max_sir(cfg, eta, n_max, size, seed):
    """Each trial's max-SIR success with independent fields for budget
    ``n_max``, AP by AP: after one block's candidate APs, the users of every
    AP of largest mean power, x_k = r_k^-alpha with pi mu_eq r_k^2 a running
    sum of Exp(1) (:func:`_mu_eq`), then the scalar recursion on the
    physical tiers (:func:`_scalar_nearest_chain`)."""
    tiers = _interferer_tiers(cfg)
    rng = _stream(seed, 0)
    signal, _, _, first_row = _max_sir_block(cfg, rng, size, True, n_max)
    shape = (len(signal), max(n_max, _NEAREST_USERS))
    r2 = np.cumsum(rng.standard_exponential(shape), axis=1) / (math.pi * _mu_eq(tiers, cfg.alpha))
    x = r2 ** (-0.5 * cfg.alpha)
    probs, row = [], 0
    for trial_signal in np.split(signal, first_row[1:]):
        miss = 1.0
        for s in trial_signal:
            p = _scalar_nearest_chain(x[row], r2[row, -1], tiers, s, eta, n_max, cfg.alpha)
            miss *= 1.0 - p[n_max]
            row += 1
        probs.append(1.0 - miss)
    return np.array(probs)


def _sampled_residual(rng, r2_far, tiers, share, alpha):
    """The faded interference of the tiers ``(density, UL power)`` whose
    mean power is below r_far^-alpha (``r2_far``, one squared radius per
    row): tier t beyond r_in = r_far Q_t^(1/alpha), sampled by
    :func:`_radial_field` in chunks of rows out to r_in share^(-1/(alpha -
    2)), beyond which the field left out carries ``share`` of the tier's
    mean interference beyond r_in."""
    out = np.zeros(len(r2_far))
    for lo in range(0, len(r2_far), 1000):
        for mu_t, q_t in tiers:
            r_in = np.sqrt(r2_far[lo:lo + 1000]) * q_t ** (1.0 / alpha)
            r_out = r_in * share ** (-1.0 / (alpha - 2.0))
            powers, _, _ = _radial_field(rng, len(r_in), mu_t, r_in, r_out, 1, alpha)
            out[lo:lo + 1000] += q_t * powers.sum(axis=1)
    return out


def _fieldless_max_sir(cfg, eta, size, seed):
    """Each trial's no-SIC max-SIR success with every AP's own field
    averaged out exactly, AP by AP in scalar arithmetic: 1 - prod_a (1 -
    exp(-sum_k pi mu_k (eta Q_k / S_a)^(2/alpha) C(0, alpha))), mu_k the
    density of tier k's users.  One block of trials."""
    c0 = c_integral(0.0, cfg.alpha)
    tiers = [
        (association_prob_max_power(cfg, k) * cfg.mu, t.q_ul)
        for k, t in enumerate(cfg.tiers)
    ]
    signal, total, top, first_row = _max_sir_block(cfg, _stream(seed, 0), size, True, 0)
    assert total is None and top is None
    probs = []
    for trial_signal in np.split(signal, first_row[1:]):
        miss = 1.0
        for s in trial_signal:
            x = sum(
                math.pi * mu_k * (eta * q / s) ** (2.0 / cfg.alpha) * c0
                for mu_k, q in tiers
            )
            miss *= 1.0 - math.exp(-x)
        probs.append(1.0 - miss)
    return np.array(probs)


def _shared_field_reference(cfg, tiers, rng, size, m):
    """The shared-field rows of :func:`_max_sir_block` from a plain loop over
    each trial's APs, replaying the block's stream draw for draw: the
    candidate APs, then one Poisson count per trial with a candidate AP and
    user tier ``(density, UL power)``, then per such trial its users'
    squared radii and angles and the fadings of its AP x user links.  Each
    AP's distances come from ``np.hypot``, its mean powers from
    ``**(-alpha/2)`` and its cancellation order from a stable argsort of the
    key d^2 Q^(-2/alpha); ``top`` is zero-padded to ``m`` columns.  Also
    return each trial's user count."""
    from sicnet import montecarlo

    alpha, r2_cand = cfg.alpha, montecarlo._CAND_RADIUS**2
    q_ul = np.array([q for _, q in tiers])
    lam = np.array([t.lam for t in cfg.tiers])
    counts = rng.poisson(lam * math.pi * r2_cand, (size, len(lam)))
    r2 = r2_cand * (1.0 - rng.random(counts.sum()))
    signal = np.repeat(np.tile(q_ul, size), counts.ravel()) * r2 ** (-0.5 * alpha)
    theta = 2.0 * math.pi * rng.random(len(r2))
    ap_x, ap_y = np.sqrt(r2) * np.cos(theta), np.sqrt(r2) * np.sin(theta)
    n_aps = counts.sum(axis=1)[counts.sum(axis=1) > 0]
    radius = window_radius(cfg.mu)
    user_counts = rng.poisson(
        [mu_k * math.pi * radius**2 for mu_k, _ in tiers], (len(n_aps), len(tiers))
    )
    total, top, row = [], [], 0
    for n_a, n_u in zip(n_aps, user_counts):
        u = rng.random((2, n_u.sum()))
        user_r, user_theta = radius * np.sqrt(u[0]), 2.0 * math.pi * u[1]
        user_x, user_y = user_r * np.cos(user_theta), user_r * np.sin(user_theta)
        q = np.repeat(q_ul, n_u)
        fading = rng.standard_exponential((n_a, len(q)))
        for a in range(n_a):
            d2 = np.hypot(ap_x[row + a] - user_x, ap_y[row + a] - user_y) ** 2
            p = q * d2 ** (-0.5 * alpha) * fading[a]
            order = np.argsort(d2 * q ** (-2.0 / alpha), kind="stable")[:m]
            total.append(p.sum())
            top.append(np.pad(p[order], (0, m - len(order))))
        row += n_a
    first_row = np.cumsum(n_aps) - n_aps
    return signal, np.array(total), np.array(top), first_row, user_counts.sum(axis=1)


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
        # nearest, strongest and largest mean power (UL powers 10 and 1)
        q = np.where(np.arange(9) % 3, 1.0, 10.0)
        for key in (d2, -p, d2 * q**-0.5):
            ref = np.take_along_axis(p, np.argsort(key, axis=1, kind="stable"), axis=1)
            for m in (0, 1, 2, 3, 5, 8, 9, 12):
                assert np.array_equal(_top_m(p, key.copy(), m), ref[:, :m])

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
            assert np.array_equal(_top_m(p, d2.copy(), m), ref[:, :m]), m

    @pytest.mark.parametrize("independent", [False, True])
    # "distance_only" in the ids dates from raw-distance order; the chain
    # now cancels in order of mean received power
    @pytest.mark.parametrize("n_max", [0, 1, 3], ids=lambda n: f"{n}-distance_only")
    def test_block_chain_matches_trial_loop(self, independent, n_max):
        # the chain run once over the block's rows against a loop over each
        # trial's APs: P = 1 - prod_a (1 - P_a).  With shared fields P_a =
        # exp(-eta R_{a,L_a} / S_a), stage by stage; with independent fields
        # and N = 0 no field is drawn, and each AP's own field is averaged
        # out exactly; for N >= 1 P_a is the scalar recursion on the AP's
        # users of largest mean power, drawn after the block's candidate APs
        cfg, eta, trials, seed = two_tier(), 10.0**0.3, 150, 37
        if independent and n_max == 0:
            probs = _fieldless_max_sir(cfg, eta, trials, seed)
        elif independent:
            probs = _nearest_max_sir(cfg, eta, n_max, trials, seed)
        else:
            rows = _max_sir_block(cfg, _stream(seed, 0), trials, False, n_max)
            probs = []
            for signal, total, top in zip(*(np.split(a, rows[3][1:]) for a in rows[:3])):
                miss = 1.0
                for s, residual, powers in zip(signal, total, top):
                    for x in powers:
                        if x < eta * (residual - x):
                            break  # the cancellation fails and the chain stops
                        residual -= x
                    miss *= 1.0 - math.exp(-eta * max(residual, 0.0) / s)
                probs.append(1.0 - miss)
            probs = np.array(probs)
        est = simulate_max_inst_sir(
            cfg, SicConfig(eta, n_max), trials, seed, independent_fields=independent
        )
        ref = Estimate.from_sums(probs.sum(), (probs * probs).sum(), trials, seed)
        assert est.mean == pytest.approx(ref.mean, rel=1e-12)
        assert est.stderr == pytest.approx(ref.stderr, rel=1e-9)

    def test_candidate_ap_law(self, monkeypatch):
        # one block's candidate APs: per trial and tier a Poisson count of
        # mean lam_k pi R^2, squared radii uniform on (0, R^2], rows trial by
        # trial and tier 0 before tier 1 within a trial.  A negative UL power
        # marks tier 1's rows, so each row's tier and squared radius can be
        # read back from its signal Q_k r^-4
        from scipy import stats

        from sicnet import montecarlo

        cfg, size = two_tier(), BLOCK_TRIALS
        monkeypatch.setattr(
            montecarlo, "_interferer_tiers", lambda cfg: [(1e-5, 1.0), (9e-5, -1.0)]
        )
        signal, _, _, first_row = _max_sir_block(cfg, _stream(3, 0), size, True, 0)
        tier1 = signal < 0.0
        r2 = np.abs(signal) ** -0.5
        r2_cand = montecarlo._CAND_RADIUS**2
        per_trial = np.split(tier1, first_row[1:])
        assert all(np.all(np.diff(t) >= 0) for t in per_trial)  # tier 0 first
        assert np.all((r2 > 0.0) & (r2 <= r2_cand * (1.0 + 1e-12)))
        for k, tier in enumerate(cfg.tiers):
            counts = np.zeros(size)
            counts[: len(first_row)] = [np.sum(t == bool(k)) for t in per_trial]
            mean = tier.lam * math.pi * r2_cand
            assert abs(counts.mean() - mean) <= 3.0 * math.sqrt(mean / size), (k, counts.mean())
            assert counts.var() == pytest.approx(mean, rel=0.1)  # about 4 stderr
            u = r2[tier1 == bool(k)] / r2_cand
            assert abs(u.mean() - 0.5) <= 3.0 * math.sqrt(1.0 / 12.0 / len(u)), (k, u.mean())
            assert stats.kstest(u, "uniform").pvalue >= 1e-3, k

    @pytest.mark.parametrize("independent", [False, True])
    def test_empty_trials_count_as_zero(self, monkeypatch, independent):
        # a candidate disk so small that about 70% of the trials hold no AP:
        # the estimate equals a per-trial reference that splits the block's
        # rows by the per-trial counts, drawn again from the block's stream,
        # and gives each trial without a row 0.  A disk that holds no AP in
        # any trial gives a block without rows and an estimate of exactly 0
        from sicnet import montecarlo

        cfg, eta, n_max, size, seed = two_tier(), 10.0**0.3, 2, 600, 45
        monkeypatch.setattr(montecarlo, "_CAND_RADIUS", 30.0)
        lam = np.array([t.lam for t in cfg.tiers])
        counts = _stream(seed, 0).poisson(lam * math.pi * 30.0**2, (size, 2)).sum(axis=1)
        assert np.mean(counts == 0) > 0.6
        rng = _stream(seed, 0)
        signal, total, top, first_row = _max_sir_block(cfg, rng, size, independent, n_max)
        assert np.array_equal(first_row, (np.cumsum(counts) - counts)[counts > 0])
        mu_eq = _mu_eq(_interferer_tiers(cfg), cfg.alpha)
        if independent:
            near = _nearest_users(rng, len(signal), mu_eq, n_max, cfg.alpha)
            p_a = _nearest_chain_success(*near, mu_eq, signal, eta, n_max, cfg.alpha)[:, n_max]
        else:
            x = _chain_exponent(signal, total, top, np.cumsum(top, axis=1), eta, n_max)
            p_a = np.exp(-x[:, n_max])
        probs = np.array(
            [1.0 - np.prod(1.0 - p) for p in np.split(p_a, np.cumsum(counts)[:-1])]
        )
        assert len(probs) == size and np.all(probs[counts == 0] == 0.0)
        est = simulate_max_inst_sir(
            cfg, SicConfig(eta, n_max), size, seed, independent_fields=independent
        )
        ref = Estimate.from_sums(probs.sum(), (probs * probs).sum(), size, seed)
        assert est.mean == pytest.approx(ref.mean, rel=1e-12)
        assert est.stderr == pytest.approx(ref.stderr, rel=1e-9)
        monkeypatch.setattr(montecarlo, "_CAND_RADIUS", 0.01)
        assert _max_sir_block(cfg, _stream(seed, 0), 50, independent, n_max) is None
        est = simulate_max_inst_sir(
            cfg, SicConfig(eta, n_max), 50, seed, independent_fields=independent
        )
        assert (est.mean, est.stderr) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "tiers, q_signal",
        [(_interferer_tiers(two_tier()), 10.0), ([(MU, 1.0)], 1.0)],
        ids=["two-tier", "one-tier"],
    )
    def test_nearest_chain_matches_sampled_chain(self, tiers, q_signal):
        # one receiver with fixed users of largest mean power, the recursion
        # on the tiers' equivalent unit-power field against the 0/1 chain on
        # drawn fadings, a drawn serving fading and the physical tiers'
        # field of lower mean power, tier t beyond r_far Q_t^(1/alpha),
        # sampled until 0.2% of its mean interference is left out, which
        # moves no probability by 0.001.  Two tiers: a max-SIR AP (Q = 10,
        # 1).  One tier: ps_sic_curve_mc's chain, serving power u^-alpha
        depth, reps = _NEAREST_USERS, 20_000
        mu_eq = _mu_eq(tiers, 4.0)
        r2 = np.array([0.5, 1.5, 3.0]) / (math.pi * mu_eq)
        x = r2**-2.0
        signal = np.array([q_signal * (1.6**2 * r2[0]) ** -2.0])
        rng = _stream(5, 0)
        far = _sampled_residual(rng, np.full(reps, r2[-1]), tiers, 2e-3, 4.0)
        top = rng.standard_exponential((reps, depth)) * x
        soi = rng.standard_exponential(reps) * signal
        for eta in (0.5, 1.0, 2.0):
            want = _nearest_chain_success(x[None], r2[-1:], mu_eq, signal, eta, depth, 4.0)[0]
            assert want[-1] - want[0] > 0.1  # the chain cancels often
            total = top.sum(axis=1) + far
            level = _chain_levels(soi, total, top, np.cumsum(top, axis=1), eta, depth)
            ind = _within_budget(level, depth)
            se = ind.std(axis=0) / math.sqrt(reps)
            assert np.all(np.abs(ind.mean(axis=0) - want) <= 4.0 * se), (eta, ind.mean(0), want)

    def test_independent_fields_match_sampled_fields(self):
        # the window-free chain against each AP's field sampled out to its
        # window (400 expected points per tier), on independent seeds, at
        # fig5's 0, 6 and 10 dB
        cfg, trials = two_tier(), 8000
        etas = [10.0 ** (d / 10.0) for d in (0.0, 6.0, 10.0)]
        got = _estimates(_max_sir_sums(cfg, etas, 3, trials, 41, 1, True), trials, 41)
        want = _sampled_field_max_sir(cfg, etas, 3, trials, 43)
        for a, b in zip(got[:, 1:].ravel(), want[:, 1:].ravel()):
            assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.stderr, b.stderr), (a, b)

    def test_independent_grid_zero_budget_matches_exact_law(self):
        # the N = 0 column of the independent-field SIC grid, which runs the
        # nearest-user kernel on the tiers' equivalent field, against the
        # exact no-SIC law at every fig5 threshold: an equivalent density
        # of sum mu_k in place of sum mu_k Q_k^(2/alpha) fails it
        from sicnet.experiments import FIG5_ETA_DB

        cfg, trials, seed = two_tier(), 20_000, 61
        etas = [10.0 ** (d / 10.0) for d in FIG5_ETA_DB]
        grid = _estimates(_max_sir_sums(cfg, etas, 3, trials, seed, 1, True), trials, seed)
        for eta, est in zip(etas, grid[:, 0]):
            want = 1.0 - outage_max_inst_sir(eta, cfg)
            assert abs(est.mean - want) <= 3.0 * est.stderr, (eta, est, want)

    def test_shared_fields_cancel_in_mean_power_order(self, monkeypatch):
        # every trial's users fixed on one ray: a Q = 1 user at 1000 m and
        # a Q = 10 user at 1100 m, so from every candidate AP the Q = 1 user
        # is nearer, by at most 100 m, and has less mean power.  With unit
        # fading each power is its mean, so the first of the two powers
        # must be the farther Q = 10 user's
        from sicnet import montecarlo

        class UnitFading:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_exponential(self, out):
                out[...] = 1.0
                return out

        cfg = two_tier()
        (_, q_0), (_, q_1) = _interferer_tiers(cfg)
        assert (q_0, q_1) == (10.0, 1.0)
        # tier 0 (Q = 10) first, as every trial's users come
        users = np.array([10.0, 1.0]), np.array([[1100.0, 1000.0], [0.0, 0.0]])
        monkeypatch.setattr(montecarlo, "_shared_users", lambda rng, counts, q_ul, radius: users)
        _, total, top, _ = _max_sir_block(cfg, UnitFading(_stream(7, 0)), 200, False, 2)
        assert len(top) > 1000
        assert np.all(top[:, 0] > top[:, 1])
        gap = (10.0 / top[:, 0]) ** 0.25 - top[:, 1] ** -0.25  # first minus second distance
        assert np.all((gap > 0.0) & (gap <= 100.0 + 1e-9)), (gap.min(), gap.max())
        assert np.allclose(top.sum(axis=1), total, rtol=1e-12, atol=0.0)

    def test_budget_order_on_bench_draws(self):
        # as the benchmark calls it: one seed, 64 trials and one threshold
        # per call, N = 1..3.  The nearest users drawn do not depend on N <=
        # _NEAREST_USERS, so each call is column N of one grid, bit for bit,
        # and success never falls with N
        from sicnet.experiments import FIG5_ETA_DB

        cfg, trials = two_tier(), 64
        etas = [10.0 ** (d / 10.0) for d in FIG5_ETA_DB]
        for seed in range(10):
            grid = _estimates(_max_sir_sums(cfg, etas, 3, trials, seed, 1, True), trials, seed)
            for e_idx, eta in enumerate(etas):
                ests = [
                    simulate_max_inst_sir(
                        cfg, SicConfig(eta, n), trials, seed, independent_fields=True
                    )
                    for n in (1, 2, 3)
                ]
                assert ests == grid[e_idx, 1:].tolist(), (seed, eta)
                means = [e.mean for e in ests]
                assert means == sorted(means), (seed, eta, means)

    @pytest.mark.parametrize("alpha", [4.0, 3.0])
    @pytest.mark.parametrize("sparse", [False, True], ids=["400-users", "sparse-users"])
    def test_shared_block_matches_per_trial_reference(self, monkeypatch, alpha, sparse):
        # the block's in-place AP x user arithmetic against a plain per-AP
        # loop on the same draws, at alpha = 4 (Q / (d^2 d^2)) and 3 (pow).
        # Sparse users (0.8 expected per tier) give trials without users and
        # trials with fewer than m, whose top rows are zero-padded
        from sicnet import montecarlo

        cfg, m, seed = dataclasses.replace(two_tier(), alpha=alpha), 3, 47
        tiers = montecarlo._interferer_tiers(cfg)
        if sparse:
            tiers = [(2e-7, 10.0), (2e-7, 1.0)]
            monkeypatch.setattr(montecarlo, "_interferer_tiers", lambda cfg: tiers)
        size = 300 if sparse else 40
        got = _max_sir_block(cfg, _stream(seed, 0), size, False, m)
        *want, n_users = _shared_field_reference(cfg, tiers, _stream(seed, 0), size, m)
        if sparse:
            assert np.any(n_users == 0) and np.any((n_users > 0) & (n_users < m))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[3], want[3])
        assert got[2].shape == want[2].shape == (len(want[0]), m)
        for g, w in zip(got[1:3], want[1:3]):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)

    def test_shared_budget_order_on_bench_draws(self):
        # test_budget_order_on_bench_draws with the physical field shared by
        # all APs: its draws do not depend on N, so each call is column N of
        # one grid, bit for bit, and success never falls with N
        from sicnet.experiments import FIG5_ETA_DB

        cfg, trials = two_tier(), 64
        etas = [10.0 ** (d / 10.0) for d in FIG5_ETA_DB]
        for seed in range(3):
            grid = _estimates(_max_sir_sums(cfg, etas, 3, trials, seed, 1, False), trials, seed)
            for e_idx, eta in enumerate(etas):
                ests = [
                    simulate_max_inst_sir(
                        cfg, SicConfig(eta, n), trials, seed, independent_fields=False
                    )
                    for n in (1, 2, 3)
                ]
                assert ests == grid[e_idx, 1:].tolist(), (seed, eta)
                means = [e.mean for e in ests]
                assert means == sorted(means), (seed, eta, means)

    def test_shared_user_law(self, monkeypatch):
        # one block's shared user fields: per trial with a candidate AP and
        # per tier a Poisson count of mean mu_k pi R^2, R = window_radius(mu),
        # r^2 / R^2 and the angle uniform, and tier 0's users first
        from scipy import stats

        from sicnet import montecarlo

        cfg, size, seen = two_tier(), BLOCK_TRIALS, []
        draw = montecarlo._shared_users

        def spy(rng, counts, q_ul, radius):
            q, xy = draw(rng, counts, q_ul, radius)
            seen.append((counts, q, xy))
            return q, xy

        monkeypatch.setattr(montecarlo, "_shared_users", spy)
        _, _, _, first_row = _max_sir_block(cfg, _stream(5, 0), size, False, 0)
        assert len(seen) == len(first_row)
        counts = np.array([c for c, _, _ in seen])
        radius = window_radius(cfg.mu)
        tiers = _interferer_tiers(cfg)
        q_ul = [q for _, q in tiers]
        assert all(np.array_equal(q, np.repeat(q_ul, c)) for c, q, _ in seen)
        assert all(xy.shape == (2, sum(c)) for c, _, xy in seen)
        xy = np.concatenate([xy for _, _, xy in seen], axis=1)
        tier = np.concatenate([np.repeat([0, 1], c) for c, _, _ in seen])
        u = (xy * xy).sum(axis=0) / radius**2
        angle = np.arctan2(xy[1], xy[0])
        for k, (mu_k, _) in enumerate(tiers):
            mean = mu_k * math.pi * radius**2
            assert abs(counts[:, k].mean() - mean) <= 3.0 * math.sqrt(mean / len(counts)), k
            assert counts[:, k].var() == pytest.approx(mean, rel=0.1)  # about 4 stderr
            assert stats.kstest(u[tier == k], "uniform").pvalue >= 1e-3, k
            assert stats.kstest(angle[tier == k], "uniform", (-math.pi, 2.0 * math.pi)).pvalue >= 1e-3, k

    def test_shared_block_peak_memory(self):
        # a full block of shared-field trials, about 88k AP rows, holds its
        # row arrays and one trial's AP x user arrays at a time: within
        # 11.2 MB of traced allocations.  Block-sized user arrays (about
        # 16 MB) would not fit
        import tracemalloc

        tracemalloc.start()
        try:
            _max_sir_block(two_tier(), _stream(1, 0), BLOCK_TRIALS, False, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11.2e6, peak / 1e6

    def test_zero_power_padding_keeps_chain_outcome(self):
        # rows of k < N interferers: padding them with zero-power stages up
        # to N must not change the level at which the chain succeeds
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
        # N = 0 cancels nothing, so the chain is the plain max-SIR event on
        # the same draws as the no-SIC simulator
        cfg = two_tier()
        etas = [10.0 ** (d / 10.0) for d in (-4.0, 0.0, 6.0)]
        curve = max_sir_success_curve_mc(
            cfg, etas, 200, seed=29, independent_fields=independent
        )
        for eta, est in zip(etas, curve):
            sic = simulate_max_inst_sir(
                cfg, SicConfig(eta, 0), 200, seed=29, independent_fields=independent
            )
            assert sic.mean == est.mean

    # the ids name the chain's ordering: nearest interferer first
    @pytest.mark.parametrize(
        "independent", [False, True], ids=lambda i: f"distance_only-{i}"
    )
    def test_success_nondecreasing_in_budget(self, independent):
        # the draws do not depend on N >= 1, and a chain that succeeds within
        # N cancellations succeeds within N + 1.  N = 0 draws the same
        # fields with shared fields; with independent fields it draws none
        # and averages each AP's field out exactly, so there N = 1 lies
        # above it by the SIC uplift (0.19, about 7 stderr), not draw by draw
        means = [
            simulate_max_inst_sir(
                two_tier(), SicConfig(1.0, n), 200, seed=31,
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
        # the serving distances of simulate_rea(cfg, 1, ..., 100_000, seed=97)
        serving = _run_blocks(100_000, 97, lambda rng, size: [_rea_block(cfg, 1, rng, size)[0]])
        samples = np.sort(np.concatenate(serving))
        grid = np.linspace(5.0, 160.0, 60)
        emp = np.searchsorted(samples, grid) / len(samples)
        cdf = np.array(
            [
                scipy.integrate.quad(lambda x: rea_distance_pdf(cfg, 1, x), 0.0, g)[0]
                for g in grid
            ]
        )
        assert float(np.max(np.abs(emp - cdf))) <= 0.02

    def test_modes_share_their_draws(self):
        # one pass computes every estimate; the mode only picks the one
        # that ``cancelled`` reports
        cfg, etas = two_tier(bias2=5.0), [0.3, 1.0, 3.0]
        strongest, annulus = (
            simulate_rea(cfg, 1, etas, 5000, seed=91, cancel_mode=mode)
            for mode in ("strongest", "annulus")
        )
        assert annulus.cancelled == strongest.annulus == annulus.annulus
        assert strongest.cancelled != strongest.annulus
        assert strongest.uncancelled == annulus.uncancelled
        assert strongest.rea_fraction == annulus.rea_fraction

    def test_invalid_cancel_mode(self):
        with pytest.raises(DomainError):
            simulate_rea(two_tier(bias2=5.0), 1, [1.0], 1000, seed=1, cancel_mode="x")


def _same_draws(cond, ind, what):
    """Conditional estimator ``cond`` against the indicator ``ind`` on the
    same draws, both (trials, points): the per-trial difference has mean 0,
    so its mean must lie within 3 of its standard errors (which account
    for the shared draws); the indicator's variance is never smaller.
    Returns the variance ratios, indicator over conditional."""
    d = ind - cond
    se = d.std(axis=0) / math.sqrt(len(d))
    z = np.abs(d.mean(axis=0)) / se
    ratio = ind.var(axis=0) / cond.var(axis=0)
    print(f"{what}: max |z| {z.max():.2f}, variance ratio {ratio.min():.2f}-{ratio.max():.2f}")
    assert np.all(z <= 3.0), z
    assert np.all(ratio >= 1.0), ratio
    return ratio


def _within_budget(level, n_max):
    """Success within budget N = 0..n_max from the first successful stage."""
    return ((level[:, None] >= 0) & (level[:, None] <= np.arange(n_max + 1))).astype(float)


class TestConditionalEstimators:
    """Each simulator averages exp(-eta I / S) over the serving fading; the
    0/1 indicator of the same chain, with the fading drawn separately, is
    its oracle on the same draws."""

    def test_fixed_scene_matches_run_sic_trial(self):
        # one scene, the serving fading redrawn through the scene's seed:
        # run_sic_trial's success fraction against exp(-eta R_L / S0)
        import dataclasses

        from scipy import stats

        n_max, redraws = 3, 3000
        for scene_seed, eta in ((0, 0.5), (8, 2.0)):
            scene = sample_scene(LAM, MU, rng_seed=scene_seed)
            ordered = _ordered_powers(scene, 4.0, "distance_only")
            top = ordered[None, :n_max]
            x = _chain_exponent(
                np.array([scene.serving_distance**-4.0]), np.array([ordered.sum()]),
                top, np.cumsum(top, axis=1), eta, n_max,
            )[0]
            assert x[-1] < x[0]  # cancellation matters in this scene
            wins = np.zeros(n_max + 1, dtype=int)
            for i in range(redraws):
                redrawn = dataclasses.replace(scene, rng_seed=10_000 + i)
                for n in range(n_max + 1):
                    wins[n] += run_sic_trial(redrawn, SicConfig(eta, n)).succeeded
            for n, (k, p) in enumerate(zip(wins, np.exp(-x))):
                assert 0.2 < p < 0.99
                tail = min(stats.binom.cdf(k, redraws, p), stats.binom.sf(k - 1, redraws, p))
                assert tail >= stats.norm.sf(4.0), (scene_seed, n, k, p)

    def test_chain(self):
        # the block draws the serving distance and the nearest interferers;
        # the 0/1 chain adds their fadings, the serving fading and the field
        # beyond them, sampled until 1% of its mean interference is left
        # out, all drawn separately
        etas, n_max, size, seed = [0.5, 2.0], 3, 4000, 11
        tiers = [(MU, 1.0)]
        rng = _stream(seed, 0)
        s0 = _serving_block(rng, size, LAM, 4.0)
        x, r2_far = _nearest_users(rng, size, MU, n_max, 4.0)
        other = np.random.default_rng(12)
        top = other.standard_exponential(x.shape) * x
        total = top.sum(axis=1) + _sampled_residual(other, r2_far, tiers, 1e-2, 4.0)
        cum = np.cumsum(top, axis=1)
        h = other.exponential(size=size)
        grid = ps_sic_curve_mc(LAM, MU, 4.0, etas, n_max, size, seed)
        for e_idx, eta in enumerate(etas):
            cond = _nearest_chain_success(x, r2_far, MU, s0, eta, n_max, 4.0)
            assert [e.mean for e in grid[e_idx]] == (cond.sum(axis=0) / size).tolist()
            level = _chain_levels(h * s0, total, top, cum, eta, n_max)
            _same_draws(cond, _within_budget(level, n_max), f"chain {eta:g}")

    def test_independent_stages(self):
        # the near fields' chain, 0/1 with every fading drawn, against the
        # recursion over the stages' conditional probabilities
        etas, n_max, size, seed = [0.5, 2.0], 3, 4000, 13
        s, interference, r2, weaker = stats = _independent_stage_block(
            _stream(seed, 0), size, LAM, MU, n_max, 4.0
        )
        h = np.random.default_rng(14).exponential(size=s.shape)
        h_cancel = np.random.default_rng(15).exponential(size=r2.shape)
        grid = ps_sic_curve_mc(LAM, MU, 4.0, etas, n_max, size, seed, independent_stages=True)
        for e_idx, eta in enumerate(etas):
            p = _stage_chain_success(*_independent_stage_probs(*stats, eta, MU, 4.0))
            assert [e.mean for e in grid[e_idx]] == (p.sum(axis=0) / size).tolist()
            with np.errstate(divide="ignore"):
                miss = np.where(s > 0.0, -np.expm1(-eta * interference / s), 1.0)
            cond = _stage_chain_success(miss, np.exp(-eta * r2**2 * weaker))
            level = _first_level(h * s >= eta * interference, h_cancel >= eta * r2**2 * weaker)
            _same_draws(cond, _within_budget(level, n_max), f"independent stages {eta:g}")

    @pytest.mark.parametrize("independent", [False, True])
    def test_max_sir(self, independent):
        # with independent fields the block draws each AP's users of
        # largest mean power after its candidate APs; the 0/1 chain adds
        # their fadings and the physical tiers' field of lower mean power,
        # sampled until 1% of its mean interference is left out, all drawn
        # separately
        cfg, eta, n_max, size, seed = two_tier(), 10.0**0.3, 3, 400, 15
        rng = _stream(seed, 0)
        signal, total, top, first_row = _max_sir_block(cfg, rng, size, independent, n_max)
        if independent:
            tiers = _interferer_tiers(cfg)
            mu_eq = _mu_eq(tiers, 4.0)
            x, r2_far = _nearest_users(rng, len(signal), mu_eq, n_max, 4.0)
            miss = 1.0 - _nearest_chain_success(x, r2_far, mu_eq, signal, eta, n_max, 4.0)
            other = np.random.default_rng(21)
            top = other.standard_exponential(x.shape) * x
            total = top.sum(axis=1) + _sampled_residual(other, r2_far, tiers, 1e-2, 4.0)
        cum = np.cumsum(top, axis=1)
        if not independent:
            miss = -np.expm1(-_chain_exponent(signal, total, top, cum, eta, n_max))
        cond = np.zeros((size, n_max + 1))
        cond[: len(first_row)] = 1.0 - np.multiply.reduceat(miss, first_row)
        level = _chain_levels(
            np.random.default_rng(16).exponential(size=len(signal)) * signal,
            total, top, cum, eta, n_max,
        )
        ind = np.zeros((size, n_max + 1))
        ind[: len(first_row)] = np.logical_or.reduceat(_within_budget(level, n_max), first_row)
        for n in range(n_max + 1):
            est = simulate_max_inst_sir(
                cfg, SicConfig(eta, n), size, seed, independent_fields=independent
            )
            if independent and n == 0:  # no field drawn: averaged out exactly
                want = _fieldless_max_sir(cfg, eta, size, seed).sum() / size
            else:
                want = cond[:, n].sum() / size
            assert est.mean == pytest.approx(want, rel=1e-12)
        _same_draws(cond, ind, f"max-SIR independent={independent}")

    @pytest.mark.parametrize("cancel_mode", ["strongest", "annulus"])
    def test_rea(self, cancel_mode):
        # the near fields, 0/1 with the serving fading drawn, against their
        # conditional probabilities; simulate_rea multiplies each by the
        # tiers' far-field factors, and ``cancelled`` reports the row of
        # the cancellation that cancel_mode names
        cfg, etas, size, seed = two_tier(bias2=5.0), np.array([0.5, 1.0, 2.0]), 4000, 17
        serving, interference, lo2, *_ = _rea_block(cfg, 1, _stream(seed, 0), size)
        signal = cfg.tiers[1].p_dl * serving**-4.0
        cond = np.exp(-np.multiply.outer(etas, interference / signal))
        far = np.ones_like(cond)
        for i, tier in enumerate(cfg.tiers):
            s = np.multiply.outer(etas, tier.p_dl / signal)
            # the uncancelled and strongest rows share the windows' far field
            for c, lo2_c in enumerate(lo2[[0, 0, 1], :, i]):
                far[:, c] *= np.exp(-_far_field(tier.lam, lo2_c, s, 4.0))
        res = simulate_rea(cfg, 1, etas, size, seed, cancel_mode=cancel_mode)
        rows = {"uncancelled": 0, "cancelled": 1 if cancel_mode == "strongest" else 2, "annulus": 2}
        for e_idx in range(len(etas)):
            for name, c in rows.items():
                est = getattr(res, name)[e_idx]
                got = (cond[e_idx, c] * far[e_idx, c]).sum() / size
                assert est.mean == pytest.approx(got, rel=1e-12)
        h = np.random.default_rng(18).exponential(size=size)
        ind = h * signal >= np.multiply.outer(etas, interference)
        _same_draws(
            cond.reshape(-1, size).T, ind.reshape(-1, size).T.astype(float),
            f"REA {cancel_mode}",
        )

    def test_min_load(self):
        rhos, size, seed = np.array([0.2, 0.5, 1.0]), 600, 19
        args = (1e-5, 5e-5, 400.0)
        rows = np.array(list(_min_load_trials(_stream(seed, 0), size, *args, 4.0)))
        covered = _min_load_success(rows, rhos)
        res = simulate_min_load(*args, rhos, size, seed)
        for i in range(len(rhos)):
            assert res.coverage[i].mean == covered[0, i].sum() / size
            assert res.coverage_sic[i].mean == covered[1, i].sum() / size
        cond = np.zeros((2, len(rhos), size))  # trials without a candidate fail
        cond[:, :, : len(rows)] = covered
        m_load, s0, i_total, x1 = rows.T
        signal = np.random.default_rng(20).exponential(size=len(rows)) * s0
        varsigma = np.expm1(np.multiply.outer(rhos, (m_load + 1.0) * math.log(2.0)))
        i_res = i_total - x1
        base = signal >= varsigma * i_total
        sic = base | ((x1 >= varsigma * i_res) & (signal >= varsigma * i_res))
        ind = np.zeros((2, len(rhos), size))
        ind[:, :, : len(rows)] = np.stack((base, sic))
        _same_draws(cond.reshape(-1, size).T, ind.reshape(-1, size).T, "min-load")

    def test_thread_invariance(self, monkeypatch):
        # a full block and a partial one, dispatched on 1 and 4 threads; the
        # smaller candidate disk keeps the max-SIR runs short
        from sicnet import montecarlo

        monkeypatch.setattr(montecarlo, "_CAND_RADIUS", 80.0)
        trials = BLOCK_TRIALS + 100
        cfg = two_tier()
        runs = [
            (
                simulate_rea(two_tier(bias2=5.0), 1, [0.5, 2.0], trials, 21, threads=t),
                simulate_min_load(1e-4, 5e-4, 100.0, [0.2, 1.0], trials, 22, threads=t),
                max_sir_success_curve_mc(cfg, [1.0, 3.0], trials, 23, threads=t),
                simulate_max_inst_sir(
                    cfg, SicConfig(1.0, 2), trials, 24, threads=t, independent_fields=True
                ),
                simulate_max_inst_sir(
                    cfg, SicConfig(1.0, 2), trials, 25, threads=t, independent_fields=False
                ),
            )
            for t in (1, 4)
        ]
        single, multi = runs
        assert single[0].uncancelled == multi[0].uncancelled
        assert single[0].cancelled == multi[0].cancelled
        assert single[1].coverage == multi[1].coverage
        assert single[1].coverage_sic == multi[1].coverage_sic
        assert single[2:] == multi[2:]
