"""Simulation engine: sampling laws, event-chain semantics, determinism."""

import dataclasses
import functools
import itertools
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
    rea_association_prob,
)
from sicnet.analytic import outage_max_inst_sir, ps_can, ps_plain, ps_sic
from sicnet.numerics import c_integral
from sicnet.experiments import DENSITY_MACRO, FIG2_ETA_DB, FIG2_ORDERS, FIG3_ETA_DB, FIG3_N_MAX
from sicnet.montecarlo import (
    BLOCK_TRIALS,
    _FADING_ARRIVALS,
    _MAX_BLOCK_DRAWS,
    _NEAREST_USERS,
    _REPLICATES,
    _SOBOL_TABLE,
    _chain_exponent,
    _estimates,
    _far_field,
    _interferer_tiers,
    _max_sir_block,
    _max_sir_sums,
    _min_load_success,
    _min_load_trials,
    _moments,
    _nearest_chain_success,
    _nearest_users,
    _rea_block,
    _rea_far_fields,
    _rea_layout,
    _reached,
    _replicate_estimates,
    _rqmc_sums,
    _run_blocks,
    _serving_block,
    _stage_chain_success,
    _stage_scenes,
    _scramble,
    _sobol,
    _sobol_directions,
    _stage_success,
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
    fading_order_law,
    radial_field_oracle,
    rea_distance_pdf,
    rea_scene,
    rqmc_replicates,
    rqmc_uniforms,
    rqmc_stage_chain,
    run_sic_trial,
    sample_scene,
    scrambled_matrix,
    sobol_matrix,
    sobol_uniform,
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
    radius of tier 0 often lies beyond its last arrival."""
    return NetworkConfig(
        tiers=(TierParams(1e-4, 100.0, 1.0), TierParams(1e-5, 1.0, 1.0, bias=100.0)),
        alpha=4.0,
        mu=1e-4,
        mu_j=1e-4,
    )


def _field_block(rng, size, mu_j, radius, m, alpha):
    """Sample ``size`` interferer fields in the disk of radius ``radius``
    (:func:`radial_field_oracle`); return (total, top, cum, counts) where total is
    each row's power sum, top[:, i] the (i+1)-th nearest power
    (:func:`_top_m`; zero past the row's count) and cum its running sum."""
    powers, r2, counts = radial_field_oracle(rng, size, mu_j, 0.0, radius, m, alpha)
    top = _top_m(powers, r2, m)
    return powers.sum(axis=1), top, np.cumsum(top, axis=1), counts


def _sampled_chain(etas, n_max, trials, seed):
    """The faithful SIC chain for every (eta, N <= n_max) on sampled fields:
    each trial's serving distance and its field out to ``window_radius``
    (400 expected points, :func:`_field_block`), with the serving fading
    averaged out (:func:`_chain_exponent`).  The truncated estimator that
    the window-free kernel replaced in ``ps_sic_curve_mc``, draw for draw."""

    def block(rng, size):
        s0 = _serving_block(rng.standard_exponential(size), LAM, 4.0)
        total, top, cum, _ = _field_block(rng, size, MU, window_radius(MU), n_max, 4.0)
        sums = np.zeros((2, len(etas), n_max + 1))
        for e_idx, eta in enumerate(etas):
            x = _chain_exponent(s0, total, top, cum, eta, n_max)
            sums[:, e_idx] = _moments(np.exp(-x), 0)
        return sums

    return _estimates(_run_blocks(trials, seed, block), trials, seed)


def _scalar_can_trial(e, eta, mu_j):
    """One trial of ``ps_can_curve_mc``'s distance order at alpha = 4, one
    scalar at a time, from the unit exponentials ``e`` of its nearest
    interferers (pi mu_j r_k^2 is the sum of the first k): for n = 1..len(e),
    the probability over every fading that the n-th nearest decodes against
    the rest, and that stages 1..n all decode.  Stage k decodes when h_k x_k
    >= eta R_k, R_k the users past the k-th plus the field beyond the last,
    whose Laplace transform at alpha = 4 is exp(-pi mu_j sqrt(c)
    arctan(sqrt(c) / r_last^2)).  Integrating h_1, then h_2, ... in turn
    leaves a weight w and an exponent c on R_k."""
    r2 = [total / (math.pi * mu_j) for total in itertools.accumulate(e)]
    x = [1.0 / (v * v) for v in r2]

    def laplace(k, c):  # E[exp(-c R_k)]
        out = math.exp(-math.pi * mu_j * math.sqrt(c) * math.atan(math.sqrt(c) / r2[-1]))
        for x_j in x[k:]:
            out /= 1.0 + c * x_j
        return out

    direct, chain, w, c = [], [], 1.0, 0.0
    for k, x_k in enumerate(x, 1):
        a = eta / x_k
        direct.append(laplace(k, a))
        # exp(-c h_k x_k) over h_k >= a R_k
        w, c = w / (1.0 + c * x_k), c + a * (1.0 + c * x_k)
        chain.append(w * laplace(k, c))
    return direct, chain


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

    def test_caller_parts(self):
        # block b gets stream b and parts[b]; outputs add in block order
        def block(rng, part):
            return [(part, int(rng.integers(0, 2**62)))]

        parts = ["a", "b", "c"]
        for threads in (1, 4):
            got = _run_blocks(5, 39, block, threads, parts=parts)
            assert got == [(p, int(_stream(39, b).integers(0, 2**62))) for b, p in enumerate(parts)]

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
            lambda: ps_can_curve_mc(0.0, 4.0, [1.0], 2, 10, 1),
            lambda: ps_can_curve_mc(MU, 4.0, [1.0], 2.5, 10, 1),
            lambda: ps_can_curve_mc(MU, 4.0, [1.0], 1 << 10, 10, 1),
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
            "can-alpha-1", "can-mu_j-0", "can-n_orders-2.5", "can-n_orders-over-cap",
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


def test_montecarlo_imports_from_analytic_only_the_rea_control_law():
    # the simulators are the closed forms' oracle, so they share no code
    # with them, but for one exact mean: simulate_rea's cancelled rows
    # subtract the uncancelled success less its closed form, ps_ic_rea(...,
    # 0).  Its uncancelled row stays raw and gates that law
    import ast
    import inspect

    from sicnet import montecarlo

    tree = ast.parse(inspect.getsource(montecarlo))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.setdefault(module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.name, set()) for alias in node.names)
    assert imported
    assert {m: names for m, names in imported.items() if m.split(".")[-1] == "analytic"} == {
        ".analytic": {"ps_ic_rea"}
    }
    readers = {
        stmt.name
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id == "ps_ic_rea"
    }
    assert readers == {"simulate_rea"}


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
        # plug-in variance is the Bernoulli p(1 - p)
        for c, n in ((0, 10), (250, 1000), (7, 7), (4095, 4097)):
            p = c / n
            est = Estimate.from_sums(c, c, n, seed=3)
            assert (est.mean, est.trials, est.seed, est.dof) == (p, n, 3, None)
            assert est.stderr == pytest.approx(math.sqrt(p * (1.0 - p) / n), rel=1e-12)

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
        # past BLOCK_TRIALS points, so the replicates run in several chunks
        trials = BLOCK_TRIALS + 500
        runs = [
            ps_sic_curve_mc(
                LAM, MU, 4.0, [0.5, 2.0], 2, trials, seed=29, threads=threads,
                independent_stages=True,
            ).tolist()
            for threads in (1, 1, 4)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert {(e.trials, e.dof) for row in runs[0] for e in row} == {(trials, _REPLICATES - 1)}

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


class TestRqmcChain:
    """The faithful chain's randomized quasi-Monte Carlo layout: R =
    min(32, trials) scrambled Sobol' replicates through the block driver."""

    FIG3_ETAS = [db_to_linear(d) for d in FIG3_ETA_DB]

    def _grid(self, trials, seed, threads=1):
        return ps_sic_curve_mc(LAM, MU, 4.0, self.FIG3_ETAS, FIG3_N_MAX, trials, seed, threads)

    def test_sobol_points(self):
        # unscrambled and unshifted: the scalar recurrence's points, chunks
        # that start at a multiple of their size rounded up to a power of 2
        # reading the points of one whole sequence
        base = [sobol_matrix(poly, init, 9) for poly, init in _SOBOL_TABLE[:6]]
        want = [[sobol_uniform(i, m, 0) for m in base] for i in range(300)]
        zero = np.zeros(6, dtype=np.uint64)
        for lo, hi in ((0, 300), (128, 256), (256, 300), (299, 300)):
            got = np.clip(_sobol(lo, hi, _sobol_directions(6, 9), zero), 2.0**-53, 1.0 - 2.0**-53)
            assert got.tolist() == want[lo:hi]
        assert _sobol(0, 4, _sobol_directions(2, 2), zero[:2]).tolist() == [
            [0.0, 0.0], [0.5, 0.5], [0.25, 0.75], [0.75, 0.25]
        ]
        # scrambled and shifted copies, two rows of three coordinates
        draws = np.random.default_rng(41).integers(0, 2**52, (2, 3, 53), dtype=np.uint64)
        got = _sobol(0, 40, _scramble(_sobol_directions(3, 6), draws[..., :6]), draws[..., 52])
        for row, copies in enumerate(draws.tolist()):
            for d, entries in enumerate(copies):
                m = scrambled_matrix(sobol_matrix(*_SOBOL_TABLE[d], 6), entries[:52])
                want = [sobol_uniform(i, m, entries[52]) for i in range(40)]
                assert np.clip(got[row, :, d], 2.0**-53, 1.0 - 2.0**-53).tolist() == want

    def test_unscrambled_points_are_scipys(self):
        # the literal direction table against scipy's own Sobol' points, as
        # a set: scipy walks the sequence in Gray-code order
        from scipy.stats import qmc

        dim = len(_SOBOL_TABLE)
        ours = _sobol(0, 1024, _sobol_directions(dim, 10), np.zeros(dim, dtype=np.uint64))
        theirs = qmc.Sobol(dim, scramble=False).random(1024)
        assert sorted(map(tuple, ours.tolist())) == sorted(map(tuple, theirs.tolist()))

    @pytest.mark.parametrize("shape, m", [((6,), 6), ((11, 2), 6), ((2,), 12)])
    def test_replicates_are_nets(self, shape, m):
        # at n = 2^m points per replicate, in one chunk and in 32, every
        # scrambled and shifted copy is a (0, m, 2)-net in coordinates 0
        # and 1 and stratifies every coordinate
        seen = []

        def integrand(u, kept):
            seen.append(u)
            return np.zeros(len(kept))

        _rqmc_sums(_REPLICATES << m, 5, shape, 1, integrand)
        u = np.concatenate(seen, axis=-2).reshape(-1, 1 << m, shape[-1])
        cells = np.floor(u * (1 << m)).astype(np.int64)
        assert np.all(np.sort(cells, axis=1) == np.arange(1 << m)[:, None])
        for a in range(m + 1):
            cell = (cells[..., 0] >> (m - a) << (m - a)) + (cells[..., 1] >> a)
            assert all(len(set(row)) == 1 << m for row in cell.tolist()), a

    def test_wide_layout_raises(self, monkeypatch):
        # as many coordinates as the direction table holds, and a wider
        # layout refused before any stream is opened
        from sicnet import montecarlo

        def no_stream(seed, index):
            raise AssertionError("a stream was opened")

        assert len(_SOBOL_TABLE) == 128
        monkeypatch.setattr(montecarlo, "_stream", no_stream)
        with pytest.raises(DomainError, match="at most 128 coordinates, got 129"):
            ps_sic_curve_mc(LAM, MU, 4.0, [1.0], 128, 64, 0)
        with pytest.raises(DomainError, match="got 129"):
            _rqmc_sums(64, 0, (3, 129), 1, None)

    def test_replicate_estimates(self):
        # equal sizes: the replicate means' sample standard deviation over
        # sqrt(R); unequal: the size-weighted form, and the mean over trials
        sums = np.random.default_rng(5).random((8, 3)) * 10.0
        est = _replicate_estimates(sums, np.full(8, 10), 7)
        means = sums / 10.0
        assert [e.mean for e in est] == pytest.approx(means.mean(axis=0), rel=1e-14)
        assert [e.stderr for e in est] == pytest.approx(
            means.std(axis=0, ddof=1) / math.sqrt(8), rel=1e-12
        )
        assert {(e.trials, e.seed, e.dof) for e in est} == {(80, 7, 7)}
        sizes = np.array([11, 11, 10, 10])
        est = _replicate_estimates(sums[:4], sizes, 7)
        m = sums[:4].sum(axis=0) / 42
        var = (sizes[:, None] * (sums[:4] / sizes[:, None] - m) ** 2).sum(axis=0) / (3 * 42)
        assert [e.mean for e in est] == pytest.approx(m, rel=1e-14)
        assert [e.stderr for e in est] == pytest.approx(np.sqrt(var), rel=1e-12)

    @pytest.mark.parametrize("trials", [6000, 3 * BLOCK_TRIALS + 17])
    def test_chunks_replay_the_replicates(self, trials):
        # budgets not divisible by 32, in several chunks of 128 Sobol'
        # indices per replicate: bit for bit across reruns and threads, and
        # each mean and stderr that of the oracle's replicates taken whole
        assert trials % _REPLICATES and trials // _REPLICATES > BLOCK_TRIALS // _REPLICATES
        runs = [self._grid(trials, 17, threads).tolist() for threads in (1, 1, 4)]
        assert runs[0] == runs[1] == runs[2]
        assert {e.dof for row in runs[0] for e in row} == {_REPLICATES - 1}
        assert {e.trials for row in runs[0] for e in row} == {trials}
        reps = rqmc_replicates(trials, 17, 1 + max(FIG3_N_MAX, _NEAREST_USERS))
        sizes = np.array([len(r) for r in reps])
        e = np.concatenate(reps)
        s0, near = _serving_block(e[:, 0], LAM, 4.0), _nearest_users(e[:, 1:], MU, 4.0)
        for row, eta in zip(runs[0], self.FIG3_ETAS):
            p = _nearest_chain_success(*near, MU, s0, eta, FIG3_N_MAX, 4.0)
            means = np.array([c.mean(axis=0) for c in np.split(p, np.cumsum(sizes)[:-1])])
            mean = p.mean(axis=0)
            se = np.sqrt(sizes @ (means - mean) ** 2 / ((len(sizes) - 1) * trials))
            assert [x.mean for x in row] == pytest.approx(mean, rel=1e-12, abs=1e-15)
            assert [x.stderr for x in row] == pytest.approx(se, rel=1e-9)

    def test_small_budgets(self):
        # the bench's set-up probe calls both chains at 16 trials: 16
        # replicates of one point each; one trial leaves no spread to measure
        for independent in (False, True):
            for trials in (2, 16):
                est = ps_sic_curve_mc(
                    LAM, MU, 4.0, [1.0], 1, trials, 0, independent_stages=independent
                )
                assert {(e.trials, e.dof) for e in est.ravel()} == {(trials, trials - 1)}
                assert all(0.0 < e.stderr < 1.0 for e in est.ravel())
            for trials in (1, np.int64(1)):
                with pytest.raises(DomainError, match="trials must be >= 2"):
                    ps_sic_curve_mc(
                        LAM, MU, 4.0, [1.0], 1, trials, 0, independent_stages=independent
                    )

    def test_zero_shift_stays_finite(self, monkeypatch):
        # Sobol' point 0 is the origin: unscrambled and unshifted, it would
        # map to an infinite exponential, and a uniform of 1 to a zero one
        from sicnet import montecarlo

        class Unshifted:
            def integers(self, low, high, size, dtype):
                return np.zeros(size, dtype=dtype)

        monkeypatch.setattr(montecarlo, "_stream", lambda seed, index: Unshifted())
        grid = self._grid(2 * _REPLICATES + 5, 3)
        means = np.array([[e.mean for e in row] for row in grid])
        stderrs = np.array([[e.stderr for e in row] for row in grid])
        assert np.all(np.isfinite(means)) and np.all(np.isfinite(stderrs))
        assert np.all((means >= 0.0) & (means <= 1.0))
        assert np.all(np.diff(means, axis=1) >= 0.0)

    def test_fig3_grid_peak_memory(self):
        # chunks of at most BLOCK_TRIALS points: 100 000 trials hold no
        # more than one chunk's arrays (1.29 MiB with iid blocks of 4096)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self._grid(100_000, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    # Calibration of the RQMC standard error on the fig3 grid at the bench's
    # 2048 trials (32 replicates of 64), over seeds fixed before the first
    # run.  Each seed's 11 thresholds share their points, so the seeds are
    # the independent units: at each threshold the count of |z| > 3 over
    # the 64 seeds is Binomial(64, p) under the t law with 31 degrees of
    # freedom, p = 2 P(T_31 > 3) = 0.00529, and a count above 4 has
    # probability 2.4e-5 (2.7e-4 for any of the 11).  The spread of the 64
    # means over the mean reported stderr has a relative sampling error of
    # about 1 / sqrt(126) per point; over 60 other groups of 64 seeds the
    # point ratios ranged 0.67-1.27 and the pooled ratio 0.89-1.15.
    CALIBRATION_SEEDS = range(2900, 2964)

    def test_calibration(self):
        from scipy import stats

        runs = [self._grid(2048, seed) for seed in self.CALIBRATION_SEEDS]
        means = np.array([[[e.mean for e in row] for row in g] for g in runs])
        stderrs = np.array([[[e.stderr for e in row] for row in g] for g in runs])
        assert {e.dof for g in runs for e in g.ravel()} == {31}
        plain = np.array([ps_plain(eta, LAM, MU, 4.0) for eta in self.FIG3_ETAS])
        z = (means[:, :, 0] - plain) / stderrs[:, :, 0]
        p = 2.0 * stats.t.sf(3.0, 31)
        counts = (np.abs(z) > 3.0).sum(axis=0)
        bound = stats.binom.isf(1e-3 / len(plain), len(z), p)
        print(f"|z| > 3 share {counts.sum() / z.size:.4f} vs t31 rate {p:.4f}, "
              f"per-threshold counts {counts.tolist()} vs bound {bound:g}")
        assert bound == 4 and counts.max() <= bound, counts
        ratio = means.std(axis=0, ddof=1) / stderrs.mean(axis=0)
        pooled = math.sqrt(means.var(axis=0, ddof=1).sum() / (stderrs**2).mean(axis=0).sum())
        print(f"spread / stderr: points {ratio.min():.3f}-{ratio.max():.3f}, pooled {pooled:.3f}")
        assert np.all((ratio > 0.6) & (ratio < 1.5)), ratio
        assert 0.8 < pooled < 1.25


class TestRqmcStages:
    """The independent-stage chain on the faithful chain's replicate layout:
    each of its 2 N + 1 stages scrambles its own copies of the Sobol' points."""

    FIG3_ETAS = [db_to_linear(d) for d in FIG3_ETA_DB]

    def _grid(self, trials, seed, lambda_eq=LAM, mu_j=MU, alpha=4.0, etas=None, n_max=FIG3_N_MAX):
        etas = self.FIG3_ETAS if etas is None else etas
        return ps_sic_curve_mc(
            lambda_eq, mu_j, alpha, etas, n_max, trials, seed, independent_stages=True
        )

    @pytest.mark.parametrize("trials", [100, BLOCK_TRIALS + 70])
    def test_scalar_replay(self, trials):
        # one chunk, and two chunks with replicates of unequal sizes: each
        # mean and stderr that of the scalar oracle's replicate values
        etas, n_max, seed = [0.3, 2.0], 2, 31
        grid = self._grid(trials, seed, etas=etas, n_max=n_max)
        sizes, values = rqmc_stage_chain(LAM, MU, 4.0, etas, n_max, trials, seed)
        mean = sizes @ values.reshape(len(sizes), -1) / trials
        se = np.sqrt(sizes @ (values.reshape(len(sizes), -1) - mean) ** 2
                     / ((len(sizes) - 1) * trials))
        assert [e.mean for e in grid.ravel()] == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert [e.stderr for e in grid.ravel()] == pytest.approx(se, rel=1e-9)
        assert {(e.trials, e.dof) for e in grid.ravel()} == {(trials, len(sizes) - 1)}

    def test_arrival_count_invariance(self, monkeypatch):
        # every stage is exact over the field beyond its last arrival, so
        # one arrival and six estimate the same chain
        from sicnet import montecarlo

        base = self._grid(4096, 3101)
        monkeypatch.setattr(montecarlo, "_ARRIVALS", 6)
        other = self._grid(4096, 3102)
        _agree(base.ravel(), other.ravel(), "stage arrivals")

    def test_off_grid_ps_sic(self):
        # where the decode integrand decays fast (rate about 92 at N = 0),
        # ps_sic against the oracle of its own event, two-sided at 3 stderr
        lambda_eq, alpha, eta = 0.468 * MU, 2.3445, db_to_linear(9.99)
        grid = self._grid(20_000, 2303, lambda_eq, MU, alpha, [eta], 2)[0]
        for n, est in enumerate(grid):
            want = ps_sic(eta, n, lambda_eq, MU, alpha).ps_sic_total
            assert abs(est.mean - want) <= 3.0 * est.stderr, (n, est, want)

    # Calibration of the replicate standard error on the fig3 grid at the
    # bench's 2048 trials, against ps_sic, over seeds fixed before the
    # first run; the seeds are the independent units, as in
    # TestRqmcChain.test_calibration.  Each point's count of |z| > 3 is
    # Binomial(64, 2 P(T_31 > 3)); the bound holds all 66 points at a
    # family rate of 1e-3.  The mean error over the 64 seeds, in units of
    # its own standard error, would show a bias.
    CALIBRATION_SEEDS = range(3200, 3264)

    def test_calibration(self):
        from scipy import stats

        runs = [self._grid(2048, seed) for seed in self.CALIBRATION_SEEDS]
        means = np.array([[[e.mean for e in row] for row in g] for g in runs])
        stderrs = np.array([[[e.stderr for e in row] for row in g] for g in runs])
        assert {e.dof for g in runs for e in g.ravel()} == {31}
        want = np.array([
            [ps_sic(eta, n, LAM, MU, 4.0).ps_sic_total for n in range(FIG3_N_MAX + 1)]
            for eta in self.FIG3_ETAS
        ])
        z = (means - want) / stderrs
        p = 2.0 * stats.t.sf(3.0, 31)
        counts = (np.abs(z) > 3.0).sum(axis=0)
        bound = stats.binom.isf(1e-3 / want.size, len(z), p)
        print(f"|z| > 3 share {counts.sum() / z.size:.4f} vs t31 rate {p:.4f}, "
              f"largest count {counts.max()} vs bound {bound:g}; "
              f"z mean {z.mean():+.3f}, sd {z.std():.3f}")
        assert counts.max() <= bound, counts
        ratio = means.std(axis=0, ddof=1) / stderrs.mean(axis=0)
        pooled = math.sqrt(means.var(axis=0, ddof=1).sum() / (stderrs**2).mean(axis=0).sum())
        print(f"spread / stderr: points {ratio.min():.3f}-{ratio.max():.3f}, pooled {pooled:.3f}")
        assert np.all((ratio > 0.6) & (ratio < 1.5)), ratio
        assert 0.8 < pooled < 1.25
        bias = (means.mean(axis=0) - want) / (means.std(axis=0, ddof=1) / math.sqrt(len(z)))
        limit = stats.t.isf(0.5e-3 / want.size, len(z) - 1)
        print(f"mean error / its stderr: {np.abs(bias).max():.2f} at most vs {limit:.2f}")
        assert np.all(np.abs(bias) <= limit), bias


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

    def test_fading_order_wins_in_the_mean(self):
        # n = 1 on one field: the strongest point's power is at least the
        # nearest's and its residual is no larger, so it decodes whenever
        # the nearest does; the two orders draw fields of their own, so
        # this holds for their means, at every threshold
        etas = [10.0 ** (d / 10.0) for d in (-10.0, -3.0, 0.0, 3.0, 10.0, 20.0)]
        curves = ps_can_curve_mc(MU, 4.0, etas, 2, BLOCK_TRIALS + 700, seed=43)
        for dist, fade in zip(curves["distance_only"]["direct"], curves["power_with_fading"]["direct"]):
            assert fade[0].mean >= dist[0].mean - 3.0 * math.hypot(fade[0].stderr, dist[0].stderr)

    def test_distance_order_is_the_field_block_construction(self):
        etas, n_orders, trials, seed = [0.5, 1.0, 4.0], 4, BLOCK_TRIALS + 900, 47
        got = ps_can_curve_mc(MU, 4.0, etas, n_orders, trials, seed, threads=2)["distance_only"]
        # a scalar loop, trial by trial, over the block's n_orders nearest
        # interferers, exact over every fading and the field beyond them
        direct = np.zeros((len(etas), n_orders))
        chain = np.zeros_like(direct)
        for block, size in enumerate((BLOCK_TRIALS, trials - BLOCK_TRIALS)):
            draws = _stream(seed, block).standard_exponential((size, n_orders))
            for e_idx, eta in enumerate(etas):
                for row in draws.tolist():
                    d, c = _scalar_can_trial(row, eta, MU)
                    assert all(ci <= di for ci, di in zip(c, d))
                    direct[e_idx] += d
                    chain[e_idx] += c
        # the 0/1 counts of fields sampled out to twice window_radius
        # (about 1600 points per trial)
        wins = np.zeros((2, len(etas), n_orders), dtype=np.int64)
        for block, size in enumerate((BLOCK_TRIALS, trials - BLOCK_TRIALS)):
            total, top, cum, counts = _field_block(
                _stream(seed, block), size, MU, 2.0 * window_radius(MU), n_orders, 4.0
            )
            enough = counts[:, None] >= np.arange(1, n_orders + 1)[None, :]
            for e_idx, eta in enumerate(etas):
                ok = (top >= eta * (total[:, None] - cum)) & enough
                wins[0, e_idx] += ok.sum(axis=0)
                wins[1, e_idx] += np.logical_and.accumulate(ok, axis=1).sum(axis=0)
        for key, scalar, counted in zip(("direct", "chain_survival"), (direct, chain), wins):
            for e_idx in range(len(etas)):
                for n in range(n_orders):
                    est = got[key][e_idx][n]
                    assert est.mean == pytest.approx(scalar[e_idx, n] / trials, rel=1e-12)
                    c = int(counted[e_idx, n])
                    ref = Estimate.from_sums(c, c, trials, seed)
                    assert abs(est.mean - ref.mean) <= 4.0 * math.hypot(est.stderr, ref.stderr), (
                        key, e_idx, n, est, ref)
                    assert got["chain_survival"][e_idx][n].mean <= got["direct"][e_idx][n].mean

    def test_fading_order_law_at_n1_is_the_strongest_node_law(self):
        # two routes that share no code: the product form and Campbell's
        from sicnet.validation import _ps_strongest_exact

        for alpha in (2.5, 3.0, 4.0, 6.0):
            for eta in (1.0, 1.7, 10.0, 1e3):
                want = float(_ps_strongest_exact(eta, alpha))
                assert fading_order_law(eta, 1, alpha) == pytest.approx(want, rel=1e-12)
        with pytest.raises(DomainError):
            fading_order_law(0.5, 1, 4.0)

    def test_fading_order_matches_its_law(self):
        # gates the Campbell mean that stands in for the powers past the
        # _FADING_ARRIVALS drawn ones: fig2's grid, two-sided, under the
        # binomial null stderr, at every point with p * trials >= 5; the
        # Sidak multiplier holds the family false-alarm rate at 1e-3
        from scipy import stats

        trials, seed = 500_000, 4201
        etas = [db_to_linear(d) for d in FIG2_ETA_DB]
        fade = ps_can_curve_mc(DENSITY_MACRO, 4.0, etas, FIG2_ORDERS, trials, seed)
        fade = fade["power_with_fading"]["direct"]
        points = [
            (eta, n, fading_order_law(eta, n, 4.0), fade[e_idx][n - 1].mean)
            for e_idx, eta in enumerate(etas)
            for n in range(1, FIG2_ORDERS + 1)
        ]
        points = [pt for pt in points if pt[2] * trials >= 5.0]
        per_point = 1.0 - (1.0 - 1e-3) ** (1.0 / len(points))
        bound = stats.norm.isf(per_point / 2.0)
        z = [abs(mean - p) / math.sqrt(p * (1.0 - p) / trials) for _, _, p, mean in points]
        worst = int(np.argmax(z))
        print(f"{len(points)} points, worst |z| {z[worst]:.2f} at eta {points[worst][0]:g}, "
              f"n={points[worst][1]} (bound {bound:.2f}, K={_FADING_ARRIVALS})")
        assert max(z) <= bound, points[worst]

    @staticmethod
    def _fading_order_draws(etas, n_orders, trials, seed):
        """The fading order's 0/1 outcomes p_n >= eta R_n and their
        probabilities given the arrivals past the n-th, min(1, p_{n+1} /
        (eta R_n))^(n/2) at alpha = 4, both (n_eta, trials, n_orders), on
        the draws of ``ps_can_curve_mc``: in each block the distance order's
        exponentials, then the n_orders + K power-domain arrivals.  R_n
        is summed plainly here, and the powers past the K-th enter through
        their Campbell mean pi mu' / r_last^2.  Also returns p_{n+1} / (eta
        R_n)."""
        fade = MU * math.gamma(1.5)
        blocks = []
        for block in range(-(-trials // BLOCK_TRIALS)):
            size = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
            rng = _stream(seed, block)
            rng.standard_exponential((size, n_orders))
            powers, r2_last = _nearest_users(
                rng.standard_exponential((size, n_orders + _FADING_ARRIVALS)), fade, 4.0
            )
            tail = math.pi * fade / r2_last
            residual = np.column_stack([powers[:, n:].sum(axis=1) + tail for n in range(1, n_orders + 1)])
            ratio = powers[:, 1 : n_orders + 1] / np.multiply.outer(etas, residual)
            outcome = powers[:, :n_orders] >= np.multiply.outer(etas, residual)
            blocks.append((outcome, np.minimum(ratio, 1.0) ** (np.arange(1, n_orders + 1) / 2.0), ratio))
        return tuple(np.concatenate(a, axis=1).astype(float) for a in zip(*blocks))

    def test_fading_order_against_its_count_below_0_db(self):
        # at eta < 1 a trial's next power can exceed eta R_n, where min(1, .)
        # binds; the conditional means against the 0/1 count of the same
        # draws, within 4 combined standard errors, and never a larger
        # standard error
        etas, n_orders, trials, seed = [0.2, 0.4, 0.7], 3, BLOCK_TRIALS + 900, 53
        got = ps_can_curve_mc(MU, 4.0, etas, n_orders, trials, seed)["power_with_fading"]["direct"]
        outcomes, cond, ratios = self._fading_order_draws(etas, n_orders, trials, seed)
        assert np.all((ratios > 1.0).any(axis=1))  # the clip binds at every point
        for e_idx in range(len(etas)):
            for n in range(n_orders):
                est = got[e_idx][n]
                assert est.mean == pytest.approx(cond[e_idx, :, n].mean(), rel=1e-12)
                c = int(outcomes[e_idx, :, n].sum())
                ref = Estimate.from_sums(c, c, trials, seed)
                assert abs(est.mean - ref.mean) <= 4.0 * math.hypot(est.stderr, ref.stderr), (
                    etas[e_idx], n + 1, est, ref)
                assert est.stderr <= ref.stderr, (etas[e_idx], n + 1, est, ref)

    def test_fading_order_scale_law(self):
        # at eta >= 1, p_{n+1} <= R_n keeps the clip from binding, so each
        # trial's value, and each mean, is eta^(-n/2) times its eta = 1 value
        etas, n_orders, trials, seed = [1.0, 1.7, 10.0, 1e3], 6, BLOCK_TRIALS + 300, 57
        got = ps_can_curve_mc(MU, 4.0, etas, n_orders, trials, seed)["power_with_fading"]["direct"]
        for e_idx, eta in enumerate(etas):
            for n in range(1, n_orders + 1):
                scale = eta ** (-n / 2.0)
                assert got[e_idx][n - 1].mean == pytest.approx(scale * got[0][n - 1].mean, rel=1e-12)
                # the plug-in variance E[X^2] - p^2 scales with the
                # samples, so it keeps its relative digits at any scale;
                # no absolute floor, since these stderrs reach 1e-13
                want = scale * got[0][n - 1].stderr
                assert got[e_idx][n - 1].stderr == pytest.approx(want, rel=1e-10, abs=0.0)

    # Calibration of the fading order's plug-in standard error on fig2's
    # grid at the bench's 2048 trials against fading_order_law, over seeds
    # fixed before the first run, with the bounds of TestRea.test_calibration.
    # By the scale law each order's z is the same at all three thresholds,
    # so the family is the 8 orders.  The values of an order are skewed
    # right, more so as n grows (the mean of n = 8 at 0 dB is 4.3e-4, its
    # largest value 1), so z is skewed left and its spread reaches 1.24
    FADING_CALIBRATION_SEEDS = range(3700, 3764)

    def test_fading_order_calibration(self):
        from scipy import stats

        etas, trials = [db_to_linear(d) for d in FIG2_ETA_DB], 2048
        want = np.array([[fading_order_law(eta, n, 4.0) for n in range(1, FIG2_ORDERS + 1)]
                         for eta in etas])
        runs = [
            ps_can_curve_mc(DENSITY_MACRO, 4.0, etas, FIG2_ORDERS, trials, seed)["power_with_fading"]["direct"]
            for seed in self.FADING_CALIBRATION_SEEDS
        ]
        means, stderrs = (np.vectorize(lambda e, f=f: getattr(e, f))(np.array(runs)) for f in ("mean", "stderr"))
        z = (means - want) / stderrs
        assert np.allclose(z, z[:, :1], rtol=1e-6)
        family = FIG2_ORDERS
        p = 2.0 * stats.norm.sf(3.0)
        counts = (np.abs(z) > 3.0).sum(axis=0)
        bound = stats.binom.isf(1e-3 / family, len(z), p)
        print(f"|z| > 3 share {(np.abs(z) > 3.0).mean():.4f} vs normal rate {p:.4f}, "
              f"largest count {counts.max()} vs bound {bound:g}; z sd {z.std():.3f}")
        assert counts.max() <= bound, counts
        ratio = means.std(axis=0, ddof=1) / stderrs.mean(axis=0)
        pooled = math.sqrt(means.var(axis=0, ddof=1).sum() / (stderrs**2).mean(axis=0).sum())
        print(f"spread / stderr: points {ratio.min():.3f}-{ratio.max():.3f}, pooled {pooled:.3f}")
        assert np.all((ratio > 0.6) & (ratio < 1.5)), ratio
        assert 0.8 < pooled < 1.25
        bias = (means.mean(axis=0) - want) / (means.std(axis=0, ddof=1) / math.sqrt(len(z)))
        limit = stats.t.isf(0.5e-3 / family, len(z) - 1)
        print(f"mean error / its stderr: {np.abs(bias).max():.2f} at most vs {limit:.2f}")
        assert np.all(np.abs(bias) <= limit), bias

    def test_invalid_arguments(self):
        for n_orders in (0, -2):
            with pytest.raises(DomainError):
                ps_can_curve_mc(MU, 4.0, [1.0], n_orders, 1000, seed=1)
        with pytest.raises(DomainError):
            ps_sic_curve_mc(LAM, MU, 4.0, [1.0], -1, 1000, seed=1)


def _stage_draws(rng, n_max, size, arrivals=1):
    """Scenes of the independent-stage chain (:func:`_stage_scenes`) from
    iid uniforms, ``size`` points for each of its 2 n_max + 1 stages."""
    return _stage_scenes(rng.random((2 * n_max + 1, size, 1 + arrivals)), LAM, MU, n_max, 4.0)


class TestExactLawStage:
    """The cancellation stage of the independent-stage chain draws the n-th
    nearest radius from its law instead of from a window."""

    def test_nth_nearest_radius_is_gamma(self):
        # the gammaincinv radii, and the arrivals beyond each stage's inner
        # radius, whose gaps in pi mu_j r^2 are unit exponentials
        from scipy import stats

        n_max, size = 5, 4000
        x, r2_far, signal, _ = _stage_draws(np.random.default_rng(53), n_max, size, 2)
        rho = (signal.reshape(-1, size) ** -0.5)[n_max + 1 :] * math.pi * MU
        arrivals = (x.reshape(-1, size, 2) ** -0.5) * math.pi * MU
        lead = np.vstack((np.repeat(np.arange(n_max + 1.0)[:, None], size, axis=1), rho))
        for n in range(1, n_max + 1):
            ks = stats.kstest(rho[n - 1], stats.gamma(n).cdf)
            assert ks.pvalue > 1e-3, (n, ks)
        assert np.allclose(arrivals[:, :, 1], r2_far.reshape(-1, size) * math.pi * MU)
        for gaps in (arrivals[:, :, 0] - lead, arrivals[:, :, 1] - arrivals[:, :, 0]):
            for stage in gaps:
                assert stats.kstest(stage, stats.expon.cdf).pvalue > 1e-3

    def test_cancellation_rate_matches_full_window(self):
        # stage n cancels with probability exp(-eta r_n^alpha R_n) over the
        # node's fading, R_n everything beyond it; a full window drawn by
        # radial_field_oracle, with the n-th nearest picked by _top_m, is the
        # same event counted 0/1
        eta, n_max, size = 1.0, 5, 20_000
        scenes = _stage_draws(np.random.default_rng(59), n_max, size)
        cancel = _stage_success(scenes, eta, MU, 4.0).reshape(-1, size)[n_max + 1 :].T
        exact = cancel.mean(axis=0)
        powers, r2, _ = radial_field_oracle(
            _stream(60, 0), size, MU, 0.0, window_radius(MU), n_max, 4.0
        )
        nearest = _top_m(powers, r2, n_max)
        beyond = powers.sum(axis=1)[:, None] - np.cumsum(nearest, axis=1)
        window = (nearest >= eta * beyond).mean(axis=0)
        se = np.sqrt((cancel.var(axis=0) + window * (1 - window)) / size)
        assert np.all(np.abs(exact - window) <= 4.0 * se), (exact, window)


class TestRadialField:
    def test_annulus_campbell(self):
        # the annulus sampler of the tests' oracles, by Campbell: E[sum of
        # h r^-alpha] = 2 pi lam (r_in^(2-a) - r_out^(2-a)) / (a - 2)
        lam, r_in, r_out, alpha, size = 1e-4, 50.0, 400.0, 4.0, 20_000
        powers, r2, counts = radial_field_oracle(_stream(61, 0), size, lam, r_in, r_out, 3, alpha)
        drawn = np.arange(r2.shape[1])[None, :] < counts[:, None]
        assert np.all((r2[drawn] > r_in**2) & (r2[drawn] <= r_out**2))
        assert np.all(np.isinf(r2[~drawn])) and np.all(powers[~drawn] == 0.0)
        mean_count = lam * math.pi * (r_out**2 - r_in**2)
        assert abs(counts.mean() - mean_count) <= 4.0 * math.sqrt(mean_count / size)
        sums = powers.sum(axis=1)
        campbell = 2.0 * math.pi * lam * (r_in ** (2 - alpha) - r_out ** (2 - alpha)) / (alpha - 2)
        assert abs(sums.mean() - campbell) <= 4.0 * sums.std() / math.sqrt(size)

    def test_standard_exponential_is_exponential(self):
        # the oracles' sampler draws fading marks, and the simulators their
        # exponentials, with standard_exponential: the same draws, and the
        # same stream position after them, as the unit-scale exponential
        a, b = _stream(83, 0), _stream(83, 0)
        for shape in ((1000,), (37, 29), (0, 5)):
            assert np.array_equal(a.standard_exponential(shape), b.exponential(size=shape))
        assert a.random() == b.random()


class TestFieldMemory:
    """``ps_can_curve_mc`` on the fig2 preset's grid draws a block's
    arrivals, 4096 x (8 + 50) exponentials, and one (3, 4096, 8) array of
    per-trial values at a time: a block peaks at 8.2 MB.  A sampled field
    out to twice ``window_radius``, drawn whole, peaked at 171.5 MB."""

    BOUND_MB = 16.0

    @staticmethod
    def _peak_mb(trials, threads):
        etas = [db_to_linear(d) for d in FIG2_ETA_DB]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ps_can_curve_mc(DENSITY_MACRO, 4.0, etas, FIG2_ORDERS, trials, 3, threads=threads)
            return (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_one_block_peak(self):
        assert self._peak_mb(BLOCK_TRIALS, 1) < self.BOUND_MB

    def test_two_blocks_on_two_threads_peak(self):
        assert self._peak_mb(2 * BLOCK_TRIALS, 2) < 2.0 * self.BOUND_MB

    def test_row_over_the_cap_raises_before_any_row_is_drawn(self, monkeypatch):
        from sicnet import montecarlo

        def no_draws(seed, index):
            raise AssertionError("a stream was opened before the cap was checked")

        monkeypatch.setattr(montecarlo, "_stream", no_draws)
        widest = _MAX_BLOCK_DRAWS // BLOCK_TRIALS - _FADING_ARRIVALS
        with pytest.raises(DomainError, match=r"a block of \d+ x \d+ draws exceeds the cap"):
            ps_can_curve_mc(1e-4, 4.0, [1.0], widest + 1, 10, 1)

    def test_row_mean_over_the_cap_raises_before_the_counts(self):
        # the cap reads a full block's width, not the budget: the widest
        # block that it admits runs, and one order more raises at 1 trial
        widest = _MAX_BLOCK_DRAWS // BLOCK_TRIALS - _FADING_ARRIVALS
        got = ps_can_curve_mc(1e-4, 4.0, [1.0], widest, 2, 1)
        assert got["power_with_fading"]["direct"].shape == (1, widest)
        with pytest.raises(DomainError, match="exceeds the cap"):
            ps_can_curve_mc(1e-4, 4.0, [1.0], widest + 1, 1, 1)


def _agree(a, b, what):
    """Estimates ``a`` and ``b`` of the same quantities, from runs that share
    only their serving draws, agree within 4 combined standard errors."""
    for x, y in zip(a, b):
        assert abs(x.mean - y.mean) <= 4.0 * math.hypot(x.stderr, y.stderr), (what, x, y)


class TestFarField:
    """The exact far-field factor: the estimates that use it do not depend
    on how many arrivals are drawn before it."""

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_factor_composes_with_sampled_annulus(self, alpha):
        # the field beyond R is the annulus (R, R'] plus an independent
        # field beyond R', so a sampled annulus times the factor at R'
        # averages to the factor at R
        lam, r, r_out, size = 1e-4, 50.0, 200.0, 20_000
        s = r**alpha  # C's argument is 1 at R: neither term is negligible
        powers, _, _ = radial_field_oracle(_stream(67, 0), size, lam, r, r_out, 1, alpha)
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
        # the sampled window beyond each nearest AP is its Gamma arrivals, a
        # window of K arrivals holding K expected points; a window of
        # near_points expected points draws that many rounded, at least one.
        # Every row is exact over the field beyond the last arrival, and the
        # annulus row over the exclusion radius wherever it lies, so the
        # estimates at 6 arrivals hold at 1 and at 50; at the dense macro
        # tier 0's exclusion radius often lies beyond the arrivals
        from sicnet import montecarlo

        etas, size, seed = [0.1, 1.0, 4.0], 20_000, 37
        for cfg in (two_tier(bias2=5.0), _dense_macro()):
            monkeypatch.setattr(montecarlo, "_ARRIVALS", 6)
            base = simulate_rea(cfg, 1, etas, size, seed, cancel_mode=cancel_mode)
            monkeypatch.setattr(montecarlo, "_ARRIVALS", max(1, round(near_points)))
            other = simulate_rea(cfg, 1, etas, size, seed, cancel_mode=cancel_mode)
            monkeypatch.undo()
            for est in ("uncancelled", "cancelled", "annulus"):
                _agree(getattr(base, est), getattr(other, est), (cfg.tiers[0].lam, est))

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
        # decode points whose serving distance falls inside R_{I,n} miss for
        # certain, with no floating-point warning; at lambda_eq = 1000 mu_j
        # every one does for n >= 1 (-log(u) <= 36.8 < 1000 n), so no budget
        # adds to N = 0
        etas, n_max, size = [0.1, 10.0], 3, 2000
        with np.errstate(all="raise"):
            scenes = _stage_draws(np.random.default_rng(73), n_max, size)
            p = np.array([_stage_success(scenes, eta, MU, 4.0) for eta in etas])
            ps_sic_curve_mc(LAM, MU, 4.0, etas, n_max, size, 73, independent_stages=True)
            dense = ps_sic_curve_mc(
                1000.0 * MU, MU, 4.0, etas, n_max, size, 73, independent_stages=True
            )
            simulate_rea(two_tier(bias2=5.0), 1, etas, 2000, 73)
        inside = scenes[3]
        assert inside[size:].any() and not inside[: size].any()
        assert np.all(p[:, inside] == 0.0)
        assert np.all((p[:, ~inside] > 0.0) & (p[:, ~inside] <= 1.0))
        for row in dense:
            assert [e.mean for e in row] == pytest.approx([row[0].mean] * len(row), abs=1e-15)


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
            s0 = _serving_block(rng.standard_exponential(size), LAM, 4.0)
            total, top, cum, _ = _field_block(rng, size, MU, r, n_max, 4.0)
            annulus, _, _ = radial_field_oracle(rng, size, MU, r, 2.0 * r, 1, 4.0)
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
    disk field of :func:`radial_field_oracle` out to ``window_radius`` (400
    expected points) per interferer tier ``(density, UL power)``.  Return
    the aggregate interference per receiver and the powers and mean-power
    keys d^2 Q_k^(-2/alpha) of all users side by side."""
    total = np.zeros(n_aps)
    parts_p, parts_key = [], []
    for mu_k, q in tiers:
        base, r2, _ = radial_field_oracle(rng, n_aps, mu_k, 0.0, window_radius(mu_k), 1, alpha)
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
    :func:`radial_field_oracle` in chunks of rows out to r_in share^(-1/(alpha -
    2)), beyond which the field left out carries ``share`` of the tier's
    mean interference beyond r_in."""
    out = np.zeros(len(r2_far))
    for lo in range(0, len(r2_far), 1000):
        for mu_t, q_t in tiers:
            r_in = np.sqrt(r2_far[lo:lo + 1000]) * q_t ** (1.0 / alpha)
            r_out = r_in * share ** (-1.0 / (alpha - 2.0))
            powers, _, _ = radial_field_oracle(rng, len(r_in), mu_t, r_in, r_out, 1, alpha)
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


def _disk_law(cfg, eta, radius):
    """The mean of the no-SIC control x = 1 - prod_a (1 - exp(-a_k r_a^2))
    of the max-SIR simulator over the candidate disk of ``radius``, by
    quadrature: a_k r^2 is the exponent of :func:`_fieldless_max_sir` for
    an AP of tier k at distance r (S = Q_k r^-alpha), and by the PGFL of
    each tier's AP process 1 - E[x] = exp(-sum_k lam_k int_0^R 2 pi r
    exp(-a_k r^2) dr).  Each integral stops where exp(-a_k r^2) < e^-60."""
    c0 = c_integral(0.0, cfg.alpha)
    mass = 0.0
    for t in cfg.tiers:
        a = sum(
            math.pi * mu_k * (eta * q / t.q_ul) ** (2.0 / cfg.alpha) * c0
            for mu_k, q in _interferer_tiers(cfg)
        )
        upper = min(radius, math.sqrt(60.0 / a))
        part, _ = scipy.integrate.quad(
            lambda r: 2.0 * math.pi * r * math.exp(-a * r * r), 0.0, upper,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        mass += t.lam * part
    return -math.expm1(-mass)


def _controlled(probs, x, mu, trials, seed):
    """The Estimate of a max-SIR budget N >= 1 from each trial's success
    ``probs`` and its no-SIC control ``x``: every trial reports probs - x +
    mu, and the ``trials - len(probs)`` trials past them, which hold no
    candidate AP, report ``mu``."""
    d = np.full(trials, mu)
    d[: len(probs)] += probs - x
    return Estimate.from_sums(d.sum(), (d * d).sum(), trials, seed)


def _raw_max_sir(cfg, etas, n_max, trials, seed, independent):
    """Max-SIR success for every (eta, N <= n_max) without the no-SIC
    control: each trial's 1 - prod_a (1 - P_a) on the block's AP rows,
    P_a from :func:`_chain_exponent` on shared fields or from
    :func:`_nearest_chain_success` on each AP's nearest users."""
    mu_eq = _mu_eq(_interferer_tiers(cfg), cfg.alpha)

    def block(rng, size):
        sums = np.zeros((2, len(etas), n_max + 1))
        rows = _max_sir_block(cfg, rng, size, independent, n_max)
        if rows is None:
            return sums
        signal, total, top, first_row = rows
        if independent:
            shape = (len(signal), max(n_max, _NEAREST_USERS))
            near = _nearest_users(rng.standard_exponential(shape), mu_eq, cfg.alpha)
        for e_idx, eta in enumerate(etas):
            if independent:
                p_a = _nearest_chain_success(*near, mu_eq, signal, eta, n_max, cfg.alpha)
            else:
                x = _chain_exponent(signal, total, top, np.cumsum(top, axis=1), eta, n_max)
                p_a = np.exp(-x)
            sums[:, e_idx] = _moments(1.0 - np.multiply.reduceat(1.0 - p_a, first_row), 0)
        return sums

    return _estimates(_run_blocks(trials, seed, block), trials, seed)


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
        cfg = NetworkConfig((TierParams(LAM),), alpha=4.0, mu=MU, mu_j=MU)
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
        # at 90 dB no AP decodes, with SIC or without, so every trial
        # reports the no-SIC control's mean: the chance that a candidate AP
        # lies close enough to decode, about 1.74e-5, with no spread.  The
        # raw estimate read 0 at these 500 trials, undercounting it
        cfg = two_tier()
        est = simulate_max_inst_sir(cfg, SicConfig(1e9, 1), 500, seed=73)
        mu = _disk_law(cfg, 1e9, 250.0)
        assert mu == pytest.approx(1.744e-5, rel=1e-3)
        assert est.mean == pytest.approx(mu, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

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
        # users of largest mean power, drawn after the block's candidate APs,
        # and each trial reports its excess over its no-SIC control plus the
        # control's mean (quadrature)
        from sicnet import montecarlo

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
        if n_max:
            x = _fieldless_max_sir(cfg, eta, trials, seed)
            mu = _disk_law(cfg, eta, montecarlo._CAND_RADIUS)
            ref = _controlled(probs, x, mu, trials, seed)
        else:
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
        # and gives each trial without a row success 0 and no-SIC control 0,
        # so that it reports the control's mean.  A disk that holds no AP in
        # any trial gives a block without rows, in which every trial reports
        # the control's mean, with no spread
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
            shape = (len(signal), max(n_max, _NEAREST_USERS))
            near = _nearest_users(rng.standard_exponential(shape), mu_eq, cfg.alpha)
            p_a = _nearest_chain_success(*near, mu_eq, signal, eta, n_max, cfg.alpha)[:, n_max]
        else:
            x = _chain_exponent(signal, total, top, np.cumsum(top, axis=1), eta, n_max)
            p_a = np.exp(-x[:, n_max])
        probs = np.array(
            [1.0 - np.prod(1.0 - p) for p in np.split(p_a, np.cumsum(counts)[:-1])]
        )
        assert len(probs) == size and np.all(probs[counts == 0] == 0.0)
        x = np.zeros(size)
        x[counts > 0] = _fieldless_max_sir(cfg, eta, size, seed)
        est = simulate_max_inst_sir(
            cfg, SicConfig(eta, n_max), size, seed, independent_fields=independent
        )
        ref = _controlled(probs, x, _disk_law(cfg, eta, 30.0), size, seed)
        assert est.mean == pytest.approx(ref.mean, rel=1e-12)
        assert est.stderr == pytest.approx(ref.stderr, rel=1e-9)
        monkeypatch.setattr(montecarlo, "_CAND_RADIUS", 0.01)
        assert _max_sir_block(cfg, _stream(seed, 0), 50, independent, n_max) is None
        est = simulate_max_inst_sir(
            cfg, SicConfig(eta, n_max), 50, seed, independent_fields=independent
        )
        assert est.mean == pytest.approx(_disk_law(cfg, eta, 0.01), rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

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
        # the draws do not depend on N >= 1, a chain that succeeds within
        # N cancellations succeeds within N + 1, and every N >= 1 subtracts
        # the same no-SIC control, so N = 1..3 are ordered draw by draw.
        # N = 0 is the raw estimate, with no control, so N = 0 to 1 is not
        # ordered draw by draw in either mode: N = 1 lies above N = 0 by
        # the SIC uplift (0.20 and 0.16, about 7 stderr of N = 0)
        means = [
            simulate_max_inst_sir(
                two_tier(), SicConfig(1.0, n), 200, seed=31,
                independent_fields=independent,
            ).mean
            for n in range(4)
        ]
        assert means == sorted(means)
        assert means[-1] > means[0]


class TestNoSicControl:
    """The max-SIR simulator's estimates for N >= 1: each trial reports its
    success minus the no-SIC success x of its own candidate APs with
    independent fields, plus x's exact mean over the candidate disk
    (``_no_sic_disk_law``)."""

    @staticmethod
    def _law(cfg, eta):
        from sicnet import montecarlo

        mu_eq = _mu_eq(_interferer_tiers(cfg), cfg.alpha)
        return montecarlo._no_sic_disk_law(cfg, mu_eq, eta)

    @pytest.mark.parametrize("alpha", [4.0, 3.0])
    def test_disk_law(self, monkeypatch, alpha):
        # against quadrature on the 250 m and 30 m disks; against the plane
        # law 1 - outage_max_inst_sir on a disk so large that exp(-a_k R^2)
        # underflows, and on the 250 m disk within the tail that the disk
        # leaves out: its no-SIC outage is the plane's times exp(pi sum_k
        # lam_k exp(-a_k R^2) / a_k), which moves the law by at most 2.8e-8
        # (alpha 4, 0 dB) on the fig5 grid
        from sicnet import montecarlo
        from sicnet.experiments import FIG5_ETA_DB

        cfg = dataclasses.replace(two_tier(), alpha=alpha)
        c0, e = c_integral(0.0, alpha), 2.0 / alpha
        mu_eq = _mu_eq(_interferer_tiers(cfg), alpha)
        etas = [db_to_linear(d) for d in FIG5_ETA_DB]
        for eta in etas + [1e-2, 1e9]:
            assert self._law(cfg, eta) == pytest.approx(_disk_law(cfg, eta, 250.0), rel=1e-12)
        gaps = []
        for eta in etas:
            outage = outage_max_inst_sir(eta, cfg)
            tail = sum(
                t.lam / a * math.exp(-a * 250.0**2)
                for t in cfg.tiers
                for a in [math.pi * mu_eq * c0 * (eta / t.q_ul) ** e]
            )
            gaps.append((1.0 - self._law(cfg, eta)) - outage)
            assert gaps[-1] == pytest.approx(outage * math.expm1(math.pi * tail), rel=1e-6, abs=1e-15)
        assert 0.0 <= min(gaps) and max(gaps) < 2.9e-8, gaps
        monkeypatch.setattr(montecarlo, "_CAND_RADIUS", 30.0)
        for eta in etas + [1e9]:
            assert self._law(cfg, eta) == pytest.approx(_disk_law(cfg, eta, 30.0), rel=1e-12)
        monkeypatch.setattr(montecarlo, "_CAND_RADIUS", 1e6)
        for eta in etas:
            want = 1.0 - outage_max_inst_sir(eta, cfg)
            assert self._law(cfg, eta) == pytest.approx(want, rel=1e-12)

    def test_disk_law_matches_fieldless_mc(self, monkeypatch):
        # on a 30 m disk, where about 70% of the trials hold no candidate
        # AP, the raw fieldless simulator averages x itself and never reads
        # the law: two-sided at 3 stderr.  The plane law lies 276, 138 and
        # 54 stderr above these estimates
        from sicnet import montecarlo

        cfg, trials = two_tier(), 200_000
        etas = [db_to_linear(d) for d in (0.0, 5.0, 10.0)]
        monkeypatch.setattr(montecarlo, "_CAND_RADIUS", 30.0)
        ests = max_sir_success_curve_mc(cfg, etas, trials, seed=3380, independent_fields=True)
        for eta, est in zip(etas, ests):
            z = (est.mean - self._law(cfg, eta)) / est.stderr
            plane = (1.0 - outage_max_inst_sir(eta, cfg) - est.mean) / est.stderr
            print(f"{10.0 * math.log10(eta):g} dB: z {z:+.2f}, plane law {plane:.0f} stderr above")
            assert abs(z) <= 3.0, (eta, est, z)
            assert plane > 50.0, (eta, plane)

    CALIBRATION_ETAS = [db_to_linear(d) for d in (0.0, 5.0, 10.0)]
    CALIBRATION_SEEDS = range(3400, 3464)
    # the raw (unadjusted) reference of each field mode: trials, seed
    RAW_REFERENCE = {False: (16_384, 3390), True: (65_536, 3391)}

    @pytest.mark.parametrize("independent", [False, True], ids=["shared", "independent"])
    def test_calibration(self, independent):
        # bench-sized calls (64 trials) at 0, 5 and 10 dB, N = 1..3, over 64
        # seeds fixed before the first run, read against a raw estimate at
        # a large budget, which never reads the control's law, so an error
        # in the law shows as a bias.  (a) Each point's count of |z| > 3
        # over the seeds is bounded as for t_63 at a family rate of 1e-3
        # over both modes' 18 points; (b) the spread of the 64 means over
        # the mean reported stderr lies in (0.6, 1.5) at every point and in
        # (0.8, 1.25) pooled; (c) each point's mean over the seeds lies
        # within the t_63 bound at 0.5e-3 / 18 of the reference
        from scipy import stats

        cfg, etas, trials = two_tier(), self.CALIBRATION_ETAS, 64
        runs = np.array([
            _estimates(_max_sir_sums(cfg, etas, 3, trials, seed, 1, independent), trials, seed)
            [:, 1:].ravel()
            for seed in self.CALIBRATION_SEEDS
        ])
        means = np.vectorize(lambda e: e.mean)(runs)
        stderrs = np.vectorize(lambda e: e.stderr)(runs)
        ref_trials, ref_seed = self.RAW_REFERENCE[independent]
        raw = _raw_max_sir(cfg, etas, 3, ref_trials, ref_seed, independent)[:, 1:].ravel()
        raw_mean = np.array([e.mean for e in raw])
        raw_se = np.array([e.stderr for e in raw])
        z = (means - raw_mean) / np.hypot(stderrs, raw_se)
        counts = (np.abs(z) > 3.0).sum(axis=0)
        bound = stats.binom.isf(1e-3 / 18, len(z), 2.0 * stats.t.sf(3.0, trials - 1))
        variance_cut = raw_se**2 * ref_trials / ((stderrs**2).mean(axis=0) * trials)
        print(f"raw {np.round(raw_mean, 4).tolist()}, adjusted {np.round(means.mean(axis=0), 4).tolist()}; "
              f"variance {variance_cut.min():.2f}-{variance_cut.max():.2f} times lower; "
              f"|z| > 3 counts {counts.tolist()} vs bound {bound:g}; z mean {z.mean():+.3f}, sd {z.std():.3f}")
        assert counts.max() <= bound, counts
        ratio = means.std(axis=0, ddof=1) / stderrs.mean(axis=0)
        pooled = math.sqrt(means.var(axis=0, ddof=1).sum() / (stderrs**2).mean(axis=0).sum())
        print(f"spread / stderr: points {ratio.min():.3f}-{ratio.max():.3f}, pooled {pooled:.3f}")
        assert np.all((ratio > 0.6) & (ratio < 1.5)), ratio
        assert 0.8 < pooled < 1.25
        bias = (means.mean(axis=0) - raw_mean) / np.sqrt(
            means.var(axis=0, ddof=1) / len(z) + raw_se**2
        )
        limit = stats.t.isf(0.5e-3 / 18, len(z) - 1)
        print(f"mean error / its stderr: {np.abs(bias).max():.2f} at most vs {limit:.2f}")
        assert np.all(np.abs(bias) <= limit), bias


def _every_bias_cases():
    """Random 2- and 3-tier configurations, alternately, with every tier's
    bias drawn, each with a tier k whose REA is nonempty and 7 thresholds:
    12 cases from a fixed seed."""
    cases = []
    rng = np.random.default_rng(3600)
    while len(cases) < 12:
        n_tiers = 2 + len(cases) % 2
        lam, p_dl, bias = 10.0 ** rng.uniform((-6.0, -1.0, 0.0), (-3.0, 2.0, 1.5), (n_tiers, 3)).T
        cfg = NetworkConfig(
            tiers=tuple(TierParams(*t) for t in zip(lam, p_dl, np.ones(n_tiers), bias)),
            alpha=float(rng.choice([3.0, 3.5, 4.0, 5.0])),
            mu=1e-4,
            mu_j=1e-4,
        )
        k = int(rng.integers(n_tiers))
        if rea_association_prob(cfg, k) > 1e-6:
            cases.append((cfg, k, 10.0 ** rng.uniform(-1.5, 1.5, 7)))
    return cases


class TestRea:
    def test_degenerate_guard(self, monkeypatch):
        # no bias at all, tier 0 beside a biased tier 1, and tier 1 biased
        # 10 beside a macro tier biased 20: each REA is empty, and each
        # raises before any draw
        from sicnet import montecarlo

        def no_draws(seed, index):
            raise AssertionError("a stream was opened for an empty REA")

        macro_biased = NetworkConfig(
            tiers=(TierParams(1e-5, 10.0, 10.0, bias=20.0), TierParams(1e-4, 1.0, 1.0, bias=10.0)),
            alpha=4.0,
            mu=1e-4,
            mu_j=1e-4,
        )
        monkeypatch.setattr(montecarlo, "_stream", no_draws)
        for cfg, k in ((two_tier(bias2=1.0), 1), (two_tier(bias2=5.0), 0), (macro_biased, 1)):
            with pytest.raises(DegenerateReaError):
                simulate_rea(cfg, k, [1.0], 4096, seed=79)

    def test_cancellation_helps_pairwise(self):
        # the raw rows hold trial by trial; the reported strongest row, less
        # the uncancelled one plus its law, holds in the mean
        res = simulate_rea(two_tier(bias2=5.0), 1, [0.5, 1.0, 2.0], 20_000, seed=83)
        for unc, can, raw in zip(res.uncancelled, res.cancelled, res.raw["strongest"]["mean"]):
            assert can.mean >= unc.mean and raw >= unc.mean

    def test_scenes_lie_in_the_event(self):
        # every scene that _rea_block draws is in the REA by the argmax
        # definition, which shares no code with the sampler's law: tier k
        # wins in biased mean power and another tier in unbiased mean power
        cases = [(two_tier(bias2=5.0), 1)] + [(cfg, k) for cfg, k, _ in _every_bias_cases()]
        for index, (cfg, k) in enumerate(cases):
            u = _stream(3800, index).random((4096, _rea_layout(cfg, k)[2]))
            dist = _rea_block(cfg, k, u)[0]
            p_dl, bias = (np.array([getattr(t, f) for t in cfg.tiers]) for f in ("p_dl", "bias"))
            unbiased = p_dl * dist**-cfg.alpha
            assert np.all(np.argmax(bias * unbiased, axis=1) == k), (cfg, k)
            assert np.all(np.argmax(unbiased, axis=1) != k), (cfg, k)

    def test_serving_distance_law(self):
        # empirical REA serving distances against the closed-form density
        cfg = two_tier(bias2=5.0)
        dim = _rea_layout(cfg, 1)[2]
        # the serving distances of 100 000 rows of iid uniforms (seed 97)
        serving = _run_blocks(
            100_000, 97, lambda rng, size: [_rea_block(cfg, 1, rng.random((size, dim)))[0][:, 1]]
        )
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

    def test_map_is_the_scalar_replay(self, monkeypatch):
        # _rea_block against the scalar inverse-CDF replay of each row of
        # uniforms (rea_scene), at one arrival and at three, on fig6's b = 5
        # and the random configs, two of which read a tier pick
        from sicnet import montecarlo

        cases = [(two_tier(bias2=5.0), 1)] + [(cfg, k) for cfg, k, _ in _every_bias_cases()]
        assert _rea_layout(*cases[0]) == (False, [], 5)
        assert {_rea_layout(cfg, k)[0] for cfg, k in cases} == {False, True}
        for arrivals in (1, 3):
            monkeypatch.setattr(montecarlo, "_ARRIVALS", arrivals)
            for index, (cfg, k) in enumerate(cases):
                u = _stream(3900 + arrivals, index).random((100, _rea_layout(cfg, k)[2]))
                got = _rea_block(cfg, k, u)
                for t, row in enumerate(u):
                    for a, b in zip(got, rea_scene(cfg, k, row, arrivals)):
                        assert a[t] == pytest.approx(np.array(b), rel=1e-12), (index, t)

    def test_far_fields_are_the_two_radius_evaluation(self):
        # tier k's annulus far field, evaluated once as its uncancelled one,
        # leaves both rows equal bit for bit to the evaluation of every tier
        # at both radii, on fig6's b = 5 and the random configs
        cases = [(two_tier(bias2=5.0), 1, [0.1, 1.0, 10.0])] + _every_bias_cases()
        for index, (cfg, k, etas) in enumerate(cases):
            u = _stream(3950, index).random((200, _rea_layout(cfg, k)[2]))
            dist, _, r2_far = _rea_block(cfg, k, u)
            lam = np.array([t.lam for t in cfg.tiers])
            p_dl = np.array([t.p_dl for t in cfg.tiers])
            signal = p_dl[k] * dist[:, k] ** -cfg.alpha
            s = np.multiply.outer(etas, p_dl / signal[:, None])
            c2 = (p_dl / p_dl[k]) ** (2.0 / cfg.alpha) * dist[:, k:k + 1] ** 2
            lo2 = np.stack((r2_far, np.maximum(r2_far, c2)))
            want = _far_field(lam, lo2, s[:, None], cfg.alpha).sum(axis=-1)
            got = _rea_far_fields(lam, r2_far, c2, s, k, cfg.alpha)
            np.testing.assert_array_equal(got, want, err_msg=str(index))

    def test_small_budgets(self, monkeypatch):
        # 2 and 16 trials are replicates of one point each; one trial leaves
        # no spread to measure, and raises before any stream is opened
        from sicnet import montecarlo

        cfg = two_tier(bias2=5.0)
        for trials in (2, 16):
            res = simulate_rea(cfg, 1, [1.0], trials, 0)
            ests = res.uncancelled + res.cancelled + res.annulus
            assert {(e.trials, e.dof) for e in ests} == {(trials, trials - 1)}
            assert all(0.0 < e.stderr < 1.0 for e in ests)

        def no_draws(seed, index):
            raise AssertionError("a stream was opened for a budget of one trial")

        monkeypatch.setattr(montecarlo, "_stream", no_draws)
        for trials in (1, np.int64(1)):
            with pytest.raises(DomainError, match="trials must be >= 2"):
                simulate_rea(cfg, 1, [1.0], trials, 0)

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

    def test_invalid_cancel_mode(self):
        with pytest.raises(DomainError):
            simulate_rea(two_tier(bias2=5.0), 1, [1.0], 1000, seed=1, cancel_mode="x")

    # Both rows of ps_ic_rea against simulate_rea on the random 2- and
    # 3-tier configs of _every_bias_cases, every tier's bias drawn: the
    # uncancelled row, and the annulus row before its control (``raw``),
    # which would read the uncancelled closed form.  Seeds fixed before the
    # first run; each point's |z| is bounded by the Sidak multiplier for a
    # family false-alarm rate of 1e-3 over all points, read against
    # Student's t with the estimates' 31 degrees of freedom.
    GATE_SEEDS = range(3700, 3712)

    def test_every_bias_gate(self):
        from scipy import stats

        from sicnet.analytic import ps_ic_rea

        cases = _every_bias_cases()
        orders = {np.sign(t.bias - cfg.tiers[k].bias) for cfg, k, _ in cases for t in cfg.tiers}
        assert orders == {-1.0, 0.0, 1.0}  # b_i below and above b_k both occur
        z = []
        for (cfg, k, etas), seed in zip(cases, self.GATE_SEEDS, strict=True):
            res = simulate_rea(cfg, k, etas, 20_000, seed)
            assert {e.dof for e in res.uncancelled} == {31}
            for row, mean, stderr in (
                (0, [e.mean for e in res.uncancelled], [e.stderr for e in res.uncancelled]),
                (1, res.raw["annulus"]["mean"], res.raw["annulus"]["stderr"]),
            ):
                z.extend((np.array(mean) - ps_ic_rea(etas, cfg, k, row)) / np.array(stderr))
        z = np.abs(z)
        bound = stats.t.isf(0.5 * (1.0 - (1.0 - 1e-3) ** (1.0 / len(z))), 31)
        print(f"{len(z)} points: max |z| {z.max():.2f} vs {bound:.2f}, mean |z| {z.mean():.3f}")
        assert z.max() <= bound, z

    def test_distance_pdf_has_unit_mass(self):
        # the oracle's serving-distance density, normalized by the law,
        # integrates to 1 on the gate's configs, in units of tier k's
        # nearest-AP scale
        for cfg, k, _ in _every_bias_cases():
            scale = 1.0 / math.sqrt(math.pi * cfg.tiers[k].lam)
            mass, _ = scipy.integrate.quad(
                lambda t: scale * rea_distance_pdf(cfg, k, scale * t), 0.0, np.inf, limit=200
            )
            assert mass == pytest.approx(1.0, abs=1e-8), (cfg, k)

    # The strongest row at the bench's 2048 trials on the fig6 grid, over
    # seeds fixed before the first run, against its raw row at a large
    # budget, run with the control's law (montecarlo's ps_ic_rea) replaced
    # by 10, which no probability reaches, so that it reads no law; an
    # error in the law shows as a bias.  The bounds are those of
    # TestNoSicControl.test_calibration over the 33 points, with Student's
    # t at the estimates' 31 degrees of freedom for the rate of |z| > 3.
    STRONGEST_CALIBRATION_SEEDS = range(3600, 3664)
    STRONGEST_REFERENCE = (131_072, 3599)

    def test_strongest_calibration(self, monkeypatch):
        from scipy import stats

        from sicnet import montecarlo
        from sicnet.experiments import FIG6_BIASES, FIG6_ETA_DB, two_tier_config

        etas = [db_to_linear(d) for d in FIG6_ETA_DB]
        cfgs = [two_tier_config(bias2=b) for b in FIG6_BIASES]
        runs = [
            [simulate_rea(cfg, 1, etas, 2048, seed).cancelled for cfg in cfgs]
            for seed in self.STRONGEST_CALIBRATION_SEEDS
        ]
        assert {e.dof for run in runs for row in run for e in row} == {31}
        means, stderrs = (np.vectorize(lambda e, f=f: getattr(e, f))(np.array(runs)) for f in ("mean", "stderr"))
        monkeypatch.setattr(montecarlo, "ps_ic_rea", lambda etas, cfg, k, cancelled: np.full(len(etas), 10.0))
        ref_trials, ref_seed = self.STRONGEST_REFERENCE
        ref = [simulate_rea(cfg, 1, etas, ref_trials, ref_seed).raw["strongest"] for cfg in cfgs]
        raw_mean, raw_se = (np.array([r[f] for r in ref]) for f in ("mean", "stderr"))
        z = (means - raw_mean) / np.hypot(stderrs, raw_se)
        counts = (np.abs(z) > 3.0).sum(axis=0)
        bound = stats.binom.isf(1e-3 / raw_mean.size, len(z), 2.0 * stats.t.sf(3.0, 31))
        print(f"|z| > 3 counts up to {counts.max()} vs bound {bound:g}; "
              f"z mean {z.mean():+.3f}, sd {z.std():.3f}")
        assert counts.max() <= bound, counts
        ratio = means.std(axis=0, ddof=1) / stderrs.mean(axis=0)
        pooled = math.sqrt(means.var(axis=0, ddof=1).sum() / (stderrs**2).mean(axis=0).sum())
        print(f"spread / stderr: points {ratio.min():.3f}-{ratio.max():.3f}, pooled {pooled:.3f}")
        assert np.all((ratio > 0.6) & (ratio < 1.5)), ratio
        assert 0.8 < pooled < 1.25
        bias = (means.mean(axis=0) - raw_mean) / np.sqrt(means.var(axis=0, ddof=1) / len(z) + raw_se**2)
        limit = stats.t.isf(0.5e-3 / raw_mean.size, len(z) - 1)
        print(f"mean error / its stderr: {np.abs(bias).max():.2f} at most vs {limit:.2f}")
        assert np.all(np.abs(bias) <= limit), bias

    # Calibration of the replicate standard error on the fig6 grid at the
    # bench's 2048 trials (32 replicates of 64), the uncancelled row against
    # ps_ic_rea(..., 0) and the annulus row against ps_ic_rea(..., 1), over
    # seeds fixed before the first run.  The bounds are those of
    # TestRqmcStages.test_calibration: each point's count of |z| > 3 is
    # Binomial(64, 2 P(T_31 > 3)), bounded for all 66 points at a family
    # rate of 1e-3; a sample standard deviation over 64 seeds leaves (0.6,
    # 1.5) of the true one with probability below 1e-7 (chi-square, 63
    # dof); the mean error over the seeds, in units of its own standard
    # error, is read against t_63 at a family rate of 1e-3.
    CALIBRATION_SEEDS = range(3500, 3564)

    def test_calibration(self):
        from scipy import stats

        from sicnet.analytic import ps_ic_rea
        from sicnet.experiments import FIG6_BIASES, FIG6_ETA_DB, two_tier_config

        etas = [db_to_linear(d) for d in FIG6_ETA_DB]
        cfgs = [two_tier_config(bias2=b) for b in FIG6_BIASES]
        rows = ("uncancelled", "annulus")
        want = np.array([[[ps_ic_rea(eta, cfg, 1, c) for eta in etas] for cfg in cfgs]
                         for c in range(len(rows))])
        runs = [
            [simulate_rea(cfg, 1, etas, 2048, seed) for cfg in cfgs]
            for seed in self.CALIBRATION_SEEDS
        ]
        means, stderrs = (
            np.array([[[[getattr(e, field) for e in getattr(res, row)] for res in run]
                       for row in rows] for run in runs])
            for field in ("mean", "stderr")
        )
        assert {e.dof for run in runs for res in run for e in res.uncancelled + res.annulus} == {31}
        z = (means - want) / stderrs
        p = 2.0 * stats.t.sf(3.0, 31)
        counts = (np.abs(z) > 3.0).sum(axis=0)
        bound = stats.binom.isf(1e-3 / want.size, len(z), p)
        share = (np.abs(z) > 3.0).mean(axis=(0, 2, 3))
        print(f"|z| > 3 share {share[0]:.4f} / {share[1]:.4f} vs t31 rate {p:.4f}, "
              f"largest count {counts.max()} vs bound {bound:g}; "
              f"z sd {z[:, 0].std():.3f} / {z[:, 1].std():.3f}")
        assert counts.max() <= bound, counts
        ratio = means.std(axis=0, ddof=1) / stderrs.mean(axis=0)
        pooled = math.sqrt(means.var(axis=0, ddof=1).sum() / (stderrs**2).mean(axis=0).sum())
        print(f"spread / stderr: points {ratio.min():.3f}-{ratio.max():.3f}, pooled {pooled:.3f}")
        assert np.all((ratio > 0.6) & (ratio < 1.5)), ratio
        assert 0.8 < pooled < 1.25
        bias = (means.mean(axis=0) - want) / (means.std(axis=0, ddof=1) / math.sqrt(len(z)))
        limit = stats.t.isf(0.5e-3 / want.size, len(z) - 1)
        print(f"mean error / its stderr: {np.abs(bias).max():.2f} at most vs {limit:.2f}")
        assert np.all(np.abs(bias) <= limit), bias


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


def _scalar_rea(cfg, k, eta, dist, x, r2_far):
    """One REA trial's success over every fading and the field beyond the
    arrivals, in scalar arithmetic, for the uncancelled, strongest and
    annulus rows of :func:`simulate_rea`, given the trial's nearest-AP
    distances ``dist``, its arrivals' unit mean powers ``x`` and squared
    last radii ``r2_far`` (:func:`_rea_block`).  Each AP of mean power P
    that a row keeps gives (1 + eta P / S)^-1; tier i's field beyond r_lo
    gives exp(-_far_field), r_lo its last arrival, or for the annulus row
    the larger of that and its exclusion radius."""
    alpha, tiers = cfg.alpha, cfg.tiers
    signal = tiers[k].p_dl * dist[k] ** -alpha
    strongest = max((i for i in range(len(tiers)) if i != k),
                    key=lambda i: tiers[i].p_dl * dist[i] ** -alpha)
    out = [1.0, 1.0, 1.0]
    for i, tier in enumerate(tiers):
        aps = [(tier.p_dl * x_j, False) for x_j in x[i]]
        if i != k:
            aps.append((tier.p_dl * dist[i] ** -alpha, i == strongest))
        for power, is_strongest in aps:
            factor = 1.0 / (1.0 + eta * power / signal)
            out[0] *= factor
            out[1] *= 1.0 if is_strongest else factor
            out[2] *= 1.0 if power > signal else factor
        c2 = (tier.p_dl / tiers[k].p_dl) ** (2.0 / alpha) * dist[k] ** 2
        for c, lo2 in enumerate((r2_far[i], r2_far[i], max(r2_far[i], c2))):
            out[c] *= math.exp(-_far_field(tier.lam, lo2, eta * tier.p_dl / signal, alpha))
    return out


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
        # the replicates' points give the serving distance and the nearest
        # interferers (rqmc_replicates); the 0/1 chain adds their fadings,
        # the serving fading and the field beyond them, sampled until 1% of
        # its mean interference is left out, all drawn separately
        etas, n_max, size, seed = [0.5, 2.0], 3, 4000, 11
        tiers = [(MU, 1.0)]
        reps = rqmc_replicates(size, seed, 1 + max(n_max, _NEAREST_USERS))
        e = np.concatenate(reps)
        s0 = _serving_block(e[:, 0], LAM, 4.0)
        x, r2_far = _nearest_users(e[:, 1:], MU, 4.0)
        other = np.random.default_rng(12)
        top = other.standard_exponential(x.shape) * x
        total = top.sum(axis=1) + _sampled_residual(other, r2_far, tiers, 1e-2, 4.0)
        cum = np.cumsum(top, axis=1)
        h = other.exponential(size=size)
        grid = ps_sic_curve_mc(LAM, MU, 4.0, etas, n_max, size, seed)
        sizes = np.array([len(r) for r in reps])
        for e_idx, eta in enumerate(etas):
            cond = _nearest_chain_success(x, r2_far, MU, s0, eta, n_max, 4.0)
            # each replicate's sum, the replicates added in order
            sums = [c.sum(axis=0) for c in np.split(cond, np.cumsum(sizes)[:-1])]
            assert [e.mean for e in grid[e_idx]] == (functools.reduce(np.add, sums) / size).tolist()
            means = np.array(sums) / sizes[:, None]
            assert [e.stderr for e in grid[e_idx]] == pytest.approx(
                means.std(axis=0, ddof=1) / math.sqrt(len(sizes)), rel=1e-9
            )
            assert {e.dof for e in grid[e_idx]} == {len(sizes) - 1}
            level = _chain_levels(h * s0, total, top, cum, eta, n_max)
            _same_draws(cond, _within_budget(level, n_max), f"chain {eta:g}")

    def test_independent_stages(self):
        # each stage's points give its signal and its nearest arrivals
        # (_stage_scenes); the 0/1 stage adds the arrivals' fadings, the
        # signal's fading and the field beyond the arrivals, sampled until
        # 1% of its mean interference is left out, all drawn separately,
        # and fails inside the cancellation radius.  Point i of every stage
        # makes one trial of the chain, whose 0/1 outcome the recursion over
        # the stages' conditional probabilities averages.
        etas, n_max, size = [0.5, 2.0], 3, 4000
        x, r2_far, signal, inside = scenes = _stage_draws(
            np.random.default_rng(13), n_max, size, 2
        )
        other = np.random.default_rng(14)
        faded = other.standard_exponential(x.shape) * x
        total = faded.sum(axis=1) + _sampled_residual(other, r2_far, [(MU, 1.0)], 1e-2, 4.0)
        h = other.exponential(size=len(signal))
        for eta in etas:
            p = _stage_success(scenes, eta, MU, 4.0).reshape(-1, size).T
            cond = _stage_chain_success(1.0 - p[:, : n_max + 1], p[:, n_max + 1 :])
            won = ((h * signal >= eta * total) & ~inside).reshape(-1, size).T
            level = _first_level(won[:, : n_max + 1], won[:, n_max + 1 :])
            _same_draws(cond, _within_budget(level, n_max), f"independent stages {eta:g}")

    @pytest.mark.parametrize("independent", [False, True])
    def test_max_sir(self, independent):
        # with independent fields the block draws each AP's users of
        # largest mean power after its candidate APs; the 0/1 chain adds
        # their fadings and the physical tiers' field of lower mean power,
        # sampled until 1% of its mean interference is left out, all drawn
        # separately.  For N >= 1 each trial reports its excess over its
        # no-SIC control plus the control's mean (quadrature)
        from sicnet import montecarlo

        cfg, eta, n_max, size, seed = two_tier(), 10.0**0.3, 3, 400, 15
        rng = _stream(seed, 0)
        signal, total, top, first_row = _max_sir_block(cfg, rng, size, independent, n_max)
        if independent:
            tiers = _interferer_tiers(cfg)
            mu_eq = _mu_eq(tiers, 4.0)
            shape = (len(signal), max(n_max, _NEAREST_USERS))
            x, r2_far = _nearest_users(rng.standard_exponential(shape), mu_eq, 4.0)
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
        x = _fieldless_max_sir(cfg, eta, size, seed)
        mu = _disk_law(cfg, eta, montecarlo._CAND_RADIUS)
        for n in range(n_max + 1):
            est = simulate_max_inst_sir(
                cfg, SicConfig(eta, n), size, seed, independent_fields=independent
            )
            if n:
                want = _controlled(cond[: len(first_row), n], x, mu, size, seed).mean
            elif independent:  # no field drawn: averaged out exactly
                want = x.sum() / size
            else:
                want = cond[:, n].sum() / size
            assert est.mean == pytest.approx(want, rel=1e-12)
        _same_draws(cond, ind, f"max-SIR independent={independent}")

    @pytest.mark.parametrize("cancel_mode", ["strongest", "annulus"])
    def test_rea(self, cancel_mode):
        # the replicates' uniforms (rqmc_uniforms) give each trial's scene,
        # each tier's nearest AP and its next arrivals, by the scalar map
        # (rea_scene).  The scalar loop (_scalar_rea) gives each trial's
        # success over every fading and the field beyond the arrivals:
        # simulate_rea reports the uncancelled row and the unadjusted
        # cancelled rows (``raw``) as they are, and the reported cancelled
        # rows each less the trial's uncancelled value plus that row's exact
        # mean, ps_ic_rea(..., 0), ``cancelled`` the row that cancel_mode
        # names.  Each mean is that over all trials, each stderr that of the
        # replicate means.  The 0/1 oracle draws those fadings, the serving
        # fading and each tier's field beyond its last arrival, sampled
        # until 1% of its mean interference is left out, all separately;
        # the annulus row clears the sampled points inside the exclusion
        # radius too
        from sicnet.analytic import ps_ic_rea

        cfg, etas, size, seed = two_tier(bias2=5.0), [0.5, 1.0, 2.0], 2000, 17
        reps = rqmc_uniforms(size, seed, _rea_layout(cfg, 1)[2])
        sizes = np.array([len(r) for r in reps])
        scenes = [rea_scene(cfg, 1, row) for row in np.concatenate(reps)]
        dist, x, r2_far = (np.array([scene[i] for scene in scenes]) for i in range(3))
        # eta x trial x (uncancelled, strongest, annulus)
        cond = np.array([[_scalar_rea(cfg, 1, eta, *scene) for scene in scenes] for eta in etas])
        res = simulate_rea(cfg, 1, etas, size, seed, cancel_mode=cancel_mode)
        unc = cond[:, :, 0]
        law = np.array([ps_ic_rea(eta, cfg, 1, 0) for eta in etas])[:, None]
        raw = {row: list(zip(res.raw[row]["mean"], res.raw[row]["stderr"])) for row in res.raw}
        reported = {
            "uncancelled": (unc, res.uncancelled),
            "raw strongest": (cond[:, :, 1], raw["strongest"]),
            "raw annulus": (cond[:, :, 2], raw["annulus"]),
            "cancelled": (cond[:, :, 1 if cancel_mode == "strongest" else 2] - unc + law, res.cancelled),
            "annulus": (cond[:, :, 2] - unc + law, res.annulus),
        }
        for name, (values, got) in reported.items():
            got = [(e.mean, e.stderr) if isinstance(e, Estimate) else e for e in got]
            # replicate x eta
            sums = np.array([v.sum(axis=1) for v in np.split(values, np.cumsum(sizes)[:-1], axis=1)])
            mean = sums.sum(axis=0) / size
            se = np.sqrt(sizes @ (sums / sizes[:, None] - mean) ** 2 / ((len(sizes) - 1) * size))
            assert [m for m, _ in got] == pytest.approx(mean, rel=1e-12), name
            assert [e for _, e in got] == pytest.approx(se, rel=1e-9), name
        ests = res.uncancelled + res.cancelled + res.annulus
        assert {(e.trials, e.dof) for e in ests} == {(size, len(sizes) - 1)}

        other = np.random.default_rng(18)
        p_dl = np.array([t.p_dl for t in cfg.tiers])
        signal = p_dl[1] * dist[:, 1] ** -4.0
        mean_near = p_dl * dist**-4.0
        mean_near[:, 1] = 0.0  # the serving AP
        near = other.standard_exponential(dist.shape) * mean_near
        faded = p_dl[:, None] * other.standard_exponential(x.shape) * x
        inside = (mean_near > signal[:, None], p_dl[:, None] * x > signal[:, None, None])
        total, annulus = near.sum(axis=1) + faded.sum(axis=(1, 2)), np.zeros(size)
        annulus += np.where(inside[0], 0.0, near).sum(axis=1)
        annulus += np.where(inside[1], 0.0, faded).sum(axis=(1, 2))
        c2 = (p_dl / p_dl[1]) ** 0.5 * dist[:, 1:] ** 2
        for i, tier in enumerate(cfg.tiers):
            # out to 10 r_K, beyond which 1% of the mean interference
            # beyond r_K is left out (alpha = 4)
            r_in = np.sqrt(r2_far[:, i])
            powers, r2, _ = radial_field_oracle(other, size, tier.lam, r_in, 10.0 * r_in, 1, 4.0)
            total += tier.p_dl * powers.sum(axis=1)
            annulus += tier.p_dl * np.where(r2 < c2[:, i, None], 0.0, powers).sum(axis=1)
        strongest = total - near[np.arange(size), np.argmax(mean_near, axis=1)]
        h = other.exponential(size=size)
        ind = h * signal >= np.multiply.outer(etas, np.stack((total, strongest, annulus)))
        _same_draws(
            cond.transpose(0, 2, 1).reshape(-1, size).T, ind.reshape(-1, size).T.astype(float),
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
        assert single[0] == multi[0]  # every row, ``raw`` included
        assert single[1].coverage == multi[1].coverage
        assert single[1].coverage_sic == multi[1].coverage_sic
        assert single[2:] == multi[2:]
