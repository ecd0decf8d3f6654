"""Monte Carlo validation engine.

Samples Poisson scenes and executes the successive-cancellation event chain
trial by trial, independently of every closed form it checks.

Typical-receiver construction (uplink): the receiving AP sits at the origin,
the serving transmitter's distance is drawn from the nearest-AP law of the
equivalent network (density ``lambda_eq``), and interferers form an
independent PPP of density ``mu_j`` inside a disk of radius
R_sim = 20 / sqrt(pi mu_j) (about 400 expected interferers; the omitted
far-field mean is < 0.1% of the in-window mean at alpha = 4).  While an
interferer is being decoded, the signal of interest is not counted as
interference, mirroring the trimmed-sum definition of the residual field.

Reproducibility contract: all sampling uses the counter-based Philox
generator.  Trials are grouped into fixed blocks of ``BLOCK_TRIALS``; block
``b`` draws exclusively from ``Philox(SeedSequence(seed, spawn_key=(b,)))``
and covers trials [b * BLOCK_TRIALS, (b+1) * BLOCK_TRIALS).  Thread count
only changes how blocks are dispatched, never what they draw, so results
are bit-identical for any ``threads`` value.  Aggregation is a sum of
per-block counts and therefore order-insensitive.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateReaError, DomainError
from .model import (
    NetworkConfig,
    SicConfig,
    association_prob_max_power,
    equivalent_density,
)

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "SampledScene",
    "TrialOutcome",
    "MinLoadResult",
    "ReaResult",
    "window_radius",
    "sample_ppp",
    "sample_scene",
    "trimmed_sum_oracle",
    "run_sic_trial",
    "estimate_ps_sic_mc",
    "ps_sic_curve_mc",
    "estimate_ps_can_mc",
    "ps_can_curve_mc",
    "simulate_min_load",
    "voronoi_load_histogram",
    "max_sir_success_curve_mc",
    "simulate_max_inst_sir",
    "simulate_rea",
    "window_sensitivity_probe",
]

BLOCK_TRIALS = 4096

ORDERINGS = ("distance_only", "power_with_fading")


def _check_ordering(ordering: str) -> str:
    if ordering not in ORDERINGS:
        raise DomainError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    return ordering


def _check_trials(trials: int) -> int:
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    return int(trials)


def _stream(seed: int, index: int) -> np.random.Generator:
    """Philox stream ``index`` of the root ``seed`` (see module docstring)."""
    if seed < 0:
        raise DomainError(f"seed must be a non-negative 64-bit integer, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def window_radius(mu_j: float) -> float:
    """Default simulation window: 20 / sqrt(pi mu_j)."""
    if mu_j <= 0.0:
        raise DomainError(f"mu_j must be > 0, got {mu_j}")
    return 20.0 / math.sqrt(math.pi * mu_j)


def _map_blocks(trials: int, worker, threads: int = 1):
    """Run ``worker(block_index, block_size)`` over fixed trial blocks and
    yield results in block order regardless of scheduling."""
    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    sizes = [
        min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS) for b in range(n_blocks)
    ]
    if threads <= 1 or n_blocks == 1:
        for b in range(n_blocks):
            yield worker(b, sizes[b])
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(worker, range(n_blocks), sizes)


@dataclass(frozen=True)
class Estimate:
    """Bernoulli mean with its plug-in standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int

    @classmethod
    def from_counts(cls, successes: float, trials: int, seed: int) -> "Estimate":
        p = successes / trials
        return cls(
            mean=p,
            stderr=math.sqrt(max(p * (1.0 - p), 0.0) / trials),
            trials=trials,
            seed=seed,
        )


@dataclass(frozen=True)
class SampledScene:
    """One realization of the interferer field around the origin."""

    positions: np.ndarray        # (n, 2) interferer coordinates, m
    fading: np.ndarray           # (n,) unit-mean exponential power marks
    serving_distance: float      # m
    window_radius: float         # m
    rng_seed: int

    def __post_init__(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise DomainError("positions must be an (n, 2) array")
        if len(self.fading) != len(self.positions):
            raise DomainError("fading marks must match positions")
        if np.any(self.fading <= 0.0):
            raise DomainError("fading marks must be > 0")
        radii = np.hypot(self.positions[:, 0], self.positions[:, 1])
        if np.any(radii > self.window_radius * (1.0 + 1e-9)):
            raise DomainError("scene contains points outside the window")


@dataclass(frozen=True)
class TrialOutcome:
    """Outcome of one run of the cancellation event chain."""

    succeeded: bool
    cancellations_used: int
    failure_stage: str | None = None  # decode_initial | cancel_stage(n) |
    #                                    decode_after(n) | exhausted


@dataclass(frozen=True)
class MinLoadResult:
    """Estimates from the minimum-load association simulator."""

    rhos: tuple[float, ...]
    coverage: tuple[Estimate, ...]        # no cancellation
    coverage_sic: tuple[Estimate, ...]    # one cancellation allowed
    load_histogram: np.ndarray            # typical user's cell load (others)
    no_candidate_trials: int


@dataclass(frozen=True)
class ReaResult:
    """Paired success estimates for range-expanded users."""

    etas: tuple[float, ...]
    uncancelled: tuple[Estimate, ...]
    cancelled: tuple[Estimate, ...]
    rea_fraction: float                   # empirical REA association share
    serving_distances: np.ndarray = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# Sampling primitives
# ---------------------------------------------------------------------------


def sample_ppp(density: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP in a disk: Poisson count, uniform positions."""
    if density < 0.0:
        raise DomainError(f"density must be >= 0, got {density}")
    if radius <= 0.0:
        raise DomainError(f"radius must be > 0, got {radius}")
    n = rng.poisson(density * math.pi * radius * radius)
    r = radius * np.sqrt(1.0 - rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def sample_scene(
    lambda_eq: float,
    mu_j: float,
    rng_seed: int,
    radius: float | None = None,
) -> SampledScene:
    """Draw one scene: serving distance from the nearest-AP law plus an
    independent interferer PPP with fading marks."""
    if radius is None:
        radius = window_radius(mu_j)
    rng = _stream(rng_seed, 0)
    serving = math.sqrt(rng.exponential(1.0 / (math.pi * lambda_eq)))
    positions = sample_ppp(mu_j, radius, rng)
    fading = rng.exponential(size=len(positions))
    return SampledScene(
        positions=positions,
        fading=fading,
        serving_distance=serving,
        window_radius=radius,
        rng_seed=rng_seed,
    )


def _ordered_powers(scene: SampledScene, alpha: float, ordering: str) -> np.ndarray:
    radii = np.hypot(scene.positions[:, 0], scene.positions[:, 1])
    powers = scene.fading * radii**-alpha
    if ordering == "distance_only":
        return powers[np.argsort(radii, kind="stable")]
    return np.sort(powers, kind="stable")[::-1]


def trimmed_sum_oracle(
    scene: SampledScene,
    n_trim: int,
    ordering: str = "distance_only",
    alpha: float = 4.0,
) -> float:
    """Residual interference after removing the n strongest interferers,
    summed exactly over the scene.  Under distance ordering the n nearest
    are removed; under fading ordering the n largest received powers."""
    _check_ordering(ordering)
    if not 0 <= n_trim <= len(scene.positions):
        raise DomainError(
            f"n_trim={n_trim} outside 0..{len(scene.positions)} interferers"
        )
    ordered = _ordered_powers(scene, alpha, ordering)
    return float(ordered[n_trim:].sum())


_SERVING_STREAM = 1 << 32  # reserved stream index for per-scene serving fading


def run_sic_trial(
    scene: SampledScene,
    sic: SicConfig,
    ordering: str = "distance_only",
    alpha: float = 4.0,
) -> TrialOutcome:
    """Execute the cancellation event chain on one scene.

    Stage 0 tests the signal of interest against the full interference; each
    later stage n first decodes the n-th strongest interferer against the
    residual and then retries the signal of interest.  A failed interferer
    decode terminates the chain.  The serving fading is drawn from the
    scene's reserved stream so the outcome is a pure function of the scene.
    """
    _check_ordering(ordering)
    eta = sic.eta_t
    h_u = _stream(scene.rng_seed, _SERVING_STREAM).exponential()
    soi = h_u * scene.serving_distance**-alpha
    ordered = _ordered_powers(scene, alpha, ordering)
    total = float(ordered.sum())
    if soi >= eta * total:
        return TrialOutcome(succeeded=True, cancellations_used=0)
    if sic.n_max == 0:
        return TrialOutcome(False, 0, "decode_initial")
    residual = total
    for n in range(1, sic.n_max + 1):
        x_n = float(ordered[n - 1]) if n <= len(ordered) else 0.0
        residual = residual - x_n
        if x_n < eta * residual:
            return TrialOutcome(False, n - 1, f"cancel_stage({n})")
        if soi >= eta * residual:
            return TrialOutcome(succeeded=True, cancellations_used=n)
    return TrialOutcome(False, sic.n_max, "exhausted")


# ---------------------------------------------------------------------------
# Vectorized block kernels
# ---------------------------------------------------------------------------


def _radial_field(
    rng: np.random.Generator,
    size: int,
    density: float,
    r_in: float,
    r_out: float,
    min_cols: int,
    alpha: float,
):
    """Sample ``size`` independent faded PPP fields on the annulus
    r_in < r <= r_out; return (powers, counts) with each row's received
    powers ordered nearest first and zero-padded past its count."""
    # two products, so that r_in = 0 reproduces the disk mean bit for bit
    mean = density * math.pi * r_out * r_out - density * math.pi * r_in * r_in
    counts = rng.poisson(mean, size)
    pmax = max(int(counts.max(initial=0)), min_cols, 1)
    r2 = r_in * r_in + (r_out * r_out - r_in * r_in) * (1.0 - rng.random((size, pmax)))
    r2[np.arange(pmax)[None, :] >= counts[:, None]] = np.inf
    r2.sort(axis=1)
    h = rng.exponential(size=(size, pmax))
    return h * r2 ** (-0.5 * alpha), counts


def _field_block(
    rng: np.random.Generator,
    size: int,
    mu_j: float,
    radius: float,
    m: int,
    ordering: str,
    alpha: float,
):
    """Sample ``size`` interferer fields; return (total, top, cum, counts)
    where top[:, i] is the (i+1)-th strongest power under the ordering and
    cum its running sum."""
    powers, counts = _radial_field(rng, size, mu_j, 0.0, radius, m, alpha)
    total = powers.sum(axis=1)
    if ordering == "power_with_fading":
        powers = -np.sort(-powers, axis=1)
    top = powers[:, :m]
    cum = np.cumsum(top, axis=1)
    return total, top, cum, counts


def _serving_block(
    rng: np.random.Generator, size: int, lambda_eq: float, alpha: float
) -> np.ndarray:
    u2 = rng.exponential(1.0 / (math.pi * lambda_eq), size)
    h_u = rng.exponential(size=size)
    return h_u * u2 ** (-0.5 * alpha)


def _first_level(decoded: np.ndarray, cancelled: np.ndarray) -> np.ndarray:
    """First chain stage n at which the signal of interest decodes
    (``decoded[:, n]``) while the cancellations of stages 1..n all succeeded
    (``cancelled[:, :n]``); -1 if the chain dies or the budget is exhausted
    first."""
    level = np.where(decoded[:, 0], 0, -1)
    alive = np.ones(len(level), dtype=bool)
    for n in range(1, decoded.shape[1]):
        alive &= cancelled[:, n - 1]
        level[(level < 0) & alive & decoded[:, n]] = n
    return level


def _chain_levels(soi, total, top, cum, eta: float, n_max: int) -> np.ndarray:
    """:func:`_first_level` of the event chain on one field per trial: stage
    n cancels the n-th strongest interferer and decodes against the rest."""
    residual = total[:, None] - cum[:, :n_max]
    decoded = np.column_stack((soi >= eta * total, soi[:, None] >= eta * residual))
    return _first_level(decoded, top[:, :n_max] >= eta * residual)


def _independent_stage_block(
    rng: np.random.Generator,
    size: int,
    lambda_eq: float,
    mu_j: float,
    radius: float,
    n_max: int,
    ordering: str,
    alpha: float,
):
    """Draw every stage of the chain from its own independent scene.

    Stage n decodes a fresh signal of interest against a fresh field beyond
    the deterministic cancellation radius R_{I,n} = sqrt(n / (pi mu_j)) and
    fails outright when the serving distance falls inside it (no
    renormalization); stage n >= 1 first cancels the n-th strongest
    interferer of another fresh field against everything weaker.  Returns
    the threshold-free statistics (soi, interference, top, weaker), each
    trials x stages.
    """
    soi = np.empty((size, n_max + 1))
    interference = np.empty((size, n_max + 1))
    top = np.empty((size, n_max))
    weaker = np.empty((size, n_max))
    for n in range(n_max + 1):
        r_in = math.sqrt(n / (math.pi * mu_j))
        u2 = rng.exponential(1.0 / (math.pi * lambda_eq), size)
        s = rng.exponential(size=size) * u2 ** (-0.5 * alpha)
        soi[:, n] = np.where(u2 >= r_in * r_in, s, -np.inf)
        powers, _ = _radial_field(rng, size, mu_j, r_in, radius, 1, alpha)
        interference[:, n] = powers.sum(axis=1)
        if n:
            total, t, cum, _ = _field_block(rng, size, mu_j, radius, n, ordering, alpha)
            top[:, n - 1] = t[:, n - 1]
            weaker[:, n - 1] = total - cum[:, n - 1]
    return soi, interference, top, weaker


_GEOMETRY_STREAM = 1 << 33  # reserved stream for frozen-geometry sampling


def ps_sic_curve_mc(
    lambda_eq: float,
    mu_j: float,
    alpha: float,
    etas,
    n_max: int,
    trials: int,
    seed: int,
    ordering: str = "distance_only",
    threads: int = 1,
    radius: float | None = None,
    freeze_positions: bool = False,
    independent_stages: bool = False,
):
    """Event-chain success estimates for every (eta, N <= n_max) pair.

    One sampling pass serves the whole grid: each trial's field statistics
    are reused for every threshold, and the per-trial success level yields
    the estimate for every cancellation budget at once.  Returns an
    (n_eta, n_max+1) array of :class:`Estimate`.

    ``freeze_positions`` draws the geometry (serving distance and interferer
    radii) once from a reserved stream and only redraws fading per trial,
    for studies of the variance conditional on the node placement.

    ``independent_stages=True`` draws each decode and each cancellation of
    the chain from its own scene and cancels at the deterministic radius
    R_{I,n} (see :func:`_independent_stage_block`).  That is exactly the
    decoupling the closed-form chain assumes, so it isolates implementation
    errors from model error, as ``independent_fields=True`` does in
    :func:`max_sir_success_curve_mc`.
    """
    _check_ordering(ordering)
    _check_trials(trials)
    if freeze_positions and independent_stages:
        raise DomainError("freeze_positions and independent_stages exclude each other")
    etas = [float(e) for e in np.atleast_1d(etas)]
    if radius is None:
        radius = window_radius(mu_j)

    frozen_r2 = None
    frozen_serving = None
    if freeze_positions:
        geo = _stream(seed, _GEOMETRY_STREAM)
        frozen_serving = math.sqrt(geo.exponential(1.0 / (math.pi * lambda_eq)))
        n_pts = geo.poisson(mu_j * math.pi * radius * radius)
        r2 = np.sort(radius * radius * (1.0 - geo.random(max(n_pts, 1))))[:n_pts]
        # pad with empty slots so the chain always sees n_max columns
        frozen_r2 = np.concatenate([r2, np.full(max(n_max - n_pts, 0), np.inf)])

    def worker(block: int, size: int) -> np.ndarray:
        rng = _stream(seed, block)
        if freeze_positions:
            h_u = rng.exponential(size=size)
            soi = h_u * frozen_serving ** (-alpha)
            h = rng.exponential(size=(size, len(frozen_r2)))
            powers = h * frozen_r2[None, :] ** (-0.5 * alpha)
            total = powers.sum(axis=1)
            if ordering == "power_with_fading":
                powers = -np.sort(-powers, axis=1)
            top = powers[:, :n_max]
            cum = np.cumsum(top, axis=1)
        elif independent_stages:
            soi, interference, top, weaker = _independent_stage_block(
                rng, size, lambda_eq, mu_j, radius, n_max, ordering, alpha
            )
        else:
            soi = _serving_block(rng, size, lambda_eq, alpha)
            total, top, cum, _ = _field_block(
                rng, size, mu_j, radius, n_max, ordering, alpha
            )
        counts = np.zeros((len(etas), n_max + 1), dtype=np.int64)
        for e_idx, eta in enumerate(etas):
            if independent_stages:
                levels = _first_level(soi >= eta * interference, top >= eta * weaker)
            else:
                levels = _chain_levels(soi, total, top, cum, eta, n_max)
            ok = levels >= 0
            if ok.any():
                counts[e_idx] = np.bincount(levels[ok], minlength=n_max + 1).cumsum()
            # cumsum: success within budget N counts every level <= N
        return counts

    totals = np.zeros((len(etas), n_max + 1), dtype=np.int64)
    for partial in _map_blocks(trials, worker, threads):
        totals += partial
    return np.array(
        [
            [Estimate.from_counts(int(c), trials, seed) for c in row]
            for row in totals
        ],
        dtype=object,
    )


def estimate_ps_sic_mc(
    cfg: NetworkConfig,
    sic: SicConfig,
    trials: int,
    seed: int,
    ordering: str = "distance_only",
    threads: int = 1,
) -> Estimate:
    """SIC success probability for the given network, validated against the
    closed-form chain.  The network is reduced to its single-tier
    equivalent before sampling."""
    lam_eq = equivalent_density(cfg).lambda_eq
    grid = ps_sic_curve_mc(
        lam_eq, cfg.mu_j, cfg.alpha, [sic.eta_t], sic.n_max, trials, seed,
        ordering=ordering, threads=threads,
    )
    return grid[0][sic.n_max]


def ps_can_curve_mc(
    mu_j: float,
    alpha: float,
    etas,
    n_orders: int,
    trials: int,
    seed: int,
    ordering: str = "distance_only",
    threads: int = 1,
    radius: float | None = None,
):
    """Cancellation-success estimates for n = 1..n_orders and each eta.

    Three estimators per grid point:
      direct         -- per scene, test the n-th strongest signal against
                        the residual field (the deconditioned quantity the
                        closed form integrates);
      chain_survival -- fraction of scenes where all of stages 1..n decode
                        (the event-chain population after n cancels);
      chain_stage    -- stage-n success among scenes that survived the
                        first n-1 stages (per-stage conditional).

    Returns a dict of object arrays of Estimates, shape (n_eta, n_orders).
    """
    _check_ordering(ordering)
    _check_trials(trials)
    etas = [float(e) for e in np.atleast_1d(etas)]
    if radius is None:
        radius = window_radius(mu_j)

    def worker(block: int, size: int):
        rng = _stream(seed, block)
        total, top, cum, counts = _field_block(
            rng, size, mu_j, radius, n_orders, ordering, alpha
        )
        enough = counts[:, None] >= np.arange(1, n_orders + 1)[None, :]
        direct = np.zeros((len(etas), n_orders), dtype=np.int64)
        chain_num = np.zeros_like(direct)
        chain_den = np.zeros_like(direct)
        residual = total[:, None] - cum
        for e_idx, eta in enumerate(etas):
            ok = (top >= eta * residual) & enough
            direct[e_idx] = ok.sum(axis=0)
            alive = np.ones(len(total), dtype=bool)
            for n in range(n_orders):
                chain_den[e_idx, n] = alive.sum()
                alive = alive & ok[:, n]
                chain_num[e_idx, n] = alive.sum()
        return direct, chain_num, chain_den

    direct = np.zeros((len(etas), n_orders), dtype=np.int64)
    chain_num = np.zeros_like(direct)
    chain_den = np.zeros_like(direct)
    for d, cn, cd in _map_blocks(trials, worker, threads):
        direct += d
        chain_num += cn
        chain_den += cd
    direct_est = np.array(
        [[Estimate.from_counts(int(c), trials, seed) for c in row] for row in direct],
        dtype=object,
    )
    survival_est = np.array(
        [
            [Estimate.from_counts(int(c), trials, seed) for c in row]
            for row in chain_num
        ],
        dtype=object,
    )
    stage_est = np.empty((len(etas), n_orders), dtype=object)
    for i in range(len(etas)):
        for j in range(n_orders):
            den = int(chain_den[i, j])
            stage_est[i, j] = (
                Estimate.from_counts(int(chain_num[i, j]), den, seed)
                if den > 0
                else Estimate(math.nan, math.nan, 0, seed)
            )
    return {
        "direct": direct_est,
        "chain_survival": survival_est,
        "chain_stage": stage_est,
    }


def estimate_ps_can_mc(
    cfg: NetworkConfig,
    eta: float,
    n: int,
    trials: int,
    seed: int,
    ordering: str = "distance_only",
    conditioning: str = "direct",
    threads: int = 1,
) -> Estimate:
    """Probability of decoding the n-th strongest interferer.
    ``conditioning`` picks the estimator; see :func:`ps_can_curve_mc`."""
    if n < 1:
        raise DomainError(f"order n must be >= 1, got {n}")
    if conditioning not in ("direct", "chain_survival", "chain_stage"):
        raise DomainError(
            "conditioning must be direct|chain_survival|chain_stage, "
            f"got {conditioning}"
        )
    curves = ps_can_curve_mc(
        cfg.mu_j, cfg.alpha, [eta], n, trials, seed, ordering=ordering,
        threads=threads,
    )
    return curves[conditioning][0][n - 1]


def window_sensitivity_probe(
    lambda_eq: float,
    mu_j: float,
    alpha: float,
    eta: float,
    n_max: int,
    trials: int,
    seed: int,
) -> tuple[Estimate, Estimate]:
    """Paired window-sufficiency check: the same trials evaluated with the
    default window and with a doubled window (extra annulus interference
    added on top of identical draws).  Returns (default, doubled)."""
    r_in = window_radius(mu_j)
    r_out = 2.0 * r_in

    def worker(block: int, size: int):
        rng = _stream(seed, block)
        soi = _serving_block(rng, size, lambda_eq, alpha)
        mean = mu_j * math.pi * r_out * r_out
        counts = rng.poisson(mean, size)
        pmax = max(int(counts.max(initial=0)), n_max, 1)
        r2 = r_out * r_out * (1.0 - rng.random((size, pmax)))
        r2[np.arange(pmax)[None, :] >= counts[:, None]] = np.inf
        r2.sort(axis=1)
        h = rng.exponential(size=(size, pmax))
        powers = h * r2 ** (-0.5 * alpha)
        inner = np.where(r2 <= r_in * r_in, powers, 0.0)
        top = inner[:, :n_max]
        cum = np.cumsum(top, axis=1)
        lv_in = _chain_levels(soi, inner.sum(axis=1), top, cum, eta, n_max)
        lv_full = _chain_levels(soi, powers.sum(axis=1), top, cum, eta, n_max)
        return np.array(
            [(lv_in >= 0).sum(), (lv_full >= 0).sum()], dtype=np.int64
        )

    sums = np.zeros(2, dtype=np.int64)
    for partial in _map_blocks(trials, worker, threads=1):
        sums += partial
    return (
        Estimate.from_counts(int(sums[0]), trials, seed),
        Estimate.from_counts(int(sums[1]), trials, seed),
    )


# ---------------------------------------------------------------------------
# Minimum-load association
# ---------------------------------------------------------------------------


def simulate_min_load(
    lam: float,
    mu_j: float,
    r_con: float,
    rhos,
    trials: int,
    seed: int,
    alpha: float = 4.0,
    threads: int = 1,
) -> MinLoadResult:
    """Rate coverage when the typical user picks the least-loaded AP within
    ``r_con``, with and without one interference cancellation.

    Per trial: sample the AP and user PPPs, assign every user to its nearest
    AP (unit-weight Voronoi), pick the minimum-load candidate (ties broken
    by distance, then index), and test (1/(M+1)) log2(1+SIR) > rho for the
    whole rho grid from the same trial statistics.  Trials with no AP inside
    the connectivity range count as coverage failures.  Also returns the
    load histogram of the cell containing the origin (the f_M diagnostic).
    """
    _check_trials(trials)
    rhos = [float(r) for r in np.atleast_1d(rhos)]
    if any(r <= 0.0 for r in rhos):
        raise DomainError("rate thresholds must be > 0")
    r_ap = r_con + 1200.0 / math.sqrt(lam * 1e5)   # AP window margin
    r_user = r_con + 600.0 / math.sqrt(lam * 1e5)  # user window margin
    hist_cap = 256

    def worker(block: int, size: int):
        rng = _stream(seed, block)
        base = np.zeros(len(rhos), dtype=np.int64)
        sic = np.zeros(len(rhos), dtype=np.int64)
        hist = np.zeros(hist_cap, dtype=np.int64)
        no_cand = 0
        for _ in range(size):
            aps = sample_ppp(lam, r_ap, rng)
            users = sample_ppp(mu_j, r_user, rng)
            if len(aps) == 0:
                no_cand += 1
                continue
            d_origin = np.hypot(aps[:, 0], aps[:, 1])
            if len(users):
                d2 = (
                    (users[:, 0, None] - aps[None, :, 0]) ** 2
                    + (users[:, 1, None] - aps[None, :, 1]) ** 2
                )
                loads = np.bincount(np.argmin(d2, axis=1), minlength=len(aps))
            else:
                loads = np.zeros(len(aps), dtype=np.int64)
            hist[min(loads[np.argmin(d_origin)], hist_cap - 1)] += 1
            cand = np.flatnonzero(d_origin <= r_con)
            if len(cand) == 0:
                no_cand += 1
                continue
            order = np.lexsort((cand, d_origin[cand], loads[cand]))
            chosen = cand[order[0]]
            m_load = int(loads[chosen])
            h = rng.exponential(size=len(aps))
            p = h * d_origin**-alpha
            signal = p[chosen]
            p[chosen] = 0.0
            i_total = p.sum()
            x1 = p.max() if len(p) > 1 else 0.0
            i_res = i_total - x1
            for r_idx, rho in enumerate(rhos):
                x = rho * (m_load + 1) * math.log(2.0)
                varsigma = math.inf if x > 700.0 else math.expm1(x)
                if signal >= varsigma * i_total:
                    base[r_idx] += 1
                    sic[r_idx] += 1
                elif x1 >= varsigma * i_res and signal >= varsigma * i_res:
                    sic[r_idx] += 1
        return base, sic, hist, no_cand

    base = np.zeros(len(rhos), dtype=np.int64)
    sic = np.zeros(len(rhos), dtype=np.int64)
    hist = np.zeros(hist_cap, dtype=np.int64)
    no_cand = 0
    for b, s, h, nc in _map_blocks(trials, worker, threads):
        base += b
        sic += s
        hist += h
        no_cand += nc
    return MinLoadResult(
        rhos=tuple(rhos),
        coverage=tuple(Estimate.from_counts(int(c), trials, seed) for c in base),
        coverage_sic=tuple(Estimate.from_counts(int(c), trials, seed) for c in sic),
        load_histogram=hist,
        no_candidate_trials=no_cand,
    )


def voronoi_load_histogram(
    lam: float,
    mu_j: float,
    n_cells: int,
    seed: int,
) -> np.ndarray:
    """Empirical law of M = other users sharing the typical user's cell.

    Samples one large window, assigns users to nearest APs with a KD-tree,
    and records, for ``n_cells`` users far from the boundary, the load of
    their serving cell minus themselves.  This user-anchored (size-biased)
    law is what the 3.5-parameter load PMF models.
    """
    from scipy.spatial import cKDTree

    if n_cells < 1:
        raise DomainError(f"n_cells must be >= 1, got {n_cells}")
    rng = _stream(seed, 0)
    margin = 4.0 / math.sqrt(math.pi * lam)
    r_core = math.sqrt(n_cells / (mu_j * math.pi)) * 1.05
    radius = r_core + margin
    aps = sample_ppp(lam, radius, rng)
    users = sample_ppp(mu_j, radius, rng)
    tree = cKDTree(aps)
    _, owner = tree.query(users, k=1)
    loads = np.bincount(owner, minlength=len(aps))
    interior = np.hypot(users[:, 0], users[:, 1]) <= r_core
    m_values = loads[owner[interior]] - 1
    m_values = m_values[:n_cells]
    return np.bincount(m_values)


# ---------------------------------------------------------------------------
# Maximum instantaneous SIR association
# ---------------------------------------------------------------------------


def _top_m(p: np.ndarray, d2: np.ndarray, m: int, ordering: str) -> np.ndarray:
    """The ``m`` nearest (``distance_only``, by ``d2``) or strongest
    (``power_with_fading``, by ``p``) entries of each row of ``p``, in that
    order: the first ``m`` columns of ``p`` under a stable argsort of the key,
    found by partial selection so that whole rows are never sorted.  Rows
    shorter than ``m`` come back whole and fully ordered.  Entries whose keys
    tie at the m-th place may be picked differently from the stable sort;
    ties between distinct values occur with probability zero, and the
    inf-padded entries of a field all carry the value 0."""
    if m == 0:
        return p[:, :0]
    key = d2 if ordering == "distance_only" else -p
    if m >= key.shape[1]:
        order = np.argsort(key, axis=1, kind="stable")
    else:
        part = np.sort(np.argpartition(key, m - 1, axis=1)[:, :m], axis=1)
        sub = np.argsort(np.take_along_axis(key, part, axis=1), axis=1, kind="stable")
        order = np.take_along_axis(part, sub, axis=1)
    return np.take_along_axis(p, order, axis=1)


def _independent_fields(
    rng: np.random.Generator, n_aps: int, fields, alpha: float, m: int
):
    """Give each of ``n_aps`` receivers its own multi-tier user field, one
    tier per ``(density, window radius, UL power)`` in ``fields``, drawn as
    radii only (nothing else matters).  Return the aggregate interference
    per receiver and, for ``m > 0``, the powers and squared radii of all
    users side by side (empty arrays for ``m = 0``)."""
    total = np.zeros(n_aps)
    parts_p, parts_r2 = [], []
    for mu_k, r_w, q in fields:
        counts = rng.poisson(mu_k * math.pi * r_w * r_w, n_aps)
        pmax = max(int(counts.max(initial=0)), 1)
        r2 = r_w * r_w * (1.0 - rng.random((n_aps, pmax)))
        r2[np.arange(pmax)[None, :] >= counts[:, None]] = np.inf
        base = rng.exponential(size=(n_aps, pmax)) * r2 ** (-0.5 * alpha)
        total += q * base.sum(axis=1)
        if m:
            parts_p.append(q * base)
            parts_r2.append(r2)
    if not m:
        return total, np.empty((n_aps, 0)), np.empty((n_aps, 0))
    return total, np.concatenate(parts_p, axis=1), np.concatenate(parts_r2, axis=1)


def _max_sir_trials(
    cfg: NetworkConfig,
    rng: np.random.Generator,
    size: int,
    cand_radius: float,
    independent_fields: bool,
    ordering: str,
    m: int,
):
    """Draw ``size`` max-SIR trials and yield ``(signal, total, top, cum)``
    for each trial that has a candidate AP, one row per AP: the user's
    received power, the aggregate UL interference, the ``m`` nearest or
    strongest interferer powers (:func:`_top_m`) and their running sums.

    Per trial the candidate APs of every tier and the interfering users of
    every tier (density p_a,k mu, UL power Q_k) are drawn in a disk.  By
    default all APs observe that one user field through independent per-link
    fading; ``independent_fields=True`` instead gives every AP its own field,
    drawn as radii only, which is exactly the decoupling the closed forms
    assume.  The draws do not depend on ``ordering`` or ``m``."""
    alpha = cfg.alpha
    q_ul = np.array([t.q_ul for t in cfg.tiers])
    mu = [association_prob_max_power(cfg, k) * cfg.mu for k in range(cfg.n_tiers)]
    user_radius = window_radius(cfg.mu)
    fields = [(mu_k, window_radius(mu_k), q) for mu_k, q in zip(mu, q_ul)]
    for _ in range(size):
        aps = [sample_ppp(t.lam, cand_radius, rng) for t in cfg.tiers]
        # drawn in both modes: the independent-field draws follow these
        users = [sample_ppp(mu_k, user_radius, rng) for mu_k in mu]
        n_aps = sum(len(a) for a in aps)
        if n_aps == 0:
            continue
        q_ap = np.repeat(q_ul, [len(a) for a in aps])
        aps = np.concatenate(aps)
        d_ap = np.hypot(aps[:, 0], aps[:, 1])
        signal = q_ap * rng.exponential(size=n_aps) * d_ap**-alpha
        if independent_fields:
            total, p, d2 = _independent_fields(rng, n_aps, fields, alpha, m)
        else:
            u_pow = np.repeat(q_ul, [len(u) for u in users])
            users = np.concatenate(users)
            d2 = (
                (aps[:, 0, None] - users[None, :, 0]) ** 2
                + (aps[:, 1, None] - users[None, :, 1]) ** 2
            )
            p = u_pow[None, :] * rng.exponential(size=d2.shape) * d2 ** (-0.5 * alpha)
            total = p.sum(axis=1)
        top = _top_m(p, d2, m, ordering)
        yield signal, total, top, np.cumsum(top, axis=1)


def max_sir_success_curve_mc(
    cfg: NetworkConfig,
    etas,
    trials: int,
    seed: int,
    threads: int = 1,
    cand_radius: float = 250.0,
    independent_fields: bool = False,
) -> list[Estimate]:
    """Success probability of the max-instantaneous-SIR policy without SIC,
    for every threshold at once (the per-trial best SIR is threshold-free).

    Per trial the typical user uplinks to every candidate AP.  By default
    all APs observe the same physical interfering-user field (through
    independent per-link fading); ``independent_fields=True`` instead draws
    a fresh field per AP, which is exactly the decoupling the closed form
    assumes, so it isolates implementation errors from model error.  The
    trials are those of :func:`simulate_max_inst_sir` with N = 0.
    """
    _check_trials(trials)
    etas = np.atleast_1d(np.asarray(etas, dtype=float))

    def worker(block: int, size: int) -> np.ndarray:
        wins = np.zeros(len(etas), dtype=np.int64)
        rng = _stream(seed, block)
        for signal, total, _, _ in _max_sir_trials(
            cfg, rng, size, cand_radius, independent_fields, "distance_only", 0
        ):
            wins += float(np.max(signal / total)) >= etas
        return wins

    totals = np.zeros(len(etas), dtype=np.int64)
    for partial in _map_blocks(trials, worker, threads):
        totals += partial
    return [Estimate.from_counts(int(c), trials, seed) for c in totals]


def simulate_max_inst_sir(
    cfg: NetworkConfig,
    sic: SicConfig,
    trials: int,
    seed: int,
    ordering: str = "distance_only",
    threads: int = 1,
    cand_radius: float = 250.0,
    independent_fields: bool = False,
) -> Estimate:
    """Max-instantaneous-SIR policy with SIC: the uplink succeeds if any
    candidate AP decodes the user after at most N cancellations, running
    the full event chain independently at each AP.  ``independent_fields``
    gives every AP its own interferer field (the closed form's decoupling);
    the default shares the physical field across APs."""
    _check_ordering(ordering)
    _check_trials(trials)
    eta = sic.eta_t
    n_max = sic.n_max

    def worker(block: int, size: int) -> int:
        rng = _stream(seed, block)
        fields = _max_sir_trials(
            cfg, rng, size, cand_radius, independent_fields, ordering, n_max
        )
        return sum(
            bool((_chain_levels(signal, total, top, cum, eta, n_max) >= 0).any())
            for signal, total, top, cum in fields
        )

    return Estimate.from_counts(sum(_map_blocks(trials, worker, threads)), trials, seed)


# ---------------------------------------------------------------------------
# Range expansion
# ---------------------------------------------------------------------------


def simulate_rea(
    cfg: NetworkConfig,
    k: int,
    etas,
    trials: int,
    seed: int,
    threads: int = 1,
    cancel_mode: str = "strongest",
) -> ReaResult:
    """DL success for users in tier k's range-expanded area, with and
    without interference cancellation (paired on the same trials).

    Trials are rejection-sampled on the per-tier nearest distances until
    the user lands in the REA: the biased winner is tier k while the
    unbiased winner is some other tier.  ``trials`` counts kept REA trials.

    ``cancel_mode`` selects what the single cancellation removes:
      strongest -- the one AP with the highest unbiased mean power (the
                   physical one-cancellation receiver);
      annulus   -- every AP whose unbiased mean power exceeds the serving
                   AP's (the event the closed form models; it clears the
                   whole exclusion annulus, not just its strongest member).
    """
    cfg.check_tier(k)
    _check_trials(trials)
    if cancel_mode not in ("strongest", "annulus"):
        raise DomainError(f"cancel_mode must be strongest|annulus, got {cancel_mode}")
    if all(t.bias == 1.0 for t in cfg.tiers):
        raise DegenerateReaError("no tier carries a bias > 1; REA is empty")
    etas = [float(e) for e in np.atleast_1d(etas)]
    e2 = 2.0 / cfg.alpha
    lam = np.array([t.lam for t in cfg.tiers])
    p_dl = np.array([t.p_dl for t in cfg.tiers])
    bias = np.array([t.bias for t in cfg.tiers])
    radius = np.array([window_radius(t.lam) for t in cfg.tiers])
    n_tiers = cfg.n_tiers

    def draw_rea_distances(rng, want: int):
        """Rejection sample nearest-distance tuples conditioned on REA_k."""
        kept = []
        n_kept = 0
        batches = 0
        total_draws = 0
        total_rea = 0
        while n_kept < want and batches < 10_000:
            batch = max(4 * want, 1024)
            x2 = rng.exponential(1.0 / (math.pi * lam), size=(batch, n_tiers))
            unbiased = p_dl[None, :] * x2 ** (-0.5 * cfg.alpha)
            biased = bias[None, :] * unbiased
            is_rea = (np.argmax(biased, axis=1) == k) & (
                np.argmax(unbiased, axis=1) != k
            )
            kept.append(np.sqrt(x2[is_rea]))
            n_kept += int(is_rea.sum())
            total_rea += int(is_rea.sum())
            total_draws += batch
            batches += 1
        samples = np.concatenate(kept)[:want]
        return samples, total_draws, total_rea

    def worker(block: int, size: int):
        rng = _stream(seed, block)
        dist, attempts, n_rea = draw_rea_distances(rng, size)
        if len(dist) < size:
            raise DomainError(
                "REA rejection sampling starved; is the bias configuration sane?"
            )
        # interference per tier: the nearest AP (interferer for i != k) plus
        # the conditional PPP beyond the nearest
        i_total = np.zeros(size)
        removed = np.zeros(size)          # annulus mode: all unbiased-stronger APs
        strongest_unbiased = np.full(size, -math.inf)
        x_strong = np.zeros(size)
        x_k2 = dist[:, k] ** 2
        for i in range(n_tiers):
            x_i = dist[:, i]
            r_out = radius[i]
            mean_beyond = lam[i] * math.pi * np.maximum(r_out**2 - x_i**2, 0.0)
            counts = rng.poisson(mean_beyond)
            pmax = max(int(counts.max(initial=0)), 1)
            u = rng.random((size, pmax))
            r2 = x_i[:, None] ** 2 + u * np.maximum(
                r_out**2 - x_i[:, None] ** 2, 0.0
            )
            r2[np.arange(pmax)[None, :] >= counts[:, None]] = np.inf
            h = rng.exponential(size=(size, pmax))
            powers = p_dl[i] * h * r2 ** (-0.5 * cfg.alpha)
            i_total += powers.sum(axis=1)
            if i != k:
                # unbiased exclusion radius: P_i r^-a > P_k x_k^-a
                c2_i = (p_dl[i] / p_dl[k]) ** e2 * x_k2
                removed += np.where(r2 < c2_i[:, None], powers, 0.0).sum(axis=1)
                h_near = rng.exponential(size=size)
                contrib = p_dl[i] * h_near * x_i**-cfg.alpha
                i_total += contrib
                removed += np.where(x_i**2 < c2_i, contrib, 0.0)
                mean_power = p_dl[i] * x_i**-cfg.alpha
                better = mean_power > strongest_unbiased
                strongest_unbiased = np.where(better, mean_power, strongest_unbiased)
                x_strong = np.where(better, contrib, x_strong)
        h_serv = rng.exponential(size=size)
        signal = p_dl[k] * h_serv * dist[:, k] ** -cfg.alpha
        unc = np.zeros(len(etas), dtype=np.int64)
        can = np.zeros(len(etas), dtype=np.int64)
        i_res = i_total - (removed if cancel_mode == "annulus" else x_strong)
        for e_idx, eta in enumerate(etas):
            unc[e_idx] = int((signal >= eta * i_total).sum())
            can[e_idx] = int((signal >= eta * i_res).sum())
        return unc, can, dist[:, k], attempts, n_rea

    unc = np.zeros(len(etas), dtype=np.int64)
    can = np.zeros(len(etas), dtype=np.int64)
    serving = []
    draws = 0
    kept = 0
    for u, c, sd, att, nr in _map_blocks(trials, worker, threads):
        unc += u
        can += c
        serving.append(sd)
        draws += att
        kept += nr
    return ReaResult(
        etas=tuple(etas),
        uncancelled=tuple(Estimate.from_counts(int(c), trials, seed) for c in unc),
        cancelled=tuple(Estimate.from_counts(int(c), trials, seed) for c in can),
        rea_fraction=kept / max(draws, 1),
        serving_distances=np.concatenate(serving),
    )
