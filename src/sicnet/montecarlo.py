"""Monte Carlo validation engine.

Samples Poisson scenes and executes the successive-cancellation event chain
trial by trial, independently of every closed form it checks.

Typical-receiver construction (uplink): the receiving AP sits at the origin,
the serving transmitter's distance is drawn from the nearest-AP law of the
equivalent network (density ``lambda_eq``), and interferers form an
independent PPP of density ``mu_j``.  While an interferer is being decoded,
the signal of interest is not counted as interference, mirroring the
trimmed-sum definition of the residual field.

Ordering: every SIC chain cancels in order of mean received power, as the
paper's chain does, and only ``ps_can_curve_mc`` also orders by faded power.

Windows: where no decision in a trial reads the far field, the field is
sampled only out to a near window that holds 25 expected points beyond its
inner radius, and each trial multiplies in the exact Laplace transform of
the field beyond (:func:`_far_field`), so the estimate has no truncation
bias: ``simulate_rea``, whose uncancelled, one-cancellation and
annulus-cleared estimates share one set of draws, and the independent-stage
oracle of ``ps_sic_curve_mc``.  The SIC chains on fields of their own are
window-free too: the faithful chain of ``ps_sic_curve_mc`` and the
max-SIR runs with independent fields draw only each receiver's nearest
interferers and integrate out their fadings and the field beyond exactly
(:func:`_nearest_chain_success`); without SIC (``max_sir_success_curve_mc``,
N = 0) the max-SIR runs draw no field and take each AP's whole field from
that transform.  The other simulators decide cancellations on the residual
of a field that several decisions share, or decide loads inside their
window, so the factor would not be exact there, and they still truncate at
a fixed disk, which drops a small share of the interference and so reads
success slightly high: ``ps_can_curve_mc`` at R_sim = 20 / sqrt(pi mu_j)
(:func:`window_radius`, about 400 expected interferers), the shared-field
max-SIR runs at the same radius for the user density mu (about 400
expected users), ``simulate_min_load`` at its connectivity range plus a
margin.  The shared-field max-SIR runs draw a whole block's user counts at
once, after its candidate APs, then each trial's users of every tier in
one draw (:func:`_max_sir_block`).  The sampled annulus and disk fields
(:func:`_radial_chunks`) come in row chunks of a fixed point budget, and
``ps_can_curve_mc`` reduces each chunk before the next is drawn, so its
doubled window never holds a block-sized field.  The chunks' values are
those of one block-sized draw: a copy of the generator serves the
uniforms while the generator itself skips past them to the fading marks,
two cursors on one stream.

Reproducibility contract: all sampling uses numpy's SFC64 generator.
Trials are grouped into fixed blocks of ``BLOCK_TRIALS``; block ``b`` draws
exclusively from ``SFC64(SeedSequence(seed, spawn_key=(b,)))`` and covers
trials [b * BLOCK_TRIALS, (b+1) * BLOCK_TRIALS).  Thread count
only changes how blocks are dispatched, never what they draw, so results
are bit-identical for any ``threads`` value.  :func:`_run_blocks` is the one
place that checks the trial budget, hands each block its stream and
dispatches the blocks; every simulator passes it a ``block(rng, size)``.

Estimators: the chain and policy simulators never draw the serving link's
Rayleigh fading h.  Given everything else in a trial, success is the event
h * S >= eta * I, whose probability is exp(-eta * I / S); each trial
contributes that conditional probability instead of a 0/1 outcome
(conditional Monte Carlo, Asmussen and Glynn, *Stochastic Simulation*,
2007, ch. V), whose variance is never larger.  Each block returns the sum
and the sum of squares of these values per grid point (:func:`_moments`),
and :func:`_run_blocks` adds the blocks' outputs in block order, so the
sums do not depend on scheduling.  The window-free chains and the
independent-stage oracle average each cancellation over the cancelled
node's fading in the same way.  ``ps_can_curve_mc`` still counts 0/1
outcomes.
"""

from __future__ import annotations

import copy
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReaError, DomainError
from .model import (
    NetworkConfig,
    SicConfig,
    _check_alpha,
    _require_count,
    _require_positive,
    association_prob_max_power,
)
from .numerics import c_integral

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "MinLoadResult",
    "ReaResult",
    "window_radius",
    "sample_ppp",
    "ps_sic_curve_mc",
    "ps_can_curve_mc",
    "simulate_min_load",
    "voronoi_load_histogram",
    "max_sir_success_curve_mc",
    "simulate_max_inst_sir",
    "simulate_rea",
]

BLOCK_TRIALS = 4096

ORDERINGS = ("distance_only", "power_with_fading")


def _check_etas(etas) -> list[float]:
    etas = [float(e) for e in np.atleast_1d(etas)]
    for eta in etas:
        _require_positive("eta", eta)
    return etas


def _stream(seed: int, index: int) -> np.random.Generator:
    """SFC64 stream ``index`` of the root ``seed`` (see module docstring).
    Streams are independent through ``SeedSequence``'s spawn key alone, so
    no generator state is ever advanced or jumped."""
    if seed < 0:
        raise DomainError(f"seed must be a non-negative 64-bit integer, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.SFC64(ss))


def window_radius(mu_j: float) -> float:
    """Default simulation window: 20 / sqrt(pi mu_j)."""
    _require_positive("mu_j", mu_j)
    return 20.0 / math.sqrt(math.pi * mu_j)


def _add(a, b):
    """Block outputs added: arrays and counts add, a tuple adds item by
    item and a list concatenates."""
    if isinstance(a, tuple):
        return tuple(map(_add, a, b))
    return a + b


def _run_blocks(trials: int, seed: int, block, threads: int = 1):
    """Run ``block(rng, size)`` on each fixed block of ``trials``, block b
    with ``rng = _stream(seed, b)``, sequentially or on ``threads`` pool
    threads, and return the outputs added in block order (:func:`_add`),
    whatever the scheduling.  ``trials`` must be an integer >= 1."""
    trials = _require_count("trials", trials, 1)
    sizes = [min(BLOCK_TRIALS, trials - b) for b in range(0, trials, BLOCK_TRIALS)]

    def run(b: int):
        return block(_stream(seed, b), sizes[b])

    if threads <= 1 or len(sizes) == 1:
        return functools.reduce(_add, map(run, range(len(sizes))))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return functools.reduce(_add, pool.map(run, range(len(sizes))))


def _moments(p: np.ndarray, axis: int) -> np.ndarray:
    """The sums of ``p`` and of its squares over the trials ``axis``,
    stacked on a new first axis, as :func:`_estimates` reads them."""
    return np.stack((p.sum(axis=axis), (p * p).sum(axis=axis)))


@dataclass(frozen=True)
class Estimate:
    """Mean of per-trial samples in [0, 1] (success probabilities or 0/1
    outcomes) with its plug-in standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int

    @classmethod
    def from_sums(
        cls, total: float, total_sq: float, trials: int, seed: int
    ) -> "Estimate":
        """From the sum and the sum of squares of ``trials`` samples in [0, 1].
        The plug-in variance E[X^2] - E[X]^2 is written p(1 - p) - E[X - X^2],
        so that 0/1 samples (``total_sq == total``) give the Bernoulli
        p(1 - p) bit for bit."""
        total, total_sq = float(total), float(total_sq)
        p = total / trials
        var = p * (1.0 - p) - (total - total_sq) / trials
        return cls(
            mean=p,
            stderr=math.sqrt(max(var, 0.0) / trials),
            trials=trials,
            seed=seed,
        )


def _estimates(sums, trials: int, seed: int):
    """One :class:`Estimate` per grid point from ``sums``, the per-point sums
    and sums of squares stacked on the first axis: an object array of the
    grid's shape, or a single Estimate for a scalar grid point.  A count of
    0/1 outcomes is both its own sum and its own sum of squares."""
    make = np.frompyfunc(lambda t, sq: Estimate.from_sums(t, sq, trials, seed), 2, 1)
    return make(sums[0], sums[1])


@dataclass(frozen=True)
class MinLoadResult:
    """Estimates from the minimum-load association simulator, one per rate
    threshold, and the number of trials with no AP within range."""

    coverage: tuple[Estimate, ...]        # no cancellation
    coverage_sic: tuple[Estimate, ...]    # one cancellation allowed
    no_candidate_trials: int


@dataclass(frozen=True)
class ReaResult:
    """Success estimates for range-expanded users on the same trials, one
    per threshold: without cancellation, with the one cancellation that
    ``cancel_mode`` names, and with the whole exclusion annulus cleared."""

    uncancelled: tuple[Estimate, ...]
    cancelled: tuple[Estimate, ...]
    annulus: tuple[Estimate, ...]
    rea_fraction: float                   # empirical REA association share


# ---------------------------------------------------------------------------
# Sampling primitives
# ---------------------------------------------------------------------------


def sample_ppp(density: float, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP in a disk: Poisson count, uniform positions."""
    if not (math.isfinite(density) and density >= 0.0):
        raise DomainError(f"density must be finite and >= 0, got {density}")
    _require_positive("radius", radius)
    n = rng.poisson(density * math.pi * radius * radius)
    r = radius * np.sqrt(1.0 - rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    xy = np.empty((n, 2))
    np.multiply(r, np.cos(theta), out=xy[:, 0])
    np.multiply(r, np.sin(theta), out=xy[:, 1])
    return xy


# ---------------------------------------------------------------------------
# Vectorized block kernels
# ---------------------------------------------------------------------------


# A field block is drawn in row chunks of at most this many points (one row
# where a row is longer), so that no caller holds a block-sized field.
_CHUNK_POINTS = 1 << 18

# The memory cap: a field row of more points than this, 32 MiB for each of a
# chunk's float arrays, raises DomainError before any row is drawn.
_MAX_ROW_POINTS = 1 << 22


def _rows(x, part: slice):
    """Rows ``part`` of a per-row term as a column, or a scalar as it is."""
    return x[part, None] if np.ndim(x) else x


def _radial_chunks(
    rng: np.random.Generator,
    size: int,
    density: float,
    r_in: float,
    r_out: float,
    min_cols: int,
    alpha: float,
):
    """Sample ``size`` independent faded PPP fields on the annulus
    r_in < r <= r_out: a Poisson count per row, squared radii uniform on
    (r_in^2, r_out^2] and a unit-mean exponential fading mark per point.
    ``r_in`` and ``r_out`` are scalars or one radius per row; a row whose
    r_in exceeds r_out is empty.  Yield (powers, r2, counts) for
    consecutive row chunks of at most ``_CHUNK_POINTS`` points, in draw
    order, not sorted: every row is padded past its count, to the block's
    longest row and at least ``min_cols`` columns, with r2 = inf and zero
    power.  Callers that need the nearest or strongest points pick them
    with :func:`_top_m`.  A row longer than ``_MAX_ROW_POINTS`` raises
    :class:`DomainError` once the counts are drawn, before any row is.

    The chunks hold exactly the values of one block-sized draw: the block's
    counts first, then all of its uniforms, then all of its fading marks.
    Two cursors on the one stream make that so.  When the block spans
    several chunks, a copy of ``rng`` serves the uniforms chunk by chunk,
    while ``rng`` skips past them (SFC64 spends one raw output per double)
    and draws the marks, so it ends where the block-sized draw would.  Use
    every chunk before ``rng`` draws again."""
    # two products, so that r_in = 0 reproduces the disk mean bit for bit
    mean = density * math.pi * r_out * r_out - density * math.pi * r_in * r_in
    r_in2 = r_in * r_in
    span = r_out * r_out - r_in2
    if isinstance(span, np.ndarray):
        mean, span = np.maximum(mean, 0.0), np.maximum(span, 0.0)
    counts = rng.poisson(mean, size)
    pmax = max(int(counts.max(initial=0)), min_cols, 1)
    if pmax > _MAX_ROW_POINTS:
        raise DomainError(
            f"a field row of {pmax} points exceeds the cap of {_MAX_ROW_POINTS}"
        )
    rows = max(_CHUNK_POINTS // pmax, 1)
    uniforms = rng
    if rows < size:
        uniforms = copy.deepcopy(rng)
        rng.bit_generator.random_raw(size * pmax, output=False)
    for lo in range(0, size, rows):
        part = slice(lo, lo + rows)
        n = counts[part]
        # in place, the same operations as r_in^2 + span * (1 - u)
        r2 = uniforms.random((len(n), pmax))
        np.subtract(1.0, r2, out=r2)
        r2 *= _rows(span, part)
        r2 += _rows(r_in2, part)
        np.copyto(r2, np.inf, where=np.arange(pmax)[None, :] >= n[:, None])
        powers = rng.standard_exponential((len(n), pmax))
        powers *= r2 ** (-0.5 * alpha)
        yield powers, r2, n


def _radial_field(*args):
    """The whole block of :func:`_radial_chunks`, called with the same
    arguments, as one (powers, r2, counts): its one chunk where the block
    fits in one, else its chunks joined, the values of one block-sized
    draw either way."""
    chunks = list(_radial_chunks(*args))
    return chunks[0] if len(chunks) == 1 else tuple(map(np.concatenate, zip(*chunks)))


# Expected points of a near field beyond its inner radius, where the far
# field beyond it enters exactly through _far_field.
_NEAR_POINTS = 25.0


def _near_window2(density: float, r_in2):
    """Squared outer radius of the near field that holds ``_NEAR_POINTS``
    expected points of a PPP of ``density`` beyond the squared inner radius
    ``r_in2`` (a scalar or one per row)."""
    return r_in2 + _NEAR_POINTS / (math.pi * density)


def _far_field(density, r_lo2, s, alpha: float):
    """-log E[exp(-s I)] for the faded PPP of ``density`` beyond radius
    r_lo (``r_lo2`` = r_lo^2), I the sum of h r^-alpha over its points with
    unit-mean exponential marks h:

        pi density s^(2/alpha) C(r_lo^2 s^(-2/alpha), alpha)

    (Haenggi, *Stochastic Geometry for Wireless Networks*, 2012, ch. 5).
    A trial that averages exp(-s I_near) over a near field sampled out to
    r_lo and multiplies by exp(-this) is exactly unbiased, whatever r_lo,
    provided no decision in the trial reads the far field.  Broadcasts over
    its arguments with one array call of :func:`c_integral`."""
    s_e = s ** (2.0 / alpha)
    return math.pi * density * s_e * c_integral(r_lo2 / s_e, alpha)


def _top_m(p: np.ndarray, key: np.ndarray, m: int) -> np.ndarray:
    """The entries of each row of ``p`` at the ``m`` smallest values of
    ``key`` (squared distance, negated power or negated mean power), in
    ascending key order: exactly the first ``m`` columns of ``p`` under a
    stable argsort of the key, ties included.  The columns are picked one
    at a time by ``argmin`` over the key, in which every picked entry is
    then retired (set to inf), so whole rows are never sorted.  The first
    occurrence wins, as in a stable sort; inf padding in the key is mapped
    to the largest finite float so that it still ranks below the retired
    entries.  Rows shorter than ``m`` come back whole and fully ordered.

    ``key``, a C-contiguous float array, is overwritten in place: callers
    pass a key that they read no more, so that no copy of it is made."""
    m = min(m, p.shape[1])
    if m == 0:
        return np.empty((len(p), 0))  # not a view: it must not keep p alive
    np.minimum(key, np.finfo(float).max, out=key)
    flat = key.reshape(-1)
    row_start = np.arange(0, key.size, key.shape[1])
    picked = np.empty((len(p), m), dtype=np.intp)
    for i in range(m):
        picked[:, i] = j = np.argmin(key, axis=1) + row_start
        flat[j] = np.inf
    return p.reshape(-1)[picked]


def _serving_block(
    rng: np.random.Generator, size: int, lambda_eq: float, alpha: float
) -> np.ndarray:
    """Mean received power u^-alpha of the signal of interest, the serving
    distance u drawn from the nearest-AP law; its fading is never drawn."""
    u2 = rng.exponential(1.0 / (math.pi * lambda_eq), size)
    return u2 ** (-0.5 * alpha)


def _reached(cancelled: np.ndarray) -> np.ndarray:
    """(trials, n_max + 1) mask of the chain stages reached: stage n needs
    the cancellations of stages 1..n (``cancelled[:, :n]``) to succeed."""
    first = np.ones((len(cancelled), 1), dtype=bool)
    return np.hstack((first, np.logical_and.accumulate(cancelled, axis=1)))


def _chain_exponent(s0, total, top, cum, eta: float, n_max: int) -> np.ndarray:
    """eta * R_L / s0 for every budget N = 0..n_max, a (trials, n_max + 1)
    array: the chain with budget N succeeds with probability exp(-that)
    over the serving fading, since the cancellations never involve it.

    ``s0`` is the mean power of the signal of interest and R_n = total -
    cum[:, n-1] the residual after n cancellations (R_0 = total).  L is
    min(N, the number of consecutive successful cancellations), and stage
    n cancels when top[:, n-1] >= eta * R_n.  The residual never grows
    along the chain, so R_L is the running minimum over the stages the
    chain reaches.  Residuals are clipped at 0 against rounding."""
    residual = np.column_stack((total, total[:, None] - cum[:, :n_max]))
    reached = _reached(top[:, :n_max] >= eta * residual[:, 1:])
    r_l = np.minimum.accumulate(np.where(reached, residual, np.inf), axis=1)
    return np.maximum(r_l, 0.0) / s0[:, None] * eta


# The window-free SIC chain conditions on the max(n_max, this) nearest
# interferers of each receiver, so every budget up to it reads the same draws.
_NEAREST_USERS = 3


def _nearest_users(rng: np.random.Generator, size: int, density: float, n_max: int, alpha: float):
    """The nearest users of ``size`` independent unit-power PPP fields of
    ``density``, max(n_max, ``_NEAREST_USERS``) of them: pi density r_k^2
    is a sum of k Exp(1) (Haenggi, *Stochastic Geometry for Wireless
    Networks*, 2012, ch. 2).  Return their mean powers x[:, k-1] =
    r_k^-alpha and the squared radius r_far^2 of the farthest.  Tiers of
    UL powers Q_k map to one such field of density sum_k mu_k Q_k^(2/alpha)
    (mapping theorem, ibid.), its users in order of mean received power."""
    depth = max(n_max, _NEAREST_USERS)
    r2 = np.cumsum(rng.standard_exponential((size, depth)), axis=1)
    r2 /= math.pi * density
    return r2 ** (-0.5 * alpha), r2[:, -1]


def _nearest_chain_success(x, r2_far, density, signal, eta: float, n_max: int, alpha: float):
    """Each receiver's chain success for budgets N = 0..n_max, in order of
    mean received power, given the mean power ``signal`` S of its signal of
    interest and the mean powers ``x`` of the nearest users of its
    unit-power field of ``density`` (:func:`_nearest_users`), exact over
    every fading and the field beyond r_far.  Every SIC chain that decides
    its cancellations on the residual of its own field runs here:
    ``ps_sic_curve_mc`` on its one tier, max-SIR with independent fields on
    the tiers' equivalent field.  With R_k the residual after k
    cancellations, Phi_k(c) = E[exp(-c R_k)] is prod_{j>k} (1 + c x_j)^-1
    times :func:`_far_field` beyond r_far.  Stage k cancels
    with probability exp(-a_k R_k), a_k = eta / x_k, and decodes with
    exp(-g R_k), g = eta / S.  From beta_0 = 0 and W_0 = 1, W_k = W_{k-1} /
    (1 + beta_{k-1} x_k) and beta_k = beta_{k-1} + a_k (1 + beta_{k-1} x_k).
    Where stages 1..k all cancel, E[exp(-g R_k)] = W_k Phi_k(beta_k + g)
    and E[exp(-g R_{k-1})] = W_{k-1} Phi_k((1 + b x_k) a_k + b) / (1 + b
    x_k), b = beta_{k-1} + g.  P_N is Phi_0(g) plus their differences for k
    <= N, as a running maximum."""

    def phi(k: int, c: np.ndarray) -> np.ndarray:
        far = _far_field(density, r2_far, c, alpha)
        return np.exp(-(np.log1p(c[:, None] * x[:, k:]).sum(axis=1) + far))

    g = eta / signal
    beta, w = np.zeros_like(g), np.ones_like(g)
    p = [phi(0, g)]
    for k in range(1, n_max + 1):
        x_k, a_k, b = x[:, k - 1], eta / x[:, k - 1], beta + g
        before = w / (1.0 + b * x_k) * phi(k, (1.0 + b * x_k) * a_k + b)
        w, beta = w / (1.0 + beta * x_k), beta + a_k * (1.0 + beta * x_k)
        p.append(p[-1] + w * phi(k, beta + g) - before)
    return np.clip(np.maximum.accumulate(np.column_stack(p), axis=1), 0.0, 1.0)


def _independent_stage_block(
    rng: np.random.Generator,
    size: int,
    lambda_eq: float,
    mu_j: float,
    n_max: int,
    alpha: float,
):
    """Draw every stage of the chain from its own independent scene.

    Stage n decodes a fresh signal of interest against a fresh field beyond
    the deterministic cancellation radius R_{I,n} = sqrt(n / (pi mu_j)) and
    fails outright when the serving distance falls inside it (no
    renormalization); stage n >= 1 first cancels the n-th nearest
    interferer of another fresh field against everything beyond it.  That
    scene needs no window: pi mu_j r_n^2 ~ Gamma(n) (Haenggi, *Stochastic
    Geometry for Wireless Networks*, 2012, ch. 2), and the field beyond r_n
    is an independent PPP.  Each field is sampled out to the near window of
    its inner radius (:func:`_near_window2`); :func:`_independent_stage_probs`
    adds the field beyond it exactly.  Returns the threshold-free
    statistics (s, interference, r2, weaker): s (trials x stages) is the
    mean signal power u^-alpha, or 0 where the serving distance falls
    inside R_{I,n}, and interference the near field of each decode stage;
    r2 (trials x cancellation stages) is r_n^2 and weaker the near field
    beyond it.  The cancelled node's fading is never drawn.
    """
    s = np.empty((size, n_max + 1))
    interference = np.empty((size, n_max + 1))
    r2 = np.empty((size, n_max))
    weaker = np.empty((size, n_max))
    for n in range(n_max + 1):
        r_in = math.sqrt(n / (math.pi * mu_j))
        u2 = rng.exponential(1.0 / (math.pi * lambda_eq), size)
        s[:, n] = np.where(u2 >= r_in * r_in, u2 ** (-0.5 * alpha), 0.0)
        r_out = math.sqrt(_near_window2(mu_j, r_in * r_in))
        powers, _, _ = _radial_field(rng, size, mu_j, r_in, r_out, 1, alpha)
        interference[:, n] = powers.sum(axis=1)
        if n:
            r2[:, n - 1] = r2_n = rng.standard_gamma(n, size) / (math.pi * mu_j)
            weaker[:, n - 1] = _radial_field(
                rng, size, mu_j, np.sqrt(r2_n), np.sqrt(_near_window2(mu_j, r2_n)), 1,
                alpha,
            )[0].sum(axis=1)
    return s, interference, r2, weaker


def _stage_chain_success(miss: np.ndarray, cancel: np.ndarray) -> np.ndarray:
    """Success probability for every budget N = 0..n_max of a chain whose
    stages are independent: stage n's decode misses with probability
    ``miss[:, n]`` and its cancellation (n >= 1) succeeds with probability
    ``cancel[:, n-1]``.  With M_n = prod_{m<=n} miss_m and W_n =
    prod_{1<=m<=n} cancel_m, the chain fails with probability

        F_N = sum_{j=1}^{N} (1 - cancel_j) W_{j-1} M_{j-1} + W_N M_N,

    the chain dying at cancellation j or running out of budget, and
    succeeds with 1 - F_N = sum_{n<=N} (1 - miss_n) M_{n-1} W_n.  F_N never
    grows with N; its running minimum over N removes the rounding that
    could make it do so.  Where every cancellation probability is 0 or 1
    this is 1 - prod(miss) over the stages reached, bit for bit."""
    m = np.cumprod(miss, axis=1)
    w = np.cumprod(np.column_stack((np.ones(len(miss)), cancel)), axis=1)
    died = np.cumsum((1.0 - cancel) * w[:, :-1] * m[:, :-1], axis=1)
    fail = w * m + np.column_stack((np.zeros(len(miss)), died))
    return 1.0 - np.minimum.accumulate(fail, axis=1)


def _independent_stage_probs(
    s, interference, r2, weaker, eta: float, mu_j: float, alpha: float
):
    """Per-stage probabilities of :func:`_independent_stage_block`'s chain,
    (miss, cancel) as :func:`_stage_chain_success` takes them.  Stage n
    decodes with probability exp(-eta I_n / S_n - far) over its serving
    fading, 0 where S_n = 0; its cancellation succeeds with probability
    exp(-eta r_n^alpha R_n - far) over the cancelled node's fading, which is
    independent of r_n and of the residual R_n.  Each far term is the exact
    factor of the field beyond the stage's near window (:func:`_far_field`),
    so the estimate has no truncation bias."""
    decode_lo2 = _near_window2(mu_j, np.arange(s.shape[1]) / (math.pi * mu_j))
    ok = s > 0.0
    x = np.full(s.shape, np.inf)
    s_ok = s[ok]
    x[ok] = eta * interference[ok] / s_ok + _far_field(
        mu_j, np.broadcast_to(decode_lo2, s.shape)[ok], eta / s_ok, alpha
    )
    cancel_s = eta * r2 ** (0.5 * alpha)
    far = _far_field(mu_j, _near_window2(mu_j, r2), cancel_s, alpha)
    return -np.expm1(-x), np.exp(-(cancel_s * weaker + far))


def ps_sic_curve_mc(
    lambda_eq: float,
    mu_j: float,
    alpha: float,
    etas,
    n_max: int,
    trials: int,
    seed: int,
    threads: int = 1,
    independent_stages: bool = False,
):
    """Event-chain success estimates for every (eta, N <= n_max) pair.

    Stage n cancels the n-th nearest interferer, the one of n-th largest
    mean received power, as the paper's chain does, when it decodes against
    the residual.  Each trial draws the serving distance and the nearest
    interferers (:func:`_nearest_users`, one tier) and contributes its
    success probability over every fading and the field beyond them
    (:func:`_nearest_chain_success`), so no window truncates the field.
    One sampling pass serves the whole grid: each trial's draws are reused
    for every threshold and every cancellation budget.  Returns an (n_eta,
    n_max+1) array of :class:`Estimate`.

    ``independent_stages=True`` draws each decode and each cancellation of
    the chain from its own scene and cancels at the deterministic radius
    R_{I,n} (see :func:`_independent_stage_block`).  That is exactly the
    decoupling the closed-form chain assumes, so it isolates implementation
    errors from model error, as ``independent_fields=True`` does in
    :func:`max_sir_success_curve_mc`.  No decision of that chain reads the
    far field, so it adds the field beyond each stage's near window exactly
    (:func:`_independent_stage_probs`).
    """
    _require_positive("lambda_eq", lambda_eq)
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)
    n_max = _require_count("n_max", n_max)
    etas = _check_etas(etas)

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        if independent_stages:
            stats = _independent_stage_block(rng, size, lambda_eq, mu_j, n_max, alpha)
        else:
            s0 = _serving_block(rng, size, lambda_eq, alpha)
            near = _nearest_users(rng, size, mu_j, n_max, alpha)
        sums = np.zeros((2, len(etas), n_max + 1))
        for e_idx, eta in enumerate(etas):
            if independent_stages:
                p = _stage_chain_success(
                    *_independent_stage_probs(*stats, eta, mu_j, alpha)
                )
            else:
                p = _nearest_chain_success(*near, mu_j, s0, eta, n_max, alpha)
            sums[:, e_idx] = _moments(p, 0)
        return sums

    return _estimates(_run_blocks(trials, seed, block, threads), trials, seed)


def ps_can_curve_mc(
    mu_j: float,
    alpha: float,
    etas,
    n_orders: int,
    trials: int,
    seed: int,
    threads: int = 1,
    radius: float | None = None,
):
    """Cancellation-success estimates for n = 1..n_orders and each eta, under
    both ORDERINGS of one field per trial (picked by :func:`_top_m`).

    Two estimators per grid point:
      direct         -- per scene, test the n-th strongest signal against
                        the residual field (the deconditioned quantity the
                        closed form integrates), under both orderings;
      chain_survival -- fraction of scenes where all of stages 1..n decode
                        (the event-chain population after n cancels), under
                        distance ordering only.

    Returns ``{ordering: {estimator: Estimates}}``, each an object array of
    shape (n_eta, n_orders).
    """
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)
    n_orders = _require_count("n_orders", n_orders, 1)
    etas = _check_etas(etas)
    if radius is None:
        radius = window_radius(mu_j)
    _require_positive("radius", radius)

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        # (direct per ordering, distance-ordered chain survivors) x eta x n
        wins = np.zeros((len(ORDERINGS) + 1, len(etas), n_orders), dtype=np.int64)
        for powers, r2, counts in _radial_chunks(rng, size, mu_j, 0.0, radius, n_orders, alpha):
            total = powers.sum(axis=1)
            enough = counts[:, None] >= np.arange(1, n_orders + 1)[None, :]
            for o_idx, ordering in enumerate(ORDERINGS):
                # _top_m retires its picks in r2, and then the fading order's
                # key, -powers, overwrites it, so no third chunk-sized array
                key = r2 if ordering == "distance_only" else np.negative(powers, out=r2)
                top = _top_m(powers, key, n_orders)
                residual = total[:, None] - np.cumsum(top, axis=1)
                for e_idx, eta in enumerate(etas):
                    ok = (top >= eta * residual) & enough
                    wins[o_idx, e_idx] += ok.sum(axis=0)
                    if ordering == "distance_only":
                        wins[-1, e_idx] += np.logical_and.accumulate(ok, axis=1).sum(axis=0)
        return wins

    dist, fade, survivors = (
        _estimates((c, c), trials, seed) for c in _run_blocks(trials, seed, block, threads)
    )
    return {
        "distance_only": {"direct": dist, "chain_survival": survivors},
        "power_with_fading": {"direct": fade},
    }


# ---------------------------------------------------------------------------
# Minimum-load association
# ---------------------------------------------------------------------------


def _min_load_trials(
    rng: np.random.Generator,
    size: int,
    lam: float,
    mu_j: float,
    r_con: float,
    alpha: float,
):
    """Draw ``size`` minimum-load trials and yield, for each trial with an
    AP within ``r_con``, the row (M, S0, I, x1): the chosen AP's load of
    other users, the user's mean received power there, the faded
    interference from every other AP, and its strongest term.  Trials with
    no such AP yield nothing.

    Every user joins its nearest AP (unit-weight Voronoi); the user picks
    the minimum-load candidate, ties broken by distance, then index.  The
    fading marks of all APs are drawn in one call, so the chosen AP's own
    mark is drawn and never read."""
    r_ap = r_con + 1200.0 / math.sqrt(lam * 1e5)   # AP window margin
    r_user = r_con + 600.0 / math.sqrt(lam * 1e5)  # user window margin
    for _ in range(size):
        aps = sample_ppp(lam, r_ap, rng)
        users = sample_ppp(mu_j, r_user, rng)
        d_origin = np.hypot(aps[:, 0], aps[:, 1])
        cand = np.flatnonzero(d_origin <= r_con)
        if len(cand) == 0:
            continue
        if len(users):
            d2 = (
                (users[:, 0, None] - aps[None, :, 0]) ** 2
                + (users[:, 1, None] - aps[None, :, 1]) ** 2
            )
            loads = np.bincount(np.argmin(d2, axis=1), minlength=len(aps))
        else:
            loads = np.zeros(len(aps), dtype=np.int64)
        order = np.lexsort((cand, d_origin[cand], loads[cand]))
        chosen = cand[order[0]]
        p = rng.exponential(size=len(aps)) * d_origin**-alpha
        p[chosen] = 0.0
        x1 = p.max() if len(p) > 1 else 0.0
        yield loads[chosen], d_origin[chosen] ** -alpha, p.sum(), x1


def _min_load_success(rows: np.ndarray, rhos) -> np.ndarray:
    """Rate-coverage probability over the serving fading, a (2, n_rho,
    trials) array for rows (M, S0, I, x1) of :func:`_min_load_trials`.

    With varsigma = 2^(rho (M + 1)) - 1, the uncancelled link covers with
    probability exp(-varsigma I / S0).  One cancellation removes x1 when it
    decodes against the rest, x1 >= varsigma I_res with I_res = I - x1, and
    then covers with probability exp(-varsigma I_res / S0)."""
    m_load, s0, i_total, x1 = rows.T
    i_res = np.maximum(i_total - x1, 0.0)
    # capped so that varsigma stays finite: beyond e^700 nothing decodes
    x = np.minimum(np.multiply.outer(rhos, (m_load + 1.0) * math.log(2.0)), 700.0)
    varsigma = np.expm1(x)
    uncancelled = np.exp(-varsigma * (i_total / s0))
    cancelled = np.where(
        x1 >= varsigma * i_res, np.exp(-varsigma * (i_res / s0)), uncancelled
    )
    return np.stack((uncancelled, cancelled))


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

    Per trial: sample the AP and user PPPs, pick the minimum-load candidate
    (:func:`_min_load_trials`), and average the probability over the
    serving fading that (1/(M+1)) log2(1+SIR) > rho, for the whole rho grid
    from the same trial statistics (:func:`_min_load_success`).  Trials
    with no AP inside the connectivity range count as coverage failures;
    the result also counts them (``no_candidate_trials``).
    """
    for name, value in (("lam", lam), ("mu_j", mu_j), ("r_con", r_con)):
        _require_positive(name, value)
    _check_alpha(alpha)
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if not np.all(np.isfinite(rhos) & (rhos > 0.0)):
        raise DomainError(f"rate thresholds must be finite and > 0, got {rhos.tolist()}")

    def block(rng: np.random.Generator, size: int):
        rows = list(_min_load_trials(rng, size, lam, mu_j, r_con, alpha))
        p = _min_load_success(np.array(rows, dtype=float).reshape(-1, 4), rhos)
        return _moments(p, 2), size - len(rows)

    sums, no_cand = _run_blocks(trials, seed, block, threads)
    base, sic = (tuple(_estimates(sums[:, i], trials, seed)) for i in range(2))
    return MinLoadResult(coverage=base, coverage_sic=sic, no_candidate_trials=no_cand)


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
    law is what the 3.5-parameter load PMF models.  When the core disk
    holds fewer than ``n_cells`` users, its area is doubled and the window
    drawn again from the same stream, so the histogram always sums to
    ``n_cells``.
    """
    from scipy.spatial import cKDTree

    _require_positive("lam", lam)
    _require_positive("mu_j", mu_j)
    n_cells = _require_count("n_cells", n_cells, 1)
    rng = _stream(seed, 0)
    margin = 4.0 / math.sqrt(math.pi * lam)
    r_core = math.sqrt(n_cells / (mu_j * math.pi)) * 1.05
    while True:
        radius = r_core + margin
        aps = sample_ppp(lam, radius, rng)
        users = sample_ppp(mu_j, radius, rng)
        interior = np.hypot(users[:, 0], users[:, 1]) <= r_core
        if interior.sum() >= n_cells:
            break
        r_core *= math.sqrt(2.0)
    tree = cKDTree(aps)
    _, owner = tree.query(users, k=1)
    loads = np.bincount(owner, minlength=len(aps))
    m_values = loads[owner[interior]] - 1
    m_values = m_values[:n_cells]
    return np.bincount(m_values)


# ---------------------------------------------------------------------------
# Maximum instantaneous SIR association
# ---------------------------------------------------------------------------


def _interferer_tiers(cfg: NetworkConfig):
    """``(density, UL power)`` of each tier's interfering users: the users
    of tier k, density p_k mu under max-power association, transmit at Q_k."""
    return [
        (association_prob_max_power(cfg, k) * cfg.mu, t.q_ul)
        for k, t in enumerate(cfg.tiers)
    ]


# Radius of the disk in which the candidate APs of every tier are drawn, m.
_CAND_RADIUS = 250.0


def _max_sir_block(
    cfg: NetworkConfig,
    rng: np.random.Generator,
    size: int,
    independent_fields: bool,
    m: int,
):
    """Draw ``size`` max-SIR trials and return their candidate APs, one row
    per AP, trial by trial and by tier within a trial: ``(signal, total,
    top, first_row)``, or None if no trial has a candidate AP.  ``signal``
    is the user's mean received power at the AP (its link fading is never
    drawn), ``total`` the aggregate UL interference and ``top`` the powers
    of the ``m`` interferers of largest mean received power x = Q_k
    d^-alpha at the AP, the users of all tiers ranked together
    (:func:`_top_m` on -x), which the chain cancels in that order.  Where
    a field holds fewer than ``m`` interferers, zero-power stages pad its
    row: they leave the residual as it was, so they cannot change the
    chain's outcome.  ``first_row`` indexes the first row of each trial
    that has a candidate AP; the other trials have no row.

    The candidate APs of every tier are drawn for the whole block at once
    in the disk of radius ``_CAND_RADIUS``: a Poisson count per trial and
    tier, and squared radii uniform on (0, R^2] (Haenggi, *Stochastic
    Geometry for Wireless Networks*, 2012, ch. 2).  By default all APs of a
    trial then observe one physical user field through independent
    per-link fading, the users of every tier (density p_a,k mu, UL power
    Q_k) in the disk of :func:`window_radius` for mu.  After the APs'
    angles, one Poisson draw gives every tier's user count in each trial
    with a candidate AP; then each such trial draws its users at once
    (:func:`_shared_users`) and the fadings of its AP x user links, into
    arrays built in place, one trial's at a time.  The draws do not depend
    on ``m``.  ``independent_fields=True`` instead gives every AP a field
    of its own, which is exactly the decoupling the closed forms assume,
    and draws neither AP angles nor users here: ``total`` and ``top`` are
    None."""
    alpha, r2_cand = cfg.alpha, _CAND_RADIUS * _CAND_RADIUS
    tiers = _interferer_tiers(cfg)
    q_ul = np.array([q for _, q in tiers])
    lam = np.array([t.lam for t in cfg.tiers])
    counts = rng.poisson(lam * (math.pi * r2_cand), (size, cfg.n_tiers))
    n_aps = counts.sum(axis=1)
    if not n_aps.any():
        return None
    r2 = r2_cand * (1.0 - rng.random(n_aps.sum()))
    signal = np.repeat(np.tile(q_ul, size), counts.ravel()) * r2 ** (-0.5 * alpha)
    first_row = (np.cumsum(n_aps) - n_aps)[n_aps > 0]
    if independent_fields:
        return signal, None, None, first_row
    theta = 2.0 * math.pi * rng.random(len(r2))
    r = np.sqrt(r2)
    ap_x, ap_y = r * np.cos(theta), r * np.sin(theta)
    user_radius = window_radius(cfg.mu)
    user_mean = [mu_k * math.pi * user_radius**2 for mu_k, _ in tiers]
    user_counts = rng.poisson(user_mean, (len(first_row), cfg.n_tiers))
    total, top = np.empty(len(signal)), np.zeros((len(signal), m))
    bounds = np.append(first_row, len(signal)).tolist()
    for lo, hi, counts in zip(bounds, bounds[1:], user_counts.tolist()):
        q, (user_x, user_y) = _shared_users(rng, counts, q_ul, user_radius)
        # two AP x user buffers: x holds d^2, then the mean power Q d^-alpha,
        # then its negation as the cancellation key; p the y offsets, then
        # the fadings, then the faded powers
        x = np.subtract.outer(ap_x[lo:hi], user_x)
        x *= x
        p = np.subtract.outer(ap_y[lo:hi], user_y)
        p *= p
        x += p
        if alpha == 4.0:  # Q / d^4: one multiply and one divide, no pow
            x *= x
            np.divide(q, x, out=x)
        else:
            np.power(x, -0.5 * alpha, out=x)
            x *= q
        rng.standard_exponential(out=p)
        p *= x
        total[lo:hi] = p.sum(axis=1)
        if m:
            strongest = _top_m(p, np.negative(x, out=x), m)
            top[lo:hi, : strongest.shape[1]] = strongest
    return signal, total, top, first_row


def _shared_users(rng: np.random.Generator, counts, q_ul, radius: float):
    """One trial's interfering users, uniform in the disk of ``radius``:
    ``counts[k]`` users of UL power ``q_ul[k]`` for every tier k, tier by
    tier.  One ``rng.random((2, n))`` call draws all n of them, the squared
    radii as fractions of radius^2 and the angles as fractions of a turn.
    Return their UL powers and their (2, n) coordinates."""
    xy = rng.random((2, sum(counts)))
    r = radius * np.sqrt(xy[0])
    theta = 2.0 * math.pi * xy[1]
    np.multiply(r, np.cos(theta), out=xy[0])
    np.multiply(r, np.sin(theta), out=xy[1])
    return np.repeat(q_ul, counts), xy


def _max_sir_sums(
    cfg: NetworkConfig, etas, n_max: int, trials: int, seed: int, threads: int,
    independent_fields: bool,
) -> np.ndarray:
    """Sums and sums of squares over ``trials`` max-SIR trials of each
    trial's success probability, a (2, n_eta, n_max + 1) array over every
    threshold and budget N = 0..n_max.

    Each AP a decodes with probability P_a = exp(-eta R_{a,L_a} / S_a) over
    its link fading (:func:`_chain_exponent`), independently of the other
    APs, so a trial succeeds with probability 1 - prod_a (1 - P_a).  The
    candidate APs of a whole block are drawn at once, and the chain runs
    once per block on all their AP rows together (:func:`_max_sir_block`);
    a trial without a candidate AP contributes 0.  Every chain cancels in
    order of mean received power.  With independent fields P_a also
    averages over AP a's field, exactly: the user tiers map to one
    unit-power field of density mu_eq = sum_k mu_k Q_k^(2/alpha)
    (:func:`_nearest_users`), whole for ``n_max = 0`` (:func:`_far_field`
    from radius 0 at s = eta / S_a), else all but its nearest users, drawn
    after the candidate APs (:func:`_nearest_chain_success`)."""
    alpha = cfg.alpha
    mu_eq = sum(mu_k * q ** (2.0 / alpha) for mu_k, q in _interferer_tiers(cfg))

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        sums = np.zeros((2, len(etas), n_max + 1))
        rows = _max_sir_block(cfg, rng, size, independent_fields, n_max)
        if rows is None:
            return sums
        signal, total, top, first_row = rows
        if total is not None:
            cum = np.cumsum(top, axis=1)
        elif n_max:
            near = _nearest_users(rng, len(signal), mu_eq, n_max, alpha)
        for e_idx, eta in enumerate(etas):
            if total is not None:
                miss = -np.expm1(-_chain_exponent(signal, total, top, cum, eta, n_max))
            elif n_max:
                miss = 1.0 - _nearest_chain_success(*near, mu_eq, signal, eta, n_max, alpha)
            else:
                miss = -np.expm1(-_far_field(mu_eq, 0.0, eta / signal[:, None], alpha))
            # trials along the last axis, as the per-budget sums read them
            p = np.ascontiguousarray(1.0 - np.multiply.reduceat(miss, first_row).T)
            sums[:, e_idx] = _moments(p, 1)
        return sums

    return _run_blocks(trials, seed, block, threads)


def max_sir_success_curve_mc(
    cfg: NetworkConfig,
    etas,
    trials: int,
    seed: int,
    threads: int = 1,
    independent_fields: bool = False,
) -> list[Estimate]:
    """Success probability of the max-instantaneous-SIR policy without SIC,
    for every threshold at once.

    Per trial the typical user uplinks to every candidate AP, and each link
    has its own fading, so the trial succeeds with probability
    1 - prod_a (1 - exp(-eta I_a / S_a)) over the APs a.  By default all
    APs observe the same physical interfering-user field (through
    independent per-link fading); ``independent_fields=True`` instead gives
    every AP a field of its own, which is exactly the decoupling the closed
    form assumes, so it isolates implementation errors from model error.
    No decision reads those fields, so they are not drawn: each AP's
    exp(-eta I_a / S_a) is averaged over its field exactly, by the PPP's
    Laplace transform (:func:`_far_field` from radius 0), and only the
    candidate APs are sampled, a whole block's in one set of array draws
    (:func:`_max_sir_block`).  The trials are those of
    :func:`simulate_max_inst_sir` with N = 0.
    """
    etas = _check_etas(etas)
    sums = _max_sir_sums(cfg, etas, 0, trials, seed, threads, independent_fields)
    return _estimates(sums[:, :, 0], trials, seed).tolist()


def simulate_max_inst_sir(
    cfg: NetworkConfig,
    sic: SicConfig,
    trials: int,
    seed: int,
    threads: int = 1,
    independent_fields: bool = False,
) -> Estimate:
    """Max-instantaneous-SIR policy with SIC: the uplink succeeds if any
    candidate AP decodes the user after at most N cancellations, running
    the full event chain independently at each AP (:func:`_max_sir_sums`).
    Each AP cancels its interferers in order of mean received power, the
    users of all tiers ranked together, as the paper's chain does.
    ``independent_fields`` gives every AP its own interferer field (the
    closed form's decoupling) and truncates it at no window: for N >= 1 it
    draws the nearest users of every AP's equivalent unit-power field, a
    block's at once, and averages their fadings and the field beyond them
    exactly.  The default shares the physical field across APs, drawn in a
    window after the block's candidate APs: the user counts of the whole
    block at once, then each trial's users and link fadings
    (:func:`_max_sir_block`)."""
    sums = _max_sir_sums(
        cfg, [sic.eta_t], sic.n_max, trials, seed, threads, independent_fields
    )
    return _estimates(sums[:, 0, sic.n_max], trials, seed)


# ---------------------------------------------------------------------------
# Range expansion
# ---------------------------------------------------------------------------


def _rea_block(cfg: NetworkConfig, k: int, rng: np.random.Generator, size: int):
    """Draw ``size`` REA trials of tier k (see :func:`simulate_rea`) and
    return (serving, interference, lo2, draws, kept): the serving
    distances; the faded near-field interference, (3, trials), without
    cancellation, less the AP of highest unbiased mean power and less every
    AP whose unbiased mean power exceeds the serving AP's; the squared radii
    beyond which each tier's far field is left out, (2, trials, tiers); and
    the rejection sampler's draws and REA hits.

    Tier i's field beyond its nearest AP x_i is sampled out to the near
    window of x_i (:func:`_near_window2`).  Row 0 of ``lo2`` holds those
    windows, which bound the far field of the first two interference rows:
    the strongest AP is a nearest AP, never a far one.  Row 1 holds the
    larger of the window and the exclusion radius c_i, beyond which the far
    field of the annulus-cleared row starts."""
    e2 = 2.0 / cfg.alpha
    lam = np.array([t.lam for t in cfg.tiers])
    p_dl = np.array([t.p_dl for t in cfg.tiers])
    bias = np.array([t.bias for t in cfg.tiers])
    n_tiers = cfg.n_tiers

    # rejection sample nearest-distance tuples conditioned on REA_k
    kept = []
    n_kept = 0
    batches = 0
    total_draws = 0
    while n_kept < size and batches < 10_000:
        batch = max(4 * size, 1024)
        x2 = rng.exponential(1.0 / (math.pi * lam), size=(batch, n_tiers))
        unbiased = p_dl[None, :] * x2 ** (-0.5 * cfg.alpha)
        biased = bias[None, :] * unbiased
        is_rea = (np.argmax(biased, axis=1) == k) & (np.argmax(unbiased, axis=1) != k)
        kept.append(np.sqrt(x2[is_rea]))
        n_kept += int(is_rea.sum())
        total_draws += batch
        batches += 1
    dist = np.concatenate(kept)[:size]
    if len(dist) < size:
        raise DomainError(
            "REA rejection sampling starved; is the bias configuration sane?"
        )

    # interference per tier: the nearest AP (interferer for i != k) plus
    # the conditional PPP beyond the nearest, out to the near window
    x2 = dist**2
    # unbiased exclusion radii, P_i r^-a > P_k x_k^-a inside c_i (c_k = x_k)
    c2 = (p_dl / p_dl[k]) ** e2 * x2[:, k:k + 1]
    lo2 = _near_window2(lam, x2)
    i_total = np.zeros(size)
    removed = np.zeros(size)          # every unbiased-stronger AP
    strongest_unbiased = np.full(size, -math.inf)
    x_strong = np.zeros(size)
    for i in range(n_tiers):
        x_i = dist[:, i]
        powers, r2, _ = _radial_field(
            rng, size, lam[i], x_i, np.sqrt(lo2[:, i]), 1, cfg.alpha
        )
        powers *= p_dl[i]
        i_total += powers.sum(axis=1)
        if i != k:
            removed += np.where(r2 < c2[:, i, None], powers, 0.0).sum(axis=1)
            h_near = rng.exponential(size=size)
            contrib = p_dl[i] * h_near * x_i**-cfg.alpha
            i_total += contrib
            removed += np.where(x2[:, i] < c2[:, i], contrib, 0.0)
            mean_power = p_dl[i] * x_i**-cfg.alpha
            better = mean_power > strongest_unbiased
            strongest_unbiased = np.where(better, mean_power, strongest_unbiased)
            x_strong = np.where(better, contrib, x_strong)
    # residuals clipped at 0 against rounding
    interference = np.maximum(np.stack((i_total, i_total - x_strong, i_total - removed)), 0.0)
    lo2 = np.stack((lo2, np.maximum(lo2, c2)))
    return dist[:, k], interference, lo2, total_draws, n_kept


def simulate_rea(
    cfg: NetworkConfig,
    k: int,
    etas,
    trials: int,
    seed: int,
    threads: int = 1,
    cancel_mode: str = "strongest",
) -> ReaResult:
    """DL success for users in tier k's range-expanded area, without
    cancellation and with each of two cancellations, all three on the same
    trials.

    Trials are rejection-sampled on the per-tier nearest distances until
    the user lands in the REA: the biased winner is tier k while the
    unbiased winner is some other tier.  ``trials`` counts kept REA trials.
    Each trial contributes its success probability over the serving fading,
    exp(-eta I / S - far), for each interference row I of
    :func:`_rea_block`, far the exact factor (:func:`_far_field`) of every
    tier's field beyond that row's lower radius, at s = eta P_i / S.  No
    decision reads the far field, so the estimates carry no
    window-truncation bias.  The two cancellations are:
      strongest -- the one AP with the highest unbiased mean power (the
                   physical one-cancellation receiver); it is a nearest AP,
                   so the far field is the uncancelled one;
      annulus   -- every AP whose unbiased mean power exceeds the serving
                   AP's (the event the closed form models; it clears the
                   whole exclusion annulus, not just its strongest member),
                   so the far field starts beyond the exclusion radius too.
    ``annulus`` always holds the second; ``cancel_mode`` names the one
    that ``cancelled`` reports.
    """
    cfg.check_tier(k)
    if cancel_mode not in ("strongest", "annulus"):
        raise DomainError(f"cancel_mode must be strongest|annulus, got {cancel_mode}")
    if all(t.bias == 1.0 for t in cfg.tiers):
        raise DegenerateReaError("no tier carries a bias > 1; REA is empty")
    etas = np.array(_check_etas(etas))
    lam = np.array([t.lam for t in cfg.tiers])
    p_dl = np.array([t.p_dl for t in cfg.tiers])

    def block(rng: np.random.Generator, size: int):
        serving, interference, lo2, draws, kept = _rea_block(cfg, k, rng, size)
        signal = p_dl[k] * serving**-cfg.alpha
        s = np.multiply.outer(etas, p_dl / signal[:, None])[:, None]
        far = _far_field(lam, lo2, s, cfg.alpha).sum(axis=-1)
        # eta x (uncancelled, strongest, annulus) x trial
        x = np.multiply.outer(etas, interference / signal) + far[:, [0, 0, 1]]
        return _moments(np.exp(-x), 2), draws, kept

    sums, draws, kept = _run_blocks(trials, seed, block, threads)
    unc, strongest, annulus = (tuple(_estimates(sums[:, :, c], trials, seed)) for c in range(3))
    return ReaResult(
        uncancelled=unc,
        cancelled=annulus if cancel_mode == "annulus" else strongest,
        annulus=annulus,
        rea_fraction=kept / max(draws, 1),
    )
