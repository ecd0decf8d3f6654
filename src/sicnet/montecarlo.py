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

Windows: the SIC chains on fields of their own, ``ps_can_curve_mc`` and
``simulate_rea`` are window-free.  The faithful chain and the
independent-stage oracle of ``ps_sic_curve_mc``, the max-SIR runs with
independent fields and ``ps_can_curve_mc`` in distance order draw only
each receiver's nearest interferers and integrate out their fadings and
the field beyond exactly (:func:`_field_factor`).  ``simulate_rea``, whose
uncancelled, one-cancellation and annulus-cleared estimates share one set
of draws, draws the next ``_ARRIVALS`` APs of every tier beyond its
nearest one as Gamma arrivals and integrates out every fading and the
field beyond them in the same way.  ``ps_can_curve_mc`` in order of
faded power draws the faded powers themselves as the Gamma arrivals of
their power-domain PPP and adds the Campbell mean of those past the
``_FADING_ARRIVALS`` strongest.  Without SIC (N = 0) the max-SIR runs
with independent fields draw no field and take each AP's whole field
from the PPP's Laplace transform (:func:`_far_field`); the shared-field
ones draw the window's users and link fadings even then
(:func:`_max_sir_block`).  The other simulators decide cancellations on
the residual of a field that several decisions share, or decide loads
inside their window, so the factor would not be exact there, and they
truncate at a fixed disk, which drops a small share of the interference
and so reads success slightly high: the shared-field max-SIR runs at R_sim = 20
/ sqrt(pi mu) (:func:`window_radius`, about 400 expected users),
``simulate_min_load`` at its connectivity range plus a margin.  The
shared-field max-SIR runs draw a whole block's user counts at once, after
its candidate APs, then each trial's users of every tier in one draw
(:func:`_max_sir_block`).

Reproducibility contract: all sampling uses numpy's SFC64 generator.
Trials are grouped into fixed blocks of ``BLOCK_TRIALS``; block ``b`` draws
exclusively from ``SFC64(SeedSequence(seed, spawn_key=(b,)))`` and covers
trials [b * BLOCK_TRIALS, (b+1) * BLOCK_TRIALS).  Thread count
only changes how blocks are dispatched, never what they draw, so results
are bit-identical for any ``threads`` value.  :func:`_run_blocks` is the one
place that checks the trial budget, hands each block its stream and
dispatches the blocks; every simulator passes it a ``block(rng, size)``,
except the two chains of ``ps_sic_curve_mc`` and ``simulate_rea``, which
lay out their own blocks (:func:`_rqmc_sums`).

Estimators: the chain and policy simulators never draw the serving link's
Rayleigh fading h.  Given everything else in a trial, success is the event
h * S >= eta * I, whose probability is exp(-eta * I / S); each trial
contributes that conditional probability instead of a 0/1 outcome
(conditional Monte Carlo, Asmussen and Glynn, *Stochastic Simulation*,
2007, ch. V), whose variance is never larger.  Each block returns the sum
and the sum of squares of these values per grid point (:func:`_moments`),
and :func:`_run_blocks` adds the blocks' outputs in block order, so the
sums do not depend on scheduling.  The window-free chains average each
cancellation over the cancelled node's fading in the same way, and so
does ``ps_can_curve_mc`` in distance order.  Its order of faded power,
which draws the faded powers themselves, conditions instead on the
arrivals past the n-th: given those, the first n arrivals are the order
statistics of n uniforms below the (n+1)-th (Kingman, *Poisson
Processes*, 1993), so the n-th clears eta R_n with probability min(1,
p_{n+1} / (eta R_n))^(2n/alpha), and no estimator counts 0/1 outcomes.

Two simulators also subtract a control whose mean is known exactly
(Asmussen and Glynn, ch. V; Glasserman, *Monte Carlo Methods in
Financial Engineering*, 2004, sec. 4.1): each trial reports y - x + mu,
x a value of the trial's own draws and mu = E[x].  The max-SIR chain with
SIC (``simulate_max_inst_sir``, budgets N >= 1) takes for x the no-SIC
success of the trial's own candidate APs with independent fields
(:func:`_max_sir_sums`); ``simulate_rea``'s one-cancellation and
annulus rows take the trial's uncancelled success, whose mean is the
uncancelled REA closed form ``ps_ic_rea(etas, cfg, k, 0)``.  The
coefficient of x is fixed at 1, a difference estimator.  An estimated
one would need blocks of its own to avoid an O(1/n) bias, and on the
fig5 grid the best one (0.98-1.16) cuts the summed variance only 3.78
rather than 3.68 times with shared fields, 6.04 rather than 5.67 times
with independent ones.  At 1 every max-SIR budget N subtracts the same
x, so the estimates stay nondecreasing in N draw by draw.  The raw rows stay raw
-- max-SIR's N = 0 and REA's uncancelled row -- since they gate the
controls' own laws (criteria 6 and 7), so an error in mu shows there
rather than shifting the adjusted estimates unseen.

Both chains of ``ps_sic_curve_mc`` and ``simulate_rea`` are functions of
a fixed number of uniforms, so their trials are randomized quasi-Monte
Carlo points rather than iid draws (:func:`_rqmc_sums`): replicates of
Sobol' points, each copy under its own random linear scramble and
digital shift (Matousek, *J. Complexity*, 1998), with R - 1 degrees of
freedom (``Estimate.dof``).  At the bench's 2048 trials their variance
is a median 57 times (faithful chain) and 78 times (independent stages)
below that of iid uniforms on the fig3 grid, and 21-47 times on the fig6
grid (:func:`simulate_rea`), whose rows are discontinuous in the
uniforms.  Summed over each grid, the shifted Halton points that they
replaced had 3.4, 3.4 and 4.8 times this variance, and at least 2 times
at every grid point.  The points are built with numpy alone, since
``scipy.stats.qmc`` costs about 0.5 s to import in a fresh interpreter.
The other estimators stay iid, with ``dof`` None: the dimension of most
depends on its draws (field counts, candidate APs).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .analytic import ps_ic_rea
from .errors import DomainError
from .model import (
    NetworkConfig,
    SicConfig,
    _check_alpha,
    _interferer_tiers,
    _rea_weights,
    _require_count,
    _require_positive,
    _uplink_field,
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


def _run_blocks(trials: int, seed: int, block, threads: int = 1, parts=None):
    """Run ``block(rng, size)`` on each fixed block of ``trials``, block b
    with ``rng = _stream(seed, b)``, sequentially or on ``threads`` pool
    threads, and return the outputs added in block order (:func:`_add`),
    whatever the scheduling.  ``trials`` must be an integer >= 1.  A caller
    that lays out its own blocks passes ``parts``, one argument per block,
    and block b is called as ``block(rng, parts[b])``."""
    trials = _require_count("trials", trials, 1)
    if parts is None:
        parts = [min(BLOCK_TRIALS, trials - b) for b in range(0, trials, BLOCK_TRIALS)]

    def run(b: int):
        return block(_stream(seed, b), parts[b])

    if threads <= 1 or len(parts) == 1:
        return functools.reduce(_add, map(run, range(len(parts))))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return functools.reduce(_add, pool.map(run, range(len(parts))))


def _moments(p: np.ndarray, axis: int) -> np.ndarray:
    """The sums of ``p`` and of its squares over the trials ``axis``,
    stacked on a new first axis, as :func:`_estimates` reads them."""
    return np.stack((p.sum(axis=axis), (p * p).sum(axis=axis)))


@dataclass(frozen=True)
class Estimate:
    """Mean of per-trial samples (success probabilities, or the max-SIR
    chain's control-adjusted values, see the module docstring) with its
    standard error.  An adjusted sample y - x + mu may
    leave [0, 1], and so may the mean of a few of them; it is not clipped,
    since clipping would bias it.  ``dof`` is None for iid trials,
    whose standard error is the plug-in one over the trials; a randomized
    quasi-Monte Carlo estimate takes its standard error from the spread of
    its R independent replicate means, with ``dof`` = R - 1 degrees of
    freedom, so (mean - p) / stderr is read against Student's t with that
    many degrees of freedom."""

    mean: float
    stderr: float
    trials: int
    seed: int
    dof: int | None = None

    @classmethod
    def from_sums(
        cls, total: float, total_sq: float, trials: int, seed: int
    ) -> "Estimate":
        """From the sum and the sum of squares of ``trials`` samples: the
        plug-in variance E[X^2] - p^2, whose two terms scale with the
        samples, so samples much smaller than 1 keep their relative
        digits."""
        total, total_sq = float(total), float(total_sq)
        p = total / trials
        var = total_sq / trials - p * p
        return cls(
            mean=p,
            stderr=math.sqrt(max(var, 0.0) / trials),
            trials=trials,
            seed=seed,
        )


def _estimates(sums, trials: int, seed: int):
    """One :class:`Estimate` per grid point from ``sums``, the per-point sums
    and sums of squares stacked on the first axis: an object array of the
    grid's shape, or a single Estimate for a scalar grid point."""
    make = np.frompyfunc(lambda t, sq: Estimate.from_sums(t, sq, trials, seed), 2, 1)
    return make(sums[0], sums[1])


def _replicate_estimates(sums: np.ndarray, sizes: np.ndarray, seed: int):
    """One :class:`Estimate` per grid point from ``sums``, the per-point
    sums of R independent replicates stacked on the first axis, replicate r
    of ``sizes[r]`` trials: the mean over all trials, the replicates added
    in order, and the size-weighted standard error of the replicate means
    m_r, sqrt(sum_r n_r (m_r - mean)^2 / ((R - 1) trials)), which for equal
    sizes is their sample standard deviation over sqrt(R)."""
    trials, dof = int(sizes.sum()), len(sizes) - 1
    n = sizes.reshape((-1,) + (1,) * (sums.ndim - 1))
    mean = sums.sum(axis=0) / trials
    var = (n * (sums / n - mean) ** 2).sum(axis=0) / (dof * trials)
    make = np.frompyfunc(
        lambda m, v: Estimate(float(m), math.sqrt(v), trials, seed, dof), 2, 1
    )
    return make(mean, var)


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
    ``cancel_mode`` names, and with the whole exclusion annulus cleared.
    Each trial contributes its success probability over every fading and
    the field beyond its drawn APs, the two cancelled rows adjusted by the
    uncancelled one (:func:`simulate_rea`); ``raw`` holds their means and
    standard errors before that adjustment, as plain floats, from the same
    replicates.  The trials are randomized quasi-Monte Carlo points, so
    every standard error comes from the spread of 32 replicate means, with
    ``dof`` 31; at 2048 trials on the fig6 grid their variance is 4.7-148
    times (median 21-47 by row) below that of iid trials.  Every trial is
    drawn inside the REA, so the share of users there is no estimate: it
    is ``model.rea_association_prob``."""

    uncancelled: tuple[Estimate, ...]
    cancelled: tuple[Estimate, ...]
    annulus: tuple[Estimate, ...]
    # the unadjusted strongest and annulus rows: {row: {"mean": [...],
    # "stderr": [...]}}, one float per threshold
    raw: dict


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


def _serving_block(e: np.ndarray, lambda_eq: float, alpha: float) -> np.ndarray:
    """Mean received power u^-alpha of the signal of interest from unit
    exponentials ``e``, one per trial: pi lambda_eq u^2 ~ Exp(1) is the
    nearest-AP law of the serving distance u.  Its fading is never drawn.
    ``e`` scales as ``rng.exponential`` scales its standard exponentials, so
    ``rng.standard_exponential(size)`` gives the draws of
    ``rng.exponential(1 / (pi lambda_eq), size)``."""
    return (e * (1.0 / (math.pi * lambda_eq))) ** (-0.5 * alpha)


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


def _nearest_users(e: np.ndarray, density: float, alpha: float):
    """The nearest users of independent unit-power PPP fields of
    ``density``, one field per row of the unit exponentials ``e``,
    max(n_max, ``_NEAREST_USERS``) columns for budgets up to n_max (a first
    column offset by pi density r_in^2 gives the users beyond r_in): pi
    density r_k^2 is the sum of the row's first k (Haenggi, *Stochastic
    Geometry for Wireless Networks*, 2012, ch. 2).  Return their mean
    powers x[:, k-1] = r_k^-alpha and the squared radius r_far^2 of the
    farthest.  Tiers of UL powers Q_k map to one such field of density
    sum_k mu_k Q_k^(2/alpha) (mapping theorem, ibid.), its users in order
    of mean received power."""
    r2 = np.cumsum(e, axis=1)
    r2 /= math.pi * density
    return r2 ** (-0.5 * alpha), r2[:, -1]


def _field_factor(x, r2_far, density, c, alpha: float) -> np.ndarray:
    """E[exp(-c R)] for each row's field R: the users of mean powers ``x``
    with unit-mean exponential fadings, prod_j (1 + c x_j)^-1, times the
    field of ``density`` beyond r_far (:func:`_far_field`)."""
    far = _far_field(density, r2_far, c, alpha)
    return np.exp(-(np.log1p(c[:, None] * x).sum(axis=1) + far))


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
    times :func:`_far_field` beyond r_far (:func:`_field_factor`).  Stage k cancels
    with probability exp(-a_k R_k), a_k = eta / x_k, and decodes with
    exp(-g R_k), g = eta / S.  With W_k and beta_k from
    :func:`_cancel_weights`, where stages 1..k all cancel, E[exp(-g R_k)] =
    W_k Phi_k(beta_k + g) and E[exp(-g R_{k-1})] = W_{k-1} Phi_k((1 + b
    x_k) a_k + b) / (1 + b x_k), b = beta_{k-1} + g.  P_N is Phi_0(g) plus
    their differences for k <= N, as a running maximum."""

    def phi(k: int, c: np.ndarray) -> np.ndarray:
        return _field_factor(x[:, k:], r2_far, density, c, alpha)

    g = eta / signal
    weights = list(_cancel_weights(x, eta, n_max))
    p = [phi(0, g)]
    for k in range(1, n_max + 1):
        (w_prev, beta_prev), (w, beta) = weights[k - 1], weights[k]
        x_k, a_k, b = x[:, k - 1], eta / x[:, k - 1], beta_prev + g
        before = w_prev / (1.0 + b * x_k) * phi(k, (1.0 + b * x_k) * a_k + b)
        p.append(p[-1] + w * phi(k, beta + g) - before)
    return np.clip(np.maximum.accumulate(np.column_stack(p), axis=1), 0.0, 1.0)


def _cancel_weights(x, eta: float, n_max: int):
    """Yield (W_k, beta_k) for k = 0..n_max, the cancellation recursion of
    :func:`_nearest_chain_success` over the users of mean powers ``x``:
    from W_0 = 1 and beta_0 = 0, W_k = W_{k-1} / (1 + beta_{k-1} x_k) and
    beta_k = beta_{k-1} + a_k (1 + beta_{k-1} x_k), a_k = eta / x_k.
    Stages 1..k all cancel with probability W_k Phi_k(beta_k), exact over
    every fading."""
    w, beta = np.ones(len(x)), np.zeros(len(x))
    yield w, beta
    for k in range(n_max):
        x_k = x[:, k]
        w, beta = w / (1.0 + beta * x_k), beta + eta / x_k * (1.0 + beta * x_k)
        yield w, beta


# The randomized quasi-Monte Carlo layout of every RQMC estimator: at most
# this many replicates, each an independently scrambled copy of one Sobol'
# point set.
_REPLICATES = 32

# Uniforms are kept in [this, 1 - this], so that no exponential is 0 or inf.
_UNIFORM_EDGE = 2.0**-53

# The binary digits of a Sobol' point, all exact in a float.
_SOBOL_BITS = 52

# Joe and Kuo's direction numbers (*SIAM J. Sci. Comput.*, 2008), the table
# that scipy.stats.qmc.Sobol reads, for the first 128 coordinates, as
# "poly:m_1,...,m_s" per coordinate: its primitive polynomial as an
# integer, leading and constant terms included, and its initial m_1..m_s.
# Coordinate 0 is van der Corput's.  A string, parsed once at import, costs
# less to compile than the literal tuples.  The widest layout in use is REA's window check, 2 tiers of 50
# arrivals in 103 coordinates; the presets read at most 9.
_SOBOL_TABLE = tuple(
    (int(poly), tuple(int(m) for m in init.split(",")))
    for poly, init in (entry.split(":") for entry in """
    1:1 3:1 7:1,3 11:1,3,1 13:1,1,1 19:1,1,3,3 25:1,3,5,13 37:1,1,5,5,17 41:1,1,5,5,5
    47:1,1,7,11,19 55:1,1,5,1,1 59:1,1,1,3,11 61:1,3,5,5,31 67:1,3,3,9,7,49
    91:1,1,1,15,21,21 97:1,3,1,13,27,49 103:1,1,1,15,7,5 109:1,3,1,15,13,25
    115:1,1,5,5,19,61 131:1,3,7,11,23,15,103 137:1,3,7,13,13,15,69 143:1,1,3,13,7,35,63
    145:1,3,5,9,1,25,53 157:1,3,1,13,9,35,107 167:1,3,1,5,27,61,31 171:1,1,5,11,19,41,61
    185:1,3,5,3,3,13,69 191:1,1,7,13,1,19,1 193:1,3,7,5,13,19,59 203:1,1,3,9,25,29,41
    211:1,3,5,13,23,1,55 213:1,3,7,3,13,59,17 229:1,3,1,3,5,53,69 239:1,1,5,5,23,33,13
    241:1,1,7,7,1,61,123 247:1,1,7,9,13,61,49 253:1,3,3,5,3,55,33
    285:1,3,1,15,31,13,49,245 299:1,3,5,15,31,59,63,97 301:1,3,1,11,11,11,77,249
    333:1,3,1,11,27,43,71,9 351:1,1,7,15,21,11,81,45 355:1,3,7,3,25,31,65,79
    357:1,3,1,1,19,11,3,205 361:1,1,5,9,19,21,29,157 369:1,3,7,11,1,33,89,185
    391:1,3,3,3,15,9,79,71 397:1,3,7,11,15,39,119,27 425:1,1,3,1,11,31,97,225
    451:1,1,1,3,23,43,57,177 463:1,3,7,7,17,17,37,71 487:1,3,1,5,27,63,123,213
    501:1,1,3,5,11,43,53,133 529:1,3,5,5,29,17,47,173,479 539:1,3,3,11,3,1,109,9,69
    545:1,1,1,5,17,39,23,5,343 557:1,3,1,5,25,15,31,103,499
    563:1,1,1,11,11,17,63,105,183 601:1,1,5,11,9,29,97,231,363
    607:1,1,5,15,19,45,41,7,383 617:1,3,7,7,31,19,83,137,221
    623:1,1,1,3,23,15,111,223,83 631:1,1,5,13,31,15,55,25,161
    637:1,1,3,13,25,47,39,87,257 647:1,1,1,11,21,53,125,249,293
    661:1,1,7,11,11,7,57,79,323 675:1,1,5,5,17,13,81,3,131 677:1,1,7,13,23,7,65,251,475
    687:1,3,5,1,9,43,3,149,11 695:1,1,3,13,31,13,13,255,487 701:1,3,3,1,5,63,89,91,127
    719:1,1,3,3,1,19,123,127,237 721:1,1,5,7,23,31,37,243,289
    731:1,1,5,11,17,53,117,183,491 757:1,1,1,5,1,13,13,209,345
    761:1,1,3,15,1,57,115,7,33 787:1,3,1,11,7,43,81,207,175 789:1,3,1,1,15,27,63,255,49
    799:1,3,5,3,27,61,105,171,305 803:1,1,5,3,1,3,57,249,149 817:1,1,3,5,5,57,15,13,159
    827:1,1,1,11,7,11,105,141,225 847:1,3,3,5,27,59,121,101,271
    859:1,3,5,9,11,49,51,59,115 865:1,1,7,1,23,45,125,71,419 875:1,1,3,5,23,5,105,109,75
    877:1,1,7,15,7,11,67,121,453 883:1,3,7,3,9,13,31,27,449 895:1,3,1,15,19,39,39,89,15
    901:1,1,1,1,1,33,73,145,379 911:1,3,1,15,15,43,29,13,483
    949:1,1,7,3,19,27,85,131,431 953:1,3,3,3,5,35,23,195,349 967:1,3,3,7,9,27,39,59,297
    971:1,1,3,9,11,17,13,241,157 973:1,3,7,15,25,57,33,189,213
    981:1,1,7,1,9,55,73,83,217 985:1,3,3,13,19,27,23,113,249 995:1,3,5,3,23,43,3,253,479
    1001:1,1,5,5,11,5,45,117,217 1019:1,3,3,7,29,37,33,123,147
    1033:1,3,1,15,5,5,37,227,223,459 1051:1,1,7,5,5,39,63,255,135,487
    1063:1,3,1,7,9,7,87,249,217,599 1069:1,1,3,13,9,47,7,225,363,247
    1125:1,3,7,13,19,13,9,67,9,737 1135:1,3,5,5,19,59,7,41,319,677
    1153:1,1,5,3,31,63,15,43,207,789 1163:1,1,7,9,13,39,3,47,497,169
    1221:1,3,1,7,21,17,97,19,415,905 1239:1,3,7,1,3,31,71,111,165,127
    1255:1,1,5,11,1,61,83,119,203,847 1267:1,3,3,13,9,61,19,97,47,35
    1279:1,1,7,7,15,29,63,95,417,469 1293:1,3,1,9,25,9,71,57,213,385
    1305:1,3,5,13,31,47,101,57,39,341 1315:1,1,3,3,31,57,125,173,365,551
    1329:1,3,7,1,13,57,67,157,451,707 1341:1,1,1,7,21,13,105,89,429,965
    1347:1,1,5,9,17,51,45,119,157,141 1367:1,3,7,7,13,45,91,9,129,741
    1387:1,3,7,1,23,57,67,141,151,571 1413:1,1,3,11,17,47,93,107,375,157
    1423:1,3,3,5,11,21,43,51,169,915 1431:1,1,5,3,15,55,101,67,455,625
    1441:1,3,5,9,1,23,29,47,345,595 1479:1,3,7,7,5,49,29,155,323,589
    1509:1,3,3,7,5,41,127,61,261,717
""".split())
)


@functools.lru_cache(maxsize=None)
def _sobol_directions(dim: int, bits: int) -> np.ndarray:
    """The first ``bits`` direction numbers of the first ``dim`` Sobol'
    coordinates, a read-only (dim, bits) array of 52-bit integers: entry k
    - 1 is m_k 2^(52 - k), the k-th column of the coordinate's generator
    matrix, most significant digit first.  Past the table's initial values,
    the polynomial x^s + a_1 x^(s-1) + ... + a_(s-1) x + 1 gives m_k = 2
    a_1 m_(k-1) ^ 4 a_2 m_(k-2) ^ ... ^ 2^s m_(k-s) ^ m_(k-s), ^ the
    bitwise XOR (Joe and Kuo, 2008); coordinate 0 has every m_k = 1."""
    table = np.empty((dim, bits), dtype=np.uint64)
    for d, (poly, init) in enumerate(_SOBOL_TABLE[:dim]):
        s, m = poly.bit_length() - 1, list(init)
        while len(m) < bits:
            new = m[-s] ^ (m[-s] << s) if s else 1
            for j in range(1, s):
                if poly >> (s - j) & 1:
                    new ^= m[-j] << j
            m.append(new)
        table[d] = [m_k << (_SOBOL_BITS - k) for k, m_k in enumerate(m[:bits], 1)]
    table.flags.writeable = False
    return table


def _scramble(directions: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Direction numbers of independent copies of a Sobol' set under
    linear matrix scrambling (Matousek, *J. Complexity*, 1998): each copy's
    generator matrices multiplied over GF(2) on the left by a random
    lower-triangular binary matrix with unit diagonal, one per coordinate.
    ``directions`` is (dim, bits) (:func:`_sobol_directions`) and
    ``draws`` (..., dim, bits) 52-bit integers: column l of a copy's
    matrix is the digit 2^(52 - l) on its diagonal plus ``draws[..., l -
    1] >> l`` below it.  Direction number k has no digit below position k,
    so it meets only columns 1..k: its image is the XOR of the columns l
    at which its digit is 1.  Returns the copies' direction numbers, the
    shape of ``draws``."""
    bits = directions.shape[1]
    depth = np.arange(1, bits + 1, dtype=np.uint64)
    columns = (draws >> depth) | (np.uint64(1) << (_SOBOL_BITS - depth))
    out = np.zeros(draws.shape, dtype=np.uint64)
    for l in range(bits):
        digit = (directions >> np.uint64(_SOBOL_BITS - 1 - l)) & np.uint64(1)
        out ^= columns[..., l, None] * digit
    return out


def _sobol(lo: int, hi: int, directions: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Points lo..hi-1 of base-2 digital sequences in natural index order,
    an (..., hi - lo, dim) array in [0, 1): point i of a copy is its
    digital ``shift`` (..., dim) XOR the copy's ``directions`` (..., dim,
    bits) at every set bit of i, over 2^52.  ``lo`` is a multiple of 2^t,
    the least power of 2 >= hi - lo, as every chunk of :func:`_rqmc_sums`
    is, so point lo + j is point lo XOR the directions at the set bits of
    j < 2^t: the points are built from point lo by doubling, point j + 2^k
    being point j XOR direction k."""
    lo, hi = int(lo), int(hi)
    t = (hi - lo - 1).bit_length()
    # built with the indices along the last axis, then written transposed
    table = np.empty(shift.shape + (1 << t,), dtype=np.uint64)
    table[..., 0] = shift
    for k in range(t, directions.shape[-1]):
        if lo >> k & 1:
            table[..., 0] ^= directions[..., k]
    for k in range(t):
        np.bitwise_xor(
            table[..., : 1 << k], directions[..., k, None], out=table[..., 1 << k : 2 << k]
        )
    out = np.empty(shift.shape[:-1] + (hi - lo, shift.shape[-1]))
    np.multiply(table[..., : hi - lo], 2.0**-_SOBOL_BITS, out=np.swapaxes(out, -1, -2))
    return out


def _rqmc_sums(trials: int, seed: int, shape: tuple, threads: int, integrand):
    """Replicate sums of ``integrand`` over randomized quasi-Monte Carlo
    points, and the replicate sizes.  The ``trials`` >= 2 split into R =
    min(``_REPLICATES``, trials) replicates of near-equal size, the larger
    first.  Replicate r takes the first n_r points of its own copies of the
    Sobol' sequence (:func:`_sobol`), one copy per row of ``shape[:-1]``
    and per coordinate, each under its own linear matrix scramble
    (:func:`_scramble`) and digital shift.  Every bit of them comes from
    one draw, made before any block runs, ``_stream(seed, 0).integers(0,
    2**52, (R, *shape, 53), dtype=np.uint64)``: per copy, entries 0..51
    give the columns 1..52 of its scrambling matrix, of which the first B =
    bit length of n_1 - 1 are read, and entry 52 its shift.  A layout of
    more coordinates than :data:`_SOBOL_TABLE` holds, 128, raises
    :class:`DomainError` before any stream is opened.  The replicates run
    through :func:`_run_blocks` side by side, in chunks of the same
    BLOCK_TRIALS // R indices of each, so memory does not grow with the
    budget.  A chunk returns ``integrand(u, kept)``, every replicate's sums
    over its uniforms u, an (R, *shape[:-1], n, shape[-1]) array in [2^-53,
    1 - 2^-53], where the (R, n) mask ``kept`` drops the last chunk's
    padding of the smaller replicates.  The chunks add in order, whatever
    ``threads``."""
    dim = shape[-1]
    if dim > len(_SOBOL_TABLE):
        raise DomainError(
            f"a randomized quasi-Monte Carlo layout has at most {len(_SOBOL_TABLE)} "
            f"coordinates, got {dim}"
        )
    replicates = min(_REPLICATES, trials)
    sizes = np.full(replicates, trials // replicates)
    sizes[: trials % replicates] += 1
    bits = int(sizes[0] - 1).bit_length()
    draws = _stream(seed, 0).integers(
        0, 1 << _SOBOL_BITS, (replicates, *shape, _SOBOL_BITS + 1), dtype=np.uint64
    )
    directions = _scramble(_sobol_directions(dim, bits), draws[..., :bits])
    shift = draws[..., _SOBOL_BITS]
    step = BLOCK_TRIALS // replicates

    def block(_, lo: int) -> np.ndarray:
        hi = min(lo + step, sizes[0])
        u = _sobol(lo, hi, directions, shift)
        np.clip(u, _UNIFORM_EDGE, 1.0 - _UNIFORM_EDGE, out=u)
        return integrand(u, np.arange(lo, hi) < sizes[:, None])

    return _run_blocks(trials, seed, block, threads, parts=range(0, sizes[0], step)), sizes


def _rqmc_chain(
    lambda_eq: float, mu_j: float, alpha: float, etas, n_max: int, trials: int, seed: int,
    threads: int,
):
    """The faithful chain of :func:`ps_sic_curve_mc` on randomized
    quasi-Monte Carlo points (:func:`_rqmc_sums`) in dimension 1 +
    max(n_max, ``_NEAREST_USERS``).  Each uniform u maps to the unit
    exponential -log(u): column 0 gives the serving distance
    (:func:`_serving_block`), the others the nearest interferers."""
    dim = 1 + max(n_max, _NEAREST_USERS)

    def integrand(u: np.ndarray, kept: np.ndarray) -> np.ndarray:
        replicates, points = kept.shape
        e = -np.log(u).reshape(-1, dim)
        s0 = _serving_block(e[:, 0], lambda_eq, alpha)
        near = _nearest_users(e[:, 1:], mu_j, alpha)
        del e  # the chain reads s0 and near only
        sums = np.zeros((replicates, len(etas), n_max + 1))
        for e_idx, eta in enumerate(etas):
            p = _nearest_chain_success(*near, mu_j, s0, eta, n_max, alpha)
            sums[:, e_idx] = np.where(kept[:, :, None], p.reshape(replicates, points, -1), 0.0).sum(axis=1)
        return sums

    return _replicate_estimates(*_rqmc_sums(trials, seed, (dim,), threads, integrand), seed)


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


# The independent-stage oracle and the REA simulator draw this many arrivals
# of each field beyond its inner radius; the field beyond them enters exactly.
_ARRIVALS = 1


def _stage_scenes(u: np.ndarray, lambda_eq: float, mu_j: float, n_max: int, alpha: float):
    """The scenes of the independent-stage chain from uniforms ``u`` of
    shape (..., 2 n_max + 1, points, 1 + K), K = ``_ARRIVALS``: the
    decodes n = 0..n_max, then the cancellations n = 1..n_max.  The unit
    exponentials -log(u_k) give the K nearest interferers beyond the
    stage's inner radius, pi mu_j r_k^2 = L + the sum of the first k
    (:func:`_nearest_users`; Haenggi, *Stochastic Geometry for Wireless
    Networks*, 2012, ch. 2), and u_0 the stage's signal:

    - decode n: L = n (the cancellation radius R_{I,n}), and the serving
      distance from -log(u_0) (:func:`_serving_block`), which fails
      outright inside R_{I,n} (no renormalization);
    - cancel n: the cancelled node at L = pi mu_j r_n^2 ~ Gamma(n), by
      inversion, ``gammaincinv(n, u_0)``.

    Returns the interferers' mean powers and the squared radius of the
    farthest, one row per point in the layout of ``u``, and each point's
    signal and whether it lies inside R_{I,n}, flat."""
    decodes = n_max + 1
    lead = np.empty(u.shape[:-1])
    lead[..., :decodes, :] = np.arange(decodes)[:, None]
    lead[..., decodes:, :] = gammaincinv(np.arange(1, decodes)[:, None], u[..., decodes:, :, 0])
    e = -np.log(u)
    served = e[..., :decodes, :, 0]
    inside = np.zeros(lead.shape, dtype=bool)
    inside[..., :decodes, :] = served < lead[..., :decodes, :] * (lambda_eq / mu_j)
    signal = np.empty(lead.shape)
    signal[..., :decodes, :] = _serving_block(served, lambda_eq, alpha)
    signal[..., decodes:, :] = _serving_block(lead[..., decodes:, :], mu_j, alpha)
    e[..., 1] += lead
    x, r2_far = _nearest_users(e[..., 1:].reshape(-1, u.shape[-1] - 1), mu_j, alpha)
    return x, r2_far, signal.ravel(), inside.ravel()


def _stage_success(scenes, eta: float, mu_j: float, alpha: float) -> np.ndarray:
    """Each stage point's success probability at threshold ``eta`` given its
    scene (:func:`_stage_scenes`), exact over every fading and the field:
    :func:`_field_factor` at c = eta / signal, and 0 inside R_{I,n}."""
    x, r2_far, signal, inside = scenes
    return np.where(inside, 0.0, _field_factor(x, r2_far, mu_j, eta / signal, alpha))


def _rqmc_stages(
    lambda_eq: float, mu_j: float, alpha: float, etas, n_max: int, trials: int, seed: int,
    threads: int,
):
    """The independent-stage chain of :func:`ps_sic_curve_mc` on randomized
    quasi-Monte Carlo points.  Each of its 2 n_max + 1 stages is its own
    integral over 1 + ``_ARRIVALS`` uniforms (:func:`_stage_scenes`),
    with its own scrambled and shifted copies of the points in every
    replicate (:func:`_rqmc_sums`).  The stage means of a replicate are
    then independent, so the chain success of those means
    (:func:`_stage_chain_success`), multilinear in them, is unbiased; the R
    replicate values give the estimate and its standard error."""
    stages = 2 * n_max + 1

    def integrand(u: np.ndarray, kept: np.ndarray) -> np.ndarray:
        scenes = _stage_scenes(u, lambda_eq, mu_j, n_max, alpha)
        sums = np.zeros((len(kept), len(etas), stages))
        for e_idx, eta in enumerate(etas):
            p = _stage_success(scenes, eta, mu_j, alpha).reshape(u.shape[:-1])
            sums[:, e_idx] = np.where(kept[:, None], p, 0.0).sum(axis=2)
        return sums

    sums, sizes = _rqmc_sums(trials, seed, (stages, 1 + _ARRIVALS), threads, integrand)
    means = (sums / sizes[:, None, None]).reshape(-1, stages)
    p = _stage_chain_success(1.0 - means[:, : n_max + 1], means[:, n_max + 1 :])
    p = p.reshape(len(sizes), len(etas), -1)
    return _replicate_estimates(p * sizes[:, None, None], sizes, seed)


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
    """Event-chain success estimates for every (eta, N <= n_max) pair, an
    (n_eta, n_max+1) array of :class:`Estimate`.

    Stage n cancels the n-th nearest interferer, the one of n-th largest
    mean received power, as the paper's chain does, when it decodes against
    the residual.  Each trial draws the serving distance and the nearest
    interferers (:func:`_nearest_users`, one tier) and contributes its
    success probability over every fading and the field beyond them
    (:func:`_nearest_chain_success`) to every threshold and budget.

    ``independent_stages=True`` draws each decode and each cancellation of
    the chain from its own scene and cancels at the deterministic radius
    R_{I,n} (:func:`_rqmc_stages`).  That is exactly the decoupling the
    closed-form chain assumes, so it isolates implementation errors from
    model error, as ``independent_fields=True`` does in
    :func:`max_sir_success_curve_mc`.

    Both chains run on randomized quasi-Monte Carlo points, R = min(32,
    trials) replicates of scrambled Sobol' points (:func:`_rqmc_sums`;
    Owen, *J. Complexity*, 1998): the estimate is the mean over all
    trials, and its standard error comes from the spread of the R
    replicate values, with R - 1 degrees of freedom (``Estimate.dof``).
    ``trials`` must be >= 2.
    """
    _require_positive("lambda_eq", lambda_eq)
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)
    n_max = _require_count("n_max", n_max)
    etas = _check_etas(etas)
    trials = _require_count("trials", trials, 2)
    chain = _rqmc_stages if independent_stages else _rqmc_chain
    return chain(lambda_eq, mu_j, alpha, etas, n_max, trials, seed, threads)


# fig2's fading order draws this many power-domain arrivals past its
# n_orders strongest and adds the mean of the rest.
_FADING_ARRIVALS = 50

# The memory cap: a block of fig2 draws BLOCK_TRIALS x (n_orders +
# _FADING_ARRIVALS) exponentials, and more than this many, 32 MiB of
# floats, raise DomainError before any stream is opened.
_MAX_BLOCK_DRAWS = 1 << 22


def ps_can_curve_mc(
    mu_j: float,
    alpha: float,
    etas,
    n_orders: int,
    trials: int,
    seed: int,
    threads: int = 1,
):
    """Cancellation-success estimates for n = 1..n_orders and each eta, in
    order of distance and in order of faded power, each on fields of its
    own.

    Two estimators per grid point:
      direct         -- the n-th node in the order decodes against the
                        residual field once nodes 1..n are removed (the
                        deconditioned quantity the closed form integrates),
                        in both orders;
      chain_survival -- stages 1..n all decode (the event-chain population
                        after n cancels), in distance order only.

    Distance order draws each trial's n_orders nearest interferers
    (:func:`_nearest_users`) and is exact over every fading and the field
    beyond them: direct is :func:`_field_factor` of the users past the
    n-th at c = eta / x_n, and chain_survival is W_n times that factor at
    c = beta_n (:func:`_cancel_weights`).  Both are conditional
    probabilities of the same draws, so chain_survival <= direct draw by
    draw, with equality at n = 1.

    Fading order draws the faded powers themselves: by the mapping
    theorem, those of a PPP of density mu_j are the mean powers of a PPP of
    density mu' = mu_j Gamma(1 + 2/alpha) (Haenggi, *Stochastic Geometry
    for Wireless Networks*, 2012, ch. 2 and 5).  The n_orders +
    ``_FADING_ARRIVALS`` strongest are drawn as Gamma arrivals, the rest
    enter through their Campbell mean pi mu' r_last^(2-alpha) / (alpha/2 -
    1), and R_n is the sum of the powers past the n-th.  Given the
    arrivals Gamma_{n+1}, Gamma_{n+2}, ..., the first n are the order
    statistics of n uniforms on (0, Gamma_{n+1}) (Kingman, *Poisson
    Processes*, 1993), and R_n reads none of them.  So each trial reports
    P(p_n >= eta R_n | the rest) = min(1, p_{n+1} / (eta R_n))^(2n/alpha)
    in place of the 0/1 outcome, whose variance is never smaller; at eta
    >= 1, where p_{n+1} <= R_n keeps the min from binding, every value
    scales as eta^(-2n/alpha).

    Returns ``{ordering: {estimator: Estimates}}``, each an object array of
    shape (n_eta, n_orders).
    """
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)
    n_orders = _require_count("n_orders", n_orders, 1)
    etas = _check_etas(etas)
    cols = n_orders + _FADING_ARRIVALS
    if BLOCK_TRIALS * cols > _MAX_BLOCK_DRAWS:
        raise DomainError(
            f"a block of {BLOCK_TRIALS} x {cols} draws exceeds the cap of {_MAX_BLOCK_DRAWS}"
        )
    fade_density = mu_j * math.gamma(1.0 + 2.0 / alpha)
    order_exponent = np.arange(1, n_orders + 1) * (2.0 / alpha)

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        x, r2_far = _nearest_users(rng.standard_exponential((size, n_orders)), mu_j, alpha)
        powers, r2_last = _nearest_users(rng.standard_exponential((size, cols)), fade_density, alpha)
        tail = math.pi * fade_density * r2_last ** (1.0 - 0.5 * alpha) / (0.5 * alpha - 1.0)
        # R_n summed from the weakest power up: the total minus a prefix
        # sum would lose R_n's digits where p_1 dwarfs it
        residual = np.cumsum(np.column_stack((tail, powers[:, :0:-1])), axis=1)[:, ::-1]
        # P(p_n >= eta R_n | the arrivals past the n-th), n = 1..n_orders, is
        # min(1, its value at eta = 1 times eta^(-2n/alpha)), since x^(2n/alpha)
        # is increasing: one power per block
        at_one = (powers[:, 1 : n_orders + 1] / residual[:, :n_orders]) ** order_exponent
        # (direct by distance, chain survival, direct by fading) x trial x n
        p = np.empty((3, size, n_orders))
        sums = np.empty((2, 3, len(etas), n_orders))
        for e_idx, eta in enumerate(etas):
            weights = _cancel_weights(x, eta, n_orders)
            next(weights)  # k = 0: nothing cancelled
            for n, (w, beta) in enumerate(weights, 1):
                p[0, :, n - 1] = _field_factor(x[:, n:], r2_far, mu_j, eta / x[:, n - 1], alpha)
                p[1, :, n - 1] = w * _field_factor(x[:, n:], r2_far, mu_j, beta, alpha)
            np.minimum(at_one * eta**-order_exponent, 1.0, out=p[2])
            sums[:, :, e_idx] = _moments(p, 1)
        return sums

    sums = _run_blocks(trials, seed, block, threads)
    dist, survivors, fade = (_estimates(sums[:, i], trials, seed) for i in range(3))
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


def _no_sic_disk_law(cfg: NetworkConfig, mu_eq: float, eta: float) -> float:
    """Exact mean of the no-SIC control of :func:`_max_sir_sums`: the
    success 1 - prod_a (1 - exp(-a_k r_a^2)) of the candidate APs in the
    disk of radius R = ``_CAND_RADIUS``, AP a of tier k at distance r_a
    with a field of its own averaged out, a_k r_a^2 = :func:`_far_field`
    of the equivalent density ``mu_eq`` from radius 0 at s = eta / (Q_k
    r_a^-alpha).  By the PGFL of each tier's Poisson AP process (Haenggi,
    *Stochastic Geometry for Wireless Networks*, 2012, ch. 4) it is

        1 - exp(-pi sum_k lam_k (1 - exp(-a_k R^2)) / a_k),

    which tends to 1 - ``outage_max_inst_sir`` as R grows."""
    q = np.array([t.q_ul for t in cfg.tiers])
    lam = np.array([t.lam for t in cfg.tiers])
    a = _far_field(mu_eq, 0.0, eta / q, cfg.alpha)
    mass = lam * -np.expm1(-a * (_CAND_RADIUS * _CAND_RADIUS)) / a
    return -math.expm1(-math.pi * float(mass.sum()))


def _max_sir_sums(
    cfg: NetworkConfig, etas, n_max: int, trials: int, seed: int, threads: int,
    independent_fields: bool,
) -> np.ndarray:
    """Sums and sums of squares over ``trials`` max-SIR trials of each
    trial's success probability, a (2, n_eta, n_max + 1) array over every
    threshold and budget N = 0..n_max; for N >= 1, of each trial's success
    adjusted by an exact control.

    Each AP a decodes with probability P_a = exp(-eta R_{a,L_a} / S_a) over
    its link fading (:func:`_chain_exponent`), independently of the other
    APs, so a trial succeeds with probability y = 1 - prod_a (1 - P_a).
    The candidate APs of a whole block are drawn at once, and the chain
    runs once per block on all their AP rows together
    (:func:`_max_sir_block`); a trial without a candidate AP has y = 0.
    Every chain cancels in order of mean received power.  With independent
    fields P_a also averages over AP a's field, exactly: the user tiers map
    to one unit-power field of density mu_eq = sum_k mu_k Q_k^(2/alpha)
    (``model._uplink_field``, :func:`_nearest_users`), whole for ``n_max = 0`` (:func:`_far_field`
    from radius 0 at s = eta / S_a), else all but its nearest users, drawn
    after the candidate APs (:func:`_nearest_chain_success`).

    For N >= 1 a trial reports y - x + mu in place of y, in both field
    modes (the control of the module docstring): x = 1 - prod_a (1 -
    exp(-:func:`_far_field` from radius 0 at eta / S_a)) is the no-SIC
    success of the same candidate APs with independent fields, which needs
    no draw, and mu = E[x] over the candidate disk
    (:func:`_no_sic_disk_law`); a trial without a candidate AP reports mu.
    N = 0 stays raw."""
    alpha = cfg.alpha
    mu_eq = _uplink_field(cfg)[1]
    control = [_no_sic_disk_law(cfg, mu_eq, eta) for eta in etas] if n_max else []

    def no_sic_miss(signal: np.ndarray, eta: float) -> np.ndarray:
        # each AP's miss over its own field, averaged out: no field is drawn
        return -np.expm1(-_far_field(mu_eq, 0.0, eta / signal[:, None], alpha))

    def block(rng: np.random.Generator, size: int) -> np.ndarray:
        sums = np.zeros((2, len(etas), n_max + 1))
        rows = _max_sir_block(cfg, rng, size, independent_fields, n_max)
        if rows is None:  # y = x = 0 in every trial
            for e_idx, mu in enumerate(control):
                sums[:, e_idx, 1:] = _moments(np.full((n_max, size), mu), 1)
            return sums
        signal, total, top, first_row = rows
        if total is not None:
            cum = np.cumsum(top, axis=1)
        elif n_max:
            shape = (len(signal), max(n_max, _NEAREST_USERS))
            near = _nearest_users(rng.standard_exponential(shape), mu_eq, alpha)
        for e_idx, eta in enumerate(etas):
            if total is not None:
                miss = -np.expm1(-_chain_exponent(signal, total, top, cum, eta, n_max))
            elif n_max:
                miss = 1.0 - _nearest_chain_success(*near, mu_eq, signal, eta, n_max, alpha)
            else:
                miss = no_sic_miss(signal, eta)
            # trials along the last axis, as the per-budget sums read them
            p = np.ascontiguousarray(1.0 - np.multiply.reduceat(miss, first_row).T)
            sums[:, e_idx] = _moments(p, 1)
            if n_max:
                x = 1.0 - np.multiply.reduceat(no_sic_miss(signal, eta), first_row)
                d = np.full((n_max, size), control[e_idx])
                d[:, : len(first_row)] += p[1:] - x.T
                sums[:, e_idx, 1:] = _moments(d, 1)
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
    Independent fields are not drawn, since no decision reads them: each
    AP's exp(-eta I_a / S_a) is averaged over its field exactly, by the
    PPP's Laplace transform (:func:`_far_field` from radius 0), and only
    the candidate APs are sampled, a whole block's in one set of array
    draws.  The shared field is drawn, the window's users and the fading
    of every AP-user link, since the APs that observe it are not
    independent (:func:`_max_sir_block`).  The trials are those of
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
    (:func:`_max_sir_block`).  For N >= 1, in both modes, each trial
    subtracts an exact no-SIC control (:func:`_max_sir_sums`), which keeps
    the mean and on the fig5 grid cuts the per-trial variance 3.2-3.9 times
    with shared fields and 4.9-6.0 times with independent ones."""
    sums = _max_sir_sums(
        cfg, [sic.eta_t], sic.n_max, trials, seed, threads, independent_fields
    )
    return _estimates(sums[:, 0, sic.n_max], trials, seed)


# ---------------------------------------------------------------------------
# Range expansion
# ---------------------------------------------------------------------------


def _rea_layout(cfg: NetworkConfig, k: int):
    """The coordinates that :func:`_rea_block` reads for tier k: whether a
    uniform picks the tier j of the first excess (only when more than one
    tier has D_i > 0; otherwise j is that tier), the tiers whose excess E_i
    a coordinate gives, and the dimension of a scene."""
    w, m, big_m = _rea_weights(cfg, k)
    racing = np.flatnonzero(big_m > m)
    pick = len(racing) > 1
    free = [i for i in range(cfg.n_tiers) if i != k and (pick or i != racing[0])]
    return pick, free, 3 + pick + len(free) + cfg.n_tiers * _ARRIVALS


def _rea_block(cfg: NetworkConfig, k: int, u: np.ndarray):
    """Map ``u``, one row of uniforms per REA trial of tier k (see
    :func:`simulate_rea`), to (dist, x, r2_far): each tier's nearest-AP
    distance, (trials, tiers); the unit mean powers r^-alpha of the K =
    ``_ARRIVALS`` APs of each tier next beyond its nearest, (trials, tiers,
    K), and the squared radius of the last of them, (trials, tiers).

    The nearest APs lie on the REA event exactly.  In the terms of
    :func:`model._rea_weights`, with A_i = w_i m_i and D_i = w_i (M_i -
    m_i) = max(w_i - A_i, 0), the event is u_i >= A_i u_k for every i and
    u_i - A_i u_k < D_i u_k for some i.  So u_k has density proportional to
    e^(-a u) (1 - e^(-d u)), a = sum_i A_i and d = sum_i D_i: it is E_1 / a
    + E_2 / (a + d).  Given u_k, the excesses (u_i - A_i u_k) / D_i are the
    first arrivals of independent Poisson processes of rates D_i, one at
    least before u_k.  The first of all, s, is Exp(d) truncated to [0, u_k)
    and tier j's with probability D_j / d, and each other tier's lies
    beyond s by a fresh Exp(D_i) (memorylessness; Kingman, *Poisson
    Processes*, 1993).  Hence u_i = A_i u_k + D_i s + E_i, with E_j = 0, and
    x_i^2 = u_i / (pi lam_i).  Given its nearest distance x_i, tier i beyond
    x_i is again a PPP, so its next APs are Gamma arrivals, pi lam_i r_j^2 =
    u_i plus the sum of j unit exponentials (:func:`_nearest_users`;
    Haenggi, *Stochastic Geometry for Wireless Networks*, 2012, ch. 2), and
    the tier beyond the last of them is a PPP independent of them.

    Every draw is the inverse CDF of one coordinate, each exponential
    -log(u), in the order of :func:`_rea_layout`, so that the nearest APs
    take the first coordinates: E_1 and E_2, then s = -log(1 - v (1 -
    e^(-d u_k))) / d from v, then, where more than one tier has D_i > 0,
    j, the tier whose share of d holds v d, then the E_i of the other
    tiers, and last the K arrivals of each tier in turn."""
    size, tiers = len(u), cfg.n_tiers
    lam = np.array([t.lam for t in cfg.tiers])
    w, m, big_m = _rea_weights(cfg, k)
    a_i = w * m
    d_i = w * (big_m - m)
    cdf = np.cumsum(d_i)
    a, d = a_i.sum(), cdf[-1]
    pick, free, _ = _rea_layout(cfg, k)

    e = -np.log(u[:, :2])
    u_k = e[:, 0] / a + e[:, 1] / (a + d)
    s = -np.log1p(u[:, 2] * np.expm1(-d * u_k)) / d
    excess = np.zeros((size, tiers))
    excess[:, free] = -np.log(u[:, 3 + pick : 3 + pick + len(free)])
    if pick:
        # side="right" skips the tiers with D_j = 0; the cap guards v d rounding to d
        j = np.minimum(np.searchsorted(cdf, u[:, 3] * d, side="right"), np.flatnonzero(d_i)[-1])
        excess[np.arange(size), j] = 0.0
    near = a_i * u_k[:, None] + d_i * s[:, None] + excess
    near[:, k] = u_k

    arrivals = -np.log(u[:, -tiers * _ARRIVALS :]).reshape(size, tiers, _ARRIVALS)
    arrivals[:, :, 0] += near
    x = np.empty((size, tiers, _ARRIVALS))
    r2_far = np.empty((size, tiers))
    for i in range(tiers):
        x[:, i], r2_far[:, i] = _nearest_users(arrivals[:, i], lam[i], cfg.alpha)
    return np.sqrt(near / (math.pi * lam)), x, r2_far


def _rea_far_fields(lam, r2_far, c2, s, k: int, alpha: float) -> np.ndarray:
    """The far-field exponents of :func:`simulate_rea`'s uncancelled and
    annulus rows, an (eta, 2, trials) array: each the sum over the tiers, in
    tier order, of :func:`_far_field` at ``s`` (eta, trials, tiers), tier
    i's field beyond its last arrival (``r2_far``, (trials, tiers)) and, in
    the annulus row, beyond the larger of that and its squared exclusion
    radius ``c2``.  Tier k's exclusion radius is the serving distance,
    inside its first arrival, so its annulus column is its uncancelled one
    and is evaluated once."""
    uncancelled = _far_field(lam, r2_far, s, alpha)
    annulus = uncancelled.copy()
    other = np.arange(len(lam)) != k
    annulus[..., other] = _far_field(
        lam[other], np.maximum(r2_far[:, other], c2[:, other]), s[..., other], alpha
    )
    return np.stack((uncancelled.sum(axis=-1), annulus.sum(axis=-1)), axis=1)


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

    Each trial maps one row of uniforms to the per-tier nearest distances
    on the REA event of :func:`model._rea_weights` (the biased winner is
    tier k, the unbiased one another tier) exactly, then to the next APs of
    every tier as Gamma arrivals (:func:`_rea_block`).  It contributes,
    for each row below, its success probability over every fading and the
    field beyond the arrivals, exactly: with S the serving AP's mean power,
    each AP of mean power P that the row keeps gives (1 + eta P / S)^-1,
    and tier i's field beyond
    radius r_lo gives exp(-:func:`_far_field`) at s = eta P_i / S.  No
    decision reads a fading or the far field, so the estimates carry no
    window-truncation bias.  The uncancelled row keeps every AP but the
    serving one, each tier's far field starting at its last arrival.  The
    two cancellations are:
      strongest -- the one AP with the highest unbiased mean power (the
                   physical one-cancellation receiver); it is a nearest AP,
                   so the far field is the uncancelled one;
      annulus   -- every AP whose unbiased mean power exceeds the serving
                   AP's (the event the closed form models; it clears the
                   whole exclusion annulus, not just its strongest member),
                   so tier i's far field starts at the larger of its last
                   arrival and its exclusion radius c_i, which is exact
                   because the field beyond the last arrival is independent
                   of the arrivals.
    ``annulus`` always holds the second; ``cancel_mode`` names the one
    that ``cancelled`` reports.  Both report each trial's y - x + mu (the
    control of the module docstring): y the row's success, x the trial's
    uncancelled success and mu = E[x], the uncancelled closed form
    ``ps_ic_rea(etas, cfg, k, 0)``.  On the fig6 grid this cuts the
    per-trial variance 1.1-28 times (strongest) and 1.1-14 times
    (annulus).  The uncancelled row stays raw, and ``raw`` keeps the
    unadjusted means and standard errors of the other two.

    The trials are randomized quasi-Monte Carlo points, R = min(32,
    trials) replicates of scrambled Sobol' points (:func:`_rqmc_sums`;
    Owen, *J. Complexity*, 1998), in the coordinates of
    :func:`_rea_layout`, 5 on the fig6 grid.  Every row comes from the
    same points: its estimate is the mean over all trials, its standard
    error the spread of the R replicate means, with R - 1 degrees of
    freedom (``Estimate.dof``).  At 2048 trials on the fig6 grid, iid
    uniforms had a variance 4.7-128 times (median 47) that of these
    points in the uncancelled row, 6.8-148 times (median 46) in the
    adjusted strongest row and 6.8-41 times (median 21) in the adjusted
    annulus row, 40 seeds per bias; the strongest row's argmax and the
    annulus row's exclusion test are discontinuities in the uniforms,
    and these figures include them.
    ``trials`` must be >= 2.  A tier whose REA is empty raises
    :class:`DegenerateReaError` from that closed form, before any draw.
    """
    if cancel_mode not in ("strongest", "annulus"):
        raise DomainError(f"cancel_mode must be strongest|annulus, got {cancel_mode}")
    etas = np.array(_check_etas(etas))
    trials = _require_count("trials", trials, 2)
    law = ps_ic_rea(etas, cfg, k, 0)  # checks k, and raises on an empty REA
    alpha = cfg.alpha
    lam = np.array([t.lam for t in cfg.tiers])
    p_dl = np.array([t.p_dl for t in cfg.tiers])
    # squared exclusion radii over the squared serving distance: P_i r^-alpha
    # exceeds the serving AP's mean power inside c_i
    exclusion = (p_dl / p_dl[k]) ** (2.0 / alpha)
    dim = _rea_layout(cfg, k)[2]

    def integrand(u: np.ndarray, kept: np.ndarray) -> np.ndarray:
        dist, x, r2_far = _rea_block(cfg, k, u.reshape(-1, dim))
        size = len(dist)
        signal = p_dl[k] * dist[:, k] ** -alpha
        # the unbiased mean powers of every drawn AP, AP x trial, the
        # serving one at 0: each tier's nearest, then its arrivals
        near = p_dl * dist**-alpha
        near[:, k] = 0.0
        powers = np.vstack((near.T, (p_dl[:, None] * x).reshape(size, -1).T))
        # the APs that each row keeps, (uncancelled, strongest, annulus) x AP x trial
        keeps = np.ones((3,) + powers.shape)
        keeps[1, np.argmax(near, axis=1), np.arange(size)] = 0.0
        keeps[2] = powers <= signal
        # AP x eta x trial, summed over the kept APs: eta x row x trial
        terms = np.log1p(powers[:, None, :] * (etas[:, None] / signal))
        logs = (terms * keeps[:, :, None, :]).sum(axis=1).transpose(1, 0, 2)
        s = np.multiply.outer(etas, p_dl / signal[:, None])
        far = _rea_far_fields(lam, r2_far, exclusion * dist[:, k:k + 1] ** 2, s, k, alpha)
        # eta x (uncancelled, strongest, annulus) x trial, then the
        # cancelled rows adjusted by the uncancelled one x: y - (x - mu)
        y = np.exp(-(logs + far[:, [0, 0, 1]]))
        adjusted = y[:, 1:] - (y[:, :1] - law[:, None, None])
        values = np.concatenate((y, adjusted), axis=1).reshape(len(etas), 5, *kept.shape)
        # replicate x eta x row, the padding left out
        return values.sum(axis=-1, where=kept).transpose(2, 0, 1)

    est = _replicate_estimates(*_rqmc_sums(trials, seed, (dim,), threads, integrand), seed)
    unc, *raw, strongest, annulus = (tuple(est[:, c]) for c in range(5))
    return ReaResult(
        uncancelled=unc,
        cancelled=annulus if cancel_mode == "annulus" else strongest,
        annulus=annulus,
        raw={
            row: {"mean": [e.mean for e in ests], "stderr": [e.stderr for e in ests]}
            for row, ests in zip(("strongest", "annulus"), raw)
        },
    )
