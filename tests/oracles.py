"""Scalar oracles that only the tests call: scenes, quadrature, distance laws.

The library's simulators are vectorized over trials and its quadrature over
integrals; these reference implementations work one scene, one panel or one
closed-form density at a time, so that the tests can check the vectorized
paths against code that shares no kernel with them:

- ``sample_scene`` draws one interferer field around the origin with its
  fading marks; ``trimmed_sum_oracle`` sums its residual interference after
  the n strongest are removed, and ``run_sic_trial`` runs the cancellation
  event chain on it, counting a 0/1 outcome.  Both order by distance or by
  faded power.
- ``_chain_levels`` is the same-draw 0/1 oracle of
  ``sicnet.montecarlo._chain_exponent``, with its own ``_first_level``.
- ``radial_field_oracle`` draws a block of faded disk or annulus fields
  in one block-sized draw of each kind, the sampled fields against which
  the tests check the library's window-free estimators; no library
  sampler mirrors it.  With an inner radius, scalar or per row, it
  samples the fields beyond the nearest points that the same-draw 0/1
  oracles of those estimators need.
- ``ORDERINGS`` names the two cancellation orders of the scalar scenes,
  the keys of ``sicnet.montecarlo.ps_can_curve_mc``'s result;
  ``fading_order_law`` is the exact law of fig2's fading-ordered event.
- ``rqmc_uniforms`` lays out the uniforms of the randomized quasi-Monte
  Carlo replicates point by point, from a scalar Halton sequence
  (``halton_point``), and ``rqmc_replicates`` their unit exponentials, the
  values that the library's chunked ``sicnet.montecarlo._rqmc_chain``
  must reproduce bit for bit.  ``rqmc_stage_chain`` replays the
  independent-stage chain the same way, one stage of one point at a time,
  with the chain of the stage means summed level by level.
  ``rea_scene`` maps one row of uniforms to a range-expansion scene by
  scalar inverse CDFs, the oracle of ``sicnet.montecarlo._rea_block``.
- ``two_call_gauss`` is the panel-at-a-time adaptive quadrature that
  every row of ``sicnet.numerics.adaptive_gauss`` must reproduce, panel
  for panel.
- ``nth_interferer_distance_pdf`` and ``rea_distance_pdf`` are the
  distance laws behind the closed forms, checked by quadrature.

Nothing here imports from ``sicnet.analytic``: these are the closed forms'
oracles too.  pytest does not collect this module; the tests import it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from sicnet.errors import DegenerateReaError, DomainError
from sicnet.model import (
    NetworkConfig,
    SicConfig,
    _require_count,
    _require_positive,
    rea_association_prob,
)
from sicnet.montecarlo import _stream, sample_ppp, window_radius


# ---------------------------------------------------------------------------
# Scalar scenes and the event chain
# ---------------------------------------------------------------------------


ORDERINGS = ("distance_only", "power_with_fading")


def _check_ordering(ordering: str) -> str:
    if ordering not in ORDERINGS:
        raise DomainError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    return ordering


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
    """:func:`_first_level` of the event chain on one field per trial, given
    the faded signal of interest ``soi``: stage n cancels the n-th strongest
    interferer and decodes against the rest.  This is the 0/1 indicator
    that :func:`_chain_exponent` integrates over the serving fading; it
    serves as that function's same-draw oracle."""
    residual = total[:, None] - cum[:, :n_max]
    decoded = np.column_stack((soi >= eta * total, soi[:, None] >= eta * residual))
    return _first_level(decoded, top[:, :n_max] >= eta * residual)


def radial_field_oracle(rng, size, density, r_in, r_out, min_cols, alpha):
    """``size`` faded PPP fields on the annulus r_in < r <= r_out, as
    (powers, r2, counts) in draw order, each row padded past its count to
    at least ``min_cols`` columns with r2 = inf and zero power.  One
    block-sized draw of each kind, in this order: the Poisson counts, the
    uniforms behind r2, the fading marks."""
    # two products, so that r_in = 0 reproduces the disk mean bit for bit
    mean = density * math.pi * r_out * r_out - density * math.pi * r_in * r_in
    span = r_out * r_out - r_in * r_in
    if isinstance(span, np.ndarray):
        mean, span = np.maximum(mean, 0.0), np.maximum(span, 0.0)[:, None]
        r_in = np.reshape(r_in, (-1, 1))
    counts = rng.poisson(mean, size)
    pmax = max(int(counts.max(initial=0)), min_cols, 1)
    # in place, the same operations as r_in^2 + span * (1 - u)
    r2 = rng.random((size, pmax))
    np.subtract(1.0, r2, out=r2)
    r2 *= span
    r2 += r_in * r_in
    np.copyto(r2, np.inf, where=np.arange(pmax)[None, :] >= counts[:, None])
    powers = rng.standard_exponential((size, pmax))
    powers *= r2 ** (-0.5 * alpha)
    return powers, r2, counts


# ---------------------------------------------------------------------------
# Adaptive quadrature, one panel at a time
# ---------------------------------------------------------------------------


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def halton_point(i: int, dim: int) -> list[float]:
    """Point ``i`` of the ``dim``-dimensional Halton sequence, one radical
    inverse at a time: the base-b digits of i, least significant first,
    weighted b^-1, b^-2, ..."""
    point = []
    for base in _HALTON_BASES[:dim]:
        rest, scale, x = i, 1.0, 0.0
        while rest:
            rest, digit = divmod(rest, base)
            scale /= base
            x += digit * scale
        point.append(x)
    return point


def rqmc_uniforms(trials: int, seed: int, dim: int, replicates: int = 32) -> list[np.ndarray]:
    """The uniforms of min(``replicates``, ``trials``) randomized
    quasi-Monte Carlo replicates, one (n_r, dim) array each: sizes
    differing by at most one, the larger first; replicate r shifts the
    first n_r Halton points by ``_stream(seed, r).random(dim)`` modulo 1 and
    keeps each uniform in [2^-53, 1 - 2^-53]."""
    replicates = min(replicates, trials)
    out = []
    for r in range(replicates):
        n = trials // replicates + (r < trials % replicates)
        shift = _stream(seed, r).random(dim)
        u = (np.array([halton_point(i, dim) for i in range(n)]).reshape(n, dim) + shift) % 1.0
        out.append(np.clip(u, 2.0**-53, 1.0 - 2.0**-53))
    return out


def rqmc_replicates(trials: int, seed: int, dim: int, replicates: int = 32) -> list[np.ndarray]:
    """The unit exponentials -log(u) of the faithful chain's replicates,
    from the uniforms u of :func:`rqmc_uniforms`."""
    return [-np.log(u) for u in rqmc_uniforms(trials, seed, dim, replicates)]


def rqmc_stage_chain(
    lambda_eq: float, mu_j: float, alpha: float, etas, n_max: int, trials: int, seed: int,
    arrivals: int = 1, replicates: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """The independent-stage chain's replicate sizes and values, point by
    point and stage by stage: ``values[r, e, N]`` is replicate r's chain
    success at ``etas[e]`` and budget N.

    Stage s (the decodes n = 0..n_max, then the cancellations n =
    1..n_max) of replicate r shifts the first n_r Halton points by row s of
    ``_stream(seed, r).random((2 n_max + 1, 1 + arrivals))`` modulo 1 and
    keeps each uniform in [2^-53, 1 - 2^-53].  Decode n reads the serving
    distance from pi lambda_eq u^2 = -log(u_0) and fails inside pi mu_j
    R^2 = n; cancel n puts the cancelled node at pi mu_j r_n^2 =
    gammaincinv(n, u_0).  The arrivals lie at pi mu_j r_k^2 = L + the sum
    of -log(u_j), j <= k, from L = n or pi mu_j r_n^2.  A point succeeds
    with probability prod_k (1 + c r_k^-alpha)^-1 exp(-pi mu_j c^(2/alpha)
    C(r_K^2 c^(-2/alpha), alpha)), c = eta / signal.  The chain of the
    stage means is sum_{n<=N} P_dec(n) prod_{m<n} (1 - P_dec(m))
    prod_{1<=m<=n} P_can(m)."""
    from scipy.special import gammaincinv

    from sicnet.numerics import c_integral

    stages, dim = 2 * n_max + 1, 1 + arrivals
    replicates = min(replicates, trials)
    sizes = [trials // replicates + (r < trials % replicates) for r in range(replicates)]
    points = [halton_point(i, dim) for i in range(sizes[0])]
    edge = 2.0**-53
    values = np.zeros((replicates, len(etas), n_max + 1))
    for r, n_r in enumerate(sizes):
        shifts = _stream(seed, r).random((stages, dim)).tolist()
        for e_idx, eta in enumerate(etas):
            means = []
            for s in range(stages):
                n = s if s <= n_max else s - n_max
                total = 0.0
                for point in points[:n_r]:
                    u = [min(max((x + d) % 1.0, edge), 1.0 - edge) for x, d in zip(point, shifts[s])]
                    if s <= n_max:
                        served = -math.log(u[0])
                        if served < n * (lambda_eq / mu_j):
                            continue
                        lead, signal = n, (served / (math.pi * lambda_eq)) ** (-0.5 * alpha)
                    else:
                        lead = float(gammaincinv(n, u[0]))
                        signal = (lead / (math.pi * mu_j)) ** (-0.5 * alpha)
                    c, p = eta / signal, 1.0
                    for v in u[1:]:
                        lead -= math.log(v)
                        p /= 1.0 + c * (lead / (math.pi * mu_j)) ** (-0.5 * alpha)
                    c_e = c ** (2.0 / alpha)
                    c_arg = lead / (math.pi * mu_j) / c_e
                    total += p * math.exp(-math.pi * mu_j * c_e * float(c_integral(c_arg, alpha)))
                means.append(total / n_r)
            success, outage, cancel = 0.0, 1.0, 1.0
            for n in range(n_max + 1):
                if n:
                    cancel *= means[n_max + n]
                success += means[n] * outage * cancel
                outage *= 1.0 - means[n]
                values[r, e_idx, n] = success
    return np.array(sizes), values


def two_call_gauss(f, a: float, b: float, settings) -> tuple[float, int]:
    """Globally adaptive G7/G15 quadrature of ``f`` over [a, b], one panel at
    a time, with separate G7 and G15 integrand calls and ``np.dot`` sums:
    the reference of every row of ``sicnet.numerics.adaptive_gauss``.
    Bisects the panel of largest |G15 - G7| until the summed error drops
    below max(abs_tol, rel_tol * |integral|); no subdivision budget.
    Returns the integral and the number of panels evaluated."""
    g7_x, g7_w = np.polynomial.legendre.leggauss(7)
    g15_x, g15_w = np.polynomial.legendre.leggauss(15)

    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coarse = half * float(np.dot(g7_w, f(mid + half * g7_x)))
        fine = half * float(np.dot(g15_w, f(mid + half * g15_x)))
        return fine, abs(fine - coarse)

    val, err = panel(a, b)
    heap, count = [(-err, 0, a, b, val, err)], 1
    total_val, total_err = val, err
    while total_err > max(settings.abs_tol, settings.rel_tol * abs(total_val)):
        _, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, count, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, mid, hi, v2, e2))
        count += 2
    return total_val, count


# ---------------------------------------------------------------------------
# Distance laws and dB conversion
# ---------------------------------------------------------------------------


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"cannot express non-positive value {x} in dB")
    return 10.0 * math.log10(x)


def nth_interferer_distance_pdf(mu_j: float, n: int, r) -> float:
    """PDF of the distance to the n-th nearest point of a PPP(mu_j):

        f(r) = exp(-mu_j pi r^2) * 2 (mu_j pi r^2)^n / (r Gamma(n)).

    (Generalized-gamma form; the exponent is negative, as required for the
    density to integrate to one.)
    At n = 1 it is the nearest-point (Rayleigh) law
    2 pi mu_j r exp(-mu_j pi r^2).
    """
    _require_positive("mu_j", mu_j)
    _require_count("order n", n, 1)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise DomainError("distances must be > 0")
    x = mu_j * math.pi * r_arr**2
    pdf = np.exp(-x) * 2.0 * x**n / (r_arr * math.gamma(n))
    return float(pdf) if np.ndim(r) == 0 else pdf


def fading_order_law(eta: float, n: int, alpha: float) -> float:
    """Probability that the n-th strongest faded power of a Rayleigh-faded
    PPP is at least ``eta`` times the sum of all weaker ones, for eta >= 1:

        eta^(-n delta) / (Gamma(1 + n delta) Gamma(1 - delta)^n),

    delta = 2/alpha.  The faded powers form a PPP on (0, inf) with
    intensity measure proportional to x^(-delta) (mapping theorem; Haenggi,
    *Stochastic Geometry for Wireless Networks*, 2012, ch. 2 and 5), so the
    law depends on neither the density nor the power scale.  At n = 1 it is
    the strongest-node law eta^(-delta) sin(pi delta) / (pi delta)."""
    if not eta >= 1.0:
        raise DomainError(f"the fading-order law needs eta >= 1, got {eta}")
    _require_count("order n", n, 1)
    delta = 2.0 / alpha
    return eta ** (-n * delta) / (math.gamma(1.0 + n * delta) * math.gamma(1.0 - delta) ** n)


def _rea_exponent_sums(cfg: NetworkConfig, k: int) -> tuple[float, float]:
    """Area coefficients of the exclusion disks for a user served by tier
    k: S_B = sum_i lam_i (P_i b_i / P_k b_k)^(2/alpha), inside which no AP
    wins the biased rule, and S_U = sum_i lam_i (P_i / P_k)^(2/alpha)
    max(b_i / b_k, 1)^(2/alpha), inside which none wins either rule."""
    e = 2.0 / cfg.alpha
    ref = cfg.tiers[k]
    s_biased = sum(
        t.lam * ((t.p_dl * t.bias) / (ref.p_dl * ref.bias)) ** e for t in cfg.tiers
    )
    s_unbiased = sum(
        t.lam * (t.p_dl / ref.p_dl * max(t.bias / ref.bias, 1.0)) ** e for t in cfg.tiers
    )
    return s_biased, s_unbiased


def rea_distance_pdf(cfg: NetworkConfig, k: int, x) -> float:
    """Serving-distance density for users in tier k's range-expanded area,
    where tier k wins the biased rule and another tier the unbiased one
    (every bias removed): a difference of two Rayleigh-type exponentials
    normalized by the REA association probability."""
    cfg.check_tier(k)
    p_re = rea_association_prob(cfg, k)
    if p_re <= 1e-15:
        raise DegenerateReaError(
            f"tier {k} has an empty range-expanded area (all biases equal?)"
        )
    s_biased, s_unbiased = _rea_exponent_sums(cfg, k)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise DomainError("distances must be >= 0")
    lam_k = cfg.tiers[k].lam
    pdf = (
        2.0 * math.pi * lam_k / p_re
        * x_arr
        * (
            np.exp(-math.pi * s_biased * x_arr**2)
            - np.exp(-math.pi * s_unbiased * x_arr**2)
        )
    )
    return float(pdf) if np.ndim(x) == 0 else pdf


def rea_scene(cfg: NetworkConfig, k: int, u, arrivals: int = 1):
    """One REA scene of tier k from one row ``u`` of uniforms, one scalar
    at a time: each tier's nearest-AP distance, the unit mean powers
    r^-alpha of its next ``arrivals`` APs, and the squared radius of the
    last of them.

    With delta = 2/alpha and u_i = pi lam_i x_i^2 for tier i's nearest AP
    at x_i: w_i = (lam_i / lam_k) (P_i / P_k)^delta, A_i = w_i (b_i /
    b_k)^delta and D_i = w_i max(1 - (b_i / b_k)^delta, 0), a and d their
    sums.  The coordinates are read in turn: E_1 = -log(u) and E_2 =
    -log(u), which give u_k = E_1 / a + E_2 / (a + d); s from the inverse
    of its CDF (1 - e^(-d s)) / (1 - e^(-d u_k)) on [0, u_k); where more
    than one tier has D_i > 0, the tier j of the first excess, the first
    whose running sum of D_i exceeds u d, and otherwise j is the one such
    tier, which reads no coordinate; the excess E_i = -log(u) of every
    tier other than k, in tier order, but for a j that read no coordinate;
    last, tier by tier, the arrivals, pi lam_i r^2 = u_i plus running sums
    of -log(u).  Tier i's nearest lies at u_i = A_i u_k + D_i s + E_i, with
    E_j taken as 0."""
    delta, ref = 2.0 / cfg.alpha, cfg.tiers[k]
    w = [t.lam / ref.lam * (t.p_dl / ref.p_dl) ** delta for t in cfg.tiers]
    m = [(t.bias / ref.bias) ** delta for t in cfg.tiers]
    big_a = [w_i * m_i for w_i, m_i in zip(w, m)]
    big_d = [w_i * max(1.0 - m_i, 0.0) for w_i, m_i in zip(w, m)]
    a, d = sum(big_a), sum(big_d)
    racing = [i for i, d_i in enumerate(big_d) if d_i > 0.0]
    coords = iter(u)
    u_k = -math.log(next(coords)) / a - math.log(next(coords)) / (a + d)
    s = -math.log1p(next(coords) * math.expm1(-d * u_k)) / d
    j = racing[0]
    if len(racing) > 1:
        v, running, j = next(coords) * d, 0.0, racing[-1]
        for i, d_i in enumerate(big_d):
            running += d_i
            if v < running:
                j = i
                break
    near = []
    for i in range(cfg.n_tiers):
        if i == k:
            near.append(u_k)
            continue
        excess = 0.0 if i == j and len(racing) == 1 else -math.log(next(coords))
        near.append(big_a[i] * u_k + big_d[i] * s + (0.0 if i == j else excess))
    dist, x, r2_far = [], [], []
    for i, tier in enumerate(cfg.tiers):
        dist.append(math.sqrt(near[i] / (math.pi * tier.lam)))
        lead, powers = near[i], []
        for _ in range(arrivals):
            lead -= math.log(next(coords))
            powers.append((lead / (math.pi * tier.lam)) ** (-0.5 * cfg.alpha))
        x.append(powers)
        r2_far.append(lead / (math.pi * tier.lam))
    assert next(coords, None) is None, "a coordinate was left unread"
    return dist, x, r2_far
