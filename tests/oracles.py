"""Scalar scene oracles and distance laws that only the tests call.

The library's simulators are vectorized over trials; these reference
implementations work one scene, or one closed-form density, at a time, so
that the tests can check the vectorized paths against code that shares no
kernel with them:

- ``sample_scene`` draws one interferer field around the origin with its
  fading marks; ``trimmed_sum_oracle`` sums its residual interference after
  the n strongest are removed, and ``run_sic_trial`` runs the cancellation
  event chain on it, counting a 0/1 outcome.  Both order by distance or by
  faded power.
- ``_chain_levels`` is the same-draw 0/1 oracle of
  ``sicnet.montecarlo._chain_exponent``, with its own ``_first_level``.
- ``radial_field_oracle`` draws a block of faded annulus fields in one
  block-sized draw of each kind, the values that the library's row-chunked
  ``sicnet.montecarlo._radial_chunks`` must reproduce draw for draw.
- ``nth_interferer_distance_pdf`` and ``rea_distance_pdf`` are the
  distance laws behind the closed forms, checked by quadrature.

Nothing here imports from ``sicnet.analytic``: these are the closed forms'
oracles too.  pytest does not collect this module; the tests import it.
"""

from __future__ import annotations

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
from sicnet.montecarlo import ORDERINGS, _stream, sample_ppp, window_radius


# ---------------------------------------------------------------------------
# Scalar scenes and the event chain
# ---------------------------------------------------------------------------


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


def _rea_exponent_sums(cfg: NetworkConfig, k: int) -> tuple[float, float]:
    """Area coefficients of the biased and unbiased exclusion disks for a
    user served by tier k: S_B = sum_i lam_i (P_i b_i / P_k b_k)^(2/alpha)
    and S_U = sum_i lam_i (P_i / P_k)^(2/alpha)."""
    e = 2.0 / cfg.alpha
    ref = cfg.tiers[k]
    s_biased = sum(
        t.lam * ((t.p_dl * t.bias) / (ref.p_dl * ref.bias)) ** e for t in cfg.tiers
    )
    s_unbiased = sum(t.lam * (t.p_dl / ref.p_dl) ** e for t in cfg.tiers)
    return s_biased, s_unbiased


def rea_distance_pdf(cfg: NetworkConfig, k: int, x) -> float:
    """Serving-distance density for users in tier k's range-expanded area:
    a difference of two Rayleigh-type exponentials normalized by the REA
    association probability."""
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
