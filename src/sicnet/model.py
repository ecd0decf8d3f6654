"""Network configuration, stochastic equivalence, and association laws.

A K-tier deployment is a list of :class:`TierParams` plus a shared path-loss
exponent and user densities.  Everything downstream (closed forms and the
simulator) consumes either the raw tiers or the stochastically equivalent
single-tier network with density

    lambda_eq = sum_k lambda_k * P_k^(2/alpha)

and unit transmit power, and the uplink users to one field of density mu_eq
(:func:`_uplink_field`).  Powers are linear everywhere in this module; dB
conversion happens at the CLI boundary only.  Tier indices are 0-based in
code and reported 1-based.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "TierParams",
    "NetworkConfig",
    "SicConfig",
    "EquivalentNetwork",
    "db_to_linear",
    "equivalent_density",
    "association_prob_max_power",
    "biased_association_prob",
    "rea_association_prob",
    "cancellation_radius",
    "config_from_dict",
    "config_to_dict",
    "load_config",
]


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value}")


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise DomainError(f"alpha must be > 2, got {alpha}")


def _require_count(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int, if it is an integer (numpy integers included)
    of at least ``minimum``: an order, a budget, a load or a trial count."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class TierParams:
    """One tier of access points: density, DL/UL powers, association bias."""

    lam: float            # AP density per m^2
    p_dl: float = 1.0     # DL transmit power, linear relative units
    q_ul: float = 1.0     # UL transmit power, linear relative units
    bias: float = 1.0     # range-expansion bias b_k, dimensionless

    def __post_init__(self) -> None:
        _require_positive("lam", self.lam)
        _require_positive("p_dl", self.p_dl)
        _require_positive("q_ul", self.q_ul)
        if not (math.isfinite(self.bias) and self.bias >= 1.0):
            raise DomainError(f"bias must be >= 1, got {self.bias}")


@dataclass(frozen=True)
class NetworkConfig:
    """K-tier deployment with a shared path-loss exponent.

    ``mu`` is the total user density; ``mu_j`` the density of users active
    on the tagged channel.  A fully loaded network sets mu_j equal to the
    AP density.
    """

    tiers: tuple[TierParams, ...]
    alpha: float
    mu: float
    mu_j: float

    def __post_init__(self) -> None:
        if len(self.tiers) < 1:
            raise DomainError("NetworkConfig needs at least one tier")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        _check_alpha(self.alpha)
        _require_positive("mu", self.mu)
        _require_positive("mu_j", self.mu_j)
        if self.mu_j > self.mu * (1.0 + 1e-12):
            raise DomainError(
                f"mu_j={self.mu_j} cannot exceed total user density mu={self.mu}"
            )

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)

    def check_tier(self, k: int) -> None:
        if not 0 <= k < self.n_tiers:
            raise DomainError(
                f"tier index {k} out of range for {self.n_tiers}-tier network"
            )


@dataclass(frozen=True)
class SicConfig:
    """SIR threshold (linear) and the cancellation budget N."""

    eta_t: float
    n_max: int = 0

    def __post_init__(self) -> None:
        _require_positive("eta_t", self.eta_t)
        _require_count("n_max", self.n_max)


@dataclass(frozen=True)
class EquivalentNetwork:
    """Single-tier reduction: unit power, density lambda_eq, plus the
    power-weighted user densities mu_tilde[k] = sum_i mu_i (Q_i/Q_k)^(2/alpha)."""

    lambda_eq: float
    mu_tilde: tuple[float, ...] = field(default=())


# ---------------------------------------------------------------------------
# Association probabilities and the uplink user field
# ---------------------------------------------------------------------------


def association_prob_max_power(cfg: NetworkConfig, k: int) -> float:
    """Probability a typical user associates with tier k under the
    maximum-average-received-power rule:

        p_a,k = lambda_k / sum_i lambda_i (P_i/P_k)^(2/alpha).
    """
    cfg.check_tier(k)
    e = 2.0 / cfg.alpha
    p_k = cfg.tiers[k].p_dl
    denom = sum(t.lam * (t.p_dl / p_k) ** e for t in cfg.tiers)
    return cfg.tiers[k].lam / denom


@functools.lru_cache(maxsize=256)
def _rea_weights(cfg: NetworkConfig, k: int) -> np.ndarray:
    """Tier k's REA event in tier-k units: the rows w, m and M of a
    read-only (3, tiers) array, tier k's entries 1.  With delta = 2/alpha,
    w_i = (lam_i / lam_k) (P_i / P_k)^delta, m_i = (b_i / b_k)^delta and
    M_i = max(m_i, 1).  With u_i = pi lam_i x_i^2 for each tier's nearest
    AP at x_i, tier i beats tier k in unbiased mean power if u_i < w_i u_k,
    in biased power if u_i < w_i m_i u_k, and tier k wins both rules if
    u_i >= w_i M_i u_k for every i.  The REA holds the users whom the
    biases move to tier k: tier k wins the biased rule and another tier
    the unbiased one (every bias removed).  :func:`rea_association_prob`,
    ``analytic.ps_ic_rea`` and ``montecarlo.simulate_rea`` all read the
    event from here.  Cached, since configurations are frozen: this keeps
    a scalar ``ps_ic_rea`` call as cheap as Python floats made it."""
    cfg.check_tier(k)
    e = 2.0 / cfg.alpha
    ref = cfg.tiers[k]
    w = [(t.lam / ref.lam) * (t.p_dl / ref.p_dl) ** e for t in cfg.tiers]
    m = [(t.bias / ref.bias) ** e for t in cfg.tiers]
    weights = np.array([w, m, [max(x, 1.0) for x in m]])
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=256)
def rea_association_prob(cfg: NetworkConfig, k: int) -> float:
    """Probability of landing in tier k's range-expanded area: tier k wins
    under the biased rule and some other tier under the unbiased one
    (:func:`_rea_weights`).  That is P(k wins biased) less P(k wins both),

        p_REA,k = 1 / sum_i w_i m_i - 1 / sum_i w_i M_i,

    each the void probability of a PPP disk (Haenggi, *Stochastic Geometry
    for Wireless Networks*, 2012, ch. 2).  Where every tier other than k is
    unbiased, this is the paper's 1 - sum_{i != k} p_a,i(B) - p_a,k(B |
    b_k = 1).  It is 0 where no other tier has a smaller bias than tier k.
    Cached like the weights."""
    w, m, big_m = _rea_weights(cfg, k)
    return float(1.0 / (w @ m) - 1.0 / (w @ big_m))


def biased_association_prob(cfg: NetworkConfig, k: int) -> float:
    """Association probability with range-expansion biases A_k = b_k P_k:
    1 / sum_i w_i m_i in the weights of :func:`_rea_weights`."""
    w, m, _ = _rea_weights(cfg, k)
    return float(1.0 / (w @ m))


def _interferer_tiers(cfg: NetworkConfig) -> list[tuple[float, float]]:
    """``(density, UL power)`` of each tier's interfering users: the users
    of tier k, density p_k mu under max-power association, transmit at Q_k."""
    return [
        (association_prob_max_power(cfg, k) * cfg.mu, t.q_ul)
        for k, t in enumerate(cfg.tiers)
    ]


def _uplink_field(cfg: NetworkConfig) -> tuple[float, float]:
    """``(lam_ul, mu_eq)``: by the mapping theorem (Haenggi, *Stochastic
    Geometry for Wireless Networks*, 2012, ch. 2) the users of
    :func:`_interferer_tiers` look from any AP like one unit-power field of
    density mu_eq = sum_k p_k mu Q_k^(2/alpha), and the APs, by the UL power
    they receive, like one of density lam_ul = sum_k lam_k Q_k^(2/alpha).
    The max-SIR closed forms read the tiers only through w = lam_ul / mu_eq."""
    e = 2.0 / cfg.alpha
    mu_eq = sum(mu_k * q**e for mu_k, q in _interferer_tiers(cfg))
    return sum(t.lam * t.q_ul**e for t in cfg.tiers), mu_eq


def equivalent_density(cfg: NetworkConfig) -> EquivalentNetwork:
    """Campbell reduction to the single-tier equivalent network.

    ``mu_tilde[k]`` = mu_eq / Q_k^(2/alpha) (:func:`_uplink_field`) is the
    interferer density seen in the equivalent network referenced to tier
    k's UL power.
    """
    e = 2.0 / cfg.alpha
    lam_eq = sum(t.lam * t.p_dl**e for t in cfg.tiers)
    mu_eq = _uplink_field(cfg)[1]
    return EquivalentNetwork(lam_eq, tuple(mu_eq / t.q_ul**e for t in cfg.tiers))


# ---------------------------------------------------------------------------
# Cancellation radius
# ---------------------------------------------------------------------------


def cancellation_radius(mu_j: float, n: int) -> float:
    """Radius of the disk that contains n interferers on average:
    R_{I,n} = sqrt(n / (mu_j pi)); zero for n = 0."""
    _require_positive("mu_j", mu_j)
    _require_count("order n", n)
    return math.sqrt(n / (mu_j * math.pi))


# ---------------------------------------------------------------------------
# Configuration files (JSON)
# ---------------------------------------------------------------------------

_TIER_KEYS = {"lambda", "p_dl", "q_ul", "bias"}
_CONFIG_KEYS = {"alpha", "mu", "mu_j", "tiers"}


def config_from_dict(data: dict) -> NetworkConfig:
    """Build a NetworkConfig from the documented JSON schema.

    Schema: {"alpha": float, "mu": float, "mu_j": float,
             "tiers": [{"lambda": float, "p_dl": float, "q_ul": float,
                        "bias": float}, ...]}
    ``p_dl``, ``q_ul`` and ``bias`` default to 1. Unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _CONFIG_KEYS - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    if not isinstance(data["tiers"], list) or not data["tiers"]:
        raise ConfigError("'tiers' must be a non-empty list")
    tiers = []
    for idx, entry in enumerate(data["tiers"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"tier {idx + 1} must be an object")
        unknown = set(entry) - _TIER_KEYS
        if unknown:
            raise ConfigError(f"tier {idx + 1}: unknown keys {sorted(unknown)}")
        if "lambda" not in entry:
            raise ConfigError(f"tier {idx + 1}: missing 'lambda'")
        try:
            tiers.append(
                TierParams(
                    lam=float(entry["lambda"]),
                    p_dl=float(entry.get("p_dl", 1.0)),
                    q_ul=float(entry.get("q_ul", 1.0)),
                    bias=float(entry.get("bias", 1.0)),
                )
            )
        except DomainError as exc:
            raise ConfigError(f"tier {idx + 1}: {exc}") from exc
    try:
        return NetworkConfig(
            tiers=tuple(tiers),
            alpha=float(data["alpha"]),
            mu=float(data["mu"]),
            mu_j=float(data["mu_j"]),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: NetworkConfig) -> dict:
    return {
        "alpha": cfg.alpha,
        "mu": cfg.mu,
        "mu_j": cfg.mu_j,
        "tiers": [
            {"lambda": t.lam, "p_dl": t.p_dl, "q_ul": t.q_ul, "bias": t.bias}
            for t in cfg.tiers
        ],
    }


def load_config(path) -> NetworkConfig:
    """Read a NetworkConfig from a JSON file; schema as in config_from_dict."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)
