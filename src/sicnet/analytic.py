"""Closed-form success, outage, and rate-coverage probabilities.

Uplink conventions: the receiver sits at the origin of the single-tier
equivalent network (density ``lambda_eq``, unit power), interferers form an
independent PPP of density ``mu_j`` with unit-mean exponential power fading,
and the network is interference limited.  The cancellation radius
R_{I,n} = sqrt(n/(mu_j pi)) encloses on average the n canceled interferers.

The decode-after-cancellation probability is evaluated exactly as the
integral is written: the serving-distance density is integrated from
R_{I,n} upward *without* renormalization, embedding the "serving distance
exceeds the cancellation radius on average" approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, poch

from .errors import DegenerateReaError, DomainError
from .model import (
    NetworkConfig,
    _check_alpha,
    _rea_weights,
    _require_count,
    _require_positive,
    _uplink_field,
    cancellation_radius,
    rea_association_prob,
)
from .numerics import adaptive_gauss, c_integral

__all__ = [
    "SicGainBreakdown",
    "SicLevel",
    "ps_plain",
    "ps_ic",
    "ps_can",
    "ps_can_tsd",
    "kurtosis_after_cancellation",
    "ps_sic",
    "load_pmf",
    "load_pmf_table",
    "load_order_statistic_pmf",
    "rate_coverage_max_sir",
    "rate_coverage_min_load",
    "outage_max_inst_sir",
    "ps_sic_max_inst_sir",
    "ps_ic_rea",
]

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Decoding with and without cancellation (max-mean-power association)
# ---------------------------------------------------------------------------


def ps_plain(eta: float, lambda_eq: float, mu_j: float, alpha: float) -> float:
    """Success probability without interference cancellation:

        P_s = lambda_eq / (lambda_eq + mu_j eta^(2/alpha) C(0, alpha)).

    This is the n = 0 case of the decode integral, evaluated in closed form.
    """
    _require_positive("eta", eta)
    _require_positive("lambda_eq", lambda_eq)
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)
    c0 = c_integral(0.0, alpha)
    return lambda_eq / (lambda_eq + mu_j * eta ** (2.0 / alpha) * c0)


def ps_ic(
    eta: float,
    n: int,
    lambda_eq: float,
    mu_j: float,
    alpha: float,
) -> float:
    """Probability of decoding the signal of interest after n cancellations.

    Evaluates

        int_{R_{I,n}}^inf exp(-pi mu_j eta^(2/a) u^2 C(R_{I,n}^2/(eta^(2/a) u^2), a))
                          2 pi lambda_eq u exp(-lambda_eq pi u^2) du

    by adaptive quadrature at default tolerances in the dimensionless
    variable tau = pi lambda_eq u^2.  The serving-distance truncation at
    R_{I,n} is kept un-renormalized (see module docstring).
    """
    _require_count("cancellation order n", n)
    integrand, tau0, tau_max = _decode_integral(eta, n, lambda_eq, mu_j, alpha)
    return adaptive_gauss(integrand, tau0, float(tau_max))


def _decode_integral(eta, n, lambda_eq: float, mu_j: float, alpha: float):
    """The integrand of :func:`ps_ic` in tau = pi lambda_eq u^2 and its
    bounds [tau0, tau_max].  ``n`` is one order, or a column of orders: the
    integrand then broadcasts a (K, nodes) array against them, row k at
    order n[k], and the bounds are columns too."""
    _require_positive("eta", eta)
    _require_positive("lambda_eq", lambda_eq)
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)

    e = 2.0 / alpha
    eta_e = eta**e
    ratio = mu_j / lambda_eq
    # the cancellation disk maps to tau0 = pi lambda_eq R_{I,n}^2 and to
    # rho0 = pi mu_j R_{I,n}^2 = n
    tau0 = lambda_eq * n / mu_j

    def integrand(tau: np.ndarray) -> np.ndarray:
        # Gauss nodes are interior, so tau > tau0 >= 0
        c_val = c_integral(n / (eta_e * ratio * tau), alpha)
        return np.exp(-ratio * eta_e * c_val * tau - tau)

    # the exponent's slope 1 + ratio eta_e (C(b) + b / (1 + b^(alpha/2))) grows
    # with tau: at tau0 (b0) it bounds the decay rate, whose e-folds set the span
    b0 = np.where(n > 0, 1.0 / eta_e, 0.0)
    rate = 1.0 + ratio * eta_e * (c_integral(b0, alpha) + b0 / (1.0 + b0 ** (0.5 * alpha)))
    return integrand, tau0, tau0 + (60.0 + 10.0 * np.sqrt(tau0 + 1.0)) / rate


def ps_can(eta: float, n: int, alpha: float) -> float:
    """Probability of decoding (and canceling) the n-th strongest signal,
    given the n-1 stronger ones are gone:

        P_s,can(eta, n) = (1 + eta^(2/a) C(eta^(-2/a), a))^(-n).

    Geometric in n and independent of the interferer density.
    """
    _require_positive("eta", eta)
    _check_alpha(alpha)
    _require_count("order n", n)
    if n == 0:
        return 1.0
    e = 2.0 / alpha
    base = 1.0 + eta**e * c_integral(eta**-e, alpha)
    return base**-n


def ps_can_tsd(eta: float, n: int) -> float:
    """Truncated-stable counterpart of :func:`ps_can`, path-loss exponent 4:

        P_s,can(eta, n) = (sqrt(9/4 + 3 eta) - 1/2)^(-n).
    """
    if not (math.isfinite(eta) and eta >= 0.0):
        raise DomainError(f"eta must be finite and >= 0, got {eta}")
    _require_count("order n", n)
    if n == 0:
        return 1.0
    return (math.sqrt(2.25 + 3.0 * eta) - 0.5) ** -n


def kurtosis_after_cancellation(alpha: float, n: int) -> float:
    """Excess kurtosis of the residual interference once n interferers are
    gone: gamma_2(alpha, n) = 6 (alpha-1)^2 / (2 alpha - 1) / (n - 1).

    Decays like 1/n: the residual converges to a Gaussian.
    """
    _check_alpha(alpha)
    _require_count("canceled interferers n", n, 2)
    return 6.0 * (alpha - 1.0) ** 2 / (2.0 * alpha - 1.0) / (n - 1.0)


# ---------------------------------------------------------------------------
# The full SIC chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SicLevel:
    """Contribution of the i-th cancellation level to the SIC success."""

    level: int
    chain_outage_product: float   # prod_{n<i} (1 - P_s,IC(eta, n))
    cancel_product: float         # prod_{n<=i} P_s,can(eta, n)
    decode_after: float           # P_s,IC(eta, i)
    level_contribution: float


@dataclass(frozen=True)
class SicGainBreakdown:
    """Per-level decomposition of the SIC success probability."""

    ps_no_ic: float
    per_level: tuple[SicLevel, ...]
    ps_sic_total: float


def ps_sic(
    eta: float,
    n_max: int,
    lambda_eq: float,
    mu_j: float,
    alpha: float,
) -> SicGainBreakdown:
    """Success probability with at most ``n_max`` cancellations:

        P_s,SIC = P_s + sum_{i=1}^{N} [prod_{n=0}^{i-1} (1 - P_s,IC(eta, n))]
                                      [prod_{n=1}^{i} P_s,can(eta, n)]
                                      P_s,IC(eta, i).

    Each added level is non-negative, so the total is nondecreasing in N.
    The N + 1 terms P_s,IC(eta, n) are :func:`ps_ic`'s integrals at default
    tolerances, integrated in one lockstep :func:`adaptive_gauss` call: each
    keeps its own bisection sequence and panel sums, the ones its
    :func:`ps_ic` call runs as a one-row integral.
    """
    _require_count("n_max", n_max)
    orders = np.arange(n_max + 1, dtype=float)[:, None]
    integrand, tau0, tau_max = _decode_integral(eta, orders, lambda_eq, mu_j, alpha)
    decode = adaptive_gauss(integrand, tau0[:, 0], tau_max[:, 0])
    q_single = ps_can(eta, 1, alpha) if n_max >= 1 else 1.0
    outage, cancel, contribution = _sic_levels(decode, q_single)
    levels = map(SicLevel, range(1, n_max + 1), outage, cancel, decode[1:], contribution)
    total = np.cumsum(np.r_[decode[0], contribution])[-1]  # in level order, as fig3 sums
    return SicGainBreakdown(float(decode[0]), tuple(levels), float(total))


def _sic_levels(decode: np.ndarray, q_single: float):
    """The levels i = 1..N of the SIC sum from the decode probabilities
    P_s,IC(eta, n), n = 0..N, along axis 0 of ``decode`` (any trailing
    shape): the chain-outage products prod_{n<i} (1 - P_s,IC(eta, n)), the
    cancel products prod_{n<=i} q_single^n with q_single = P_s,can(eta, 1),
    and the contributions outage * cancel * P_s,IC(eta, i)."""
    outage = (1.0 - decode[:-1]).cumprod(axis=0)
    cancel = (q_single ** np.arange(1, len(decode))).cumprod()
    cancel = cancel.reshape(cancel.shape + (1,) * (decode.ndim - 1))
    return outage, cancel, outage * cancel * decode[1:]


# ---------------------------------------------------------------------------
# Load model and rate coverage (minimum-load association)
# ---------------------------------------------------------------------------

_LOAD_SHAPE = 3.5  # Voronoi cell-area approximation parameter


def load_pmf(m: int, mu_j: float, lam: float) -> float:
    """PMF of the number of other users in the cell of a typical user
    (size-biased, user-anchored):

        f_M(m) = 3.5^3.5 / m! * Gamma(m + 4.5) / Gamma(3.5)
                 * (mu_j/lam)^m * (3.5 + mu_j/lam)^(-(m + 4.5)).

    Built on the 3.5-parameter gamma approximation of the Voronoi cell
    area distribution: the Poisson mixture over the area-biased gamma(4.5)
    cell, i.e. NB(4.5, 3.5/(3.5 + mu_j/lam)) with mean (9/7) mu_j/lam.
    Evaluated in log space.
    """
    _require_count("load m", m)
    _require_positive("mu_j", mu_j)
    _require_positive("lam", lam)
    return float(np.exp(_load_log_pmf(m, mu_j / lam)))


def _load_log_pmf(m, r: float):
    """log f_M(m) of :func:`load_pmf` at the loads ``m`` for r = mu_j/lam,
    with no two terms of size m log m to cancel (``poch`` and ``log1p``)."""
    c = _LOAD_SHAPE
    return (
        c * math.log(c) + np.log(poch(m + 1.0, c)) - math.lgamma(c)
        - m * math.log1p(c / r) - (c + 1.0) * math.log(c + r)
    )


_LOAD_M_CAP = 100_000  # largest load tabulated


def load_pmf_table(mu_j: float, lam: float, tail: float = 1e-12) -> np.ndarray:
    """PMF values f_M(0..M), M the first load at which the cumulative mass
    reaches 1 - ``tail``.  The loads are tabulated over 0..63, then 0..255,
    and so on up to ``_LOAD_M_CAP``; a law that still misses more than
    ``tail`` there raises DomainError."""
    _require_positive("mu_j", mu_j)
    _require_positive("lam", lam)
    r = mu_j / lam
    for size in (64, 256, 1024, 4096, 16384, 65536, _LOAD_M_CAP + 1):
        pmf = np.exp(_load_log_pmf(np.arange(size), r))
        cdf = np.cumsum(pmf)  # nondecreasing, so searchsorted finds the first M
        if cdf[-1] >= 1.0 - tail:
            return pmf[: np.searchsorted(cdf, 1.0 - tail) + 1]
    raise DomainError(
        f"the load law at mu_j/lam = {r:.6g} leaves mass {1.0 - cdf[-1]:.3g} "
        f"beyond m = {_LOAD_M_CAP}, more than the tail {tail:g}"
    )


def load_order_statistic_pmf(i: int, n_aps: int, cdf) -> np.ndarray:
    """PMF of the i-th smallest of ``n_aps`` iid loads at every m = 0..M,
    given the loads' CDF F(0..M) as an array.

    Beta-integral form: the regularized incomplete beta I_x(i, n-i+1)
    (``scipy.special.betainc``) at x = F(m), differenced in m; F(-1) = 0.
    """
    if not 1 <= i <= n_aps:
        raise DomainError(f"order statistic rank {i} outside 1..{n_aps}")
    x = np.clip(np.r_[0.0, cdf], 0.0, 1.0)
    return np.diff(betainc(i, n_aps - i + 1, x))


def _rate_thresholds(rho: float, n: int, alpha: float):
    """varsigma^(2/a) with varsigma = 2^(rho (m+1)) - 1 at the loads
    m = 0..n-1 where x = rho (m+1) ln 2 <= 700, and the mask of those loads;
    beyond, the coverage term is below any representable mass."""
    x = rho * np.arange(1, n + 1) * _LN2
    keep = x <= 700.0
    return np.expm1(x[keep]) ** (2.0 / alpha), keep


def rate_coverage_max_sir(rho: float, lam: float, mu_j: float, alpha: float) -> float:
    """Rate coverage P[(1/M') log2(1+SIR) > rho] under max-SIR association,
    M' = M + 1 counting the admitted user; the load M is mixed over f_M.

    At load m the nearest-BS link covers its SIR threshold
    varsigma = 2^(rho (m+1)) - 1 with the density-free probability
    1 / (1 + varsigma^(2/a) C(varsigma^(-2/a), a)).
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"rate threshold rho must be > 0, got {rho}")
    _require_positive("lam", lam)
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)
    pmf = load_pmf_table(mu_j, lam)
    t, keep = _rate_thresholds(rho, len(pmf), alpha)
    return float(np.sum(pmf[keep] / (1.0 + t * c_integral(1.0 / t, alpha))))


def rate_coverage_min_load(
    rho: float,
    lam: float,
    mu_j: float,
    alpha: float,
    r_con: float,
) -> float:
    """Rate coverage when the user connects to the least-loaded AP within
    ``r_con``.  The serving distance is uniform in the disk, giving the
    conditional coverage (1 - exp(-x)) / x with
    x = pi lam varsigma^(2/a) C(0, a) r_con^2; the load is the minimum of
    floor(lam pi r_con^2) iid draws from f_M.
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"rate threshold rho must be > 0, got {rho}")
    _require_positive("lam", lam)
    _require_positive("mu_j", mu_j)
    _check_alpha(alpha)
    _require_positive("r_con", r_con)
    n_aps = int(math.floor(lam * math.pi * r_con * r_con))
    if n_aps < 1:
        raise DomainError(
            f"connectivity range {r_con} m holds no AP on average "
            f"(lam pi r_con^2 = {lam * math.pi * r_con**2:.3f} < 1)"
        )
    pmf = load_pmf_table(mu_j, lam)
    t, keep = _rate_thresholds(rho, len(pmf), alpha)
    w = load_order_statistic_pmf(1, n_aps, np.cumsum(pmf))[keep]
    x = math.pi * lam * r_con * r_con * t * c_integral(0.0, alpha)
    cond = np.where(x > 1e-8, -np.expm1(-x) / x, 1.0 - 0.5 * x)
    return float(np.sum(w * cond))


# ---------------------------------------------------------------------------
# Maximum instantaneous SIR association
# ---------------------------------------------------------------------------


def outage_max_inst_sir(eta: float, cfg: NetworkConfig) -> float:
    """Outage probability when the user uplinks to whichever AP currently
    offers the best SIR:

        P_out = exp(- sum_j lam_j Q_j^(2/a)
                    / (eta^(2/a) C(0, a) sum_i mu_i Q_i^(2/a)))

    with per-tier user densities mu_i = p_a,i * mu: the exponent is w /
    (eta^(2/a) C(0, a)), in the w of ``model._uplink_field``.  Assumes the
    per-AP SIRs are independent, which is exact for eta > 1.
    """
    _require_positive("eta", eta)
    lam_ul, mu_eq = _uplink_field(cfg)
    c0 = c_integral(0.0, cfg.alpha)
    return math.exp(-lam_ul / (eta ** (2.0 / cfg.alpha) * c0 * mu_eq))


def _sic_gain_integral(eta: float, n_max: int, alpha: float) -> float:
    """int_0^inf P_gain(eta, N | tau) dtau in the scaled variable
    tau = pi mu_tilde u^2; the cancellation disks map to integers."""
    e = 2.0 / alpha
    eta_e = eta**e
    q_single = ps_can(eta, 1, alpha)
    orders = np.arange(n_max + 1, dtype=float)[:, None]

    def integrand(tau: np.ndarray) -> np.ndarray:
        # decode factor of order n (row n) at every node; nodes are interior, tau > 0
        factors = np.exp(-eta_e * c_integral(orders / (eta_e * tau), alpha) * tau)
        return _sic_levels(factors, q_single)[2].sum(axis=0)

    c0 = c_integral(0.0, alpha)
    tau_max = 2.0 * n_max / eta_e + 120.0 / (eta_e * c0)
    return adaptive_gauss(integrand, 0.0, tau_max)


def ps_sic_max_inst_sir(
    eta: float,
    n_max: int,
    cfg: NetworkConfig,
) -> float:
    """Success probability of the max-instantaneous-SIR policy with SIC:

        P_s = 1 - P_out(eta) * prod_k exp(-2 pi lam_k int_0^inf P_gain u du),

    where each tier-k factor uses the equivalent network referenced to that
    tier's UL power (interferer density mu_tilde_k, cancellation radii from
    mu_tilde_k); in tau = pi mu_tilde_k u^2 the factors multiply to exp(-w
    int P_gain dtau) (``model._uplink_field``).  SIC can only help: the
    result is >= 1 - P_out.
    """
    _require_positive("eta", eta)
    _require_count("n_max", n_max)
    p_out = outage_max_inst_sir(eta, cfg)
    if n_max == 0:
        return 1.0 - p_out
    lam_ul, mu_eq = _uplink_field(cfg)
    gain_integral = _sic_gain_integral(eta, n_max, cfg.alpha)
    return 1.0 - p_out * math.exp(-lam_ul / mu_eq * gain_integral)


# ---------------------------------------------------------------------------
# Range expansion
# ---------------------------------------------------------------------------


def ps_ic_rea(eta, cfg: NetworkConfig, k: int, cancelled: int):
    """DL success probability for users in tier k's range-expanded area, at
    a threshold ``eta`` or an array of them (a float for a scalar).

    Both cases are differences of two PGFL terms mixed over the REA serving
    distance (Haenggi, *Stochastic Geometry for Wireless Networks*, 2012,
    ch. 4 and 5), over the REA association probability, in the weights of
    :func:`model._rea_weights` with delta = 2/alpha:

        (1 / sum_i w_i (eta^delta C(c_i / eta^delta) + m_i)
         - 1 / sum_i w_i (eta^delta C(M_i / eta^delta) + M_i)) / p_REA,k.

    The first term carries the biased-association empty disks, the second
    subtracts the configurations in which tier k also wins unbiased: given
    that, tier i is empty out to its joint exclusion M_i, so its residual
    field starts there.  ``cancelled=0`` keeps every interfering AP, c_i =
    m_i.  ``cancelled=1`` removes every tier's unbiased-stronger APs (the
    closed form's model of canceling the dominant AP), c_i = M_i.  Where
    every b_i <= b_k, M_i = 1.  Reusing the biased exclusion in the second
    term instead overstates the success probability substantially (by ~0.17
    at b=5, eta=1 in the two-tier reference scenario).  One array call of
    :func:`c_integral` covers every threshold and tier.
    """
    etas = np.asarray(eta, dtype=float)
    for value in etas.flat:
        _require_positive("eta", float(value))
    if cancelled not in (0, 1):
        raise DomainError(f"cancelled must be 0 or 1, got {cancelled}")
    p_re = rea_association_prob(cfg, k)
    if p_re <= 1e-15:
        raise DegenerateReaError(
            f"tier {k + 1} has an empty range-expanded area; REA success undefined"
        )
    weights = _rea_weights(cfg, k)
    eta_e = etas[..., None, None] ** (2.0 / cfg.alpha)
    # the C arguments c_i and M_i: rows m and M, or the row M alone, which
    # broadcasts to both
    c = c_integral(weights[1 + cancelled:] / eta_e, cfg.alpha)
    inv = 1.0 / (eta_e * c + weights[1:]).dot(weights[0])
    out = (inv[..., 0] - inv[..., 1]) / p_re
    return float(out) if out.ndim == 0 else out
