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
from scipy.special import betainc

from .errors import DegenerateReaError, DomainError
from .model import (
    NetworkConfig,
    association_prob_max_power,
    cancellation_radius,
    equivalent_density,
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
    "tsd_cumulant",
    "tsd_conditional_cancel_prob",
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


def _check_eta(eta: float) -> None:
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"eta must be finite and > 0, got {eta}")


def _check_density(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value}")


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise DomainError(f"alpha must be > 2, got {alpha}")


# ---------------------------------------------------------------------------
# Decoding with and without cancellation (max-mean-power association)
# ---------------------------------------------------------------------------


def ps_plain(eta: float, lambda_eq: float, mu_j: float, alpha: float) -> float:
    """Success probability without interference cancellation:

        P_s = lambda_eq / (lambda_eq + mu_j eta^(2/alpha) C(0, alpha)).

    This is the n = 0 case of the decode integral, evaluated in closed form.
    """
    _check_eta(eta)
    _check_density("lambda_eq", lambda_eq)
    _check_density("mu_j", mu_j)
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
    _check_eta(eta)
    if n < 0:
        raise DomainError(f"cancellation order n must be >= 0, got {n}")
    _check_density("lambda_eq", lambda_eq)
    _check_density("mu_j", mu_j)
    _check_alpha(alpha)

    e = 2.0 / alpha
    eta_e = eta**e
    ratio = mu_j / lambda_eq
    # tau = pi lambda_eq u^2; the cancellation disk maps to tau0
    tau0 = lambda_eq * n / mu_j  # pi lambda_eq R_{I,n}^2
    rho0 = float(n)              # pi mu_j R_{I,n}^2

    def integrand(tau: np.ndarray) -> np.ndarray:
        # Gauss nodes are interior, so tau > tau0 >= 0
        c_val = c_integral(rho0 / (eta_e * ratio * tau), alpha)
        return np.exp(-ratio * eta_e * c_val * tau - tau)

    tau_max = tau0 + 60.0 + 10.0 * math.sqrt(tau0 + 1.0)
    return adaptive_gauss(integrand, tau0, tau_max)


def ps_can(eta: float, n: int, alpha: float) -> float:
    """Probability of decoding (and canceling) the n-th strongest signal,
    given the n-1 stronger ones are gone:

        P_s,can(eta, n) = (1 + eta^(2/a) C(eta^(-2/a), a))^(-n).

    Geometric in n and independent of the interferer density.
    """
    _check_eta(eta)
    _check_alpha(alpha)
    if n < 0:
        raise DomainError(f"order n must be >= 0, got {n}")
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
    if n < 0:
        raise DomainError(f"order n must be >= 0, got {n}")
    if n == 0:
        return 1.0
    return (math.sqrt(2.25 + 3.0 * eta) - 0.5) ** -n


def tsd_cumulant(
    k: int,
    q: float,
    mu_j: float,
    d_min: float,
    alpha: float,
    fading_moment: float,
) -> float:
    """k-th cumulant of the aggregate interference from a Poisson field with
    an inner exclusion radius d_min:

        kappa(k) = Q^k * 2 pi mu_j / (k alpha - 2) * d_min^(2 - k alpha) * E[h^k].

    For unit-mean Rayleigh power fading E[h^k] = k!.
    """
    if k < 1:
        raise DomainError(f"cumulant order k must be >= 1, got {k}")
    _check_density("q", q)
    _check_density("mu_j", mu_j)
    _check_density("d_min", d_min)
    _check_alpha(alpha)
    if k * alpha <= 2.0:
        raise DomainError(f"k*alpha={k * alpha} must exceed 2 for a finite cumulant")
    if not (math.isfinite(fading_moment) and fading_moment > 0.0):
        raise DomainError(f"fading_moment must be > 0, got {fading_moment}")
    return q**k * 2.0 * math.pi * mu_j / (k * alpha - 2.0) * d_min ** (2.0 - k * alpha) * fading_moment


def tsd_conditional_cancel_prob(eta: float, mu_j: float, r: float) -> float:
    """Cancel probability conditioned on the exclusion radius r (alpha = 4):

        exp(-(3/2) mu_j pi r^2 (sqrt(1 + 4 eta / 3) - 1)).
    """
    if not (math.isfinite(eta) and eta >= 0.0):
        raise DomainError(f"eta must be >= 0, got {eta}")
    _check_density("mu_j", mu_j)
    if r < 0.0:
        raise DomainError(f"radius must be >= 0, got {r}")
    return math.exp(-1.5 * mu_j * math.pi * r * r * (math.sqrt(1.0 + 4.0 * eta / 3.0) - 1.0))


def kurtosis_after_cancellation(alpha: float, n: int) -> float:
    """Excess kurtosis of the residual interference once n interferers are
    gone: gamma_2(alpha, n) = 6 (alpha-1)^2 / (2 alpha - 1) / (n - 1).

    Decays like 1/n: the residual converges to a Gaussian.
    """
    _check_alpha(alpha)
    if n < 2:
        raise DomainError(f"kurtosis needs n >= 2 canceled interferers, got {n}")
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
    Every P_s,IC term is a :func:`ps_ic` quadrature at default tolerances.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    ps_ic_vals = [ps_ic(eta, n, lambda_eq, mu_j, alpha) for n in range(n_max + 1)]
    ps_no_ic = ps_ic_vals[0]
    q_single = ps_can(eta, 1, alpha) if n_max >= 1 else 1.0
    levels = []
    total = ps_no_ic
    outage_prod = 1.0
    cancel_prod = 1.0
    for i in range(1, n_max + 1):
        outage_prod *= 1.0 - ps_ic_vals[i - 1]
        cancel_prod *= q_single**i  # P_s,can(eta, i) appended to the product
        contribution = outage_prod * cancel_prod * ps_ic_vals[i]
        levels.append(
            SicLevel(
                level=i,
                chain_outage_product=outage_prod,
                cancel_product=cancel_prod,
                decode_after=ps_ic_vals[i],
                level_contribution=contribution,
            )
        )
        total += contribution
    return SicGainBreakdown(ps_no_ic=ps_no_ic, per_level=tuple(levels), ps_sic_total=total)


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
    if m < 0:
        raise DomainError(f"load m must be >= 0, got {m}")
    _check_density("mu_j", mu_j)
    _check_density("lam", lam)
    r = mu_j / lam
    c = _LOAD_SHAPE
    log_f = (
        c * math.log(c)
        + math.lgamma(m + c + 1.0)
        - math.lgamma(m + 1.0)
        - math.lgamma(c)
        + (m * math.log(r) if m > 0 else 0.0)
        - (m + c + 1.0) * math.log(c + r)
    )
    return math.exp(log_f)


_LOAD_M_CAP = 100_000  # largest load tabulated, whatever the tail


def load_pmf_table(mu_j: float, lam: float, tail: float = 1e-12) -> np.ndarray:
    """PMF values f_M(0..M) with M chosen so the omitted tail mass < ``tail``
    (M at most ``_LOAD_M_CAP``)."""
    values = []
    cumulative = 0.0
    for m in range(_LOAD_M_CAP + 1):
        f = load_pmf(m, mu_j, lam)
        values.append(f)
        cumulative += f
        if cumulative >= 1.0 - tail:
            break
    return np.asarray(values)


def load_order_statistic_pmf(i: int, m: int, n_aps: int, load_cdf) -> float:
    """PMF of the i-th smallest of ``n_aps`` iid loads at value m.

    Beta-integral form: the regularized incomplete beta I_x(i, n-i+1)
    (``scipy.special.betainc``) evaluated at x = F(m) and x = F(m-1) and
    differenced.
    """
    if not 1 <= i <= n_aps:
        raise DomainError(f"order statistic rank {i} outside 1..{n_aps}")
    if m < 0:
        raise DomainError(f"load m must be >= 0, got {m}")
    x = [float(load_cdf(m - 1)) if m > 0 else 0.0, float(load_cdf(m))]
    lo, hi = betainc(i, n_aps - i + 1, np.clip(x, 0.0, 1.0))
    return float(hi - lo)


def _rate_threshold(rho: float, m_plus_one: int) -> float:
    """varsigma = 2^(rho (m+1)) - 1 with overflow care."""
    x = rho * m_plus_one * _LN2
    if x > 700.0:
        return math.inf
    return math.expm1(x)


def rate_coverage_max_sir(rho: float, lam: float, mu_j: float, alpha: float) -> float:
    """Rate coverage P[(1/M') log2(1+SIR) > rho] under max-SIR association,
    M' = M + 1 counting the admitted user; the load M is mixed over f_M.

    At load m the nearest-BS link covers its SIR threshold
    varsigma = 2^(rho (m+1)) - 1 with the density-free probability
    1 / (1 + varsigma^(2/a) C(varsigma^(-2/a), a)).
    """
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError(f"rate threshold rho must be > 0, got {rho}")
    _check_density("lam", lam)
    _check_density("mu_j", mu_j)
    _check_alpha(alpha)
    pmf = load_pmf_table(mu_j, lam)
    x = rho * np.arange(1, len(pmf) + 1) * _LN2
    keep = x <= 700.0  # beyond, the coverage term is below any representable mass
    t = np.expm1(x[keep]) ** (2.0 / alpha)
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
    _check_density("lam", lam)
    _check_density("mu_j", mu_j)
    _check_alpha(alpha)
    _check_density("r_con", r_con)
    n_aps = int(math.floor(lam * math.pi * r_con * r_con))
    if n_aps < 1:
        raise DomainError(
            f"connectivity range {r_con} m holds no AP on average "
            f"(lam pi r_con^2 = {lam * math.pi * r_con**2:.3f} < 1)"
        )
    pmf = load_pmf_table(mu_j, lam)
    cdf = np.cumsum(pmf)

    def load_cdf(m: int) -> float:
        if m < 0:
            return 0.0
        return float(cdf[min(m, len(cdf) - 1)])

    c0 = c_integral(0.0, alpha)
    e = 2.0 / alpha
    disk = math.pi * lam * r_con * r_con
    total = 0.0
    for m in range(len(pmf)):
        w = load_order_statistic_pmf(1, m, n_aps, load_cdf)
        if w <= 0.0:
            continue
        varsigma = _rate_threshold(rho, m + 1)
        if math.isinf(varsigma):
            continue
        x = disk * varsigma**e * c0
        cond = -math.expm1(-x) / x if x > 1e-8 else 1.0 - 0.5 * x
        total += w * cond
    return total


# ---------------------------------------------------------------------------
# Maximum instantaneous SIR association
# ---------------------------------------------------------------------------


def outage_max_inst_sir(eta: float, cfg: NetworkConfig) -> float:
    """Outage probability when the user uplinks to whichever AP currently
    offers the best SIR:

        P_out = exp(- sum_j lam_j Q_j^(2/a)
                    / (eta^(2/a) C(0, a) sum_i mu_i Q_i^(2/a)))

    with per-tier user densities mu_i = p_a,i * mu.  Assumes the per-AP
    SIRs are independent, which is exact for eta > 1.
    """
    _check_eta(eta)
    e = 2.0 / cfg.alpha
    num = sum(t.lam * t.q_ul**e for t in cfg.tiers)
    den = sum(
        association_prob_max_power(cfg, i) * cfg.mu * cfg.tiers[i].q_ul**e
        for i in range(cfg.n_tiers)
    )
    c0 = c_integral(0.0, cfg.alpha)
    return math.exp(-num / (eta**e * c0 * den))


def _sic_gain_integral(eta: float, n_max: int, alpha: float) -> float:
    """int_0^inf P_gain(eta, N | tau) dtau in the scaled variable
    tau = pi mu_tilde u^2; the cancellation disks map to integers."""
    e = 2.0 / alpha
    eta_e = eta**e
    q_single = ps_can(eta, 1, alpha)
    orders = np.arange(n_max + 1, dtype=float)[:, None]

    def integrand(tau: np.ndarray) -> np.ndarray:
        gain = np.zeros_like(tau)
        outage_prod = np.ones_like(tau)
        cancel_prod = 1.0
        # decode factor of order n (row n) at every node; nodes are interior, tau > 0
        factors = np.exp(-eta_e * c_integral(orders / (eta_e * tau), alpha) * tau)
        for i in range(1, n_max + 1):
            outage_prod = outage_prod * (1.0 - factors[i - 1])
            cancel_prod *= q_single**i
            gain = gain + outage_prod * cancel_prod * factors[i]
        return gain

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
    mu_tilde_k).  SIC can only help: the result is >= 1 - P_out.
    """
    _check_eta(eta)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    p_out = outage_max_inst_sir(eta, cfg)
    if n_max == 0:
        return 1.0 - p_out
    eq = equivalent_density(cfg)
    gain_integral = _sic_gain_integral(eta, n_max, cfg.alpha)
    log_factor = 0.0
    for k, tier in enumerate(cfg.tiers):
        # 2 pi lam_k int P_gain u du = (lam_k / mu_tilde_k) int P_gain dtau
        log_factor -= tier.lam / eq.mu_tilde[k] * gain_integral
    return 1.0 - p_out * math.exp(log_factor)


# ---------------------------------------------------------------------------
# Range expansion
# ---------------------------------------------------------------------------


def ps_ic_rea(
    eta: float,
    cfg: NetworkConfig,
    k: int,
    cancelled: int,
) -> float:
    """DL success probability for users in tier k's range-expanded area.

    Both cases are differences of two PGFL terms mixed over the REA serving
    distance: the first term carries the biased-association empty disks,
    the second subtracts the configurations whose unbiased winner is also
    tier k.  ``cancelled=1`` removes every tier's unbiased-stronger APs
    (the closed form's model of canceling the dominant AP), which turns the
    C-function argument into eta^(-2/alpha) everywhere.

    For ``cancelled=0`` the exact second term also uses the unbiased
    exclusion (argument eta^(-2/alpha)): conditioning on "no AP would win
    unbiased" empties the disk out to the unbiased radius, so the residual
    field starts there.  Reusing the biased exclusion argument in the
    second term instead overstates the success probability substantially
    (by ~0.17 at b=5, eta=1 in the two-tier reference scenario).
    """
    _check_eta(eta)
    cfg.check_tier(k)
    if cancelled not in (0, 1):
        raise DomainError(f"cancelled must be 0 or 1, got {cancelled}")
    p_re = rea_association_prob(cfg, k)
    if p_re <= 1e-15:
        raise DegenerateReaError(
            f"tier {k} has an empty range-expanded area; REA success undefined"
        )
    e = 2.0 / cfg.alpha
    eta_e = eta**e
    ref = cfg.tiers[k]
    c_second = [eta**-e] * cfg.n_tiers
    if cancelled:
        c_first = c_second
    else:
        c_first = [(t.bias / (eta * ref.bias)) ** e for t in cfg.tiers]
    # one array call per side; the tiers are summed in order below
    c_first = c_integral(np.array(c_first), cfg.alpha).tolist()
    c_second = c_integral(np.array(c_second), cfg.alpha).tolist()
    sum_biased = 0.0
    sum_unit = 0.0
    for t, c1, c2 in zip(cfg.tiers, c_first, c_second):
        w = (t.lam / ref.lam) * (t.p_dl / ref.p_dl) ** e
        sum_biased += w * (eta_e * c1 + (t.bias / ref.bias) ** e)
        sum_unit += w * (eta_e * c2 + 1.0)
    return (1.0 / sum_biased - 1.0 / sum_unit) / p_re
