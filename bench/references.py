"""Reference values computed apart from sicnet.

Every closed form sicnet evaluates is re-derived here from the formula its
docstring states, at path-loss exponent 4 where C(b, 4) = arctan(1/b), with
scipy quadrature and scipy.stats laws instead of sicnet's own kernel and
quadrature.  The general C(b, alpha) comes from mpmath at 40 digits through
the regularized incomplete beta function,

    C(b, alpha) = C(0, alpha) * I_x(1 - 2/alpha, 2/alpha),  x = 1/(1 + b^(alpha/2)),

which has no cancellation at large b.  :func:`self_check` ties each route to
values known in closed form, so a wrong reference fails loudly before any
program output is judged by it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, stats

HALF_PI = 0.5 * math.pi
LOAD_SHAPE = 3.5  # gamma shape of the Voronoi cell-area approximation


def c_mp(b: float, alpha: float) -> float:
    """C(b, alpha) from mpmath at 40 digits (incomplete-beta route)."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        x = 1 / (1 + mpmath.mpf(b) ** (a / 2))
        c0 = (2 * mpmath.pi / a) / mpmath.sin(2 * mpmath.pi / a)
        return float(c0 * mpmath.betainc(1 - 2 / a, 2 / a, 0, x, regularized=True))


def c_quad_mp(b: float, alpha: float) -> float:
    """C(b, alpha) by mpmath tanh-sinh quadrature of the defining integral."""
    with mpmath.workdps(30):
        h = mpmath.mpf(alpha) / 2
        return float(mpmath.quad(lambda w: 1 / (1 + w**h), [b, 2 * b + 1, mpmath.inf]))


def c4(b):
    """C(b, 4) = arctan(1/b), with C(0, 4) = pi/2; accepts arrays."""
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(b == 0.0, HALF_PI, np.arctan(1.0 / b))


# ---------------------------------------------------------------------------
# Single-tier laws (alpha = 4)
# ---------------------------------------------------------------------------


def ps_can(eta: float, n: int) -> float:
    """Exact law of decoding the n-th nearest node of a Rayleigh-faded PPP
    against all farther ones: (1 + eta^(1/2) C(eta^(-1/2), 4))^(-n)."""
    s = math.sqrt(eta)
    return (1.0 + s * float(c4(1.0 / s))) ** -n


def ps_can_tsd(eta: float, n: int) -> float:
    return (math.sqrt(2.25 + 3.0 * eta) - 0.5) ** -n


def strongest(eta: float) -> float:
    """Exact law of decoding the strongest node at eta >= 1:
    eta^(-delta) sin(pi delta)/(pi delta), delta = 2/alpha = 1/2."""
    if eta < 1.0:
        raise ValueError("the strongest-node law needs eta >= 1")
    delta = 0.5
    return eta**-delta * math.sin(math.pi * delta) / (math.pi * delta)


def plain(eta: float, lambda_eq: float, mu_j: float) -> float:
    """Success without cancellation: lambda_eq / (lambda_eq + mu_j eta^(1/2) C(0, 4))."""
    return lambda_eq / (lambda_eq + mu_j * math.sqrt(eta) * HALF_PI)


def _quad(f, lo: float, hi: float = math.inf) -> float:
    value, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
    return value


def ps_ic(eta: float, n: int, lambda_eq: float, mu_j: float) -> float:
    """Decode after n cancellations, in tau = pi lambda_eq u^2 from the
    un-renormalized cancellation radius tau0 = n lambda_eq / mu_j."""
    s = math.sqrt(eta)
    ratio = mu_j / lambda_eq

    def f(t):
        b = n / (s * ratio * t) if n else 0.0
        return math.exp(-ratio * s * float(c4(b)) * t - t)

    return _quad(f, n / ratio)


def ps_sic(eta: float, n_max: int, lambda_eq: float, mu_j: float) -> list[float]:
    """P_s,SIC for every budget N = 0..n_max:
    P_s + sum_i prod_{n<i}(1 - P_IC(n)) prod_{n<=i} P_can(n) P_IC(i)."""
    p_ic = [ps_ic(eta, n, lambda_eq, mu_j) for n in range(n_max + 1)]
    totals = [p_ic[0]]
    outage = 1.0
    cancel = 1.0
    for i in range(1, n_max + 1):
        outage *= 1.0 - p_ic[i - 1]
        cancel *= ps_can(eta, i)
        totals.append(totals[-1] + outage * cancel * p_ic[i])
    return totals


# ---------------------------------------------------------------------------
# Load law and rate coverage (alpha = 4)
# ---------------------------------------------------------------------------


def load_law(mu_j: float, lam: float):
    """User-anchored cell load: NB(4.5, 3.5/(3.5 + mu_j/lam))."""
    r = mu_j / lam
    return stats.nbinom(LOAD_SHAPE + 1.0, LOAD_SHAPE / (LOAD_SHAPE + r))


def _load_support(law) -> np.ndarray:
    return np.arange(int(law.isf(1e-18)) + 2)


def _rate_threshold(rho: float, m: np.ndarray) -> np.ndarray:
    return np.expm1(rho * (m + 1) * math.log(2.0))


def rate_coverage_max_sir(rho: float, lam: float, mu_j: float) -> float:
    """sum_m f_M(m) / (1 + s^(1/2) C(s^(-1/2), 4)), s = 2^(rho (m+1)) - 1."""
    law = load_law(mu_j, lam)
    m = _load_support(law)
    root = np.sqrt(_rate_threshold(rho, m))
    return float(np.sum(law.pmf(m) / (1.0 + root * c4(1.0 / root))))


def rate_coverage_min_load(rho: float, lam: float, mu_j: float, r_con: float) -> float:
    """Minimum of floor(lam pi r_con^2) iid loads; serving distance uniform
    in the disk, conditional coverage (1 - e^-x)/x, x = pi lam s^(1/2) C(0, 4) r_con^2."""
    n_aps = math.floor(lam * math.pi * r_con * r_con)
    law = load_law(mu_j, lam)
    m = _load_support(law)
    p_min = law.sf(m - 1) ** n_aps - law.sf(m) ** n_aps
    x = math.pi * lam * np.sqrt(_rate_threshold(rho, m)) * HALF_PI * r_con * r_con
    return float(np.sum(p_min * -np.expm1(-x) / x))


# ---------------------------------------------------------------------------
# Multi-tier laws (alpha = 4); a tier is (lam, p_dl, q_ul, bias)
# ---------------------------------------------------------------------------


def _assoc_max_power(tiers, k: int) -> float:
    lam_k, p_k = tiers[k][0], tiers[k][1]
    return lam_k / sum(t[0] * math.sqrt(t[1] / p_k) for t in tiers)


def outage_max_inst_sir(eta: float, tiers, mu: float) -> float:
    """exp(-sum_j lam_j Q_j^(1/2) / (eta^(1/2) C(0, 4) sum_i mu_i Q_i^(1/2))),
    mu_i = p_a,i mu under max-mean-power association."""
    num = sum(t[0] * math.sqrt(t[2]) for t in tiers)
    den = sum(_assoc_max_power(tiers, i) * mu * math.sqrt(t[2]) for i, t in enumerate(tiers))
    return math.exp(-num / (math.sqrt(eta) * HALF_PI * den))


def ps_sic_max_inst_sir(eta: float, n_max: int, tiers, mu: float) -> float:
    """1 - P_out prod_k exp(-(lam_k / mu_tilde_k) int_0^inf P_gain(tau) dtau),
    with tau = pi mu_tilde_k u^2, mu_tilde_k = sum_i mu_i (Q_i/Q_k)^(1/2),
    and P_gain the chain gain of N cancellations at cancellation radii that
    map to tau = n."""
    p_out = outage_max_inst_sir(eta, tiers, mu)
    if n_max == 0:
        return 1.0 - p_out
    s = math.sqrt(eta)
    q = ps_can(eta, 1)

    def decode(n: int, t: float) -> float:
        return math.exp(-s * float(c4(n / (s * t) if n else 0.0)) * t)

    def gain(t: float) -> float:
        if t == 0.0:
            return 0.0
        total = 0.0
        outage = 1.0
        for i in range(1, n_max + 1):
            outage *= 1.0 - decode(i - 1, t)
            total += outage * q ** (i * (i + 1) // 2) * decode(i, t)
        return total

    g = _quad(gain, 0.0)
    mu_i = [_assoc_max_power(tiers, i) * mu for i in range(len(tiers))]
    log_factor = 0.0
    for k, tier in enumerate(tiers):
        mu_tilde = sum(m * math.sqrt(t[2] / tier[2]) for m, t in zip(mu_i, tiers))
        log_factor -= tier[0] / mu_tilde * g
    return 1.0 - p_out * math.exp(log_factor)


def _assoc_biased(tiers, k: int, bias_k: float) -> float:
    lam_k, p_k = tiers[k][0], tiers[k][1]
    den = 0.0
    for i, t in enumerate(tiers):
        b_i = bias_k if i == k else t[3]
        den += t[0] * math.sqrt(t[1] * b_i / (p_k * bias_k))
    return lam_k / den


def ps_ic_rea(eta: float, tiers, k: int, cancelled: int) -> float:
    """(1/S_biased - 1/S_unit) / p_RE with w_t = (lam_t/lam_k)(P_t/P_k)^(1/2),
    S_biased = sum_t w_t (eta^(1/2) C(c_t, 4) + (b_t/b_k)^(1/2)) and
    S_unit = sum_t w_t (eta^(1/2) C(eta^(-1/2), 4) + 1), where c_t is
    (b_t/(eta b_k))^(1/2) without cancellation and eta^(-1/2) with it."""
    s = math.sqrt(eta)
    ref = tiers[k]
    p_re = 1.0 - _assoc_biased(tiers, k, 1.0) - sum(
        _assoc_biased(tiers, i, tiers[i][3]) for i in range(len(tiers)) if i != k
    )
    s_biased = 0.0
    s_unit = 0.0
    for t in tiers:
        w = (t[0] / ref[0]) * math.sqrt(t[1] / ref[1])
        c_first = 1.0 / s if cancelled else math.sqrt(t[3] / (eta * ref[3]))
        s_biased += w * (s * float(c4(c_first)) + math.sqrt(t[3] / ref[3]))
        s_unit += w * (s * float(c4(1.0 / s)) + 1.0)
    return (1.0 / s_biased - 1.0 / s_unit) / p_re


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------


def self_check() -> None:
    """Check every reference route against values known in closed form;
    raise RuntimeError on the first miss."""

    def expect(name: str, got: float, want: float, rel: float) -> None:
        if not abs(got - want) <= rel * abs(want):
            raise RuntimeError(f"reference self-check failed: {name}: {got!r} != {want!r}")

    for alpha in (2.5, 3.0, 4.0, 6.0, 8.0):
        x = 2.0 * math.pi / alpha
        expect(f"C(0, {alpha})", c_mp(0.0, alpha), x / math.sin(x), 1e-14)
    for b in (1e-3, 0.5, 1.0, 10.0, 1e4, 1e8):
        expect(f"mpmath C({b}, 4)", c_mp(b, 4.0), math.atan(1.0 / b), 1e-14)
        expect(f"numpy C({b}, 4)", float(c4(b)), math.atan(1.0 / b), 1e-14)
    for b, alpha in ((0.5, 3.0), (10.0, 8.0)):
        expect(f"quadrature C({b}, {alpha})", c_mp(b, alpha), c_quad_mp(b, alpha), 1e-12)
    expect("strongest-node law at 0 dB", strongest(1.0), 2.0 / math.pi, 1e-15)
    expect("P_can(1, 2) general route", ps_can(1.0, 2), (1.0 + c_mp(1.0, 4.0)) ** -2, 1e-14)
    for eta in (0.1, 1.0, 10.0):
        expect(f"P_IC({eta}, 0) vs plain law", ps_ic(eta, 0, 1e-4, 2e-4), plain(eta, 1e-4, 2e-4), 1e-10)
    law = load_law(5e-5, 1e-5)
    expect("nbinom(4.5, .) mean", float(law.mean()), 9.0 / 7.0 * 5.0, 1e-12)
    m = _load_support(law)
    expect("load law mass", float(law.pmf(m).sum()), 1.0, 1e-14)
    expect("load law mean by summation", float((m * law.pmf(m)).sum()), 9.0 / 7.0 * 5.0, 1e-12)
