"""Special-function kernel for interference integrals.

The central object is

    C(b, alpha) = int_b^inf dw / (1 + w^(alpha/2))
                = C(0, alpha) * I_x(1 - 2/alpha, 2/alpha),  x = 1/(1 + b^(alpha/2)),

with C(0, alpha) = (2*pi/alpha) * csc(2*pi/alpha) and I_x the regularized
incomplete beta function (DLMF 8.17; substitute t = 1/(1 + w^(alpha/2))).
It shows up in every probability-generating-functional bound on the
aggregate interference seen from a Poisson field with path-loss exponent
``alpha``.  Special value used throughout: C(b, 4) = arctan(1/b).

Two independent evaluation routes are provided: the closed form
(:func:`c_integral`, scalar or array ``b``) and an adaptive
nested-Gauss panel integration with an analytic alternating-series tail
(:func:`c_integral_quadrature`).  The two must agree; the validation suite
checks them against each other.

The closed form itself has two routes: ``np.arctan2(1, b)`` at alpha = 4,
which every figure uses, and the incomplete beta (:func:`_c_betainc`) at
every other alpha.  :func:`_c_betainc` stays the oracle of the arctan
identity in the validation suite.

Every integral of the library runs on one engine, :func:`adaptive_gauss`:
K integrals in lockstep, each with its own greedy G7/G15 bisection, and
one integrand call per round for both halves of every row's worst panel.
Scalar bounds are the one-row case.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc

from .errors import DomainError, NumericsError

__all__ = [
    "QuadratureSettings",
    "DEFAULT_QUADRATURE",
    "adaptive_gauss",
    "c_integral",
    "c_integral_quadrature",
    "pareto_received_power_cdf",
]


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and budget for adaptive panel integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 400

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


DEFAULT_QUADRATURE = QuadratureSettings()

# Nested Gauss-Legendre pair: the 7-point rule embedded in a 15-point panel
# supplies the per-panel error estimate (Gauss-Kronrod-style adaptivity with
# machine-exact nodes from numpy instead of tabulated Kronrod abscissae).
_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)
_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)
# both node sets in one array, so a panel makes one integrand call
_G7_G15_X = np.concatenate((_G7_X, _G15_X))


def adaptive_gauss(f, a, b, settings: QuadratureSettings = DEFAULT_QUADRATURE):
    """Integrate a vectorized callable ``f`` over the finite interval [a, b].

    Bisects the panel with the largest |G15 - G7| discrepancy until the
    summed error estimate drops below max(abs_tol, rel_tol * |integral|).
    Raises :class:`NumericsError` when the subdivision budget is exhausted.

    Array bounds (1-D, broadcast against each other) integrate K integrals
    in lockstep and return an array of K values; scalar bounds are one such
    row and return a float.  Row k keeps its own heap, tolerance,
    subdivision budget and bisection order.  The first call of ``f`` is on
    a (K, 22) node array, the concatenated G7 and G15 nodes of every whole
    interval; then each round bisects the worst panel of every unconverged
    row, with one call of ``f`` on a (K, 44) node array, the left half's
    22 nodes and then the right half's.  Row k belongs to integral k, so
    ``f`` must broadcast its per-integral parameters along axis 0.  Scalar
    bounds hand ``f`` the one row as a 1-D array instead.  A converged row
    is evaluated again at its last panels and the values are discarded.
    An empty row (b <= a) integrates to 0, though ``f`` still sees its
    nodes, which lie in [b, a]; a budget or bounds error names its row.
    """
    scalar = np.ndim(a) == np.ndim(b) == 0
    if scalar:
        scalar_f = f
        f = lambda x: scalar_f(x[0])[None]
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)), np.asarray(b, dtype=float))
    if a.ndim != 1:
        raise DomainError(f"integration bounds must be scalars or 1-D, got shape {a.shape}")
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        k = int(bad.argmax())
        raise DomainError(f"integration bounds of row {k} must be finite, got [{a[k]}, {b[k]}]")
    if (b <= a).all():
        return 0.0 if scalar else np.zeros(len(a))

    def unconverged(k: int) -> bool:
        total_val, total_err = totals[k]
        return total_err > max(settings.abs_tol, settings.rel_tol * abs(total_val))

    vals, errs = _row_panels(f, a[:, None], b[:, None])
    totals = [[v, e] for (v,), (e,) in zip(vals, errs)]
    # heaps keyed on -error; the counter breaks ties deterministically
    heaps = [[(-e, 0, lo, hi, v, e)] for lo, hi, (v, e) in zip(a.tolist(), b.tolist(), totals)]
    counts = [1] * len(a)
    # each row's (lo, mid, mid, hi): its left and right panels in a round; a
    # converged row keeps its last ones, its whole interval twice to start with
    halves = np.column_stack((a, b, a, b)).tolist()
    rows = [k for k in np.flatnonzero(b > a).tolist() if unconverged(k)]
    while rows:
        popped = []
        for k in rows:
            if counts[k] >= settings.max_subdivisions:
                raise NumericsError(
                    f"adaptive_gauss: row {k}: error {totals[k][1]:.3e} above tolerance "
                    f"after {counts[k]} subdivisions on [{a[k]}, {b[k]}]"
                )
            _, _, lo, hi, v, e = heapq.heappop(heaps[k])
            mid = 0.5 * (lo + hi)
            halves[k] = lo, mid, mid, hi
            popped.append((k, v, e))
        x = np.array(halves)
        vals, errs = _row_panels(f, x[:, 0::2], x[:, 1::2])
        for k, v, e in popped:
            lo, mid, _, hi = halves[k]
            (v1, v2), (e1, e2) = vals[k], errs[k]
            total, count = totals[k], counts[k]
            total[0] += v1 + v2 - v
            total[1] += e1 + e2 - e
            heapq.heappush(heaps[k], (-e1, count, lo, mid, v1, e1))
            heapq.heappush(heaps[k], (-e2, count + 1, mid, hi, v2, e2))
            counts[k] = count + 2
        rows = [k for k in rows if unconverged(k)]
    out = np.where(b > a, [v for v, _ in totals], 0.0)
    return float(out[0]) if scalar else out


def _row_panels(f, lo: np.ndarray, hi: np.ndarray) -> tuple[list, list]:
    """The G15 values and |G15 - G7| errors of the (K, P) panels
    [lo[k, p], hi[k, p]], from one call of ``f`` on the (K, 22 P) node array
    whose row k holds the P panels of row k side by side."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = f((mid[..., None] + half[..., None] * _G7_G15_X).reshape(len(lo), -1))
    # a (1, n) @ (n,) product per panel: numpy's matmul takes it as a vector
    # dot, the one np.dot runs, so every panel sums as a lone panel would
    y = y.reshape(*lo.shape, 1, 22)
    coarse = half * (y[..., :7] @ _G7_W)[..., 0]
    fine = half * (y[..., 7:] @ _G15_W)[..., 0]
    return fine.tolist(), np.abs(fine - coarse).tolist()


# ---------------------------------------------------------------------------
# The interference integral C(b, alpha)
# ---------------------------------------------------------------------------


def _validate_c_args(b, alpha: float) -> None:
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(b).all() and math.isfinite(alpha)):
        raise DomainError(f"c_integral: non-finite input b={b}, alpha={alpha}")
    if alpha <= 2.0:
        raise DomainError(
            f"c_integral: alpha={alpha} <= 2 makes the integral divergent"
        )
    if (b < 0.0).any():
        raise DomainError(f"c_integral: b={b} must be >= 0")


def _c_zero(alpha: float) -> float:
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def _c_tail_series(lo: float, alpha: float) -> float:
    """Analytic tail int_lo^inf dw/(1+w^(alpha/2)) for lo^(alpha/2) > 1.

    Expanding 1/(1+w^(alpha/2)) = sum_k (-1)^(k+1) w^(-k*alpha/2) and
    integrating termwise gives an alternating series whose first term is
    the plain w^(-alpha/2) tail bound.
    """
    h = 0.5 * alpha
    q = lo**-h
    if q >= 1.0:
        raise DomainError(f"tail series needs lo^(alpha/2) > 1, got lo={lo}")
    total = 0.0
    lead = lo ** (1.0 - h)  # lo * lo^(-k*alpha/2), formed directly so q^k may underflow
    for k in range(1, 400):
        term = (-1.0) ** (k + 1) * lead / (k * h - 1.0)
        total += term
        if abs(term) <= 1e-18 * abs(total) + 5e-324:
            break
        lead *= q
    return total


def _c_betainc(b_arr: np.ndarray, alpha: float) -> np.ndarray:
    """C(b, alpha) via the regularized incomplete beta, for a validated
    float array ``b_arr``; returns an array of the same shape.

    With t = b^(alpha/2), b >= 1 evaluates I_x at x = 1/(1+t) and b < 1
    evaluates the complement at 1 - x = t/(1+t) through ``betaincc``, so x
    never rounds to 1.  Where t overflows, the alternating tail series takes
    over.  Serves every alpha but 4, and checks the arctan route at alpha = 4.
    """
    e = 2.0 / alpha
    with np.errstate(over="ignore"):
        t = b_arr ** (0.5 * alpha)
    big = b_arr >= 1.0
    x = np.where(big, 1.0, t) / (1.0 + t)
    # each element evaluates only its own branch
    out = np.empty(np.shape(x))
    betainc(1.0 - e, e, x, out=out, where=big)
    betaincc(e, 1.0 - e, x, out=out, where=~big)
    out *= _c_zero(alpha)
    over = np.isinf(t)
    if over.any():
        out[over] = [_c_tail_series(lo, alpha) for lo in b_arr[over]]
    return out


def c_integral(b, alpha: float):
    """Closed form of C(b, alpha).

    At alpha = 4 it is arctan(1/b), evaluated as ``np.arctan2(1, b)``; every
    other alpha goes through the incomplete beta (:func:`_c_betainc`).
    Accepts scalar or array ``b``; a scalar gives a float.  Strictly
    positive and strictly decreasing in b.  A valid scalar b = 0 returns
    C(0, alpha) without touching numpy.
    """
    if isinstance(b, (int, float)) and b == 0 and math.isfinite(alpha) and alpha > 2.0:
        return _c_zero(float(alpha))
    b_arr = np.asarray(b, dtype=float)
    # NaN fails every comparison, so one min/max pair screens the array
    if not (
        2.0 < alpha < math.inf
        and (b_arr.size == 0 or (b_arr.min() >= 0.0 and b_arr.max() < math.inf))
    ):
        _validate_c_args(b_arr, alpha)
    out = np.arctan2(1.0, b_arr) if alpha == 4.0 else _c_betainc(b_arr, alpha)
    return out if out.ndim else float(out)


def c_integral_quadrature(
    b: float,
    alpha: float,
    settings: QuadratureSettings = DEFAULT_QUADRATURE,
) -> float:
    """C(b, alpha) by adaptive panel quadrature plus an analytic tail.

    Integrates 1/(1+w^(alpha/2)) on [b, B] with the nested-Gauss engine and
    adds the alternating-series tail from B, with B chosen so the series
    ratio B^(-alpha/2) is at most 1/50.  Serves as the independent check of
    :func:`c_integral`.
    """
    _validate_c_args(b, alpha)
    h = 0.5 * alpha
    cut = max(2.0 * b, 50.0 ** (1.0 / h))

    def integrand(w: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + w**h)

    core = adaptive_gauss(integrand, b, cut, settings)
    return core + _c_tail_series(cut, alpha)


# ---------------------------------------------------------------------------
# Pareto law of the received power from a uniformly scattered transmitter
# ---------------------------------------------------------------------------


def pareto_received_power_cdf(y, alpha: float, r_max: float):
    """CDF of Y = h * X^(-alpha): unit-mean exponential fading times the
    path loss of a distance drawn uniformly from a disk of radius ``r_max``.

    F_Y(y) = 1 - Gamma(2/alpha + 1) * y^(-2/alpha) / r_max^2, clamped to
    [0, 1].  The power-law tail is what lets distance dominate the ordering
    of received interference powers.  Accepts scalar or array ``y``.
    """
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise DomainError(f"pareto_received_power_cdf: alpha={alpha} must be > 2")
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise DomainError(f"pareto_received_power_cdf: r_max={r_max} must be > 0")
    coeff = math.gamma(2.0 / alpha + 1.0) / (r_max * r_max)
    y_arr = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        cdf = 1.0 - coeff * y_arr ** (-2.0 / alpha)
    cdf = np.clip(cdf, 0.0, 1.0)
    if np.ndim(y) == 0:
        return float(cdf)
    return cdf
