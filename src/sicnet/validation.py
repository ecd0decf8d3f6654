"""Acceptance gates: every formula checked against its independent oracle.

Each check returns :class:`CheckResult` records with the measured quantity
and the tolerated bound, so callers (the ``validate`` CLI subcommand and the
acceptance test module) can print one pass/fail line per criterion.

The figure gates (fig2..fig6) read what the presets publish: each runs
:func:`~sicnet.experiments.run_preset` at the gate's seed and budget and
checks the rows' closed-form and Monte Carlo columns.  Every scenario
(grid, seeds, default budget, and the window of a simulator that still
samples one) is therefore defined once, in ``experiments``.  Only the fig3 gate runs a simulator itself, for the one
oracle that no preset runs: the independent-stage chain.  Budgets below
the presets' floor of 1000 trials are refused.

A gate over a grid of points reads its columns once as arrays
(:func:`_columns`) and is reduced by one evaluator, :func:`_worst`: it takes
the largest margin with ``np.argmax``, compares it with the gate's
tolerance and names the first point that reaches it ("worst at ...").  The
one-sided and property checks reduce their arrays with numpy ``max`` and
``min``.  Every reduction propagates NaN, so a NaN anywhere in a gated
column fails its gate instead of being skipped.

Where a gate compares a closed form against Monte Carlo, the tolerance is
3 standard errors plus any documented model tolerance.  Checks are
deterministic given their seed.

Each closed form is gated against an oracle of the event it documents.
Where that event is an approximation of the physical one, the model error
is gated in its documented direction and printed, never hidden in a wider
tolerance:

  * fig2: the distance-ordering law ``ps_can`` is exact for the n-th
    nearest node, and the window-free distance-ordered estimate is exact
    over every fading and the field; the fading-ordered n = 1 estimate is
    gated against the exact strongest-node law eta^(-delta) sin(pi
    delta)/(pi delta) (eta >= 1), which lies 0.0765 above ``ps_can`` at
    0 dB;
  * fig3: ``ps_sic`` multiplies independent per-stage laws with a
    deterministic cancellation radius; it is gated two-sided against an
    event chain that draws every stage from its own scene, and one-sided
    (at or below) against the faithful chain, which sits 0.04-0.20 above
    it for N >= 1;
  * load: ``load_pmf`` is the user-anchored NB(4.5, 3.5/(3.5 + mu_j/lam))
    law with mean (9/7) mu_j/lam;
  * fig6: the cancelled ``ps_ic_rea`` clears the whole unbiased-exclusion
    annulus; it is gated two-sided against the preset's annulus-clearing
    column and one-sided against its one-cancellation column, which sits
    up to 0.03 below it, both on the same draws.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import nbinom

from .errors import DomainError
from .model import db_to_linear
from .numerics import QuadratureSettings, _c_betainc, c_integral, c_integral_quadrature
from .analytic import kurtosis_after_cancellation, load_pmf_table
from .experiments import DENSITY_MACRO, FIG6_BIASES, default_spec, run_preset
from .montecarlo import BLOCK_TRIALS, ps_can_curve_mc, ps_sic_curve_mc, voronoi_load_histogram

__all__ = ["CheckResult", "SUITES", "run_suite", "format_report"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"[{status}] {self.suite}: {self.name}: "
            f"measured {self.measured:.6g} vs tolerated {self.tolerance:.6g}{extra}"
        )


def _result(suite, name, measured, tolerance, passed=None, detail="") -> CheckResult:
    if passed is None:
        passed = measured <= tolerance
    return CheckResult(suite, name, bool(passed), float(measured), float(tolerance), detail)


def _worst(suite, name, margins, where, tolerance, detail="worst at {at}") -> CheckResult:
    """One gate over a grid of points.  The worst point is the one whose
    margin exceeds its tolerance (one bound, or one per point) the most: its
    margin is the measured value, checked against its tolerance, and
    ``detail`` names it through ``{at}``, its label in ``where``.  Margins,
    tolerances and labels are read flat, in row-major order.  Of equal
    excesses the first point wins, and a NaN anywhere is the worst, so it
    fails the gate."""
    margins, tolerance, where = np.broadcast_arrays(*map(np.ravel, (margins, tolerance, where)))
    i = np.argmax(margins - tolerance)
    return _result(suite, name, margins[i], tolerance[i], detail=detail.format(at=where[i]))


def _preset(name: str, trials, seed: int, threads: int):
    """The rows of one preset run at the gate's seed, and its metadata: the
    trial budget (the preset's default when ``trials`` is None) and the
    simulators' diagnostics."""
    result = run_preset(default_spec(name, trials, seed, threads=threads))
    return result.rows, result.metadata


def _columns(rows, *names, n_outer=None) -> list[np.ndarray]:
    """Preset columns as float arrays in row order: flat, or as
    (n_outer, rows // n_outer) grids."""
    shape = -1 if n_outer is None else (n_outer, -1)
    return [np.array([r[c] for r in rows], dtype=float).reshape(shape) for c in names]


def _labels(rows, fmt: str) -> np.ndarray:
    """One label per preset row, ``fmt`` filled in from the row's columns."""
    return np.array([fmt.format(**r) for r in rows])


def _mean_stderr(estimates) -> list[np.ndarray]:
    """Means and standard errors of a (nested) list of Estimates, as float
    arrays of its shape."""
    pairs = np.frompyfunc(lambda e: (e.mean, e.stderr), 1, 2)(np.array(estimates, dtype=object))
    return [p.astype(float) for p in pairs]


# ---------------------------------------------------------------------------
# 1. Numerics gate
# ---------------------------------------------------------------------------

_B_GRID = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e4, 1e6, 1e8)
_ALPHA_GRID = (2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0)


def check_numerics(trials=None, seed=0, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    tight = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=4000)
    grid = [(b, a) for b in _B_GRID for a in _ALPHA_GRID]
    cf = np.array([c_integral(b, a) for b, a in grid])
    qd = np.array([c_integral_quadrature(b, a, tight) for b, a in grid])
    # c_integral's alpha = 4 route is arctan(1/b); the incomplete beta checks it
    bs = np.array(_B_GRID)
    return [
        _worst(
            "numerics", "closed form vs quadrature (relative, full grid)",
            np.abs(cf - qd) / np.abs(qd), [f"b={b}, alpha={a}" for b, a in grid], 1e-9,
        ),
        _worst(
            "numerics", "C(b,4) vs arctan(1/b)", np.abs(_c_betainc(bs, 4.0) - c_integral(bs, 4.0)),
            [f"b={x}" for x in _B_GRID], 1e-10,
        ),
        _result("numerics", "runtime [s]", time.perf_counter() - t0, 1.0),
    ]


# ---------------------------------------------------------------------------
# 2. Fig. 2: cancellation success vs order
# ---------------------------------------------------------------------------


def _ps_strongest_exact(eta, alpha: float):
    """Exact probability that the strongest node of a Rayleigh-faded PPP
    decodes against all the others, for thresholds eta >= 1 (a scalar or
    an array).

    At eta >= 1 at most one node can have SIR > eta, so the probability
    equals the mean number of such nodes, which Campbell's theorem and the
    PGFL give as eta^(-delta) sin(pi delta) / (pi delta), delta = 2/alpha
    (X. Zhang and M. Haenggi, IEEE Trans. Wireless Commun., 2014).
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all(eta >= 1.0):
        raise DomainError(f"the strongest-node law needs eta >= 1, got {eta}")
    delta = 2.0 / alpha
    return eta**-delta * math.sin(math.pi * delta) / (math.pi * delta)


def check_fig2(trials=None, seed=202, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, meta = _preset("fig2", trials, seed, threads)
    trials = meta["trials"]
    n, eta_db, eta, dist, fade, pgfl, tsd = _columns(
        rows, "n", "eta_db", "eta_lin", "mc_dist_mean", "mc_fade_mean", "ps_can_pgfl", "ps_can_tsd"
    )
    where = _labels(rows, "{eta_db:g} dB, n={n}")

    def z(mean, p):
        # stderr of the comparison under the closed-form null; stays
        # meaningful when the expected success count is O(1)
        return np.abs(mean - p) / np.sqrt(p * (1.0 - p) / trials)

    # n = 1 under fading ordering is the strongest node, whose exact law
    # holds at every threshold of the grid (all >= 0 dB)
    first = n == 1
    exact = _ps_strongest_exact(eta[first], 4.0)
    fade_gap = np.abs(fade - pgfl)
    at_0db, at_10db = (eta_db == 0.0) & (n >= 2), eta_db == 10.0
    # closed-form agreement between the PGFL and truncated-stable routes;
    # absolute floor 0.01 anchored at n=1, 10% relative envelope for n <= 5
    gap = np.abs(pgfl - tsd)
    mid = (n >= 2) & (n <= 5)
    return [
        _worst(
            "fig2", "distance-ordered MC vs closed form (|z|, n=1..8)", z(dist, pgfl), where, 3.0
        ),
        _worst(
            "fig2", "fading-ordered MC at n=1 vs exact strongest-node law (|z|)",
            z(fade[first], exact), where[first], 3.0,
            detail="eta^(-1/2) 2/pi at alpha=4, worst at {at}",
        ),
        _result(
            "fig2", "exact n=1 law minus closed form at 0 dB (diagnostic, ungated)",
            (exact - pgfl[first])[eta_db[first] == 0.0].item(), math.inf, passed=True,
            detail="model error of the distance-ordering approximation",
        ),
        _worst(
            "fig2", "fading-ordered MC vs closed form at 0 dB, n=2..8",
            fade_gap[at_0db], where[at_0db], 0.05,
        ),
        _worst(
            "fig2", "fading-ordered MC vs closed form at 10 dB, n=1..8",
            fade_gap[at_10db], where[at_10db], 0.01,
        ),
        _worst("fig2", "PGFL vs TSD at n=1 (absolute)", gap[first], where[first], 0.01),
        _worst(
            "fig2", "PGFL vs TSD for n<=5 (0.01 abs + 10% rel envelope)",
            gap[mid], where[mid], (0.01 + 0.10 * pgfl)[mid],
        ),
        _result("fig2", "runtime [s]", time.perf_counter() - t0, 120.0),
    ]


# ---------------------------------------------------------------------------
# 3. Fig. 3: the SIC chain
# ---------------------------------------------------------------------------


def check_fig3(trials=None, seed=303, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, meta = _preset("fig3", trials, seed, threads)
    trials, layout = meta["trials"], meta["rqmc_layout"]
    rqmc = f"stderr from {layout['replicates']} RQMC replicates, {layout['dof']} dof"
    eta_db, eta, analytic, mc, mc_se = _columns(
        rows, "eta_db", "eta_lin", "ps_sic_analytic", "mc_mean", "mc_stderr",
        n_outer=sum(r["n_max"] == 0 for r in rows),
    )
    eta_db = eta_db[:, 0]
    where = _labels(rows, "eta={eta_db:g} dB, N={n_max}").reshape(analytic.shape)
    oracle = ps_sic_curve_mc(
        DENSITY_MACRO, DENSITY_MACRO, 4.0, eta[:, 0], analytic.shape[1] - 1,
        trials, seed + 1, threads=threads, independent_stages=True,
    )
    (stages, stages_se), dof = _mean_stderr(oracle), oracle[0, 0].dof
    gap = np.abs(analytic[:, 0] - mc[:, 0])
    tol = 3.0 * mc_se[:, 0] + 0.02
    # for N >= 1 the closed form's independence and deterministic radius
    # only lose successes the faithful chain keeps
    model_error = mc[:, 1:] - analytic[:, 1:]
    i = np.argmax(model_error)
    inc = np.diff(analytic, axis=1)
    mc_inc = np.diff(mc, axis=1)
    nonneg = eta_db >= 0.0
    return [
        _worst(
            "fig3", "analytic vs independent-stage chain MC (|z|, full grid)",
            np.abs(analytic - stages) / np.maximum(stages_se, 1e-12), where, 3.0,
            detail=f"worst at {{at}}; stderr from {dof + 1} RQMC replicates, {dof} dof",
        ),
        _worst(
            "fig3", "analytic vs event-chain MC at N=0 (3 stderr + 0.02)", gap - tol,
            [f"eta={d:g} dB: gap {g:.4f} vs tol {t:.4f}" for d, g, t in zip(eta_db, gap, tol)],
            0.0, detail="{at}; " + rqmc,
        ),
        _result(
            "fig3", "analytic at or below event-chain MC for N>=1 (+3 stderr)",
            (analytic[:, 1:] - mc[:, 1:] - 3.0 * mc_se[:, 1:]).max(), 0.0,
            detail=f"largest model error {model_error.flat[i]:.4f} at {where[:, 1:].flat[i]}; {rqmc}",
        ),
        _result(
            "fig3", "monotone nondecreasing in N (analytic and MC)",
            np.minimum(inc.min(), mc_inc.min()), 0.0,
            passed=inc.min() >= -1e-12 and mc_inc.min() >= 0.0, detail="smallest increment",
        ),
        _result(
            "fig3", "diminishing first increment at eta >= 0 dB (analytic)",
            (inc[nonneg, 1] - inc[nonneg, 0]).max(), 0.0, detail="max of inc(1->2)-inc(0->1)",
        ),
        _result(
            "fig3", "all increments < 0.02 at eta >= 2 dB (analytic)",
            inc[eta_db >= 2.0].max(), 0.02,
        ),
        _result("fig3", "runtime [s]", time.perf_counter() - t0, 600.0),
    ]


# ---------------------------------------------------------------------------
# 4. Load model
# ---------------------------------------------------------------------------


def check_load_model(trials=100_000, seed=404, threads=1) -> list[CheckResult]:
    cells = trials or 100_000
    out = []
    pmf = load_pmf_table(5e-5, 1e-5, tail=1e-13)
    out.append(
        _result("load", "total PMF mass (truncated)", abs(pmf.sum() - 1.0), 1e-9)
    )
    # users in the cell of a typical user: Poisson mixture over the
    # area-biased gamma(4.5) cell area, i.e. NB(4.5, 3.5 / (3.5 + mu_j/lambda))
    ref = nbinom(4.5, 3.5 / (3.5 + 5e-5 / 1e-5))
    m = np.arange(len(pmf))
    mean = float((m * pmf).sum())
    out.append(
        _result(
            "load", "PMF mean equals (9/7) mu_j/lambda", abs(mean - ref.mean()), 1e-6,
            detail=f"measured mean {mean:.6f} vs NB(4.5) mean {ref.mean():.6f}",
        )
    )
    out.append(
        _result(
            "load", "PMF equals NB(4.5, 3.5/(3.5 + mu_j/lambda)) pointwise",
            float(np.abs(pmf - ref.pmf(m)).max()), 1e-12,
        )
    )
    hist = voronoi_load_histogram(1e-4, 5e-4, cells, seed).astype(float)
    emp = hist / hist.sum()
    ref = load_pmf_table(5e-4, 1e-4)
    width = max(len(emp), len(ref))
    e = np.zeros(width)
    e[: len(emp)] = emp
    r = np.zeros(width)
    r[: len(ref)] = ref
    tv = 0.5 * float(np.abs(e - r).sum())
    out.append(
        _result("load", f"Voronoi load histogram TV ({cells} cells, ratio 5)", tv, 0.02)
    )
    return out


# ---------------------------------------------------------------------------
# 5. Fig. 4: minimum-load association
# ---------------------------------------------------------------------------


def check_fig4(trials=None, seed=505, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, _ = _preset("fig4", trials, seed, threads)
    rho, max_sir, min_load, mc, mc_se = _columns(
        rows, "rho", "p_cov_max_sir", "p_cov_min_load", "mc_min_load_mean", "mc_min_load_stderr"
    )
    ordering_margin = (max_sir - min_load).min()
    med = rows[(len(rows) - 1) // 2]
    uplift = med["mc_min_load_sic_mean"] - med["mc_min_load_mean"]
    gap = np.abs(mc - min_load)
    tol = 3.0 * mc_se + 0.03
    return [
        _result(
            "fig4", "min-load (no SIC) below max-SIR at every rho",
            -ordering_margin, 0.0, passed=ordering_margin > 0.0,
            detail="negative of the smallest max-SIR minus min-load margin",
        ),
        _result(
            "fig4", f"SIC uplift at median rho={med['rho']:.2f}",
            uplift, 0.05, passed=uplift >= 0.05, detail="must be at least 0.05",
        ),
        _worst(
            "fig4", "analytic min-load vs MC (3 stderr + 0.03)", gap - tol,
            [f"rho={r:.2f}: gap {g:.4f} vs tol {t:.4f}" for r, g, t in zip(rho, gap, tol)],
            0.0, detail="{at}",
        ),
        _result("fig4", "runtime [s]", time.perf_counter() - t0, 300.0),
    ]


# ---------------------------------------------------------------------------
# 6. Fig. 5: maximum instantaneous SIR
# ---------------------------------------------------------------------------


def check_fig5(trials=None, seed=606, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, _ = _preset("fig5", trials, seed, threads)
    n_max, analytic, mc, mc_se, shared, uplift = _columns(
        rows, "n_max", "ps_analytic", "mc_model_mean", "mc_model_stderr", "mc_shared_mean",
        "sic_uplift",
    )
    # the Monte Carlo columns are filled at N = 0, where ps_analytic is the
    # no-SIC success law
    no_sic = n_max == 0
    analytic, mc, mc_se, shared = analytic[no_sic], mc[no_sic], mc_se[no_sic], shared[no_sic]
    uplifts = uplift[n_max >= 1]
    smallest, peak = uplifts.min(), uplifts.max()
    return [
        _worst(
            "fig5", "no-SIC success law vs MC (|z|, eta >= 0 dB)",
            np.abs(mc - analytic) / np.maximum(mc_se, 1e-12),
            _labels(rows, "{eta_db:g} dB")[no_sic], 3.0,
            detail="MC averages exactly over the per-AP independent fields the "
            "closed form assumes, worst at {at}",
        ),
        _result(
            "fig5", "shared-field MC deviation (diagnostic, ungated)",
            np.abs(shared - analytic).max(), math.inf, passed=True,
            detail="model error of the per-AP independence assumption",
        ),
        _result(
            "fig5", "SIC uplift positive for N=1..3 at every eta in [0,10] dB",
            smallest, 0.0, passed=smallest > 0.0, detail="smallest uplift",
        ),
        _result(
            "fig5", "peak SIC uplift within [0.05, 0.25]", peak, 0.25,
            passed=0.05 <= peak <= 0.25,
        ),
        _result("fig5", "runtime [s]", time.perf_counter() - t0, 600.0),
    ]


# ---------------------------------------------------------------------------
# 7. Fig. 6: range expansion
# ---------------------------------------------------------------------------


def check_fig6(trials=None, seed=707, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, _ = _preset("fig6", trials, seed, threads)
    # bias by eta grids; each bias is compared with the next larger one
    unc, unc_se, can, can_se, annulus, annulus_se, closed_unc, closed_can = _columns(
        rows, "mc_rea_mean", "mc_rea_stderr", "mc_rea_sic_mean", "mc_rea_sic_stderr",
        "mc_rea_annulus_mean", "mc_rea_annulus_stderr", "ps_rea_analytic", "ps_rea_sic_analytic",
        n_outer=len(FIG6_BIASES),
    )
    where = _labels(rows, "b={bias:g}, eta={eta_db:g} dB")

    def three_stderr(name, gap, se):
        labels = [f"{w}: gap {g:.4f}" for w, g in zip(where, gap.flat)]
        return _worst("fig6", name, gap - 3.0 * se, labels, 0.0, detail="{at}")

    model_error = closed_can - can
    i = np.argmax(model_error)
    rise = np.diff([unc, can], axis=1).max()
    # the same ordering on the closed forms, free of sampling noise
    closed_rise = np.diff([closed_unc, closed_can], axis=1).max()
    order_margin = (can - unc).min()
    return [
        three_stderr(
            "uncancelled closed form vs REA MC (3 stderr)", np.abs(unc - closed_unc), unc_se
        ),
        three_stderr(
            "cancelled closed form vs annulus-cancel MC (3 stderr)",
            np.abs(annulus - closed_can), annulus_se,
        ),
        _result(
            "fig6", "one-cancellation MC at or below cancelled closed form (+3 stderr)",
            (can - closed_can - 3.0 * can_se).max(), 0.0,
            detail=f"largest model error {model_error.flat[i]:.4f} at {where[i]}",
        ),
        _result(
            "fig6", "success decreases with bias (both curves)", rise, 0.0, passed=rise < 0.0
        ),
        _result(
            "fig6", "closed form decreases with bias (both curves)",
            closed_rise, 0.0, passed=closed_rise < 0.0,
        ),
        _result(
            "fig6", "cancelled curve above uncancelled everywhere",
            -order_margin, 0.0, passed=order_margin > 0.0,
        ),
        _result("fig6", "runtime [s]", time.perf_counter() - t0, 600.0),
    ]


# ---------------------------------------------------------------------------
# 8-10. Scale invariance, determinism, kurtosis
# ---------------------------------------------------------------------------


def check_scale_invariance(trials=100_000, seed=808, threads=1) -> list[CheckResult]:
    trials = trials or 100_000
    eta = db_to_linear(5.0)
    lo = ps_can_curve_mc(1e-4, 4.0, [eta], 3, trials, seed, threads=threads)
    hi = ps_can_curve_mc(1e-3, 4.0, [eta], 3, trials, seed + 1, threads=threads)
    (lo, lo_se), (hi, hi_se) = (_mean_stderr(c["distance_only"]["direct"][0]) for c in (lo, hi))
    return [
        _worst(
            "scale", "P_s,can at mu_j=1e-4 vs 1e-3 (|z| joint, n=1..3, 5 dB)",
            np.abs(lo - hi) / np.maximum(np.hypot(lo_se, hi_se), 1e-12),
            ["n=1", "n=2", "n=3"], 3.0,
        )
    ]


def check_determinism(trials=2000, seed=909, threads=4) -> list[CheckResult]:
    import io

    # a single-thread or single-block comparison proves nothing: at least two
    # threads, and two full blocks plus a partial one to dispatch
    threads = max(threads, 2)
    trials = max(trials or 2000, 2 * BLOCK_TRIALS + 1)
    n_blocks = -(-trials // BLOCK_TRIALS)

    def csv_without_runtime(threads_n: int) -> str:
        spec = default_spec("fig2", trials=trials, seed=seed, threads=threads_n)
        result = run_preset(spec)
        buf = io.StringIO()
        keep = [c for c in result.columns if c != "runtime_ms"]
        buf.write(",".join(keep) + "\n")
        for row in result.rows:
            buf.write(",".join(str(row[c]) for c in keep) + "\n")
        return buf.getvalue()

    single = csv_without_runtime(1)
    multi = csv_without_runtime(threads)
    repeat = csv_without_runtime(1)
    same = single == multi == repeat
    return [
        _result(
            "determinism",
            f"fig2 CSV identical across reruns and thread counts (1, {threads}),"
            f" {trials} trials in {n_blocks} blocks",
            0.0 if same else 1.0, 0.0, passed=same,
        )
    ]


def check_kurtosis(trials=None, seed=0, threads=1) -> list[CheckResult]:
    gap = abs(kurtosis_after_cancellation(4.0, 2) - 54.0 / 7.0)
    products = [kurtosis_after_cancellation(4.0, n) * (n - 1) for n in range(2, 51)]
    return [
        _result("kurtosis", "gamma2(4,2) = 54/7", gap, 1e-12),
        _result("kurtosis", "gamma2(alpha,n)*(n-1) constant for n=2..50", np.ptp(products), 1e-12),
    ]


SUITES = {
    "numerics": check_numerics,
    "can": check_fig2,
    "sic": check_fig3,
    "load": check_load_model,
    "minload": check_fig4,
    "maxsir": check_fig5,
    "rea": check_fig6,
    "scale": check_scale_invariance,
    "determinism": check_determinism,
    "kurtosis": check_kurtosis,
}


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns the individual check records."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key, trials=trials, seed=seed, threads=threads))
        return results
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    fn = SUITES[name]
    kwargs = {"threads": threads}
    if trials is not None:
        kwargs["trials"] = trials
    if seed is not None:
        kwargs["seed"] = seed
    return fn(**kwargs)


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
