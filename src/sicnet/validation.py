"""Acceptance gates: every formula checked against its independent oracle.

Each check returns :class:`CheckResult` records with the measured quantity
and the tolerated bound, so callers (the ``validate`` CLI subcommand and the
acceptance test module) can print one pass/fail line per criterion.

The figure gates (fig2..fig6) read what the presets publish: each runs
:func:`~sicnet.experiments.run_preset` at the gate's seed and budget and
checks the rows' closed-form and Monte Carlo columns.  Every scenario
(grid, window, seeds, default budget) is therefore defined once, in
``experiments``; a gate runs a simulator itself only for an oracle that no
preset runs (the independent-stage chain of fig3 and the annulus-clearing
REA of fig6).  Budgets below the presets' floor of 1000 trials are refused.

Where a gate compares a closed form against Monte Carlo, the tolerance is
3 standard errors plus any documented model tolerance.  Checks are
deterministic given their seed.

Each closed form is gated against an oracle of the event it documents.
Where that event is an approximation of the physical one, the model error
is gated in its documented direction and printed, never hidden in a wider
tolerance:

  * fig2: the distance-ordering law ``ps_can`` is exact for the n-th
    nearest node; the fading-ordered n = 1 estimate is gated against the
    exact strongest-node law eta^(-delta) sin(pi delta)/(pi delta)
    (eta >= 1), which lies 0.0765 above ``ps_can`` at 0 dB;
  * fig3: ``ps_sic`` multiplies independent per-stage laws with a
    deterministic cancellation radius; it is gated two-sided against an
    event chain that draws every stage from its own scene, and one-sided
    (at or below) against the faithful chain, which sits 0.04-0.20 above
    it for N >= 1;
  * load: ``load_pmf`` is the user-anchored NB(4.5, 3.5/(3.5 + mu_j/lam))
    law with mean (9/7) mu_j/lam;
  * fig6: the cancelled ``ps_ic_rea`` clears the whole unbiased-exclusion
    annulus; it is gated two-sided against an annulus-clearing simulation
    on the preset's draws and one-sided against the preset's one-
    cancellation simulation, which sits up to 0.03 below it.
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
from .experiments import DENSITY_MACRO, default_spec, fig6_runs, run_preset
from .montecarlo import (
    BLOCK_TRIALS,
    ps_can_curve_mc,
    ps_sic_curve_mc,
    simulate_rea,
    voronoi_load_histogram,
)

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


def _preset(name: str, trials, seed: int, threads: int):
    """The rows of one preset run at the gate's seed, and its trial budget
    (the preset's default when ``trials`` is None)."""
    result = run_preset(default_spec(name, trials, seed, threads=threads))
    return result.rows, result.metadata["trials"]


def _grid(rows, column: str, n_outer: int) -> np.ndarray:
    """One preset column as an (n_outer, rows // n_outer) array, in row order."""
    return np.array([r[column] for r in rows]).reshape(n_outer, -1)


# ---------------------------------------------------------------------------
# 1. Numerics gate
# ---------------------------------------------------------------------------

_B_GRID = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e4, 1e6, 1e8)
_ALPHA_GRID = (2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0)


def check_numerics(trials=None, seed=0, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    tight = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=4000)
    worst_rel = 0.0
    worst_at = ""
    for b in _B_GRID:
        for a in _ALPHA_GRID:
            cf = c_integral(b, a)
            qd = c_integral_quadrature(b, a, tight)
            rel = abs(cf - qd) / abs(qd)
            if rel > worst_rel:
                worst_rel, worst_at = rel, f"b={b}, alpha={a}"
    out = [
        _result(
            "numerics", "closed form vs quadrature (relative, full grid)",
            worst_rel, 1e-9, detail=f"worst at {worst_at}",
        )
    ]
    # c_integral's alpha = 4 route is arctan(1/b); the incomplete beta checks it
    worst_abs = max(
        abs(float(_c_betainc(np.asarray(b), 4.0)) - c_integral(b, 4.0))
        for b in _B_GRID
    )
    out.append(_result("numerics", "C(b,4) vs arctan(1/b)", worst_abs, 1e-10))
    out.append(
        _result("numerics", "runtime [s]", time.perf_counter() - t0, 1.0)
    )
    return out


# ---------------------------------------------------------------------------
# 2. Fig. 2: cancellation success vs order
# ---------------------------------------------------------------------------


def _ps_strongest_exact(eta: float, alpha: float) -> float:
    """Exact probability that the strongest node of a Rayleigh-faded PPP
    decodes against all the others, for eta >= 1.

    At eta >= 1 at most one node can have SIR > eta, so the probability
    equals the mean number of such nodes, which Campbell's theorem and the
    PGFL give as eta^(-delta) sin(pi delta) / (pi delta), delta = 2/alpha
    (X. Zhang and M. Haenggi, IEEE Trans. Wireless Commun., 2014).
    """
    if eta < 1.0:
        raise DomainError(f"the strongest-node law needs eta >= 1, got {eta}")
    delta = 2.0 / alpha
    return eta**-delta * math.sin(math.pi * delta) / (math.pi * delta)


def check_fig2(trials=None, seed=202, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, trials = _preset("fig2", trials, seed, threads)
    out = []

    def z(mean: float, p: float) -> float:
        # stderr of the comparison under the closed-form null; stays
        # meaningful when the expected success count is O(1)
        return abs(mean - p) / math.sqrt(p * (1.0 - p) / trials)

    worst_z = max(z(r["mc_dist_mean"], r["ps_can_pgfl"]) for r in rows)
    out.append(
        _result("fig2", "distance-ordered MC vs closed form (|z|, n=1..8)", worst_z, 3.0)
    )
    # n = 1 under fading ordering is the strongest node, whose exact law
    # holds at every threshold of the grid (all >= 0 dB)
    first = [r for r in rows if r["n"] == 1]
    worst_z1 = max(z(r["mc_fade_mean"], _ps_strongest_exact(r["eta_lin"], 4.0)) for r in first)
    out.append(
        _result(
            "fig2", "fading-ordered MC at n=1 vs exact strongest-node law (|z|)",
            worst_z1, 3.0, detail="eta^(-1/2) 2/pi at alpha=4",
        )
    )
    at_0db = next(r for r in first if r["eta_db"] == 0.0)
    model_error = _ps_strongest_exact(at_0db["eta_lin"], 4.0) - at_0db["ps_can_pgfl"]
    out.append(
        _result(
            "fig2", "exact n=1 law minus closed form at 0 dB (diagnostic, ungated)",
            model_error, math.inf, passed=True,
            detail="model error of the distance-ordering approximation",
        )
    )
    for eta_db, tol, n_lo in ((0.0, 0.05, 2), (10.0, 0.01, 1)):
        worst = max(
            abs(r["mc_fade_mean"] - r["ps_can_pgfl"])
            for r in rows
            if r["eta_db"] == eta_db and r["n"] >= n_lo
        )
        out.append(
            _result(
                "fig2", f"fading-ordered MC vs closed form at {eta_db:g} dB, n={n_lo}..8",
                worst, tol,
            )
        )
    # closed-form agreement between the PGFL and truncated-stable routes;
    # absolute floor 0.01 anchored at n=1, 10% relative envelope for n <= 5
    worst1 = max(abs(r["ps_can_pgfl"] - r["ps_can_tsd"]) for r in first)
    out.append(_result("fig2", "PGFL vs TSD at n=1 (absolute)", worst1, 0.01))
    worst_pair = (0.0, 1.0)
    for r in rows:
        if 2 <= r["n"] <= 5:
            p = r["ps_can_pgfl"]
            gap, tol = abs(p - r["ps_can_tsd"]), 0.01 + 0.10 * p
            if gap - tol > worst_pair[0] - worst_pair[1]:
                worst_pair = (gap, tol)
    out.append(
        _result(
            "fig2", "PGFL vs TSD for n<=5 (0.01 abs + 10% rel envelope)",
            worst_pair[0], worst_pair[1],
        )
    )
    out.append(_result("fig2", "runtime [s]", time.perf_counter() - t0, 120.0))
    return out


# ---------------------------------------------------------------------------
# 3. Fig. 3: the SIC chain
# ---------------------------------------------------------------------------


def check_fig3(trials=None, seed=303, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, trials = _preset("fig3", trials, seed, threads)
    out = []
    no_sic = [r for r in rows if r["n_max"] == 0]
    etas_db = [r["eta_db"] for r in no_sic]
    analytic, mc, mc_se = (
        _grid(rows, c, len(no_sic)) for c in ("ps_sic_analytic", "mc_mean", "mc_stderr")
    )
    n_max = analytic.shape[1] - 1
    stages = ps_sic_curve_mc(
        DENSITY_MACRO, DENSITY_MACRO, 4.0, [r["eta_lin"] for r in no_sic], n_max,
        trials, seed + 1, threads=threads, independent_stages=True,
    )
    worst_z = 0.0
    z_at = ""
    for e_idx, eta_db in enumerate(etas_db):
        for n in range(n_max + 1):
            est = stages[e_idx][n]
            z = abs(analytic[e_idx, n] - est.mean) / max(est.stderr, 1e-12)
            if z > worst_z:
                worst_z, z_at = z, f"eta={eta_db:g} dB, N={n}"
    out.append(
        _result(
            "fig3", "analytic vs independent-stage chain MC (|z|, full grid)",
            worst_z, 3.0, detail=f"worst at {z_at}",
        )
    )
    worst_excess = -math.inf
    worst_at = ""
    for e_idx, eta_db in enumerate(etas_db):
        gap = abs(analytic[e_idx, 0] - mc[e_idx, 0])
        tol = 3.0 * mc_se[e_idx, 0] + 0.02
        if gap - tol > worst_excess:
            worst_excess = gap - tol
            worst_at = f"eta={eta_db:g} dB: gap {gap:.4f} vs tol {tol:.4f}"
    out.append(
        _result(
            "fig3", "analytic vs event-chain MC at N=0 (3 stderr + 0.02)",
            worst_excess, 0.0, passed=worst_excess <= 0.0, detail=worst_at,
        )
    )
    # for N >= 1 the closed form's independence and deterministic radius
    # only lose successes the faithful chain keeps
    worst_excess = -math.inf
    worst_gap = (-math.inf, "")
    for e_idx, eta_db in enumerate(etas_db):
        for n in range(1, n_max + 1):
            worst_excess = max(
                worst_excess, analytic[e_idx, n] - mc[e_idx, n] - 3.0 * mc_se[e_idx, n]
            )
            worst_gap = max(
                worst_gap, (mc[e_idx, n] - analytic[e_idx, n], f"eta={eta_db:g} dB, N={n}")
            )
    out.append(
        _result(
            "fig3", "analytic at or below event-chain MC for N>=1 (+3 stderr)",
            worst_excess, 0.0, passed=worst_excess <= 0.0,
            detail=f"largest model error {worst_gap[0]:.4f} at {worst_gap[1]}",
        )
    )
    inc = np.diff(analytic, axis=1)
    mc_inc = np.diff(mc, axis=1)
    out.append(
        _result(
            "fig3", "monotone nondecreasing in N (analytic and MC)",
            float(min(inc.min(), mc_inc.min())), 0.0,
            passed=bool(inc.min() >= -1e-12 and mc_inc.min() >= 0.0),
            detail="smallest increment",
        )
    )
    nonneg_db = [i for i, d in enumerate(etas_db) if d >= 0.0]
    dim = float(max(inc[i, 1] - inc[i, 0] for i in nonneg_db))
    out.append(
        _result(
            "fig3", "diminishing first increment at eta >= 0 dB (analytic)",
            dim, 0.0, passed=dim <= 0.0, detail="max of inc(1->2)-inc(0->1)",
        )
    )
    high_db = [i for i, d in enumerate(etas_db) if d >= 2.0]
    worst_inc = float(max(inc[i].max() for i in high_db))
    out.append(
        _result("fig3", "all increments < 0.02 at eta >= 2 dB (analytic)", worst_inc, 0.02)
    )
    out.append(_result("fig3", "runtime [s]", time.perf_counter() - t0, 600.0))
    return out


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
    out = []
    ordering_margin = min(r["p_cov_max_sir"] - r["p_cov_min_load"] for r in rows)
    out.append(
        _result(
            "fig4", "min-load (no SIC) below max-SIR at every rho",
            -ordering_margin, 0.0, passed=ordering_margin > 0.0,
            detail="negative of the smallest max-SIR minus min-load margin",
        )
    )
    med = rows[(len(rows) - 1) // 2]
    uplift = med["mc_min_load_sic_mean"] - med["mc_min_load_mean"]
    out.append(
        _result(
            "fig4", f"SIC uplift at median rho={med['rho']:.2f}",
            uplift, 0.05, passed=uplift >= 0.05,
            detail="must be at least 0.05",
        )
    )
    worst_excess = -math.inf
    worst_at = ""
    for r in rows:
        gap = abs(r["mc_min_load_mean"] - r["p_cov_min_load"])
        tol = 3.0 * r["mc_min_load_stderr"] + 0.03
        if gap - tol > worst_excess:
            worst_excess = gap - tol
            worst_at = f"rho={r['rho']:.2f}: gap {gap:.4f} vs tol {tol:.4f}"
    out.append(
        _result(
            "fig4", "analytic min-load vs MC (3 stderr + 0.03)",
            worst_excess, 0.0, passed=worst_excess <= 0.0, detail=worst_at,
        )
    )
    out.append(_result("fig4", "runtime [s]", time.perf_counter() - t0, 300.0))
    return out


# ---------------------------------------------------------------------------
# 6. Fig. 5: maximum instantaneous SIR
# ---------------------------------------------------------------------------


def check_fig5(trials=None, seed=606, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, _ = _preset("fig5", trials, seed, threads)
    out = []
    # the Monte Carlo columns are filled at N = 0, where ps_analytic is the
    # no-SIC success law
    no_sic = [r for r in rows if r["n_max"] == 0]
    worst_z = max(
        abs(r["mc_model_mean"] - r["ps_analytic"]) / max(r["mc_model_stderr"], 1e-12)
        for r in no_sic
    )
    worst_shared = max(abs(r["mc_shared_mean"] - r["ps_analytic"]) for r in no_sic)
    out.append(
        _result(
            "fig5", "no-SIC success law vs MC (|z|, eta >= 0 dB)", worst_z, 3.0,
            detail="MC averages exactly over the per-AP independent fields the "
            "closed form assumes",
        )
    )
    out.append(
        _result(
            "fig5", "shared-field MC deviation (diagnostic, ungated)",
            worst_shared, math.inf, passed=True,
            detail="model error of the per-AP independence assumption",
        )
    )
    uplifts = [r["sic_uplift"] for r in rows if r["n_max"] >= 1]
    smallest, peak = min(uplifts), max(uplifts)
    out.append(
        _result(
            "fig5", "SIC uplift positive for N=1..3 at every eta in [0,10] dB",
            smallest, 0.0, passed=smallest > 0.0, detail="smallest uplift",
        )
    )
    out.append(
        _result(
            "fig5", "peak SIC uplift within [0.05, 0.25]", peak, 0.25,
            passed=0.05 <= peak <= 0.25,
        )
    )
    out.append(_result("fig5", "runtime [s]", time.perf_counter() - t0, 600.0))
    return out


# ---------------------------------------------------------------------------
# 7. Fig. 6: range expansion
# ---------------------------------------------------------------------------


def check_fig6(trials=None, seed=707, threads=1) -> list[CheckResult]:
    t0 = time.perf_counter()
    rows, trials = _preset("fig6", trials, seed, threads)
    out = []
    runs = fig6_runs(seed)
    etas = [r["eta_lin"] for r in rows[: len(rows) // len(runs)]]
    # the annulus-clearing oracle on the preset's own draws, bias by bias
    annulus = [
        est
        for _, cfg, b_seed in runs
        for est in simulate_rea(
            cfg, 1, etas, trials, b_seed, threads=threads, cancel_mode="annulus"
        ).cancelled
    ]
    worst_unc = worst_ann = worst_one = -math.inf
    worst_gap = (-math.inf, "")
    at_unc = at_ann = ""
    for r, ann in zip(rows, annulus):
        where = f"b={r['bias']:g}, eta={r['eta_db']:g} dB"
        closed = r["ps_rea_sic_analytic"]
        gap_u = abs(r["mc_rea_mean"] - r["ps_rea_analytic"])
        gap_a = abs(ann.mean - closed)
        if gap_u - 3.0 * r["mc_rea_stderr"] > worst_unc:
            worst_unc = gap_u - 3.0 * r["mc_rea_stderr"]
            at_unc = f"{where}: gap {gap_u:.4f}"
        if gap_a - 3.0 * ann.stderr > worst_ann:
            worst_ann = gap_a - 3.0 * ann.stderr
            at_ann = f"{where}: gap {gap_a:.4f}"
        worst_one = max(worst_one, r["mc_rea_sic_mean"] - closed - 3.0 * r["mc_rea_sic_stderr"])
        worst_gap = max(worst_gap, (closed - r["mc_rea_sic_mean"], where))
    out.append(
        _result(
            "fig6", "uncancelled closed form vs REA MC (3 stderr)",
            worst_unc, 0.0, passed=worst_unc <= 0.0, detail=at_unc,
        )
    )
    out.append(
        _result(
            "fig6", "cancelled closed form vs annulus-cancel MC (3 stderr)",
            worst_ann, 0.0, passed=worst_ann <= 0.0, detail=at_ann,
        )
    )
    out.append(
        _result(
            "fig6", "one-cancellation MC at or below cancelled closed form (+3 stderr)",
            worst_one, 0.0, passed=worst_one <= 0.0,
            detail=f"largest model error {worst_gap[0]:.4f} at {worst_gap[1]}",
        )
    )
    # bias by eta grids; each bias is compared with the next larger one
    unc, can, closed_unc, closed_can = (
        _grid(rows, c, len(runs))
        for c in ("mc_rea_mean", "mc_rea_sic_mean", "ps_rea_analytic", "ps_rea_sic_analytic")
    )
    mono_margin = min((g[:-1] - g[1:]).min() for g in (unc, can))
    out.append(
        _result(
            "fig6", "success decreases with bias (both curves)",
            -mono_margin, 0.0, passed=mono_margin > 0.0,
        )
    )
    # the same ordering on the closed forms, free of sampling noise
    closed_margin = min((g[:-1] - g[1:]).min() for g in (closed_unc, closed_can))
    out.append(
        _result(
            "fig6", "closed form decreases with bias (both curves)",
            -closed_margin, 0.0, passed=closed_margin > 0.0,
        )
    )
    order_margin = (can - unc).min()
    out.append(
        _result(
            "fig6", "cancelled curve above uncancelled everywhere",
            -order_margin, 0.0, passed=order_margin > 0.0,
        )
    )
    out.append(_result("fig6", "runtime [s]", time.perf_counter() - t0, 600.0))
    return out


# ---------------------------------------------------------------------------
# 8-10. Scale invariance, determinism, kurtosis
# ---------------------------------------------------------------------------


def check_scale_invariance(trials=100_000, seed=808, threads=1) -> list[CheckResult]:
    trials = trials or 100_000
    eta = db_to_linear(5.0)
    lo = ps_can_curve_mc(1e-4, 4.0, [eta], 3, trials, seed, threads=threads)
    hi = ps_can_curve_mc(1e-3, 4.0, [eta], 3, trials, seed + 1, threads=threads)
    lo, hi = lo["distance_only"]["direct"], hi["distance_only"]["direct"]
    worst = 0.0
    for n in range(1, 4):
        a, b = lo[0][n - 1], hi[0][n - 1]
        joint = math.hypot(a.stderr, b.stderr)
        worst = max(worst, abs(a.mean - b.mean) / max(joint, 1e-12))
    return [
        _result(
            "scale", "P_s,can at mu_j=1e-4 vs 1e-3 (|z| joint, n=1..3, 5 dB)",
            worst, 3.0,
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
    out = []
    gap = abs(kurtosis_after_cancellation(4.0, 2) - 54.0 / 7.0)
    out.append(_result("kurtosis", "gamma2(4,2) = 54/7", gap, 1e-12))
    products = [
        kurtosis_after_cancellation(4.0, n) * (n - 1) for n in range(2, 51)
    ]
    spread = max(products) - min(products)
    out.append(
        _result("kurtosis", "gamma2(alpha,n)*(n-1) constant for n=2..50", spread, 1e-12)
    )
    return out


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
