"""The benchmark's three workloads: the operations one pass runs, and the
checks that judge each operation's output against the references.

Every pass of a run repeats the same operations on the same inputs; the
inputs of the Monte Carlo workloads (one simulator seed per operation) are
drawn from the run's ``--seed``.  The closed-form grids do not depend on it.

Monte Carlo checks use the exact binomial law of the success count: an
estimate fails when the tail beyond its count, under the reference
probability, is below the normal tail beyond |z| = Z_BOUND.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

import references as ref
from sicnet import analytic, experiments, montecarlo, numerics
from sicnet.model import NetworkConfig, SicConfig, TierParams

Z_BOUND = 5.0
TAIL = float(stats.norm.sf(Z_BOUND))  # per side
REL_TOL = 1e-9  # closed forms and C(b, alpha), as in the numerics gate

# Reference scenarios of the paper's figures (alpha = 4 throughout)
ALPHA = 4.0
MACRO = 1e-4  # lambda_eq = mu_j of the single-tier figures
TWO_TIER = ((1e-5, 10.0, 10.0), (1e-4, 1.0, 1.0))  # (lambda, P, Q) per tier
TWO_TIER_MU = 1e-4
FIG2_ETA_DB = (0.0, 5.0, 10.0)
FIG2_ORDERS = 8
FIG3_ETA_DB = tuple(float(d) for d in np.linspace(-10.0, 10.0, 11))
FIG3_N_MAX = 5
FIG4_RHOS = tuple(float(r) for r in np.linspace(0.1, 1.0, 10))
FIG4_LAMBDA, FIG4_MU_J, FIG4_R_CON = 1e-5, 5e-5, 400.0
FIG5_ETA_DB = tuple(float(d) for d in np.linspace(0.0, 10.0, 11))
FIG5_N_MAX = 3
FIG6_BIASES = (2.0, 5.0, 10.0)
FIG6_ETA_DB = FIG3_ETA_DB
C_ALPHAS = (2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 8.0)
C_BS = (0.0, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)

# Trial budgets per call
PRESET_TRIALS = 1000      # the smallest budget run_preset accepts
CHAIN_TRIALS = 2048       # chain_mc presets and oracle calls
MAX_INST_TRIALS = 64      # each simulate_max_inst_sir call (66 per pass)


def db(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def two_tier(bias: float = 1.0) -> NetworkConfig:
    (l1, p1, q1), (l2, p2, q2) = TWO_TIER
    return NetworkConfig(
        tiers=(TierParams(l1, p1, q1), TierParams(l2, p2, q2, bias=bias)),
        alpha=ALPHA,
        mu=TWO_TIER_MU,
        mu_j=TWO_TIER_MU,
    )


def ref_tiers(bias: float = 1.0):
    (l1, p1, q1), (l2, p2, q2) = TWO_TIER
    return ((l1, p1, q1, 1.0), (l2, p2, q2, bias))


@dataclass
class Op:
    """One timed call and the check of its output (a list of problems)."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False  # a failed check counts as a failed operation


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------


def close(what: str, got: float, want: float) -> list:
    if abs(got - want) <= REL_TOL * abs(want):
        return []
    return [f"{what}: {got!r} vs reference {want!r} (rel {abs(got - want) / abs(want):.3g})"]


def _count(mean: float, trials: int) -> int:
    return int(round(mean * trials))


def binom_two_sided(what: str, mean: float, trials: int, p: float) -> list:
    k = _count(mean, trials)
    lo = stats.binom.cdf(k, trials, p)
    hi = stats.binom.sf(k - 1, trials, p)
    if min(lo, hi) >= TAIL:
        return []
    return [f"{what}: {k}/{trials} against p = {p:.6g} (tail {min(lo, hi):.3g})"]


def binom_not_below(what: str, mean: float, trials: int, p: float) -> list:
    """The estimate is not significantly below p (p is at or below the truth)."""
    k = _count(mean, trials)
    lo = stats.binom.cdf(k, trials, p)
    return [] if lo >= TAIL else [f"{what}: {k}/{trials} below p = {p:.6g} (tail {lo:.3g})"]


def binom_not_above(what: str, mean: float, trials: int, p: float) -> list:
    """The estimate is not significantly above p (p is at or above the truth)."""
    k = _count(mean, trials)
    hi = stats.binom.sf(k - 1, trials, p)
    return [] if hi >= TAIL else [f"{what}: {k}/{trials} above p = {p:.6g} (tail {hi:.3g})"]


def ordered(what: str, values, increasing: bool) -> list:
    d = np.diff(np.asarray(values, dtype=float))
    bad = d < 0.0 if increasing else d > 0.0
    return [f"{what}: not {'nondecreasing' if increasing else 'nonincreasing'}: {list(values)}"] if bad.any() else []


def at_least(what: str, hi: float, lo: float) -> list:
    return [] if hi >= lo else [f"{what}: {hi!r} < {lo!r}"]


def sic_totals(breakdown) -> list:
    totals = [breakdown.ps_no_ic]
    for lv in breakdown.per_level:
        totals.append(totals[-1] + lv.level_contribution)
    return totals


def grid_rows(result, keys, grid, what: str):
    """Rows of ``result`` in the order of ``grid`` (grid columns compared to
    9 digits); problems if the preset's grid differs."""
    table = {tuple(round(float(r[k]), 9) for k in keys): r for r in result.rows}
    want = [tuple(round(float(v), 9) for v in point) for point in grid]
    if len(table) != len(result.rows) or sorted(table) != sorted(want):
        return None, [f"{what}: preset grid differs from the reference grid"]
    return [table[w] for w in want], []


# ---------------------------------------------------------------------------
# Output summaries: digests for cross-pass determinism, standard errors
# ---------------------------------------------------------------------------


def digest(out) -> str:
    """Text that two bit-identical outputs share; drops wall-clock fields."""
    if isinstance(out, experiments.SweepResult):
        return repr([{k: v for k, v in r.items() if k != "runtime_ms"} for r in out.rows])
    return repr(out)


def stderrs(out) -> list:
    """Standard errors of every Monte Carlo estimate in an output."""
    found = []

    def walk(x):
        if isinstance(x, montecarlo.Estimate):
            if math.isfinite(x.stderr):
                found.append(x.stderr)
        elif isinstance(x, experiments.SweepResult):
            for row in x.rows:
                found.extend(
                    float(v) for k, v in row.items()
                    if k.endswith("_stderr") and math.isfinite(v)
                )
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (list, tuple)) or (isinstance(x, np.ndarray) and x.dtype == object):
            for v in x:
                walk(v)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))

    walk(out)
    return found


# ---------------------------------------------------------------------------
# closed_forms
# ---------------------------------------------------------------------------


def _c_integral_op(b: float, alpha: float) -> Op:
    want = ref.c_mp(b, alpha)
    return Op(
        f"c_integral(b={b:g}, alpha={alpha:g})",
        lambda: numerics.c_integral(b, alpha),
        lambda got: close(f"C({b:g}, {alpha:g})", got, want),
        known_fault=True,
    )


def _fig2_op(eta_db: float, n: int) -> Op:
    eta = db(eta_db)
    want = (ref.ps_can(eta, n), ref.ps_can_tsd(eta, n))

    def check(got):
        return close(f"ps_can({eta_db:g} dB, {n})", got[0], want[0]) + close(
            f"ps_can_tsd({eta_db:g} dB, {n})", got[1], want[1]
        )

    return Op(
        f"fig2 ps_can, ps_can_tsd at {eta_db:g} dB, n={n}",
        lambda: (analytic.ps_can(eta, n, ALPHA), analytic.ps_can_tsd(eta, n)),
        check,
    )


def _fig3_op(eta_db: float) -> Op:
    eta = db(eta_db)
    want = ref.ps_sic(eta, FIG3_N_MAX, MACRO, MACRO)
    plain = ref.plain(eta, MACRO, MACRO)

    def check(breakdown):
        got = sic_totals(breakdown)
        out = close(f"ps_sic({eta_db:g} dB) at N=0 vs plain law", got[0], plain)
        for n, (g, w) in enumerate(zip(got, want)):
            out += close(f"ps_sic({eta_db:g} dB, N={n})", g, w)
        return out + ordered(f"ps_sic({eta_db:g} dB) in N", got, increasing=True)

    return Op(
        f"fig3 ps_sic at {eta_db:g} dB, N={FIG3_N_MAX}",
        lambda: analytic.ps_sic(eta, FIG3_N_MAX, MACRO, MACRO, ALPHA),
        check,
    )


def _fig4_op(rho: float) -> Op:
    want = (
        ref.rate_coverage_max_sir(rho, FIG4_LAMBDA, FIG4_MU_J),
        ref.rate_coverage_min_load(rho, FIG4_LAMBDA, FIG4_MU_J, FIG4_R_CON),
    )

    def check(got):
        return close(f"rate_coverage_max_sir({rho:.2f})", got[0], want[0]) + close(
            f"rate_coverage_min_load({rho:.2f})", got[1], want[1]
        )

    return Op(
        f"fig4 rate coverages at rho={rho:.2f}",
        lambda: (
            analytic.rate_coverage_max_sir(rho, FIG4_LAMBDA, FIG4_MU_J, ALPHA),
            analytic.rate_coverage_min_load(rho, FIG4_LAMBDA, FIG4_MU_J, ALPHA, FIG4_R_CON),
        ),
        check,
    )


def _fig5_want(eta: float) -> list:
    tiers = ref_tiers()
    return [ref.ps_sic_max_inst_sir(eta, n, tiers, TWO_TIER_MU) for n in range(FIG5_N_MAX + 1)]


def _fig5_op(eta_db: float, cfg: NetworkConfig) -> Op:
    eta = db(eta_db)
    want = _fig5_want(eta)

    def call():
        values = [1.0 - analytic.outage_max_inst_sir(eta, cfg)]
        values += [analytic.ps_sic_max_inst_sir(eta, n, cfg) for n in range(1, FIG5_N_MAX + 1)]
        return values

    def check(got):
        out = []
        for n, (g, w) in enumerate(zip(got, want)):
            out += close(f"max-inst-SIR success({eta_db:g} dB, N={n})", g, w)
        return out + ordered(f"max-inst-SIR success({eta_db:g} dB) in N", got, increasing=True)

    return Op(f"fig5 max-inst-SIR success at {eta_db:g} dB, N=0..{FIG5_N_MAX}", call, check)


def _fig6_op(bias: float, eta_db: float, cfg: NetworkConfig) -> Op:
    eta = db(eta_db)
    tiers = ref_tiers(bias)
    want = (ref.ps_ic_rea(eta, tiers, 1, 0), ref.ps_ic_rea(eta, tiers, 1, 1))

    def check(got):
        return close(f"ps_ic_rea(b={bias:g}, {eta_db:g} dB, 0)", got[0], want[0]) + close(
            f"ps_ic_rea(b={bias:g}, {eta_db:g} dB, 1)", got[1], want[1]
        )

    return Op(
        f"fig6 ps_ic_rea at b={bias:g}, {eta_db:g} dB",
        lambda: (analytic.ps_ic_rea(eta, cfg, 1, 0), analytic.ps_ic_rea(eta, cfg, 1, 1)),
        check,
    )


def closed_forms(seed: int) -> list:
    del seed  # the closed-form grids are fixed
    cfg5 = two_tier()
    cfg6 = {b: two_tier(b) for b in FIG6_BIASES}
    ops = [_c_integral_op(b, a) for a in C_ALPHAS for b in C_BS]
    ops += [_fig2_op(d, n) for d in FIG2_ETA_DB for n in range(1, FIG2_ORDERS + 1)]
    ops += [_fig3_op(d) for d in FIG3_ETA_DB]
    ops += [_fig4_op(r) for r in FIG4_RHOS]
    ops += [_fig5_op(d, cfg5) for d in FIG5_ETA_DB]
    ops += [_fig6_op(b, d, cfg6[b]) for b in FIG6_BIASES for d in FIG6_ETA_DB]
    return ops


# ---------------------------------------------------------------------------
# chain_mc
# ---------------------------------------------------------------------------


def _preset(name: str, trials: int, seed: int):
    return lambda: experiments.run_preset(experiments.default_spec(name, trials=trials, seed=seed))


def _fig2_preset_op(seed: int) -> Op:
    grid = [(n, d) for d in FIG2_ETA_DB for n in range(1, FIG2_ORDERS + 1)]
    t = CHAIN_TRIALS

    def check(result):
        rows, out = grid_rows(result, ("n", "eta_db"), grid, "fig2")
        if out:
            return out
        for (n, d), r in zip(grid, rows):
            eta = db(d)
            at = f"fig2 {d:g} dB, n={n}"
            out += close(f"{at} ps_can_pgfl", r["ps_can_pgfl"], ref.ps_can(eta, n))
            out += close(f"{at} ps_can_tsd", r["ps_can_tsd"], ref.ps_can_tsd(eta, n))
            out += binom_two_sided(f"{at} distance-ordered MC vs n-th nearest law",
                                   r["mc_dist_mean"], t, ref.ps_can(eta, n))
            out += at_least(f"{at} direct >= chain_survival", r["mc_dist_mean"], r["mc_dist_chain_mean"])
            if n == 1:
                out += binom_two_sided(f"{at} fading-ordered MC vs strongest-node law",
                                       r["mc_fade_mean"], t, ref.strongest(eta))
        return out

    return Op("run_preset(fig2)", _preset("fig2", t, seed), check)


def _fig3_preset_op(seed: int, sic_want: dict) -> Op:
    grid = [(d, n) for d in FIG3_ETA_DB for n in range(FIG3_N_MAX + 1)]
    t = CHAIN_TRIALS

    def check(result):
        rows, out = grid_rows(result, ("eta_db", "n_max"), grid, "fig3")
        if out:
            return out
        for (d, n), r in zip(grid, rows):
            at = f"fig3 {d:g} dB, N={n}"
            out += close(f"{at} ps_sic_analytic", r["ps_sic_analytic"], sic_want[d][n])
            if n == 0:
                out += binom_two_sided(f"{at} event-chain MC vs plain law", r["mc_mean"], t,
                                       ref.plain(db(d), MACRO, MACRO))
            else:  # the closed form loses successes the faithful chain keeps
                out += binom_not_below(f"{at} closed form at or below event-chain MC",
                                       r["mc_mean"], t, r["ps_sic_analytic"])
        for i, d in enumerate(FIG3_ETA_DB):
            mc = [rows[i * (FIG3_N_MAX + 1) + n]["mc_mean"] for n in range(FIG3_N_MAX + 1)]
            out += ordered(f"fig3 {d:g} dB MC in N", mc, increasing=True)
        return out

    return Op("run_preset(fig3)", _preset("fig3", t, seed), check)


def _fig6_preset_op(seed: int, rea_want: dict) -> Op:
    grid = [(b, d) for b in FIG6_BIASES for d in FIG6_ETA_DB]
    t = CHAIN_TRIALS

    def check(result):
        rows, out = grid_rows(result, ("bias", "eta_db"), grid, "fig6")
        if out:
            return out
        for (b, d), r in zip(grid, rows):
            unc, can = rea_want[(b, d)]
            at = f"fig6 b={b:g}, {d:g} dB"
            out += close(f"{at} ps_rea_analytic", r["ps_rea_analytic"], unc)
            out += close(f"{at} ps_rea_sic_analytic", r["ps_rea_sic_analytic"], can)
            out += binom_two_sided(f"{at} uncancelled MC vs closed form", r["mc_rea_mean"], t, unc)
            out += at_least(f"{at} cancelled >= uncancelled", r["mc_rea_sic_mean"], r["mc_rea_mean"])
            # one cancellation clears at most what the closed form's annulus clears
            out += binom_not_above(f"{at} one-cancellation MC at or below closed form",
                                   r["mc_rea_sic_mean"], t, can)
        return out

    return Op("run_preset(fig6)", _preset("fig6", t, seed), check)


def _stages_op(seed: int, sic_want: dict) -> Op:
    etas = [db(d) for d in FIG3_ETA_DB]

    def check(grid):
        out = []
        for i, d in enumerate(FIG3_ETA_DB):
            for n in range(FIG3_N_MAX + 1):
                out += binom_two_sided(f"independent-stage chain {d:g} dB, N={n} vs ps_sic",
                                       grid[i][n].mean, CHAIN_TRIALS, sic_want[d][n])
            out += ordered(f"independent-stage chain {d:g} dB in N",
                           [e.mean for e in grid[i]], increasing=True)
        return out

    return Op(
        "ps_sic_curve_mc(independent_stages=True)",
        lambda: montecarlo.ps_sic_curve_mc(
            MACRO, MACRO, ALPHA, etas, FIG3_N_MAX, CHAIN_TRIALS, seed,
            independent_stages=True,
        ),
        check,
    )


def _annulus_op(bias: float, seed: int, rea_want: dict) -> Op:
    cfg = two_tier(bias)
    etas = [db(d) for d in FIG6_ETA_DB]

    def check(res):
        out = []
        for i, d in enumerate(FIG6_ETA_DB):
            unc, can = rea_want[(bias, d)]
            at = f"annulus REA b={bias:g}, {d:g} dB"
            out += binom_two_sided(f"{at} cancelled vs closed form", res.cancelled[i].mean, CHAIN_TRIALS, can)
            out += binom_two_sided(f"{at} uncancelled vs closed form", res.uncancelled[i].mean, CHAIN_TRIALS, unc)
            out += at_least(f"{at} cancelled >= uncancelled", res.cancelled[i].mean, res.uncancelled[i].mean)
        return out

    return Op(
        f"simulate_rea(b={bias:g}, cancel_mode=annulus)",
        lambda: montecarlo.simulate_rea(cfg, 1, etas, CHAIN_TRIALS, seed, cancel_mode="annulus"),
        check,
    )


def chain_mc(seed: int) -> list:
    seeds = iter(np.random.default_rng(seed).integers(0, 2**31, size=16).tolist())
    sic_want = {d: ref.ps_sic(db(d), FIG3_N_MAX, MACRO, MACRO) for d in FIG3_ETA_DB}
    rea_want = {
        (b, d): (ref.ps_ic_rea(db(d), ref_tiers(b), 1, 0), ref.ps_ic_rea(db(d), ref_tiers(b), 1, 1))
        for b in FIG6_BIASES for d in FIG6_ETA_DB
    }
    ops = [
        _fig2_preset_op(next(seeds)),
        _fig3_preset_op(next(seeds), sic_want),
        _fig6_preset_op(next(seeds), rea_want),
        _stages_op(next(seeds), sic_want),
    ]
    ops += [_annulus_op(b, next(seeds), rea_want) for b in FIG6_BIASES]
    return ops


# ---------------------------------------------------------------------------
# policy_mc
# ---------------------------------------------------------------------------


def _fig4_preset_op(seed: int) -> Op:
    want = {
        r: (
            ref.rate_coverage_max_sir(r, FIG4_LAMBDA, FIG4_MU_J),
            ref.rate_coverage_min_load(r, FIG4_LAMBDA, FIG4_MU_J, FIG4_R_CON),
        )
        for r in FIG4_RHOS
    }

    def check(result):
        rows, out = grid_rows(result, ("rho",), [(r,) for r in FIG4_RHOS], "fig4")
        if out:
            return out
        for rho, r in zip(FIG4_RHOS, rows):
            out += close(f"fig4 rho={rho:.2f} p_cov_max_sir", r["p_cov_max_sir"], want[rho][0])
            out += close(f"fig4 rho={rho:.2f} p_cov_min_load", r["p_cov_min_load"], want[rho][1])
            out += at_least(f"fig4 rho={rho:.2f} cancelled >= uncancelled",
                            r["mc_min_load_sic_mean"], r["mc_min_load_mean"])
        for col in ("mc_min_load_mean", "mc_min_load_sic_mean"):
            out += ordered(f"fig4 {col} in rho", [r[col] for r in rows], increasing=False)
        return out

    return Op("run_preset(fig4)", _preset("fig4", PRESET_TRIALS, seed), check)


def _fig5_preset_op(seed: int) -> Op:
    want = {d: _fig5_want(db(d)) for d in FIG5_ETA_DB}
    grid = [(d, n) for d in FIG5_ETA_DB for n in range(FIG5_N_MAX + 1)]

    def check(result):
        rows, out = grid_rows(result, ("eta_db", "n_max"), grid, "fig5")
        if out:
            return out
        for (d, n), r in zip(grid, rows):
            at = f"fig5 {d:g} dB, N={n}"
            out += close(f"{at} ps_analytic", r["ps_analytic"], want[d][n])
            if n == 0:  # per-AP independent fields: the closed form's own event
                out += binom_two_sided(f"{at} independent-field MC vs closed form",
                                       r["mc_model_mean"], PRESET_TRIALS, want[d][0])
        for i, d in enumerate(FIG5_ETA_DB):
            ana = [rows[i * (FIG5_N_MAX + 1) + n]["ps_analytic"] for n in range(FIG5_N_MAX + 1)]
            out += ordered(f"fig5 {d:g} dB closed form in N", ana, increasing=True)
        return out

    return Op("run_preset(fig5)", _preset("fig5", PRESET_TRIALS, seed), check)


def _max_inst_op(eta_db: float, independent: bool, seed: int, cfg: NetworkConfig) -> Op:
    eta = db(eta_db)
    mode = "independent" if independent else "shared"

    def call():
        # one seed for every N: the same draws, so success can only grow with N
        return [
            montecarlo.simulate_max_inst_sir(
                cfg, SicConfig(eta_t=eta, n_max=n), MAX_INST_TRIALS, seed,
                independent_fields=independent,
            )
            for n in range(1, FIG5_N_MAX + 1)
        ]

    def check(ests):
        return ordered(f"simulate_max_inst_sir {mode} {eta_db:g} dB in N",
                       [e.mean for e in ests], increasing=True)

    return Op(f"simulate_max_inst_sir({mode}, {eta_db:g} dB, N=1..{FIG5_N_MAX})", call, check)


def policy_mc(seed: int) -> list:
    seeds = iter(np.random.default_rng(seed).integers(0, 2**31, size=64).tolist())
    cfg = two_tier()
    ops = [_fig4_preset_op(next(seeds)), _fig5_preset_op(next(seeds))]
    ops += [
        _max_inst_op(d, independent, next(seeds), cfg)
        for independent in (False, True) for d in FIG5_ETA_DB
    ]
    return ops


def build(workload: str, seed: int) -> list:
    return {"closed_forms": closed_forms, "chain_mc": chain_mc, "policy_mc": policy_mc}[workload](seed)
