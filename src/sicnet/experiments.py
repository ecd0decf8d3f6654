"""Parameter sweeps, figure-reproduction presets, and results persistence.

Five presets reproduce the reference scenarios at desk scale:

  fig2  cancellation success P_s,can vs order n (closed forms + two MC
        orderings), single-tier equivalent, mu_j = 1e-4.
  fig3  SIC success P_s,SIC vs threshold for cancellation budgets N = 0..5,
        lambda_eq = mu_j = 1e-4, with the full event-chain MC.
  fig4  rate coverage: max-SIR vs minimum-load association (with and
        without one cancellation), lambda = 1e-5, mu_j = 5e-5.
  fig5  max-instantaneous-SIR success with SIC, two tiers with
        P1/P2 = Q1/Q2 = 10.
  fig6  range-expansion success without cancellation, canceling the
        dominant AP, and clearing the exclusion annulus (all three MC
        columns on the same draws), biases b in {2, 5, 10}.

Every run writes ``<output_dir>/<preset>/<timestamp>-<seed>/`` holding
``result.csv``, ``plot.gp`` (gnuplot, never executed here) and
``meta.json``.  Re-running with the same seed reproduces the CSV byte for
byte except the ``runtime_ms`` column.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__ as _version
from .errors import DomainError
from .model import (
    NetworkConfig,
    TierParams,
    config_from_dict,
    db_to_linear,
    load_config,
    rea_association_prob,
)
from .analytic import (
    outage_max_inst_sir,
    ps_can,
    ps_can_tsd,
    ps_ic_rea,
    ps_sic,
    ps_sic_max_inst_sir,
    rate_coverage_max_sir,
    rate_coverage_min_load,
)
from .montecarlo import (
    max_sir_success_curve_mc,
    ps_can_curve_mc,
    ps_sic_curve_mc,
    simulate_min_load,
    simulate_rea,
)

__all__ = [
    "PRESETS",
    "SweepSpec",
    "SweepResult",
    "default_spec",
    "run_preset",
    "emit_csv",
    "emit_plot_script",
    "write_run_directory",
]

# Reference scenario parameters
FIG2_ETA_DB = (0.0, 5.0, 10.0)
FIG2_ORDERS = 8
FIG3_ETA_DB = tuple(np.linspace(-10.0, 10.0, 11))
FIG3_N_MAX = 5
FIG4_RHOS = tuple(np.linspace(0.1, 1.0, 10))
FIG4_R_CON = 400.0
FIG5_ETA_DB = tuple(np.linspace(0.0, 10.0, 11))
FIG5_N_MAX = 3
FIG6_BIASES = (2.0, 5.0, 10.0)
FIG6_ETA_DB = tuple(np.linspace(-10.0, 10.0, 11))

DENSITY_MACRO = 1e-4     # fully loaded single-tier scenarios
FIG4_LAMBDA = 1e-5
FIG4_MU_J = 5e-5
TWO_TIER_LAMBDAS = (1e-5, 1e-4)
TWO_TIER_POWER_RATIO = 10.0


def two_tier_config(bias2: float = 1.0) -> NetworkConfig:
    """The recurring two-tier deployment: sparse high-power tier over a
    dense unit-power tier, P1/P2 = Q1/Q2 = 10."""
    return NetworkConfig(
        tiers=(
            TierParams(TWO_TIER_LAMBDAS[0], TWO_TIER_POWER_RATIO, TWO_TIER_POWER_RATIO),
            TierParams(TWO_TIER_LAMBDAS[1], 1.0, 1.0, bias=bias2),
        ),
        alpha=4.0,
        mu=1e-4,
        mu_j=1e-4,
    )


@dataclass(frozen=True)
class SweepSpec:
    preset: str
    grid: tuple = ()
    trials: int = 100_000
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise DomainError(f"unknown preset {self.preset!r}; choose from {tuple(PRESETS)}")
        if self.preset == "custom" and not self.grid:
            raise DomainError("custom sweeps need a non-empty grid")
        if self.trials < 1000:
            raise DomainError("Monte Carlo columns need trials >= 1000")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")


@dataclass
class SweepResult:
    preset: str
    columns: list[str]
    rows: list[dict]
    metadata: dict = field(default_factory=dict)


def default_spec(
    preset: str,
    trials: int | None = None,
    seed: int = 0,
    threads: int = 1,
    grid: tuple = (),
) -> SweepSpec:
    """A spec at the preset's default trial count unless ``trials`` is given
    (SweepSpec refuses an unknown preset)."""
    if trials is None:
        trials = PRESETS[preset].trials if preset in PRESETS else SweepSpec.trials
    return SweepSpec(preset, tuple(grid), trials, seed, threads)


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _run_fig2(spec: SweepSpec, diagnostics: dict) -> list[dict]:
    rows = []
    etas = [db_to_linear(d) for d in FIG2_ETA_DB]
    t0 = time.perf_counter()
    curves = ps_can_curve_mc(
        DENSITY_MACRO, 4.0, etas, FIG2_ORDERS, spec.trials, spec.seed, threads=spec.threads
    )
    dist, fade = curves["distance_only"], curves["power_with_fading"]
    ms = _ms(t0) / (len(etas) * FIG2_ORDERS)
    for e_idx, eta_db in enumerate(FIG2_ETA_DB):
        eta = etas[e_idx]
        for n in range(1, FIG2_ORDERS + 1):
            d = dist["direct"][e_idx][n - 1]
            f = fade["direct"][e_idx][n - 1]
            ch = dist["chain_survival"][e_idx][n - 1]
            rows.append(
                {
                    "n": n,
                    "eta_db": eta_db,
                    "eta_lin": eta,
                    "ps_can_pgfl": ps_can(eta, n, 4.0),
                    "ps_can_tsd": ps_can_tsd(eta, n),
                    "mc_dist_mean": d.mean,
                    "mc_dist_stderr": d.stderr,
                    "mc_fade_mean": f.mean,
                    "mc_fade_stderr": f.stderr,
                    "mc_dist_chain_mean": ch.mean,
                    "mc_dist_chain_stderr": ch.stderr,
                    "runtime_ms": ms,
                }
            )
    return rows


def _run_fig3(spec: SweepSpec, diagnostics: dict) -> list[dict]:
    rows = []
    etas = [db_to_linear(d) for d in FIG3_ETA_DB]
    t0 = time.perf_counter()
    grid = ps_sic_curve_mc(
        DENSITY_MACRO, DENSITY_MACRO, 4.0, etas, FIG3_N_MAX, spec.trials,
        spec.seed, threads=spec.threads,
    )
    ms = _ms(t0) / (len(etas) * (FIG3_N_MAX + 1))
    dof = grid[0][0].dof
    diagnostics["rqmc_layout"] = {
        "replicates": dof + 1,
        "replicate_trials_min": spec.trials // (dof + 1),
        "replicate_trials_max": -(-spec.trials // (dof + 1)),
        "dof": dof,
    }
    for e_idx, eta_db in enumerate(FIG3_ETA_DB):
        eta = etas[e_idx]
        breakdown = ps_sic(eta, FIG3_N_MAX, DENSITY_MACRO, DENSITY_MACRO, 4.0)
        totals = [breakdown.ps_no_ic]
        for lv in breakdown.per_level:
            totals.append(totals[-1] + lv.level_contribution)
        for n_max in range(FIG3_N_MAX + 1):
            est = grid[e_idx][n_max]
            rows.append(
                {
                    "eta_db": eta_db,
                    "eta_lin": eta,
                    "n_max": n_max,
                    "ps_sic_analytic": totals[n_max],
                    "mc_mean": est.mean,
                    "mc_stderr": est.stderr,
                    "runtime_ms": ms,
                }
            )
    return rows


def _run_fig4(spec: SweepSpec, diagnostics: dict) -> list[dict]:
    t0 = time.perf_counter()
    res = simulate_min_load(
        FIG4_LAMBDA, FIG4_MU_J, FIG4_R_CON, FIG4_RHOS, spec.trials, spec.seed,
        threads=spec.threads,
    )
    diagnostics["no_candidate_trials"] = res.no_candidate_trials
    ms = _ms(t0) / len(FIG4_RHOS)
    rows = []
    for idx, rho in enumerate(FIG4_RHOS):
        rows.append(
            {
                "rho": rho,
                "p_cov_max_sir": rate_coverage_max_sir(rho, FIG4_LAMBDA, FIG4_MU_J, 4.0),
                "p_cov_min_load": rate_coverage_min_load(
                    rho, FIG4_LAMBDA, FIG4_MU_J, 4.0, FIG4_R_CON
                ),
                "mc_min_load_mean": res.coverage[idx].mean,
                "mc_min_load_stderr": res.coverage[idx].stderr,
                "mc_min_load_sic_mean": res.coverage_sic[idx].mean,
                "mc_min_load_sic_stderr": res.coverage_sic[idx].stderr,
                "runtime_ms": ms,
            }
        )
    return rows


def _run_fig5(spec: SweepSpec, diagnostics: dict) -> list[dict]:
    cfg = two_tier_config()
    etas = [db_to_linear(d) for d in FIG5_ETA_DB]
    t0 = time.perf_counter()
    mc_model = max_sir_success_curve_mc(
        cfg, etas, spec.trials, spec.seed, threads=spec.threads,
        independent_fields=True,
    )
    mc_shared = max_sir_success_curve_mc(
        cfg, etas, spec.trials, spec.seed + 1, threads=spec.threads,
        independent_fields=False,
    )
    ms = _ms(t0) / (len(etas) * (FIG5_N_MAX + 1))
    rows = []
    for e_idx, eta_db in enumerate(FIG5_ETA_DB):
        eta = etas[e_idx]
        base = 1.0 - outage_max_inst_sir(eta, cfg)
        for n_max in range(FIG5_N_MAX + 1):
            analytic = base if n_max == 0 else ps_sic_max_inst_sir(eta, n_max, cfg)
            row = {
                "eta_db": eta_db,
                "eta_lin": eta,
                "n_max": n_max,
                "ps_analytic": analytic,
                "sic_uplift": analytic - base,
                "mc_model_mean": math.nan,
                "mc_model_stderr": math.nan,
                "mc_shared_mean": math.nan,
                "mc_shared_stderr": math.nan,
                "runtime_ms": ms,
            }
            if n_max == 0:  # MC columns validate the no-SIC outage law
                row["mc_model_mean"] = mc_model[e_idx].mean
                row["mc_model_stderr"] = mc_model[e_idx].stderr
                row["mc_shared_mean"] = mc_shared[e_idx].mean
                row["mc_shared_stderr"] = mc_shared[e_idx].stderr
            rows.append(row)
    return rows


def _run_fig6(spec: SweepSpec, diagnostics: dict) -> list[dict]:
    rows = []
    p_rea = diagnostics["p_rea"] = {}
    rea_raw = diagnostics["rea_raw"] = {}
    etas = [db_to_linear(d) for d in FIG6_ETA_DB]
    for b_idx, b in enumerate(FIG6_BIASES):
        cfg = two_tier_config(bias2=b)
        t0 = time.perf_counter()
        res = simulate_rea(cfg, 1, etas, spec.trials, spec.seed + b_idx, threads=spec.threads)
        ms = _ms(t0) / len(etas)
        p_rea[f"{b:g}"] = rea_association_prob(cfg, 1)
        rea_raw[f"{b:g}"] = res.raw
        for e_idx, eta_db in enumerate(FIG6_ETA_DB):
            eta = etas[e_idx]
            rows.append(
                {
                    "bias": b,
                    "eta_db": eta_db,
                    "eta_lin": eta,
                    "ps_rea_analytic": ps_ic_rea(eta, cfg, 1, 0),
                    "ps_rea_sic_analytic": ps_ic_rea(eta, cfg, 1, 1),
                    "mc_rea_mean": res.uncancelled[e_idx].mean,
                    "mc_rea_stderr": res.uncancelled[e_idx].stderr,
                    "mc_rea_sic_mean": res.cancelled[e_idx].mean,
                    "mc_rea_sic_stderr": res.cancelled[e_idx].stderr,
                    "mc_rea_annulus_mean": res.annulus[e_idx].mean,
                    "mc_rea_annulus_stderr": res.annulus[e_idx].stderr,
                    "runtime_ms": ms,
                }
            )
    return rows


def _run_custom(spec: SweepSpec, diagnostics: dict) -> list[dict]:
    """One row per grid point, each holding every parameter that any point
    names (in the order first named), None where the point lacks it."""
    from .cli import evaluate_formula  # registry lives with the CLI

    if not all(isinstance(point, dict) and "formula" in point for point in spec.grid):
        raise DomainError("custom grid points need to be objects with a 'formula' key")
    names = dict.fromkeys(k for point in spec.grid for k in point if k != "formula")
    rows = []
    for point in spec.grid:
        args = point
        if "config" in point:  # an inline object or the path of a config file
            read = load_config if isinstance(point["config"], str) else config_from_dict
            args = {**point, "config": read(point["config"])}
        t0 = time.perf_counter()
        value = evaluate_formula(point["formula"], args)
        rows.append({
            "formula": point["formula"],
            **{k: point.get(k) for k in names},
            "analytic_value": value,
            "runtime_ms": _ms(t0),
        })
    return rows


@dataclass(frozen=True)
class Preset:
    """A sweep preset: its runner, default trial count, one-line
    description and plot style.  The style is (x, y, x label, y label,
    series, extra): one curve of y per series value, and the extra columns
    as points at the first series value; without a series, one curve of y
    and one per extra column."""

    run: Callable[[SweepSpec, dict], list[dict]]
    trials: int
    description: str
    plot: tuple | None = None


PRESETS = {
    "fig2": Preset(
        _run_fig2, 100_000, "P_s,can vs order n; eta in {0,5,10} dB; mu_j = 1e-4",
        ("n", "ps_can_pgfl", "cancellation order n", "P_s,can", "eta_db", ("mc_dist_mean",)),
    ),
    "fig3": Preset(
        _run_fig3, 100_000,
        "P_s,SIC for N=0..5 over eta in [-10,10] dB; lambda_eq = mu_j = 1e-4",
        ("eta_db", "ps_sic_analytic", "threshold [dB]", "P_s,SIC", "n_max", ("mc_mean",)),
    ),
    "fig4": Preset(
        _run_fig4, 20_000, "rate coverage, max-SIR vs min-load; lambda = 1e-5, mu_j = 5e-5",
        ("rho", "p_cov_min_load", "rate threshold rho", "rate coverage", None,
         ("p_cov_max_sir", "mc_min_load_mean", "mc_min_load_sic_mean")),
    ),
    "fig5": Preset(
        _run_fig5, 20_000, "max-instantaneous-SIR with SIC; two tiers, P1/P2 = Q1/Q2 = 10",
        ("eta_db", "ps_analytic", "threshold [dB]", "success probability", "n_max",
         ("mc_model_mean",)),
    ),
    "fig6": Preset(
        _run_fig6, 100_000, "range-expansion success; biases {2,5,10}, P1/P2 = 10",
        ("eta_db", "ps_rea_analytic", "threshold [dB]", "REA success", "bias", ("mc_rea_mean",)),
    ),
    "custom": Preset(
        _run_custom, 1000, "user-supplied grid of formula evaluations (--grid-json)"
    ),
}


def _config_hash(spec: SweepSpec) -> str:
    payload = json.dumps(
        {
            "preset": spec.preset,
            "grid": list(spec.grid),
            "trials": spec.trials,
            "seed": spec.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_preset(spec: SweepSpec) -> SweepResult:
    """Evaluate one preset; one row per grid point, analytic and MC columns
    filled per the preset definition, deterministic given the seed.  The
    metadata also carries the simulators' diagnostics that no row holds:
    fig3's ``rqmc_layout`` (the faithful chain's replicate count, smallest
    and largest replicate size and degrees of freedom), fig4's
    ``no_candidate_trials``, and fig6's ``p_rea`` and ``rea_raw`` per
    bias: the exact REA association probability, whose event the
    simulator samples, and the means and standard errors of the strongest
    and annulus rows before their control (``ReaResult.raw``)."""
    t0 = time.perf_counter()
    diagnostics = {}
    rows = PRESETS[spec.preset].run(spec, diagnostics)
    if not rows:
        raise DomainError(f"preset {spec.preset} produced no rows")
    columns = list(rows[0].keys())
    metadata = {
        "preset": spec.preset,
        "seed": spec.seed,
        "trials": spec.trials,
        "threads": spec.threads,
        "rows": len(rows),
        "config_hash": _config_hash(spec),
        "tool_version": _version,
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        **diagnostics,
    }
    return SweepResult(preset=spec.preset, columns=columns, rows=rows, metadata=metadata)


def _format_cell(value) -> str:
    if value is None:  # a custom row's parameter that its formula does not take
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".9g")
    if isinstance(value, (dict, list)):  # a custom row's inline config reads back
        return json.dumps(value, sort_keys=True)
    return str(value)


def emit_csv(result: SweepResult, path) -> Path:
    """RFC-4180-style CSV: header row naming every column, floats printed
    with 9 significant digits, dicts and lists (a custom row's inline
    config) as JSON, and None (a parameter that a custom row lacks) as an
    empty cell."""
    path = Path(path)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(result.columns)
            for row in result.rows:
                writer.writerow(_format_cell(row.get(c)) for c in result.columns)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


def emit_plot_script(result: SweepResult, path, csv_name: str = "result.csv") -> Path:
    """Write a self-contained gnuplot script rendering the preset's figure
    from the CSV (referenced by relative path).  The script is emitted, not
    executed."""
    path = Path(path)
    lines = [
        f"# gnuplot script for the {result.preset} sweep",
        f"# generated by sicnet {_version}; data: {csv_name}",
    ]
    if result.preset == "fig3":
        lines.append(
            "# external upper/lower bound curves from the literature are not"
        )
        lines.append("# reproduced here; only this framework's curves are drawn")
    lines += [
        "set datafile separator ','",
        "set key outside",
        "set grid",
    ]
    if result.preset == "custom":
        lines.append(f"# custom sweep: {len(result.rows)} rows; plot by hand")
        lines.append(f"stats '{csv_name}' skip 1 nooutput")
    else:
        x, y, xlabel, ylabel, series, extra = PRESETS[result.preset].plot
        xi = result.columns.index(x) + 1
        yi = result.columns.index(y) + 1
        lines.append(f"set xlabel '{xlabel}'")
        lines.append(f"set ylabel '{ylabel}'")
        plots = []
        if series is None:
            for col in (y, *extra):
                ci = result.columns.index(col) + 1
                plots.append(
                    f"'{csv_name}' skip 1 using {xi}:{ci} with linespoints title '{col}'"
                )
        else:
            si = result.columns.index(series) + 1
            values = sorted({row[series] for row in result.rows})
            for v in values:
                plots.append(
                    f"'{csv_name}' skip 1 using "
                    f"(column({si})=={v} ? column({xi}) : NaN):{yi} "
                    f"with linespoints title '{series}={v}'"
                )
            for col in extra:
                mi = result.columns.index(col) + 1
                plots.append(
                    f"'{csv_name}' skip 1 using "
                    f"(column({si})=={values[0]} ? column({xi}) : NaN):{mi} "
                    f"with points title '{col} ({series}={values[0]})'"
                )
        lines.append("plot \\")
        lines.append(", \\\n".join("  " + p for p in plots))
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write plot script to {path}: {exc}") from exc
    return path


def write_run_directory(result: SweepResult, output_dir) -> Path:
    """Persist one run under <output_dir>/<preset>/<timestamp>-<seed>/."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    run_dir = Path(output_dir) / result.preset / f"{stamp}-{result.metadata['seed']}"
    run_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(result, run_dir / "result.csv")
    emit_plot_script(result, run_dir / "plot.gp")
    with open(run_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_dir
