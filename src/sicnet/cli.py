"""Command-line front door.

Subcommands: ``eval`` (single formulas), ``sweep`` (presets and custom
grids), ``validate`` (analytic-vs-MC agreement suites), ``presets`` (list
scenarios), ``inspect`` (configuration diagnostics).

Units at the boundary: SIR thresholds are accepted either linear (``--eta``)
or in dB (``--eta-db``), never both; densities are per square meter; powers
are linear relative units.  Exit codes: 0 success, 1 runtime or I/O failure,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import ConfigError, DomainError, NumericsError
from .model import (
    NetworkConfig,
    _require_count,
    association_prob_max_power,
    biased_association_prob,
    cancellation_radius,
    config_from_dict,
    config_to_dict,
    db_to_linear,
    equivalent_density,
    load_config,
    rea_association_prob,
)
from .numerics import c_integral, pareto_received_power_cdf
from .analytic import (
    kurtosis_after_cancellation,
    load_pmf,
    outage_max_inst_sir,
    ps_can,
    ps_can_tsd,
    ps_ic,
    ps_ic_rea,
    ps_plain,
    ps_sic,
    ps_sic_max_inst_sir,
    rate_coverage_max_sir,
    rate_coverage_min_load,
)

OUTPUT_DIR_ENV = "SICNET_OUTPUT_DIR"

# formula name -> (callable, required params, one-line description)
FORMULAS = {
    "ps_plain": (
        lambda p: ps_plain(p["eta"], p["lambda_eq"], p["mu_j"], p["alpha"]),
        ("eta", "lambda_eq", "mu_j", "alpha"),
        "success probability without cancellation",
    ),
    "ps_ic": (
        lambda p: ps_ic(p["eta"], p["n"], p["lambda_eq"], p["mu_j"], p["alpha"]),
        ("eta", "n", "lambda_eq", "mu_j", "alpha"),
        "decoding probability after n cancellations",
    ),
    "ps_can": (
        lambda p: ps_can(p["eta"], p["n"], p["alpha"]),
        ("eta", "n", "alpha"),
        "probability of decoding the n-th strongest interferer",
    ),
    "ps_can_tsd": (
        lambda p: ps_can_tsd(p["eta"], p["n"]),
        ("eta", "n"),
        "truncated-stable variant of ps_can (alpha = 4)",
    ),
    "ps_sic": (
        lambda p: ps_sic(
            p["eta"], p["n_max"], p["lambda_eq"], p["mu_j"], p["alpha"]
        ).ps_sic_total,
        ("eta", "n_max", "lambda_eq", "mu_j", "alpha"),
        "full SIC success probability with budget N",
    ),
    "kurtosis": (
        lambda p: kurtosis_after_cancellation(p["alpha"], p["n"]),
        ("alpha", "n"),
        "excess kurtosis of residual interference",
    ),
    "load_pmf": (
        lambda p: load_pmf(p["m"], p["mu_j"], p["lam"]),
        ("m", "mu_j", "lam"),
        "cell load probability mass function",
    ),
    "rate_coverage_max_sir": (
        lambda p: rate_coverage_max_sir(p["rho"], p["lam"], p["mu_j"], p["alpha"]),
        ("rho", "lam", "mu_j", "alpha"),
        "rate coverage under max-SIR association",
    ),
    "rate_coverage_min_load": (
        lambda p: rate_coverage_min_load(
            p["rho"], p["lam"], p["mu_j"], p["alpha"], p["r_con"]
        ),
        ("rho", "lam", "mu_j", "alpha", "r_con"),
        "rate coverage under minimum-load association",
    ),
    "outage_max_inst_sir": (
        lambda p: outage_max_inst_sir(p["eta"], p["config"]),
        ("eta", "config"),
        "outage of the max-instantaneous-SIR policy",
    ),
    "ps_sic_max_inst_sir": (
        lambda p: ps_sic_max_inst_sir(p["eta"], p["n_max"], p["config"]),
        ("eta", "n_max", "config"),
        "max-instantaneous-SIR success with SIC",
    ),
    "ps_ic_rea": (
        lambda p: ps_ic_rea(p["eta"], p["config"], _require_count("k", p["k"], 1) - 1,
                            _require_count("cancelled", p["cancelled"])),
        ("eta", "config", "k", "cancelled"),
        "range-expanded-area success (tier k, 1-based)",
    ),
    "c_integral": (
        lambda p: c_integral(p["b"], p["alpha"]),
        ("b", "alpha"),
        "interference integral C(b, alpha)",
    ),
    "pareto_cdf": (
        lambda p: pareto_received_power_cdf(p["y"], p["alpha"], p["r_max"]),
        ("y", "alpha", "r_max"),
        "received-power Pareto CDF",
    ),
    "cancellation_radius": (
        lambda p: cancellation_radius(p["mu_j"], p["n"]),
        ("mu_j", "n"),
        "radius enclosing on average n interferers [m]",
    ),
}


def evaluate_formula(name: str, params: dict) -> float:
    """Evaluate a registered formula; raises DomainError for unknown names
    or missing parameters (used by both cmd_eval and custom sweeps)."""
    if name not in FORMULAS:
        raise DomainError(
            f"unknown formula {name!r}; registry: {', '.join(sorted(FORMULAS))}"
        )
    fn, required, _ = FORMULAS[name]
    missing = [r for r in required if params.get(r) is None]
    if missing:
        raise DomainError(f"{name} needs parameters: {', '.join(missing)}")
    return fn(params)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("formula parameters (units noted)")
    g.add_argument("--eta", type=float, help="SIR threshold, linear")
    g.add_argument("--eta-db", type=float, help="SIR threshold in dB")
    g.add_argument("--n", type=int, help="cancellation order / count")
    g.add_argument("--n-max", type=int, help="maximum cancellations N")
    g.add_argument("--alpha", type=float, help="path-loss exponent (> 2)")
    g.add_argument("--lambda-eq", type=float, help="equivalent AP density [1/m^2]")
    g.add_argument("--lam", type=float, help="AP density [1/m^2]")
    g.add_argument("--mu-j", type=float, help="active-user density on the channel [1/m^2]")
    g.add_argument("--rho", type=float, help="rate threshold [bit/channel use]")
    g.add_argument("--r-con", type=float, help="connectivity range [m]")
    g.add_argument("--m", type=int, help="cell load value")
    g.add_argument("--k", type=int, help="tier index (1-based)")
    g.add_argument("--cancelled", type=int, choices=(0, 1), help="REA cancellation flag")
    g.add_argument("--b", type=float, help="lower integration limit of C(b, alpha)")
    g.add_argument("--y", type=float, help="received power value")
    g.add_argument("--r-max", type=float, help="maximum interferer range [m]")
    g.add_argument("--config", type=str, help="network config JSON path")


def _collect_params(args: argparse.Namespace) -> dict:
    if args.eta is not None and args.eta_db is not None:
        raise DomainError("supply either --eta or --eta-db, not both")
    params = {
        "eta": db_to_linear(args.eta_db) if args.eta_db is not None else args.eta,
        "n": args.n,
        "n_max": args.n_max,
        "alpha": args.alpha,
        "lambda_eq": args.lambda_eq,
        "lam": args.lam,
        "mu_j": args.mu_j,
        "rho": args.rho,
        "r_con": args.r_con,
        "m": args.m,
        "k": args.k,
        "cancelled": args.cancelled,
        "b": args.b,
        "y": args.y,
        "r_max": args.r_max,
    }
    if args.config is not None:
        cfg = load_config(args.config)
        overrides = {}
        for key in ("alpha", "mu_j"):
            if params.get(key) is not None:
                overrides[key] = params[key]
        if overrides:
            data = config_to_dict(cfg)
            data.update(overrides)
            cfg = config_from_dict(data)
        params["config"] = cfg
        if params.get("alpha") is None:
            params["alpha"] = cfg.alpha
        if params.get("mu_j") is None:
            params["mu_j"] = cfg.mu_j
    else:
        params["config"] = None
    return params


def cmd_eval(args: argparse.Namespace) -> int:
    params = _collect_params(args)
    value = evaluate_formula(args.formula, params)
    _, required, _ = FORMULAS[args.formula]
    echo = []
    for key in required:
        v = params[key]
        if isinstance(v, NetworkConfig):
            echo.append(f"config={args.config}")
        else:
            echo.append(f"{key}={v:g}" if isinstance(v, float) else f"{key}={v}")
    print(f"{args.formula}({', '.join(echo)}) = {value:.6f}")
    if args.formula == "ps_sic":
        breakdown = ps_sic(
            params["eta"], params["n_max"], params["lambda_eq"],
            params["mu_j"], params["alpha"],
        )
        print(f"  no-cancellation term: {breakdown.ps_no_ic:.6f}")
        for lv in breakdown.per_level:
            print(
                f"  level {lv.level}: outage-chain {lv.chain_outage_product:.6f} "
                f"* cancels {lv.cancel_product:.6f} * decode {lv.decode_after:.6f} "
                f"-> +{lv.level_contribution:.6f}"
            )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import default_spec, run_preset, write_run_directory

    grid = ()
    if args.grid_json:
        raw = args.grid_json
        if os.path.exists(raw):
            with open(raw, encoding="utf-8") as fh:
                grid = tuple(json.load(fh))
        else:
            grid = tuple(json.loads(raw))
    spec = default_spec(
        args.preset,
        trials=args.trials,
        seed=args.seed,
        output_dir=args.output_dir,
        threads=args.threads,
        grid=grid,
    )
    result = run_preset(spec)
    run_dir = write_run_directory(result, spec.output_dir)
    print(f"wrote {len(result.rows)} rows to {run_dir}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import format_report, run_suite

    results = run_suite(
        args.suite, trials=args.trials, seed=args.seed, threads=args.threads
    )
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_presets(args: argparse.Namespace) -> int:
    from .experiments import _DEFAULT_TRIALS, PRESETS

    descriptions = {
        "fig2": "P_s,can vs order n; eta in {0,5,10} dB; mu_j = 1e-4",
        "fig3": "P_s,SIC for N=0..5 over eta in [-10,10] dB; lambda_eq = mu_j = 1e-4",
        "fig4": "rate coverage, max-SIR vs min-load; lambda = 1e-5, mu_j = 5e-5",
        "fig5": "max-instantaneous-SIR with SIC; two tiers, P1/P2 = Q1/Q2 = 10",
        "fig6": "range-expansion success; biases {2,5,10}, P1/P2 = 10",
        "custom": "user-supplied grid of formula evaluations (--grid-json)",
    }
    for name in PRESETS:
        print(f"{name:7s} trials={_DEFAULT_TRIALS[name]:>7d}  {descriptions[name]}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    eq = equivalent_density(cfg)
    print(f"config: {args.config}")
    print(f"  alpha = {cfg.alpha:g}, mu = {cfg.mu:g} /m^2, mu_j = {cfg.mu_j:g} /m^2")
    for i, t in enumerate(cfg.tiers):
        line = (
            f"  tier {i + 1}: lambda={t.lam:g} /m^2, P={t.p_dl:g}, Q={t.q_ul:g}, "
            f"bias={t.bias:g}, p_assoc={association_prob_max_power(cfg, i):.4f}"
        )
        if t.bias > 1.0 or any(u.bias > 1.0 for u in cfg.tiers):
            line += f", p_assoc_biased={biased_association_prob(cfg, i):.4f}"
            line += f", p_rea={rea_association_prob(cfg, i):.4f}"
        print(line)
    print(f"  lambda_eq = {eq.lambda_eq:g} /m^2")
    print("  mu_tilde  = " + ", ".join(f"{v:g}" for v in eq.mu_tilde))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicnet",
        description="Successive interference cancellation in Poisson cellular "
        "networks: closed forms, Monte Carlo validation, and scenario sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one closed-form formula")
    p_eval.add_argument("formula", help="formula name (see 'sicnet presets' docs)")
    _add_param_flags(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run a preset or custom sweep")
    p_sweep.add_argument("--preset", default="fig2", help="fig2..fig6 or custom")
    p_sweep.add_argument("--trials", type=int, default=None, help="MC trials per point")
    p_sweep.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p_sweep.add_argument(
        "--output-dir",
        default=os.environ.get(OUTPUT_DIR_ENV, "results"),
        help=f"results root (default $%s or ./results)" % OUTPUT_DIR_ENV,
    )
    p_sweep.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_sweep.add_argument(
        "--grid-json", default=None,
        help="custom preset: JSON list of {formula, params...} or a path to one",
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    p_val = sub.add_parser("validate", help="run analytic-vs-MC agreement suites")
    p_val.add_argument(
        "suite",
        choices=(
            "numerics", "can", "sic", "load", "minload", "maxsir", "rea",
            "scale", "determinism", "kurtosis", "all",
        ),
    )
    p_val.add_argument(
        "--trials", type=int, default=None,
        help="override MC budget; the allowances are fixed for the default budgets, "
        "so at --trials 1000 two checks fail on working code",
    )
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_val.set_defaults(fn=cmd_validate)

    p_presets = sub.add_parser("presets", help="list sweep presets")
    p_presets.set_defaults(fn=cmd_presets)

    p_inspect = sub.add_parser("inspect", help="print config diagnostics")
    p_inspect.add_argument("--config", required=True, help="network config JSON path")
    p_inspect.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
