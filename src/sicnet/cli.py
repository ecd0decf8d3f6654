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
import os
import sys

from .errors import ConfigError, DomainError, NumericsError
from .model import (
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


def _ps_sic_total(*args) -> float:
    return ps_sic(*args).ps_sic_total


def _ps_ic_rea_1based(eta, config, k, cancelled):
    """:func:`ps_ic_rea` with tier k counted from 1, as the command line does."""
    return ps_ic_rea(
        eta, config, _require_count("k", k, 1) - 1, _require_count("cancelled", cancelled)
    )


# formula name -> (function, parameter names in call order, one-line description)
FORMULAS = {
    "ps_plain": (ps_plain, ("eta", "lambda_eq", "mu_j", "alpha"),
                 "success probability without cancellation"),
    "ps_ic": (ps_ic, ("eta", "n", "lambda_eq", "mu_j", "alpha"),
              "decoding probability after n cancellations"),
    "ps_can": (ps_can, ("eta", "n", "alpha"),
               "probability of decoding the n-th strongest interferer"),
    "ps_can_tsd": (ps_can_tsd, ("eta", "n"),
                   "truncated-stable variant of ps_can (alpha = 4)"),
    "ps_sic": (_ps_sic_total, ("eta", "n_max", "lambda_eq", "mu_j", "alpha"),
               "full SIC success probability with budget N"),
    "kurtosis": (kurtosis_after_cancellation, ("alpha", "n"),
                 "excess kurtosis of residual interference"),
    "load_pmf": (load_pmf, ("m", "mu_j", "lam"),
                 "cell load probability mass function"),
    "rate_coverage_max_sir": (rate_coverage_max_sir, ("rho", "lam", "mu_j", "alpha"),
                              "rate coverage under max-SIR association"),
    "rate_coverage_min_load": (rate_coverage_min_load, ("rho", "lam", "mu_j", "alpha", "r_con"),
                               "rate coverage under minimum-load association"),
    "outage_max_inst_sir": (outage_max_inst_sir, ("eta", "config"),
                            "outage of the max-instantaneous-SIR policy"),
    "ps_sic_max_inst_sir": (ps_sic_max_inst_sir, ("eta", "n_max", "config"),
                            "max-instantaneous-SIR success with SIC"),
    "ps_ic_rea": (_ps_ic_rea_1based, ("eta", "config", "k", "cancelled"),
                  "range-expanded-area success (tier k, 1-based)"),
    "c_integral": (c_integral, ("b", "alpha"),
                   "interference integral C(b, alpha)"),
    "pareto_cdf": (pareto_received_power_cdf, ("y", "alpha", "r_max"),
                   "received-power Pareto CDF"),
    "cancellation_radius": (cancellation_radius, ("mu_j", "n"),
                            "radius enclosing on average n interferers [m]"),
}

# eval flag -> argparse keywords, in --help order; --eta-db and --config are
# read into eta and config, every other flag is the formula parameter of its name
_PARAMS = {
    "eta": dict(type=float, help="SIR threshold, linear"),
    "eta_db": dict(type=float, help="SIR threshold in dB"),
    "n": dict(type=int, help="cancellation order / count"),
    "n_max": dict(type=int, help="maximum cancellations N"),
    "alpha": dict(type=float, help="path-loss exponent (> 2)"),
    "lambda_eq": dict(type=float, help="equivalent AP density [1/m^2]"),
    "lam": dict(type=float, help="AP density [1/m^2]"),
    "mu_j": dict(type=float, help="active-user density on the channel [1/m^2]"),
    "rho": dict(type=float, help="rate threshold [bit/channel use]"),
    "r_con": dict(type=float, help="connectivity range [m]"),
    "m": dict(type=int, help="cell load value"),
    "k": dict(type=int, help="tier index (1-based)"),
    "cancelled": dict(type=int, choices=(0, 1), help="REA cancellation flag"),
    "b": dict(type=float, help="lower integration limit of C(b, alpha)"),
    "y": dict(type=float, help="received power value"),
    "r_max": dict(type=float, help="maximum interferer range [m]"),
    "config": dict(type=str, help="network config JSON path"),
}


def _formula_args(name: str, params: dict, given: list[str]):
    """The registered formula's function and its arguments read from
    ``params``; raises DomainError for unknown names, missing parameters or
    ``given`` ones (those the user supplied) that the formula does not take."""
    if name not in FORMULAS:
        raise DomainError(
            f"unknown formula {name!r}; registry: {', '.join(sorted(FORMULAS))}"
        )
    fn, names, _ = FORMULAS[name]
    extra = [n for n in given if n not in names]
    if extra:
        raise DomainError(f"{name} does not take parameters: {', '.join(extra)}")
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise DomainError(f"{name} needs parameters: {', '.join(missing)}")
    return fn, [params[n] for n in names]


def evaluate_formula(name: str, params: dict) -> float:
    """Evaluate a registered formula on a custom sweep point's parameters."""
    fn, values = _formula_args(name, params, [k for k in params if k != "formula"])
    return fn(*values)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("formula parameters (units noted)")
    for name, kwargs in _PARAMS.items():
        g.add_argument("--" + name.replace("_", "-"), **kwargs)


def _collect_params(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if args.eta is not None and args.eta_db is not None:
        raise DomainError("supply either --eta or --eta-db, not both")
    params = {name: getattr(args, name) for name in _PARAMS}
    given = ["eta" if k == "eta_db" else k for k, v in params.items() if v is not None]
    if args.eta_db is not None:
        params["eta"] = db_to_linear(args.eta_db)
    if args.config is not None:
        cfg = load_config(args.config)
        overrides = {key: params[key] for key in ("alpha", "mu_j") if params[key] is not None}
        if overrides:
            cfg = config_from_dict({**config_to_dict(cfg), **overrides})
        params.update(config=cfg, alpha=cfg.alpha, mu_j=cfg.mu_j)
        given = [k for k in given if k not in overrides]  # they set the config's own
    return params, given


def cmd_eval(args: argparse.Namespace) -> int:
    params, given = _collect_params(args)
    fn, values = _formula_args(args.formula, params, given)
    breakdown = ps_sic(*values) if args.formula == "ps_sic" else None
    value = fn(*values) if breakdown is None else breakdown.ps_sic_total
    shown = {**params, "config": args.config}  # a config echoes as its path
    echo = ", ".join(
        f"{k}={shown[k]:g}" if isinstance(shown[k], float) else f"{k}={shown[k]}"
        for k in FORMULAS[args.formula][1]
    )
    print(f"{args.formula}({echo}) = {value:.6f}")
    if breakdown is not None:
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
        args.preset, trials=args.trials, seed=args.seed, threads=args.threads, grid=grid
    )
    result = run_preset(spec)
    run_dir = write_run_directory(result, args.output_dir)
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
    from .experiments import PRESETS

    for name, preset in PRESETS.items():
        print(f"{name:7s} trials={preset.trials:>7d}  {preset.description}")
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

    p_eval = sub.add_parser(
        "eval", help="evaluate one closed-form formula",
        epilog="formulas:" + "".join(f"\n  {k:24s}{v[2]}" for k, v in FORMULAS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_eval.add_argument("formula", help="formula name (listed below)")
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
        help="override MC budget; the allowances are set for the default budgets, "
        "and the load suite always samples 100000 Voronoi cells",
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
