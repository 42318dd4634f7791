"""Command-line interface.

Subcommands: pdoom, table, solve, ev, et, simulate-growth, calibrate-c0.
Every numeric config key is exposed as a flag; a --config file supplies
defaults and flags override it.  Exit codes: 0 success, 2 bad config or
domain input, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import LIST_KEYS, SCALAR_KEYS, RunConfig, parse_config, parse_finite, parse_list
from .errors import ConfigError, ConvergenceError, DomainError, TaiWelfareError
from .growth import ProductionParams, asymptotic_growth_rate, simulate, trajectory_csv
from .hazards import (
    ConstantHazard,
    ExponentialPath,
    MountingLogHazard,
    OneOffHazard,
    ZeroHazard,
    expected_lifespan,
)
from .solvers import SolveOutcome
from .tables import (
    SOLVE_TARGETS,
    TABLE_IDS,
    calibrate_c0,
    emit_table,
    ev_cell,
    format_cell,
    format_number,
    scenario,
    table_spec,
)
from .taxonomy import TaxonomyProbs, leaf_distribution, p_doom


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key=value config file")
    for name in SCALAR_KEYS:
        parser.add_argument(_flag(name), type=float, default=None)
    for name in LIST_KEYS:
        parser.add_argument(_flag(name), type=str, default=None,
                            help="comma-separated numbers")
    parser.add_argument("--output-format", choices=("csv", "markdown"), default=None)


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        config = parse_config(text)
    updates: dict = {}
    for name in SCALAR_KEYS + LIST_KEYS + ("output_format",):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = parse_list(value, _flag(name)) if name in LIST_KEYS else value
    return dataclasses.replace(config, **updates) if updates else config


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_pdoom(args: argparse.Namespace) -> int:
    config = _load_config(args)
    probs = TaxonomyProbs(
        p1=config.p1, p2=config.p2, p3=config.p3, p4=config.p4,
        horizon_years=args.horizon,
    )
    leaves = leaf_distribution(probs)
    print(f"p_doom,{format_number(p_doom(probs))}")
    for name in ("no_tai", "tai_no_takeover", "cornucopia",
                 "doom_immediate", "doom_delayed"):
        print(f"{name},{format_number(getattr(leaves, name))}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = table_spec(args.table_id, config)
    sys.stdout.write(emit_table(spec, config))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = scenario(config, args.theta, args.g_ai, args.rho)
    outcome = SOLVE_TARGETS[args.target](
        spec, p3=config.p3, p4=config.p4, T=config.T, quad_tol=config.quad_tol
    )
    print(format_cell(outcome))
    return 0


def _cmd_ev(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = scenario(config, 1.0, args.g_ai, args.rho)
    # panel d re-solves its slope unless --epsilon gives one
    values = {"p3": config.p3, "p4": config.p4, "T": config.T}
    result = ev_cell(spec, config, args.panel, values, args.epsilon)
    if isinstance(result, SolveOutcome):
        print(format_cell(result))
        return 0
    print(f"ev,{format_number(result.ev)}")
    print(f"log_ev,{format_number(result.log_ev)}")
    print(f"wtp_fraction,{format_number(result.wtp_fraction)}")
    return 0


def _cmd_et(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.hazard == "zero":
        model = ZeroHazard()
    elif args.hazard == "constant":
        if args.m is None:
            raise ConfigError("constant hazard needs --m")
        model = ConstantHazard(args.m)
    elif args.hazard == "one-off":
        if args.t_ext is None:
            raise ConfigError("one-off hazard needs --t-ext")
        model = OneOffHazard(args.t_ext)
    else:
        path = ExponentialPath(c0=config.resolved_c0() if args.normalized else 1.0,
                               growth=args.g_ai)
        model = MountingLogHazard(config.epsilon, path)
    et = expected_lifespan(model)
    print("inf" if et == float("inf") else format_number(et))
    return 0


def _cmd_simulate_growth(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = ProductionParams(
        alpha=args.alpha, gamma=args.gamma, sigma=args.sigma,
        share_hw=args.share_hw, psi=args.psi, chi=args.chi,
    )
    trajectory = simulate(
        params,
        K0=args.k0,
        saving_rate=config.saving_rate,
        delta=config.delta,
        tech_growth=config.tech_growth,
        horizon=args.horizon,
        dt=args.dt,
        regime=args.regime,
    )
    sys.stdout.write(trajectory_csv(trajectory))
    if args.print_growth_rate:
        print(f"# asymptotic_growth_rate,{asymptotic_growth_rate(trajectory):.6g}",
              file=sys.stderr)
    return 0


def _cmd_calibrate_c0(args: argparse.Namespace) -> int:
    config = _load_config(args)
    c0 = calibrate_c0(
        args.target, g_ai=args.anchor_g_ai, rho=args.anchor_rho,
        g_baseline=config.g_baseline,
    )
    print(format_number(c0))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tai-welfare",
        description="Welfare, extinction-risk thresholds, and growth regimes "
                    "for transformative-AI scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdoom", help="outcome-tree probabilities")
    _add_config_flags(p)
    p.add_argument("--horizon", type=float, default=75.0)
    p.set_defaults(handler=_cmd_pdoom)

    p = sub.add_parser("table", help="emit one reference table")
    p.add_argument("table_id", choices=TABLE_IDS)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("solve", help="one indifference cell")
    p.add_argument("--target", choices=tuple(SOLVE_TARGETS), required=True)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--g-ai", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("ev", help="one equivalent-variation cell")
    p.add_argument("--panel", choices=("a", "b", "c", "d"), required=True)
    p.add_argument("--g-ai", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_ev)

    p = sub.add_parser("et", help="expected lifespan of a hazard model")
    p.add_argument("--hazard", choices=("zero", "constant", "one-off", "mounting"),
                   required=True)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--t-ext", type=float, default=None)
    p.add_argument("--g-ai", type=float, default=0.2, dest="g_ai")
    p.add_argument("--normalized", action="store_true",
                   help="use the calibrated c0 instead of c0 = 1")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_et)

    p = sub.add_parser("simulate-growth", help="capital-accumulation trajectory CSV")
    p.add_argument("--regime", choices=("full_automation", "bottlenecked"),
                   default="full_automation")
    p.add_argument("--k0", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=-1.0)
    p.add_argument("--share-hw", type=float, default=0.5)
    p.add_argument("--psi", type=float, default=1.0)
    p.add_argument("--chi", type=float, default=1.0)
    p.add_argument("--print-growth-rate", action="store_true")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_simulate_growth)

    p = sub.add_parser("calibrate-c0", help="invert the anchor cell for c0")
    p.add_argument("--target", type=float, default=0.055282)
    p.add_argument("--anchor-g-ai", type=float, default=0.05)
    p.add_argument("--anchor-rho", type=float, default=0.05)
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_calibrate_c0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse turns a ValueError from a type function into its own usage
        # error, so the finiteness of every float flag is checked here instead
        for name, value in vars(args).items():
            if isinstance(value, float):
                parse_finite(value, _flag(name))
        return args.handler(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except TaiWelfareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
