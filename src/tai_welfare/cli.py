"""Command-line interface.

Subcommands: pdoom, table, solve, ev, et, simulate-growth, calibrate-c0.
Each subcommand has a flag for each config key its handler reads; a --config
file supplies defaults and flags override it.  Exit codes: 0 success, 2 bad
config, domain input or float overflow, 3 numerical non-convergence (a Brent
solve that hits its iteration cap, a time solve whose Newton steps do not
settle in 50, or a root that fails the residual check).

solve and ev share _cmd_cell, reading what their registry names for the target;
et builds the hazard model its --hazard names in hazards.HAZARDS.

Each handler imports the modules it runs, and main registers the arguments of
the one subcommand it parses, so a cold start loads only what it runs: pdoom
loads no evaluator, and only the quadrature commands load numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Collection, Optional, Sequence

from .config import (DEFAULT_ANCHOR, DEFAULT_ANCHOR_TARGET, LIST_KEYS, RunConfig,
                     calibrate_c0, format_number, parse_config, parse_finite, parse_list)
from .errors import ConfigError, ConvergenceError, DomainError, TaiWelfareError


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# the RunConfig keys read by solve and ev
CELL_KEYS = ("c0", "g_baseline", "p3", "p4", "T")
# the growth rate of et's mounting-hazard path when --g-ai is not given
ET_G_AI = 0.2
# the et flags behind the mounting hazard's path, and behind --normalized
ET_FLAGS = {"path": ("g_ai", "normalized"), "normalized": ("c0", "g_baseline")}
# the ProductionParams fields simulate-growth exposes, at their field defaults
PRODUCTION_KEYS = ("alpha", "gamma", "sigma", "share_hw", "psi", "chi")


def _add_config_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """--config, plus one flag for each of the RunConfig keys the handler reads."""
    parser.add_argument("--config", type=Path, help="key=value config file")
    for name in keys:
        if name in LIST_KEYS:
            parser.add_argument(_flag(name), type=str, default=None,
                                help="comma-separated numbers")
        elif name == "output_format":
            parser.add_argument(_flag(name), choices=("csv", "markdown"), default=None)
        else:
            parser.add_argument(_flag(name), type=float, default=None)
    parser.set_defaults(config_keys=keys)


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        config = parse_config(text)
    updates: dict = {}
    for name in args.config_keys:
        value = getattr(args, name)
        if value is not None:
            updates[name] = parse_list(value, _flag(name)) if name in LIST_KEYS else value
    return dataclasses.replace(config, **updates) if updates else config


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_pdoom(args: argparse.Namespace, config: RunConfig) -> int:
    from .taxonomy import TaxonomyProbs, leaf_distribution, p_doom

    probs = TaxonomyProbs(p1=config.p1, p2=config.p2, p3=config.p3, p4=config.p4)
    leaves = leaf_distribution(probs)
    print(f"p_doom,{format_number(p_doom(probs))}")
    for name, value in zip(leaves._fields, leaves):
        print(f"{name},{format_number(value)}")
    return 0


def _cmd_table(args: argparse.Namespace, config: RunConfig) -> int:
    from .tables import emit_table, table_spec

    spec = table_spec(args.table_id, config)
    sys.stdout.write(emit_table(spec, config))
    return 0


def _cmd_cell(args: argparse.Namespace, config: RunConfig) -> int:
    from .compensation import EvResult
    from .tables import format_cell, solve_cell

    reads = args.registry[args.target][0]
    if args.epsilon is not None and "epsilon" not in reads:
        raise ConfigError("--epsilon is panel d's hazard slope; panels a-c take none")
    # RunConfig.epsilon is et's hazard slope: panel d's comes from --epsilon
    values = {k: getattr(config, k) for k in reads if k != "epsilon"}
    if args.epsilon is not None:
        values["epsilon"] = args.epsilon
    result = solve_cell(args.target, config, args.theta, args.g_ai, args.rho, values)
    if not isinstance(result, EvResult):
        print(format_cell(result))
        return 0
    for name, value in zip(result._fields, result):
        print(f"{name},{format_number(value)}")
    return 0


def _cmd_et(args: argparse.Namespace, config: RunConfig) -> int:
    from .hazards import HAZARDS, ExponentialPath, expected_lifespan

    # a flag given to a hazard that does not read it is an error, not ignored
    needs = {flag: "--hazard " + hazard for hazard, (reads, _) in HAZARDS.items()
             for name in reads for flag in ET_FLAGS.get(name, (name,))}
    needs.update(dict.fromkeys(ET_FLAGS["normalized"], "--normalized"))
    given = {"--hazard " + args.hazard, "--normalized" if args.normalized else ""}
    for name, need in needs.items():
        if need not in given and getattr(args, name) not in (None, False):
            raise ConfigError(f"et reads {_flag(name)} only with {need}")
    reads, model = HAZARDS[args.hazard]
    # RunConfig.epsilon has a default; --m and --t-ext have none
    values = {name: getattr(config if name in args.config_keys else args, name)
              for name in reads if name != "path"}
    if "path" in reads:
        values["path"] = ExponentialPath(config.resolved_c0() if args.normalized else 1.0,
                                         ET_G_AI if args.g_ai is None else args.g_ai)
    for name, value in values.items():
        if value is None:
            raise ConfigError(f"{args.hazard} hazard needs {_flag(name)}")
    print(format_number(expected_lifespan(model(**values))))
    return 0


def _cmd_simulate_growth(args: argparse.Namespace, config: RunConfig) -> int:
    from .growth import ProductionParams, asymptotic_growth_rate, simulate, trajectory_csv

    params = ProductionParams(**{name: getattr(args, name) for name in PRODUCTION_KEYS})
    trajectory = simulate(
        params, K0=args.k0, saving_rate=config.saving_rate, delta=config.delta,
        tech_growth=config.tech_growth, horizon=args.horizon, dt=args.dt,
        regime=args.regime,
    )
    # the rate is computed first, so a trajectory too short to fit prints nothing
    rate = asymptotic_growth_rate(trajectory) if args.print_growth_rate else None
    sys.stdout.write(trajectory_csv(trajectory))
    if rate is not None:
        print(f"# asymptotic_growth_rate,{rate:.6g}", file=sys.stderr)
    return 0


def _cmd_calibrate_c0(args: argparse.Namespace, config: RunConfig) -> int:
    c0 = calibrate_c0(args.target, g_ai=args.anchor_g_ai, rho=args.anchor_rho,
                      g_baseline=config.g_baseline)
    print(format_number(c0))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _pdoom_arguments(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, "p1", "p2", "p3", "p4")


def _table_arguments(p: argparse.ArgumentParser) -> None:
    from .tables import TABLE_IDS

    p.add_argument("table_id", choices=TABLE_IDS)
    _add_config_flags(p, "c0", "g_baseline", "g_ai_grid", "rho_grid", "theta_set",
                      "output_format")


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    from .tables import SOLVE_TARGETS

    p.add_argument("--target", choices=tuple(SOLVE_TARGETS), required=True)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--g-ai", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    _add_config_flags(p, *CELL_KEYS)
    p.set_defaults(registry=SOLVE_TARGETS, epsilon=None)


def _ev_arguments(p: argparse.ArgumentParser) -> None:
    from .compensation import PANELS

    p.add_argument("--panel", choices=tuple(PANELS), required=True, dest="target")
    p.add_argument("--g-ai", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="panel d's hazard slope (default: re-solved as in table t5d)")
    _add_config_flags(p, *CELL_KEYS)
    p.set_defaults(registry=PANELS, theta=1.0)


def _et_arguments(p: argparse.ArgumentParser) -> None:
    from .hazards import HAZARDS

    p.add_argument("--hazard", choices=tuple(HAZARDS), required=True)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--t-ext", type=float, default=None)
    p.add_argument("--g-ai", type=float, default=None, dest="g_ai",
                   help=f"growth of the mounting hazard's path (default {ET_G_AI})")
    p.add_argument("--normalized", action="store_true",
                   help="use the calibrated c0 instead of c0 = 1")
    _add_config_flags(p, "c0", "g_baseline", "epsilon")


def _simulate_growth_arguments(p: argparse.ArgumentParser) -> None:
    from .growth import SOFTWARE, ProductionParams

    regimes = tuple(SOFTWARE)
    p.add_argument("--regime", choices=regimes, default=regimes[0])
    p.add_argument("--k0", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.1)
    for name in PRODUCTION_KEYS:
        p.add_argument(_flag(name), type=float, default=ProductionParams._field_defaults[name])
    p.add_argument("--print-growth-rate", action="store_true")
    _add_config_flags(p, "saving_rate", "delta", "tech_growth")


def _calibrate_c0_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", type=float, default=DEFAULT_ANCHOR_TARGET)
    p.add_argument("--anchor-g-ai", type=float, default=DEFAULT_ANCHOR["g_ai"])
    p.add_argument("--anchor-rho", type=float, default=DEFAULT_ANCHOR["rho"])
    _add_config_flags(p, "g_baseline")


# subcommand -> (help, the function registering its arguments, handler)
COMMANDS = {
    "pdoom": ("outcome-tree probabilities", _pdoom_arguments, _cmd_pdoom),
    "table": ("emit one reference table", _table_arguments, _cmd_table),
    "solve": ("one indifference cell", _solve_arguments, _cmd_cell),
    "ev": ("one equivalent-variation cell", _ev_arguments, _cmd_cell),
    "et": ("expected lifespan of a hazard model", _et_arguments, _cmd_et),
    "simulate-growth": ("capital-accumulation trajectory CSV",
                        _simulate_growth_arguments, _cmd_simulate_growth),
    "calibrate-c0": ("invert the anchor cell for c0", _calibrate_c0_arguments,
                     _cmd_calibrate_c0),
}


def build_parser(commands: Collection[str] = tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser, with the arguments of the named subcommands registered.

    Every subcommand is listed; registering one's arguments imports what its
    choices and defaults name, so main registers only the one it parses.
    """
    parser = argparse.ArgumentParser(
        prog="tai-welfare",
        description="Welfare, extinction-risk thresholds, and growth regimes "
                    "for transformative-AI scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name in commands:
            add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option with a value, so its first positional is the command
    args = build_parser([a for a in argv if not a.startswith("-")][:1]).parse_args(argv)
    try:
        # argparse turns a ValueError from a type function into its own usage
        # error, so the finiteness of every float flag is checked here instead
        for name, value in vars(args).items():
            if isinstance(value, float):
                parse_finite(value, _flag(name))
        return args.handler(args, _load_config(args))
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (TaiWelfareError, ArithmeticError) as exc:
        # a diverging integral, or a float overflow or zero divisor at extreme inputs
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
