"""The indifference/EV table pipeline.

Each cell is solved at the run config's c0, which defaults to the value
calibrated from one published anchor cell (config.calibrate_c0), so every
other cell of every table is an out-of-sample check.

Table ids: t1 (extinction time), t2 (immediate misalignment probability),
t3a/t3b/t3c (delayed lottery solved for p3/p4/T), t4 (mounting hazard
slope), t5a-t5d (equivalent variation panels).  Layout is one row per g_ai
and one column per (theta, rho) pair.  Sentinel outcomes render as the
tokens NO_TAI_PREFERRED (a negative implied threshold), TAI_PREFERRED (an
implied probability above one) and NO_SOLUTION (no root in the admissible
domain); a per-cell solver failure or float overflow renders as
ERROR:<ExceptionClassName> without aborting the rest of the table.

solve_cell is the one cell path of emit_table and the CLI's solve and ev; each
hands a target exactly the values SOLVE_TARGETS or compensation.PANELS say it reads.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .compensation import EvResult, ev_panel
from .config import RunConfig, format_number
from .errors import ConfigError, TaiWelfareError
from .preferences import Preferences
from .solvers import (
    SolveOutcome,
    _epsilon_root,
    solve_T_delayed,
    solve_epsilon_mounting,
    solve_extinction_time,
    solve_p3_delayed,
    solve_p3_immediate,
    solve_p4_delayed,
)
from .welfare import ScenarioSpec

SENTINEL_TOKENS = {
    "no_tai_preferred": "NO_TAI_PREFERRED",  # published tables print "-"
    "tai_preferred": "TAI_PREFERRED",        # published tables print ">1"
    "no_solution": "NO_SOLUTION",
}

# Each target maps to the values its indifference condition holds fixed and
# to its solver, which takes them by those names.  The lambdas call the
# solvers by module-global name, so a patched solver is the one called.
SOLVE_TARGETS = {
    "extinction-time": ((), lambda spec, **values: solve_extinction_time(spec, **values)),
    "p3-immediate": ((), lambda spec, **values: solve_p3_immediate(spec, **values)),
    "p3-delayed": (("p4", "T"), lambda spec, **values: solve_p3_delayed(spec, **values)),
    "p4-delayed": (("p3", "T"), lambda spec, **values: solve_p4_delayed(spec, **values)),
    "T-delayed": (("p3", "p4"), lambda spec, **values: solve_T_delayed(spec, **values)),
    "epsilon": ((), lambda spec, **values: solve_epsilon_mounting(spec, **values)),
}


class Table(NamedTuple):
    target: str  # a SOLVE_TARGETS name, or a PANELS letter
    theta_set: tuple[float, ...]
    fixed: dict  # the target's reads; panel d's epsilon is re-solved per cell


TABLES = {
    "t1": Table("extinction-time", (1.0, 2.0), {}),
    "t2": Table("p3-immediate", (1.0, 2.0), {}),
    "t3a": Table("p3-delayed", (1.0, 2.0), {"p4": 3e-5, "T": 50.0}),
    "t3b": Table("p4-delayed", (1.0, 2.0), {"p3": 3e-5, "T": 50.0}),
    "t3c": Table("T-delayed", (1.0, 2.0), {"p3": 0.3, "p4": 0.3}),
    "t4": Table("epsilon", (1.0001, 2.0), {}),
    "t5a": Table("a", (1.0,), {"T": 100.0}),
    "t5b": Table("b", (1.0,), {"p3": 0.1}),
    "t5c": Table("c", (1.0,), {"p3": 0.1, "p4": 0.1, "T": 50.0}),
    "t5d": Table("d", (1.0,), {}),
}
TABLE_IDS = tuple(TABLES)


class TableSpec(NamedTuple):
    table_id: str
    g_ai_grid: tuple[float, ...]
    rho_grid: tuple[float, ...]
    theta_set: tuple[float, ...]


def table_spec(table_id: str, config: RunConfig) -> TableSpec:
    """TableSpec for a table id, honouring grid/theta overrides in config."""
    if table_id not in TABLES:
        raise ConfigError(f"unknown table id {table_id!r}")
    return TableSpec(
        table_id=table_id,
        g_ai_grid=config.g_ai_grid,
        rho_grid=config.rho_grid,
        theta_set=tuple(config.theta_set or TABLES[table_id].theta_set),
    )


# ---------------------------------------------------------------------------
# cell evaluation
# ---------------------------------------------------------------------------


def solve_cell(target: str, config: RunConfig, theta: float, g_ai: float, rho: float,
               values: dict) -> Union[SolveOutcome, EvResult]:
    """One (theta, g_ai, rho) cell of a SOLVE_TARGETS target or an EV panel.

    values holds the values the target reads, panel d's hazard slope
    "epsilon" included when it is given.  Without one, panel d re-solves the
    slope at the log-like curvature theta = 1.0001 as the closed form's root,
    unpolished (the polish moves no six-digit EV), and evaluates the EV at
    theta; a sentinel outcome of that solve is returned instead.
    """
    spec = ScenarioSpec(c0=config.resolved_c0(), g_ai=g_ai, g_baseline=config.g_baseline,
                        prefs=Preferences(rho=rho, theta_rra=theta))
    if target in SOLVE_TARGETS:
        return SOLVE_TARGETS[target][1](spec, **values)
    if target == "d" and "epsilon" not in values:
        eps_spec = ScenarioSpec(c0=spec.c0, g_ai=g_ai, g_baseline=config.g_baseline,
                                prefs=Preferences(rho=rho, theta_rra=1.0001))
        solved = _epsilon_root(eps_spec)
        if not solved.is_value:
            return solved
        values = {**values, "epsilon": solved.value}
    return ev_panel(spec, target, **values)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def format_cell(outcome: Union[SolveOutcome, EvResult]) -> str:
    if isinstance(outcome, EvResult):
        return format_number(outcome.ev)
    if outcome.is_value:
        return format_number(outcome.value)
    return SENTINEL_TOKENS[outcome.tag]


def emit_table(spec: TableSpec, config: RunConfig) -> str:
    """Render one table as CSV or markdown text, deterministically.

    Cells are evaluated in a fixed row-major order; a solver error in one
    cell becomes an ERROR:<ExceptionClassName> token, free of the commas and
    pipes that delimit cells, and the rest of the table proceeds.
    """
    target, _, values = TABLES[spec.table_id]
    header = ["g_ai"]
    for theta in spec.theta_set:
        for rho in spec.rho_grid:
            header.append(f"theta={format_number(theta)}/rho={format_number(rho)}")
    rows: list[list[str]] = []
    for g_ai in spec.g_ai_grid:
        row = [format_number(g_ai)]
        for theta in spec.theta_set:
            for rho in spec.rho_grid:
                try:
                    outcome = solve_cell(target, config, theta, g_ai, rho, values)
                    row.append(format_cell(outcome))
                except (TaiWelfareError, ArithmeticError) as exc:
                    row.append(f"ERROR:{type(exc).__name__}")
        rows.append(row)
    if config.output_format == "markdown":
        return _render_markdown(header, rows)
    return _render_csv(header, rows)


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_markdown(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"
