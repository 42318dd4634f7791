"""Baseline-consumption calibration and the indifference/EV table pipeline.

The normalized baseline consumption c0 is not an observable; it is pinned by
requiring one published anchor cell to hold exactly.  The default anchor is
the immediate-misalignment threshold p3 = 1 - W0/W_cornucopia at theta = 1,
g_ai = 0.05, rho = 0.05 with target 0.055282, which inverts in closed form to

    log c0 = ((1 - p3) g_ai - g_baseline) / (rho * p3).

Every other cell of every table is then an out-of-sample check.

Table ids: t1 (extinction time), t2 (immediate misalignment probability),
t3a/t3b/t3c (delayed lottery solved for p3/p4/T), t4 (mounting hazard
slope), t5a-t5d (equivalent variation panels).  Layout is one row per g_ai
and one column per (theta, rho) pair.  Sentinel outcomes render as the
tokens NO_TAI_PREFERRED (a negative implied threshold), TAI_PREFERRED (an
implied probability above one) and NO_SOLUTION (no root in the admissible
domain); a per-cell solver failure renders as ERROR:<ExceptionClassName>
without aborting the rest of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .compensation import EvResult, ev_panel
from .config import DEFAULT_G_AI_GRID, DEFAULT_RHO_GRID, RunConfig
from .errors import ConfigError, DomainError, TaiWelfareError
from .preferences import Preferences
from .solvers import (
    SolveOutcome,
    solve_T_delayed,
    solve_epsilon_mounting,
    solve_extinction_time,
    solve_p3_delayed,
    solve_p3_immediate,
    solve_p4_delayed,
)
from .welfare import ScenarioSpec

__all__ = [
    "TableSpec",
    "table_spec",
    "calibrate_c0",
    "emit_table",
    "scenario",
    "ev_cell",
    "SOLVE_TARGETS",
    "TABLES",
    "TABLE_IDS",
    "SENTINEL_TOKENS",
]

SENTINEL_TOKENS = {
    "no_tai_preferred": "NO_TAI_PREFERRED",  # published tables print "-"
    "tai_preferred": "TAI_PREFERRED",        # published tables print ">1"
    "no_solution": "NO_SOLUTION",
}

DEFAULT_ANCHOR = {"theta": 1.0, "g_ai": 0.05, "rho": 0.05}
DEFAULT_ANCHOR_TARGET = 0.055282

# Every solver takes spec plus the keywords p3, p4, T and quad_tol and reads
# only the ones its indifference condition holds fixed.
SOLVE_TARGETS = {
    "extinction-time": lambda spec, **_: solve_extinction_time(spec),
    "p3-immediate": lambda spec, **_: solve_p3_immediate(spec),
    "p3-delayed": lambda spec, *, p4, T, **_: solve_p3_delayed(spec, p4=p4, T=T),
    "p4-delayed": lambda spec, *, p3, T, **_: solve_p4_delayed(spec, p3=p3, T=T),
    "T-delayed": lambda spec, *, p3, p4, **_: solve_T_delayed(spec, p3=p3, p4=p4),
    "epsilon": lambda spec, *, quad_tol, **_: solve_epsilon_mounting(
        spec, quad_tol=quad_tol
    ),
}


class Table(NamedTuple):
    target: str  # a SOLVE_TARGETS name, or an EV panel letter
    theta_set: tuple[float, ...]
    fixed: dict  # lottery/horizon values that override the config's


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


@dataclass(frozen=True)
class TableSpec:
    table_id: str
    g_ai_grid: tuple[float, ...] = DEFAULT_G_AI_GRID
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID
    theta_set: tuple[float, ...] = (1.0, 2.0)


def table_spec(table_id: str, config: Optional[RunConfig] = None) -> TableSpec:
    """TableSpec for a table id, honouring grid/theta overrides in config."""
    config = config or RunConfig()
    if table_id not in TABLES:
        raise ConfigError(f"unknown table id {table_id!r}")
    return TableSpec(
        table_id=table_id,
        g_ai_grid=config.g_ai_grid,
        rho_grid=config.rho_grid,
        theta_set=tuple(config.theta_set or TABLES[table_id].theta_set),
    )


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def calibrate_c0(
    target: float = DEFAULT_ANCHOR_TARGET,
    *,
    g_ai: float = DEFAULT_ANCHOR["g_ai"],
    rho: float = DEFAULT_ANCHOR["rho"],
    g_baseline: float = 0.0175,
) -> float:
    """Baseline consumption c0 >= 1 making the anchor cell hit its target.

    The anchor identity is the theta = 1 immediate-misalignment threshold
    p3 = 1 - W0/W_cornucopia, linear in log c0, hence the closed form.  A
    target implying log c0 < 0 has no admissible calibration.
    """
    if not 0.0 < target < 1.0:
        raise DomainError(f"anchor target must lie in (0, 1), got {target!r}")
    if not g_ai > g_baseline:
        raise DomainError("anchor needs g_ai > g_baseline")
    log_c0 = ((1.0 - target) * g_ai - g_baseline) / (rho * target)
    if log_c0 < 0.0:
        raise DomainError(
            f"anchor target {target!r} implies c0 < 1; no admissible calibration"
        )
    return math.exp(log_c0)


# ---------------------------------------------------------------------------
# cell evaluation
# ---------------------------------------------------------------------------


def scenario(config: RunConfig, theta: float, g_ai: float, rho: float) -> ScenarioSpec:
    """The scenario of one (theta, g_ai, rho) cell under a run config."""
    return ScenarioSpec(
        c0=config.resolved_c0(),
        g_ai=g_ai,
        g_baseline=config.g_baseline,
        prefs=Preferences(rho=rho, theta_rra=theta),
    )


def ev_cell(
    spec: ScenarioSpec,
    config: RunConfig,
    panel: str,
    values: dict,
    epsilon: Optional[float] = None,
) -> Union[EvResult, SolveOutcome]:
    """EV of one panel at the given p3, p4 and T.

    Without an epsilon, panel d re-solves its hazard slope at the log-like
    curvature theta = 1.0001 and evaluates the EV at the spec's theta; when
    that solve finds no slope its sentinel outcome is returned instead.
    """
    if panel == "d" and epsilon is None:
        eps_spec = scenario(config, 1.0001, spec.g_ai, spec.prefs.rho)
        solved = solve_epsilon_mounting(eps_spec, quad_tol=config.quad_tol)
        if not solved.is_value:
            return solved
        epsilon = solved.value
    return ev_panel(spec, panel, epsilon=epsilon, **values)


def solve_cell(
    table_id: str,
    config: RunConfig,
    theta: float,
    g_ai: float,
    rho: float,
    values: dict,
) -> SolveOutcome:
    """One grid cell of an indifference or EV table."""
    spec = scenario(config, theta, g_ai, rho)
    target = TABLES[table_id].target
    if target in SOLVE_TARGETS:
        return SOLVE_TARGETS[target](spec, quad_tol=config.quad_tol, **values)
    result = ev_cell(spec, config, target, values)
    return SolveOutcome.of(result.ev) if isinstance(result, EvResult) else result


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def format_cell(outcome: SolveOutcome) -> str:
    if outcome.is_value:
        return format_number(outcome.value)
    return SENTINEL_TOKENS[outcome.tag]


def format_number(x: float) -> str:
    """Six significant digits; scientific notation below 1e-3 in magnitude."""
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.5e}"
    return f"{x:.6g}"


def emit_table(spec: TableSpec, config: Optional[RunConfig] = None) -> str:
    """Render one table as CSV or markdown text, deterministically.

    Cells are evaluated in a fixed row-major order; a solver error in one
    cell becomes an ERROR:<ExceptionClassName> token, free of the commas and
    pipes that delimit cells, and the rest of the table proceeds.
    """
    config = config or RunConfig()
    values = {"p3": config.p3, "p4": config.p4, "T": config.T}
    values.update(TABLES[spec.table_id].fixed)
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
                    outcome = solve_cell(spec.table_id, config, theta, g_ai, rho, values)
                    row.append(format_cell(outcome))
                except TaiWelfareError as exc:
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
