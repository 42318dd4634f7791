"""Run configuration, the calibration of its default c0, the line-oriented
key=value config format, and the six-digit number format of every printed value.

Format: one `key=value` per line, `#` starts a comment, blank lines are
ignored.  List-valued keys take comma-separated numbers.  Unknown keys are
rejected with their line number; every value is range-checked on parse.
The default of g_baseline lives here, not in the evaluators, so reading a
config, or resolving its default c0, loads no evaluator.

The normalized baseline consumption c0 is not an observable; it is pinned by
requiring one published anchor cell to hold exactly.  The default anchor is
the immediate-misalignment threshold p3 = 1 - W0/W_cornucopia at theta = 1,
g_ai = 0.05, rho = 0.05 with target 0.055282, which inverts in closed form to

    log c0 = ((1 - p3) g_ai - g_baseline) / (rho * p3).

Every cell of every table is then an out-of-sample check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .errors import ConfigError, DomainError

DEFAULT_G_BASELINE = 0.0175
DEFAULT_G_AI_GRID = (0.05, 0.1, 0.2, 0.3, 0.4)
DEFAULT_RHO_GRID = (0.002, 0.01, 0.03, 0.05)
DEFAULT_ANCHOR = {"g_ai": 0.05, "rho": 0.05}
DEFAULT_ANCHOR_TARGET = 0.055282
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest log c0 whose exp is finite


def calibrate_c0(
    target: float = DEFAULT_ANCHOR_TARGET,
    *,
    g_ai: float = DEFAULT_ANCHOR["g_ai"],
    rho: float = DEFAULT_ANCHOR["rho"],
    g_baseline: float = DEFAULT_G_BASELINE,
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
    # a subnormal rho whose product with the target underflows is rejected too
    if not 0.0 < rho * target < math.inf:
        raise DomainError(f"anchor rho must be finite and > 0, got {rho!r}")
    log_c0 = ((1.0 - target) * g_ai - g_baseline) / (rho * target)
    if log_c0 < 0.0:
        raise DomainError(
            f"anchor target {target!r} implies c0 < 1; no admissible calibration"
        )
    if not log_c0 <= _LOG_FLOAT_MAX:
        raise DomainError(
            f"anchor g_ai = {g_ai!r}, rho = {rho!r} implies log c0 = {log_c0:.6g}; "
            "c0 overflows"
        )
    return math.exp(log_c0)


@dataclass(frozen=True)
class RunConfig:
    """Inputs shared by the table pipeline and the CLI; fully deterministic.

    c0 defaults to the value calibrated from the standard anchor cell, see
    calibrate_c0.
    """

    c0: Optional[float] = None  # None = calibrate at g_baseline on first use
    g_baseline: float = DEFAULT_G_BASELINE
    g_ai_grid: tuple[float, ...] = DEFAULT_G_AI_GRID
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID
    theta_set: Optional[tuple[float, ...]] = None  # None = per-table default
    p1: float = 0.9
    p2: float = 0.8
    p3: float = 0.3
    p4: float = 0.3
    T: float = 50.0
    epsilon: float = 1e-4
    saving_rate: float = 0.3
    delta: float = 0.05
    tech_growth: float = DEFAULT_G_BASELINE  # a bottlenecked economy's growth rate
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if self.c0 is not None and not self.c0 >= 1.0:
            raise ConfigError(f"c0 must be >= 1, got {self.c0!r}")
        for name in ("g_ai_grid", "rho_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing, got {grid!r}")
        for name in ("g_baseline", "T", "epsilon", "delta", "tech_growth"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("p1", "p2", "p3", "p4"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v!r}")
        if not 0.0 <= self.saving_rate < 1.0:
            raise ConfigError(
                f"saving_rate must lie in [0, 1), got {self.saving_rate!r}"
            )
        if self.output_format not in ("csv", "markdown"):
            raise ConfigError(
                f"output_format must be csv or markdown, got {self.output_format!r}"
            )

    def resolved_c0(self) -> float:
        if self.c0 is not None:
            return self.c0
        return calibrate_c0(g_baseline=self.g_baseline)


# the config keys are RunConfig's numeric fields; annotations are strings here
SCALAR_KEYS = tuple(
    f.name for f in fields(RunConfig) if "float" in f.type and "tuple" not in f.type
)
LIST_KEYS = tuple(f.name for f in fields(RunConfig) if "tuple" in f.type)


def parse_finite(raw: str | float, key: str) -> float:
    """raw as a finite float; ConfigError naming key for text, NaN or +-inf."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"value for {key} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"value for {key} must be finite, got {raw!r}")
    return value


def parse_list(raw: str, key: str) -> tuple[float, ...]:
    """Comma-separated finite numbers; blank items are skipped."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} needs at least one value")
    return tuple(parse_finite(p, key) for p in parts)


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig; raises ConfigError with line info."""
    updates: dict = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        try:
            if key in SCALAR_KEYS:
                updates[key] = parse_finite(raw_value, key)
            elif key in LIST_KEYS:
                updates[key] = parse_list(raw_value, key)
            elif key == "output_format":
                updates[key] = raw_value
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    return RunConfig(**updates)


def format_number(x: float) -> str:
    """Six significant digits; scientific notation below 1e-3 in magnitude."""
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.5e}"
    return f"{x:.6g}"
