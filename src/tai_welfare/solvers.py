"""Indifference thresholds between the risky-TAI and no-TAI worlds.

Each solver finds the parameter value at which the risky scenario's welfare
equals the no-takeover welfare W0.  A solve can end four ways:

  value            a threshold in the admissible domain
  no_tai_preferred the implied threshold would be negative; rendered "-"
  tai_preferred    the implied probability would exceed 1; rendered ">1"
  no_solution      no root exists in the admissible domain

The probability solvers are linear given the underlying welfare values, so
they are closed-form; the time and hazard-slope solvers bracket and run
Brent on a function that is monotone in the solved parameter.

Classification uses a 1e-12 band at the 0 and 1 boundaries: a linear
solution within the band is clamped into the domain rather than pushed to a
sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional

from .errors import BracketError, ConvergenceError, DomainError
from .rootfind import brent, expand_bracket
from .taxonomy import _check_probability
from .welfare import (
    ScenarioSpec,
    lottery_value,
    welfare_cornucopia,
    welfare_mounting,
    welfare_no_takeover,
    welfare_truncated,
)

__all__ = [
    "SolveOutcome",
    "solve_extinction_time",
    "solve_p3_immediate",
    "solve_p3_delayed",
    "solve_p4_delayed",
    "solve_T_delayed",
    "solve_epsilon_mounting",
]

BOUNDARY_BAND = 1e-12
RESIDUAL_REL_TOL = 1e-8
T_DELAYED_MAX = 1e6
EPSILON_MAX = 10.0

OutcomeTag = Literal["value", "no_tai_preferred", "tai_preferred", "no_solution"]


@dataclass(frozen=True)
class SolveOutcome:
    tag: OutcomeTag
    value: Optional[float] = None
    iterations: int = 0
    residual: float = 0.0

    @property
    def is_value(self) -> bool:
        return self.tag == "value"

    @classmethod
    def of(cls, value: float, iterations: int = 0, residual: float = 0.0) -> "SolveOutcome":
        return cls("value", value, iterations, residual)

    @classmethod
    def no_tai_preferred(cls) -> "SolveOutcome":
        return cls("no_tai_preferred")

    @classmethod
    def tai_preferred(cls) -> "SolveOutcome":
        return cls("tai_preferred")

    @classmethod
    def no_solution(cls) -> "SolveOutcome":
        return cls("no_solution")


def _classify_probability(p: float) -> SolveOutcome:
    """Map a linear probability solution onto the outcome taxonomy."""
    if p < -BOUNDARY_BAND:
        return SolveOutcome.no_tai_preferred()
    if p > 1.0 + BOUNDARY_BAND:
        return SolveOutcome.tai_preferred()
    return SolveOutcome.of(min(max(p, 0.0), 1.0))


def _residual_ok(w_at_root: float, w0: float) -> float:
    resid = abs(w_at_root - w0)
    if resid > RESIDUAL_REL_TOL * max(1.0, abs(w0)):
        raise ConvergenceError(
            f"indifference residual {resid!r} exceeds tolerance; solver bug"
        )
    return resid


def _solve_monotone_time(
    wb_of_t: Callable[[float], float], target: float, w_sup: float
) -> SolveOutcome:
    """Solve W(T) = target for a W increasing from W(0)=0 toward sup W = w_sup."""
    if target < -BOUNDARY_BAND:
        return SolveOutcome.no_tai_preferred()
    if target >= w_sup:
        return SolveOutcome.no_solution()
    f = lambda t: wb_of_t(t) - target
    if abs(target) <= BOUNDARY_BAND:
        return SolveOutcome.of(0.0)
    try:
        a, b, fa, fb = expand_bracket(f, 1.0, 0.0, T_DELAYED_MAX)
    except BracketError:
        # root beyond the admissible [0, 1e6] window
        return SolveOutcome.no_solution()
    result = brent(f, a, b, fa=fa, fb=fb)
    resid = _residual_ok(wb_of_t(result.root), target)
    return SolveOutcome.of(result.root, result.iterations, resid)


def solve_extinction_time(spec: ScenarioSpec) -> SolveOutcome:
    """Extinction date T making certain doom at T as good as never building TAI.

    Solves W_trunc(T) = W0.  W_trunc rises from 0 to the cornucopia value, so
    a root exists exactly when cornucopia beats the baseline (g_ai above
    g_baseline); otherwise no finite T works and the solve reports that.
    """
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    return _solve_monotone_time(
        lambda t: welfare_truncated(spec, t).value, w0, w_a
    )


def solve_p3_immediate(spec: ScenarioSpec) -> SolveOutcome:
    """Misalignment probability p3 with (1-p3) W_cornucopia = W0; closed form."""
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    if w_a <= 0.0:
        raise DomainError("cornucopia welfare must be positive to solve for p3")
    return _classify_probability(1.0 - w0 / w_a)


def solve_p3_delayed(spec: ScenarioSpec, p4: float, T: float) -> SolveOutcome:
    """p3 in the delayed-doom lottery, holding p4 and T fixed; closed form."""
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    w_b = welfare_truncated(spec, T).value
    mix = lottery_value(w_a, w_b, 0.0, p4)
    if mix <= 0.0:
        return SolveOutcome.no_tai_preferred()
    return _classify_probability(1.0 - w0 / mix)


def solve_p4_delayed(spec: ScenarioSpec, p3: float, T: float) -> SolveOutcome:
    """p4 in the delayed-doom lottery, holding p3 and T fixed; closed form."""
    _check_probability("p3", p3)
    if p3 >= 1.0:
        return SolveOutcome.no_tai_preferred()
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    w_b = welfare_truncated(spec, T).value
    spread = w_a - w_b
    numerator = w_a - w0 / (1.0 - p3)
    if spread <= 0.0:
        # T so large that delayed doom is indistinguishable from cornucopia
        return SolveOutcome.no_solution()
    return _classify_probability(numerator / spread)


def solve_T_delayed(spec: ScenarioSpec, p3: float, p4: float) -> SolveOutcome:
    """Doom date T in the delayed lottery, holding p3 and p4 fixed.

    The lottery value is (1-p3) p4 W_trunc(T) + (1-p3)(1-p4) W_cornucopia,
    increasing in T.  The admissible domain is [0, 1e6] years; a negative
    implied T reports no_tai_preferred, while a target beyond the cornucopia
    ceiling (no root even at infinite T) reports no_solution.
    """
    _check_probability("p3", p3)
    _check_probability("p4", p4)
    if p3 >= 1.0 or p4 <= 0.0:
        raise DomainError("solving for T needs p3 < 1 and p4 > 0")
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    keep = 1.0 - p3
    target = (w0 - keep * (1.0 - p4) * w_a) / (keep * p4)
    return _solve_monotone_time(
        lambda t: welfare_truncated(spec, t).value, target, w_a
    )


def solve_epsilon_mounting(spec: ScenarioSpec, *, quad_tol: float = 1e-10) -> SolveOutcome:
    """Hazard slope eps at which mounting extinction risk cancels the TAI gain.

    Solves W_mounting(eps) = W0 by growing a bracket [0, eps_hi] and running
    Brent; W_mounting decreases strictly in eps from the cornucopia value, so
    the root is unique whenever cornucopia beats the baseline.  Quadrature
    non-convergence propagates as QuadratureError, never as no_solution.
    """
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    if w_a <= w0:
        return SolveOutcome.no_solution()

    def f(eps: float) -> float:
        return welfare_mounting(spec, eps, tol=quad_tol).value - w0

    eps_hi = 1e-6
    while f(eps_hi) > 0.0:
        eps_hi *= 4.0
        if eps_hi > EPSILON_MAX:
            return SolveOutcome.no_solution()
    result = brent(f, 0.0, eps_hi, fa=w_a - w0, rel_tol=1e-10)
    resid = _residual_ok(welfare_mounting(spec, result.root, tol=quad_tol).value, w0)
    return SolveOutcome.of(result.root, result.iterations, resid)
