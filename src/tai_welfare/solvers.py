"""Indifference thresholds between the risky-TAI and no-TAI worlds.

Each solver finds the parameter value at which the risky scenario's welfare
equals the no-takeover welfare W0.  A solve can end four ways:

  value            a threshold in the admissible domain
  no_tai_preferred the implied threshold would be negative; rendered "-"
  tai_preferred    the implied probability would exceed 1; rendered ">1"
  no_solution      no root exists in the admissible domain

The probability solvers are linear given the underlying welfare values, so
they are closed-form; the time and hazard-slope solvers bracket and run
Brent on a function that is monotone in the solved parameter.  Both know
its value at 0, so one bracket serves both: trial points start * 4^n, capped
at the domain's end, grow upward until the sign differs from f(0)'s, and the
last point that kept f(0)'s sign (0 at first) is the lower end.  The time
solves run it, and Brent, on the truncated closed form with its scalars
bound once; a root below T = 1 is then closed in from above, four-fold.
The hazard slope is solved on the quadrature welfare_mounting, in a bracket
that the exact erfcx closed form predicts; the quadrature stays the
evaluator that defines the root until the t4 golden, which holds its
rounding in one cell, is re-captured from a 40-digit oracle.

Classification uses a 1e-12 band at the 0 and 1 boundaries: a linear
solution within the band is clamped into the domain rather than pushed to a
sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Literal, Optional

from .errors import ConvergenceError, DomainError
from .rootfind import RootResult, brent
from .taxonomy import _check_probability
from .welfare import (
    ScenarioSpec,
    _mounting_closed_form,
    discounted_crra_closed_form,
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
_EPSILON_START = 1e-6  # first trial slope of the geometric eps bracket
_PREDICTION_SLACK = 1e-7  # half-width, relative, of the first bracket around eps_hat

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
    if math.isnan(p):
        raise DomainError("the probability solution is NaN; inputs out of float range")
    if p < -BOUNDARY_BAND:
        return SolveOutcome.no_tai_preferred()
    if p > 1.0 + BOUNDARY_BAND:
        return SolveOutcome.tai_preferred()
    return SolveOutcome.of(min(max(p, 0.0), 1.0))


def _residual_ok(resid: float, w0: float) -> float:
    # resid is Brent's RootResult.residual, |f(root)| = |W(root) - w0| itself
    if resid > RESIDUAL_REL_TOL * max(1.0, abs(w0)):
        raise ConvergenceError(
            f"indifference residual {resid!r} exceeds tolerance; solver bug"
        )
    return resid


_Bracket = tuple[float, float, float, float]  # (lo, hi, f(lo), f(hi)) with a sign change


def _bracket_upward(
    f: Callable[[float], float], f0: float, start: float, cap: float
) -> Optional[_Bracket]:
    """[lo, hi] with hi = start * 4^n, capped at cap, at the first f(hi) without f0's sign.

    f(0) = f0 != 0 is known; lo is the last point that kept its sign, 0 at
    first.  None when f keeps f0's sign up to cap.
    """
    sign = math.copysign(1.0, f0)
    lo, f_lo, hi = 0.0, f0, start
    while sign * (f_hi := f(hi)) > 0.0:
        if hi >= cap:
            return None
        lo, f_lo, hi = hi, f_hi, min(4.0 * hi, cap)
    return lo, hi, f_lo, f_hi


def _brent_in(f: Callable[[float], float], bracket: _Bracket) -> RootResult:
    lo, hi, f_lo, f_hi = bracket
    return brent(f, lo, hi, fa=f_lo, fb=f_hi, rel_tol=1e-10)


def _solve_monotone_time(spec: ScenarioSpec, target: float, w_sup: float) -> SolveOutcome:
    """Solve W_trunc(T) = target; W_trunc rises from W(0) = 0 toward sup W = w_sup."""
    if target < -BOUNDARY_BAND:
        return SolveOutcome.no_tai_preferred()
    if target >= w_sup:
        return SolveOutcome.no_solution()
    if abs(target) <= BOUNDARY_BAND:
        return SolveOutcome.of(0.0)
    w_trunc = partial(discounted_crra_closed_form, spec.log_c0, spec.g_ai,
                      spec.prefs.rho, spec.prefs.theta_rra)
    f = lambda t: w_trunc(t) - target
    bracket = _bracket_upward(f, -target, 1.0, T_DELAYED_MAX)
    if bracket is None:
        # root beyond the admissible [0, 1e6] window
        return SolveOutcome.no_solution()
    lo, hi, f_lo, f_hi = bracket
    # a root below T = 1: step down four-fold, as Brent creeps to a root decades under hi
    while lo == 0.0 and (t := 0.25 * hi) > 0.0:
        if (f_t := f(t)) < 0.0:
            lo, f_lo = t, f_t
        else:
            hi, f_hi = t, f_t
    result = _brent_in(f, (lo, hi, f_lo, f_hi))
    resid = _residual_ok(result.residual, target)
    return SolveOutcome.of(result.root, result.iterations, resid)


def solve_extinction_time(spec: ScenarioSpec) -> SolveOutcome:
    """Extinction date T making certain doom at T as good as never building TAI.

    Solves W_trunc(T) = W0.  W_trunc rises from 0 to the cornucopia value, so
    a root exists exactly when cornucopia beats the baseline (g_ai above
    g_baseline); otherwise no finite T works and the solve reports that.
    """
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    return _solve_monotone_time(spec, w0, w_a)


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
    return _solve_monotone_time(spec, target, w_a)


def _predicted_epsilon(spec: ScenarioSpec, w0: float, f0: float) -> Optional[float]:
    """Root of the exact closed form, or None when the closed form cannot give one."""

    def f(eps: float) -> float:
        w = _mounting_closed_form(spec, eps)
        if not math.isfinite(w):
            raise OverflowError(f"closed-form mounting welfare {w!r} at eps={eps!r}")
        return w - w0

    try:
        bracket = _bracket_upward(f, f0, _EPSILON_START, EPSILON_MAX)
        return None if bracket is None else _brent_in(f, bracket).root
    except ArithmeticError:
        return None


def _bracket_around(
    f: Callable[[float], float], eps_hat: float, f0: float
) -> Optional[_Bracket]:
    """Sign-change bracket of f near its predicted root eps_hat.

    Starts at eps_hat (1 -/+ _PREDICTION_SLACK) and, while the root lies
    outside, moves the bracket across and widens its half-width four-fold,
    with lo clamped at 0 (where f = f0 is known) and hi capped at EPSILON_MAX.
    No point is evaluated twice.  None when f > 0 at EPSILON_MAX.
    """
    k = _PREDICTION_SLACK
    lo, hi = eps_hat * (1.0 - k), min(eps_hat * (1.0 + k), EPSILON_MAX)
    f_lo, f_hi = f(lo), f(hi)
    while True:
        if f_lo < 0.0 and f_hi < 0.0:  # the root lies below lo
            k *= 4.0
            hi, f_hi = lo, f_lo
            lo = max(eps_hat * (1.0 - k), 0.0)
            f_lo = f0 if lo == 0.0 else f(lo)
        elif f_lo > 0.0 and f_hi > 0.0:  # the root lies above hi
            if hi >= EPSILON_MAX:
                return None
            k *= 4.0
            lo, f_lo = hi, f_hi
            hi = min(eps_hat * (1.0 + k), EPSILON_MAX)
            f_hi = f(hi)
        else:
            return lo, hi, f_lo, f_hi


def solve_epsilon_mounting(spec: ScenarioSpec) -> SolveOutcome:
    """Hazard slope eps at which mounting extinction risk cancels the TAI gain.

    Solves W_mounting(eps) = W0, where W_mounting is the quadrature at its one
    tolerance (welfare_mounting); it decreases strictly in eps from the
    cornucopia value, so the root is unique whenever cornucopia beats the
    baseline, and a root beyond EPSILON_MAX reports no_solution.

    Predictor: Brent on the exact erfcx closed form (microseconds) gives
    eps_hat, within about 1e-7 of the quadrature's root; the two differ only
    by the quadrature's rounding, amplified by W0 / (W_cornucopia - W0).
    Polish: the quadrature is evaluated at eps_hat (1 -/+ 1e-7), widened
    four-fold until it brackets the root, and Brent (rel_tol 1e-10) runs on
    the quadrature in that bracket.  When the closed form overflows or finds
    no root, the bracket instead grows upward from 1e-6 four-fold.  The value,
    the tag and the residual check all come from quadrature evaluations, and
    the outcome's iterations count only the quadrature Brent.  Once the t4
    golden is re-captured from a 40-digit oracle, the closed form can be the
    answer and the polish can go.  Quadrature non-convergence propagates as
    QuadratureError, never as no_solution.
    """
    w0 = welfare_no_takeover(spec).value
    w_a = welfare_cornucopia(spec).value
    if w_a <= w0:
        return SolveOutcome.no_solution()
    f0 = w_a - w0

    def f(eps: float) -> float:
        return welfare_mounting(spec, eps).value - w0

    eps_hat = _predicted_epsilon(spec, w0, f0)
    if eps_hat is None:
        bracket = _bracket_upward(f, f0, _EPSILON_START, EPSILON_MAX)
    else:
        bracket = _bracket_around(f, eps_hat, f0)
    if bracket is None:
        return SolveOutcome.no_solution()
    result = _brent_in(f, bracket)
    resid = _residual_ok(result.residual, w0)
    return SolveOutcome.of(result.root, result.iterations, resid)
