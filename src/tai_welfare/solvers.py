"""Indifference thresholds between the risky-TAI and no-TAI worlds.

Each solver finds the parameter value at which the risky scenario's welfare
equals the no-takeover welfare W0.  A solve can end four ways:

  value            a threshold in the admissible domain
  no_tai_preferred the implied threshold would be negative; rendered "-"
  tai_preferred    the implied probability would exceed 1; rendered ">1"
  no_solution      no root exists in the admissible domain

The probability solvers are linear given the underlying welfare values, so
they are closed-form; the time and hazard-slope solvers run Brent on a
function that is monotone in the solved parameter, in a bracket across which
its sign is checked.  The time solves run it on the truncated closed form
minus the target, with its scalars bound once, in a bracket one Brent
tolerance wide that Newton steps on the tail identity place (_tail_bracket),
so Brent stops at its first iteration.  Where f does not change sign across
it, they fall back on the bracket both solvers share: trial points
start * 4^n, capped at the domain's end, grow upward until the sign differs
from f(0)'s, and the last point that kept f(0)'s sign (0 at first) is the
lower end; a time root below T = 1 is then closed in from above, four-fold.
The hazard slope runs Brent in that bracket on the exact erfcx closed form,
and the quadrature, its one runtime reader, only polishes the root.

Classification uses a 1e-12 band at the 0 and 1 boundaries: a linear
solution within the band is clamped into the domain rather than pushed to a
sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Literal, Optional

from .errors import ConvergenceError, DomainError, QuadratureError
from .rootfind import RootResult, brent
from .taxonomy import _check_probability
from .welfare import (
    ScenarioSpec,
    _closed,
    _mounting_closed_form,
    _mounting_quadrature,
    discounted_crra_closed_form,
    lottery_value,
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
_POLISH_STEPS = 4  # Newton steps on the quadrature before the closed form's root stands
_TAIL_STEPS = 8  # Newton steps on the time solves' tail identity before the upward bracket

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


def _classify_probability(p: float) -> SolveOutcome:
    """Map a linear probability solution onto the outcome taxonomy."""
    if math.isnan(p):
        raise DomainError("the probability solution is NaN; inputs out of float range")
    if p < -BOUNDARY_BAND:
        return SolveOutcome("no_tai_preferred")
    if p > 1.0 + BOUNDARY_BAND:
        return SolveOutcome("tai_preferred")
    return SolveOutcome("value", min(max(p, 0.0), 1.0))


def _residual_ok(resid: float, w0: float) -> float:
    # resid is Brent's RootResult.residual, |f(root)| = |W(root) - w0|; nan fails
    if not resid <= RESIDUAL_REL_TOL * max(1.0, abs(w0)):
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


def _tail_bracket(
    f: Callable[[float], float], spec: ScenarioSpec, target: float, w_sup: float
) -> Optional[_Bracket]:
    """T (1 -/+ 5e-11) around the root of f = W_trunc - target, once f changes sign there.

    With W_inf(lam') the infinite-horizon closed form at log c0 = lam', the
    tail identity w_sup - W_trunc(T) = e^(-rho T) W_inf(lam + g T) puts the
    root at the zero of phi(T) = log W_inf(lam + g T) - rho T - log gap,
    gap = w_sup - target.  W_inf rises in lam', so log(w_sup / gap) / rho
    bounds it from below; Newton steps on phi (which falls, and is concave
    for theta >= 1) run from there until a step is under 1e-12 T.  None when
    _TAIL_STEPS steps do not settle, an evaluation fails, the bracket leaves
    (0, T_DELAYED_MAX] or f keeps one sign across it: where the gap is within
    about 1e-6 of w_sup, rounding in f moves its zero further than that.
    """
    lam, g, rho, theta = spec.log_c0, spec.g_ai, spec.prefs.rho, spec.prefs.theta_rra
    q, gap = 1.0 - theta, w_sup - target
    t, log_gap = math.log(w_sup / gap) / rho, math.log(gap)
    try:
        for _ in range(_TAIL_STEPS):
            lam_t = lam + g * t
            w = discounted_crra_closed_form(lam_t, g, rho, theta)
            slope = g * math.exp(q * lam_t) / ((rho - q * g) * w) - rho
            step = (math.log(w) - rho * t - log_gap) / slope
            t -= step
            if abs(step) <= 1e-12 * t:
                break
        else:
            return None
    except (ArithmeticError, ValueError):  # overflow, or the log of a value <= 0
        return None
    lo, hi = t * (1.0 - 5e-11), t * (1.0 + 5e-11)
    if 0.0 < lo and hi <= T_DELAYED_MAX and (f_lo := f(lo)) < 0.0 <= (f_hi := f(hi)):
        return lo, hi, f_lo, f_hi
    return None


def _solve_monotone_time(spec: ScenarioSpec, target: float, w_sup: float) -> SolveOutcome:
    """Solve W_trunc(T) = target; W_trunc rises from W(0) = 0 toward sup W = w_sup.

    Brent runs in _tail_bracket's bracket or, where that is None, in the one
    grown upward from T = 1; either way _residual_ok checks its root.
    """
    if target < -BOUNDARY_BAND:
        return SolveOutcome("no_tai_preferred")
    if target >= w_sup:
        return SolveOutcome("no_solution")
    if abs(target) <= BOUNDARY_BAND:
        return SolveOutcome("value", 0.0)
    w_trunc = partial(discounted_crra_closed_form, spec.log_c0, spec.g_ai,
                      spec.prefs.rho, spec.prefs.theta_rra)
    f = lambda t: w_trunc(t) - target
    bracket = _tail_bracket(f, spec, target, w_sup)
    if bracket is None:
        bracket = _bracket_upward(f, -target, 1.0, T_DELAYED_MAX)
        if bracket is None:
            # root beyond the admissible [0, 1e6] window
            return SolveOutcome("no_solution")
        lo, hi, f_lo, f_hi = bracket
        # a root below T = 1: step down four-fold, as Brent creeps to a root decades under hi
        while lo == 0.0 and (t := 0.25 * hi) > 0.0:
            if (f_t := f(t)) < 0.0:
                lo, f_lo = t, f_t
            else:
                hi, f_hi = t, f_t
        bracket = lo, hi, f_lo, f_hi
    result = _brent_in(f, bracket)
    resid = _residual_ok(result.residual, target)
    return SolveOutcome("value", result.root, result.iterations, resid)


def solve_extinction_time(spec: ScenarioSpec) -> SolveOutcome:
    """Extinction date T making certain doom at T as good as never building TAI.

    Solves W_trunc(T) = W0.  W_trunc rises from 0 to the cornucopia value, so
    a root exists exactly when cornucopia beats the baseline (g_ai above
    g_baseline); otherwise no finite T works and the solve reports that.
    """
    w0 = _closed(spec, spec.g_baseline)
    w_a = _closed(spec, spec.g_ai)
    return _solve_monotone_time(spec, w0, w_a)


def solve_p3_immediate(spec: ScenarioSpec) -> SolveOutcome:
    """Misalignment probability p3 with (1-p3) W_cornucopia = W0; closed form."""
    w0 = _closed(spec, spec.g_baseline)
    w_a = _closed(spec, spec.g_ai)
    if w_a <= 0.0:
        raise DomainError("cornucopia welfare must be positive to solve for p3")
    return _classify_probability(1.0 - w0 / w_a)


def solve_p3_delayed(spec: ScenarioSpec, p4: float, T: float) -> SolveOutcome:
    """p3 in the delayed-doom lottery, holding p4 and T fixed; closed form."""
    w0 = _closed(spec, spec.g_baseline)
    w_a = _closed(spec, spec.g_ai)
    w_b = _closed(spec, spec.g_ai, T)
    mix = lottery_value(w_a, w_b, 0.0, p4)
    if mix <= 0.0:
        return SolveOutcome("no_tai_preferred")
    return _classify_probability(1.0 - w0 / mix)


def solve_p4_delayed(spec: ScenarioSpec, p3: float, T: float) -> SolveOutcome:
    """p4 in the delayed-doom lottery, holding p3 and T fixed; closed form."""
    _check_probability("p3", p3)
    if p3 >= 1.0:
        return SolveOutcome("no_tai_preferred")
    w0 = _closed(spec, spec.g_baseline)
    w_a = _closed(spec, spec.g_ai)
    w_b = _closed(spec, spec.g_ai, T)
    spread = w_a - w_b
    numerator = w_a - w0 / (1.0 - p3)
    if spread <= 0.0:
        # T so large that delayed doom is indistinguishable from cornucopia
        return SolveOutcome("no_solution")
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
    w0 = _closed(spec, spec.g_baseline)
    w_a = _closed(spec, spec.g_ai)
    keep = 1.0 - p3
    target = (w0 - keep * (1.0 - p4) * w_a) / (keep * p4)
    return _solve_monotone_time(spec, target, w_a)


def _polished_epsilon(
    f: Callable[[float], float], eps: float, slope: float
) -> Optional[RootResult]:
    """Newton steps eps -= f(eps) / slope on the quadrature f from the closed form's root.

    The root is the last point evaluated once a step is within Brent's
    tolerance, 1e-10 eps; iterations counts the evaluations.  None when the
    slope is not negative and finite, the quadrature fails, an iterate leaves
    (0, EPSILON_MAX] or _POLISH_STEPS steps do not settle.
    """
    if not -math.inf < slope < 0.0:  # 0 where the closed form is flat to the ulp
        return None
    try:
        for evaluations in range(1, _POLISH_STEPS + 2):
            f_eps = f(eps)
            step = f_eps / slope
            if abs(step) <= 1e-10 * eps:
                return RootResult(eps, evaluations, abs(f_eps))
            eps -= step
            if not 0.0 < eps <= EPSILON_MAX:
                return None
    except QuadratureError:  # an overflowing integrand or an exhausted budget
        pass
    return None


def solve_epsilon_mounting(spec: ScenarioSpec) -> SolveOutcome:
    """Hazard slope eps at which mounting extinction risk cancels the TAI gain.

    W_mounting(eps) decreases strictly from the cornucopia value, so a root
    exists whenever cornucopia beats the baseline.  The exact erfcx closed
    form decides it: a bracket grows upward from 1e-6 four-fold, and Brent
    (rel_tol 1e-10) runs in it; no bracket below EPSILON_MAX reports
    no_solution.  Newton steps on the quadrature _mounting_quadrature, with
    the closed form's slope, then polish that root, as the t4 golden holds
    the quadrature's rounding in one cell; when the polish gives up, a failed
    quadrature included, the closed form's root stands.  iterations counts
    the polish's evaluations or Brent's iterations.  An overflowing closed
    form raises OverflowError.
    """
    w0 = _closed(spec, spec.g_baseline)
    w_a = _closed(spec, spec.g_ai)
    if w_a <= w0:
        return SolveOutcome("no_solution")

    def exact(eps: float) -> float:
        return _mounting_closed_form(spec, eps) - w0

    bracket = _bracket_upward(exact, w_a - w0, _EPSILON_START, EPSILON_MAX)
    if bracket is None:
        return SolveOutcome("no_solution")
    result = _brent_in(exact, bracket)
    lo, hi = result.root * (1.0 - 1e-6), result.root * (1.0 + 1e-6)
    slope = (exact(hi) - exact(lo)) / (hi - lo)
    polished = _polished_epsilon(
        lambda eps: _mounting_quadrature(spec, eps) - w0, result.root, slope
    )
    result = result if polished is None else polished
    resid = _residual_ok(result.residual, w0)
    return SolveOutcome("value", result.root, result.iterations, resid)
