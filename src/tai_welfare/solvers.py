"""Indifference thresholds between the risky-TAI and no-TAI worlds.

Each solver finds the parameter value at which the risky scenario's welfare
equals the no-takeover welfare W0.  A solve can end four ways:

  value            a threshold in the admissible domain
  no_tai_preferred the implied threshold would be negative; rendered "-"
  tai_preferred    the implied probability would exceed 1; rendered ">1"
  no_solution      no root exists in the admissible domain

The probability solvers are linear given the underlying welfare values, so
they are closed-form.  The time solves run Newton, with no bracket, on
whichever form of W_trunc(T) = target does not cancel, given the exact gap
W_cornucopia - W0 (_solve_monotone_time, _exact_gap).  The hazard slope runs
Brent on the exact erfcx closed form in a bracket grown upward, across which
its sign is checked; the quadrature, its one runtime reader, polishes the root.

Classification uses a 1e-12 band at the 0 and 1 boundaries: a linear
solution within the band is clamped into the domain rather than pushed to a
sentinel.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, NamedTuple, Optional

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

BOUNDARY_BAND = 1e-12
RESIDUAL_REL_TOL = 1e-8
T_DELAYED_MAX = 1e6
EPSILON_MAX = 10.0
_EPSILON_START = 1e-6  # first trial slope of the geometric eps bracket
_POLISH_STEPS = 4  # Newton steps on the quadrature before the closed form's root stands
_NEWTON_STEPS = 50  # Newton steps a time solve may take before it gives up

OutcomeTag = Literal["value", "no_tai_preferred", "tai_preferred", "no_solution"]


class SolveOutcome(NamedTuple):
    """iterations counts Newton steps (time), or Brent iterations or polish evaluations (eps)."""

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
    # resid is |W(root) - w0| at the solved root; nan fails
    if not resid <= RESIDUAL_REL_TOL * max(1.0, abs(w0)):
        raise ConvergenceError(
            f"indifference residual {resid!r} exceeds tolerance; solver bug"
        )
    return resid


def _exact_gap(spec: ScenarioSpec) -> float:
    """W_cornucopia - W0, subtracting no welfare values: with q = 1 - theta it is
    (g_ai - g_b) e^(q lam) / ((rho - q g_ai)(rho - q g_b)), and (g_ai - g_b) / rho^2 at q = 0."""
    rho, q, dg = spec.prefs.rho, 1.0 - spec.prefs.theta_rra, spec.g_ai - spec.g_baseline
    if q == 0.0:
        return dg / rho**2
    return dg * math.exp(q * spec.log_c0) / ((rho - q * spec.g_ai) * (rho - q * spec.g_baseline))


def _log_utility(log_c: float, q: float) -> float:
    # log u for u = (c^q - 1) / q at log c > 0, finite where c^q overflows
    x = q * log_c
    if x > 0.0:
        return x + math.log(-math.expm1(-x) / q)
    if x < 0.0:
        return math.log(math.expm1(x) / q)
    return math.log(log_c)


def _solve_monotone_time(
    spec: ScenarioSpec, target: float, w_sup: float, gap: float
) -> SolveOutcome:
    """Newton on whichever form of W_trunc(T) = target does not cancel; gap = w_sup - target.

    Where target > gap, on phi(T) = log W_inf(lam + g T) - rho T - log gap, the tail
    identity w_sup - W_trunc(T) = e^(-rho T) W_inf(lam + g T) in logs, with slope -u / W_inf,
    from its lower bound log(w_sup / gap) / rho.  Elsewhere, on W_trunc(T) - target, with
    slope e^(-rho T) u, from the root of u(lam) T + g e^(q lam) T^2 / 2 = target.  Either
    stops once a step is within 1e-12 T; gap must come without that subtraction.
    """
    if target < -BOUNDARY_BAND:
        return SolveOutcome("no_tai_preferred")
    if gap <= 0.0:
        return SolveOutcome("no_solution")
    if abs(target) <= BOUNDARY_BAND:
        return SolveOutcome("value", 0.0)
    lam, g, rho, theta = spec.log_c0, spec.g_ai, spec.prefs.rho, spec.prefs.theta_rra
    q = 1.0 - theta
    if target > gap:
        # W_inf = u h / (rho a), with h = rho + g / u and a = rho - q g
        rho_a = rho * (rho - q * g)
        shift, t = math.log(rho_a * gap), math.log(w_sup / gap) / rho

        def newton_step(t: float) -> float:
            log_u = _log_utility(lam + g * t, q)
            h = rho + g * math.exp(-log_u)
            return -(log_u + math.log(h) - rho * t - shift) * h / rho_a
    else:
        u0 = lam if q == 0.0 else math.expm1(q * lam) / q
        root_c = math.sqrt(2.0 * (1.0 + q * u0) * target) * math.sqrt(g)  # finite at g = 1e308
        t = 2.0 * target / (u0 + math.hypot(u0, root_c))

        def newton_step(t: float) -> float:
            f = discounted_crra_closed_form(lam, g, rho, theta, t) - target
            return f / math.exp(_log_utility(lam + g * t, q) - rho * t)
    for steps in range(1, _NEWTON_STEPS + 1):
        step = newton_step(t)
        t -= step
        if abs(step) <= 1e-12 * t:
            break
    else:
        raise ConvergenceError(f"time solve did not settle in {_NEWTON_STEPS} Newton steps")
    if t > T_DELAYED_MAX:  # root beyond the admissible [0, 1e6] window
        return SolveOutcome("no_solution")
    resid = _residual_ok(abs(discounted_crra_closed_form(lam, g, rho, theta, t) - target), target)
    return SolveOutcome("value", t, steps, resid)


def solve_extinction_time(spec: ScenarioSpec) -> SolveOutcome:
    """Extinction date T making certain doom at T as good as never building TAI.

    Solves W_trunc(T) = W0.  W_trunc rises from 0 to the cornucopia value, so
    a root exists exactly when cornucopia beats the baseline (g_ai above
    g_baseline); otherwise no finite T works and the solve reports that.
    """
    w0 = _closed(spec, spec.g_baseline)
    w_a = _closed(spec, spec.g_ai)
    return _solve_monotone_time(spec, w0, w_a, _exact_gap(spec))


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
    # w_a - target = ((1-p3) w_a - w0) / ((1-p3) p4), and (1-p3) w_a - w0 = gap - p3 w_a
    gap = (_exact_gap(spec) - p3 * w_a) / (keep * p4)
    return _solve_monotone_time(spec, target, w_a, gap)


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

    # exact(0) = w_a - w0 > 0; lo keeps that sign, hi is the first 1e-6 * 4^n that does not
    lo, f_lo, hi = 0.0, w_a - w0, _EPSILON_START
    while (f_hi := exact(hi)) > 0.0:
        if hi >= EPSILON_MAX:
            return SolveOutcome("no_solution")
        lo, f_lo, hi = hi, f_hi, min(4.0 * hi, EPSILON_MAX)
    result = brent(exact, lo, hi, fa=f_lo, fb=f_hi, rel_tol=1e-10)
    lo, hi = result.root * (1.0 - 1e-6), result.root * (1.0 + 1e-6)
    slope = (exact(hi) - exact(lo)) / (hi - lo)
    polished = _polished_epsilon(
        lambda eps: _mounting_quadrature(spec, eps) - w0, result.root, slope
    )
    result = result if polished is None else polished
    resid = _residual_ok(result.residual, w0)
    return SolveOutcome("value", result.root, result.iterations, resid)
