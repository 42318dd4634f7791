"""Equivalent variation and willingness to pay for removing extinction risk.

Under log utility, scaling every period's consumption by a factor k shifts
lifetime welfare by exactly log(k) / r, so the consumption factor that makes
a safe cornucopia exactly as good as a risky scenario is

    EV = exp(-(W_cornucopia - W_risky) * r),

and 1 - EV is the fraction of consumption a planner would pay, every period
forever, to trade the risky world for the safe one.  That identity holds only
at theta = 1, so EV is defined here for log utility only.

EV values here range down to ~1e-90, so results carry log_ev alongside ev
and comparisons should happen on the log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from .errors import DomainError
from .preferences import Preferences, effective_discount
from .welfare import (
    DEFAULT_QUAD_TOL,
    ScenarioSpec,
    WelfareResult,
    lottery_value,
    welfare_cornucopia,
    welfare_mounting,
    welfare_truncated,
)

__all__ = [
    "EvResult",
    "equivalent_variation",
    "ev_panel",
    "wtp_per_period",
]


@dataclass(frozen=True)
class EvResult:
    """Consumption-equivalent comparison of a safe and a risky scenario."""

    ev: float
    log_ev: float
    wtp_fraction: float
    cornucopia_welfare: float
    risky_welfare: float


def equivalent_variation(
    cornucopia: WelfareResult, risky: WelfareResult, prefs: Preferences
) -> EvResult:
    """EV = exp(-(W_cornucopia - W_risky) * r); requires log utility.

    The consumption-scaling reading of EV is exact only at theta = 1; other
    curvatures raise a domain error.
    """
    if prefs.theta_rra != 1.0:
        raise DomainError(
            "equivalent variation is defined here for theta = 1 only, "
            f"got theta = {prefs.theta_rra!r}"
        )
    w_c, w_r = cornucopia.value, risky.value
    if not (math.isfinite(w_c) and math.isfinite(w_r)):
        raise DomainError("welfare values must be finite")
    r = effective_discount(prefs)
    log_ev = -(w_c - w_r) * r
    ev = math.exp(log_ev)
    return EvResult(
        ev=ev,
        log_ev=log_ev,
        wtp_fraction=1.0 - ev,
        cornucopia_welfare=w_c,
        risky_welfare=w_r,
    )


def ev_panel(
    spec: ScenarioSpec,
    panel: Literal["a", "b", "c", "d"],
    *,
    T: Optional[float] = None,
    p3: Optional[float] = None,
    p4: Optional[float] = None,
    epsilon: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> EvResult:
    """EV of one risky scenario against the cornucopia on the same growth path.

    Panel a: certain extinction at T            -> risky = W_trunc(T)
    Panel b: immediate doom with probability p3 -> risky = (1-p3) W_cornucopia
    Panel c: full lottery (p3, p4, T)           -> risky = lottery value
    Panel d: mounting hazard with slope epsilon -> risky = W_mounting(eps)
    """
    w_a = welfare_cornucopia(spec)
    if panel == "a":
        if T is None:
            raise DomainError("panel a needs T")
        risky = welfare_truncated(spec, T)
    elif panel == "b":
        if p3 is None:
            raise DomainError("panel b needs p3")
        risky = WelfareResult(lottery_value(w_a.value, 0.0, p3, 0.0), "closed_form")
    elif panel == "c":
        if T is None or p3 is None or p4 is None:
            raise DomainError("panel c needs p3, p4 and T")
        w_b = welfare_truncated(spec, T).value
        risky = WelfareResult(lottery_value(w_a.value, w_b, p3, p4), "closed_form")
    elif panel == "d":
        if epsilon is None:
            raise DomainError("panel d needs epsilon (a solved hazard slope)")
        risky = welfare_mounting(spec, epsilon, tol=quad_tol)
    else:
        raise DomainError(f"unknown panel {panel!r}")
    return equivalent_variation(w_a, risky, spec.prefs)


def wtp_per_period(ev: EvResult, consumption_level: float) -> float:
    """Willingness to pay per period: (1 - EV) times current consumption."""
    if not consumption_level > 0.0:
        raise DomainError(
            f"consumption_level must be > 0, got {consumption_level!r}"
        )
    return ev.wtp_fraction * consumption_level
