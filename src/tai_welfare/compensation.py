"""Equivalent variation and willingness to pay for removing extinction risk.

Under log utility, scaling every period's consumption by a factor k shifts
lifetime welfare by exactly log(k) / rho, so the consumption factor that
makes a safe cornucopia exactly as good as a risky scenario is

    EV = exp(-(W_cornucopia - W_risky) * rho),

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
from .preferences import Preferences
from .welfare import ScenarioSpec, _closed, _mounting_closed_form, lottery_value

__all__ = [
    "EvResult",
    "equivalent_variation",
    "ev_panel",
    "wtp_per_period",
    "PANELS",
]


@dataclass(frozen=True)
class EvResult:
    """Consumption-equivalent comparison of a safe and a risky scenario."""

    ev: float
    log_ev: float
    wtp_fraction: float


def equivalent_variation(
    w_cornucopia: float, w_risky: float, prefs: Preferences
) -> EvResult:
    """EV = exp(-(W_cornucopia - W_risky) * rho); requires log utility.

    The consumption-scaling reading of EV is exact only at theta = 1; other
    curvatures raise a domain error.
    """
    if prefs.theta_rra != 1.0:
        raise DomainError(
            "equivalent variation is defined here for theta = 1 only, "
            f"got theta = {prefs.theta_rra!r}"
        )
    if not (math.isfinite(w_cornucopia) and math.isfinite(w_risky)):
        raise DomainError("welfare values must be finite")
    log_ev = -(w_cornucopia - w_risky) * prefs.rho
    ev = math.exp(log_ev)
    return EvResult(ev=ev, log_ev=log_ev, wtp_fraction=1.0 - ev)


# Each panel letter maps to the values it reads and to the welfare of its
# risky scenario, given the spec, the cornucopia welfare w_a and those values:
#   a  certain extinction at T              W_trunc(T)
#   b  immediate doom with probability p3   (1-p3) W_cornucopia
#   c  the full lottery (p3, p4, T)         lottery value
#   d  mounting hazard with slope epsilon   W_mounting(epsilon), the erfcx closed form
PANELS = {
    "a": (("T",), lambda spec, w_a, *, T: _closed(spec, spec.g_ai, T)),
    "b": (("p3",), lambda spec, w_a, *, p3: lottery_value(w_a, 0.0, p3, 0.0)),
    "c": (("p3", "p4", "T"), lambda spec, w_a, *, p3, p4, T: lottery_value(
        w_a, _closed(spec, spec.g_ai, T), p3, p4)),
    "d": (("epsilon",), lambda spec, w_a, *, epsilon: _mounting_closed_form(spec, epsilon)),
}


def ev_panel(
    spec: ScenarioSpec,
    panel: Literal["a", "b", "c", "d"],
    *,
    T: Optional[float] = None,
    p3: Optional[float] = None,
    p4: Optional[float] = None,
    epsilon: Optional[float] = None,
) -> EvResult:
    """EV of one PANELS scenario against the cornucopia on the same growth path.

    Values the panel does not read are ignored; a missing one it reads is a
    domain error.
    """
    if panel not in PANELS:
        raise DomainError(f"unknown panel {panel!r}")
    reads, risky = PANELS[panel]
    given = {"T": T, "p3": p3, "p4": p4, "epsilon": epsilon}
    values = {name: given[name] for name in reads}
    if None in values.values():
        raise DomainError(f"panel {panel} needs {', '.join(reads)}")
    w_a = _closed(spec, spec.g_ai)
    return equivalent_variation(w_a, risky(spec, w_a, **values), spec.prefs)


def wtp_per_period(ev: EvResult, consumption_level: float) -> float:
    """Willingness to pay per period: (1 - EV) times current consumption."""
    if not consumption_level > 0.0:
        raise DomainError(
            f"consumption_level must be > 0, got {consumption_level!r}"
        )
    return ev.wtp_fraction * consumption_level
