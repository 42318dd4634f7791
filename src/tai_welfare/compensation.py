"""Equivalent variation and willingness to pay for removing extinction risk.

Under log utility, scaling every period's consumption by a factor k shifts
lifetime welfare by exactly log(k) / rho, so the consumption factor that
makes a safe cornucopia exactly as good as a risky scenario is

    EV = exp(-rho * loss),   loss = W_cornucopia - W_risky,

and 1 - EV is the fraction of consumption a planner would pay, every period
forever, to trade the risky world for the safe one.  That identity holds only
at theta = 1, so EV is defined here for log utility only.  Each panel states
its loss in closed form and subtracts no two welfare values: panels a-c
through the tail identity W_cornucopia - W_trunc(T) = e^(-rho T) W_inf(log c0
+ g T), panel d through the moment identity of welfare._mounting_loss.  So
no EV exceeds 1.  ev_panel(spec, panel, **values) reads what PANELS names.

EV values here range down to ~1e-90, so results carry log_ev alongside ev
and comparisons should happen on the log scale.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .taxonomy import _check_probability
from .welfare import ScenarioSpec, _closed, _mounting_loss, _tail


class EvResult(NamedTuple):
    """Consumption-equivalent comparison of a safe and a risky scenario."""

    ev: float
    log_ev: float
    wtp_fraction: float


# Each panel letter maps to the values it reads and to its welfare loss
# W_cornucopia - W_risky, given the spec and those values in that order;
# tail(T) = W_cornucopia - W_trunc(T), the tail identity:
#   a  certain extinction at T              tail(T)
#   b  immediate doom with probability p3   p3 W_cornucopia
#   c  the full lottery (p3, p4, T)         p3 W_cornucopia + (1-p3) p4 tail(T)
#   d  mounting hazard with slope epsilon   the moment identity of welfare._mounting_loss
PANELS = {
    "a": (("T",), lambda spec, T: _tail(spec, T)),
    "b": (("p3",), lambda spec, p3: p3 * _closed(spec, spec.g_ai)),
    "c": (("p3", "p4", "T"), lambda spec, p3, p4, T:
          p3 * _closed(spec, spec.g_ai) + (1.0 - p3) * p4 * _tail(spec, T)),
    "d": (("epsilon",), lambda spec, epsilon: _mounting_loss(spec, epsilon)),
}


def ev_panel(spec: ScenarioSpec, panel: str, **values: float) -> EvResult:
    """EV of one PANELS scenario against the cornucopia on the same growth path.

    log EV = -rho * loss, so no panel exceeds EV = 1.  Values the panel
    does not read are ignored; a missing one it reads is a domain error.
    """
    if spec.prefs.theta_rra != 1.0:
        raise DomainError(
            "equivalent variation is defined here for theta = 1 only, "
            f"got theta = {spec.prefs.theta_rra!r}"
        )
    if panel not in PANELS:
        raise DomainError(f"unknown panel {panel!r}")
    reads, loss = PANELS[panel]
    args = [values.get(name) for name in reads]
    if None in args:
        raise DomainError(f"panel {panel} needs {', '.join(reads)}")
    for name in reads:
        if name in ("p3", "p4"):
            _check_probability(name, values[name])
    log_ev = -spec.prefs.rho * loss(spec, *args)
    if not math.isfinite(log_ev):
        raise DomainError("welfare values must be finite")
    return EvResult(math.exp(log_ev), log_ev, -math.expm1(log_ev))


def wtp_per_period(ev: EvResult, consumption_level: float) -> float:
    """Willingness to pay per period: (1 - EV) times current consumption."""
    if not 0.0 < consumption_level < math.inf:
        raise DomainError(
            f"consumption_level must be finite and > 0, got {consumption_level!r}"
        )
    return ev.wtp_fraction * consumption_level
