"""Planner preferences and the effective discount rate.

Consumption is normalized so that the subsistence threshold sits at 1: flow
utility is zero at subsistence, positive above it, and death contributes
exactly zero.  theta_rra is the curvature of that flow utility; the utility
itself is evaluated inside the welfare integrals (welfare._flow_from_log).

Population growth n with size elasticity nu, and a constant background hazard
m, both act through a single effective discount rate rho - nu * n + m; the
welfare engine consumes only that combined rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["Preferences", "effective_discount"]


@dataclass(frozen=True)
class Preferences:
    """Time preference and curvature parameters of the planner.

    rho: pure rate of time preference per year
    theta_rra: coefficient of relative risk aversion (1 = log utility)
    nu: population-size elasticity in [0, 1] (0 = average, 1 = total welfare)
    n_pop_growth: population growth rate per year
    m_background: constant non-AI extinction hazard per year
    """

    rho: float = 0.03
    theta_rra: float = 1.0
    nu: float = 0.0
    n_pop_growth: float = 0.0
    m_background: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < math.inf:
            raise DomainError(f"rho must be finite and >= 0, got {self.rho!r}")
        if not 0.0 <= self.theta_rra < math.inf:
            raise DomainError(
                f"theta_rra must be finite and >= 0, got {self.theta_rra!r}"
            )
        if not 0.0 <= self.nu <= 1.0:
            raise DomainError(f"nu must lie in [0, 1], got {self.nu!r}")
        if not -math.inf < self.n_pop_growth < math.inf:
            raise DomainError(f"n_pop_growth must be finite, got {self.n_pop_growth!r}")
        if not 0.0 <= self.m_background < math.inf:
            raise DomainError(
                f"m_background must be finite and >= 0, got {self.m_background!r}"
            )


def effective_discount(prefs: Preferences) -> float:
    """Single exponential rate rho - nu * n + m used by the welfare engine."""
    return prefs.rho - prefs.nu * prefs.n_pop_growth + prefs.m_background
