"""Planner preferences: the discount rate and the curvature of flow utility.

Consumption is normalized so that the subsistence threshold sits at 1: flow
utility is zero at subsistence, positive above it, and death contributes
exactly zero.  theta_rra is the curvature of that flow utility; the utility
itself is evaluated inside the welfare integrals (welfare._flow_from_log).
rho is the one exponential rate at which every welfare integral discounts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["Preferences"]


@dataclass(frozen=True)
class Preferences:
    """Time preference and curvature parameters of the planner; no defaults.

    rho: pure rate of time preference per year
    theta_rra: coefficient of relative risk aversion (1 = log utility)
    """

    rho: float
    theta_rra: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < math.inf:
            raise DomainError(f"rho must be finite and >= 0, got {self.rho!r}")
        if not 0.0 <= self.theta_rra < math.inf:
            raise DomainError(
                f"theta_rra must be finite and >= 0, got {self.theta_rra!r}"
            )
