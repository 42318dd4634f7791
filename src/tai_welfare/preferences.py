"""Planner preferences: the discount rate and the curvature of flow utility.

Consumption is normalized so that the subsistence threshold sits at 1: flow
utility is zero at subsistence, positive above it, and death contributes
exactly zero.  theta_rra is the curvature of that flow utility; the utility
itself is evaluated by the welfare module: in closed form by
discounted_crra_closed_form, and pointwise by the quadrature's integrand.
rho is the one exponential rate at which every welfare integral discounts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError


class Preferences(NamedTuple("Preferences", [("rho", float), ("theta_rra", float)])):
    """Time preference and curvature parameters of the planner; no defaults.

    rho: pure rate of time preference per year
    theta_rra: coefficient of relative risk aversion (1 = log utility)
    """

    __slots__ = ()

    def __new__(cls, rho: float, theta_rra: float) -> Preferences:
        if not 0.0 <= rho < math.inf:
            raise DomainError(f"rho must be finite and >= 0, got {rho!r}")
        if not 0.0 <= theta_rra < math.inf:
            raise DomainError(f"theta_rra must be finite and >= 0, got {theta_rra!r}")
        return tuple.__new__(cls, (rho, theta_rra))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too
