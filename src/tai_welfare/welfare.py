"""Scenario welfare integrals: closed forms plus an adaptive-quadrature route.

All scenarios value a consumption path C(t) = c0 e^(g t) through isoelastic
flow utility u, discounted at the effective rate r and weighted by survival:

    W = int e^(-r t) u(C(t)) M(t) dt.

Closed forms exist for the no-risk and fixed-horizon cases.  Writing
q = 1 - theta and lam = log c0, the infinite-horizon integral is

    W = [r * expm1(q lam) / q + g] / (r * (r - q g)),      r > max(0, q g),

whose q -> 0 limit is the log-utility value lam / r + g / r^2.  The grouping
above is cancellation-free for all q, so theta arbitrarily close to 1 is
safe; only q = 0 takes the explicit limit branch.

The mounting-risk scenario multiplies the integrand by the Gaussian survival
exp(-eps (lam t + g t^2 / 2)) and is evaluated by adaptive quadrature on the
discount-transformed axis.

Welfare conventions: consumption is normalized to subsistence (c0 >= 1), flow
utility is nonnegative, and death contributes exactly zero, so every welfare
value here is nonnegative and scenario comparisons are meaningful without
further normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Literal

from .errors import DivergenceError, DomainError
from .preferences import Preferences, effective_discount
from .taxonomy import _check_probability

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ScenarioSpec",
    "WelfareResult",
    "welfare_no_takeover",
    "welfare_cornucopia",
    "welfare_truncated",
    "welfare_mounting",
    "lottery_value",
    "integrate_discounted",
]

DEFAULT_G_BASELINE = 0.0175
DEFAULT_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a welfare evaluation needs.

    c0 is baseline consumption relative to subsistence, g_baseline the growth
    rate without TAI, g_ai the growth rate under an AI-run economy.
    """

    c0: float
    g_ai: float
    prefs: Preferences
    g_baseline: float = DEFAULT_G_BASELINE

    def __post_init__(self) -> None:
        if not 1.0 <= self.c0 < math.inf:
            raise DomainError(f"c0 must be finite and >= 1, got {self.c0!r}")
        if not 0.0 <= self.g_ai < math.inf:
            raise DomainError(f"g_ai must be finite and >= 0, got {self.g_ai!r}")
        if not 0.0 <= self.g_baseline < math.inf:
            raise DomainError(
                f"g_baseline must be finite and >= 0, got {self.g_baseline!r}"
            )

    @property
    def log_c0(self) -> float:
        return math.log(self.c0)


@dataclass(frozen=True)
class WelfareResult:
    value: float
    method: Literal["closed_form", "quadrature"]
    abs_error_estimate: float = 0.0
    truncation_time: float | None = None


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _exp_decay_integral(rate: float, horizon: float) -> float:
    # int_0^T e^(-rate t) dt, valid for any sign of rate; T at rate = 0
    if rate == 0.0:
        return horizon
    return -math.expm1(-rate * horizon) / rate


def discounted_crra_closed_form(
    log_c0: float, g: float, rate: float, theta: float, horizon: float | None = None
) -> float:
    """int_0^H e^(-rate t) u(c0 e^(g t)) dt with u isoelastic of index theta.

    H = None means the infinite horizon, which requires rate > 0 and
    rate > (1 - theta) g; a finite horizon converges for any rates.
    """
    q = 1.0 - theta
    a = rate - q * g
    if horizon is None:
        if rate <= 0.0 or a <= 0.0:
            raise DivergenceError(
                "infinite-horizon welfare diverges: need rate > 0 and "
                f"rate > (1-theta)*g, got rate={rate!r}, (1-theta)*g={q * g!r}"
            )
        if q == 0.0:
            return log_c0 / rate + g / rate**2
        return (rate * math.expm1(q * log_c0) / q + g) / (rate * a)
    if horizon < 0.0:
        raise DomainError(f"horizon must be >= 0, got {horizon!r}")
    e_rho = _exp_decay_integral(rate, horizon)
    if q == 0.0:
        if rate == 0.0:
            return log_c0 * horizon + 0.5 * g * horizon**2
        # int t e^(-rate t) dt = (E - T e^(-rate T)) / rate
        j = (e_rho - horizon * math.exp(-rate * horizon)) / rate
        return log_c0 * e_rho + g * j
    return (math.exp(q * log_c0) * _exp_decay_integral(a, horizon) - e_rho) / q


def lottery_value(w_a: float, w_b: float, p3: float, p4: float) -> float:
    """Takeover-lottery welfare (1-p3) (p4 W_b + (1-p4) W_a).

    Doom comes at once with probability p3; otherwise it comes at a delayed
    date with probability p4, where w_b is the welfare truncated at that date,
    and the cornucopia value w_a is kept with the remaining probability.
    """
    _check_probability("p3", p3)
    _check_probability("p4", p4)
    return (1.0 - p3) * (p4 * w_b + (1.0 - p4) * w_a)


def _closed(value: float) -> WelfareResult:
    return WelfareResult(value=value, method="closed_form")


def welfare_no_takeover(spec: ScenarioSpec) -> WelfareResult:
    """Welfare of the no-takeover world: growth g_baseline, no extinction."""
    r = effective_discount(spec.prefs)
    value = discounted_crra_closed_form(
        spec.log_c0, spec.g_baseline, r, spec.prefs.theta_rra
    )
    return _closed(value)


def welfare_cornucopia(spec: ScenarioSpec) -> WelfareResult:
    """Welfare under aligned, corrigible TAI: growth g_ai, no extinction."""
    r = effective_discount(spec.prefs)
    value = discounted_crra_closed_form(spec.log_c0, spec.g_ai, r, spec.prefs.theta_rra)
    return _closed(value)


def welfare_truncated(spec: ScenarioSpec, horizon: float) -> WelfareResult:
    """Welfare with certain extinction at the given horizon (growth g_ai)."""
    r = effective_discount(spec.prefs)
    value = discounted_crra_closed_form(
        spec.log_c0, spec.g_ai, r, spec.prefs.theta_rra, horizon=horizon
    )
    return _closed(value)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------
# numpy and the quadrature module are imported inside these functions, so that
# the closed forms, and every CLI command that uses only them, never load numpy.


def _flow_from_log(log_c0: float, g: float, theta: float) -> Callable[[np.ndarray], np.ndarray]:
    # isoelastic flow utility (C^(1-theta) - 1) / (1-theta) on log C = log c0 + g t
    import numpy as np

    q = 1.0 - theta

    def flow(t: np.ndarray) -> np.ndarray:
        log_c = log_c0 + g * np.asarray(t, dtype=float)
        if q == 0.0:
            return log_c
        if abs(q) < 1e-8:
            return log_c + 0.5 * q * log_c * log_c
        return np.expm1(q * log_c) / q

    return flow


def welfare_mounting(
    spec: ScenarioSpec,
    epsilon: float,
    *,
    tol: float = DEFAULT_QUAD_TOL,
) -> WelfareResult:
    """Welfare under a hazard rising with log consumption on the g_ai path.

    Survival is exp(-eps (log(c0) t + g t^2 / 2)); the integral has no
    elementary antiderivative for general theta and is evaluated by adaptive
    quadrature.  eps = 0 reproduces the cornucopia value through the same
    quadrature path.
    """
    import numpy as np

    from .quadrature import integrate_transformed

    if epsilon < 0.0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon!r}")
    r = effective_discount(spec.prefs)
    theta = spec.prefs.theta_rra
    q = 1.0 - theta
    if epsilon == 0.0 and (r <= 0.0 or r - q * spec.g_ai <= 0.0):
        raise DivergenceError("mounting-risk welfare with eps=0 diverges here")
    if r <= 0.0:
        raise DivergenceError("mounting-risk welfare needs a positive discount rate")
    lam, g = spec.log_c0, spec.g_ai
    flow = _flow_from_log(lam, g, theta)

    def excess(t: np.ndarray) -> np.ndarray:
        return np.exp(-epsilon * (lam * t + 0.5 * g * t * t))

    result = integrate_transformed(flow, excess, r, abs_tol=tol, rel_tol=tol)
    return WelfareResult(
        value=result.value,
        method="quadrature",
        abs_error_estimate=result.abs_error_estimate,
        truncation_time=result.truncation_time,
    )


def integrate_discounted(
    flow: Callable[[np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
    rate: float,
    *,
    tol: float = DEFAULT_QUAD_TOL,
    horizon: float | None = None,
) -> WelfareResult:
    """Shared kernel: int flow(t) * weight(t) dt with weight ~ e^(-rate t).

    weight is the full discount-times-survival factor.  With no horizon the
    integral runs over [0, inf) through the x = 1 - e^(-rate t) transform;
    with a horizon it runs over [0, horizon] directly.  Non-convergence
    raises QuadratureError rather than returning a silently wrong value.
    """
    import numpy as np

    from .quadrature import integrate_finite, integrate_transformed

    if horizon is not None:
        res = integrate_finite(
            lambda t: flow(t) * weight(t), 0.0, horizon, abs_tol=tol, rel_tol=tol
        )
        return WelfareResult(res.value, "quadrature", res.abs_error_estimate, horizon)

    def excess(t: np.ndarray) -> np.ndarray:
        return weight(t) * np.exp(rate * t)

    res = integrate_transformed(flow, excess, rate, abs_tol=tol, rel_tol=tol)
    return WelfareResult(
        res.value, "quadrature", res.abs_error_estimate, res.truncation_time
    )
