"""Scenario welfare integrals: closed forms plus an adaptive-quadrature route.

All scenarios value a consumption path C(t) = c0 e^(g t) through isoelastic
flow utility u, discounted at the rate rho and weighted by survival:

    W = int e^(-rho t) u(C(t)) M(t) dt.

Closed forms exist for the no-risk and fixed-horizon cases.  Writing
q = 1 - theta and lam = log c0, the infinite-horizon integral is

    W = [rho * expm1(q lam) / q + g] / (rho * (rho - q g)),  rho > max(0, q g),

whose q -> 0 limit is the log-utility value lam / rho + g / rho^2.  The
grouping above is cancellation-free for all q, so theta arbitrarily close to
1 is safe; only q = 0 takes the explicit limit branch.

The mounting-risk scenario multiplies the integrand by the Gaussian survival
exp(-eps (lam t + g t^2 / 2)).  It too has an exact form in erfcx
(_mounting_closed_form), which welfare_mounting and the epsilon solve read;
EV panel d reads its loss against the cornucopia (_mounting_loss), stated
with no difference.  The adaptive quadrature of the same integral
(_mounting_quadrature) only polishes the epsilon root, while the t4 golden
holds its rounding in one cell.

Welfare conventions: consumption is normalized to subsistence (c0 >= 1), flow
utility is nonnegative, and death contributes exactly zero, so every welfare
value here is nonnegative and scenario comparisons are meaningful without
further normalization.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Literal, NamedTuple

from .config import DEFAULT_G_BASELINE
from .errors import DivergenceError, DomainError
from .preferences import Preferences
from .special import gauss_laplace, gauss_laplace_shift
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


class ScenarioSpec(NamedTuple("ScenarioSpec", [
        ("c0", float), ("g_ai", float), ("prefs", Preferences), ("g_baseline", float),
        ("log_c0", float)])):
    """Everything a welfare evaluation needs.

    c0 is baseline consumption relative to subsistence, g_baseline the growth
    rate without TAI, g_ai the growth rate under an AI-run economy.  log_c0 is
    a derived field, never passed: __new__ sets it to log(c0) once, for the
    closed forms that read it, most more than once.  _replace, copy and pickle
    rebuild a spec from its four inputs, so log_c0 always follows c0.
    """

    __slots__ = ()

    def __new__(cls, c0: float, g_ai: float, prefs: Preferences,
                g_baseline: float = DEFAULT_G_BASELINE) -> ScenarioSpec:
        if not 1.0 <= c0 < math.inf:
            raise DomainError(f"c0 must be finite and >= 1, got {c0!r}")
        if not 0.0 <= g_ai < math.inf:
            raise DomainError(f"g_ai must be finite and >= 0, got {g_ai!r}")
        if not 0.0 <= g_baseline < math.inf:
            raise DomainError(f"g_baseline must be finite and >= 0, got {g_baseline!r}")
        return tuple.__new__(cls, (c0, g_ai, prefs, g_baseline, math.log(c0)))

    _make = classmethod(lambda cls, values: cls(*tuple(values)[:4]))

    def __getnewargs__(self) -> tuple:
        return self[:4]


class WelfareResult(NamedTuple):
    value: float
    method: Literal["closed_form", "quadrature"]
    abs_error_estimate: float = 0.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _exp_decay_integral(rate: float, horizon: float) -> float:
    # int_0^T e^(-rate t) dt, valid for any sign of rate; T at rate = 0
    if rate == 0.0:
        return horizon
    return -math.expm1(-rate * horizon) / rate


_T_SERIES_MAX = 0.05  # below this rate * T the closed form of int t e^(-rate t) cancels


def _t_exp_decay_integral(rate: float, horizon: float, e_rate: float) -> float:
    # int_0^T t e^(-rate t) dt, given e_rate = int_0^T e^(-rate t) dt; T^2 / 2 at rate = 0
    x = rate * horizon
    if abs(x) >= _T_SERIES_MAX:
        return (e_rate - horizon * math.exp(-x)) / rate
    # T^2 sum_{k>=2} (k-1) (-x)^(k-2) / k!; the terms past k = 11 are below 1e-18
    term = total = 0.5
    for k in range(2, 11):
        term *= -x * k / (k * k - 1)
        total += term
    return horizon * horizon * total


def discounted_crra_closed_form(
    log_c0: float, g: float, rate: float, theta: float, horizon: float | None = None
) -> float:
    """int_0^H e^(-rate t) u(c0 e^(g t)) dt with u isoelastic of index theta.

    H = None means the infinite horizon, which requires rate > 0 and
    rate > (1 - theta) g; a finite horizon converges for any rates.  For
    |1 - theta| (log c0 + g H) < 1e-3 and rates > 0, the finite form is summed
    so that its difference over 1 - theta does not cancel.
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
    if not 0.0 <= horizon < math.inf:
        raise DomainError(f"horizon must be finite and >= 0, got {horizon!r}")
    e_rho = _exp_decay_integral(rate, horizon)
    if q == 0.0:
        return log_c0 * e_rho + g * _t_exp_decay_integral(rate, horizon, e_rho)
    if abs(q * (log_c0 + g * horizon)) < 1e-3 and min(a, rate) > 0.0:
        # (E_a - E_rate)/q = g (rate^2 M1 - x e^-x (expm1(y)/y - 1))/(a rate), M1 = int t e^-rate t
        x, y = rate * horizon, q * g * horizon
        r1 = 0.5 * y * (1.0 + y / 3.0 * (1.0 + 0.25 * y * (1.0 + 0.2 * y * (1.0 + y / 6.0))))
        n = rate * rate * _t_exp_decay_integral(rate, horizon, e_rho) - x * math.exp(-x) * r1
        return math.expm1(q * log_c0) / q * _exp_decay_integral(a, horizon) + g * n / (a * rate)
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


def _closed(spec: ScenarioSpec, g: float, horizon: float | None = None) -> float:
    return discounted_crra_closed_form(
        spec.log_c0, g, spec.prefs.rho, spec.prefs.theta_rra, horizon
    )


def _tail(spec: ScenarioSpec, horizon: float) -> float:
    # W_cornucopia - W_trunc(horizon) = e^(-rho T) W_inf(log c0 + g T), with no subtraction
    if not 0.0 <= horizon < math.inf:
        raise DomainError(f"horizon must be finite and >= 0, got {horizon!r}")
    rho, g = spec.prefs.rho, spec.g_ai
    return math.exp(-rho * horizon) * discounted_crra_closed_form(
        spec.log_c0 + g * horizon, g, rho, spec.prefs.theta_rra)


def welfare_no_takeover(spec: ScenarioSpec) -> WelfareResult:
    """Welfare of the no-takeover world: growth g_baseline, no extinction."""
    return WelfareResult(_closed(spec, spec.g_baseline), "closed_form")


def welfare_cornucopia(spec: ScenarioSpec) -> WelfareResult:
    """Welfare under aligned, corrigible TAI: growth g_ai, no extinction."""
    return WelfareResult(_closed(spec, spec.g_ai), "closed_form")


def welfare_truncated(spec: ScenarioSpec, horizon: float) -> WelfareResult:
    """Welfare with certain extinction at the given horizon (growth g_ai)."""
    return WelfareResult(_closed(spec, spec.g_ai, horizon), "closed_form")


def _mounting_closed_form(spec: ScenarioSpec, epsilon: float) -> float:
    """Exact mounting-risk welfare, in erfcx; numpy-free.

    With lam = log c0, g = g_ai, q = 1 - theta, b = eps g, a0 = rho + eps lam
    and the Gaussian-Laplace moments (G, H) of special.gauss_laplace,

        W = [e^(q lam) G(a0 - q g, b) - G(a0, b)] / q,   q != 0,
        W = lam G(a0, b) + g H(a0, b),                   q = 0,

    where H = (1 - a0 G) / b comes from its series wherever that difference
    cancels, and for |q| < 1e-5 (and |q| g < 1e-3 a0) the bracket is summed
    as expm1(q lam) G0 + e^(q lam) gauss_laplace_shift(a0, b, q g).  Agrees
    with 40-digit mpmath to 1e-10 relative.  eps = 0 is the cornucopia value;
    a non-finite value raises OverflowError.
    """
    if not 0.0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if epsilon == 0.0:
        return _closed(spec, spec.g_ai)
    lam, g = spec.log_c0, spec.g_ai
    q = 1.0 - spec.prefs.theta_rra
    b, a0 = epsilon * g, spec.prefs.rho + epsilon * lam
    if b == 0.0:  # g = 0, or an underflowed eps g: the weight is e^(-a0 t)
        return discounted_crra_closed_form(lam, g, a0, spec.prefs.theta_rra)
    g0, h0 = gauss_laplace(a0, b)
    if q == 0.0:
        w = lam * g0 + g * h0
    elif abs(q) < 1e-5 and abs(q * g) < 1e-3 * a0:
        w = (math.expm1(q * lam) * g0 + math.exp(q * lam) * gauss_laplace_shift(a0, b, q * g)) / q
    else:
        g1, _ = gauss_laplace(a0 - q * g, b)
        w = (math.exp(q * lam) * g1 - g0) / q
    if not math.isfinite(w):
        raise OverflowError(f"mounting-risk welfare {w!r} at eps={epsilon!r}")
    return w


def _mounting_loss(spec: ScenarioSpec, epsilon: float) -> float:
    """W_cornucopia - W_mounting(eps) at theta = 1, as a sum of positive terms.

    With the moments G, H, K of t^0, t^1, t^2 under exp(-a0 t - b t^2 / 2),
    integration by parts gives a0 G + b H = 1 and a0 H + b K = G, so

        loss = lam [eps lam / (rho a0) + b H / a0]
             + g [eps lam (a0 + rho) / (rho^2 a0^2) + b (H / a0^2 + K / a0)],

    where the difference of the two welfare values would cancel to noise for
    small eps.  K is summed from sum (-b/2)^n (2n+2)! / (n! a0^(2n+3)) for
    b < 1e-2 a0^2, where (G - a0 H) / b cancels to worse than 1e-11.  eps = 0
    gives 0; bad and overflowing inputs raise as in _mounting_closed_form.
    """
    if not 0.0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if epsilon == 0.0:
        return 0.0
    lam, g, rho = spec.log_c0, spec.g_ai, spec.prefs.rho
    b, a0, e_lam = epsilon * g, rho + epsilon * lam, epsilon * lam
    loss = lam * e_lam / (rho * a0) + g * e_lam * (a0 + rho) / (rho * rho * a0 * a0)
    if b != 0.0:  # g = 0 or an underflowed eps g leaves only the e^(-a0 t) terms
        g0, h0 = gauss_laplace(a0, b)
        if b < 1e-2 * a0 * a0:
            term = k0 = 2.0 / a0**3
            for n in range(40):  # terms shrink to n = 48 and pass 1e-17 k0 by n = 35
                term *= -b * (n + 2) * (2 * n + 3) / ((n + 1) * a0 * a0)
                k0 += term
        else:
            k0 = (g0 - a0 * h0) / b
        loss += b * (lam * h0 / a0 + g * (h0 / (a0 * a0) + k0 / a0))
    if not math.isfinite(loss):
        raise OverflowError(f"mounting-risk welfare loss {loss!r} at eps={epsilon!r}")
    return loss


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


def welfare_mounting(spec: ScenarioSpec, epsilon: float) -> WelfareResult:
    """Welfare under a hazard rising with log consumption on the g_ai path.

    Survival is exp(-eps (log(c0) t + g t^2 / 2)); the value is the exact
    erfcx form _mounting_closed_form, and eps = 0 the cornucopia value.
    """
    return WelfareResult(_mounting_closed_form(spec, epsilon), "closed_form")


def _mounting_quadrature(spec: ScenarioSpec, epsilon: float) -> float:
    # welfare_mounting's integral, eps > 0, by adaptive quadrature at 1e-10: only
    # the epsilon polish reads it, as the t4 golden holds its root in one cell.
    # An overflowing integrand raises QuadratureError on its panel, so numpy's
    # overflow warnings would only reach stderr
    import numpy as np

    from .quadrature import integrate_transformed

    lam, g = spec.log_c0, spec.g_ai
    flow = _flow_from_log(lam, g, spec.prefs.theta_rra)
    neg_eps, half_g = -epsilon, 0.5 * g

    def excess(t: np.ndarray) -> np.ndarray:
        return np.exp(neg_eps * (lam * t + half_g * t * t))

    with np.errstate(over="ignore", invalid="ignore"):
        return integrate_transformed(flow, excess, spec.prefs.rho).value


def integrate_discounted(
    flow: Callable[[np.ndarray], np.ndarray],
    weight: Callable[[np.ndarray], np.ndarray],
    rate: float,
    *,
    horizon: float | None = None,
) -> WelfareResult:
    """Shared kernel: int flow(t) * weight(t) dt with weight ~ e^(-rate t).

    weight is the full discount-times-survival factor.  With no horizon the
    integral runs over [0, inf) through the x = 1 - e^(-rate t) transform;
    with a horizon over [0, horizon] directly, both to 1e-10.  Non-convergence
    raises QuadratureError rather than returning a silently wrong value.
    """
    import numpy as np

    from .quadrature import integrate_finite, integrate_transformed

    if horizon is not None:
        res = integrate_finite(lambda t: flow(t) * weight(t), 0.0, horizon)
        return WelfareResult(res.value, "quadrature", res.abs_error_estimate)

    def excess(t: np.ndarray) -> np.ndarray:
        return weight(t) * np.exp(rate * t)

    res = integrate_transformed(flow, excess, rate)
    return WelfareResult(res.value, "quadrature", res.abs_error_estimate)
