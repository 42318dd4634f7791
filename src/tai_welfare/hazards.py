"""Extinction-hazard models, survival curves, and expected lifespan.

A hazard model supplies the instantaneous extinction rate m(t) >= 0 and the
survival probability M(t) = exp(-int_0^t m).  Expected lifespan is
ET = int_0^inf M(t) dt, possibly infinite.

The mounting-risk model ties the hazard to log consumption, m(t) = eps *
log C(t).  On an exponential path C(t) = c0 e^(g t) the cumulative hazard is
the exact quadratic eps * (log(c0) t + g t^2 / 2), survival is a Gaussian
tail, and expected lifespan has the closed form

    ET = sqrt(pi / (2 eps g)) * erfcx(sqrt(eps) log(c0) / sqrt(2 g)),

which reduces to sqrt(pi / (2 eps g)) at c0 = 1.  The erfcx form is the
cancellation-free way to evaluate the c0 > 1 factor exp(z^2) (1 - erf(z)).

One-off extinction at a known date is represented as a step in M(t), not as a
finite rate: m(t) = 0 before the date and M drops to zero at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import DomainError
from .special import erfcx

__all__ = [
    "ExponentialPath",
    "CrashPath",
    "ConsumptionPath",
    "ZeroHazard",
    "ConstantHazard",
    "OneOffHazard",
    "MountingLogHazard",
    "SafetyGoodsHazard",
    "HazardModel",
    "hazard_rate",
    "cumulative_hazard",
    "survival",
    "expected_lifespan",
]


# ---------------------------------------------------------------------------
# consumption paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialPath:
    """C(t) = c0 * exp(g t) with c0 >= 1."""

    c0: float = 1.0
    growth: float = 0.0

    def __post_init__(self) -> None:
        if not self.c0 >= 1.0:
            raise DomainError(f"c0 must be >= 1, got {self.c0!r}")

    def log_c(self, t: float) -> float:
        return math.log(self.c0) + self.growth * t

    def consumption(self, t: float) -> float:
        return math.exp(self.log_c(t))

    def cumulative_log_c(self, t: float) -> float:
        # int_0^t log C(s) ds = log(c0) t + g t^2 / 2
        return math.log(self.c0) * t + 0.5 * self.growth * t * t


@dataclass(frozen=True)
class CrashPath:
    """Growth at g_pre until t_stop, a one-time crash, then growth at g_post.

    The post-crash level is crash_factor * C(t_stop-), clamped at the
    subsistence level 1.  Used for the scenario where the automated economy
    stops working and humanity restarts from whatever is left.
    """

    c0: float
    g_pre: float
    t_stop: float
    crash_factor: float
    g_post: float

    def __post_init__(self) -> None:
        if not self.c0 >= 1.0:
            raise DomainError(f"c0 must be >= 1, got {self.c0!r}")
        if self.t_stop < 0.0:
            raise DomainError(f"t_stop must be >= 0, got {self.t_stop!r}")
        if not 0.0 < self.crash_factor <= 1.0:
            raise DomainError(
                f"crash_factor must lie in (0, 1], got {self.crash_factor!r}"
            )

    @property
    def crash_clamped(self) -> bool:
        """True when the crash would push consumption below subsistence."""
        raw = math.log(self.c0) + self.g_pre * self.t_stop + math.log(self.crash_factor)
        return raw < 0.0

    def _log_restart(self) -> float:
        raw = math.log(self.c0) + self.g_pre * self.t_stop + math.log(self.crash_factor)
        return max(raw, 0.0)

    def log_c(self, t: float) -> float:
        if t < self.t_stop:
            return math.log(self.c0) + self.g_pre * t
        return self._log_restart() + self.g_post * (t - self.t_stop)

    def consumption(self, t: float) -> float:
        return math.exp(self.log_c(t))

    def cumulative_log_c(self, t: float) -> float:
        lam = math.log(self.c0)
        if t <= self.t_stop:
            return lam * t + 0.5 * self.g_pre * t * t
        head = lam * self.t_stop + 0.5 * self.g_pre * self.t_stop**2
        dt = t - self.t_stop
        return head + self._log_restart() * dt + 0.5 * self.g_post * dt * dt


ConsumptionPath = Union[ExponentialPath, CrashPath]


# ---------------------------------------------------------------------------
# hazard models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroHazard:
    """No extinction risk: M(t) = 1 forever."""


@dataclass(frozen=True)
class ConstantHazard:
    """Constant rate m, e.g. background risk unrelated to AI; ET = 1/m."""

    m: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m < math.inf:
            raise DomainError(f"m must be finite and >= 0, got {self.m!r}")


@dataclass(frozen=True)
class OneOffHazard:
    """Certain extinction at a known date: M = 1 before t_ext, 0 from it on."""

    t_ext: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_ext < math.inf:
            raise DomainError(f"t_ext must be finite and >= 0, got {self.t_ext!r}")


@dataclass(frozen=True)
class MountingLogHazard:
    """Hazard proportional to log consumption: m(t) = eps * log C(t).

    Valid only while C(t) >= 1, which keeps the rate nonnegative.
    """

    epsilon: float
    path: ConsumptionPath

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < math.inf:
            raise DomainError(
                f"epsilon must be finite and >= 0, got {self.epsilon!r}"
            )


@dataclass(frozen=True)
class SafetyGoodsHazard:
    """Hazard m(t) = m_bar * C(t)^eps * H(t)^(-beta) with caller-supplied paths.

    C and H are callables of time.  This is an evaluator only: no optimal
    safety-goods path is computed here, and the cumulative hazard falls back
    to numeric integration.
    """

    m_bar: float
    epsilon: float
    beta: float
    consumption: Callable[[float], float]
    safety: Callable[[float], float]

    def __post_init__(self) -> None:
        if self.m_bar < 0.0:
            raise DomainError(f"m_bar must be >= 0, got {self.m_bar!r}")


HazardModel = Union[
    ZeroHazard, ConstantHazard, OneOffHazard, MountingLogHazard, SafetyGoodsHazard
]


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def hazard_rate(model: HazardModel, t: float) -> float:
    """Instantaneous extinction rate m(t) >= 0 at time t >= 0.

    The one-off model returns 0 for t < t_ext; its step lives in the survival
    function, not in a finite rate.
    """
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if isinstance(model, ZeroHazard):
        return 0.0
    if isinstance(model, ConstantHazard):
        return model.m
    if isinstance(model, OneOffHazard):
        return 0.0
    if isinstance(model, MountingLogHazard):
        log_c = model.path.log_c(t)
        if log_c < 0.0:
            raise DomainError(
                f"mounting hazard needs C(t) >= 1; log C({t!r}) = {log_c!r}"
            )
        return model.epsilon * log_c
    if isinstance(model, SafetyGoodsHazard):
        c = model.consumption(t)
        h = model.safety(t)
        if c < 0.0:
            raise DomainError(f"consumption path negative at t={t!r}")
        if h <= 0.0 and model.beta > 0.0:
            raise DomainError(
                f"safety path must be > 0 when beta > 0; H({t!r}) = {h!r}"
            )
        return model.m_bar * c**model.epsilon * h ** (-model.beta)
    raise TypeError(f"unknown hazard model {model!r}")


def cumulative_hazard(model: HazardModel, t: float) -> float:
    """Integral of m over [0, t]; +inf past a one-off extinction date."""
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if isinstance(model, ZeroHazard):
        return 0.0
    if isinstance(model, ConstantHazard):
        return model.m * t
    if isinstance(model, OneOffHazard):
        return 0.0 if t < model.t_ext else math.inf
    if isinstance(model, MountingLogHazard):
        return model.epsilon * model.path.cumulative_log_c(t)
    if isinstance(model, SafetyGoodsHazard):
        from .quadrature import integrate_finite

        if t == 0.0:
            return 0.0
        rate_vec = _vectorize(lambda s: hazard_rate(model, s))
        result = integrate_finite(rate_vec, 0.0, t, abs_tol=1e-12, rel_tol=1e-10)
        return result.value
    raise TypeError(f"unknown hazard model {model!r}")


def _vectorize(f: Callable[[float], float]):
    import numpy as np

    return lambda xs: np.array([f(float(x)) for x in np.atleast_1d(xs)])


def survival(model: HazardModel, t: float) -> float:
    """Unconditional survival probability M(t) = exp(-cumulative hazard)."""
    h = cumulative_hazard(model, t)
    return math.exp(-h) if h != math.inf else 0.0


def _mounting_expected_lifespan(model: MountingLogHazard) -> float:
    eps = model.epsilon
    path = model.path
    if not isinstance(path, ExponentialPath):
        return _expected_lifespan_by_quadrature(model)
    lam = math.log(path.c0)
    g = path.growth
    if eps == 0.0:
        return math.inf
    if g < 0.0:
        raise DomainError("mounting hazard with negative growth is not supported")
    if g == 0.0:
        # constant hazard eps * log c0
        return math.inf if lam == 0.0 else 1.0 / (eps * lam)
    # ET = sqrt(pi / (2 eps g)) * erfcx(sqrt(eps) lam / sqrt(2 g))
    z = math.sqrt(eps) * lam / math.sqrt(2.0 * g)
    return math.sqrt(math.pi / (2.0 * eps * g)) * erfcx(z)


def _expected_lifespan_by_quadrature(model: HazardModel) -> float:
    # generic fallback: integrate M(t) out to where it is negligible
    from .quadrature import integrate_finite

    upper = 1.0
    while survival(model, upper) > 1e-16:
        upper *= 2.0
        if upper > 1e12:
            return math.inf
    surv_vec = _vectorize(lambda s: survival(model, s))
    result = integrate_finite(surv_vec, 0.0, upper, abs_tol=1e-10, rel_tol=1e-9)
    return result.value


def expected_lifespan(model: HazardModel) -> float:
    """Mean time to extinction ET = int_0^inf M(t) dt; +inf when M(t) -/-> 0."""
    if isinstance(model, ZeroHazard):
        return math.inf
    if isinstance(model, ConstantHazard):
        return math.inf if model.m == 0.0 else 1.0 / model.m
    if isinstance(model, OneOffHazard):
        return model.t_ext
    if isinstance(model, MountingLogHazard):
        return _mounting_expected_lifespan(model)
    if isinstance(model, SafetyGoodsHazard):
        return _expected_lifespan_by_quadrature(model)
    raise TypeError(f"unknown hazard model {model!r}")
