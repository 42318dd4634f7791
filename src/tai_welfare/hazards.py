"""Extinction-hazard models, survival curves, and expected lifespan.

A hazard model defines an extinction rate m(t) >= 0.  Each model evaluates
its own cumulative hazard, cumulative(t) = int_0^t m, and its own expected
lifespan, lifespan() = int_0^inf M(t) dt (possibly infinite), each in closed
form.  survival(model, t) = exp(-cumulative(t)) is the one function that all
four models share.

The mounting-risk model ties the hazard to log consumption, m(t) = eps *
log C(t), on an exponential path C(t) = c0 e^(g t).  Its cumulative hazard is
the exact quadratic eps * (log(c0) t + g t^2 / 2), survival is a Gaussian
tail, and expected lifespan is the Gaussian-Laplace moment

    ET = G(eps log(c0), eps g) = sqrt(pi / (2 eps g)) * erfcx(z),
    z = sqrt(eps) log(c0) / sqrt(2 g),

which reduces to sqrt(pi / (2 eps g)) at c0 = 1.  special.gauss_laplace
evaluates it through erfcx, the cancellation-free way to evaluate the c0 > 1
factor exp(z^2) (1 - erf(z)), and through its asymptotic series once z >= 50,
where ET tends to 1 / (eps log c0).

One-off extinction at a known date is represented as a step in M(t), not as a
finite rate: m(t) = 0 before the date and M drops to zero at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError
from .special import gauss_laplace

__all__ = [
    "ExponentialPath",
    "CrashPath",
    "ConsumptionPath",
    "ZeroHazard",
    "ConstantHazard",
    "OneOffHazard",
    "MountingLogHazard",
    "HazardModel",
    "survival",
    "expected_lifespan",
]


# ---------------------------------------------------------------------------
# consumption paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialPath:
    """C(t) = c0 * exp(growth t) with c0 >= 1; both fields are required."""

    c0: float
    growth: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.c0 < math.inf:
            raise DomainError(f"c0 must be finite and >= 1, got {self.c0!r}")
        if not -math.inf < self.growth < math.inf:
            raise DomainError(f"growth must be finite, got {self.growth!r}")


@dataclass(frozen=True)
class CrashPath:
    """Growth at g_pre until t_stop, a one-time crash, then growth at g_post.

    The post-crash level is crash_factor * C(t_stop-), clamped at the
    subsistence level 1.  Used for the scenario where the automated economy
    stops working and humanity restarts from whatever is left; that scenario
    pairs it with the zero or the one-off hazard.
    """

    c0: float
    g_pre: float
    t_stop: float
    crash_factor: float
    g_post: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.c0 < math.inf:
            raise DomainError(f"c0 must be finite and >= 1, got {self.c0!r}")
        if not 0.0 <= self.t_stop < math.inf:
            raise DomainError(f"t_stop must be finite and >= 0, got {self.t_stop!r}")
        for name in ("g_pre", "g_post"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise DomainError(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.crash_factor <= 1.0:
            raise DomainError(
                f"crash_factor must lie in (0, 1], got {self.crash_factor!r}"
            )

    def _log_crashed(self) -> float:
        # log of crash_factor * C(t_stop-), before the subsistence clamp
        return math.log(self.c0) + self.g_pre * self.t_stop + math.log(self.crash_factor)

    @property
    def crash_clamped(self) -> bool:
        """True when the crash would push consumption below subsistence."""
        return self._log_crashed() < 0.0


ConsumptionPath = Union[ExponentialPath, CrashPath]


# ---------------------------------------------------------------------------
# hazard models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroHazard:
    """No extinction risk: M(t) = 1 forever."""

    def cumulative(self, t: float) -> float:
        return 0.0

    def lifespan(self) -> float:
        return math.inf


@dataclass(frozen=True)
class ConstantHazard:
    """Constant rate m, e.g. background risk unrelated to AI; ET = 1/m."""

    m: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.m < math.inf:
            raise DomainError(f"m must be finite and >= 0, got {self.m!r}")

    def cumulative(self, t: float) -> float:
        return self.m * t

    def lifespan(self) -> float:
        return math.inf if self.m == 0.0 else 1.0 / self.m


@dataclass(frozen=True)
class OneOffHazard:
    """Certain extinction at a known date: M = 1 before t_ext, 0 from it on."""

    t_ext: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_ext < math.inf:
            raise DomainError(f"t_ext must be finite and >= 0, got {self.t_ext!r}")

    def cumulative(self, t: float) -> float:
        return 0.0 if t < self.t_ext else math.inf

    def lifespan(self) -> float:
        return self.t_ext


@dataclass(frozen=True)
class MountingLogHazard:
    """Hazard proportional to log consumption: m(t) = eps * log C(t).

    The path is exponential with growth >= 0, so the rate stays nonnegative
    and the cumulative hazard is the exact quadratic eps * (log(c0) t +
    g t^2 / 2).
    """

    epsilon: float
    path: ExponentialPath

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < math.inf:
            raise DomainError(
                f"epsilon must be finite and >= 0, got {self.epsilon!r}"
            )
        if not isinstance(self.path, ExponentialPath):
            raise DomainError(
                f"mounting hazard needs an ExponentialPath, got {self.path!r}"
            )
        if self.path.growth < 0.0:
            raise DomainError("mounting hazard with negative growth is not supported")

    def cumulative(self, t: float) -> float:
        return self.epsilon * (math.log(self.path.c0) * t + 0.5 * self.path.growth * t * t)

    def lifespan(self) -> float:
        eps = self.epsilon
        lam = math.log(self.path.c0)
        g = self.path.growth
        if eps == 0.0:
            return math.inf
        if g == 0.0:
            # constant hazard eps * log c0
            return math.inf if lam == 0.0 else 1.0 / (eps * lam)
        return gauss_laplace(eps * lam, eps * g)[0]


HazardModel = Union[ZeroHazard, ConstantHazard, OneOffHazard, MountingLogHazard]


def survival(model: HazardModel, t: float) -> float:
    """Unconditional survival probability M(t) = exp(-cumulative hazard).

    A one-off model's cumulative hazard is +inf from its date on.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    h = model.cumulative(t)
    return math.exp(-h) if h != math.inf else 0.0


def expected_lifespan(model: HazardModel) -> float:
    """Mean time to extinction ET = int_0^inf M(t) dt; +inf when M(t) -/-> 0."""
    return model.lifespan()
