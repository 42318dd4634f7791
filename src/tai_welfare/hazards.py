"""Extinction-hazard models, survival curves, expected lifespan, failure modes.

A hazard model defines an extinction rate m(t) >= 0.  Each model evaluates
its own cumulative hazard, cumulative(t) = int_0^t m, and its own expected
lifespan, lifespan() = int_0^inf M(t) dt (possibly infinite), each in closed
form; survival(model, t) = exp(-cumulative(t)) serves all four.  HAZARDS
names each model, with the values it reads and its constructor, and
failure_mode_path pairs each failure mode fm1-fm5 with a path and a model.

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
from typing import NamedTuple, Union

from .config import DEFAULT_G_BASELINE
from .errors import DomainError
from .special import gauss_laplace


# ---------------------------------------------------------------------------
# consumption paths
# ---------------------------------------------------------------------------


class ExponentialPath(NamedTuple("ExponentialPath", [("c0", float), ("growth", float)])):
    """C(t) = c0 * exp(growth t) with c0 >= 1; both fields are required."""

    __slots__ = ()

    def __new__(cls, c0: float, growth: float) -> ExponentialPath:
        if not 1.0 <= c0 < math.inf:
            raise DomainError(f"c0 must be finite and >= 1, got {c0!r}")
        if not -math.inf < growth < math.inf:
            raise DomainError(f"growth must be finite, got {growth!r}")
        return tuple.__new__(cls, (c0, growth))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class CrashPath(NamedTuple("CrashPath", [
        ("c0", float), ("g_pre", float), ("t_stop", float), ("crash_factor", float),
        ("g_post", float)])):
    """Growth at g_pre until t_stop, a one-time crash, then growth at g_post.

    The post-crash level is crash_factor * C(t_stop-), clamped at the
    subsistence level 1.  Used for the scenario where the automated economy
    stops working and humanity restarts from whatever is left; that scenario
    pairs it with the zero or the one-off hazard.
    """

    __slots__ = ()

    def __new__(cls, c0: float, g_pre: float, t_stop: float, crash_factor: float,
                g_post: float) -> CrashPath:
        if not 1.0 <= c0 < math.inf:
            raise DomainError(f"c0 must be finite and >= 1, got {c0!r}")
        if not 0.0 <= t_stop < math.inf:
            raise DomainError(f"t_stop must be finite and >= 0, got {t_stop!r}")
        for name, value in (("g_pre", g_pre), ("g_post", g_post)):
            if not -math.inf < value < math.inf:
                raise DomainError(f"{name} must be finite, got {value!r}")
        if not 0.0 < crash_factor <= 1.0:
            raise DomainError(f"crash_factor must lie in (0, 1], got {crash_factor!r}")
        return tuple.__new__(cls, (c0, g_pre, t_stop, crash_factor, g_post))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

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


class ZeroHazard(NamedTuple):
    """No extinction risk: M(t) = 1 forever."""

    def cumulative(self, t: float) -> float:
        return 0.0

    def lifespan(self) -> float:
        return math.inf


class ConstantHazard(NamedTuple("ConstantHazard", [("m", float)])):
    """Constant rate m, e.g. background risk unrelated to AI; ET = 1/m."""

    __slots__ = ()

    def __new__(cls, m: float) -> ConstantHazard:
        if not 0.0 <= m < math.inf:
            raise DomainError(f"m must be finite and >= 0, got {m!r}")
        return tuple.__new__(cls, (m,))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def cumulative(self, t: float) -> float:
        return self.m * t

    def lifespan(self) -> float:
        return math.inf if self.m == 0.0 else 1.0 / self.m


class OneOffHazard(NamedTuple("OneOffHazard", [("t_ext", float)])):
    """Certain extinction at a known date: M = 1 before t_ext, 0 from it on."""

    __slots__ = ()

    def __new__(cls, t_ext: float) -> OneOffHazard:
        if not 0.0 <= t_ext < math.inf:
            raise DomainError(f"t_ext must be finite and >= 0, got {t_ext!r}")
        return tuple.__new__(cls, (t_ext,))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def cumulative(self, t: float) -> float:
        return 0.0 if t < self.t_ext else math.inf

    def lifespan(self) -> float:
        return self.t_ext


class MountingLogHazard(NamedTuple("MountingLogHazard", [
        ("epsilon", float), ("path", ExponentialPath)])):
    """Hazard proportional to log consumption: m(t) = eps * log C(t).

    The path is exponential with growth >= 0, so the rate stays nonnegative
    and the cumulative hazard is the exact quadratic eps * (log(c0) t +
    g t^2 / 2).
    """

    __slots__ = ()

    def __new__(cls, epsilon: float, path: ExponentialPath) -> MountingLogHazard:
        if not 0.0 <= epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
        if not isinstance(path, ExponentialPath):
            raise DomainError(f"mounting hazard needs an ExponentialPath, got {path!r}")
        if path.growth < 0.0:
            raise DomainError("mounting hazard with negative growth is not supported")
        return tuple.__new__(cls, (epsilon, path))

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def cumulative(self, t: float) -> float:
        if self.epsilon == 0.0:  # not 0 * inf once g t^2 / 2 overflows
            return 0.0
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

# each hazard's name -> (the values its model reads, the model's constructor)
HAZARDS = {
    "zero": ((), ZeroHazard),
    "constant": (("m",), ConstantHazard),
    "one-off": (("t_ext",), OneOffHazard),
    "mounting": (("epsilon", "path"), MountingLogHazard),
}


def survival(model: HazardModel, t: float) -> float:
    """Unconditional survival probability M(t) = exp(-cumulative hazard).

    A one-off model's cumulative hazard is +inf from its date on.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    return math.exp(-model.cumulative(t))


def expected_lifespan(model: HazardModel) -> float:
    """Mean time to extinction ET = int_0^inf M(t) dt; +inf when M(t) -/-> 0."""
    return model.lifespan()


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def failure_mode_path(mode: str, *, c0: float = 1.0, g_ai: float = 0.3,
                      switch_time: float = 0.0, crash_factor: float = 1.0,
                      epsilon: float = 0.0) -> tuple[ConsumptionPath, HazardModel]:
    """Consumption path and hazard model for each misalignment failure mode.

    fm1  the TAI optimizes something other than human consumption: doom at 0
    fm2  consumption proxy too narrow: life support is zeroed out once
         technology allows, at switch_time
    fm3  consumption proxy too wide: a lethal component arrives at switch_time
    fm4  mounting side effects: hazard epsilon * log C on the fast path
    fm5  the TAI stops working at switch_time: consumption crashes by
         crash_factor (clamped at subsistence) and grows on at the baseline
         rate DEFAULT_G_BASELINE; humanity survives, so the hazard is zero
    """
    if not 0.0 <= switch_time < math.inf:
        raise DomainError(f"switch_time must be finite and >= 0, got {switch_time!r}")
    if not 0.0 < crash_factor <= 1.0:
        raise DomainError(f"crash_factor must lie in (0, 1], got {crash_factor!r}")
    fast = ExponentialPath(c0=c0, growth=g_ai)

    def mounting() -> tuple[ExponentialPath, MountingLogHazard]:
        if epsilon <= 0.0:
            raise DomainError("fm4 needs a positive epsilon")
        return fast, MountingLogHazard(epsilon, fast)

    rows = {  # each mode's (path, hazard); only the selected row is built
        "fm1": lambda: (fast, OneOffHazard(0.0)),
        "fm2": lambda: (fast, OneOffHazard(switch_time)),
        "fm3": lambda: (fast, OneOffHazard(switch_time)),
        "fm4": mounting,
        "fm5": lambda: (CrashPath(c0, g_ai, switch_time, crash_factor, DEFAULT_G_BASELINE),
                        ZeroHazard()),
    }
    if mode not in rows:
        raise DomainError(f"unknown failure mode {mode!r}")
    return rows[mode]()
