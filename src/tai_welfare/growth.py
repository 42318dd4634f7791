"""Hardware-software production, capital accumulation, and failure-mode paths.

Output combines hardware X (everything that acts physically) and software S
(everything that decides what to do) through a CES aggregate

    F(X, S) = [w X^sigma + (1 - w) S^sigma]^(1/sigma),    sigma < 1,

with hardware and software complements for sigma < 0.  Hardware is alpha K.
Software depends on the regime:

  full_automation   S = A (h N + psi chi K): machine cognition scales with
                    compute chi K, so S grows with K and output becomes
                    asymptotically linear in K (an AK economy; growth rate
                    s * Y/K - delta under a fixed saving rate s)
  bottlenecked      S = gamma A h N: human cognition is the scarce input, so
                    capital deepening saturates and long-run growth matches
                    the labor-augmenting rate of A only

Capital follows K' = s Y - delta K, integrated by classic fourth-order
Runge-Kutta on a fixed grid.  The saving rate is exogenous throughout; no
optimal-control problem is solved here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .config import DEFAULT_G_BASELINE
from .errors import DomainError
from .hazards import (
    ConsumptionPath,
    CrashPath,
    ExponentialPath,
    HazardModel,
    MountingLogHazard,
    OneOffHazard,
    ZeroHazard,
)

__all__ = [
    "ProductionParams",
    "Trajectory",
    "Regime",
    "ces",
    "output",
    "simulate",
    "asymptotic_growth_rate",
    "failure_mode_path",
    "trajectory_csv",
]

Regime = Literal["full_automation", "bottlenecked"]
FailureMode = Literal["fm1", "fm2", "fm3", "fm4", "fm5"]

# largest horizon / dt that simulate accepts, checked before the first step;
# each step makes four Python-level output calls, so a million steps already
# runs for seconds
MAX_STEPS = 1_000_000

FIT_WINDOW = 0.25  # the final fraction of a run asymptotic_growth_rate fits


@dataclass(frozen=True)
class ProductionParams:
    """Technology and population constants of the production framework.

    alpha: hardware efficiency of capital
    gamma: software efficiency of human cognition when it bottlenecks output
    A: disembodied technology level (grows at tech_growth during simulation)
    h: average human capital; N: population
    psi: algorithmic efficiency; chi: compute share of capital
    sigma: CES exponent (< 1, nonzero; negative means complements)
    share_hw: CES weight on hardware
    """

    alpha: float = 1.0
    gamma: float = 1.0
    A: float = 1.0
    h: float = 1.0
    N: float = 1.0
    psi: float = 1.0
    chi: float = 1.0
    sigma: float = -1.0
    share_hw: float = 0.5

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "A", "h", "N", "psi", "chi"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")
        if not (-math.inf < self.sigma < 1.0 and self.sigma != 0.0):
            raise DomainError(
                f"sigma must be finite, < 1 and nonzero, got {self.sigma!r}"
            )
        if not 0.0 < self.share_hw < 1.0:
            raise DomainError(f"share_hw must lie in (0, 1), got {self.share_hw!r}")


@dataclass(frozen=True)
class Trajectory:
    """Simulated paths on a fixed time grid, one float per grid point."""

    times: tuple[float, ...]
    K: tuple[float, ...]
    Y: tuple[float, ...]
    C: tuple[float, ...]


def ces(x: float, s: float, weight: float, sigma: float) -> float:
    """[w x^sigma + (1-w) s^sigma]^(1/sigma), homogeneous of degree one.

    Factors out the dominant argument so extreme sigma neither overflows nor
    loses the min/max limit behaviour.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"CES argument x must be finite and > 0, got {x!r}")
    if not 0.0 < s < math.inf:
        raise DomainError(f"CES argument s must be finite and > 0, got {s!r}")
    if not 0.0 < weight < 1.0:
        raise DomainError(f"CES weight must lie in (0, 1), got {weight!r}")
    if not (-math.inf < sigma < 1.0 and sigma != 0.0):
        raise DomainError(f"sigma must be finite, < 1 and nonzero, got {sigma!r}")
    ref = min(x, s) if sigma < 0.0 else max(x, s)
    inner = weight * (x / ref) ** sigma + (1.0 - weight) * (s / ref) ** sigma
    return ref * inner ** (1.0 / sigma)


def _software(params: ProductionParams, K: float, A: float, regime: Regime) -> float:
    if regime == "full_automation":
        return A * (params.h * params.N + params.psi * params.chi * K)
    if regime == "bottlenecked":
        return params.gamma * A * params.h * params.N
    raise DomainError(f"unknown regime {regime!r}")


def output(params: ProductionParams, K: float, regime: Regime, A: float) -> float:
    """Production Y = F(alpha K, S) at capital K and technology level A."""
    if not 0.0 < K < math.inf:
        raise DomainError(f"K must be finite and > 0, got {K!r}")
    s = _software(params, K, A, regime)
    return ces(params.alpha * K, s, params.share_hw, params.sigma)


def simulate(
    params: ProductionParams,
    K0: float,
    saving_rate: float,
    delta: float,
    tech_growth: float,
    horizon: float,
    dt: float,
    regime: Regime = "full_automation",
) -> Trajectory:
    """Integrate K' = s Y - delta K with A(t) = A exp(tech_growth * t).

    Fixed-step fourth-order Runge-Kutta; consumption closes the accounts as
    C = (1 - s) Y.  A step that would drive capital nonpositive raises a
    domain error naming the offending time.
    """
    if not 0.0 < K0 < math.inf:
        raise DomainError(f"K0 must be finite and > 0, got {K0!r}")
    if not 0.0 <= saving_rate < 1.0:
        raise DomainError(f"saving_rate must lie in [0, 1), got {saving_rate!r}")
    if not 0.0 <= delta < math.inf:
        raise DomainError(f"delta must be finite and >= 0, got {delta!r}")
    if not 0.0 <= tech_growth < math.inf:
        raise DomainError(f"tech_growth must be finite and >= 0, got {tech_growth!r}")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be finite and > 0, got {horizon!r}")
    if not 0.0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt!r}")
    if not horizon / dt <= MAX_STEPS:
        raise DomainError(
            f"horizon / dt = {horizon / dt:.6g} steps exceeds the limit of {MAX_STEPS}"
        )

    def tech(t: float) -> float:
        return params.A * math.exp(tech_growth * t)

    def kdot(t: float, K: float) -> float:
        # a Runge-Kutta stage can undershoot zero when delta * dt is large
        if not K > 0.0:
            raise DomainError(
                f"capital became nonpositive at t = {t:.6g}; "
                "reduce dt or the depreciation rate"
            )
        return saving_rate * output(params, K, regime, A=tech(t)) - delta * K

    times = [0.0]
    K_path = [K0]
    K = K0
    for i in range(int(round(horizon / dt))):
        t = i * dt
        k1 = kdot(t, K)
        k2 = kdot(t + 0.5 * dt, K + 0.5 * dt * k1)
        k3 = kdot(t + 0.5 * dt, K + 0.5 * dt * k2)
        k4 = kdot(t + dt, K + dt * k3)
        K = K + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = (i + 1) * dt
        if not K > 0.0:
            raise DomainError(
                f"capital became nonpositive at t = {t_next:.6g}; "
                "reduce dt or the depreciation rate"
            )
        times.append(t_next)
        K_path.append(K)

    Y_path = tuple(output(params, k, regime, A=tech(t)) for t, k in zip(times, K_path))
    return Trajectory(
        times=tuple(times),
        K=tuple(K_path),
        Y=Y_path,
        C=tuple((1.0 - saving_rate) * y for y in Y_path),
    )


def asymptotic_growth_rate(trajectory: Trajectory) -> float:
    """Least-squares slope of log Y over the final FIT_WINDOW of the run.

    The window must leave at least a handful of points; transients from the
    initial capital level should have died out by then.
    """
    n = len(trajectory.times)
    start = int(n * (1.0 - FIT_WINDOW))
    if n - start < 5:
        raise DomainError(
            f"trajectory too short: {n - start} points in the fitted window"
        )
    t = trajectory.times[start:]
    log_y = [math.log(y) for y in trajectory.Y[start:]]
    t_mean = math.fsum(t) / len(t)
    log_y_mean = math.fsum(log_y) / len(t)
    dev = [s - t_mean for s in t]
    return math.fsum(d * (v - log_y_mean) for d, v in zip(dev, log_y)) / math.fsum(
        d * d for d in dev
    )


def failure_mode_path(
    mode: FailureMode,
    *,
    c0: float = 1.0,
    g_ai: float = 0.3,
    switch_time: float = 0.0,
    crash_factor: float = 1.0,
    epsilon: float = 0.0,
) -> tuple[ConsumptionPath, HazardModel]:
    """Consumption path and hazard model for each misalignment failure mode.

    fm1  the TAI optimizes something other than human consumption: doom at 0
    fm2  consumption proxy too narrow; a life-support component is zeroed
         out once technology allows, at switch_time
    fm3  consumption proxy too wide; a lethal component arrives at
         switch_time
    fm4  mounting side effects: hazard epsilon * log C on the fast path
    fm5  the TAI stops working at switch_time: consumption crashes by
         crash_factor (clamped at subsistence) and grows on at the baseline
         rate DEFAULT_G_BASELINE; humanity survives, so the hazard is zero
    """
    if switch_time < 0.0:
        raise DomainError(f"switch_time must be >= 0, got {switch_time!r}")
    if not 0.0 < crash_factor <= 1.0:
        raise DomainError(f"crash_factor must lie in (0, 1], got {crash_factor!r}")
    fast = ExponentialPath(c0=c0, growth=g_ai)
    if mode == "fm1":
        return fast, OneOffHazard(0.0)
    if mode in ("fm2", "fm3"):
        return fast, OneOffHazard(switch_time)
    if mode == "fm4":
        if epsilon <= 0.0:
            raise DomainError("fm4 needs a positive epsilon")
        return fast, MountingLogHazard(epsilon, fast)
    if mode == "fm5":
        path = CrashPath(
            c0=c0,
            g_pre=g_ai,
            t_stop=switch_time,
            crash_factor=crash_factor,
            g_post=DEFAULT_G_BASELINE,
        )
        return path, ZeroHazard()
    raise DomainError(f"unknown failure mode {mode!r}")


def trajectory_csv(trajectory: Trajectory) -> str:
    """Render a trajectory as CSV with columns t, K, Y, C and LF endings."""
    lines = ["t,K,Y,C"]
    for t, k, y, c in zip(trajectory.times, trajectory.K, trajectory.Y, trajectory.C):
        lines.append(f"{t:.6g},{k:.10g},{y:.10g},{c:.10g}")
    return "\n".join(lines) + "\n"
