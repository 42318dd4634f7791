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
from typing import TYPE_CHECKING, Literal, Optional

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

if TYPE_CHECKING:
    import numpy as np

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

# largest horizon / dt that simulate accepts, checked before any array is
# allocated; each step makes four Python-level output calls, so a million
# steps already runs for seconds
MAX_STEPS = 1_000_000


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
    a_K: asymptotic output-capital ratio of the full-automation regime; by
        default the CES limit F(alpha, inf)/alpha resolved from the weights
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
    a_K: Optional[float] = None

    def __post_init__(self) -> None:
        positive = ("alpha", "gamma", "A", "h", "N", "psi", "chi")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not (self.sigma < 1.0 and self.sigma != 0.0):
            raise DomainError(f"sigma must be < 1 and nonzero, got {self.sigma!r}")
        if not 0.0 < self.share_hw < 1.0:
            raise DomainError(f"share_hw must lie in (0, 1), got {self.share_hw!r}")
        if self.a_K is None:
            object.__setattr__(self, "a_K", self.ces_asymptote())
        elif not self.a_K > 0.0:
            raise DomainError(f"a_K must be > 0, got {self.a_K!r}")

    def ces_asymptote(self) -> float:
        """lim_{S->inf} F(alpha, S) / alpha for sigma < 0; +inf for sigma > 0."""
        if self.sigma < 0.0:
            return self.share_hw ** (1.0 / self.sigma)
        return math.inf


@dataclass(frozen=True)
class Trajectory:
    """Simulated paths on a fixed grid, with the closure that produced them."""

    times: np.ndarray
    K: np.ndarray
    Y: np.ndarray
    C: np.ndarray
    regime: Regime
    saving_rate: float
    delta: float
    tech_growth: float


def ces(x: float, s: float, weight: float, sigma: float) -> float:
    """[w x^sigma + (1-w) s^sigma]^(1/sigma), homogeneous of degree one.

    Factors out the dominant argument so extreme sigma neither overflows nor
    loses the min/max limit behaviour.
    """
    if not (x > 0.0 and s > 0.0):
        raise DomainError(f"CES arguments must be > 0, got {x!r}, {s!r}")
    if not (sigma < 1.0 and sigma != 0.0):
        raise DomainError(f"sigma must be < 1 and nonzero, got {sigma!r}")
    ref = min(x, s) if sigma < 0.0 else max(x, s)
    inner = weight * (x / ref) ** sigma + (1.0 - weight) * (s / ref) ** sigma
    return ref * inner ** (1.0 / sigma)


def _software(params: ProductionParams, K: float, A: float, regime: Regime) -> float:
    if regime == "full_automation":
        return A * (params.h * params.N + params.psi * params.chi * K)
    if regime == "bottlenecked":
        return params.gamma * A * params.h * params.N
    raise DomainError(f"unknown regime {regime!r}")


def output(
    params: ProductionParams, K: float, regime: Regime, A: Optional[float] = None
) -> float:
    """Production Y = F(alpha K, S) at capital K under the given regime."""
    if not K > 0.0:
        raise DomainError(f"K must be > 0, got {K!r}")
    level = params.A if A is None else A
    s = _software(params, K, level, regime)
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
    import numpy as np

    if not K0 > 0.0:
        raise DomainError(f"K0 must be > 0, got {K0!r}")
    if not 0.0 <= saving_rate < 1.0:
        raise DomainError(f"saving_rate must lie in [0, 1), got {saving_rate!r}")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta!r}")
    if tech_growth < 0.0:
        raise DomainError(f"tech_growth must be >= 0, got {tech_growth!r}")
    if not (dt > 0.0 and horizon > 0.0):
        raise DomainError("dt and horizon must be > 0")
    if not horizon / dt <= MAX_STEPS:
        raise DomainError(
            f"horizon / dt = {horizon / dt:.6g} steps exceeds the limit of {MAX_STEPS}"
        )

    steps = int(round(horizon / dt))
    times = np.arange(steps + 1) * dt

    def kdot(t: float, K: float) -> float:
        # a Runge-Kutta stage can undershoot zero when delta * dt is large
        if not K > 0.0:
            raise DomainError(
                f"capital became nonpositive at t = {t:.6g}; "
                "reduce dt or the depreciation rate"
            )
        A_t = params.A * math.exp(tech_growth * t)
        return saving_rate * output(params, K, regime, A=A_t) - delta * K

    K_path = np.empty(steps + 1)
    K_path[0] = K0
    K = K0
    for i in range(steps):
        t = times[i]
        k1 = kdot(t, K)
        k2 = kdot(t + 0.5 * dt, K + 0.5 * dt * k1)
        k3 = kdot(t + 0.5 * dt, K + 0.5 * dt * k2)
        k4 = kdot(t + dt, K + dt * k3)
        K = K + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not K > 0.0:
            raise DomainError(
                f"capital became nonpositive at t = {times[i + 1]:.6g}; "
                "reduce dt or the depreciation rate"
            )
        K_path[i + 1] = K

    A_path = params.A * np.exp(tech_growth * times)
    Y_path = np.array(
        [output(params, float(k), regime, A=float(a)) for k, a in zip(K_path, A_path)]
    )
    C_path = (1.0 - saving_rate) * Y_path
    return Trajectory(
        times=times,
        K=K_path,
        Y=Y_path,
        C=C_path,
        regime=regime,
        saving_rate=saving_rate,
        delta=delta,
        tech_growth=tech_growth,
    )


def asymptotic_growth_rate(trajectory: Trajectory, window: float = 0.25) -> float:
    """Least-squares slope of log Y over the final fraction of the run.

    The window must leave at least a handful of points; transients from the
    initial capital level should have died out by then.
    """
    import numpy as np

    n = len(trajectory.times)
    start = int(n * (1.0 - window))
    if n - start < 5:
        raise DomainError(
            f"trajectory too short: {n - start} points in the fitted window"
        )
    t = trajectory.times[start:]
    log_y = np.log(trajectory.Y[start:])
    slope, _ = np.polyfit(t, log_y, 1)
    return float(slope)


def failure_mode_path(
    mode: FailureMode,
    *,
    c0: float = 1.0,
    g_ai: float = 0.3,
    g_baseline: float = 0.0175,
    switch_time: float = 0.0,
    crash_factor: float = 1.0,
    epsilon: float = 0.0,
    post_stop_extinction: Optional[float] = None,
) -> tuple[ConsumptionPath, HazardModel]:
    """Consumption path and hazard model for each misalignment failure mode.

    fm1  the TAI optimizes something other than human consumption: doom at 0
    fm2  consumption proxy too narrow; a life-support component is zeroed
         out once technology allows, at switch_time
    fm3  consumption proxy too wide; a lethal component arrives at
         switch_time
    fm4  mounting side effects: hazard epsilon * log C on the fast path
    fm5  the TAI stops working at switch_time: consumption crashes by
         crash_factor (clamped at subsistence) and growth reverts to the
         baseline rate; extinction optionally follows at
         post_stop_extinction, else the hazard is zero
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
            g_post=g_baseline,
        )
        hazard: HazardModel
        if post_stop_extinction is not None:
            if post_stop_extinction < switch_time:
                raise DomainError("post_stop_extinction must not precede t_stop")
            hazard = OneOffHazard(post_stop_extinction)
        else:
            hazard = ZeroHazard()
        return path, hazard
    raise DomainError(f"unknown failure mode {mode!r}")


def trajectory_csv(trajectory: Trajectory) -> str:
    """Render a trajectory as CSV with columns t, K, Y, C and LF endings."""
    lines = ["t,K,Y,C"]
    for t, k, y, c in zip(trajectory.times, trajectory.K, trajectory.Y, trajectory.C):
        lines.append(f"{t:.6g},{k:.10g},{y:.10g},{c:.10g}")
    return "\n".join(lines) + "\n"
