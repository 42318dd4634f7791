"""Hardware-software production and capital accumulation.

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
optimal-control problem is solved here.  Each input is checked once, where it
enters; the failure-mode paths fm1-fm5 live in hazards.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .errors import DomainError

# largest horizon / dt that simulate accepts, checked before the first step;
# each step makes four Python-level output calls, so a million steps already
# runs for seconds
MAX_STEPS = 1_000_000

FIT_WINDOW = 0.25  # the final fraction of a run asymptotic_growth_rate fits


class ProductionParams(namedtuple(
        "ProductionParams", "alpha gamma A h N psi chi sigma share_hw",
        defaults=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 0.5))):
    """Technology and population constants of the production framework.

    alpha: hardware efficiency of capital
    gamma: software efficiency of human cognition when it bottlenecks output
    A: disembodied technology level (grows at tech_growth during simulation)
    h: average human capital; N: population
    psi: algorithmic efficiency; chi: compute share of capital
    sigma: CES exponent (< 1, nonzero; negative means complements)
    share_hw: CES weight on hardware
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> ProductionParams:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


class Trajectory(NamedTuple):
    """Simulated paths on a fixed time grid, one float per grid point."""

    times: tuple[float, ...]
    K: tuple[float, ...]
    Y: tuple[float, ...]
    C: tuple[float, ...]


# each regime's software input S at capital K and technology level A; the first
# is the default regime
SOFTWARE = {
    "full_automation": lambda p, K, A: A * (p.h * p.N + p.psi * p.chi * K),
    "bottlenecked": lambda p, K, A: p.gamma * A * p.h * p.N,
}


def _ces(x: float, s: float, weight: float, sigma: float) -> float:
    """[w x^sigma + (1-w) s^sigma]^(1/sigma), homogeneous of degree one.

    Factors out the dominant argument so extreme sigma neither overflows nor
    loses the min/max limit behaviour.
    """
    ref = min(x, s) if sigma < 0.0 else max(x, s)
    inner = weight * (x / ref) ** sigma + (1.0 - weight) * (s / ref) ** sigma
    return ref * inner ** (1.0 / sigma)


def _output(params: ProductionParams, K: float, regime: str, A: float) -> float:
    """Production Y = F(alpha K, S), or nan where alpha K or S overflows."""
    x, s = params.alpha * K, SOFTWARE[regime](params, K, A)
    # for sigma < 0 the CES would take an infinite argument as its finite limit
    return _ces(x, s, params.share_hw, params.sigma) if x + s < math.inf else math.nan


def simulate(
    params: ProductionParams,
    K0: float,
    saving_rate: float,
    delta: float,
    tech_growth: float,
    horizon: float,
    dt: float,
    regime: str = "full_automation",
) -> Trajectory:
    """Integrate K' = s Y - delta K with A(t) = A exp(tech_growth * t).

    Fixed-step fourth-order Runge-Kutta; consumption closes the accounts as
    C = (1 - s) Y.  A stage or step whose capital is nonpositive, or whose
    output is not finite and > 0, raises a domain error naming its time.
    """
    if regime not in SOFTWARE:
        raise DomainError(f"unknown regime {regime!r}")
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
    # the grid ends at the last i dt not past the horizon; the slack keeps a
    # whole multiple that rounds below itself, such as 0.3 / 0.1, whole
    steps = math.floor(horizon / dt + 1e-9)
    if steps < 1:
        raise DomainError(f"horizon {horizon!r} is shorter than one step of dt = {dt!r}")

    def guard(t: float, K: float) -> float:
        # the output at (t, K), and the one check on the path: a Runge-Kutta
        # stage can undershoot zero when delta * dt is large, and a long run can
        # overflow K, alpha K, S, exp(tech_growth * t) or a CES power
        if K <= 0.0:
            raise DomainError(
                f"capital became nonpositive at t = {t:.6g}; "
                "reduce dt or the depreciation rate"
            )
        try:
            y = _output(params, K, regime, params.A * math.exp(tech_growth * t))
        except OverflowError:
            y = math.inf
        if not 0.0 < y < math.inf:
            raise DomainError(
                f"output is not finite and > 0 at t = {t:.6g} (K = {K:.6g}, "
                f"Y = {y!r}); shorten the horizon"
            )
        return y

    def kdot(t: float, K: float) -> float:
        return saving_rate * guard(t, K) - delta * K

    times = [0.0]
    K_path = [K0]
    Y_path = [guard(0.0, K0)]
    K = K0
    for i in range(steps):
        t = i * dt
        k1 = saving_rate * Y_path[-1] - delta * K
        k2 = kdot(t + 0.5 * dt, K + 0.5 * dt * k1)
        k3 = kdot(t + 0.5 * dt, K + 0.5 * dt * k2)
        k4 = kdot(t + dt, K + dt * k3)
        K = K + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = (i + 1) * dt
        Y_path.append(guard(t_next, K))
        times.append(t_next)
        K_path.append(K)

    return Trajectory(
        times=tuple(times),
        K=tuple(K_path),
        Y=tuple(Y_path),
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


def trajectory_csv(trajectory: Trajectory) -> str:
    """Render a trajectory as CSV with columns t, K, Y, C and LF endings."""
    lines = ["t,K,Y,C"]
    for t, k, y, c in zip(trajectory.times, trajectory.K, trajectory.Y, trajectory.C):
        lines.append(f"{t:.6g},{k:.10g},{y:.10g},{c:.10g}")
    return "\n".join(lines) + "\n"
