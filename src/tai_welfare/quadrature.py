"""Adaptive Gauss-Kronrod quadrature with an infinite-horizon transform.

The kernel is a 15-point Kronrod rule with embedded 7-point Gauss rule,
bisecting whichever interval currently carries the largest error estimate.
Integrands are called with numpy arrays of abscissae: 15 per panel, both
halves of a bisection in one call.

Infinite-horizon discounted integrals int_0^inf f(t) e^(-r t) dt are mapped
onto [0, 1) by x = 1 - e^(-r t); the Jacobian cancels the exponential factor
exactly, so the transformed integrand stays O(f).  The domain is clipped
where the cumulative discount exponent reaches 60 (weight ~ 1e-26), and the
clipped tail is folded into the error estimate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["QuadratureResult", "integrate_finite", "integrate_transformed"]

# 15-point Kronrod nodes and weights with embedded 7-point Gauss rule
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])  # 15 ascending abscissae
# the paired weights sliced once, the two centre weights as Python floats
_WGK7, _WG3 = _WGK[:7], _WG[:3]
_WGK_CENTER, _WG_CENTER = float(_WGK[7]), float(_WG[3])

DEFAULT_MAX_INTERVALS = 10_000
TRUNCATION_EXPONENT = 60.0


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    intervals: int


def _gk15_panels(f: Callable[[np.ndarray], np.ndarray], bounds: tuple) -> list:
    """Kronrod panels on the intervals in bounds: [(integral, error_estimate)].

    All 15 * len(bounds) abscissae go to f in one call; each panel is then
    reduced on its own, so every panel is bit-identical to a one-panel call.
    numpy's elementwise functions round each element the same at any array
    position.  The 7-term sums stay one np.dot each: BLAS's ddot accumulates
    in its own order, which neither a Python sum nor a batched matrix product
    reproduces bit for bit, and a root solved from these values amplifies
    their last bits about 9e4-fold.
    """
    halves = [0.5 * (b - a) for a, b in bounds]
    x = np.concatenate([0.5 * (a + b) + half * _NODES
                        for (a, b), half in zip(bounds, halves)])
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise DomainError("integrand must map an array of abscissae to one value each")
    panels = []
    for half, fp in zip(halves, fx.reshape(-1, 15)):
        center = float(fp[7])
        # fold symmetric nodes: pairs[i] = f(center - half*XGK[i]) + f(center + half*XGK[i])
        pairs = fp[:7] + fp[:7:-1]
        resk = half * (float(np.dot(_WGK7, pairs)) + _WGK_CENTER * center)
        # the embedded Gauss rule lives on nodes XGK[1], XGK[3], XGK[5] and the center
        resg = half * (float(np.dot(_WG3, pairs[1::2])) + _WG_CENTER * center)
        reskh = 0.5 * resk / half if half != 0.0 else 0.0
        dev = np.abs(fp - reskh)
        resasc = half * (float(np.dot(_WGK7, dev[:7] + dev[:7:-1]))
                         + _WGK_CENTER * float(dev[7]))
        err = abs(resk - resg)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        panels.append((resk, err))
    return panels


def integrate_finite(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> QuadratureResult:
    """Adaptive integral of f over [a, b] to the requested tolerance.

    Raises QuadratureError when the subdivision budget runs out before the
    summed error estimate meets max(abs_tol, rel_tol * |integral|).
    """
    if not abs_tol > 0.0 and not rel_tol > 0.0:
        raise DomainError("at least one of abs_tol, rel_tol must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    [(value, err)] = _gk15_panels(f, ((a, b),))
    heap = [(-err, a, b, value, err)]
    total_value, total_err, count = value, err, 1
    while True:
        target = max(abs_tol, rel_tol * abs(total_value))
        if total_err <= target:
            return QuadratureResult(total_value, total_err, count)
        if count >= max_intervals:
            raise QuadratureError(
                f"quadrature needs more than {max_intervals} intervals: "
                f"error estimate {total_err:.3e} exceeds target {target:.3e}"
            )
        _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = _gk15_panels(f, ((lo, mid), (mid, hi)))
        total_value += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        count += 1
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))


def integrate_transformed(
    flow: Callable[[np.ndarray], np.ndarray],
    excess_weight: Callable[[np.ndarray], np.ndarray],
    rate: float,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """int_0^inf flow(t) * excess_weight(t) * e^(-rate t) dt for rate > 0.

    excess_weight is the weight with the pure exponential discount divided
    out (identically 1 for plain discounting); it must stay bounded by 1-ish
    so the transformed integrand remains O(flow).  Both legs share one
    DEFAULT_MAX_INTERVALS budget.
    """
    if not rate > 0.0:
        raise DomainError(f"transform rate must be > 0, got {rate!r}")
    # the x -> t map is ill-conditioned within ~1e-12 of x = 1, so the
    # transform leg stops there and a plain t-space leg covers the rest of
    # the horizon out to cumulative exponent 60
    x_split = 1.0 - 1e-12
    t_split = -math.log1p(-x_split) / rate
    t_max = TRUNCATION_EXPONENT / rate

    def transformed(x: np.ndarray) -> np.ndarray:
        t = -np.log1p(-x) / rate
        return flow(t) * excess_weight(t) / rate

    def direct(t: np.ndarray) -> np.ndarray:
        return flow(t) * excess_weight(t) * np.exp(-rate * t)

    head = integrate_finite(
        transformed, 0.0, x_split,
        abs_tol=0.5 * abs_tol, rel_tol=0.5 * rel_tol, max_intervals=DEFAULT_MAX_INTERVALS,
    )
    mid = integrate_finite(
        direct, t_split, t_max,
        abs_tol=0.5 * abs_tol, rel_tol=0.5 * rel_tol,
        max_intervals=DEFAULT_MAX_INTERVALS - head.intervals,
    )
    # the clipped tail is below e^-60 * |flow * excess|; charge a bound
    # against the error estimate rather than pretending it is zero
    tail_sample = float(
        np.max(np.abs(flow(np.array([t_max])) * excess_weight(np.array([t_max]))))
    )
    tail_bound = 2.0 * tail_sample * math.exp(-TRUNCATION_EXPONENT) / rate
    return QuadratureResult(
        head.value + mid.value,
        head.abs_error_estimate + mid.abs_error_estimate + tail_bound,
        head.intervals + mid.intervals,
    )
