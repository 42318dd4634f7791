"""Adaptive Gauss-Kronrod quadrature with an infinite-horizon transform.

The kernel is QUADPACK's QK15: a 15-point Kronrod rule with embedded 7-point
Gauss rule, bisecting whichever interval currently carries the largest error
estimate, one at a time.  Integrands are called with numpy arrays of
abscissae.  A bisection whose pair of panels is unsampled samples it with
the pairs of its nested upper halves [mid, hi], [mid', hi], ..., _LOOKAHEAD
pairs in one call, and later bisections take theirs from that store.  The
greedy does take those next: the transform below puts the horizon tail at
x -> 1, so it works down [1 - 2^-j, x_split] one level at a time (1,184 of
the t4 and t5d tables' 1,351 bisections take the upper child of the one
before), and 313 integrand calls sample their 1,515 intervals.  No value
changes: each pair's abscissae are lo + (hi - lo) * _UNIT_PAIR from its own
ends, an elementwise integrand gives each the same float in any batch, and
the greedy reduces the same pairs in the same order.  Every unit node lies
strictly inside its panel, so the transformed leg below, which stops at
x = 1 - 1e-12, never evaluates x = 1.

The values come back as one list of Python floats, and each panel's Kronrod
sum, Gauss sum and error scale are plain float arithmetic: on 15-point panels
that is about four times cheaper than numpy's per-call overhead.  The last
bits of a panel depend on that summation order; _look_ahead says why the
printed tables can afford it.

Infinite-horizon discounted integrals int_0^inf f(t) e^(-r t) dt are mapped
onto [0, 1) by x = 1 - e^(-r t); the Jacobian cancels the exponential factor
exactly, so the transformed integrand stays O(f).  The domain is clipped
where the cumulative discount exponent reaches 60 (weight ~ 1e-26), and the
clipped tail is folded into the error estimate.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError

# 15-point Kronrod nodes and weights with embedded 7-point Gauss rule
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)
# the same weights as module floats for the unrolled reduction: K0..K6 pair
# the nodes -XGK[i] and +XGK[i], KC weighs the centre; the Gauss rule lives on
# XGK[1], XGK[3], XGK[5] and the centre
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _KC = _WGK
_G1, _G3, _G5, _GC = _WG

_NODES = np.array([-x for x in _XGK[:7]] + list(_XGK[::-1]))  # 15 ascending abscissae
_UNIT = 0.5 + 0.5 * _NODES  # one panel on [0, 1]
_UNIT_PAIR = np.concatenate([0.5 * _UNIT, 0.5 + 0.5 * _UNIT])  # [0, 1/2] and [1/2, 1]

DEFAULT_MAX_INTERVALS = 10_000
_LOOKAHEAD = 8  # bisected pairs per integrand call
TRUNCATION_EXPONENT = 60.0


class QuadratureResult(NamedTuple):
    value: float
    abs_error_estimate: float
    intervals: int


def _gk15(v: list, lo: float, hi: float) -> tuple:
    """(integral, error_estimate) of the panel [lo, hi] from its 15 values.

    v holds the integrand at the panel's nodes in ascending order, as Python
    floats; the Kronrod sum, the Gauss sum and resasc are plain float
    arithmetic over the folded pairs f(-x) + f(+x).  The error estimate is
    QUADPACK's resasc * min(1, (200 |resk - resg| / resasc) ** 1.5).  A value
    or error that is not finite raises QuadratureError: the running totals
    of integrate_finite could never recover from it (inf - inf is nan).
    """
    f0, f1, f2, f3, f4, f5, f6, fc, f8, f9, f10, f11, f12, f13, f14 = v
    half = 0.5 * (hi - lo)
    p1, p3, p5 = f1 + f13, f3 + f11, f5 + f9
    resk = half * (
        _K0 * (f0 + f14) + _K1 * p1 + _K2 * (f2 + f12) + _K3 * p3
        + _K4 * (f4 + f10) + _K5 * p5 + _K6 * (f6 + f8) + _KC * fc
    )
    resg = half * (_G1 * p1 + _G3 * p3 + _G5 * p5 + _GC * fc)
    m = 0.5 * resk / half if half != 0.0 else 0.0
    resasc = abs(half) * (
        _K0 * (abs(f0 - m) + abs(f14 - m)) + _K1 * (abs(f1 - m) + abs(f13 - m))
        + _K2 * (abs(f2 - m) + abs(f12 - m)) + _K3 * (abs(f3 - m) + abs(f11 - m))
        + _K4 * (abs(f4 - m) + abs(f10 - m)) + _K5 * (abs(f5 - m) + abs(f9 - m))
        + _K6 * (abs(f6 - m) + abs(f8 - m)) + _KC * abs(fc - m)
    )
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if not (math.isfinite(resk) and math.isfinite(err)):
        raise QuadratureError(
            f"integrand is not finite on [{lo!r}, {hi!r}]: "
            f"panel integral {resk!r}, error estimate {err!r}"
        )
    return resk, err


def _look_ahead(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                store: dict, panel: bool = False) -> list:
    """Sample the bisected pair of [lo, hi] and of its nested upper halves.

    One call to f takes the _LOOKAHEAD pairs of [lo, hi], [mid, hi],
    [mid', hi], ..., each at lo_k + (hi - lo_k) * _UNIT_PAIR from its own
    ends, after the single panel lo + (hi - lo) * _UNIT with panel.  Returns
    the values as Python floats; store[(lo_k, hi)] gets (values, offset).

    Another summation order (BLAS ddot, say) or other abscissae (centre +
    half * node) change only the last bits, and the printed tables can afford
    that.  t4's (g_ai 0.2, theta 2, rho 0.05) cell amplifies welfare errors
    about 9e4-fold, yet its quadrature root, 3.898045002961598e-08, lies
    7.6e-10 relative above the six-digit rounding boundary 3.898045e-08: a
    margin of about 49 ulps of W ~ 20.  Such last-bit changes move W there by
    an ulp or so, and other cells' raw roots by up to 1e-10 relative (the
    epsilon solve's tolerance, on its Newton steps and on Brent alike);
    test_quadrature::test_t4_golden_cell_keeps_its_rounding_margin
    guards the margin.
    """
    los = [lo]
    for _ in range(_LOOKAHEAD - 1):
        los.append(0.5 * (los[-1] + hi))
    col = np.array(los)[:, None]
    x = (col + (hi - col) * _UNIT_PAIR).ravel()
    if panel:
        x = np.concatenate((lo + (hi - lo) * _UNIT, x))
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise DomainError("integrand must map an array of abscissae to one value each")
    values = fx.tolist()
    start = 15 if panel else 0
    for k, lo_k in enumerate(los):
        store[lo_k, hi] = (values, start + 30 * k)
    return values


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

    Each pair of panels comes from _look_ahead's store, local to this call;
    values sampled ahead are reduced only if their interval is bisected.

    Raises QuadratureError when the subdivision budget runs out before the
    summed error estimate meets max(abs_tol, rel_tol * |integral|), or when a
    panel it reduces is not finite.
    """
    if not abs_tol > 0.0 and not rel_tol > 0.0:
        raise DomainError("at least one of abs_tol, rel_tol must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    store: dict = {}
    value, err = _gk15(_look_ahead(f, a, b, store, panel=True)[:15], a, b)
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
        if (lo, hi) not in store:
            _look_ahead(f, lo, hi, store)
        values, i = store.pop((lo, hi))
        v1, e1 = _gk15(values[i:i + 15], lo, mid)
        v2, e2 = _gk15(values[i + 15:i + 30], mid, hi)
        total_value += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        count += 1
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))


def integrate_transformed(
    flow: Callable[[np.ndarray], np.ndarray],
    excess_weight: Callable[[np.ndarray], np.ndarray],
    rate: float,
) -> QuadratureResult:
    """int_0^inf flow(t) * excess_weight(t) * e^(-rate t) dt for rate > 0, to 1e-10.

    excess_weight is the weight with the pure exponential discount divided
    out (identically 1 for plain discounting); it must stay bounded by 1-ish
    so the transformed integrand remains O(flow).  Both legs share one
    DEFAULT_MAX_INTERVALS budget, and each takes half the 1e-10 tolerance.
    """
    if not rate > 0.0:
        raise DomainError(f"transform rate must be > 0, got {rate!r}")
    # the x -> t map is ill-conditioned within ~1e-12 of x = 1, so the
    # transform leg stops there and a plain t-space leg covers the rest of
    # the horizon out to cumulative exponent 60
    x_split = 1.0 - 1e-12
    t_split = -math.log1p(-x_split) / rate
    t_max = TRUNCATION_EXPONENT / rate

    neg_inv_rate = -1.0 / rate

    def transformed(x: np.ndarray) -> np.ndarray:
        t = np.log1p(-x) * neg_inv_rate
        return flow(t) * excess_weight(t) / rate

    def direct(t: np.ndarray) -> np.ndarray:
        return flow(t) * excess_weight(t) * np.exp(-rate * t)

    head = integrate_finite(
        transformed, 0.0, x_split,
        abs_tol=5e-11, rel_tol=5e-11, max_intervals=DEFAULT_MAX_INTERVALS,
    )
    mid = integrate_finite(
        direct, t_split, t_max,
        abs_tol=5e-11, rel_tol=5e-11, max_intervals=DEFAULT_MAX_INTERVALS - head.intervals,
    )
    # the clipped tail is below e^-60 * |flow * excess|; charge a bound
    # against the error estimate rather than pretending it is zero
    t_tail = np.array([t_max])
    tail_sample = abs(float((flow(t_tail) * excess_weight(t_tail))[0]))
    tail_bound = 2.0 * tail_sample * math.exp(-TRUNCATION_EXPONENT) / rate
    return QuadratureResult(
        head.value + mid.value,
        head.abs_error_estimate + mid.abs_error_estimate + tail_bound,
        head.intervals + mid.intervals,
    )
