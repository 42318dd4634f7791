"""Bracketed scalar root finding: Brent's method.

Every indifference condition in this package is monotone in the solved
parameter, so a sign-change bracket both exists and pins a unique root
whenever there is one.  The caller supplies the bracket: the hazard-slope
solve, the one caller, grows it upward from its domain's lower end.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DomainError

_EPS = 2.220446049250313e-16
BRENT_MAX_ITERATIONS = 200


class RootResult(NamedTuple):
    root: float
    iterations: int
    residual: float


def brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    fa: float,
    fb: float,
    rel_tol: float = 1e-10,
) -> RootResult:
    """Brent's method on a sign-change interval [a, b] with f(a) = fa, f(b) = fb.

    Inverse-quadratic / secant steps with a bisection fallback; converges to
    |interval| <= 2 eps |root| + tolerance.  Raises ConvergenceError if the
    iteration cap is hit first (which a genuine bracket never does).
    """
    if fa == 0.0:
        return RootResult(a, 0, 0.0)
    if fb == 0.0:
        return RootResult(b, 0, 0.0)
    # signs, not fa * fb, which underflows to 0 for tiny same-sign ends
    if math.isnan(fa) or math.isnan(fb) or (fa > 0.0) == (fb > 0.0):
        raise DomainError(f"f(a) and f(b) must differ in sign, got {fa!r}, {fb!r}")
    c, fc = a, fa
    d = e = b - a
    for iteration in range(1, BRENT_MAX_ITERATIONS + 1):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + rel_tol * abs(b)
        mid = 0.5 * (c - b)
        if abs(mid) <= tol or fb == 0.0:
            return RootResult(b, iteration, abs(fb))
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = mid
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * mid * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * mid * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * mid * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = mid
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        else:
            b += math.copysign(tol, mid)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(f"Brent failed to converge in {BRENT_MAX_ITERATIONS} iterations")
