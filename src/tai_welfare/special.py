"""Error-function kernel: the scaled complement erfcx, plus the stdlib erf.

The mounting-hazard closed forms (expected lifespan and welfare) multiply a
huge Gaussian factor exp(z^2) by a tiny tail probability (1 - erf(z)); through
erfcx(z) = exp(z^2) * erfc(z) every intermediate stays on a sane scale, so
erfcx is the primitive here (erf is math.erf).
gauss_laplace builds the moments of the weight exp(-a t - b t^2 / 2) on it,
and gauss_laplace_shift the change a small shift of a makes to the first.

Branch layout of erfcx:
  x <  2.5           exp(x^2) * math.erfc(x), +inf once exp(x^2) overflows
  x >= 2.5           Laplace's continued fraction (modified Lentz); the product
                     would be 0 * inf once erfc underflows past x ~ 26.5
  x = +inf           0
"""

from __future__ import annotations

import math
from math import erf  # published as tai_welfare.erf

_ONE_OVER_SQRT_PI = 1.0 / math.sqrt(math.pi)
_CF_CUTOFF = 2.5
_MAX_CF_ITERATIONS = 300
_ASYMPTOTIC_Z = 50.0  # gauss_laplace sums the asymptotic series from here


def _erfcx_continued_fraction(x: float) -> float:
    # Laplace's continued fraction
    #   erfcx(x) = 1/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + ...)))))
    # evaluated by the modified Lentz algorithm; reliable for x >= ~2.
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    for k in range(1, _MAX_CF_ITERATIONS):
        a_k = 0.5 * k
        d = x + a_k * d
        if d == 0.0:
            d = tiny
        c = x + a_k / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return _ONE_OVER_SQRT_PI / f


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x)."""
    x = float(x)
    if x == math.inf:
        return 0.0
    if x >= _CF_CUTOFF:
        return _erfcx_continued_fraction(x)
    # exp(x^2) overflows near x = -26.6, where erfcx is genuinely +inf
    try:
        return math.exp(x * x) * math.erfc(x)
    except OverflowError:
        return math.inf


def gauss_laplace(a: float, b: float) -> tuple[float, float]:
    """Moments (G, H) of the weight exp(-a t - b t^2 / 2) on [0, inf), b > 0.

    G = int exp(-a t - b t^2 / 2) dt = sqrt(pi / 2b) erfcx(a / sqrt(2b)) and
    H = int t exp(-a t - b t^2 / 2) dt = (1 - a G) / b.  Once z = a / sqrt(2b)
    reaches 50, 1 - a G cancels to ~2e-16 z^2 relative, so both come from the
    asymptotic series (Abramowitz & Stegun 7.1.23) in x = b / a^2 = 1 / (2 z^2):

        a G   = 1 - x + 3 x^2 - 15 x^3 + ...  = sum (-1)^m (2m-1)!! x^m
        a^2 H = 1 - 3 x + 15 x^2 - ...        = sum (-1)^m (2m+1)!! x^m

    whose terms fall below 1e-17 within ten terms there.  A b that is zero or
    infinite, or an infinite a, is what an underflowed or overflowed product
    of finite inputs leaves, and raises OverflowError.
    """
    if not 0.0 < b < math.inf or not -math.inf < a < math.inf:
        raise OverflowError(
            f"Gaussian-Laplace moments need finite a and 0 < b < inf, got a={a!r}, b={b!r}"
        )
    z = a / math.sqrt(2.0 * b)
    if z < _ASYMPTOTIC_Z:
        g = math.sqrt(math.pi / (2.0 * b)) * erfcx(z)
        return g, (1.0 - a * g) / b
    x = b / a / a
    s0 = s1 = t0 = t1 = 1.0
    m = 0
    while abs(t1) >= 1e-17:
        m += 1
        t0 *= -(2 * m - 1) * x
        t1 *= -(2 * m + 1) * x
        s0 += t0
        s1 += t1
    return s0 / a, s1 / a / a


def gauss_laplace_shift(a: float, b: float, s: float) -> float:
    """G(a - s, b) - G(a, b) for |s| < 1e-3 a, free of the difference's cancellation.

    Below z = 50 it sums G's Taylor series in a over the moments
    M_k = int t^k exp(-a t - b t^2 / 2) dt, b M_k = (k - 1) M_(k-2) - a M_(k-1);
    that recurrence loses 2 z^2 / k per order, so from z = 50 it differences the
    asymptotic series term by term, (1 - s / a)^(-2m-1) - 1 through expm1.
    """
    if a / math.sqrt(2.0 * b) < _ASYMPTOTIC_Z:
        m_prev, m_k = gauss_laplace(a, b)
        k, power = 1, s
        total = term = s * m_k
        while abs(term) > 1e-17 * abs(total):
            k += 1
            m_prev, m_k, power = m_k, ((k - 1) * m_prev - a * m_k) / b, power * s / k
            total += (term := power * m_k)
        return total
    x, log_ratio = b / a / a, math.log1p(-s / a)
    m, coef = 0, 1.0
    total = term = math.expm1(-log_ratio)
    while abs(term) > 1e-17 * abs(total):
        m += 1
        coef *= -(2 * m - 1) * x
        total += (term := coef * math.expm1(-(2 * m + 1) * log_ratio))
    return total / a
