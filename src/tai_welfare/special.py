"""Error-function kernel: the scaled complement erfcx, plus the stdlib erf/erfc.

The expected-lifespan closed form for mounting hazards multiplies a huge
Gaussian factor exp(z^2) by a tiny tail probability (1 - erf(z)).  Evaluating
the pair through erfcx(z) = exp(z^2) * erfc(z) keeps every intermediate on a
sane scale, so erfcx is the primitive here; erf and erfc are math.erf and
math.erfc.

Branch layout of erfcx:
  x <  2.5           exp(x^2) * math.erfc(x), +inf once exp(x^2) overflows
  x >= 2.5           Laplace's continued fraction (modified Lentz); the product
                     would be 0 * inf once erfc underflows past x ~ 26.5
"""

from __future__ import annotations

import math
from math import erf, erfc

__all__ = ["erf", "erfc", "erfcx"]

_ONE_OVER_SQRT_PI = 1.0 / math.sqrt(math.pi)
_CF_CUTOFF = 2.5
_MAX_CF_ITERATIONS = 300


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
    if x >= _CF_CUTOFF:
        return _erfcx_continued_fraction(x)
    # exp(x^2) overflows near x = -26.6, where erfcx is genuinely +inf
    try:
        return math.exp(x * x) * erfc(x)
    except OverflowError:
        return math.inf
