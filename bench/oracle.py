"""40-digit mpmath oracle for the indifference conditions of the sweep.

The welfare integrals are written out here from their definitions, in
mpmath, without calling the program: flow utility u(C) = (C^q - 1) / q with
q = 1 - theta (log C at q = 0), consumption C(t) = c0 e^(g t), discount
rate rho.  A solved threshold passes when the risky welfare at it equals the
no-takeover welfare W0 to within REL_TOL * max(1, |W0|), the tolerance the
program's solvers promise.  A sentinel outcome passes when the condition it
reports holds (up to SLACK at the boundary between two outcomes).
"""

from __future__ import annotations

import mpmath as mp

REL_TOL = 1e-8
SLACK = 1e-9
DIGITS = 40
BAND = 1e-12  # the solvers' boundary band around probabilities 0 and 1
T_MAX = 1e6  # the time solvers' admissible window is [0, T_MAX]
RESOLUTION = 16 * 2.0**-52  # a few units in the last place of a double


def _w(lam, g, r, q, horizon=None):
    """int_0^H e^(-r t) u(c0 e^(g t)) dt with lam = log c0; H = None is infinity."""
    if horizon is None:
        if q == 0:
            return lam / r + g / r**2
        return (mp.exp(q * lam) / (r - q * g) - 1 / r) / q
    h = horizon
    if q == 0:
        e = -mp.expm1(-r * h) / r
        return lam * e + g * (e - h * mp.exp(-r * h)) / r
    a = r - q * g
    return (mp.exp(q * lam) * (-mp.expm1(-a * h) / a) - (-mp.expm1(-r * h) / r)) / q


def _w_scale(lam, g, r, q):
    """Size of the terms the closed form for W cancels; its double error is ~eps times this."""
    if q == 0:
        return abs(lam) / r + g / r**2
    return (mp.exp(q * lam) / abs(r - q * g) + 1 / r) / abs(q)


def _probability_outcomes(p) -> set:
    tags = set()
    if p < BAND + SLACK:
        tags.add("no_tai_preferred")
    if p > 1 + BAND - SLACK:
        tags.add("tai_preferred")
    if -BAND - SLACK <= p <= 1 + BAND + SLACK:
        tags.add("value")
    return tags


def _time_outcomes(target, w_sup, w_at_max) -> set:
    tags = set()
    if target < BAND + SLACK:
        tags.add("no_tai_preferred")
    if target >= w_sup * (1 - SLACK) or w_at_max <= target * (1 + SLACK):
        tags.add("no_solution")
    if -BAND - SLACK < target < w_sup * (1 + SLACK) and w_at_max > target * (1 - SLACK):
        tags.add("value")
    return tags


def check_outcome(kind: str, params: dict, c0: float, g_baseline: float, tag: str, value) -> str | None:
    """Why one solver outcome disagrees with the 40-digit oracle, or None."""
    with mp.workdps(DIGITS):
        lam = mp.log(mp.mpf(c0))
        r = mp.mpf(params["rho"])
        q = 1 - mp.mpf(params["theta"])
        g = mp.mpf(params["g_ai"])
        p3, p4, horizon = (mp.mpf(params[k]) for k in ("p3", "p4", "T"))
        w0 = _w(lam, mp.mpf(g_baseline), r, q)
        w_a = _w(lam, g, r, q)
        if kind == "extinction_time":
            allowed = _time_outcomes(w0, w_a, _w(lam, g, r, q, T_MAX))
            risky = (lambda x: _w(lam, g, r, q, x))
        elif kind == "T_delayed":
            keep = 1 - p3
            target = (w0 - keep * (1 - p4) * w_a) / (keep * p4)
            allowed = _time_outcomes(target, w_a, _w(lam, g, r, q, T_MAX))
            risky = (lambda x: keep * (p4 * _w(lam, g, r, q, x) + (1 - p4) * w_a))
        elif kind == "p3_immediate":
            allowed = _probability_outcomes(1 - w0 / w_a)
            risky = (lambda x: (1 - x) * w_a)
        elif kind == "p3_delayed":
            mix = p4 * _w(lam, g, r, q, horizon) + (1 - p4) * w_a
            allowed = {"no_tai_preferred"} if mix <= 0 else _probability_outcomes(1 - w0 / mix)
            risky = (lambda x: (1 - x) * mix)
        else:  # p4_delayed
            w_b = _w(lam, g, r, q, horizon)
            spread = w_a - w_b
            if p3 >= 1:
                allowed = {"no_tai_preferred"}
            elif spread <= 0:
                allowed = {"no_solution"}
            else:
                allowed = _probability_outcomes((w_a - w0 / (1 - p3)) / spread)
                if spread <= RESOLUTION * _w_scale(lam, g, r, q):
                    # the solver documents this case: delayed doom so late that
                    # it is indistinguishable from cornucopia in double precision
                    allowed.add("no_solution")
            risky = (lambda x: (1 - p3) * (x * w_b + (1 - x) * w_a))
        if tag not in allowed:
            return f"outcome {tag} but the oracle allows {sorted(allowed)}"
        if tag != "value":
            return None
        resid = abs(risky(mp.mpf(value)) - w0) / max(mp.mpf(1), abs(w0))
        return None if resid <= REL_TOL else f"indifference residual {float(resid):.3g}"
