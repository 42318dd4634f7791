import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tai_welfare import (
    DomainError,
    Preferences,
    QuadratureError,
    ScenarioSpec,
    quadrature,
    solve_epsilon_mounting,
    welfare_mounting,
)
from tai_welfare.quadrature import (
    QuadratureResult,
    _gk15_panels,
    integrate_finite,
    integrate_transformed,
)
from conftest import make_spec


def test_polynomial_is_exact_on_one_panel():
    result = integrate_finite(lambda x: x**8, 0.0, 1.0)
    assert result.value == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert result.intervals == 1


def test_known_antiderivatives():
    cases = [
        (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        (lambda x: np.exp(-x), 0.0, 30.0, 1.0 - math.exp(-30.0)),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    ]
    for f, a, b, expected in cases:
        result = integrate_finite(f, a, b, abs_tol=1e-12, rel_tol=1e-12)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.abs_error_estimate <= max(1e-12, 1e-12 * abs(expected))


def test_error_estimate_is_honest_on_kink():
    result = integrate_finite(lambda x: np.abs(x - 0.3), 0.0, 1.0)
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert abs(result.value - exact) <= result.abs_error_estimate + 1e-12


def test_log_endpoint_singularity():
    result = integrate_finite(lambda x: -np.log(x), 1e-300, 1.0, abs_tol=1e-10)
    assert result.value == pytest.approx(1.0, abs=1e-8)


def test_budget_exhaustion_raises():
    rng = np.random.default_rng(7)

    def noisy(x):
        return np.asarray(rng.standard_normal(np.shape(x)))

    with pytest.raises(QuadratureError):
        integrate_finite(noisy, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-14,
                         max_intervals=64)


def test_transform_reproduces_geometric_integral():
    result = integrate_transformed(
        lambda t: np.ones_like(t), lambda t: np.ones_like(t), 0.05
    )
    assert result.value == pytest.approx(20.0, abs=1e-10)


def test_transform_with_gamma_flow():
    # int_0^inf t^2 e^(-t) dt = 2
    result = integrate_transformed(lambda t: t * t, lambda t: np.ones_like(t), 1.0)
    assert result.value == pytest.approx(2.0, rel=1e-12)


def test_transform_with_gaussian_excess():
    # int_0^inf e^(-t) e^(-t^2/2) dt = sqrt(pi/2) e^(1/2) erfc(1/sqrt 2)
    from tai_welfare import erfcx

    expected = math.sqrt(math.pi / 2.0) * erfcx(1.0 / math.sqrt(2.0))
    result = integrate_transformed(
        lambda t: np.ones_like(t), lambda t: np.exp(-0.5 * t * t), 1.0
    )
    assert result.value == pytest.approx(expected, rel=1e-11)


def test_requested_tolerance_bounds_error_estimate():
    result = integrate_transformed(
        lambda t: 10.0 + t, lambda t: np.ones_like(t), 0.01,
        abs_tol=1e-9, rel_tol=1e-9,
    )
    assert result.abs_error_estimate <= max(1e-9, 1e-9 * abs(result.value)) * 2.0


U = Fraction(1, 2**53)  # unit roundoff of binary64


def _gamma(n):
    # Higham's gamma_n = n u / (1 - n u): the relative error bound of n roundings
    return n * U / (1 - n * U)


def _exact_gk15(values, half):
    """Exact GK15 sums over the sampled floats: (resk, resg, resasc, scale_k, scale_g)."""
    f = [Fraction(v) for v in values]
    h = Fraction(half)
    wgk = [Fraction(w) for w in quadrature._WGK]
    wg = [Fraction(w) for w in quadrature._WG]
    kron = [(wgk[i], f[i], f[14 - i]) for i in range(7)]
    gauss = [(wg[j], f[2 * j + 1], f[13 - 2 * j]) for j in range(3)]
    resk = h * (sum(w * (a + b) for w, a, b in kron) + wgk[7] * f[7])
    resg = h * (sum(w * (a + b) for w, a, b in gauss) + wg[3] * f[7])
    scale_k = abs(h) * (sum(w * (abs(a) + abs(b)) for w, a, b in kron) + wgk[7] * abs(f[7]))
    scale_g = abs(h) * (sum(w * (abs(a) + abs(b)) for w, a, b in gauss) + wg[3] * abs(f[7]))
    m = resk / (2 * h)
    resasc = abs(h) * (
        sum(w * (abs(a - m) + abs(b - m)) for w, a, b in kron) + wgk[7] * abs(f[7] - m)
    )
    return resk, resg, resasc, scale_k, scale_g


def _qk15_error(d, resasc):
    # QUADPACK's error formula, as integrate_finite applies it
    if resasc != 0.0 and d != 0.0:
        return resasc * min(1.0, (200.0 * d / resasc) ** 1.5)
    return d


def _error_estimate_range(exact, half):
    """[lo, hi] holding every error estimate that GK15 rounding can give.

    |resk - resg| and resasc are each within a gamma_17 bound of their exact
    values; the error formula increases in |resk - resg| and, in resasc, rises
    to 200 |resk - resg| and falls after it, so its extremes on that box sit
    at the corners or at that turning point.  exact is _exact_gk15's tuple.
    """
    resk, resg, resasc, scale_k, scale_g = exact
    g = _gamma(17)
    d = abs(resk - resg)
    d_tol = g * (scale_k + scale_g) + 2 * U * (d + g * (scale_k + scale_g))
    # the float mean resk / (2 half) moves every |f - mean| by at most m_tol
    m_tol = g * scale_k / (2 * abs(Fraction(half))) + 2 * U * abs(resk / (2 * Fraction(half)))
    weights = 2 * sum(Fraction(w) for w in quadrature._WGK[:7]) + Fraction(quadrature._WGK[7])
    shift = abs(Fraction(half)) * weights * m_tol
    a_tol = shift + g * (resasc + shift)
    d_lo, d_hi = float(max(d - d_tol, 0)), float(d + d_tol)
    a_lo, a_hi = float(max(resasc - a_tol, 0)), float(resasc + a_tol)
    turn = min(max(200.0 * d_hi, a_lo), a_hi)
    highs = [_qk15_error(d_hi, a) for a in (a_lo, turn, a_hi)]
    lows = [_qk15_error(d_lo, a) for a in (a_lo, a_hi)]
    # the formula's own four roundings, with pow's 1.5 amplification
    return min(lows) * (1 - 8 * 2.0**-53), max(highs) * (1 + 8 * 2.0**-53)


def _mounting_legs(monkeypatch, c0):
    """(integrand, a, b) of both legs of welfare_mounting at t4's (0.2, 2, 0.05) cell."""
    legs = []

    def capture(f, a, b, **kwargs):
        legs.append((f, a, b))
        return QuadratureResult(0.0, 0.0, 1)

    monkeypatch.setattr(quadrature, "integrate_finite", capture)
    spec = make_spec(c0, theta=2.0, g_ai=0.2, rho=0.05)
    for eps in (3.8980450030e-08, 1e-3):
        welfare_mounting(spec, eps)
    return legs


INTEGRANDS = {
    "polynomial": lambda x: 3.0 * x**5 - x**2 + 0.5,
    "exp": lambda x: np.exp(-x),
}


def _recording(f, samples):
    def g(x):
        y = f(x)
        samples.append((np.array(x), np.array(y, dtype=float)))
        return y
    return g


@pytest.mark.parametrize("integrand", ["polynomial", "exp", "mounting"])
def test_bisection_panels_match_one_panel_calls(integrand, monkeypatch, c0):
    """Each bisected panel is the GK15 rule over the values it sampled, to rounding.

    Its integral lies within gamma_17 * half * sum |w_i f_i| of the exact
    (Fraction) GK15 sum over the same floats, its error estimate within the
    range that rounding of the same size allows, and reducing its 15 values
    alone gives the same bits as reducing them inside the bisection's batch.
    """
    if integrand == "mounting":
        legs = _mounting_legs(monkeypatch, c0)
    else:
        legs = [(INTEGRANDS[integrand], a, b) for a, b in ((0.0, 1.0), (0.0, 30.0), (-2.5, 7.0))]
    rng = np.random.default_rng(3)
    for f, a, b in legs:
        cuts = [(a, b)] + [tuple(sorted(rng.uniform(a, b, 2))) for _ in range(20)]
        for lo, hi in cuts:
            mid = 0.5 * (lo + hi)
            samples = []
            both = _gk15_panels(_recording(f, samples), lo, hi, quadrature._UNIT_PAIR)
            [(x, fx)] = samples
            values = fx.tolist()
            for k, (p_lo, p_hi) in enumerate(((lo, mid), (mid, hi))):
                panel, v = both[k], values[15 * k:15 * k + 15]
                assert np.all((p_lo < x[15 * k:15 * k + 15]) & (x[15 * k:15 * k + 15] < p_hi))
                assert quadrature._gk15(v, p_lo, p_hi) == panel
                half = 0.5 * (p_hi - p_lo)
                exact = _exact_gk15(v, half)
                resk, scale_k = exact[0], exact[3]
                assert abs(Fraction(panel[0]) - resk) <= _gamma(17) * scale_k
                err_lo, err_hi = _error_estimate_range(exact, half)
                assert err_lo <= panel[1] <= err_hi


def test_unit_grids_keep_every_node_inside_its_panel():
    unit, pair = quadrature._UNIT, quadrature._UNIT_PAIR
    assert unit.shape == (15,) and pair.shape == (30,)
    assert np.all(np.diff(unit) > 0.0) and 0.0 < unit[0] and unit[-1] < 1.0
    assert np.all(np.diff(pair) > 0.0) and 0.0 < pair[0] and pair[-1] < 1.0
    assert pair[14] < 0.5 < pair[15]


def test_integrand_of_wrong_length_raises():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x[:-1], 0.0, 1.0)
    # right length for one panel, wrong for the first bisection's two
    with pytest.raises(DomainError):
        integrate_finite(lambda x: np.abs(x - 0.3)[:15], 0.0, 1.0)


def test_reversed_interval_negates_the_integral():
    # its abscissae round differently, so only the last bits may differ
    forward = integrate_finite(lambda x: np.exp(-x), 0.0, 3.0)
    backward = integrate_finite(lambda x: np.exp(-x), 3.0, 0.0)
    assert backward.value == pytest.approx(-forward.value, rel=1e-14)
    assert backward.abs_error_estimate == pytest.approx(forward.abs_error_estimate, rel=0.01)
    assert backward.intervals == forward.intervals


NON_FINITE = {
    "nan": (lambda x: np.full_like(x, np.nan), 0.0, 1.0),
    "pole": (lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0),
}


def _counting_panels(monkeypatch):
    """Patch _gk15_panels to count integrand calls and note the first non-finite one."""
    seen = {"calls": 0, "first_non_finite": None}
    panels = quadrature._gk15_panels

    def counted(f, lo, hi, unit):
        def g(x):
            y = f(x)
            seen["calls"] += 1
            if seen["first_non_finite"] is None and not np.all(np.isfinite(y)):
                seen["first_non_finite"] = seen["calls"]
            return y
        return panels(g, lo, hi, unit)

    monkeypatch.setattr(quadrature, "_gk15_panels", counted)
    return seen


@pytest.mark.parametrize("case", ["nan", "pole", "welfare_overflow"])
def test_non_finite_integrand_raises_on_the_call_that_returns_it(case, monkeypatch):
    """A nan or inf panel stops the quadrature at once instead of using up the budget.

    The nan and pole integrands are non-finite on their first call.  The
    welfare integrand (theta 0.5, g_ai 5, eps 1e-6) first overflows on the
    14th call, as the transformed leg bisects towards x = 1.
    """
    seen = _counting_panels(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="not finite on"):
        if case == "welfare_overflow":
            spec = ScenarioSpec(c0=2.0, g_ai=5.0, prefs=Preferences(rho=0.05, theta_rra=0.5))
            welfare_mounting(spec, 1e-6)
        else:
            f, a, b = NON_FINITE[case]
            integrate_finite(f, a, b)
    assert seen["calls"] == seen["first_non_finite"]
    if case != "welfare_overflow":
        assert seen["calls"] <= 2


def test_t4_golden_cell_keeps_its_rounding_margin(c0):
    """t4's (g_ai 0.2, theta 2, rho 0.05) cell still rounds to the golden 3.89805e-08.

    The cell amplifies welfare errors about 9e4-fold, and its golden holds the
    quadrature's rounding, not the 40-digit root 3.8980449625e-08 (which
    prints 3.89804e-08).  So the welfare there must stay within 16 ulps of
    19.999684788969635, and the quadrature root at least 5e-10 relative above
    the rounding boundary 3.898045e-08 (it is 7.6e-10).  ROADMAP item 1
    deletes this test when it re-captures bench/golden/t4.csv from the
    40-digit oracle.
    """
    spec = make_spec(c0, theta=2.0, g_ai=0.2, rho=0.05)
    w = welfare_mounting(spec, 3.8980449625e-08).value
    assert abs(w - 19.999684788969635) <= 16 * math.ulp(19.999684788969635)
    root = solve_epsilon_mounting(spec).value
    assert (root - 3.898045e-08) / 3.898045e-08 >= 5e-10
    assert f"{root:.6g}" == "3.89805e-08"


def _rounding_slack(scale, n):
    # gamma_n * scale as a float, rounded up
    return float(_gamma(n) * Fraction(scale)) * (1.0 + 2.0**-52)


@settings(max_examples=100)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=14),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
def test_polynomials_up_to_degree_13_are_exact_on_one_panel(coeffs, a, b):
    """The 7-point Gauss rule inside GK15 is exact to degree 13, so one panel suffices."""
    poly = np.polynomial.Polynomial(coeffs)
    result = integrate_finite(poly, a, b)
    a_, b_ = Fraction(a), Fraction(b)
    exact = sum(Fraction(c) * (b_ ** (k + 1) - a_ ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs))
    # rounding scale: half * sum w |p|(x), with |p| the polynomial of |coefficients|
    # on |x| <= max(|a|, |b|), and the weights summing to 2.  The rule's nodes
    # and weights are tabulated to 15 digits (the Kronrod weights sum to
    # 2 - 6.0e-15), which costs up to about 30 u * scale on top of rounding.
    reach = max(abs(a), abs(b))
    scale = abs(b - a) * sum(abs(c) * reach**k for k, c in enumerate(coeffs))
    bound = (max(1e-10, 1e-10 * abs(float(exact)))
             + _rounding_slack(scale, 17 + 2 * len(coeffs)) + 128 * 2.0**-53 * scale)
    assert result.intervals == (0 if a == b else 1)
    assert abs(Fraction(result.value) - exact) <= bound


@settings(max_examples=100)
@given(rate=st.floats(0.01, 10.0), length=st.floats(0.01, 50.0))
def test_exponential_decay_meets_the_requested_tolerance(rate, length):
    result = integrate_finite(lambda x: np.exp(-rate * x), 0.0, length)
    exact = -math.expm1(-rate * length) / rate
    # positive integrand: its panels' sum |w f| is the integral itself; the
    # running total adds three roundings per bisection
    bound = max(1e-10, 1e-10 * exact) + _rounding_slack(exact, 20 + 3 * result.intervals)
    assert abs(result.value - exact) <= bound
