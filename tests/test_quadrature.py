import heapq
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tai_welfare import (
    DomainError,
    Preferences,
    QuadratureError,
    ScenarioSpec,
    quadrature,
    solve_epsilon_mounting,
)
from tai_welfare.quadrature import (
    DEFAULT_MAX_INTERVALS,
    QuadratureResult,
    integrate_finite,
    integrate_transformed,
)
from tai_welfare.welfare import _mounting_quadrature
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
    # integrate_transformed runs at the one tolerance 1e-10
    result = integrate_transformed(lambda t: 10.0 + t, lambda t: np.ones_like(t), 0.01)
    assert result.abs_error_estimate <= max(1e-10, 1e-10 * abs(result.value)) * 2.0


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


def _welfare_legs(spec, epsilon):
    """(integrand, a, b, kwargs) of both legs of _mounting_quadrature(spec, epsilon)."""
    legs = []

    def capture(f, a, b, **kwargs):
        legs.append((f, a, b, kwargs))
        return QuadratureResult(0.0, 0.0, 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "integrate_finite", capture)
        _mounting_quadrature(spec, epsilon)
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
def test_bisection_panels_match_one_panel_calls(integrand, c0):
    """Each bisected panel is the GK15 rule over the values it sampled, to rounding.

    A look-ahead call samples a chain of pairs; each pair's abscissae and
    values are bit for bit those of the pair sampled alone.  Each panel's
    integral lies within gamma_17 * half * sum |w_i f_i| of the exact
    (Fraction) GK15 sum over the same floats, and its error estimate within
    the range that rounding of the same size allows.
    """
    if integrand == "mounting":
        # both legs at t4's (0.2, 2, 0.05) cell, at its root and at 1e-3
        spec = make_spec(c0, theta=2.0, g_ai=0.2, rho=0.05)
        legs = [leg[:3] for eps in (3.8980450030e-08, 1e-3) for leg in _welfare_legs(spec, eps)]
    else:
        legs = [(INTEGRANDS[integrand], a, b) for a, b in ((0.0, 1.0), (0.0, 30.0), (-2.5, 7.0))]
    rng = np.random.default_rng(3)
    for f, a, b in legs:
        cuts = [(a, b)] + [tuple(sorted(rng.uniform(a, b, 2))) for _ in range(20)]
        for lo, hi in cuts:
            samples, store = [], {}
            quadrature._look_ahead(_recording(f, samples), lo, hi, store)
            [(x, fx)] = samples
            assert len(store) == quadrature._LOOKAHEAD and next(iter(store)) == (lo, hi)
            for (p_lo, p_hi), (values, i) in store.items():
                alone = p_lo + (p_hi - p_lo) * quadrature._UNIT_PAIR
                assert x[i:i + 30].tobytes() == alone.tobytes()
                assert fx[i:i + 30].tobytes() == np.asarray(f(alone), dtype=float).tobytes()
                assert values[i:i + 30] == fx[i:i + 30].tolist()
            # the pair of [lo, hi] itself, panel by panel
            values, i = store[lo, hi]
            mid = 0.5 * (lo + hi)
            for k, (p_lo, p_hi) in enumerate(((lo, mid), (mid, hi))):
                v = values[i + 15 * k:i + 15 * k + 15]
                assert np.all((p_lo < x[i + 15 * k:i + 15 * k + 15]) & (x[i + 15 * k:i + 15 * k + 15] < p_hi))
                panel = quadrature._gk15(v, p_lo, p_hi)
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
    # right length for the first panel alone, wrong for its look-ahead call
    with pytest.raises(DomainError):
        integrate_finite(lambda x: np.abs(x - 0.3)[:15], 0.0, 1.0)


def test_reversed_interval_negates_the_integral():
    # its abscissae round differently, so only the last bits may differ
    forward = integrate_finite(lambda x: np.exp(-x), 0.0, 3.0)
    backward = integrate_finite(lambda x: np.exp(-x), 3.0, 0.0)
    assert backward.value == pytest.approx(-forward.value, rel=1e-14)
    assert backward.abs_error_estimate == pytest.approx(forward.abs_error_estimate, rel=0.01)
    assert backward.intervals == forward.intervals


def _reference_integrate_finite(f, a, b, *, abs_tol=1e-10, rel_tol=1e-10,
                                max_intervals=DEFAULT_MAX_INTERVALS):
    """integrate_finite as a one-call-per-bisection loop, without look-ahead.

    Each bisection samples its own pair lo + (hi - lo) * _UNIT_PAIR in one
    call to f; the greedy, the termination test, the budget and the panel
    reduction quadrature._gk15 are integrate_finite's.
    """
    def panels(lo, hi, unit):
        x = lo + (hi - lo) * unit
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape:
            raise DomainError("integrand must map an array of abscissae to one value each")
        values = fx.tolist()
        if len(values) == 15:
            return [quadrature._gk15(values, lo, hi)]
        mid = 0.5 * (lo + hi)
        return [quadrature._gk15(values[:15], lo, mid), quadrature._gk15(values[15:], mid, hi)]

    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    [(value, err)] = panels(a, b, quadrature._UNIT)
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
        (v1, e1), (v2, e2) = panels(lo, hi, quadrature._UNIT_PAIR)
        total_value += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        count += 1
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))


def _outcome(integrate, f, a, b, **kwargs):
    """(repr of the result or of the QuadratureError, panels reduced, calls to f)."""
    seen = {"panels": 0, "calls": 0}
    gk15 = quadrature._gk15

    def counted_panel(v, lo, hi):
        seen["panels"] += 1
        return gk15(v, lo, hi)

    def counted_f(x):
        seen["calls"] += 1
        return f(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_gk15", counted_panel)
        try:
            out = repr(integrate(counted_f, a, b, **kwargs))
        except QuadratureError as exc:
            out = repr(exc)
    return out, seen["panels"], seen["calls"]


NON_FINITE = {
    "nan": (lambda x: np.full_like(x, np.nan), 0.0, 1.0),
    "pole": (lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0),
}
WELFARE_OVERFLOW = ScenarioSpec(c0=2.0, g_ai=5.0, prefs=Preferences(rho=0.05, theta_rra=0.5))


@pytest.mark.parametrize("case", ["nan", "pole", "welfare_overflow"])
def test_non_finite_integrand_raises_on_the_call_that_returns_it(case):
    """A nan or inf panel stops the quadrature at once instead of using up the budget.

    The call that raises is the panel reduction of the first non-finite
    panel the greedy takes, on the same bisection as in the one-call-per-
    bisection loop.  The nan and pole integrands are non-finite on the first
    panel.  The welfare integrand (theta 0.5, g_ai 5, eps 1e-6) first
    overflows on the 13th bisection of its transformed leg, the 14th call to
    f without look-ahead, as the greedy bisects towards x = 1.
    """
    with np.errstate(all="ignore"):
        if case == "welfare_overflow":
            f, a, b, kwargs = _welfare_legs(WELFARE_OVERFLOW, 1e-6)[0]
        else:
            (f, a, b), kwargs = NON_FINITE[case], {}
        out, panels, calls = _outcome(integrate_finite, f, a, b, **kwargs)
        ref_out, ref_panels, ref_calls = _outcome(_reference_integrate_finite, f, a, b, **kwargs)
    assert "not finite on" in out and out == ref_out
    # the first panel is reduction 1; bisection k reduces 2k and 2k + 1
    assert panels == ref_panels
    assert panels // 2 == {"nan": 0, "pole": 0, "welfare_overflow": 13}[case]
    assert ref_calls == panels // 2 + 1 and calls <= ref_calls


def test_non_finite_values_sampled_ahead_are_never_reduced():
    """Values that only the look-ahead sampled change nothing unless bisected.

    x^2 on [0, 1] is exact on its first panel, whose last node is 0.99573;
    the look-ahead call also samples the nested pairs towards 1, whose nodes
    beyond 0.9958 are inf here.  The result, and the warnings, are those of
    the one-call-per-bisection loop.
    """
    samples = []
    f = _recording(lambda x: np.where(x > 0.9958, np.inf, x**2), samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = integrate_finite(f, 0.0, 1.0)
        reference = _reference_integrate_finite(f, 0.0, 1.0)
    assert repr(result) == repr(reference) and result.intervals == 1
    assert np.isinf(samples[0][1]).any()


_THETAS = st.one_of(st.sampled_from([1.0, 1.0001]), st.floats(1.001, 3.0))


@settings(max_examples=40)
@given(theta=_THETAS, g_ai=st.floats(0.01, 0.5), rho=st.floats(0.005, 0.1),
       log_eps=st.floats(-11.0, -2.0))
def test_look_ahead_matches_one_call_per_bisection_on_welfare_legs(c0, theta, g_ai, rho, log_eps):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    for f, a, b, kwargs in _welfare_legs(spec, 10.0**log_eps):
        out, panels, _ = _outcome(integrate_finite, f, a, b, **kwargs)
        assert (out, panels) == _outcome(_reference_integrate_finite, f, a, b, **kwargs)[:2]


@settings(max_examples=40)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=40),
    rate=st.floats(0.01, 50.0),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
def test_look_ahead_matches_one_call_per_bisection_on_polynomials_and_exponentials(
    coeffs, rate, a, b
):
    for f in (np.polynomial.Polynomial(coeffs), lambda x: np.exp(-rate * x)):
        out, panels, _ = _outcome(integrate_finite, f, a, b)
        assert (out, panels) == _outcome(_reference_integrate_finite, f, a, b)[:2]


@settings(max_examples=30)
@given(theta=_THETAS, g_ai=st.floats(0.01, 0.5), rho=st.floats(0.005, 0.1),
       log_eps=st.floats(-11.0, -2.0), share=st.floats(0.0, 1.0))
def test_look_ahead_runs_out_of_budget_on_the_same_interval(
    c0, theta, g_ai, rho, log_eps, share
):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    f, a, b, _ = _welfare_legs(spec, 10.0**log_eps)[0]
    needed = _reference_integrate_finite(f, a, b).intervals
    assume(needed > 1)
    # a budget of 1 .. needed - 1 intervals runs out before the leg converges
    max_intervals = 1 + int(share * (needed - 2))
    out, panels, _ = _outcome(integrate_finite, f, a, b, max_intervals=max_intervals)
    assert out.startswith("QuadratureError('quadrature needs more than")
    assert panels == 2 * max_intervals - 1
    assert (out, panels) == _outcome(
        _reference_integrate_finite, f, a, b, max_intervals=max_intervals
    )[:2]


def test_t4_cells_make_at_most_300_integrand_calls(c0, monkeypatch):
    # each call samples a bisected pair and its nested upper halves: 254
    # calls for the 40 cells (1,242 with one call per bisection)
    from tai_welfare.config import RunConfig
    from tai_welfare.tables import TABLES

    calls = []

    def counting(f, a, b, **kwargs):
        def g(x):
            calls.append(len(x))
            return f(x)
        return integrate_finite(g, a, b, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_finite", counting)
    config = RunConfig()
    cells = 0
    for theta in TABLES["t4"].theta_set:
        for g_ai in config.g_ai_grid:
            for rho in config.rho_grid:
                assert solve_epsilon_mounting(make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)).is_value
                cells += 1
    assert cells == 40 and len(calls) <= 300


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
    w = _mounting_quadrature(spec, 3.8980449625e-08)
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
