import math

import numpy as np
import pytest

from tai_welfare import (
    DomainError,
    QuadratureError,
    quadrature,
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


def _gk15_reference(f, a, b):
    # the one-panel reduction that _gk15_panels must reproduce bit for bit
    half, center = 0.5 * (b - a), 0.5 * (a + b)
    fx = f(center + half * quadrature._NODES)
    wgk, wg = quadrature._WGK, quadrature._WG
    pairs = fx[:7] + fx[8:][::-1]
    resk = half * (np.dot(wgk[:7], pairs) + wgk[7] * fx[7])
    resg = half * (np.dot(wg[:3], pairs[1::2]) + wg[3] * fx[7])
    reskh = 0.5 * resk / half
    resasc = half * (
        np.dot(wgk[:7], np.abs(fx[:7] - reskh) + np.abs(fx[8:][::-1] - reskh))
        + wgk[7] * abs(fx[7] - reskh)
    )
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


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


def _hex(panel):
    return tuple(float(v).hex() for v in panel)


@pytest.mark.parametrize("integrand", ["polynomial", "exp", "mounting"])
def test_bisection_panels_match_one_panel_calls(integrand, monkeypatch, c0):
    if integrand == "mounting":
        legs = _mounting_legs(monkeypatch, c0)
    else:
        legs = [(INTEGRANDS[integrand], a, b) for a, b in ((0.0, 1.0), (0.0, 30.0), (-2.5, 7.0))]
    rng = np.random.default_rng(3)
    for f, a, b in legs:
        cuts = [(a, b)] + [tuple(sorted(rng.uniform(a, b, 2))) for _ in range(20)]
        for lo, hi in cuts:
            mid = 0.5 * (lo + hi)
            both = _gk15_panels(f, ((lo, mid), (mid, hi)))
            alone = _gk15_panels(f, ((lo, mid),)) + _gk15_panels(f, ((mid, hi),))
            reference = [_gk15_reference(f, lo, mid), _gk15_reference(f, mid, hi)]
            assert [_hex(p) for p in both] == [_hex(p) for p in alone]
            assert [_hex(p) for p in both] == [_hex(p) for p in reference]


def test_integrand_of_wrong_length_raises():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x[:-1], 0.0, 1.0)
    # right length for one panel, wrong for the first bisection's two
    with pytest.raises(DomainError):
        integrate_finite(lambda x: np.abs(x - 0.3)[:15], 0.0, 1.0)
