import math

import numpy as np
import pytest

from tai_welfare import (
    DivergenceError,
    DomainError,
    Preferences,
    ScenarioSpec,
    ev_panel,
    integrate_discounted,
    lottery_value,
    welfare_cornucopia,
    welfare_mounting,
    welfare_no_takeover,
    welfare_truncated,
)
from conftest import make_spec


class TestClosedForms:
    def test_log_pure_growth(self):
        spec = ScenarioSpec(c0=1.0, g_ai=0.05,
                            prefs=Preferences(rho=0.05, theta_rra=1.0),
                            g_baseline=0.05)
        assert welfare_no_takeover(spec).value == pytest.approx(20.0, rel=1e-14)

    def test_log_baseline_value(self, c0):
        spec = make_spec(c0)
        w0 = welfare_no_takeover(spec)
        expected = math.log(c0) / 0.05 + 0.0175 / 0.05**2
        assert w0.value == pytest.approx(expected, rel=1e-14)
        assert w0.value == pytest.approx(222.16, abs=5e-3)
        assert w0.method == "closed_form"

    def test_theta_two_baseline_value(self, c0):
        spec = make_spec(c0, theta=2.0)
        expected = 1.0 / 0.05 - 1.0 / (c0 * (0.05 + 0.0175))
        assert welfare_no_takeover(spec).value == pytest.approx(expected, rel=1e-14)
        assert welfare_no_takeover(spec).value == pytest.approx(19.99968, abs=1e-5)

    def test_cornucopia_log_value(self, c0):
        spec = make_spec(c0, g_ai=0.05, rho=0.05)
        assert welfare_cornucopia(spec).value == pytest.approx(235.16, abs=5e-3)

    def test_flat_subsistence_path_is_worthless(self):
        spec = ScenarioSpec(c0=1.0, g_ai=0.0, prefs=Preferences(rho=0.05))
        assert welfare_cornucopia(spec).value == 0.0

    def test_cornucopia_dominates_baseline(self, c0, rng):
        for _ in range(50):
            rho = rng.uniform(0.002, 0.08)
            g_ai = rng.uniform(0.02, 0.4)
            theta = rng.choice([1.0, 1.5, 2.0])
            spec = make_spec(c0, theta=float(theta), g_ai=g_ai, rho=rho)
            if g_ai > spec.g_baseline:
                assert welfare_cornucopia(spec).value > welfare_no_takeover(spec).value

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            welfare_cornucopia(
                ScenarioSpec(c0=2.0, g_ai=0.3, prefs=Preferences(rho=0.05, theta_rra=0.0))
            )


class TestTruncated:
    def test_empty_horizon(self, c0):
        assert welfare_truncated(make_spec(c0), 0.0).value == 0.0

    def test_reference_crossing_points(self, c0):
        # the horizon at which truncated fast growth matches the baseline
        spec1 = make_spec(c0, theta=1.0, g_ai=0.05, rho=0.05)
        w0 = welfare_no_takeover(spec1).value
        assert welfare_truncated(spec1, 62.63).value == pytest.approx(w0, rel=2e-4)
        spec2 = make_spec(c0, theta=2.0, g_ai=0.05, rho=0.05)
        w0 = welfare_no_takeover(spec2).value
        assert welfare_truncated(spec2, 243.64).value == pytest.approx(w0, rel=1e-6)

    def test_strictly_increasing_in_horizon(self, c0, rng):
        spec = make_spec(c0, g_ai=0.2, rho=0.03)
        horizons = np.sort(rng.uniform(0.1, 500.0, size=40))
        values = [welfare_truncated(spec, float(T)).value for T in horizons]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_converges_to_cornucopia(self, c0):
        for theta in (1.0, 2.0):
            spec = make_spec(c0, theta=theta, g_ai=0.1, rho=0.03)
            w_inf = welfare_cornucopia(spec).value
            # horizon where the discounted tail is provably < 1e-9 of the total
            assert welfare_truncated(spec, 2500.0).value == pytest.approx(
                w_inf, rel=1e-6
            )


class TestQuadratureAgreement:
    def test_closed_form_vs_quadrature_grid(self, c0):
        # infinite-horizon and truncated values, both utility curvatures
        for theta in (1.0, 2.0):
            for g in (0.02, 0.05, 0.1, 0.2, 0.4):
                for rho in (0.002, 0.01, 0.03, 0.05):
                    spec = make_spec(c0, theta=theta, g_ai=g, rho=rho)
                    closed = welfare_cornucopia(spec).value
                    quad = welfare_mounting(spec, 0.0)
                    assert quad.method == "quadrature"
                    assert quad.value == pytest.approx(closed, rel=1e-8), (theta, g, rho)

    def test_truncated_vs_direct_quadrature(self, c0):
        spec = make_spec(c0, theta=2.0, g_ai=0.2, rho=0.01)
        lam, g, q = spec.log_c0, 0.2, -1.0

        def flow(t):
            return np.expm1(q * (lam + g * t)) / q

        result = integrate_discounted(
            flow, lambda t: np.exp(-0.01 * t), 0.01, horizon=150.0
        )
        closed = welfare_truncated(spec, 150.0).value
        assert result.value == pytest.approx(closed, rel=1e-10)

    def test_geometric_flow(self):
        result = integrate_discounted(
            lambda t: np.ones_like(t), lambda t: np.exp(-0.05 * t), 0.05
        )
        assert result.value == pytest.approx(20.0, abs=1e-10)


class TestMounting:
    def test_zero_hazard_equals_cornucopia(self, c0):
        spec = make_spec(c0, g_ai=0.1, rho=0.03)
        assert welfare_mounting(spec, 0.0).value == pytest.approx(
            welfare_cornucopia(spec).value, rel=1e-8
        )

    def test_value_between_zero_and_cornucopia(self):
        spec = ScenarioSpec(c0=1.0, g_ai=0.05, prefs=Preferences(rho=0.05))
        w = welfare_mounting(spec, 1e-4).value
        assert 0.0 < w < welfare_cornucopia(spec).value

    def test_strictly_decreasing_in_epsilon(self, c0):
        spec = make_spec(c0, g_ai=0.2, rho=0.03)
        eps_grid = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)
        values = [welfare_mounting(spec, e).value for e in eps_grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_against_fixed_step_simpson(self, c0):
        # brute-force oracle on a dense grid
        spec = make_spec(c0, theta=1.0001, g_ai=0.2, rho=0.05)
        eps = 8.8842e-4
        lam, g, q = spec.log_c0, 0.2, 1.0 - 1.0001
        upper = 2500.0
        t = np.linspace(0.0, upper, 1_000_001)
        flow = np.expm1(q * (lam + g * t)) / q
        weight = np.exp(-0.05 * t - eps * (lam * t + 0.5 * g * t * t))
        y = flow * weight
        h = t[1] - t[0]
        simpson = h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())
        assert welfare_mounting(spec, eps).value == pytest.approx(simpson, rel=1e-7)

    @pytest.mark.parametrize("theta", [1.0, 1.0001, 2.0])
    def test_against_mpmath_oracle(self, c0, theta):
        for g_ai in (0.05, 0.4):
            for rho in (0.002, 0.05):
                spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
                for eps in (1e-11, 1e-8, 1e-5, 1e-3):
                    assert welfare_mounting(spec, eps).value == pytest.approx(
                        _mounting_oracle(spec, eps), rel=1e-10
                    ), (g_ai, rho, eps)

    def test_boundedness_theta_above_one(self, c0, rng):
        for _ in range(20):
            theta = float(rng.uniform(1.2, 3.0))
            rho = float(rng.uniform(0.005, 0.06))
            spec = make_spec(c0, theta=theta, g_ai=0.2, rho=rho)
            bound = 1.0 / ((theta - 1.0) * rho)
            assert welfare_mounting(spec, 1e-4).value < bound
            assert welfare_cornucopia(spec).value < bound


def _mounting_oracle(spec, epsilon):
    """40-digit W = int e^(-rho t) u(c0 e^(g t)) e^(-eps (lam t + g t^2 / 2)) dt.

    With b = eps g, a0 = rho + eps lam and the Gaussian-tail primitive
    G(a, b) = sqrt(pi / 2b) erfcx(a / sqrt(2b)), W = [e^(q lam) G(a0 - q g, b)
    - G(a0, b)] / q for q = 1 - theta, and lam G + g (1 - a0 G) / b at q = 0.
    """
    from mpmath import mp, mpf

    with mp.workdps(40):
        lam, g = mp.log(mpf(spec.c0)), mpf(spec.g_ai)
        q = 1 - mpf(spec.prefs.theta_rra)
        b = mpf(epsilon) * g
        a0 = mpf(spec.prefs.rho) + mpf(epsilon) * lam

        def G(a):
            z = a / mp.sqrt(2 * b)
            return mp.sqrt(mp.pi / (2 * b)) * mp.exp(z * z) * mp.erfc(z)

        if q == 0:
            w = lam * G(a0) + g * (1 - a0 * G(a0)) / b
        else:
            w = (mp.exp(q * lam) * G(a0 - q * g) - G(a0)) / q
        return float(w)


def lottery(spec, p3, p4=0.0, T=0.0):
    w_a = welfare_cornucopia(spec).value
    return lottery_value(w_a, welfare_truncated(spec, T).value, p3, p4)


class TestLotteries:
    def test_immediate_lottery_endpoints(self, c0):
        for p3, factor in ((0.0, 1.0), (1.0, 0.0)):
            spec = make_spec(c0)
            w_a = welfare_cornucopia(spec).value
            assert lottery(spec, p3) == pytest.approx(factor * w_a, abs=1e-12)

    def test_immediate_lottery_reference_cell(self, c0):
        spec = make_spec(c0, g_ai=0.05, rho=0.05)
        w0 = welfare_no_takeover(spec).value
        assert lottery(spec, 0.055282) == pytest.approx(w0, rel=1e-6)

    def test_delayed_lottery_endpoints(self, c0):
        spec = make_spec(c0)
        assert lottery(spec, 0.0, 0.0, 10.0) == pytest.approx(
            welfare_cornucopia(spec).value, rel=1e-14
        )
        assert lottery(spec, 0.0, 1.0, 10.0) == pytest.approx(
            welfare_truncated(spec, 10.0).value, rel=1e-14
        )

    def test_delayed_lottery_reference_cell(self, c0):
        # t3c reference cell: doom at T = 355.307 makes the lottery worth W0
        spec = make_spec(c0, g_ai=0.05, rho=0.002)
        w0 = welfare_no_takeover(spec).value
        assert lottery(spec, 0.3, 0.3, 355.307) == pytest.approx(w0, rel=1e-5)

    def test_decreasing_in_lottery_probabilities(self, c0, rng):
        spec = make_spec(c0, g_ai=0.2, rho=0.03)
        for _ in range(30):
            p3, p4 = rng.uniform(0.0, 0.9, size=2)
            T = float(rng.uniform(1.0, 200.0))
            base = lottery(spec, p3, p4, T)
            assert lottery(spec, min(p3 + 0.05, 1.0), p4, T) < base
            assert lottery(spec, p3, min(p4 + 0.05, 1.0), T) < base

    def test_missing_lottery_raises(self, c0):
        spec = make_spec(c0)
        with pytest.raises(DomainError):
            ev_panel(spec, "c", p3=0.1, T=50.0)  # no p4


class TestValidation:
    def test_rejects_sub_subsistence_c0(self):
        with pytest.raises(DomainError):
            ScenarioSpec(c0=0.5, g_ai=0.05, prefs=Preferences())

    def test_rejects_negative_growth(self):
        with pytest.raises(DomainError):
            ScenarioSpec(c0=2.0, g_ai=-0.01, prefs=Preferences())

    def test_rejects_non_finite(self):
        for name in ("c0", "g_ai", "g_baseline"):
            for value in (math.nan, math.inf):
                fields = {"c0": 2.0, "g_ai": 0.05, name: value}
                with pytest.raises(DomainError, match=name):
                    ScenarioSpec(prefs=Preferences(), **fields)

    def test_lottery_validation(self, c0):
        with pytest.raises(DomainError):
            lottery_value(1.0, 0.5, p3=1.2, p4=0.0)
        with pytest.raises(DomainError):
            lottery_value(1.0, 0.5, p3=0.0, p4=-0.1)
        with pytest.raises(DomainError):
            welfare_truncated(make_spec(c0), -1.0)  # a doom date before now
