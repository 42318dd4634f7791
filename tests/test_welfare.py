import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tai_welfare import (
    DivergenceError,
    DomainError,
    Preferences,
    ScenarioSpec,
    ev_panel,
    integrate_discounted,
    lottery_value,
    solve_p3_delayed,
    welfare_cornucopia,
    welfare_mounting,
    welfare_no_takeover,
    welfare_truncated,
)
from tai_welfare.welfare import (
    _flow_from_log,
    _mounting_closed_form,
    _mounting_quadrature,
    discounted_crra_closed_form,
)
from conftest import make_spec, mounting_welfare_mp


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
        spec = ScenarioSpec(c0=1.0, g_ai=0.0, prefs=Preferences(rho=0.05, theta_rra=1.0))
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

    @settings(max_examples=200)
    @given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(1.0, 3.0)),
           g_ai=st.floats(0.0, 0.5), rho=st.floats(0.001, 0.08),
           T=st.floats(0.0, 1e4), dT=st.floats(0.0, 1e4))
    def test_never_falls_as_the_horizon_grows(self, c0, theta, g_ai, rho, T, dT):
        # non-decreasing: far out, both horizons round to the cornucopia value
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        assert welfare_truncated(spec, T).value <= welfare_truncated(spec, T + dT).value

    @pytest.mark.parametrize("rho", [0.001, 0.03, 0.08])
    def test_log_utility_growth_term_matches_mpmath(self, rho):
        # at c0 = 1 and theta = 1, W = g int_0^T t e^(-rho t) dt, whose closed
        # form (E - T e^(-rho T)) / rho cancels as rho T -> 0
        from mpmath import mp, mpf

        spec = ScenarioSpec(c0=1.0, g_ai=1.0, prefs=Preferences(rho=rho, theta_rra=1.0))
        with mp.workdps(40):
            for T in np.logspace(-12.0, math.log10(50.0), 120):
                x = mpf(rho) * mpf(float(T))
                exact = float((-mp.expm1(-x) - x * mp.exp(-x)) / mpf(rho) ** 2)
                value = welfare_truncated(spec, float(T)).value
                assert value == pytest.approx(exact, rel=1e-14), T

    # |1 - theta| from 2^-52 to 1e-2 on both sides of 1, across the finite
    # form's switch at |1 - theta| (log c0 + g T) = 1e-3, where the plain
    # difference over 1 - theta was off by up to 5e8 relative
    @settings(max_examples=100)
    @given(log2_dq=st.floats(-52.0, math.log2(1e-2)), sign=st.sampled_from([1.0, -1.0]),
           unit_c0=st.booleans(), g_ai=st.floats(0.02, 0.5), rho=st.floats(0.001, 0.08),
           log10_T=st.floats(-6.0, 3.0))
    def test_truncated_next_to_log_utility_matches_mpmath(
        self, c0, log2_dq, sign, unit_c0, g_ai, rho, log10_T
    ):
        from mpmath import mp, mpf

        theta, T = 1.0 + sign * 2.0**log2_dq, 10.0**log10_T
        spec = make_spec(1.0 if unit_c0 else c0, theta=theta, g_ai=g_ai, rho=rho)
        with mp.workdps(50):
            lam, q, r = mp.log(mpf(spec.c0)), 1 - mpf(theta), mpf(rho)
            e = lambda rate: -mp.expm1(-rate * T) / rate
            exact = (mp.exp(q * lam) * e(r - q * g_ai) - e(r)) / q
            assert welfare_truncated(spec, T).value == pytest.approx(float(exact), rel=1e-11)

    # the tail identity W_c - W_trunc(T) = e^(-rho T) W_inf(lam + g T), on which the
    # time solves run Newton.  W_inf grows with lam, so the tail is at least
    # e^(-rho T) W_c, and T up to log(1e6) / rho keeps it above 1e-6 W_c.  The
    # margin on a = rho - (1 - theta) g keeps the float 1 / a within 100 ulps
    @settings(max_examples=100)
    @given(theta=st.one_of(st.just(1.0), st.just(1.0 + 1e-9), st.just(1.0 - 1e-9),
                           st.floats(0.5, 3.0)),
           g_ai=st.floats(0.0, 0.5), rho=st.floats(0.001, 0.08), u=st.floats(0.0, 1.0))
    def test_tail_identity_matches_the_50_digit_difference(self, c0, theta, g_ai, rho, u):
        from mpmath import mp, mpf

        assume(rho - (1.0 - theta) * g_ai > 0.01 * rho)
        T = u * math.log(1e6) / rho
        lam = math.log(c0)
        tail = math.exp(-rho * T) * discounted_crra_closed_form(lam + g_ai * T, g_ai, rho, theta)
        with mp.workdps(50):
            lam, q, r, g = mp.log(mpf(c0)), 1 - mpf(theta), mpf(rho), mpf(g_ai)
            e = lambda rate: -mp.expm1(-rate * T) / rate
            if q == 0:
                w_c = lam / r + g / r**2
                w_trunc = lam * e(r) + g * (e(r) - T * mp.exp(-r * T)) / r
            else:
                w_c = (r * mp.expm1(q * lam) / q + g) / (r * (r - q * g))
                w_trunc = (mp.exp(q * lam) * e(r - q * g) - e(r)) / q
            exact = w_c - w_trunc
            assert exact >= mpf("1e-6") * w_c
            assert tail == pytest.approx(float(exact), rel=1e-13)

    def test_converges_to_cornucopia(self, c0):
        for theta in (1.0, 2.0):
            spec = make_spec(c0, theta=theta, g_ai=0.1, rho=0.03)
            w_inf = welfare_cornucopia(spec).value
            # horizon where the discounted tail is provably < 1e-9 of the total
            assert welfare_truncated(spec, 2500.0).value == pytest.approx(
                w_inf, rel=1e-6
            )


def _discounted_quadrature(spec):
    # cornucopia welfare by criterion 7's kernel, independent of the closed forms
    rho = spec.prefs.rho
    return integrate_discounted(_flow_from_log(spec.log_c0, spec.g_ai, spec.prefs.theta_rra),
                                lambda t: np.exp(-rho * t), rho)


class TestQuadratureAgreement:
    def test_closed_form_vs_quadrature_grid(self, c0):
        # infinite-horizon values, both utility curvatures
        for theta in (1.0, 2.0):
            for g in (0.02, 0.05, 0.1, 0.2, 0.4):
                for rho in (0.002, 0.01, 0.03, 0.05):
                    spec = make_spec(c0, theta=theta, g_ai=g, rho=rho)
                    closed = welfare_cornucopia(spec).value
                    quad = _discounted_quadrature(spec)
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
        assert welfare_mounting(spec, 0.0) == welfare_cornucopia(spec)
        assert _discounted_quadrature(spec).value == pytest.approx(
            welfare_cornucopia(spec).value, rel=1e-8
        )

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_zero_growth_discounts_at_the_hazard_rate(self, c0, theta):
        # g_ai = 0 leaves no Gaussian term: W = u(c0) / (rho + eps log c0)
        spec = make_spec(c0, theta=theta, g_ai=0.0, rho=0.03)
        w = welfare_mounting(spec, 1e-3).value
        assert w == pytest.approx(_mounting_quadrature(spec, 1e-3), rel=1e-10)
        lam, q = math.log(c0), 1.0 - theta
        flow = lam if q == 0.0 else math.expm1(q * lam) / q
        assert w == pytest.approx(flow / (0.03 + 1e-3 * lam), rel=1e-12)

    def test_closed_form_vs_quadrature_on_the_t4_grid(self, c0):
        # the epsilon polish's quadrature and the closed form, cell by cell
        from tai_welfare.config import RunConfig
        from tai_welfare.tables import TABLES

        config = RunConfig()
        for theta in TABLES["t4"].theta_set:
            for g_ai in config.g_ai_grid:
                for rho in config.rho_grid:
                    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
                    for eps in (1e-8, 1e-6, 1e-4, 1e-2):
                        assert _mounting_closed_form(spec, eps) == pytest.approx(
                            _mounting_quadrature(spec, eps), rel=1e-10
                        ), (theta, g_ai, rho, eps)

    @pytest.mark.parametrize("theta,g_ai,rho,eps,expected", [
        (0.5, 0.12, 0.05, 1e-4, 8.62e6),  # the quadrature runs out of intervals
        (0.9, 0.6, 0.05, 1e-5, 1.04e8),
        (1.0, 1e10, 0.05, 0.0045, None),  # the quadrature returns 0
        (1.0, 0.2, 0.05, 1000.0, 1e-3),  # the quadrature returns 0
    ])
    def test_cells_the_quadrature_gets_wrong(self, c0, theta, g_ai, rho, eps, expected):
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        w = welfare_mounting(spec, eps).value
        assert w == pytest.approx(_mounting_oracle(spec, eps), rel=1e-10)
        if expected is None:
            assert w - welfare_no_takeover(spec).value == pytest.approx(0.062, abs=5e-4)
        else:
            assert w == pytest.approx(expected, rel=5e-3)

    def test_overflow_raises_rather_than_returning_inf(self, c0):
        spec = make_spec(c0, theta=0.5, g_ai=0.2, rho=0.05)
        with pytest.raises(OverflowError):
            welfare_mounting(spec, 1e-6)

    @pytest.mark.parametrize("dq", [2.0**-52, 1e-12, 1e-9, 1e-6, 1e-4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_theta_next_to_one(self, c0, dq, sign):
        # below |1 - theta| = 1e-5 the closed form sums G1 - G0 as a series; the
        # plain bracket is 3% off at 1 + 2^-52; both sides of z = 50
        for g_ai, rho, eps in ((0.2, 0.05, 1e-6), (0.05, 0.002, 1e-4),
                               (0.4, 0.03, 1e-3), (0.2, 0.05, 1e-11)):
            spec = make_spec(c0, theta=1.0 + sign * dq, g_ai=g_ai, rho=rho)
            assert _mounting_closed_form(spec, eps) == pytest.approx(
                _mounting_oracle(spec, eps), rel=1e-10
            ), (g_ai, rho, eps)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_continuous_across_the_small_q_edge(self, c0, sign):
        inside = 1.0 + sign * 1e-5
        while abs(1.0 - inside) >= 1e-5:
            inside = math.nextafter(inside, 1.0)
        outside = math.nextafter(inside, 1.0 + sign)
        for g_ai, rho, eps in ((0.2, 0.05, 1e-6), (0.05, 0.002, 1e-4), (0.02, 0.05, 1e-2)):
            w_in, w_out = (_mounting_closed_form(make_spec(c0, theta=theta, g_ai=g_ai,
                                                           rho=rho), eps)
                           for theta in (inside, outside))
            assert w_in == pytest.approx(w_out, rel=1e-11), (g_ai, rho, eps)

    def test_value_between_zero_and_cornucopia(self):
        spec = ScenarioSpec(c0=1.0, g_ai=0.05, prefs=Preferences(rho=0.05, theta_rra=1.0))
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
        # the quadrature the epsilon polish evaluates
        for g_ai in (0.05, 0.4):
            for rho in (0.002, 0.05):
                spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
                for eps in (1e-11, 1e-8, 1e-5, 1e-3):
                    assert _mounting_quadrature(spec, eps) == pytest.approx(
                        _mounting_oracle(spec, eps), rel=1e-10
                    ), (g_ai, rho, eps)

    @pytest.mark.parametrize("theta", [1.0, 1.0001, 2.0, 3.0])
    def test_closed_form_against_mpmath_oracle(self, c0, theta):
        # at theta = 1 and eps = 1e-13 the plain lam G + g (1 - a0 G) / b is
        # off by 2e-5: this pins gauss_laplace's series branch
        for g_ai in (0.05, 0.4):
            for rho in (0.002, 0.05):
                spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
                for eps in (1e-13, 1e-11, 1e-8, 1e-5, 1e-3):
                    assert _mounting_closed_form(spec, eps) == pytest.approx(
                        _mounting_oracle(spec, eps), rel=1e-10
                    ), (g_ai, rho, eps)

    @settings(max_examples=100)
    @given(theta=st.one_of(st.just(1.0), st.floats(0.9999, 1.0001), st.floats(1.0, 3.0)),
           g_ai=st.floats(0.02, 0.5), rho=st.floats(0.002, 0.08),
           log10_eps=st.floats(-9.0, -2.0))
    def test_random_cells_against_mpmath_oracle(self, c0, theta, g_ai, rho, log10_eps):
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        eps = 10.0 ** log10_eps
        oracle = _mounting_oracle(spec, eps)
        assert _mounting_closed_form(spec, eps) == pytest.approx(oracle, rel=1e-10)
        assert _mounting_quadrature(spec, eps) == pytest.approx(oracle, rel=1e-10)

    # |1 - theta| from 2^-52 to 1e-3 on both sides of 1, across the
    # closed form's |q| = 1e-5 switch to its small-|q| series
    @settings(max_examples=100)
    @given(log2_dq=st.one_of(st.floats(-52.0, math.log2(1e-5)),
                             st.floats(math.log2(1e-5), math.log2(1e-3), exclude_max=True)),
           sign=st.sampled_from([1.0, -1.0]), g_ai=st.floats(0.02, 0.5),
           rho=st.floats(0.002, 0.08), log10_eps=st.floats(-9.0, -2.0))
    def test_random_cells_next_to_log_utility(self, c0, log2_dq, sign, g_ai, rho, log10_eps):
        spec = make_spec(c0, theta=1.0 + sign * 2.0**log2_dq, g_ai=g_ai, rho=rho)
        eps = 10.0 ** log10_eps
        assert _mounting_closed_form(spec, eps) == pytest.approx(
            _mounting_oracle(spec, eps), rel=1e-10)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3])
    def test_rejects_non_finite_epsilon(self, c0, eps):
        # the t4 cell where nan once ran the whole interval budget
        spec = make_spec(c0, theta=2.0, g_ai=0.2, rho=0.05)
        with pytest.raises(DomainError, match="epsilon must be finite"):
            welfare_mounting(spec, eps)

    def test_no_discounting(self, c0):
        # the survival weight alone makes the integral finite: at theta = 1,
        # int (lam + g t) e^(-eps (lam t + g t^2 / 2)) dt = 1 / eps exactly
        assert welfare_mounting(make_spec(c0, g_ai=0.2, rho=0.0), 1e-3).value == pytest.approx(
            1000.0, rel=1e-12)
        spec = make_spec(c0, theta=2.0, g_ai=0.2, rho=0.0)
        assert welfare_mounting(spec, 1e-3).value == pytest.approx(
            _mounting_oracle(spec, 1e-3), rel=1e-10)

    def test_divergence(self, c0):
        with pytest.raises(DivergenceError):  # (1 - theta) g_ai > rho and no hazard
            welfare_mounting(make_spec(c0, theta=0.5, g_ai=0.2, rho=0.05), 0.0)

    def test_boundedness_theta_above_one(self, c0, rng):
        for _ in range(20):
            theta = float(rng.uniform(1.2, 3.0))
            rho = float(rng.uniform(0.005, 0.06))
            spec = make_spec(c0, theta=theta, g_ai=0.2, rho=rho)
            bound = 1.0 / ((theta - 1.0) * rho)
            assert welfare_mounting(spec, 1e-4).value < bound
            assert welfare_cornucopia(spec).value < bound


def _mounting_oracle(spec, epsilon):
    from mpmath import mp

    with mp.workdps(40):
        return float(mounting_welfare_mp(spec, epsilon))


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
            ScenarioSpec(c0=0.5, g_ai=0.05, prefs=Preferences(rho=0.03, theta_rra=1.0))

    def test_rejects_negative_growth(self):
        with pytest.raises(DomainError):
            ScenarioSpec(c0=2.0, g_ai=-0.01, prefs=Preferences(rho=0.03, theta_rra=1.0))

    def test_rejects_non_finite(self):
        for name in ("c0", "g_ai", "g_baseline"):
            for value in (math.nan, math.inf):
                fields = {"c0": 2.0, "g_ai": 0.05, name: value}
                with pytest.raises(DomainError, match=name):
                    ScenarioSpec(prefs=Preferences(rho=0.03, theta_rra=1.0), **fields)

    def test_lottery_validation(self, c0):
        with pytest.raises(DomainError):
            lottery_value(1.0, 0.5, p3=1.2, p4=0.0)
        with pytest.raises(DomainError):
            lottery_value(1.0, 0.5, p3=0.0, p4=-0.1)
        with pytest.raises(DomainError):
            welfare_truncated(make_spec(c0), -1.0)  # a doom date before now
        # nan and inf are no doom dates; at theta = 1 an infinite horizon
        # would compute inf * 0, and p3-delayed would solve for a NaN
        for theta in (1.0, 2.0):
            for horizon in (math.nan, math.inf):
                with pytest.raises(DomainError, match="horizon"):
                    welfare_truncated(make_spec(c0, theta=theta), horizon)
        with pytest.raises(DomainError, match="horizon"):
            solve_p3_delayed(make_spec(c0), p4=0.3, T=math.inf)
