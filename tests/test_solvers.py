import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tai_welfare import (
    ConvergenceError,
    DivergenceError,
    Preferences,
    ScenarioSpec,
    solvers,
    lottery_value,
    solve_T_delayed,
    solve_epsilon_mounting,
    solve_extinction_time,
    solve_p3_delayed,
    solve_p3_immediate,
    solve_p4_delayed,
    welfare_cornucopia,
    welfare_mounting,
    welfare_no_takeover,
    welfare_truncated,
)
from tai_welfare.rootfind import brent
from tai_welfare.solvers import RESIDUAL_REL_TOL
from tai_welfare.welfare import _flow_from_log, _mounting_quadrature, integrate_discounted
from conftest import assert_prints_the_root, epsilon_excess, make_spec


class TestExtinctionTime:
    @pytest.mark.parametrize(
        "theta,g_ai,rho,expected",
        [
            (1.0, 0.05, 0.05, 62.63),
            (2.0, 0.05, 0.05, 243.64),
            (2.0, 0.05, 0.002, 6752.59),
        ],
    )
    def test_reference_cells(self, c0, theta, g_ai, rho, expected):
        out = solve_extinction_time(make_spec(c0, theta=theta, g_ai=g_ai, rho=rho))
        assert out.is_value
        assert out.value == pytest.approx(expected, rel=2e-3)

    def test_residual_when_substituted_back(self, c0, rng):
        for _ in range(20):
            spec = make_spec(
                c0,
                theta=float(rng.choice([1.0, 2.0])),
                g_ai=float(rng.uniform(0.03, 0.4)),
                rho=float(rng.uniform(0.002, 0.06)),
            )
            out = solve_extinction_time(spec)
            assert out.is_value
            w0 = welfare_no_takeover(spec).value
            wb = welfare_truncated(spec, out.value).value
            assert abs(wb - w0) <= 1e-8 * max(1.0, abs(w0))

    def test_no_solution_when_growth_not_faster(self, c0):
        out = solve_extinction_time(make_spec(c0, g_ai=0.01, rho=0.03))
        assert out.tag == "no_solution"


class TestImmediateMisalignment:
    @pytest.mark.parametrize(
        "theta,g_ai,rho,expected",
        [
            (1.0, 0.05, 0.05, 0.055282),
            (2.0, 0.05, 0.05, 5.12e-06),
            (1.0, 0.4, 0.002, 0.907439),
        ],
    )
    def test_reference_cells(self, c0, theta, g_ai, rho, expected):
        out = solve_p3_immediate(make_spec(c0, theta=theta, g_ai=g_ai, rho=rho))
        assert out.is_value
        assert out.value == pytest.approx(expected, rel=5e-3)

    def test_equal_growth_gives_zero(self, c0):
        spec = make_spec(c0, g_ai=0.0175, rho=0.03)
        out = solve_p3_immediate(spec)
        assert out.is_value
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_g_ai(self, c0):
        values = []
        for g in (0.05, 0.1, 0.2, 0.3, 0.4):
            out = solve_p3_immediate(make_spec(c0, g_ai=g, rho=0.03))
            values.append(out.value)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDelayedLottery:
    def test_panel_a_reference_cell(self, c0):
        out = solve_p3_delayed(
            make_spec(c0, theta=1.0, g_ai=0.05, rho=0.002), p4=3e-5, T=50.0
        )
        assert out.value == pytest.approx(0.454429, rel=1e-4)

    def test_panel_a_negative_cells(self, c0):
        out = solve_p3_delayed(
            make_spec(c0, theta=2.0, g_ai=0.05, rho=0.002), p4=3e-5, T=50.0
        )
        assert out.tag == "no_tai_preferred"

    def test_panel_b_reference_cell(self, c0):
        out = solve_p4_delayed(
            make_spec(c0, theta=1.0, g_ai=0.05, rho=0.002), p3=3e-5, T=50.0
        )
        assert out.value == pytest.approx(0.469403, rel=1e-4)

    def test_panel_b_above_one(self, c0):
        out = solve_p4_delayed(
            make_spec(c0, theta=1.0, g_ai=0.3, rho=0.03), p3=3e-5, T=50.0
        )
        assert out.tag == "tai_preferred"

    def test_panel_c_reference_cell(self, c0):
        out = solve_T_delayed(
            make_spec(c0, theta=1.0, g_ai=0.05, rho=0.002), p3=0.3, p4=0.3
        )
        assert out.value == pytest.approx(355.307, rel=1e-4)

    def test_panel_c_negative_implied_time(self, c0):
        out = solve_T_delayed(
            make_spec(c0, theta=1.0, g_ai=0.2, rho=0.002), p3=0.3, p4=0.3
        )
        assert out.tag == "no_tai_preferred"

    def test_panel_c_no_root_when_ceiling_below_baseline(self, c0):
        # even an infinitely delayed doom leaves the lottery short of W0 here
        out = solve_T_delayed(
            make_spec(c0, theta=2.0, g_ai=0.05, rho=0.002), p3=0.3, p4=0.3
        )
        assert out.tag == "no_solution"

    def test_panel_c_value_substitutes_back(self, c0):
        spec = make_spec(c0, theta=1.0, g_ai=0.3, rho=0.05)
        out = solve_T_delayed(spec, p3=0.3, p4=0.3)
        assert out.is_value
        risky = lottery_value(
            welfare_cornucopia(spec).value,
            welfare_truncated(spec, out.value).value,
            p3=0.3,
            p4=0.3,
        )
        w0 = welfare_no_takeover(spec).value
        assert abs(risky - w0) <= 1e-8 * max(1.0, abs(w0))

    def test_outcome_tags_are_total(self, c0):
        tags = set()
        for theta in (1.0, 2.0):
            for g in (0.05, 0.1, 0.2, 0.3, 0.4):
                for rho in (0.002, 0.01, 0.03, 0.05):
                    out = solve_T_delayed(
                        make_spec(c0, theta=theta, g_ai=g, rho=rho), p3=0.3, p4=0.3
                    )
                    tags.add(out.tag)
        assert tags <= {"value", "no_tai_preferred", "tai_preferred", "no_solution"}
        assert "value" in tags and "no_tai_preferred" in tags


def _scaled_slope(factor):
    # the polish handed the closed form's slope scaled by factor
    polish = solvers._polished_epsilon

    def scaled(f, eps, slope):
        return polish(f, eps, factor * slope)

    return scaled


def _root_tolerance(spec, rel_w):
    """How far a solved eps may lie from another root, relative.

    Brent's bracket and the polish's last step allow 1e-10 each (3e-10 in
    all); a welfare error of rel_w W0 moves the root by rel_w times the
    amplification W0 / (W_cornucopia - W0).
    """
    w0, w_a = welfare_no_takeover(spec).value, welfare_cornucopia(spec).value
    return 3e-10 + rel_w * w0 / (w_a - w0)


class TestMountingEpsilon:
    @pytest.mark.parametrize(
        "g_ai,rho,expected",
        [
            (0.2, 0.05, 8.8842e-04),
            (0.05, 0.002, 2.789e-05),
            (0.4, 0.03, 9.9182e-04),
        ],
    )
    def test_reference_cells(self, c0, g_ai, rho, expected):
        out = solve_epsilon_mounting(make_spec(c0, theta=1.0001, g_ai=g_ai, rho=rho))
        assert out.is_value
        assert out.value == pytest.approx(expected, rel=2e-2)

    def test_residual_check(self, c0):
        spec = make_spec(c0, theta=1.0001, g_ai=0.1, rho=0.01)
        out = solve_epsilon_mounting(spec)
        w0 = welfare_no_takeover(spec).value
        assert abs(welfare_mounting(spec, out.value).value - w0) <= 1e-8 * w0

    def test_no_solution_when_growth_not_faster(self, c0):
        out = solve_epsilon_mounting(make_spec(c0, theta=1.0, g_ai=0.0175, rho=0.03))
        assert out.tag == "no_solution"

    @pytest.mark.parametrize("theta,g_ai,rho,tag", [
        (2.0, 0.2, 0.05, "value"),  # t4's cell with the largest root amplification
        (1.0, 0.0175, 0.03, "no_solution"),
    ])
    def test_no_epsilon_is_evaluated_twice(self, c0, monkeypatch, theta, g_ai, rho, tag):
        evaluated = []

        def counting(spec, epsilon):
            evaluated.append(epsilon)
            return _mounting_quadrature(spec, epsilon)

        monkeypatch.setattr(solvers, "_mounting_quadrature", counting)
        out = solve_epsilon_mounting(make_spec(c0, theta=theta, g_ai=g_ai, rho=rho))
        assert out.tag == tag
        assert len(evaluated) == len(set(evaluated))


    def test_each_t4_cell_makes_at_most_three_quadrature_calls(self, c0, monkeypatch):
        # the closed form's root and slope put the first Newton step within
        # Brent's tolerance of the quadrature root: 62 calls for the 40 cells
        # (155 with the bracket polish, about 12 per cell before the predictor)
        from tai_welfare.config import RunConfig
        from tai_welfare.tables import TABLES

        calls = []

        def counting(spec, epsilon):
            calls.append(epsilon)
            return _mounting_quadrature(spec, epsilon)

        monkeypatch.setattr(solvers, "_mounting_quadrature", counting)
        config = RunConfig()
        per_cell = []
        for theta in TABLES["t4"].theta_set:
            for g_ai in config.g_ai_grid:
                for rho in config.rho_grid:
                    calls.clear()
                    out = solve_epsilon_mounting(make_spec(c0, theta=theta, g_ai=g_ai, rho=rho))
                    assert out.is_value
                    assert len(calls) <= 3, (theta, g_ai, rho, len(calls))
                    per_cell.append(len(calls))
        assert len(per_cell) == 40 and sum(per_cell) <= 62

    def test_bracket_miss_cell_gives_the_closed_form_root(self, c0):
        # W_cornucopia - W0 is 5e-9 of W0 here: the quadrature's rounding moves
        # its root 3.6e-5 away, so the polish gives up and the closed form's
        # root stands; the 60-digit root is 1.01082784142768e-11
        spec = make_spec(c0, theta=2.7, g_ai=0.206, rho=0.0337)
        assert_prints_the_root(spec, solve_epsilon_mounting(spec), "1.01083e-11")

    @pytest.mark.parametrize("theta,g_ai,rho,g_baseline,c0_value,expected", [
        (0.5, 0.2, 0.05, 0.0175, None, DivergenceError),  # the cornucopia diverges
        (1.0, 1e10, 0.05, 0.0175, None, "0.00450126"),  # the quadrature returns W = 0
        (1.0, 1e300, 0.05, 0.0175, None, "0.0045013"),  # about 1 / W0 as g_ai grows
        (1.0, 1e308, 0.05, 0.0175, None, "0.0045013"),  # the polish's quadrature overflows
        (1.0, 0.2, 0.05, 1e-6, 1.0, "no_solution"),  # root near 2500
    ])
    def test_unusable_closed_form_keeps_the_quadrature_outcome(
        self, c0, theta, g_ai, rho, g_baseline, c0_value, expected
    ):
        spec = make_spec(c0 if c0_value is None else c0_value, theta=theta, g_ai=g_ai,
                         rho=rho, g_baseline=g_baseline)
        if expected == "no_solution":
            assert solve_epsilon_mounting(spec).tag == expected
        elif isinstance(expected, str):
            assert_prints_the_root(spec, solve_epsilon_mounting(spec), expected)
        else:
            with pytest.raises(expected):
                solve_epsilon_mounting(spec)

    def test_overflowing_closed_form_raises(self, c0, monkeypatch):
        def overflowing(spec, epsilon):
            raise OverflowError("closed form overflow")

        monkeypatch.setattr(solvers, "_mounting_closed_form", overflowing)
        with pytest.raises(OverflowError):
            solve_epsilon_mounting(make_spec(c0, theta=2.0, g_ai=0.2, rho=0.05))

    @pytest.mark.parametrize("theta,g_ai,rho", [(1.0001, 0.2, 0.05), (2.0, 0.2, 0.05), (2.0, 0.05, 0.002)])
    def test_fallback_bracket_gives_the_predicted_answer(self, c0, monkeypatch, theta, g_ai, rho):
        # a polish that evaluates the quadrature and then gives up leaves
        # Brent's root in the bracket grown on the closed form from 1e-6
        # four-fold: that root and its iterations, the 80-digit root to
        # Brent's tolerance, and the polished root to the quadrature's error
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        polished = solve_epsilon_mounting(spec)
        polish, tried = solvers._polished_epsilon, []

        def giving_up(f, eps, slope):
            tried.append(polish(f, eps, slope))
            return None

        monkeypatch.setattr(solvers, "_polished_epsilon", giving_up)
        fallback = solve_epsilon_mounting(spec)
        assert [r.root for r in tried] == [polished.value]

        w0, w_a = welfare_no_takeover(spec).value, welfare_cornucopia(spec).value

        def exact(eps):
            return solvers._mounting_closed_form(spec, eps) - w0

        lo, f_lo, hi = 0.0, w_a - w0, 1e-6
        while (f_hi := exact(hi)) > 0.0:
            lo, f_lo, hi = hi, f_hi, 4.0 * hi
        predicted = brent(exact, lo, hi, fa=f_lo, fb=f_hi, rel_tol=1e-10)
        assert fallback.is_value
        assert (fallback.value, fallback.iterations) == (predicted.root, predicted.iterations)
        tol = _root_tolerance(spec, 1e-13)
        assert epsilon_excess(spec, fallback.value * (1.0 - tol)) > 0
        assert epsilon_excess(spec, fallback.value * (1.0 + tol)) < 0
        assert fallback.value == pytest.approx(polished.value, rel=_root_tolerance(spec, 1e-10))

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    @pytest.mark.parametrize("theta,g_ai,rho", [(1.0001, 0.2, 0.05), (2.0, 0.2, 0.05), (2.0, 0.05, 0.002)])
    def test_unusable_slope_falls_back_to_the_bracket(self, c0, monkeypatch, theta, g_ai, rho, factor):
        # a slope of 0 or of the wrong sign gives the polish up before it
        # evaluates the quadrature; Brent's root on the closed form stands
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        monkeypatch.setattr(solvers, "_polished_epsilon", _scaled_slope(factor))
        evaluated = []

        def counting(spec, epsilon):
            evaluated.append(epsilon)
            return _mounting_quadrature(spec, epsilon)

        monkeypatch.setattr(solvers, "_mounting_quadrature", counting)
        out = solve_epsilon_mounting(spec)
        assert evaluated == [] and out.is_value
        tol = _root_tolerance(spec, 1e-13)
        assert epsilon_excess(spec, out.value * (1.0 - tol)) > 0
        assert epsilon_excess(spec, out.value * (1.0 + tol)) < 0

    def test_closed_form_flat_to_the_ulp_falls_back_to_the_bracket(self, c0, monkeypatch):
        # the root is 2e-14, so the closed form at the root (1 -/+ 1e-6) moves
        # less than an ulp of W and its slope reads 0; the polish must not
        # divide by it, and Brent's root on the closed form stands
        spec = make_spec(c0, theta=2.980612458980872, g_ai=0.07476581910622132,
                         rho=0.00683171637719214)
        slopes, polish = [], solvers._polished_epsilon

        def spying(f, eps, slope):
            slopes.append(slope)
            return polish(f, eps, slope)

        monkeypatch.setattr(solvers, "_polished_epsilon", spying)
        out = solve_epsilon_mounting(spec)
        assert slopes == [0.0]
        assert_prints_the_root(spec, out, "2.11636e-14")

    def test_root_up_to_epsilon_max_is_a_value(self):
        # at c0 = 1 and theta = 1, W_mounting(eps) ~ 1/eps and W0 = g_baseline / rho^2;
        # the bracket reaches EPSILON_MAX itself, so the root near 6.6 is found
        spec = ScenarioSpec(c0=1.0, g_ai=0.2, g_baseline=0.05**2 / 7,
                            prefs=Preferences(rho=0.05, theta_rra=1.0))
        out = solve_epsilon_mounting(spec)
        assert out.is_value
        assert 4.2 < out.value < solvers.EPSILON_MAX


class TestComparativeStatics:
    def test_extinction_time_falls_with_g_ai(self, c0):
        for rho in (0.01, 0.05):
            values = [
                solve_extinction_time(make_spec(c0, g_ai=g, rho=rho)).value
                for g in (0.05, 0.1, 0.2, 0.3, 0.4)
            ]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_extinction_time_falls_with_rho_at_log_utility(self, c0):
        values = [
            solve_extinction_time(make_spec(c0, g_ai=0.1, rho=r)).value
            for r in (0.002, 0.01, 0.03, 0.05)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_higher_risk_aversion_demands_later_extinction(self, c0):
        for g in (0.05, 0.2, 0.4):
            for rho in (0.01, 0.05):
                t1 = solve_extinction_time(make_spec(c0, theta=1.0, g_ai=g, rho=rho))
                t2 = solve_extinction_time(make_spec(c0, theta=2.0, g_ai=g, rho=rho))
                assert t2.value > t1.value

    def test_p3_immediate_falls_with_rho_at_log_utility(self, c0):
        values = [
            solve_p3_immediate(make_spec(c0, g_ai=0.2, rho=r)).value
            for r in (0.002, 0.01, 0.03, 0.05)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


# (theta, g_ai, rho, p3, p4, lo, hi): inputs whose extinction-time and
# delayed-lottery roots in T both lie in (lo, hi), at the edges of the time
# solves' domain and of their two Newton forms: roots far below a year, where
# the truncated form's quadratic start must be close; roots at and past
# T_DELAYED_MAX; theta < 1; and a gap W_cornucopia - W0 so small that only the
# tail identity with the exact gap places the root
TIME_BRACKET_EDGES = (
    (1.0, 1e4, 0.03, 0.5, 1.0, 0.0, 1.0),  # below 1
    (1.0, 0.1, 1e-6, 0.2, 0.9, 4.0**9, solvers.T_DELAYED_MAX),  # just inside the domain
    (1.0, 0.1, 4e-7, 0.2, 0.9, solvers.T_DELAYED_MAX, math.inf),  # beyond the domain
    # roots 49 and 149 decades below a year
    (1.0, 1e100, 0.03, 0.5, 1.0, 0.0, 1.0),
    (1.0, 1e300, 0.03, 0.5, 1.0, 0.0, 1.0),
    (0.5, 0.05, 0.05, 0.2, 0.9, 16.0, 64.0),  # theta < 1, where phi need not be concave
    # W_cornucopia - W0 is 4.9e-9 of W_cornucopia: rounding in the float
    # W_trunc - W0 moves its zero 2.7e-9 away from the root
    (2.6023218191182513, 0.44553775822494124, 0.00519211653933816, 0.0, 1.0, 4.0**5, 4.0**6),
    (1.5, 0.3, 1e-6, 0.0, 1.0, solvers.T_DELAYED_MAX, math.inf),  # beyond, at theta != 1
)


def _time_roots_oracle(spec, p3, p4):
    """The roots in T of W_trunc(T) = W0 and of the delayed lottery = W0.

    Roots to 40 digits by bisection; where the target lies outside
    (0, W_cornucopia), so that no root exists, the outcome tag that implies
    takes the root's place.
    """
    from mpmath import mp, mpf

    # W_trunc's log-utility term cancels about -log10(rho T) digits, 150 at g_ai = 1e300
    with mp.workdps(240):
        lam, g, rho = mp.log(mpf(spec.c0)), mpf(spec.g_ai), mpf(spec.prefs.rho)
        q = 1 - mpf(spec.prefs.theta_rra)

        def w_inf(growth):
            if q == 0:
                return lam / rho + growth / rho**2
            return (rho * mp.expm1(q * lam) / q + growth) / (rho * (rho - q * growth))

        def w_trunc(T):
            e = lambda rate: -mp.expm1(-rate * T) / rate
            if q == 0:
                x = rho * T
                return lam * e(rho) + g * (-mp.expm1(-x) - x * mp.exp(-x)) / rho**2
            return (mp.exp(q * lam) * e(rho - q * g) - e(rho)) / q

        def root(target):
            if not 0 < target < w_a:
                return "no_tai_preferred" if target <= 0 else "no_solution"
            lo, hi = mpf(0), mpf(1)
            while w_trunc(hi) < target:
                hi *= 2
            while w_trunc(hi / 2) >= target:
                hi /= 2
            for _ in range(150):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if w_trunc(mid) < target else (lo, mid)
            return float(lo)

        w0, w_a = w_inf(mpf(spec.g_baseline)), w_inf(g)
        keep, p4 = 1 - mpf(p3), mpf(p4)
        return root(w0), root((w0 - keep * (1 - p4) * w_a) / (keep * p4))


def _check_time_root(out, exact):
    if isinstance(exact, str):
        assert out.tag == exact
    elif exact > solvers.T_DELAYED_MAX:
        assert out.tag == "no_solution"
    else:
        assert out.is_value
        assert out.value == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta,g_ai,rho,p3,p4,lo,hi", TIME_BRACKET_EDGES)
def test_time_roots_at_the_bracket_edges(c0, theta, g_ai, rho, p3, p4, lo, hi):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    outcomes = (solve_extinction_time(spec), solve_T_delayed(spec, p3=p3, p4=p4))
    for out, exact in zip(outcomes, _time_roots_oracle(spec, p3, p4)):
        assert lo < exact < hi
        _check_time_root(out, exact)


# theta < 1 needs rho > (1 - theta) g_ai for the welfare to converge; the
# example is a sweep cell whose truncated closed form, cancelling 2.5e-6 from
# theta = 1, once kept its Newton steps from settling
@settings(max_examples=40)
@given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(0.5, 3.0)),
       g_ai=st.floats(0.02, 0.5), rho=st.floats(0.001, 0.08),
       p3=st.floats(0.0, 0.5), p4=st.floats(0.5, 1.0))
@example(theta=1.0000024582636016, g_ai=0.48485587808677827, rho=0.03479620572270543,
         p3=0.05366413446999008, p4=0.41915470110523556)
def test_time_roots_match_the_oracle(c0, theta, g_ai, rho, p3, p4):
    assume(rho > (1.0 - theta) * g_ai)
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    outcomes = (solve_extinction_time(spec), solve_T_delayed(spec, p3=p3, p4=p4))
    for out, exact in zip(outcomes, _time_roots_oracle(spec, p3, p4)):
        _check_time_root(out, exact)


def test_time_solves_settle_without_a_bracket(c0, monkeypatch):
    # Newton alone settles every time solve: 200 cells drawn as the
    # closed-form sweep draws them, and every bracket-edge row, with Brent
    # made to raise; no solve takes more than 7 Newton steps
    def no_brent(*args, **kwargs):
        raise AssertionError("a time solve ran Brent")

    monkeypatch.setattr(solvers, "brent", no_brent)
    rng = random.Random(22)
    cells = [(theta, g_ai, rho, p3, p4) for theta, g_ai, rho, p3, p4, _, _ in TIME_BRACKET_EDGES]
    for _ in range(200):
        theta = rng.choice((1.0, 1.0001, rng.uniform(1.0, 3.0)))
        cells.append((theta, rng.uniform(0.02, 0.5), rng.uniform(0.001, 0.08),
                      rng.random(), 1.0 - rng.random()))
    for i, (theta, g_ai, rho, p3, p4) in enumerate(cells):
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        extinction, delayed = solve_extinction_time(spec), solve_T_delayed(spec, p3=p3, p4=p4)
        assert extinction.iterations <= 7 and delayed.iterations <= 7
        # every drawn g_ai is above g_baseline, so each drawn cell has an extinction time
        assert extinction.is_value or i < len(TIME_BRACKET_EDGES)


# q = 1 - theta is drawn at 0 and at +-1e-9, where the two welfare values
# agree in their leading digits for a different reason than a small gap
@settings(max_examples=100)
@given(theta=st.one_of(st.just(1.0), st.just(1.0 + 1e-9), st.just(1.0 - 1e-9), st.floats(0.5, 3.0)),
       g_ai=st.floats(0.0, 0.5), rho=st.floats(0.001, 0.08))
def test_exact_gap_matches_the_50_digit_difference(c0, theta, g_ai, rho):
    from mpmath import mp, mpf

    assume(rho > (1.0 - theta) * g_ai)
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    with mp.workdps(50):
        lam, r, q = mp.log(mpf(c0)), mpf(rho), 1 - mpf(theta)

        def w_inf(g):
            if q == 0:
                return lam / r + g / r**2
            return (r * mp.expm1(q * lam) / q + g) / (r * (r - q * g))

        exact = w_inf(mpf(g_ai)) - w_inf(mpf(spec.g_baseline))
        assert abs(solvers._exact_gap(spec) - exact) <= 1e-14 * abs(exact)


# p3 and p4 are drawn where about half the delayed lotteries have a root in T
@settings(max_examples=100)
@given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(1.0, 3.0)),
       g_ai=st.floats(0.02, 0.5), rho=st.floats(0.001, 0.08),
       p3=st.floats(0.0, 0.5), p4=st.floats(0.5, 1.0))
@example(**dict(zip(("theta", "g_ai", "rho", "p3", "p4"), TIME_BRACKET_EDGES[0])))
@example(**dict(zip(("theta", "g_ai", "rho", "p3", "p4"), TIME_BRACKET_EDGES[1])))
def test_time_roots_give_the_no_takeover_welfare(c0, theta, g_ai, rho, p3, p4):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    w0 = welfare_no_takeover(spec).value
    tol = RESIDUAL_REL_TOL * max(1.0, abs(w0))
    T = solve_extinction_time(spec)
    assert T.is_value  # g_ai above g_baseline: cornucopia beats the baseline
    assert abs(welfare_truncated(spec, T.value).value - w0) <= tol
    T = solve_T_delayed(spec, p3=p3, p4=p4)
    if T.is_value:
        w_b = welfare_truncated(spec, T.value).value
        assert abs(lottery_value(welfare_cornucopia(spec).value, w_b, p3, p4) - w0) <= tol


# drawn where most delayed lotteries have a threshold in [0, 1]
@settings(max_examples=100)
@given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(1.0, 3.0)),
       g_ai=st.floats(0.02, 0.5), rho=st.floats(0.001, 0.08),
       p=st.floats(0.0, 0.5), T=st.floats(1.0, 500.0), solve_for=st.sampled_from(("p3", "p4")))
def test_solved_probabilities_give_the_no_takeover_welfare(c0, theta, g_ai, rho, p, T, solve_for):
    # p is the probability held fixed; at a solved p3 or p4 the lottery is worth W0
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    if solve_for == "p3":
        out = solve_p3_delayed(spec, p4=p, T=T)
        p3, p4 = out.value, p
    else:
        out = solve_p4_delayed(spec, p3=p, T=T)
        p3, p4 = p, out.value
    if out.is_value:
        w0 = welfare_no_takeover(spec).value
        w_b = welfare_truncated(spec, T).value
        lottery = lottery_value(welfare_cornucopia(spec).value, w_b, p3, p4)
        assert abs(lottery - w0) <= RESIDUAL_REL_TOL * max(1.0, abs(w0))


# the closed form equals an independent quadrature of the same integral, it
# falls as eps grows, and at a solved eps it gives W0
@settings(max_examples=100)
@given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(1.0, 3.0)),
       g_ai=st.floats(0.02, 0.5), rho=st.floats(0.002, 0.08),
       log_eps=st.floats(-9.0, -2.0), factor=st.floats(2.0, 100.0))
def test_mounting_welfare_and_epsilon_roots(c0, theta, g_ai, rho, log_eps, factor):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    eps = 10.0**log_eps
    lam = spec.log_c0
    quad = integrate_discounted(
        _flow_from_log(lam, g_ai, theta),
        lambda t: np.exp(-rho * t - eps * (lam * t + 0.5 * g_ai * t * t)), rho)
    w = welfare_mounting(spec, eps).value
    assert w == pytest.approx(quad.value, rel=1e-9)
    assert welfare_mounting(spec, factor * eps).value <= w
    out = solve_epsilon_mounting(spec)
    if out.is_value:
        w0 = welfare_no_takeover(spec).value
        w_root = welfare_mounting(spec, out.value).value
        assert abs(w_root - w0) <= RESIDUAL_REL_TOL * max(1.0, abs(w0))


# the polish moves the closed form's root only as far as the quadrature's
# error, at most its 1e-10 tolerance of W, amplified by W0 / (W_cornucopia - W0)
@settings(max_examples=100)
@given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(1.001, 3.0)),
       g_ai=st.floats(0.02, 0.5), rho=st.floats(0.002, 0.08))
def test_polished_epsilon_equals_the_bracketed_root(c0, theta, g_ai, rho):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    polished = solve_epsilon_mounting(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_polished_epsilon", _scaled_slope(0.0))
        closed_form = solve_epsilon_mounting(spec)
    assert polished.tag == closed_form.tag
    if polished.is_value:
        assert polished.value == pytest.approx(
            closed_form.value, rel=_root_tolerance(spec, 1e-10))


def test_unsettled_newton_is_a_convergence_error(c0, monkeypatch):
    # a time solve that runs out of Newton steps raises; nothing else is tried
    monkeypatch.setattr(solvers, "_NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError, match="did not settle in 1 Newton steps"):
        solvers.solve_extinction_time(make_spec(c0, theta=1.0))


def test_nan_residual_is_a_convergence_error(c0, monkeypatch):
    # a root whose residual is nan must not pass the residual check: this
    # cell's root comes from the tail identity, and only the residual
    # W_trunc(root) - W0 reads the closed form made to return nan
    monkeypatch.setattr(solvers, "discounted_crra_closed_form", lambda *args: math.nan)
    with pytest.raises(ConvergenceError, match="residual nan"):
        solvers.solve_extinction_time(make_spec(c0, theta=2.0))
