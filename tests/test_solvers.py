import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tai_welfare import (
    ConvergenceError,
    DivergenceError,
    Preferences,
    QuadratureError,
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
from tai_welfare.rootfind import RootResult
from tai_welfare.solvers import RESIDUAL_REL_TOL
from conftest import make_spec


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
    # the predictor with its closed-form slope scaled by factor
    predicted = solvers._predicted_epsilon

    def scaled(*args):
        eps_hat, slope = predicted(*args)
        return eps_hat, factor * slope

    return scaled


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

        def counting(spec, epsilon, **kwargs):
            evaluated.append(epsilon)
            return welfare_mounting(spec, epsilon, **kwargs)

        monkeypatch.setattr(solvers, "welfare_mounting", counting)
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

        def counting(spec, epsilon, **kwargs):
            calls.append(epsilon)
            return welfare_mounting(spec, epsilon, **kwargs)

        monkeypatch.setattr(solvers, "welfare_mounting", counting)
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

    def test_bracket_miss_cell_keeps_the_quadrature_root(self, c0):
        # W_cornucopia - W0 is 5e-9 of W0 here, so the quadrature root lies
        # 3.6e-5 from the closed form's.  One ulp of W0 spans 4e-8 of eps, a
        # band where the quadrature residual is exactly 0; the Newton polish
        # and Brent each stop wherever they first land in it, so the root is
        # defined to that band, not to 1e-9.  1.0108641001632123e-11 is the
        # value of the bracket grown from [0, 1e-6] without the predictor.
        spec = make_spec(c0, theta=2.7, g_ai=0.206, rho=0.0337)
        out = solve_epsilon_mounting(spec)
        assert out.is_value
        assert out.value == pytest.approx(1.0108641001632123e-11, rel=4e-8)
        assert welfare_mounting(spec, out.value).value == welfare_no_takeover(spec).value

    @pytest.mark.parametrize("theta,g_ai,rho,g_baseline,c0_value,expected", [
        # what the solve without the predictor gave; the closed form diverges,
        # overflows or has no root below EPSILON_MAX at these inputs
        (0.5, 0.2, 0.05, 0.0175, None, DivergenceError),
        (1.0, 1e300, 0.05, 0.0175, None, ConvergenceError),
        (1.0, 1e308, 0.05, 0.0175, None, QuadratureError),
        (1.0, 0.2, 0.05, 1e-6, 1.0, "no_solution"),  # root near 2500
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow at g_ai = 1e308
    def test_unusable_closed_form_keeps_the_quadrature_outcome(
        self, c0, theta, g_ai, rho, g_baseline, c0_value, expected
    ):
        spec = make_spec(c0 if c0_value is None else c0_value, theta=theta, g_ai=g_ai,
                         rho=rho, g_baseline=g_baseline)
        if isinstance(expected, str):
            assert solve_epsilon_mounting(spec).tag == expected
        else:
            with pytest.raises(expected):
                solve_epsilon_mounting(spec)

    @pytest.mark.parametrize("theta,g_ai,rho", [(1.0001, 0.2, 0.05), (2.0, 0.2, 0.05), (2.0, 0.05, 0.002)])
    def test_fallback_bracket_gives_the_predicted_answer(self, c0, monkeypatch, theta, g_ai, rho):
        # a closed form that overflows sends the solve down the [0, 1e-6]
        # bracket; the root is the same to Brent's tolerance
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        predicted = solve_epsilon_mounting(spec)

        def overflowing(spec, epsilon):
            raise OverflowError("closed form overflow")

        monkeypatch.setattr(solvers, "_mounting_closed_form", overflowing)
        fallback = solve_epsilon_mounting(spec)
        assert fallback.is_value and predicted.is_value
        assert fallback.value == pytest.approx(predicted.value, rel=1e-9)

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    @pytest.mark.parametrize("theta,g_ai,rho", [(1.0001, 0.2, 0.05), (2.0, 0.2, 0.05), (2.0, 0.05, 0.002)])
    def test_unusable_slope_falls_back_to_the_bracket(self, c0, monkeypatch, theta, g_ai, rho, factor):
        # a slope of 0 or of the wrong sign gives the polish up; the bracket
        # grown from 1e-6 finds the polished root to Brent's tolerance
        spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
        polished = solve_epsilon_mounting(spec)
        monkeypatch.setattr(solvers, "_predicted_epsilon", _scaled_slope(factor))
        evaluated = []

        def counting(spec, epsilon, **kwargs):
            evaluated.append(epsilon)
            return welfare_mounting(spec, epsilon, **kwargs)

        monkeypatch.setattr(solvers, "welfare_mounting", counting)
        fallback = solve_epsilon_mounting(spec)
        assert solvers._EPSILON_START in evaluated
        assert fallback.is_value and polished.is_value
        assert fallback.value == pytest.approx(polished.value, rel=1e-9)

    def test_closed_form_flat_to_the_ulp_falls_back_to_the_bracket(self, c0):
        # the root is 2e-14, so the closed form at eps_hat (1 -/+ 1e-6) moves
        # less than an ulp of W and its slope reads 0; the solve must take the
        # bracket from 1e-6, not divide by it
        spec = make_spec(c0, theta=2.980612458980872, g_ai=0.07476581910622132,
                         rho=0.00683171637719214)
        w0, w_a = welfare_no_takeover(spec).value, welfare_cornucopia(spec).value
        assert solvers._predicted_epsilon(spec, w0, w_a - w0) == (2.1163564709051488e-14, 0.0)
        out = solve_epsilon_mounting(spec)
        assert out.is_value
        assert f"{out.value:.6g}" == "2.12495e-14"

    def test_root_up_to_epsilon_max_is_a_value(self, monkeypatch):
        # at c0 = 1 and theta = 1, W_mounting(eps) ~ 1/eps and W0 = g_baseline / rho^2;
        # the bracket reaches EPSILON_MAX itself, so the root near 6.6 is found
        # on both the predicted and the fallback path
        spec = ScenarioSpec(c0=1.0, g_ai=0.2, g_baseline=0.05**2 / 7,
                            prefs=Preferences(rho=0.05, theta_rra=1.0))
        predicted = solve_epsilon_mounting(spec)
        monkeypatch.setattr(solvers, "_mounting_closed_form", lambda spec, eps: math.nan)
        fallback = solve_epsilon_mounting(spec)
        assert predicted.is_value and fallback.is_value
        assert 4.2 < predicted.value < solvers.EPSILON_MAX
        assert fallback.value == pytest.approx(predicted.value, rel=1e-9)


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
# bracket that grows upward from T = 1 in steps of 4, capped at T_DELAYED_MAX,
# and steps down from T = 1 in steps of 4 when the root lies below it
TIME_BRACKET_EDGES = (
    (1.0, 1e4, 0.03, 0.5, 1.0, 0.0, 1.0),  # below 1
    (1.0, 0.1, 1e-6, 0.2, 0.9, 4.0**9, solvers.T_DELAYED_MAX),  # the capped last step
    (1.0, 0.1, 4e-7, 0.2, 0.9, solvers.T_DELAYED_MAX, math.inf),  # beyond the domain
    # roots 49 and 149 decades below the first trial point T = 1
    (1.0, 1e100, 0.03, 0.5, 1.0, 0.0, 1.0),
    (1.0, 1e300, 0.03, 0.5, 1.0, 0.0, 1.0),
)


def _time_roots_oracle(spec, p3, p4):
    """Roots T of W_trunc(T) = W0 and of the delayed lottery = W0, to 40 digits by bisection."""
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
        keep = 1 - mpf(p3)
        return root(w0), root((w0 - keep * (1 - mpf(p4)) * w_a) / (keep * mpf(p4)))


@pytest.mark.parametrize("theta,g_ai,rho,p3,p4,lo,hi", TIME_BRACKET_EDGES)
def test_time_roots_at_the_bracket_edges(c0, theta, g_ai, rho, p3, p4, lo, hi):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    outcomes = (solve_extinction_time(spec), solve_T_delayed(spec, p3=p3, p4=p4))
    for out, exact in zip(outcomes, _time_roots_oracle(spec, p3, p4)):
        assert lo < exact < hi
        if exact > solvers.T_DELAYED_MAX:
            assert out.tag == "no_solution"
        else:
            assert out.is_value
            assert out.value == pytest.approx(exact, rel=1e-9)


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


# the closed form equals the quadrature, the quadrature falls as eps grows, and
# at a solved eps the quadrature welfare is W0
@settings(max_examples=100)
@given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(1.0, 3.0)),
       g_ai=st.floats(0.02, 0.5), rho=st.floats(0.002, 0.08),
       log_eps=st.floats(-9.0, -2.0), factor=st.floats(2.0, 100.0))
def test_mounting_welfare_and_epsilon_roots(c0, theta, g_ai, rho, log_eps, factor):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    eps = 10.0**log_eps
    w = welfare_mounting(spec, eps).value
    assert solvers._mounting_closed_form(spec, eps) == pytest.approx(w, rel=1e-9)
    assert welfare_mounting(spec, factor * eps).value <= w
    out = solve_epsilon_mounting(spec)
    if out.is_value:
        w0 = welfare_no_takeover(spec).value
        w_root = welfare_mounting(spec, out.value).value
        assert abs(w_root - w0) <= RESIDUAL_REL_TOL * max(1.0, abs(w0))


# where W_cornucopia beats W0 by more than 1e-6 of W0, the Newton polish and
# the bracket grown from 1e-6 (the fallback, forced by a slope of 0) find the
# same quadrature root; below a gap of about 1e-8 the quadrature residual is
# exactly 0 over a band of eps wider than 1e-8 relative, so the root is not
# determined to that tolerance
@settings(max_examples=100)
@given(theta=st.one_of(st.just(1.0), st.just(1.0001), st.floats(1.001, 3.0)),
       g_ai=st.floats(0.02, 0.5), rho=st.floats(0.002, 0.08))
def test_polished_epsilon_equals_the_bracketed_root(c0, theta, g_ai, rho):
    spec = make_spec(c0, theta=theta, g_ai=g_ai, rho=rho)
    w0 = welfare_no_takeover(spec).value
    assume((welfare_cornucopia(spec).value - w0) / w0 > 1e-6)
    polished = solve_epsilon_mounting(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_predicted_epsilon", _scaled_slope(0.0))
        fallback = solve_epsilon_mounting(spec)
    assert polished.tag == fallback.tag
    if polished.is_value:
        assert polished.value == pytest.approx(fallback.value, rel=1e-8)


def test_nan_residual_is_a_convergence_error(c0, monkeypatch):
    # a root whose residual is nan must not pass the residual check
    def nan_root(f, a, b, **kwargs):
        return RootResult(root=0.5 * (a + b), iterations=1, residual=math.nan)

    monkeypatch.setattr(solvers, "brent", nan_root)
    with pytest.raises(ConvergenceError, match="residual nan"):
        solvers.solve_extinction_time(make_spec(c0, theta=2.0))
