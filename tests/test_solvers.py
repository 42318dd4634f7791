import pytest

from tai_welfare import (
    lottery_value,
    solve_T_delayed,
    solve_epsilon_mounting,
    solve_extinction_time,
    solve_p3_delayed,
    solve_p3_immediate,
    solve_p4_delayed,
    welfare_cornucopia,
    welfare_no_takeover,
    welfare_truncated,
)
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
        from tai_welfare import welfare_mounting

        spec = make_spec(c0, theta=1.0001, g_ai=0.1, rho=0.01)
        out = solve_epsilon_mounting(spec)
        w0 = welfare_no_takeover(spec).value
        assert abs(welfare_mounting(spec, out.value).value - w0) <= 1e-8 * w0

    def test_no_solution_when_growth_not_faster(self, c0):
        out = solve_epsilon_mounting(make_spec(c0, theta=1.0, g_ai=0.0175, rho=0.03))
        assert out.tag == "no_solution"


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
