import math

import pytest

from tai_welfare import (
    DomainError,
    ScenarioSpec,
    equivalent_variation,
    ev_panel,
    welfare_cornucopia,
    welfare_truncated,
    wtp_per_period,
)
from conftest import make_spec


class TestEquivalentVariation:
    def test_identical_scenarios_pay_nothing(self, c0):
        spec = make_spec(c0)
        w = welfare_cornucopia(spec).value
        result = equivalent_variation(w, w, spec.prefs)
        assert result.ev == 1.0
        assert result.wtp_fraction == 0.0

    def test_certain_extinction_at_100_reference_cell(self, c0):
        spec = make_spec(c0, g_ai=0.05, rho=0.05)
        result = equivalent_variation(
            welfare_cornucopia(spec).value, welfare_truncated(spec, 100.0).value,
            spec.prefs,
        )
        assert result.ev == pytest.approx(0.893228, rel=5e-3)

    def test_immediate_risk_reference_cell(self, c0):
        result = ev_panel(make_spec(c0, g_ai=0.05, rho=0.05), "b", p3=0.1)
        assert result.ev == pytest.approx(0.308575, rel=5e-3)

    def test_lottery_reference_cell(self, c0):
        result = ev_panel(
            make_spec(c0, g_ai=0.05, rho=0.05), "c", p3=0.1, p4=0.1, T=50.0
        )
        assert result.ev == pytest.approx(0.277725, rel=5e-3)

    def test_tiny_ev_computed_in_log_space(self, c0):
        # values this small only make sense through log_ev
        result = ev_panel(make_spec(c0, g_ai=0.4, rho=0.002), "a", T=100.0)
        assert result.log_ev == pytest.approx(math.log(6.88573e-90), rel=5e-3)
        assert 0.0 < result.ev < 1e-80

    def test_rejects_other_curvatures(self, c0):
        spec = make_spec(c0, theta=2.0)
        w = welfare_cornucopia(spec).value
        with pytest.raises(DomainError):
            equivalent_variation(w, w, spec.prefs)

    def test_ev_decreasing_in_welfare_gap(self, c0, rng):
        spec = make_spec(c0)
        w_a = welfare_cornucopia(spec).value
        gaps = sorted(rng.uniform(0.0, 50.0, size=20))
        evs = []
        for gap in gaps:
            evs.append(equivalent_variation(w_a, w_a - gap, spec.prefs).ev)
        assert all(b < a for a, b in zip(evs, evs[1:]))

    def test_scaling_property_defines_ev(self, c0):
        # scaling consumption by EV reproduces the risky welfare exactly
        spec = make_spec(c0, g_ai=0.1, rho=0.03)
        risky = welfare_truncated(spec, 80.0)
        result = equivalent_variation(
            welfare_cornucopia(spec).value, risky.value, spec.prefs
        )
        scaled = ScenarioSpec(
            c0=c0 * result.ev, g_ai=0.1, prefs=spec.prefs, g_baseline=spec.g_baseline
        )
        assert welfare_cornucopia(scaled).value == pytest.approx(
            risky.value, rel=1e-8
        )


class TestWtp:
    def test_headline_fractions(self):
        from tai_welfare.compensation import EvResult

        ev = EvResult(0.125, math.log(0.125), 0.875)
        assert wtp_per_period(ev, 1.0) == pytest.approx(0.875)
        ev = EvResult(0.061, math.log(0.061), 0.939)
        assert wtp_per_period(ev, 1.0) == pytest.approx(0.939)

    def test_zero_gap_means_zero_wtp(self, c0):
        spec = make_spec(c0)
        w = welfare_cornucopia(spec).value
        result = equivalent_variation(w, w, spec.prefs)
        assert wtp_per_period(result, 123.0) == 0.0

    def test_scales_with_consumption(self, c0):
        result = ev_panel(make_spec(c0, g_ai=0.05, rho=0.05), "b", p3=0.1)
        assert wtp_per_period(result, 2.0) == pytest.approx(
            2.0 * result.wtp_fraction
        )
