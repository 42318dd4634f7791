import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tai_welfare import (
    DomainError,
    ScenarioSpec,
    ev_panel,
    welfare_cornucopia,
    welfare_truncated,
    wtp_per_period,
)
from conftest import make_spec


class TestEquivalentVariation:
    def test_identical_scenarios_pay_nothing(self, c0):
        result = ev_panel(make_spec(c0), "b", p3=0.0)
        assert result.ev == 1.0
        assert result.wtp_fraction == 0.0

    def test_certain_extinction_at_100_reference_cell(self, c0):
        result = ev_panel(make_spec(c0, g_ai=0.05, rho=0.05), "a", T=100.0)
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
        # the curvature is checked before anything the panel reads
        spec = make_spec(c0, theta=2.0)
        for panel in ("a", "b", "c", "d", "z"):
            with pytest.raises(DomainError, match="theta = 1 only"):
                ev_panel(spec, panel)
        with pytest.raises(DomainError, match="theta = 1 only"):
            ev_panel(spec, "b", p3=0.1)

    def test_ev_decreasing_in_welfare_gap(self, c0, rng):
        # a rising p3 raises the welfare loss p3 W_cornucopia
        spec = make_spec(c0)
        evs = [ev_panel(spec, "b", p3=p3).ev for p3 in sorted(rng.uniform(0.0, 1.0, size=20))]
        assert all(b < a for a, b in zip(evs, evs[1:]))

    def test_scaling_property_defines_ev(self, c0):
        # scaling consumption by EV reproduces the risky welfare exactly
        spec = make_spec(c0, g_ai=0.1, rho=0.03)
        risky = welfare_truncated(spec, 80.0)
        result = ev_panel(spec, "a", T=80.0)
        scaled = ScenarioSpec(
            c0=c0 * result.ev, g_ai=0.1, prefs=spec.prefs, g_baseline=spec.g_baseline
        )
        assert welfare_cornucopia(scaled).value == pytest.approx(
            risky.value, rel=1e-8
        )

    def test_rejects_probabilities_outside_the_unit_interval(self, c0):
        spec = make_spec(c0)
        with pytest.raises(DomainError, match="p3 must lie in"):
            ev_panel(spec, "b", p3=1.2)
        with pytest.raises(DomainError, match="p4 must lie in"):
            ev_panel(spec, "c", p3=0.1, p4=-0.1, T=50.0)
        with pytest.raises(DomainError, match="p3 must lie in"):
            ev_panel(spec, "c", p3=math.nan, p4=0.1, T=50.0)

    def test_rejects_doom_dates_that_are_not_finite_and_nonnegative(self, c0):
        for panel, values in (("a", {}), ("c", {"p3": 0.1, "p4": 0.1})):
            for T in (-1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match="horizon must be finite"):
                    ev_panel(make_spec(c0), panel, T=T, **values)

    def test_overflowing_welfare_is_a_domain_error(self, c0):
        # g / rho^2 overflows the cornucopia welfare to inf
        with pytest.raises(DomainError, match="welfare values must be finite"):
            ev_panel(make_spec(c0, g_ai=1e308, rho=0.001), "b", p3=0.5)


PANEL_VALUES = {"a": ("T",), "b": ("p3",), "c": ("p3", "p4", "T"), "d": ("epsilon",)}


# every panel states its loss with no difference of welfare values, so EV never
# rounds above 1.  Draws as the closed-form sweep draws, with panel d's slope
# 10^U[-22, -1]; at the example cells the differences W_cornucopia - W_trunc(T)
# and W_cornucopia - W_mounting round to log_ev = +2.25e-15 and +1.55e-15
@settings(max_examples=300)
@given(panel=st.sampled_from("abcd"), g_ai=st.floats(0.02, 0.5), rho=st.floats(0.001, 0.08),
       T=st.floats(1.0, 500.0), p3=st.floats(0.0, 1.0), p4=st.floats(0.0, 1.0),
       epsilon=st.floats(-22.0, -1.0).map(lambda e: 10.0**e))
@example(panel="a", g_ai=0.11856039751911855, rho=0.07909412771201077,
         T=482.4513738384713, p3=0.5, p4=0.5, epsilon=1e-3)
@example(panel="d", g_ai=0.11577034312206609, rho=0.054397808328970725,
         T=1.0, p3=0.5, p4=0.5, epsilon=2.586189670882958e-21)
def test_ev_lies_in_the_unit_interval(c0, panel, g_ai, rho, T, p3, p4, epsilon):
    given_values = {"T": T, "p3": p3, "p4": p4, "epsilon": epsilon}
    values = {name: given_values[name] for name in PANEL_VALUES[panel]}
    result = ev_panel(make_spec(c0, g_ai=g_ai, rho=rho), panel, **values)
    assert result.log_ev <= 0.0
    assert 0.0 < result.ev <= 1.0


def _ev_oracle(c0, panel, g_ai, rho, T, p3, p4):
    # log EV and wtp to 50 digits from W_cornucopia - W_risky, the finite-horizon
    # welfare subtracted from the infinite one (no tail identity).  The loss can
    # be 1e-341 of W_cornucopia (p4 = 5e-324 times e^-40), so the difference is
    # taken at 400 digits
    from mpmath import mp, mpf

    with mp.workdps(400):
        lam, g, r, T, p3, p4 = mp.log(mpf(c0)), mpf(g_ai), mpf(rho), mpf(T), mpf(p3), mpf(p4)
        e_r = -mp.expm1(-r * T) / r
        w_c = lam / r + g / r**2
        w_trunc = lam * e_r + g * (e_r - T * mp.exp(-r * T)) / r
        w_risky = {"a": w_trunc, "b": (1 - p3) * w_c,
                   "c": (1 - p3) * (p4 * w_trunc + (1 - p4) * w_c)}[panel]
        log_ev = -r * (w_c - w_risky)
        return log_ev, -mp.expm1(log_ev)


def _close(actual, exact):
    # 1e-12 relative down to the smallest normal double, 2.2e-308; below it a
    # double holds fewer digits, and 1e-320 is a few of its spacings
    return abs(actual - exact) <= 1e-12 * abs(exact) + 1e-320


# rho T up to 40, where W_trunc(T) agrees with W_cornucopia to about 17 digits
@settings(max_examples=150)
@given(panel=st.sampled_from("abc"), g_ai=st.floats(0.02, 0.5), rho=st.floats(0.001, 0.08),
       rho_T=st.floats(0.01, 40.0), p3=st.floats(0.0, 1.0), p4=st.floats(0.0, 1.0))
@example(panel="a", g_ai=0.2, rho=0.08, rho_T=32.0, p3=0.0, p4=0.0)
@example(panel="b", g_ai=0.5, rho=0.0625, rho_T=1.0, p3=8.568226491442569e-55, p4=0.0)
@example(panel="c", g_ai=0.02, rho=0.08, rho_T=40.0, p3=0.0, p4=5e-324)
def test_log_ev_and_wtp_match_the_50_digit_values(c0, panel, g_ai, rho, rho_T, p3, p4):
    T = rho_T / rho
    given_values = {"T": T, "p3": p3, "p4": p4}
    values = {name: given_values[name] for name in PANEL_VALUES[panel]}
    result = ev_panel(make_spec(c0, g_ai=g_ai, rho=rho), panel, **values)
    log_ev, wtp = _ev_oracle(c0, panel, g_ai, rho, T, p3, p4)
    assert _close(result.log_ev, log_ev)
    assert _close(result.wtp_fraction, wtp)


class TestWtp:
    def test_headline_fractions(self):
        from tai_welfare.compensation import EvResult

        ev = EvResult(0.125, math.log(0.125), 0.875)
        assert wtp_per_period(ev, 1.0) == pytest.approx(0.875)
        ev = EvResult(0.061, math.log(0.061), 0.939)
        assert wtp_per_period(ev, 1.0) == pytest.approx(0.939)

    def test_zero_gap_means_zero_wtp(self, c0):
        result = ev_panel(make_spec(c0), "b", p3=0.0)
        assert wtp_per_period(result, 123.0) == 0.0

    def test_scales_with_consumption(self, c0):
        result = ev_panel(make_spec(c0, g_ai=0.05, rho=0.05), "b", p3=0.1)
        assert wtp_per_period(result, 2.0) == pytest.approx(
            2.0 * result.wtp_fraction
        )

    @pytest.mark.parametrize("level", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_consumption_level_outside_finite_positive(self, c0, level):
        result = ev_panel(make_spec(c0), "b", p3=0.0)
        with pytest.raises(DomainError, match="^consumption_level must be finite and > 0"):
            wtp_per_period(result, level)
