import math

import numpy as np
import pytest

from tai_welfare import (
    DomainError,
    ProductionParams,
    asymptotic_growth_rate,
    simulate,
    trajectory_csv,
)
from tai_welfare import growth
from tai_welfare.growth import _ces, _output


def _no_step(*args, **kwargs):
    raise AssertionError("a step was taken")


class TestCes:
    def test_hand_computed_value(self):
        # sigma = 0.5, equal weights: (0.5 * 1 + 0.5 * sqrt(2))^2
        expected = (0.5 + 0.5 * math.sqrt(2.0)) ** 2
        assert _ces(1.0, 2.0, 0.5, 0.5) == pytest.approx(1.45711, abs=1e-5)
        assert _ces(1.0, 2.0, 0.5, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_equal_arguments_pass_through(self):
        for c in (0.3, 1.0, 17.0):
            assert _ces(c, c, 0.5, -1.0) == pytest.approx(c, rel=1e-14)

    def test_degree_one_homogeneity(self, rng):
        for _ in range(50):
            x, s = rng.uniform(0.1, 10.0, size=2)
            lam = float(rng.uniform(0.1, 100.0))
            for sigma in (-2.0, -1.0, 0.5):
                assert _ces(lam * x, lam * s, 0.4, sigma) == pytest.approx(
                    lam * _ces(x, s, 0.4, sigma), rel=1e-12
                )

    def test_complements_limit_toward_min(self):
        assert _ces(1.0, 100.0, 0.5, -40.0) == pytest.approx(1.0, rel=2e-2)

    # _ces checks nothing: each CES input is checked once, where it enters,
    # by a ProductionParams field; an x = alpha K or an s = A (...) that
    # overflows on the path is test_overflow_reports_time's
    def test_rejects_bad_sigma(self):
        for sigma in (0.0, 1.5, -math.inf):
            with pytest.raises(DomainError, match="^sigma must be finite, < 1 and nonzero"):
                ProductionParams(sigma=sigma)

    # args: the ProductionParams field and value; name: the CES input it feeds
    @pytest.mark.parametrize("args, name", [
        (("share_hw", 1.5), "weight"),
        (("share_hw", -0.5), "weight"),
        (("share_hw", 0.0), "weight"),
        (("share_hw", 1.0), "weight"),
        (("share_hw", math.nan), "weight"),
        (("alpha", 0.0), "argument x"),
        (("gamma", -1.0), "argument s"),
        (("sigma", math.nan), "sigma"),
    ])
    def test_rejects_out_of_domain(self, args, name):
        field, value = args
        with pytest.raises(DomainError, match=f"^{field} must"):
            ProductionParams(**{field: value})


class TestOutput:
    def test_increasing_in_capital(self):
        params = ProductionParams()
        ys = [_output(params, k, "full_automation", params.A) for k in (0.5, 1.0, 2.0, 8.0)]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_bottleneck_saturates_in_capital(self):
        params = ProductionParams()
        y1 = _output(params, 1e4, "bottlenecked", params.A)
        y2 = _output(params, 1e6, "bottlenecked", params.A)
        assert (y2 - y1) / y1 < 0.01

    def test_full_automation_becomes_linear_in_capital(self):
        # at fixed technology, Y/K tends to F(alpha, A psi chi); the CES
        # asymptote is the further limit where technology also diverges
        params = ProductionParams()
        r1 = _output(params, 1e6, "full_automation", params.A) / 1e6
        r2 = _output(params, 1e8, "full_automation", params.A) / 1e8
        assert r1 == pytest.approx(r2, rel=1e-2)
        limit = _ces(params.alpha, params.A * params.psi * params.chi,
                     params.share_hw, params.sigma)
        assert r2 == pytest.approx(limit, rel=1e-2)

    def test_declared_asymptote_reached_with_high_technology(self):
        params = ProductionParams(A=1e9)
        ratio = _output(params, 1e8, "full_automation", params.A) / 1e8
        # lim_{S->inf} F(alpha, S) = alpha * share_hw^(1/sigma) for sigma < 0
        asymptote = params.share_hw ** (1.0 / params.sigma)
        assert ratio == pytest.approx(params.alpha * asymptote, rel=1e-2)

    def test_rejects_nonpositive_capital(self):
        # _output checks nothing: capital enters through simulate's K0 (its
        # nan and inf are test_rejects_non_finite_input_by_name's), and the
        # path's guard checks every later capital
        with pytest.raises(DomainError, match="^K0 must be finite and > 0"):
            simulate(ProductionParams(), 0.0, 0.3, 0.05, 0.0, 10.0, 0.5)


class TestSimulate:
    def test_no_saving_no_depreciation_keeps_capital(self):
        traj = simulate(ProductionParams(), 2.0, 0.0, 0.0, 0.0, 10.0, 0.01)
        assert np.allclose(traj.K, 2.0)

    def test_ak_regime_growth_rate(self):
        # alpha times the CES asymptote of 2 is 1 via alpha = 0.5
        params = ProductionParams(alpha=0.5)
        for s, delta in ((0.3, 0.05), (0.2, 0.02), (0.4, 0.1)):
            traj = simulate(params, 100.0, s, delta, 0.0, 200.0, 0.05)
            a_k_alpha = traj.Y[-1] / traj.K[-1]
            fitted = asymptotic_growth_rate(traj)
            assert fitted == pytest.approx(s * a_k_alpha - delta, abs=1e-3)

    def test_reference_point_ak_rate(self):
        # alpha = 0.5 against a saturated software side gives Y/K -> 1, so the
        # fitted rate is s * 1 - delta = 0.25
        params = ProductionParams(alpha=0.5, A=1e6)
        traj = simulate(params, 100.0, 0.3, 0.05, 0.0, 200.0, 0.05)
        assert asymptotic_growth_rate(traj) == pytest.approx(0.25, abs=1e-3)

    def test_bottleneck_growth_follows_technology(self):
        params = ProductionParams()
        for s in (0.2, 0.35):
            traj = simulate(
                params, 1.0, s, 0.05, 0.0175, 400.0, 0.05, regime="bottlenecked"
            )
            assert asymptotic_growth_rate(traj) == pytest.approx(0.0175, abs=1e-3)

    def test_consumption_closes_accounts(self):
        traj = simulate(ProductionParams(), 1.0, 0.25, 0.03, 0.01, 20.0, 0.1)
        assert len(traj.C) == len(traj.Y) == 201
        for c, y in zip(traj.C, traj.Y):
            assert c == pytest.approx(0.75 * y, rel=1e-15)

    def test_halving_dt_barely_moves_terminal_capital(self):
        params = ProductionParams(alpha=0.5)
        coarse = simulate(params, 10.0, 0.3, 0.05, 0.0, 50.0, 0.1)
        fine = simulate(params, 10.0, 0.3, 0.05, 0.0, 50.0, 0.05)
        assert abs(fine.K[-1] - coarse.K[-1]) / fine.K[-1] < 1e-6

    @pytest.mark.parametrize("name", ["K0", "delta", "tech_growth", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_input_by_name(self, name, value):
        run = {"K0": 1.0, "delta": 0.05, "tech_growth": 0.01}
        params = {}
        (params if name == "alpha" else run)[name] = value
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            simulate(ProductionParams(**params), saving_rate=0.3, horizon=10.0,
                     dt=0.5, **run)

    def test_collapse_reports_time(self):
        with pytest.raises(DomainError, match="t ="):
            simulate(ProductionParams(), 1e-2, 0.0, 5.0, 0.0, 10.0, 0.5)

    @pytest.mark.parametrize("params, regime, saving_rate, tech_growth, horizon", [
        # software A (h N + psi chi K) overflows as A grows; Y is nan
        pytest.param({"sigma": 0.5}, "full_automation", 0.9, 0.0175, 3000.0,
                     id="software"),
        # hardware alpha K overflows; Y is nan
        pytest.param({"alpha": 1e3, "sigma": 0.5}, "bottlenecked", 0.9, 0.0175, 3000.0,
                     id="hardware"),
        # capital overflows while Y = 2 S stays finite, as the CES of complements
        # would take alpha K = inf as its limit
        pytest.param({}, "bottlenecked", 0.9, 0.1, 7200.0, id="capital"),
        # software overflows before exp(tech_growth * t) raises OverflowError
        pytest.param({}, "full_automation", 0.0, 1.0, 800.0, id="technology"),
        # s / x overflows, so the CES is share_hw^(1/sigma) x, and 0.01^-1000
        # raises OverflowError at t = 0
        pytest.param({"alpha": 1e-300, "A": 1e300, "sigma": -1e-3, "share_hw": 0.01},
                     "full_automation", 0.0, 0.0, 1.0, id="ces-power"),
    ])
    def test_overflow_reports_time(self, params, regime, saving_rate, tech_growth,
                                   horizon):
        with pytest.raises(DomainError, match="^output is not finite and > 0 at t = "):
            simulate(ProductionParams(**params), 1.0, saving_rate, 0.0, tech_growth,
                     horizon, 1.0, regime=regime)

    def test_step_cap_raises_before_allocating(self, monkeypatch):
        # the paths grow one step at a time, so no step means nothing allocated
        monkeypatch.setattr(growth, "_output", _no_step)
        with pytest.raises(DomainError, match="steps exceeds"):
            simulate(ProductionParams(), 1.0, 0.3, 0.05, 0.0, 1e6, 1e-6)

    @pytest.mark.parametrize("horizon, dt, steps", [
        (1.0, 0.6, 1), (0.3, 0.1, 3), (200.0, 0.1, 2000), (400.0, 0.05, 8000), (0.9, 0.3, 3),
    ])
    def test_grid_ends_at_the_last_step_not_past_the_horizon(self, monkeypatch, horizon,
                                                             dt, steps):
        # a whole multiple that rounds below itself, 0.3 / 0.1 = 2.9999999999999996,
        # keeps its last step; 1 / 0.6 once ran 2 steps, to t = 1.2
        monkeypatch.setattr(growth, "_output", lambda params, K, regime, A: 1.0)
        traj = simulate(ProductionParams(), 1.0, 0.3, 0.05, 0.0, horizon, dt)
        assert len(traj.times) == steps + 1
        assert traj.times[-1] <= horizon + 1e-9 < traj.times[-1] + dt

    def test_horizon_shorter_than_one_step_raises(self, monkeypatch):
        monkeypatch.setattr(growth, "_output", _no_step)
        with pytest.raises(DomainError, match="^horizon 0.1 is shorter than one step"):
            simulate(ProductionParams(), 1.0, 0.3, 0.05, 0.0, 0.1, 0.3)

    def test_unknown_regime_raises_before_a_step(self, monkeypatch):
        monkeypatch.setattr(growth, "_output", _no_step)
        with pytest.raises(DomainError, match="^unknown regime 'feudal'"):
            simulate(ProductionParams(), 1.0, 0.3, 0.05, 0.0, 10.0, 0.5, regime="feudal")


class TestAsymptoticGrowthRate:
    def test_exact_exponential(self):
        from tai_welfare.growth import Trajectory

        t = np.linspace(0.0, 100.0, 2001)
        y = np.exp(0.2 * t)
        traj = Trajectory(t, y, y, y)
        assert asymptotic_growth_rate(traj) == pytest.approx(0.2, abs=1e-12)

    def test_needs_enough_points(self):
        from tai_welfare.growth import Trajectory

        t = np.linspace(0.0, 1.0, 8)
        y = np.exp(t)
        traj = Trajectory(t, y, y, y)
        with pytest.raises(DomainError):
            asymptotic_growth_rate(traj)


class TestTrajectoryCsv:
    def test_header_and_shape(self):
        traj = simulate(ProductionParams(), 1.0, 0.2, 0.02, 0.0, 1.0, 0.25)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,K,Y,C"
        assert len(lines) == 6
        assert text.endswith("\n")
