import math

import numpy as np
import pytest

from tai_welfare import (
    DomainError,
    MountingLogHazard,
    ProductionParams,
    ZeroHazard,
    asymptotic_growth_rate,
    ces,
    expected_lifespan,
    failure_mode_path,
    output,
    simulate,
    trajectory_csv,
)
from tai_welfare import growth
from tai_welfare.config import DEFAULT_G_BASELINE


class TestCes:
    def test_hand_computed_value(self):
        # sigma = 0.5, equal weights: (0.5 * 1 + 0.5 * sqrt(2))^2
        expected = (0.5 + 0.5 * math.sqrt(2.0)) ** 2
        assert ces(1.0, 2.0, 0.5, 0.5) == pytest.approx(1.45711, abs=1e-5)
        assert ces(1.0, 2.0, 0.5, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_equal_arguments_pass_through(self):
        for c in (0.3, 1.0, 17.0):
            assert ces(c, c, 0.5, -1.0) == pytest.approx(c, rel=1e-14)

    def test_degree_one_homogeneity(self, rng):
        for _ in range(50):
            x, s = rng.uniform(0.1, 10.0, size=2)
            lam = float(rng.uniform(0.1, 100.0))
            for sigma in (-2.0, -1.0, 0.5):
                assert ces(lam * x, lam * s, 0.4, sigma) == pytest.approx(
                    lam * ces(x, s, 0.4, sigma), rel=1e-12
                )

    def test_complements_limit_toward_min(self):
        assert ces(1.0, 100.0, 0.5, -40.0) == pytest.approx(1.0, rel=2e-2)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            ces(1.0, 1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            ces(1.0, 1.0, 0.5, 1.5)

    @pytest.mark.parametrize("args, name", [
        ((1.0, 2.0, 1.5, -1.0), "weight"),
        ((1.0, 2.0, -0.5, -1.0), "weight"),
        ((1.0, 2.0, 0.0, -1.0), "weight"),
        ((1.0, 2.0, 1.0, -1.0), "weight"),
        ((1.0, 2.0, math.nan, -1.0), "weight"),
        ((math.inf, 1.0, 0.5, 0.5), "argument x"),
        ((1.0, math.inf, 0.5, 0.5), "argument s"),
        ((1.0, 2.0, 0.5, -math.inf), "sigma"),
    ])
    def test_rejects_out_of_domain(self, args, name):
        with pytest.raises(DomainError, match=name):
            ces(*args)


class TestOutput:
    def test_increasing_in_capital(self):
        params = ProductionParams()
        ys = [output(params, k, "full_automation", params.A) for k in (0.5, 1.0, 2.0, 8.0)]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_bottleneck_saturates_in_capital(self):
        params = ProductionParams()
        y1 = output(params, 1e4, "bottlenecked", params.A)
        y2 = output(params, 1e6, "bottlenecked", params.A)
        assert (y2 - y1) / y1 < 0.01

    def test_full_automation_becomes_linear_in_capital(self):
        # at fixed technology, Y/K tends to F(alpha, A psi chi); the CES
        # asymptote is the further limit where technology also diverges
        params = ProductionParams()
        r1 = output(params, 1e6, "full_automation", params.A) / 1e6
        r2 = output(params, 1e8, "full_automation", params.A) / 1e8
        assert r1 == pytest.approx(r2, rel=1e-2)
        limit = ces(params.alpha, params.A * params.psi * params.chi,
                    params.share_hw, params.sigma)
        assert r2 == pytest.approx(limit, rel=1e-2)

    def test_declared_asymptote_reached_with_high_technology(self):
        params = ProductionParams(A=1e9)
        ratio = output(params, 1e8, "full_automation", params.A) / 1e8
        # lim_{S->inf} F(alpha, S) = alpha * share_hw^(1/sigma) for sigma < 0
        asymptote = params.share_hw ** (1.0 / params.sigma)
        assert ratio == pytest.approx(params.alpha * asymptote, rel=1e-2)

    def test_rejects_nonpositive_capital(self):
        for K in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="K must be"):
                output(ProductionParams(), K, "full_automation", 1.0)


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

    def test_step_cap_raises_before_allocating(self, monkeypatch):
        # the paths grow one step at a time, so no step means nothing allocated
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(growth, "output", no_step)
        with pytest.raises(DomainError, match="steps exceeds"):
            simulate(ProductionParams(), 1.0, 0.3, 0.05, 0.0, 1e6, 1e-6)


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


class TestFailureModes:
    def test_fm1_immediate_doom(self):
        _, hazard = failure_mode_path("fm1")
        assert expected_lifespan(hazard) == 0.0

    def test_fm2_lifespan_is_switch_time(self):
        _, hazard = failure_mode_path("fm2", switch_time=50.0)
        assert expected_lifespan(hazard) == 50.0

    def test_fm3_lifespan_is_switch_time(self):
        _, hazard = failure_mode_path("fm3", switch_time=12.5)
        assert expected_lifespan(hazard) == 12.5

    def test_fm4_pairs_mounting_hazard_with_fast_path(self):
        path, hazard = failure_mode_path("fm4", epsilon=2e-4, g_ai=0.2)
        assert isinstance(hazard, MountingLogHazard)
        assert hazard.path is path
        assert expected_lifespan(hazard) == pytest.approx(198.17, abs=0.01)

    def test_fm5_crash_clamps_at_subsistence(self):
        path, hazard = failure_mode_path(
            "fm5", c0=1.0, g_ai=0.05, switch_time=10.0, crash_factor=0.01
        )
        assert path.crash_clamped
        assert path.g_post == DEFAULT_G_BASELINE
        assert isinstance(hazard, ZeroHazard)


class TestTrajectoryCsv:
    def test_header_and_shape(self):
        traj = simulate(ProductionParams(), 1.0, 0.2, 0.02, 0.0, 1.0, 0.25)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,K,Y,C"
        assert len(lines) == 6
        assert text.endswith("\n")
