import math

import numpy as np
import pytest

from tai_welfare import (
    ConstantHazard,
    CrashPath,
    DomainError,
    ExponentialPath,
    MountingLogHazard,
    OneOffHazard,
    ZeroHazard,
    expected_lifespan,
    failure_mode_path,
    survival,
)
from tai_welfare.config import DEFAULT_G_BASELINE

ALL_MODELS = [
    ZeroHazard(),
    ConstantHazard(0.01),
    OneOffHazard(50.0),
    MountingLogHazard(2e-4, ExponentialPath(1.0, 0.2)),
    MountingLogHazard(1e-3, ExponentialPath(47000.0, 0.05)),
]


class TestSurvival:
    def test_zero_model_survives_forever(self):
        assert survival(ZeroHazard(), 1e6) == 1.0

    def test_one_off_step(self):
        assert survival(OneOffHazard(50.0), 49.9) == 1.0
        assert survival(OneOffHazard(50.0), 50.0) == 0.0

    def test_mounting_closed_form(self):
        model = MountingLogHazard(1e-3, ExponentialPath(1.0, 0.2))
        assert survival(model, 10.0) == pytest.approx(math.exp(-0.01), rel=1e-12)

    def test_zero_slope_mounting_survives_where_g_t_squared_overflows(self):
        # g t^2 / 2 is inf at t = 1e200, and eps = 0 times it would be nan
        assert survival(MountingLogHazard(0.0, ExponentialPath(1.0, 0.3)), 1e200) == 1.0

    def test_matches_exp_of_cumulative_hazard(self):
        for model in ALL_MODELS:
            for t in (0.0, 1.0, 10.0, 99.9):
                h = model.cumulative(t)
                expected = math.exp(-h) if h != math.inf else 0.0
                assert abs(survival(model, t) - expected) <= 1e-12

    def test_rejects_non_finite_time(self):
        # nan compares false against every bound, and inf * 0.0 is nan
        for model in ALL_MODELS:
            for t in (math.nan, math.inf):
                with pytest.raises(DomainError, match="t must be"):
                    survival(model, t)
        with pytest.raises(DomainError):
            survival(ConstantHazard(0.0), math.inf)

    def test_starts_at_one_and_never_increases(self):
        grid = np.linspace(0.0, 400.0, 1000)
        for model in ALL_MODELS:
            values = [survival(model, float(t)) for t in grid]
            assert values[0] == 1.0
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_mounting_cumulative_matches_quadrature(self):
        # closed-form quadratic exponent vs direct integration of the rate
        # eps * log C(s) = eps * (log c0 + g s)
        model = MountingLogHazard(3e-4, ExponentialPath(20.0, 0.1))
        from tai_welfare.quadrature import integrate_finite

        for t in (5.0, 40.0, 120.0):
            direct = integrate_finite(
                lambda s: 3e-4 * (math.log(20.0) + 0.1 * s),
                0.0,
                t,
                abs_tol=1e-12,
                rel_tol=1e-12,
            ).value
            assert model.cumulative(t) == pytest.approx(direct, rel=1e-10)


class TestExpectedLifespan:
    def test_constant_rate_inverse(self):
        assert expected_lifespan(ConstantHazard(0.01)) == pytest.approx(100.0)

    def test_one_off_date(self):
        assert expected_lifespan(OneOffHazard(50.0)) == 50.0

    def test_zero_model_infinite(self):
        assert expected_lifespan(ZeroHazard()) == math.inf

    def test_mounting_normalized_start(self):
        model = MountingLogHazard(2e-4, ExponentialPath(1.0, 0.2))
        expected = math.sqrt(math.pi / (2.0 * 2e-4 * 0.2))
        assert expected == pytest.approx(198.17, abs=0.01)
        assert expected_lifespan(model) == pytest.approx(expected, rel=1e-12)

    def test_mounting_closed_form_vs_quadrature_grid(self):
        # includes c0 > 1, which exercises the scaled-complement branch
        for c0 in (1.0, 47000.0):
            for eps in (1e-5, 1e-4, 1e-3):
                for g in (0.05, 0.2, 0.4):
                    model = MountingLogHazard(eps, ExponentialPath(c0, g))
                    closed = expected_lifespan(model)
                    numeric = _lifespan_by_simpson(model)
                    assert closed == pytest.approx(numeric, rel=1e-6), (c0, eps, g)

    def test_mounting_zero_epsilon_infinite(self):
        model = MountingLogHazard(0.0, ExponentialPath(1.0, 0.2))
        assert expected_lifespan(model) == math.inf

    def test_mounting_constant_reduction_at_zero_growth(self):
        c0 = math.exp(2.0)
        model = MountingLogHazard(1e-3, ExponentialPath(c0, 0.0))
        assert expected_lifespan(model) == pytest.approx(1.0 / (1e-3 * 2.0), rel=1e-12)

    def test_rejects_negative_parameters(self):
        with pytest.raises(DomainError):
            ConstantHazard(-0.01)
        with pytest.raises(DomainError):
            MountingLogHazard(-1e-4, ExponentialPath(1.0, 0.2))
        with pytest.raises(DomainError, match="negative growth"):
            MountingLogHazard(1e-3, ExponentialPath(1.0, -0.1))
        with pytest.raises(DomainError):
            OneOffHazard(-1.0)

    @pytest.mark.parametrize("make", [
        ConstantHazard,
        OneOffHazard,
        lambda eps: MountingLogHazard(eps, ExponentialPath(1.0, 0.2)),
        lambda c0: ExponentialPath(c0, 0.2),
        lambda g: expected_lifespan(MountingLogHazard(1e-3, ExponentialPath(2.0, g))),
        lambda c0: CrashPath(c0, 0.05, 10.0, 0.5, 0.0175),
        lambda g: CrashPath(1.0, g, 10.0, 0.5, 0.0175),
        lambda t: CrashPath(1.0, 0.05, t, 0.5, 0.0175),
        lambda g: CrashPath(1.0, 0.05, 10.0, 0.5, g),
    ], ids=["constant", "one-off", "mounting", "path-c0", "path-growth",
            "crash-c0", "crash-g_pre", "crash-t_stop", "crash-g_post"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameter(self, make, value):
        with pytest.raises(DomainError, match="finite"):
            make(value)


def _lifespan_by_simpson(model, n=200_001):
    # brute-force oracle: fixed-step Simpson over [0, T] with M(T) ~ 0
    upper = 1.0
    while survival(model, upper) > 1e-18:
        upper *= 2.0
    t = np.linspace(0.0, upper, n)
    m = np.array([survival(model, float(v)) for v in t])
    h = t[1] - t[0]
    return h / 3.0 * (m[0] + m[-1] + 4.0 * m[1:-1:2].sum() + 2.0 * m[2:-1:2].sum())


class TestCrashPath:
    def test_clamps_at_subsistence(self):
        path = CrashPath(c0=1.0, g_pre=0.05, t_stop=10.0, crash_factor=0.1, g_post=0.0175)
        assert path.crash_clamped
        # crash_factor * C(t_stop-) = 0.1 e^0.5 lies below subsistence
        assert math.exp(path._log_crashed()) == pytest.approx(0.1 * math.exp(0.5), rel=1e-12)

    def test_no_clamp_for_mild_crash(self):
        path = CrashPath(c0=100.0, g_pre=0.3, t_stop=20.0, crash_factor=0.5, g_post=0.0175)
        assert not path.crash_clamped
        pre = 100.0 * math.exp(0.3 * 20.0)
        assert math.exp(path._log_crashed()) == pytest.approx(0.5 * pre, rel=1e-12)

    def test_mounting_hazard_needs_exponential_path(self):
        path = CrashPath(c0=1.0, g_pre=0.05, t_stop=10.0, crash_factor=0.5, g_post=0.0)
        with pytest.raises(DomainError, match="ExponentialPath"):
            MountingLogHazard(1e-3, path)


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

    @pytest.mark.parametrize("mode, kwargs, expected", [
        # a mounting hazard on a falling path, or with a negative slope, is
        # invalid, but only fm4 builds one
        ("fm1", {"g_ai": -0.1}, (ExponentialPath(1.0, -0.1), OneOffHazard(0.0))),
        ("fm5", {"g_ai": -0.1, "switch_time": 2.0, "crash_factor": 0.5},
         (CrashPath(1.0, -0.1, 2.0, 0.5, DEFAULT_G_BASELINE), ZeroHazard())),
        ("fm2", {"switch_time": 3.0, "epsilon": -1.0},
         (ExponentialPath(1.0, 0.3), OneOffHazard(3.0))),
    ])
    def test_builds_only_the_selected_modes_models(self, mode, kwargs, expected):
        result = failure_mode_path(mode, **kwargs)
        assert result == expected
        assert tuple(map(type, result)) == tuple(map(type, expected))

    @pytest.mark.parametrize("mode", ["fm1", "fm2", "fm3", "fm4", "fm5"])
    @pytest.mark.parametrize("switch_time", [math.nan, math.inf, -1.0])
    def test_rejects_a_switch_time_outside_finite_nonnegative(self, mode, switch_time):
        with pytest.raises(DomainError, match="^switch_time must be finite and >= 0"):
            failure_mode_path(mode, switch_time=switch_time, epsilon=1e-4)
