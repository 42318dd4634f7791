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
    SafetyGoodsHazard,
    ZeroHazard,
    cumulative_hazard,
    expected_lifespan,
    hazard_rate,
    survival,
)

ALL_MODELS = [
    ZeroHazard(),
    ConstantHazard(0.01),
    OneOffHazard(50.0),
    MountingLogHazard(2e-4, ExponentialPath(1.0, 0.2)),
    MountingLogHazard(1e-3, ExponentialPath(47000.0, 0.05)),
]


class TestHazardRate:
    def test_zero_model(self):
        assert hazard_rate(ZeroHazard(), 1e6) == 0.0

    def test_one_off_rate_is_zero_before_step(self):
        assert hazard_rate(OneOffHazard(50.0), 49.9) == 0.0
        assert hazard_rate(OneOffHazard(50.0), 1e4) == 0.0

    def test_mounting_at_subsistence_start(self):
        model = MountingLogHazard(1e-3, ExponentialPath(1.0, 0.2))
        assert hazard_rate(model, 0.0) == 0.0

    def test_mounting_linear_in_time(self):
        model = MountingLogHazard(1e-3, ExponentialPath(1.0, 0.2))
        assert hazard_rate(model, 10.0) == pytest.approx(0.002, rel=1e-12)

    def test_safety_goods_unit_factors(self):
        model = SafetyGoodsHazard(1.0, 1.0, 1.0, lambda t: 1.0, lambda t: 1.0)
        assert hazard_rate(model, 3.0) == 1.0

    def test_safety_goods_rejects_nonpositive_safety(self):
        model = SafetyGoodsHazard(1.0, 1.0, 1.0, lambda t: 1.0, lambda t: 0.0)
        with pytest.raises(DomainError):
            hazard_rate(model, 1.0)

    def test_mounting_rejects_sub_subsistence_path(self):
        path = CrashPath(c0=1.0, g_pre=0.0, t_stop=0.0, crash_factor=1.0, g_post=0.0)
        model = MountingLogHazard(1e-3, path)
        assert hazard_rate(model, 1.0) == 0.0  # clamped exactly at subsistence


class TestSurvival:
    def test_zero_model_survives_forever(self):
        assert survival(ZeroHazard(), 1e6) == 1.0

    def test_one_off_step(self):
        assert survival(OneOffHazard(50.0), 49.9) == 1.0
        assert survival(OneOffHazard(50.0), 50.0) == 0.0

    def test_mounting_closed_form(self):
        model = MountingLogHazard(1e-3, ExponentialPath(1.0, 0.2))
        assert survival(model, 10.0) == pytest.approx(math.exp(-0.01), rel=1e-12)

    def test_matches_exp_of_cumulative_hazard(self):
        for model in ALL_MODELS:
            for t in (0.0, 1.0, 10.0, 99.9):
                h = cumulative_hazard(model, t)
                expected = math.exp(-h) if h != math.inf else 0.0
                assert abs(survival(model, t) - expected) <= 1e-12

    def test_starts_at_one_and_never_increases(self):
        grid = np.linspace(0.0, 400.0, 1000)
        for model in ALL_MODELS:
            values = [survival(model, float(t)) for t in grid]
            assert values[0] == 1.0
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_mounting_cumulative_matches_quadrature(self):
        # closed-form quadratic exponent vs direct integration of the rate
        model = MountingLogHazard(3e-4, ExponentialPath(20.0, 0.1))
        from tai_welfare.quadrature import integrate_finite

        for t in (5.0, 40.0, 120.0):
            direct = integrate_finite(
                lambda s: np.array([hazard_rate(model, float(v)) for v in s]),
                0.0,
                t,
                abs_tol=1e-12,
                rel_tol=1e-12,
            ).value
            assert cumulative_hazard(model, t) == pytest.approx(direct, rel=1e-10)


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
        with pytest.raises(DomainError):
            OneOffHazard(-1.0)

    @pytest.mark.parametrize("make", [
        ConstantHazard,
        OneOffHazard,
        lambda eps: MountingLogHazard(eps, ExponentialPath(1.0, 0.2)),
    ], ids=["constant", "one-off", "mounting"])
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
        assert path.consumption(10.0) == pytest.approx(1.0)
        assert path.consumption(9.999) > 1.5

    def test_no_clamp_for_mild_crash(self):
        path = CrashPath(c0=100.0, g_pre=0.3, t_stop=20.0, crash_factor=0.5, g_post=0.0175)
        assert not path.crash_clamped
        pre = path.consumption(20.0 - 1e-9)
        assert path.consumption(20.0) == pytest.approx(0.5 * pre, rel=1e-6)

    def test_cumulative_log_consumption_piecewise(self):
        path = CrashPath(c0=math.e, g_pre=0.1, t_stop=5.0, crash_factor=1.0, g_post=0.02)
        direct = 1.0 * 5.0 + 0.05 * 25.0  # head: lam t + g t^2 / 2
        assert path.cumulative_log_c(5.0) == pytest.approx(direct, rel=1e-12)
        tail = path.cumulative_log_c(8.0) - path.cumulative_log_c(5.0)
        lam5 = path.log_c(5.0)
        assert tail == pytest.approx(lam5 * 3.0 + 0.01 * 9.0, rel=1e-12)
