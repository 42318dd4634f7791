import math

import numpy as np
import pytest

from tai_welfare import DomainError, Preferences, ScenarioSpec, effective_discount
from tai_welfare.welfare import _flow_from_log


def utility(log_c: float, theta: float) -> float:
    """Flow utility at consumption e^log_c, as the welfare integrals use it."""
    return float(_flow_from_log(log_c, 0.0, theta)(0.0))


class TestCrraUtility:
    def test_zero_at_subsistence(self):
        for theta in (0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, 5.0):
            assert utility(0.0, theta) == 0.0

    def test_log_case(self):
        assert utility(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_theta_two(self):
        assert utility(math.log(2.0), 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_rejects_sub_subsistence(self):
        with pytest.raises(DomainError):
            ScenarioSpec(c0=0.99, g_ai=0.05, prefs=Preferences())

    def test_continuous_in_theta_near_one(self, rng):
        # the theta-derivative of utility at theta = 1 is (log c)^2 / 2, so a
        # 1e-6 window must stay within that first-order envelope; 1 +- 1e-9
        # takes the series branch for |1 - theta| < 1e-8
        for log_c in rng.uniform(0.0, math.log(1e6), size=200):
            log_c = float(log_c)
            for delta in (1e-6, 1e-9):
                envelope = delta * log_c**2 / 2.0
                for theta in (1.0 - delta, 1.0 + delta):
                    diff = abs(utility(log_c, theta) - log_c)
                    assert diff <= envelope * 1.001 + 1e-12

    def test_bounded_above_for_theta_gt_one(self):
        # consumption up to 1e300; the supremum 1/(theta-1) is approached
        # within one ulp once (theta-1) log c exceeds ~745, so the strict
        # inequality is checked where it is representable
        for theta in (1.5, 2.0, 4.0):
            bound = 1.0 / (theta - 1.0)
            log_c = np.linspace(0.0, math.log(1e300), 50)
            u = _flow_from_log(0.0, 1.0, theta)(log_c)
            assert np.all(u <= bound)
            assert np.all(u[(theta - 1.0) * log_c < 30.0] < bound)

    def test_strictly_increasing(self, rng):
        for theta in (0.5, 1.0, 2.0):
            log_c = np.sort(rng.uniform(0, 10, size=50))
            u = _flow_from_log(0.0, 1.0, theta)(log_c)
            assert np.all(np.diff(u) >= 0.0)


class TestEffectiveDiscount:
    def test_millian_no_background(self):
        prefs = Preferences(rho=0.03, nu=0.0, n_pop_growth=0.01)
        assert effective_discount(prefs) == pytest.approx(0.03)

    def test_benthamite_subtracts_population_growth(self):
        prefs = Preferences(rho=0.03, nu=1.0, n_pop_growth=0.01)
        assert effective_discount(prefs) == pytest.approx(0.02)

    def test_background_hazard_adds(self):
        prefs = Preferences(rho=0.03, m_background=0.001)
        assert effective_discount(prefs) == pytest.approx(0.031)

    def test_validation(self):
        with pytest.raises(DomainError):
            Preferences(rho=-0.01)
        with pytest.raises(DomainError):
            Preferences(nu=1.5)
        with pytest.raises(DomainError):
            Preferences(m_background=-1e-9)

    def test_rejects_non_finite(self):
        for name in ("rho", "theta_rra", "nu", "n_pop_growth", "m_background"):
            for value in (math.nan, math.inf):
                with pytest.raises(DomainError, match=name):
                    Preferences(**{name: value})
