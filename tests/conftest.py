import numpy as np
import pytest

from tai_welfare import Preferences, ScenarioSpec
from tai_welfare.config import calibrate_c0


@pytest.fixture(scope="session")
def c0():
    return calibrate_c0()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


def make_spec(c0, theta=1.0, g_ai=0.05, rho=0.05, **kw):
    return ScenarioSpec(
        c0=c0, g_ai=g_ai, prefs=Preferences(rho=rho, theta_rra=theta), **kw
    )
