import numpy as np
import pytest
from hypothesis import settings

from tai_welfare import Preferences, ScenarioSpec
from tai_welfare.config import calibrate_c0


# every property test replays the same examples, keeps no example database and
# has no per-example deadline; each sets only its own max_examples
settings.register_profile("tai_welfare", derandomize=True, database=None, deadline=None)
settings.load_profile("tai_welfare")


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
