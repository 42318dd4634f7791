import numpy as np
import pytest
from hypothesis import settings

from tai_welfare import Preferences, ScenarioSpec
from tai_welfare.config import calibrate_c0, format_number


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


def mounting_welfare_mp(spec, epsilon):
    """W = int e^(-rho t) u(c0 e^(g t)) e^(-eps (lam t + g t^2 / 2)) dt in mpmath.

    Evaluated at the caller's working precision.  With b = eps g,
    a0 = rho + eps lam and the Gaussian-tail primitive
    G(a, b) = sqrt(pi / 2b) erfcx(a / sqrt(2b)), W = [e^(q lam) G(a0 - q g, b)
    - G(a0, b)] / q for q = 1 - theta, and lam G + g (1 - a0 G) / b at q = 0.
    """
    from mpmath import mp, mpf

    lam, g = mp.log(mpf(spec.c0)), mpf(spec.g_ai)
    q = 1 - mpf(spec.prefs.theta_rra)
    b = mpf(epsilon) * g
    a0 = mpf(spec.prefs.rho) + mpf(epsilon) * lam

    def G(a):
        z = a / mp.sqrt(2 * b)
        return mp.sqrt(mp.pi / (2 * b)) * mp.exp(z * z) * mp.erfc(z)

    if q == 0:
        return lam * G(a0) + g * (1 - a0 * G(a0)) / b
    return (mp.exp(q * lam) * G(a0 - q * g) - G(a0)) / q


def epsilon_excess(spec, eps):
    """W_mounting(eps) - W0 to 80 digits."""
    from mpmath import mp, mpf

    with mp.workdps(80):
        lam, rho, g0 = mp.log(mpf(spec.c0)), mpf(spec.prefs.rho), mpf(spec.g_baseline)
        q = 1 - mpf(spec.prefs.theta_rra)
        w0 = lam / rho + g0 / rho**2 if q == 0 else (
            (rho * mp.expm1(q * lam) / q + g0) / (rho * (rho - q * g0)))
        return mounting_welfare_mp(spec, eps) - w0


def assert_prints_the_root(spec, out, printed):
    """out is the eps root printed as printed, and the exact W - W0 changes
    sign inside the interval that rounds to printed."""
    from decimal import Decimal

    assert out.is_value and format_number(out.value) == printed
    d = Decimal(printed)
    half = Decimal(5) * Decimal(10) ** (d.adjusted() - 6)
    assert epsilon_excess(spec, str(d - half)) > 0 > epsilon_excess(spec, str(d + half))
