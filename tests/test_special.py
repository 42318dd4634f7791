import math

import numpy as np
import pytest

from tai_welfare import erf, erfcx
from tai_welfare.special import gauss_laplace
from reference_data import ERF_REFERENCE, ERFCX_REFERENCE


def test_erf_zero():
    assert erf(0.0) == 0.0


def test_erf_reference_table_1e10():
    for x, expected in ERF_REFERENCE:
        assert abs(erf(x) - expected) <= 1e-10, f"erf({x})"


def test_erf_odd_symmetry(rng):
    for x in rng.uniform(-8.0, 8.0, size=1000):
        assert erf(float(-x)) == pytest.approx(-erf(float(x)), abs=1e-15)


def test_erf_bounded_and_monotone(rng):
    # the open range (-1, 1) collapses onto +-1.0 in float64 once |x| > ~5.9,
    # where 1 - erf is below one ulp; strictness is checked inside that range
    xs = np.sort(rng.uniform(-10.0, 10.0, size=1000))
    values = [erf(float(x)) for x in xs]
    assert all(-1.0 <= v <= 1.0 for v in values)
    assert all(abs(v) < 1.0 for x, v in zip(xs, values) if abs(x) <= 5.0)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_erf_infinities():
    assert erf(math.inf) == 1.0
    assert erf(-math.inf) == -1.0


def test_erfcx_reference_table():
    for x, expected in ERFCX_REFERENCE:
        assert erfcx(x) == pytest.approx(expected, rel=1e-12), f"erfcx({x})"


def test_erfcx_asymptotic_tail():
    # erfcx(x) ~ 1/(x sqrt(pi)) for large x
    for x in (50.0, 200.0, 1e4):
        assert erfcx(x) == pytest.approx(1.0 / (x * math.sqrt(math.pi)), rel=1e-3)


def test_erfcx_negative_argument():
    x = -1.5
    expected = 2.0 * math.exp(x * x) - erfcx(-x)
    assert erfcx(x) == pytest.approx(expected, rel=1e-12)


def test_branch_crossover_is_seamless():
    # series/continued-fraction handoff at |x| = 3 and erfcx split at 2.5
    for x0 in (2.5, 3.0):
        below = erf(x0 - 1e-9)
        above = erf(x0 + 1e-9)
        assert abs(above - below) < 1e-8


def test_erfcx_matches_mpmath_oracle():
    # 40-digit reference on [-20, 30] and far into the continued-fraction tail
    from mpmath import mp, mpf

    xs = [-20.0 + 0.1 * i for i in range(501)]
    xs += [2.5 - 1e-10, 2.5 + 1e-10, 1e3, 3e4, 1e6, 1e8]
    with mp.workdps(40):
        for x in xs:
            exact = mp.exp(mpf(x) ** 2) * mp.erfc(mpf(x))
            assert abs(erfcx(x) - exact) <= 1e-13 * exact, f"erfcx({x!r})"


def test_erfcx_reflection():
    # erfcx(-x) = 2 exp(x^2) - erfcx(x), up to where exp(x^2) overflows
    for i in range(2601):
        x = 0.01 * i
        expected = 2.0 * math.exp(x * x) - erfcx(x)
        assert erfcx(-x) == pytest.approx(expected, rel=1e-15), f"erfcx({-x!r})"
    assert erfcx(-27.0) == math.inf


def test_erfcx_of_infinity_is_zero():
    # the continued fraction once computed inf * 0 = nan here
    assert erfcx(math.inf) == 0.0
    assert erfcx(-math.inf) == math.inf


def _gauss_laplace_oracle(a, b):
    from mpmath import mp, mpf

    # 60 digits: at z = 1e8 mpmath's erfc keeps too few of them for 1 - a G at 40
    with mp.workdps(60):
        a, b = mpf(a), mpf(b)
        z = a / mp.sqrt(2 * b)
        g = mp.sqrt(mp.pi / (2 * b)) * mp.exp(z * z) * mp.erfc(z)
        return float(g), float((1 - a * g) / b)


@pytest.mark.parametrize("z", [-5.0, 0.0, 0.3, 2.5, 10.0, 49.9, 50.0, 50.1, 300.0, 1e4, 1e8])
@pytest.mark.parametrize("b", [1e-20, 1e-6, 2.0])
def test_gauss_laplace_matches_mpmath_on_both_branches(z, b):
    # H = (1 - a G) / b is the first moment; near z = 50 the plain difference
    # keeps only ~2e-16 z^2 of it, so the series has to take over there
    a = z * math.sqrt(2.0 * b)
    g, h = gauss_laplace(a, b)
    g_exact, h_exact = _gauss_laplace_oracle(a, b)
    assert g == pytest.approx(g_exact, rel=1e-13)
    assert h == pytest.approx(h_exact, rel=2e-12)


def test_gauss_laplace_tends_to_the_laplace_transform():
    # b -> 0 with a fixed: G -> 1/a and H -> 1/a^2
    g, h = gauss_laplace(1e301, 5e-24)
    assert g == pytest.approx(1e-301, rel=1e-15)
    assert h == 0.0
    g, h = gauss_laplace(0.05, 1e-30)
    assert g == pytest.approx(20.0, rel=1e-15)
    assert h == pytest.approx(400.0, rel=1e-15)


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 0.0), (1.0, math.inf), (math.inf, 1.0)])
def test_gauss_laplace_rejects_an_overflowed_argument(a, b):
    with pytest.raises(OverflowError):
        gauss_laplace(a, b)
