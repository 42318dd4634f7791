import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tai_welfare import DomainError
from tai_welfare.rootfind import brent


def test_brent_polynomial_root():
    result = brent(lambda x: x * x - 4.0, 0.0, 10.0, rel_tol=1e-14)
    assert result.root == pytest.approx(2.0, rel=1e-12)


def test_brent_transcendental_root():
    result = brent(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert result.root == pytest.approx(0.7390851332151607, rel=1e-10)
    assert result.iterations <= 20


def test_brent_exact_endpoint_hit():
    result = brent(lambda x: x - 1.0, 1.0, 5.0)
    assert result.root == 1.0
    assert result.iterations == 0


def test_brent_requires_sign_change():
    with pytest.raises(DomainError):
        brent(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: 1e-200,  # same-sign ends whose product underflows to 0
    lambda x: -1e-170 * (1.0 + x),  # the same below zero
    lambda x: float("nan"),
], ids=["tiny_positive", "tiny_negative", "nan"])
def test_brent_rejects_ends_without_a_sign_change(f):
    with pytest.raises(DomainError, match="differ in sign"):
        brent(f, 0.0, 1.0)


def test_brent_tight_relative_tolerance():
    f = lambda x: math.expm1(x) - 1.0
    result = brent(f, 0.0, 2.0, rel_tol=1e-14)
    assert result.root == pytest.approx(math.log(2.0), rel=1e-13)


@settings(max_examples=200)
@given(
    root=st.floats(-1e3, 1e3),
    width=st.floats(1e-6, 1e3),
    skew=st.floats(0.0, 1.0),
    scale=st.floats(1e-12, 1e12),
    curve=st.floats(0.0, 10.0),
    pass_ends=st.booleans(),
)
def test_brent_residual_is_f_at_the_root(root, width, skew, scale, curve, pass_ends):
    # the solvers check Brent's residual in place of evaluating f(root) again
    f = lambda x: scale * (x - root) * (1.0 + curve * (x - root) ** 2)
    a, b = root - skew * width, root + (1.0 - skew) * width
    ends = {"fa": f(a), "fb": f(b)} if pass_ends else {}
    result = brent(f, a, b, **ends)
    assert result.residual == abs(f(result.root))
