"""Tests for exact root-of-unity arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest

from qmaass.cyclotomic import (
    CycNumber,
    cyclotomic_polynomial,
    root_of_unity_value,
)
from qmaass.series import INF, QSeries


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degrees_and_roots():
    for L in range(1, 31):
        poly = cyclotomic_polynomial(L)
        assert len(poly) - 1 == totient(L)
        # primitive L-th root is a genuine root (numerically)
        z = cmath.exp(2j * cmath.pi / L)
        val = sum(c * z**k for k, c in enumerate(poly))
        assert abs(val) < 1e-8


def test_basic_arithmetic():
    z6 = CycNumber.zeta(6)
    assert z6 + CycNumber.zeta(6, 5) == 1
    assert (z6**6) == 1
    assert sum((CycNumber.zeta(5, k) for k in range(5)), CycNumber.zeta(5, 0) * 0) == 0
    assert CycNumber.zeta(2) == -1
    assert CycNumber.zeta(4) * CycNumber.zeta(4) == -1


def test_mixed_order_embedding():
    prod = CycNumber.zeta(4) * CycNumber.zeta(6)
    assert prod == CycNumber.zeta(12, 5)
    assert CycNumber.zeta(3) + CycNumber.zeta(2) == CycNumber.zeta(6, 2) - 1


def test_inverse_round_trip():
    x = CycNumber.from_powers(7, {0: 1, 1: 2, 3: 1})
    assert x * x.inverse() == 1
    y = CycNumber.zeta(12, 7)
    assert y.inverse() == CycNumber.zeta(12, 5)
    assert y ** (-1) == CycNumber.zeta(12, 5)
    with pytest.raises(ZeroDivisionError):
        (x - x).inverse()


def test_rational_detection():
    z = CycNumber.zeta(8)
    s = z**4
    assert s.is_rational() and s.rational_value() == -1
    assert CycNumber.from_rational(5, Fraction(2, 3)).rational_value() == Fraction(2, 3)


def test_to_complex():
    for L, k in [(3, 1), (8, 3), (12, 5), (5, 2)]:
        z = CycNumber.zeta(L, k).to_complex()
        assert abs(z - cmath.exp(2j * cmath.pi * k / L)) < 1e-10
    assert abs((CycNumber.zeta(6) + CycNumber.zeta(6, 5)).to_complex() - 1) < 1e-10


def _monomial_remainder(L: int, k: int) -> tuple:
    """x^k mod Phi_L by long division of x^k itself."""
    phi = cyclotomic_polynomial(L)
    d = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi) if c]
    rem = [0] * max(k + 1, d)
    rem[k] = 1
    for i in range(k, d - 1, -1):
        c = rem[i]
        if c:
            for j, p in terms:
                rem[i - d + j] -= c * p
    return tuple(rem[:d])


@pytest.mark.parametrize("L", [1, 2, 3, 4, 12, 30, 97, 105, 360, 1155, 1024, 2048])
def test_power_rows_are_monomial_remainders(L):
    d = totient(L)
    powers = {0, d - 1, d, d + 1, (d + L) // 2, L - 1, L, L + d, 3 * L + 5}
    for k in sorted(powers):
        assert CycNumber.zeta(L, k).vec == _monomial_remainder(L, k), (L, k)


def test_roots_of_unity_of_large_order():
    # The power row of zeta^2047 lies 1023 reduction steps above the
    # field degree; building the rows must not recurse once per step.
    z = CycNumber.zeta(2048, 2047)
    assert z * CycNumber.zeta(2048) == 1
    assert abs(z.to_complex() - cmath.exp(-2j * cmath.pi / 2048)) < 1e-12


def test_root_of_unity_value_polynomial():
    s = QSeries.from_dense([1, 1, 1])
    assert root_of_unity_value(s, 3).is_zero()
    assert root_of_unity_value(s, 2) == 1  # 1 - 1 + 1
    t = QSeries.from_dense([0, 1])  # q itself
    assert root_of_unity_value(t, 5, power=2) == CycNumber.zeta(5, 2)


def test_root_of_unity_value_fractional_exponents():
    s = QSeries.monomial(1, Fraction(1, 2))
    assert root_of_unity_value(s, 3) == CycNumber.zeta(6)
    u = QSeries.from_terms([(Fraction(1, 24), 1)])
    assert root_of_unity_value(u, 1) == CycNumber.zeta(24)


def test_root_of_unity_value_cyclotomic_coefficients():
    # coefficients which are themselves roots of unity embed into the compositum
    s = QSeries.from_terms([(1, CycNumber.zeta(4))])
    v = root_of_unity_value(s, 3)
    assert v == CycNumber.zeta(4) * CycNumber.zeta(3)
