"""Tests for exact root-of-unity arithmetic."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lift, root_of_unity_value

from qmaass.cyclotomic import (
    CycNumber,
    _divide,
    cyclotomic_polynomial,
    root_sums,
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


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _mobius_product(L: int) -> tuple:
    """Prod over d | L of (x^d - 1)^mu(L/d): the factors with mu = 1
    multiplied densely, then each with mu = -1 divided out exactly."""
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(L // d) == 1:
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + d)]
    for d in divisors:
        if _mobius(L // d) == -1:
            # poly = q (x^d - 1), so q[i] = poly[i + d] + q[i + d] from the top.
            q = [0] * (len(poly) - d)
            for i in range(len(q) - 1, -1, -1):
                q[i] = poly[i + d] + (q[i + d] if i + d < len(q) else 0)
            assert poly[:d] == [-c for c in (q + [0] * d)[:d]], (L, d)  # exact
            poly = q
    return tuple(poly)


def test_cyclotomic_polynomials_are_the_mobius_products():
    for L in range(1, 401):
        assert cyclotomic_polynomial(L) == _mobius_product(L), L


def _long_division(num: list, den: tuple) -> tuple[list, list]:
    """(remainder, quotient) of ``num`` by the monic ``den``."""
    d = len(den) - 1
    rem, quo = list(num), [0] * max(0, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = quo[i - d] = rem[i]
        for j, p in enumerate(den):
            if p:
                rem[i - d + j] -= c * p
    return rem[:d], quo


@pytest.mark.parametrize("L", [1, 2, 15, 60, 105, 360])
def test_divide_keeps_remainder_below_the_degree_and_quotient_above(L):
    rng = random.Random(L)
    phi = cyclotomic_polynomial(L)
    d = len(phi) - 1
    for _ in range(10):
        num = [rng.choice([0, 0, rng.randint(-99, 99), Fraction(rng.randint(-9, 9), 7)])
               for _ in range(rng.randint(0, 3 * L))]
        rem, quo = _long_division(num, phi)
        assert _divide(num, phi) is None  # in place, no quotient list
        assert num[:d] == rem[:len(num)] and num[d:] == quo


def test_basic_arithmetic():
    z6 = CycNumber.zeta(6)
    assert z6 + CycNumber.zeta(6, 5) == 1
    assert z6 * z6 * z6 * z6 * z6 * z6 == 1
    assert 2 * z6 == z6 + z6 and z6 * Fraction(1, 2) + z6 * Fraction(1, 2) == z6
    assert sum((CycNumber.zeta(5, k) for k in range(5)), CycNumber.zeta(5, 0) * 0) == 0
    assert CycNumber.zeta(2) == -1
    assert CycNumber.zeta(4) * CycNumber.zeta(4) == -1


def test_mixed_order_embedding():
    # Numbers of different orders are refused; the oracles lift them
    # into the compositum themselves.
    for combine in (
        lambda x, y: x * y,
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x == y,
    ):
        with pytest.raises(ValueError, match="cannot combine orders"):
            combine(CycNumber.zeta(4), CycNumber.zeta(6))
    prod = lift(CycNumber.zeta(4), 12) * lift(CycNumber.zeta(6), 12)
    assert prod == CycNumber.zeta(12, 5)
    assert lift(CycNumber.zeta(3), 6) + lift(CycNumber.zeta(2), 6) == CycNumber.zeta(6, 2) - 1


def test_inverse_round_trip():
    x = CycNumber.from_powers(7, {0: 1, 1: 2, 3: 1})
    assert x * x.inverse() == 1
    y = CycNumber.zeta(12, 7)
    assert y.inverse() == CycNumber.zeta(12, 5)
    with pytest.raises(ZeroDivisionError):
        (x - x).inverse()


def test_rational_detection():
    z = CycNumber.zeta(8)
    s = z * z * z * z
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


def _long_division_remainder(L: int, vec: list) -> tuple:
    """The vector mod Phi_L by long division of the whole vector, with no
    folding by x^L = 1 first."""
    phi = cyclotomic_polynomial(L)
    d = len(phi) - 1
    rem = list(vec) + [0] * d
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j, p in enumerate(phi):
                rem[i - d + j] -= c * p
    return tuple(rem[:d])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 15, 60, 105, 360, 1155, 2048]), st.randoms(use_true_random=False))
def test_constructor_is_the_long_division_remainder(L, rng):
    # Vectors up to twice the order long, sparse or dense, with int and
    # Fraction coordinates; an integral Fraction comes out as an int.
    size = rng.randint(0, 2 * L)
    density = rng.choice([0.02, 0.3, 1.0])
    vec = [0] * size
    for i in range(size):
        if rng.random() < density:
            c = rng.randint(-99, 99)
            vec[i] = Fraction(c, rng.randint(1, 4)) if rng.random() < 0.3 else c
    got = CycNumber(L, vec).vec
    assert got == _long_division_remainder(L, vec)
    assert all(type(c) is int or c.denominator > 1 for c in got)


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
    assert v == lift(CycNumber.zeta(4), 12) * lift(CycNumber.zeta(3), 12)


# ------------------------------------------- the packed ring Z[x]/(x^N - 1)
#
# The reference is a plain-dict group ring: {exponent mod N: coefficient}.


def _ref_sum(terms) -> dict:
    """The map of (exponent, coefficient) terms already reduced mod N."""
    out: dict = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_step(op: str, a: dict, b: dict, c: int, N: int) -> dict:
    if op == "add":
        return _ref_sum([*a.items(), *b.items()])
    if op == "sub":
        return _ref_sum([*a.items(), *((e, -v) for e, v in b.items())])
    if op == "scale":
        return _ref_sum((e, abs(c) * v) for e, v in a.items())
    if op == "rot":
        return {(e + c) % N: v for e, v in a.items()}
    return _ref_sum(((e1 + e2) % N, v1 * v2) for e1, v1 in a.items() for e2, v2 in b.items())


def _ring_step(ring, op: str, a: int, b: int, c: int) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return ring.sub(a, b)
    if op == "scale":  # by a nonnegative int, as the ring asks
        return a * abs(c)
    if op == "rot":
        return ring.rot(a, c)
    return ring.mul(a, b)


@st.composite
def ring_programs(draw):
    """An order N, integer maps (exponents of either sign) and a sequence
    of ring steps, each reading two earlier values by index."""
    N = draw(st.integers(1, 128))
    coeffs = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
    maps = draw(st.lists(st.dictionaries(st.integers(-300, 300), coeffs, max_size=6), min_size=1, max_size=3))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["add", "sub", "scale", "rot", "mul"]),
                  st.integers(0, 20), st.integers(0, 20), st.integers(-200, 200)),
        max_size=12,
    ))
    return N, maps, steps


def _run_program(step, values, steps):
    for op, i, j, c in steps:
        values.append(step(op, values[i % len(values)], values[j % len(values)], c))
    return values


@settings(max_examples=200, deadline=None)
@given(ring_programs())
def test_packed_ring_matches_dict_reference(program):
    N, maps, steps = program
    expected = _run_program(
        lambda op, a, b, c: _ref_step(op, a, b, c, N),
        [_ref_sum((e % N, c) for e, c in m.items()) for m in maps],
        steps,
    )
    got = root_sums(N, lambda ring: _run_program(
        lambda op, a, b, c: _ring_step(ring, op, a, b, c), [ring.encode(m) for m in maps], steps
    ))
    assert got == expected


@pytest.mark.parametrize("N", [1, 2, 3, 7, 64, 128])
@pytest.mark.parametrize("B", [1, 2, 3, 7, 8, 255, 256, 2**61 - 1, 2**61, 2**61 + 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_coefficient_at_the_bound_decodes(N, B, sign):
    # One coefficient of size exactly B, the whole L1 norm: the width
    # B.bit_length() + 2 must still separate it ...
    for e in {0, N // 2, N - 1}:
        assert root_sums(N, lambda ring: [ring.encode({e: sign * B})]) == [{e: sign * B}]
    # ... also when it comes out of a product and a rotation.
    (got,) = root_sums(N, lambda ring: [ring.rot(ring.mul(ring.encode({1: sign * B}), 1), -1)])
    assert got == {0: sign * B}


@pytest.mark.parametrize("N", [1, 5, 12, 128])
def test_extreme_digits_of_both_signs_decode(N):
    # Alternating +-B at every exponent: L1 norm N*B, every digit extreme.
    B = 2**40 + 3
    powers = {e: (-1) ** e * B for e in range(N)}
    (got,) = root_sums(N, lambda ring: [ring.encode(powers)])
    assert got == powers


def test_ring_width_comes_from_the_l1_bound():
    # The bound pass runs at width 0 (x -> 1); the L1 norm here is 9, and
    # |coefficient| <= B < 2^(W-2) with W = B.bit_length() + 2 = 6 bits,
    # rounded up to one byte.
    widths = []

    def build(ring):
        widths.append(ring.width)
        return [ring.encode({0: 5, 3: -4})]

    assert root_sums(7, build) == [{0: 5, 3: -4}]
    assert widths == [0, 8]
