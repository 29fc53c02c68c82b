"""Root-of-unity values against oracles built from exact polynomials.

The library sums ``kz_root_value``, ``u_root_value`` and
``quantum_value`` in the group ring Z[x]/(x^N - 1).  The oracles here
build every chain polynomial, Gaussian binomial and Pochhammer as an
exact q-series, evaluate each with ``root_of_unity_value`` and multiply
the factors as cyclotomic numbers.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmaass.families as families
from qmaass.agpolys import ag_polynomial
from qmaass.bailey import LIMIT_WEIGHTS
from qmaass.cyclotomic import MAX_ROOT_ORDER, CycNumber, root_of_unity_value
from qmaass.families import FAMILY_SUMS, kz_root_value, u_root_value, verify_kz_duality
from qmaass.maass import quantum_value
from qmaass.series import INF, QSeriesError, gaussian_binomial, pochhammer
from qmaass.theta import FAMILY_POWERS

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_POWERS = (4, 8, 9, 16, 25, 27, 32)
COMPOSITES = (6, 10, 12, 15, 18, 20, 21, 24, 28, 30, 36, 40)
ORDERS = (1,) + PRIMES + PRIME_POWERS + COMPOSITES
CHAIN_PARAMS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
# k = 3 stops at order 24, where its exact oracle polynomials take seconds
CASES = st.sampled_from(CHAIN_PARAMS).flatmap(
    lambda kl: st.tuples(st.just(kl), st.sampled_from([N for N in ORDERS if kl[0] < 3 or N <= 24]))
)


@functools.lru_cache(maxsize=None)
def _exact(kind: str, args: tuple):
    if kind == "binomial":
        return gaussian_binomial(*args)
    if kind == "poch":
        return pochhammer("q", *args, INF)
    return ag_polynomial(*args)


def _at_root(kind: str, args: tuple, N: int, power: int) -> CycNumber:
    return root_of_unity_value(_exact(kind, args), N, power)


def kz_oracle(k: int, ell: int, N: int) -> CycNumber:
    total = CycNumber.from_rational(N, 0)
    for n_k in range(N):
        # chains n_1..n_(k-1) with n_j <= n_(j+1) + [j == ell - 1]
        for lower in itertools.product(range(N + 2), repeat=k - 1):
            chain = lower + (n_k,)
            tops = [chain[j + 1] + (j + 1 == ell - 1) for j in range(k - 1)]
            if any(n > top for n, top in zip(chain, tops)):
                continue
            exponent = k + sum(n * n for n in lower) + sum(chain[ell - 1 : k - 1])
            value = _at_root("poch", (n_k,), N, 1) * CycNumber.zeta(N, exponent)
            for n, top in zip(chain, tops):
                value = value * _at_root("binomial", (top, n), N, 1)
            total = total + value
    return total


def u_oracle(k: int, ell: int, N: int) -> CycNumber:
    power = N - 1  # q = zeta^-1
    total = CycNumber.from_rational(N, 0)
    for n in range(1, N + 1):
        poch = _at_root("poch", (n - 1,), N, power)
        chain = _at_root("chain", (k, ell, 1, n), N, power)
        total = total + poch * poch * chain * CycNumber.zeta(N, power * n)
    return CycNumber.zeta(N, k) * total


def quantum_oracle(j: int, k: int, ell: int, x: Fraction) -> CycNumber:
    w = (FAMILY_POWERS[j] * x) % 1
    N, num = w.denominator, w.numerator
    relative, kind, scale = FAMILY_SUMS[j]
    s, first, power = LIMIT_WEIGHTS[relative, kind]
    prefix = CycNumber.from_rational(N, scale)
    total = CycNumber.from_rational(N, 0)
    for n in itertools.count(first):
        if n > first:
            prefix = prefix * (1 - CycNumber.zeta(N, num * s * (n - first)))
            if prefix.is_zero():
                return total
        term = prefix * _at_root("chain", (k, ell, first, n), N, num)
        if power is not None:
            term = term * CycNumber.zeta(N, num * power(n))
        total = total + (-term if n % 2 else term)


def _same(a: CycNumber, b: CycNumber) -> bool:
    return (a.order, a.vec) == (b.order, b.vec)


@settings(max_examples=30, deadline=None)
@given(CASES)
def test_kz_root_value_matches_oracle(case):
    (k, ell), N = case
    assert _same(kz_root_value(k, ell, N), kz_oracle(k, ell, N))


@settings(max_examples=30, deadline=None)
@given(CASES)
def test_u_root_value_matches_oracle(case):
    (k, ell), N = case
    assert _same(u_root_value(k, ell, N), u_oracle(k, ell, N))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    CASES,
    st.integers(min_value=-200, max_value=200),
)
def test_quantum_value_matches_oracle(j, case, p):
    (k, ell), d = case
    # the smallest power coprime to d at or above p
    p = next(m for m in itertools.count(p) if math.gcd(m, d) == 1)
    x = Fraction(p, d)
    assert _same(quantum_value(j, k, ell, x).value, quantum_oracle(j, k, ell, x))


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 37])
def test_quantum_value_at_order_101(j, p):
    x = Fraction(p, 101)
    assert _same(quantum_value(j, 1, 1, x).value, quantum_oracle(j, 1, 1, x))


def test_duality_fails_on_a_perturbed_side(monkeypatch):
    assert verify_kz_duality(2, 1, 7).ok
    monkeypatch.setattr(families, "u_root_value", lambda k, ell, N: u_root_value(k, ell, N) + 1)
    report = verify_kz_duality(2, 1, 7)
    assert not report.ok


def test_order_bound():
    big = MAX_ROOT_ORDER + 1
    for call in (
        lambda: kz_root_value(1, 1, big),
        lambda: u_root_value(1, 1, big),
        lambda: quantum_value(1, 1, 1, Fraction(1, big)),
        lambda: quantum_value(1, 1, 1, 0.1),  # a float is its exact binary fraction
    ):
        with pytest.raises(QSeriesError, match=f"order bound {MAX_ROOT_ORDER}"):
            call()
    # families 2 and 4 are evaluated at e(2x): x = 1/(2 big) has order big
    with pytest.raises(QSeriesError):
        quantum_value(2, 1, 1, Fraction(1, 2 * big))
    assert quantum_value(2, 1, 1, Fraction(1, 2 * MAX_ROOT_ORDER)).value.order == MAX_ROOT_ORDER
