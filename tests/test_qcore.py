"""Tests for the exact truncated q-series ring and its finite products.

Expected values here are either computed by independent oracles written
before the implementation (long-division reciprocal, direct product
expansion in an auxiliary variable) or frozen classical expansions checked
by hand (pentagonal-number product, small Gaussian binomials).
"""

import fractions
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import limit_identity_by_products, min_order, negate_variable, oracle_binomial, stabilized_sum

from qmaass import cyclotomic, series
from qmaass.agpolys import PartitionConstraint, ag_generating, ag_polynomials
from qmaass.bailey import (
    BaileyPair,
    pair_relative_q,
    relation_sums,
    synthetic_pair,
    unit_pair,
    verify_limiting_identity,
    verify_pair,
)
from qmaass.cyclotomic import CycNumber, CyclicRing, root_sums
from qmaass.families import family_series, sigma_series, sigma_star_series
from qmaass.theta import (
    family_lattice_series,
    family_params,
    indefinite_theta_series,
    verify_family_lattice,
    verify_theta_embedding,
)
from qmaass.series import (
    INF,
    L1Bound,
    MajorantBound,
    QSeries,
    QSeriesError,
    TruncatedRing,
    _kronecker_product,
    gaussian_binomial,
    inverse_pochhammer,
    pochhammer,
)

# ----------------------------------------------------------------- oracles


def oracle_inverse_coeffs(poly, size):
    """Reciprocal power-series coefficients by the textbook recurrence.

    ``poly`` is a dense integer list with poly[0] = +/-1; returns the first
    ``size`` coefficients b of 1/poly from b_e = -(1/a_0) * sum a_m b_{e-m}.
    """
    out = [Fraction(0)] * size
    out[0] = Fraction(1, poly[0])
    for e in range(1, size):
        acc = Fraction(0)
        for m in range(1, min(e, len(poly) - 1) + 1):
            acc += poly[m] * out[e - m]
        out[e] = -acc / poly[0]
    return out


def oracle_descending_product(n, qdeg):
    """Dense table of prod_{i=0}^{n-1} (1 - z*q^i) by direct expansion.

    Returns cols with cols[u][e] = coefficient of z^u q^e; multiplication by
    each factor is performed in place over the auxiliary variable z, with no
    reference to any binomial formula.
    """
    cols = [[0] * (qdeg + 1) for _ in range(n + 1)]
    cols[0][0] = 1
    for i in range(n):
        for u in range(min(i + 1, n), 0, -1):
            prev = cols[u - 1]
            cur = cols[u]
            for e in range(qdeg - i, -1, -1):
                c = prev[e]
                if c:
                    cur[e + i] -= c
    return cols


# ------------------------------------------------------------ construction


def test_from_terms_merges_and_scales():
    s = QSeries.from_terms([(Fraction(1, 2), 3), (Fraction(1, 2), -1), (2, 5)])
    assert s.coeff(Fraction(1, 2)) == 2
    assert s.coeff(2) == 5
    assert s.coeff(1) == 0
    assert s.denom == 2
    assert s.normalized().denom == 2


def test_truncation_drops_terms_at_or_above():
    s = QSeries.from_dense([1, 2, 3, 4], trunc=2)
    assert s.coeff(0) == 1 and s.coeff(1) == 2
    assert s.coeff(2) == 0 and s.coeff(3) == 0
    assert s.trunc == 2


def test_equality_is_canonical():
    a = QSeries({2: 1}, 2, trunc=Fraction(6, 2))
    b = QSeries({1: 1}, 1, trunc=3)
    assert a == b
    assert QSeries.monomial(1, 1, trunc=3) == b
    assert QSeries.monomial(1, 1, trunc=4) != b  # truncation is part of equality


def test_monomial_fractional_exponent():
    s = QSeries.monomial(Fraction(3, 2), Fraction(1, 24))
    assert s.coeff(Fraction(1, 24)) == Fraction(3, 2)
    assert min_order(s) == Fraction(1, 24)
    assert s.degree() == Fraction(1, 24)


# ------------------------------------------------------------- ring axioms


@st.composite
def poly_series(draw):
    n = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n):
        e = draw(st.integers(-4, 8))
        c = draw(st.integers(-5, 5))
        terms[e] = terms.get(e, 0) + c
    return QSeries(terms, 1, INF)


@settings(max_examples=60, deadline=None)
@given(poly_series(), poly_series(), poly_series())
def test_ring_axioms_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QSeries.zero()
    assert a * QSeries.one() == a


@settings(max_examples=40, deadline=None)
@given(poly_series(), poly_series(), st.integers(-3, 6), st.integers(-3, 6))
def test_truncated_product_is_honest(a, b, ta, tb):
    at, bt = a.truncate(ta), b.truncate(tb)
    prod_t = at * bt
    prod_full = a * b
    assert prod_full.first_mismatch(prod_t, up_to=prod_t.trunc) is None


@settings(max_examples=40, deadline=None)
@given(poly_series(), st.integers(-6, 10))
def test_shift_matches_monomial_multiplication(a, e):
    assert a.shift(e) == a * QSeries.monomial(1, e)


# ------------------------------------------------------ product vs pairwise


def oracle_product(a, b):
    """Pairwise product of every stored term of a with every one of b.

    The truncation is the one stated by the series model: with
    x = A + O(q^tx) and y = B + O(q^ty) the product is exact below
    tx + ty and, when the other factor has known terms, below
    tx + min(order(y), 0) and ty + min(order(x), 0).
    """
    trunc = a.trunc + b.trunc
    if not b.is_zero():
        trunc = min(trunc, a.trunc + min(min_order(b), 0))
    if not a.is_zero():
        trunc = min(trunc, b.trunc + min(min_order(a), 0))
    out = {}
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            e = e1 + e2
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if e < trunc and c != 0}, trunc


@st.composite
def int_laurent_series(draw, denom=None):
    """Integer-coefficient series over a shared denominator 1..12.

    Exponent numerators may start below zero; operands are dense (a
    coefficient at nearly every exponent of a short span), sparse (a few
    terms over a wide span) or few (1 to 3 terms over a short span, the
    operand that sends a product to the pairwise loop).  The truncation
    is infinite or rational, at times below every term.
    """
    d = draw(st.integers(1, 12)) if denom is None else denom
    lo = draw(st.integers(-40, 10))
    big = draw(st.sampled_from([1, 10, 2**40, 2**200]))
    coeff = st.integers(-big, big).filter(bool)
    shape = draw(st.sampled_from(["dense", "sparse", "few"]))
    if shape == "dense":
        row = draw(st.lists(st.one_of(coeff, coeff, st.just(0)), min_size=1, max_size=40))
        terms = {lo + i: c for i, c in enumerate(row)}
    else:
        top, most = (400, 8) if shape == "sparse" else (40, 3)
        terms = draw(
            st.dictionaries(st.integers(lo, lo + top), coeff, min_size=1, max_size=most)
        )
    cut = draw(st.one_of(st.none(), st.integers(lo - 2, lo + 60)))
    trunc = INF if cut is None else Fraction(cut, d)
    return QSeries(terms, d, trunc)


def _assert_matches_oracle(a, b):
    got = a * b
    want, trunc = oracle_product(a, b)
    assert got.trunc == trunc
    assert dict(got.terms()) == want
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.data())
def test_integer_product_matches_pairwise_oracle(d, shared, data):
    a = data.draw(int_laurent_series(d))
    b = data.draw(int_laurent_series(d if shared else None))
    got = _assert_matches_oracle(a, b)
    assert all(type(c) is int for _, c in got.terms())


def test_packed_product_only_for_enough_term_pairs_per_digit():
    def dense(n):
        return {m: (-1) ** m * (m + 1) for m in range(n)}

    for n in (1, 2, 40, 300):
        assert _kronecker_product({7: 3}, dense(n), None) is None
        assert _kronecker_product(dense(n), {-2: -1}, None) is None
    assert _kronecker_product(dense(3), dense(40), None) is None
    assert _kronecker_product(dense(8), dense(100), None) is not None
    assert _kronecker_product(dense(20), dense(20), None) is not None


@settings(max_examples=60, deadline=None)
@given(int_laurent_series(), int_laurent_series(), st.integers(1, 6))
def test_rational_and_cyclotomic_operands_match_pairwise_oracle(a, b, n):
    # A Fraction or a cyclotomic coefficient keeps the product off the
    # integer kernel; it must still agree with the pairwise definition.
    frac = a + QSeries.monomial(Fraction(1, n + 1), Fraction(n, 5), a.trunc)
    _assert_matches_oracle(frac, b)
    zeta = CycNumber.zeta(3 * n, 1)
    cyc = b + QSeries.monomial(zeta, Fraction(1, n), b.trunc)
    _assert_matches_oracle(a, cyc)


def _clean_types(terms):
    """The type of each coefficient once an integral Fraction is an int."""
    return {e: int if type(c) is Fraction and c.denominator == 1 else type(c)
            for e, c in terms.items()}


@st.composite
def mixed_series(draw, order):
    """A series whose coefficients mix ints, Fractions and numbers of one
    cyclotomic order (their coordinates ints or Fractions, their vectors
    up to twice the order long), over a shared denominator 1..6, with
    negative exponents and an infinite, negative or fractional trunc; its
    terms are sparse or a dense run long enough for the packed product."""
    d = draw(st.integers(1, 6))
    ints = st.integers(-9, 9).filter(bool)
    fracs = st.builds(Fraction, ints, st.integers(2, 7))
    coords = st.lists(st.one_of(ints, fracs, st.just(0)), min_size=1, max_size=2 * order)
    cycs = coords.map(lambda v: CycNumber(order, v)).filter(lambda c: not c.is_zero())
    kinds = draw(st.lists(st.sampled_from([ints, fracs, cycs]), min_size=1, max_size=3, unique=True))
    coeff = st.one_of(*kinds)
    lo = draw(st.integers(-12, 6))
    if draw(st.booleans()):
        terms = dict(zip(range(lo, lo + 30), draw(st.lists(coeff, min_size=16, max_size=30))))
    else:
        terms = draw(st.dictionaries(st.integers(lo, lo + 30), coeff, max_size=10))
    cut = draw(st.one_of(st.none(), st.integers(lo - 3, lo + 60)))
    return QSeries(terms, d, INF if cut is None else Fraction(cut, d))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 7, 12, 15]), st.data())
def test_mixed_products_match_pairwise_in_value_and_type(order, data):
    # Rationals and one order's numbers share the packed integer product;
    # a term only rational pairs reach stays an int or a Fraction.
    a, b = data.draw(mixed_series(order)), data.draw(mixed_series(order))
    got = _assert_matches_oracle(a, b)
    want, _ = oracle_product(a, b)
    assert _clean_types(dict(got.terms())) == _clean_types(want)


def test_products_refuse_two_orders_and_foreign_coefficients():
    x = QSeries({0: 1, 1: CycNumber.zeta(4)}, 1, Fraction(5))
    y = QSeries({0: CycNumber.zeta(6), 2: Fraction(1, 2)}, 1, Fraction(5))
    with pytest.raises(ValueError, match="cannot combine orders 4 and 6"):
        x * y
    for coeff in (0.5, complex(1, 1)):
        with pytest.raises(QSeriesError, match="cannot take (float|complex) coefficients"):
            x * QSeries({1: coeff, 2: 3}, 1, Fraction(5))


def test_cyclotomic_product_takes_no_field_products(monkeypatch):
    # The product packs each coefficient once and builds each output term
    # once, with no CycNumber product or sum.
    rng = random.Random(11)

    def operand(den):
        coeffs = (CycNumber.from_powers(15, {rng.randrange(15): rng.randint(1, 9)}) for _ in range(60))
        return QSeries.from_terms(
            [(Fraction(rng.randint(1, 20 * den), den), c) for c in coeffs], Fraction(20))

    a, b = operand(7), operand(11)
    calls = {"__init__": 0, "__mul__": 0, "__add__": 0}

    def counted(name):
        fn = getattr(CycNumber, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in calls:
        monkeypatch.setattr(CycNumber, name, counted(name))
    product = a * b
    assert calls["__mul__"] == calls["__add__"] == 0
    assert 0 < calls["__init__"] <= product.num_terms()


def test_cyclotomic_product_reduces_each_reached_term_once(monkeypatch):
    # series_product reduces each term that a pair holding a CycNumber
    # reaches by one cyclotomic._divide (its remainder mod Phi_7), and a
    # term only rational pairs reach (here, below q^30) by none.  Every
    # coefficient is a positive multiple of 1 or zeta^i, i < phi(7), so no
    # reached term packs to 0.
    rng = random.Random(5)

    def operand():
        coeffs = {}
        for e in rng.sample(range(40), 25):
            c = rng.randint(1, 9)
            if e >= 30:
                coeffs[e] = CycNumber.from_powers(7, {rng.randrange(6): c})
            else:
                coeffs[e] = Fraction(c, rng.randint(1, 4))
        return QSeries(coeffs, 1, Fraction(50))

    a, b = operand(), operand()
    reached = {e1 + e2 for e1, c1 in a.terms() for e2, c2 in b.terms()
               if CycNumber in (type(c1), type(c2)) and e1 + e2 < 50}
    rational_only = {e1 + e2 for e1, _ in a.terms() for e2, _ in b.terms() if e1 + e2 < 50} - reached
    assert reached and rational_only
    want, trunc = oracle_product(a, b)
    divisions = []
    divide = cyclotomic._divide
    monkeypatch.setattr(cyclotomic, "_divide", lambda *args: divisions.append(1) or divide(*args))
    got = a * b
    monkeypatch.undo()
    assert len(divisions) == len(reached)
    assert got.trunc == trunc and dict(got.terms()) == want


@pytest.mark.parametrize("trunc", [INF, Fraction(-3), Fraction(7, 2), Fraction(40)])
def test_product_with_operands_zero_below_truncation(trunc):
    dense = QSeries({m: (-1 if m % 2 else 1) * (m + 1) for m in range(-5, 30)}, 2, trunc)
    hidden = QSeries({m: 3 for m in range(50, 60)}, 1, Fraction(10))  # all >= trunc
    for a, b in ((dense, hidden), (hidden, dense), (hidden, hidden)):
        assert _assert_matches_oracle(a, b).is_zero()


def test_kernel_takes_only_plain_integer_coefficients():
    dense = {m: (-1) ** m * (m + 1) for m in range(20)}
    assert _kronecker_product(dense, dense, 30) is not None
    assert _kronecker_product(dense | {3: Fraction(1, 2)}, dense, 30) is None
    assert _kronecker_product(dense, dense | {4: CycNumber.zeta(5, 1)}, 30) is None
    assert _kronecker_product(dense | {5: True}, dense, 30) is None


def pairwise_terms(xa, xb, bound=None):
    """The pairwise product of two term maps, zeros dropped, cut at bound."""
    out = {}
    for m1, c1 in xa.items():
        for m2, c2 in xb.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c and (bound is None or m < bound)}


# Bit sizes of product coefficients at the edges of the packed product's
# digit widths: a width of w bytes holds coefficients below 2^(8w - 2)
# (B/4) in a word of 8w bits, for w = 1, 2, 4 and 8; wider digits take
# the byte path.
WIDTH_EDGES = (6, 7, 14, 15, 30, 31, 62, 63, 127)


@st.composite
def packable_pair(draw):
    """Two dense integer maps, without zeros, whose largest product
    coefficient lies just below, at or just above 2^edge for a width edge;
    the lowest exponents are often negative."""
    n = draw(st.integers(6, 30))
    peak = 2 ** draw(st.sampled_from(WIDTH_EDGES)) + draw(st.sampled_from([-1, 0, 1]))
    size = max(1, math.isqrt(peak // n))

    def terms():
        lo = draw(st.integers(-25, 10))
        signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return {lo + i: size if up else -size for i, up in enumerate(signs)}

    return terms(), terms()


@settings(max_examples=150, deadline=None)
@given(packable_pair(), st.one_of(st.none(), st.integers(-40, 60)), st.integers(1, 40))
def test_packed_product_matches_pairwise_across_digit_widths(pair, bound, order):
    xa, xb = pair
    got = _kronecker_product(xa, xb, bound)
    assert got is not None
    assert got == pairwise_terms(xa, xb, bound)
    # Through QSeries.__mul__, with the bound as a truncation ...
    trunc = INF if bound is None else Fraction(bound)
    _assert_matches_oracle(QSeries(xa, 1, trunc), QSeries(xb, 1, INF))
    # ... and through the packed ring's fold into Z[x]/(x^order - 1).
    folded = {}
    for m, c in pairwise_terms(xa, xb).items():
        folded[m % order] = folded.get(m % order, 0) + c
    product = root_sums(order, lambda ring: [ring.mul(ring.encode(xa), ring.encode(xb))])
    assert product == [{m: c for m, c in folded.items() if c}]


@pytest.mark.parametrize("edge", WIDTH_EDGES)
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_packed_product_around_each_width_edge(edge, step):
    # Operand coefficients at the edges themselves, +/-(2^edge + step),
    # against +/-1 and squared: both signs, a negative lowest exponent
    # and a bound.
    big = 2**edge + step
    xa = {m - 5: (-1) ** m * big for m in range(12)}
    xb = {m - 3: 1 - 2 * (m % 3 == 0) for m in range(12)}
    assert _kronecker_product(xa, xb, None) == pairwise_terms(xa, xb)
    assert _kronecker_product(xa, xb, 4) == pairwise_terms(xa, xb, 4)
    assert _kronecker_product(xa, xa, None) == pairwise_terms(xa, xa)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WIDTH_EDGES), st.sampled_from([-1, 0, 1]), st.integers(1, 40), st.data())
def test_packed_rings_decode_what_they_encode(edge, step, slots, data):
    # Coefficients of both signs up to a bound around each width edge, the
    # bound itself among them, round-trip through both rings; so does the
    # negated value, whose packed int is negative.
    bound = 2**edge + step
    coeff = st.integers(-bound, bound) | st.sampled_from([-bound, bound])
    powers = data.draw(st.dictionaries(st.integers(0, slots - 1), coeff, max_size=slots))
    powers = {e: c for e, c in powers.items() if c}
    for ring in (TruncatedRing(slots, bound), CyclicRing(slots, bound)):
        packed = ring.encode(powers)
        assert ring.decode(packed) == powers
        assert ring.decode(ring.sub(0, packed)) == {e: -c for e, c in powers.items()}


@pytest.mark.parametrize("kind", [TruncatedRing, CyclicRing])
@pytest.mark.parametrize("edge", WIDTH_EDGES)
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_take_moves_a_value_digit_by_digit(kind, edge, step):
    # A value whose coefficients reach its ring's bound B = 2^edge + step,
    # of either sign, moves to a ring of the same or wider digits (1, 2, 4
    # and 8 bytes, and 9 and 17 past the words) as decode then encode would move
    # it: the same int, so the same map.  So do its negation, a rotation and
    # a sum, whose ints are no least residues.
    bound, slots = 2**edge + step, 7
    source = kind(slots, bound)
    powers = {e: (bound, -bound, 1, -1, bound - 1, 0, -bound)[e] for e in range(slots)}
    packed = source.encode({e: c for e, c in powers.items() if c})
    values = [packed, source.sub(0, packed), source.rot(packed, 3), packed + source.encode({0: -1, 6: 1})]
    for wider in (bound, *(2**e for e in WIDTH_EDGES if e > edge)):
        target = kind(slots, wider)
        for a in values:
            moved = target.take(a, source)
            assert moved == target.encode(source.decode(a))
            assert target.decode(moved) == source.decode(a)


@pytest.mark.parametrize("powers, low", [({-1: 1}, 0), ({0: 1}, 1), ({3: 2, -2: 1}, -1)])
def test_truncated_ring_refuses_exponents_below_low(powers, low):
    # The last digits must not take them: x^-1 would decode as x^4.  The
    # ring's twin refuses them too, where it would read rho^-1 off the end
    # of its power table.
    for ring in (TruncatedRing(5, 10), MajorantBound(5)):
        with pytest.raises(QSeriesError, match="below"):
            ring.encode(powers, low)


@pytest.mark.parametrize("ring", ["L1Bound()", "L1Bound(period=5)", "CyclicRing(5, 10)"])
def test_divide_refuses_a_ring_without_a_horizon(ring):
    # 1 - x^c has no inverse in Z[x]/(x^N - 1), nor a finite L1 bound: with
    # no horizon to stop the doubling, divide raises.  The call runs in a
    # child process with a timeout, so that a regression fails instead of
    # hanging the suite.
    script = (
        "from qmaass.cyclotomic import CyclicRing\n"
        "from qmaass.series import L1Bound, QSeriesError\n"
        f"try:\n    {ring}.divide(1, 1)\nexcept QSeriesError as err:\n    print(err)\n"
    )
    src = os.path.dirname(os.path.dirname(series.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert (result.returncode, result.stdout) == (0, "a division by 1 - x^c needs a ring with a horizon\n")


def test_cyclic_ring_reduces_exponents_below_low():
    ring = CyclicRing(5, 10)
    assert ring.decode(ring.encode({-1: 1})) == {4: 1}
    assert ring.decode(ring.encode({0: 1}, low=1)) == {4: 1}
    assert ring.decode(ring.encode({0: 2, 1: 3}, low=1), low=1) == {1: 3, 5: 2}


@pytest.mark.parametrize("edge", WIDTH_EDGES)
def test_packed_width_keeps_two_spare_bits(edge):
    # W holds bound.bit_length() + 2 bits, in whole machine words up to
    # 8 bytes: a coefficient at the bound keeps its digit below 2^W - 1.
    for bound in (2**edge - 1, 2**edge, 2**edge + 1):
        nbytes = -(-(bound.bit_length() + 2) // 8)
        nbytes = next((w for w in (1, 2, 4, 8) if w >= nbytes), nbytes)
        assert TruncatedRing(1, bound).width == CyclicRing(1, bound).width == 8 * nbytes


@pytest.mark.parametrize("edge", WIDTH_EDGES)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k", [1, 4])
def test_cyclotomic_product_decodes_at_its_l1_bound(edge, sign, k):
    # One term each, s zeta^5 and sign zeta^k / 2 in Q(zeta_7): cleared of
    # the denominator 2, the product's one coordinate in Z[x]/(x^7 - 1) is
    # sign s, exactly the bound B = s * 1, at x^6 (reduced mod Phi_7 into
    # all six coordinates) or folded to x^2.
    for s in (2**edge - 1, 2**edge, 2**edge + 1):
        a = QSeries({1: CycNumber.from_powers(7, {5: s})}, 1, INF)
        b = QSeries({2: CycNumber.from_powers(7, {k: Fraction(sign, 2)})}, 1, INF)
        want = CycNumber.from_powers(7, {5 + k: Fraction(sign * s, 2)})
        assert (a * b).coeff(3).vec == want.vec
        assert a * b == QSeries({3: want}, 1, INF)


# (N, end, by_g): terms a z^p with g <= 4N and p <= end <= 2N, where a is
# a small polynomial in Z[x]/(x^N - 1).
PERIODIC_SUMS = st.integers(1, 8).flatmap(lambda N: st.integers(0, 2 * N).flatmap(
    lambda end: st.tuples(
        st.just(N),
        st.just(end),
        st.dictionaries(
            st.integers(0, 4 * N),
            st.lists(
                st.tuples(
                    st.integers(0, end),
                    st.dictionaries(st.integers(0, N - 1), st.integers(-3, 3), min_size=1, max_size=3),
                ),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        ),
    )
))


def _times_binomial(a: dict, top: int, bottom: int) -> dict:
    """The map a times the Pascal oracle's [top choose bottom]."""
    out = {}
    for e, c in a.items():
        for f, d in oracle_binomial(top, bottom).items():
            out[e + f] = out.get(e + f, 0) + c * d
    return out


@settings(max_examples=150, deadline=None)
@given(PERIODIC_SUMS)
def test_periodic_binomial_sums_agree_at_the_root(case):
    # With a period N the z^n entry is sum a [n - p + g choose n - p] at
    # zeta_N, not in Z[x]/(x^N - 1): a whole period of factors is 1 - z^N
    # there.  q-Lucas (Desarmenien, Europ. J. Combin. 3, 1982) gives the same
    # value, and the L1 twin bounds every ring value.
    N, end, by_g = case
    sizes = L1Bound(period=N).binomial_sums(
        {g: [(p, sum(map(abs, a.values()))) for p, a in group] for g, group in by_g.items()}, end)
    ring = CyclicRing(N, max(sizes) + 1)
    got = ring.binomial_sums({g: [(p, ring.encode(a)) for p, a in group] for g, group in by_g.items()}, end)
    for n in range(end + 1):
        want = lucas = CycNumber.from_powers(N, {})
        for g, group in by_g.items():
            for p, a in group:
                if p <= n:
                    top, bottom = n - p + g, n - p
                    want += CycNumber.from_powers(N, _times_binomial(a, top, bottom))
                    lucas += math.comb(top // N, bottom // N) * CycNumber.from_powers(
                        N, _times_binomial(a, top % N, bottom % N))
        value = ring.decode(got[n])
        assert CycNumber.from_powers(N, value) == want == lucas, n
        assert sum(map(abs, value.values())) <= sizes[n], n


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 7, 12])
def test_binomial_rows_at_a_root_follow_q_lucas(N):
    # One term at g: the z^s entry is [s+g choose s] at zeta_N, which q-Lucas
    # writes C(top // N, bottom // N) [top % N choose bottom % N] with
    # top = s + g and bottom = s; the L1 twin bounds each ring value.
    end = 2 * N + 1
    for g in range(3 * N + 2):
        sizes = L1Bound(period=N).binomial_sums({g: [(0, 1)]}, end)
        ring = CyclicRing(N, max(sizes))
        for s, a in enumerate(ring.binomial_sums({g: [(0, 1)]}, end)):
            value, top = ring.decode(a), s + g
            lucas = math.comb(top // N, s // N) * CycNumber.from_powers(N, oracle_binomial(top % N, s % N))
            assert CycNumber.from_powers(N, value) == lucas, (g, s)
            assert sum(map(abs, value.values())) <= sizes[s], (g, s)


@pytest.mark.parametrize("N, bound", [(1, 2**20), (7, 2**20), (12, 2**70)])
def test_cyclic_rotation_folds_once(N, bound):
    # One fold keeps a reduced value below 2^(W N) (1 + 2^-W), and a 10^4-step
    # Horner total = x^s total + term below 2^(W N + 2), decoding exactly.
    ring, rng = CyclicRing(N, bound), random.Random(N)
    for _ in range(200):
        a, s = rng.getrandbits(ring.bits), rng.randrange(3 * N)
        assert 0 <= ring.rot(a, s) < (1 << ring.bits) + (1 << ring.bits - ring.width)
        assert ring.rot(a, s) % ring.modulus == (a << ring.width * s) % ring.modulus
    total, want = 0, {}
    for step in range(1, 10_001):
        s = rng.randrange(2 * N)
        term = {e: rng.randint(-3, 3) for e in rng.sample(range(N), min(N, 3))}
        total = ring.rot(total, s) + ring.encode(term)
        want = {(e + s) % N: c for e, c in want.items()}
        for e, c in term.items():
            want[e] = want.get(e, 0) + c
        assert abs(total) < 1 << ring.bits + 2
        if step % 2_500 == 0:
            assert ring.decode(total) == {e: c for e, c in want.items() if c}


@pytest.mark.parametrize("ring", [
    TruncatedRing(12, 2**40), MajorantBound(12), CyclicRing(7, 2**40), L1Bound(period=7), L1Bound(),
], ids=["truncated", "majorant", "cyclic", "l1-period", "l1"])
def test_horner_steps_are_the_rings_rotations(ring):
    # Each ring inlines its rotation in its Horner steps: the division by
    # prod_(lo<=i<hi) (1 - z x^i) takes a_n + rot(a_(n-1), i), and a
    # periodic ring's product by the factors takes a_n - rot(a_(n-1), i),
    # int for int (the majorant's rounding up included).
    rng = random.Random(type(ring).__name__)
    for _ in range(300):
        end, low = rng.randrange(1, 10), rng.randrange(10)
        low = min(low, end)
        signed = isinstance(ring, (TruncatedRing, CyclicRing))
        series = [0] * low + [rng.randint(-2**30 if signed else 0, 2**30) for _ in range(low, end + 1)]
        lo = rng.randrange(8)
        hi = lo + rng.randrange(5)
        if ring.horizon != INF:
            lo, hi = min(lo, ring.horizon), min(hi, ring.horizon)
        want = series[:]
        for i in range(lo, hi):
            a = want[low]
            for n in range(low + 1, end + 1):
                a = want[n] = want[n] + ring.rot(a, i)
        got = series[:]
        ring._horner(got, low, lo, hi)
        assert got == want
        if ring.period:
            high, want = min(low + rng.randrange(3), end), series[:]
            want[high + 1:] = [0] * (end - high)
            got, top = want[:], high
            for i in range(lo, hi):
                top = min(top + 1, end)
                for n in range(top, low, -1):
                    want[n] = ring.sub(want[n], ring.rot(want[n - 1], i))
            assert ring._times(got, low, high, lo, hi) == top
            assert got == want


def test_wide_span_product_is_exact_and_small():
    x = QSeries.from_terms([(0, 1), (10**7, 1)])
    tracemalloc.start()
    try:
        square = x * x
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square == QSeries.from_terms([(0, 1), (10**7, 2), (2 * 10**7, 1)])
    assert square.trunc is INF
    assert peak < 100_000  # a packed 10^7-digit operand would take megabytes


# ---------------------------------------------------------------- inversion


def test_inverse_frozen_example():
    # 1/((1+q)(1+q^2)) = 1/(1+q+q^2+q^3) = (1-q)/(1-q^4)
    s = QSeries.from_dense([1, 1, 1, 1], trunc=12)
    inv = s.inverse()
    expected = QSeries.from_terms(
        [(0, 1), (1, -1), (4, 1), (5, -1), (8, 1), (9, -1)], trunc=12
    )
    assert inv == expected


def test_inverse_matches_long_division_oracle():
    poly = [1, 2, 0, -3, 1, 4]
    size = 25
    want = oracle_inverse_coeffs(poly, size)
    got = QSeries.from_dense(poly, trunc=size).inverse()
    for e in range(size):
        assert got.coeff(e) == want[e]


def test_inverse_of_laurent_series():
    # q^-2 - q^-1 = q^-2 (1 - q); reciprocal is q^2 (1 + q + q^2 + ...)
    x = QSeries.from_terms([(-2, 1), (-1, -1)], trunc=10)
    inv = x.inverse()
    assert inv.trunc == 14
    for e in range(2, 14):
        assert inv.coeff(e) == 1
    assert (x * inv).first_mismatch(QSeries.one(), up_to=10) is None


@settings(max_examples=30, deadline=None)
@given(poly_series())
def test_inverse_round_trip(a):
    a = a + QSeries.one()  # ensure nonzero
    if a.is_zero():
        return
    m0 = min_order(a)
    if a.coeff(m0) == 0 or abs(a.coeff(m0)) > 5:
        pass
    at = a.truncate(10)
    inv = at.inverse()
    prod = at * inv
    assert prod.first_mismatch(QSeries.one(), up_to=prod.trunc) is None


def test_inverse_errors():
    with pytest.raises(QSeriesError):
        QSeries.zero(trunc=5).inverse()
    with pytest.raises(QSeriesError):
        QSeries.one().inverse()  # infinite trunc refused
    # only a rational lowest coefficient is inverted
    unit = QSeries.from_terms([(0, CycNumber.zeta(5)), (1, 1)], trunc=6)
    with pytest.raises(QSeriesError, match="not rational"):
        unit.inverse()
    assert QSeries.from_terms([(0, 1), (1, CycNumber.zeta(5))], trunc=6).inverse().coeff(1) == -CycNumber.zeta(5)


def test_series_times_a_scalar_is_refused():
    s = QSeries.from_dense([1, 2], trunc=5)
    for scalar in (3, Fraction(1, 2), CycNumber.zeta(3)):
        with pytest.raises(TypeError):
            s * scalar
        with pytest.raises(TypeError):
            scalar * s
    assert s.scale(3) == QSeries.from_dense([3, 6], trunc=5)


# ----------------------------------------------------------- substitutions


def test_compose_power_and_negate_variable():
    s = QSeries.from_dense([1, 1, 1], trunc=8)
    sq = s.compose_power(2)
    assert sq.coeff(2) == 1 and sq.coeff(4) == 1 and sq.coeff(1) == 0
    assert sq.trunc == 16
    half = s.compose_power(Fraction(1, 2))
    assert half.coeff(Fraction(1, 2)) == 1
    assert half.trunc == 4
    alt = negate_variable(s)
    assert alt.coeff(1) == -1 and alt.coeff(2) == 1
    with pytest.raises(AssertionError):
        negate_variable(half)


def test_map_coefficients_and_scale():
    s = QSeries.from_dense([2, 4], trunc=5)
    assert s.scale(Fraction(1, 2)) == QSeries.from_dense([1, 2], trunc=5)


# ------------------------------------------------------------ finite products


def test_pochhammer_frozen_heads():
    # (q;q)_3 = (1-q)(1-q^2)(1-q^3)
    p = pochhammer("q", 3, 30)
    assert [p.coeff(e) for e in range(7)] == [1, -1, -1, 0, 1, 1, -1]
    # (-1;q)_2 = 2(1+q)
    p = pochhammer("-1", 2, 30)
    assert [p.coeff(e) for e in range(3)] == [2, 2, 0]
    # (q;q^2)_2 = (1-q)(1-q^3)
    p = pochhammer("q;q2", 2, 30)
    assert [p.coeff(e) for e in range(5)] == [1, -1, 0, -1, 1]
    # (q^2;q^2)_2 = (1-q^2)(1-q^4)
    p = pochhammer("q2", 2, 30)
    assert [p.coeff(e) for e in range(7)] == [1, 0, -1, 0, -1, 0, 1]
    assert pochhammer("q", 0, 30) == QSeries.one(30)


def test_pochhammer_pentagonal_product():
    # (q;q)_30 agrees below q^31 with the pentagonal-number expansion
    p = pochhammer("q", 30, 31)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    for e in range(31):
        assert p.coeff(e) == expect.get(e, 0), e


def test_pochhammer_matches_direct_product():
    t = 40
    direct = QSeries.one(t)
    for i in range(1, 6):
        direct = direct * QSeries.from_terms([(0, 1), (i, -1)], t)
    assert pochhammer("q", 5, t) == direct
    # (-q; q)_3 = (1+q)(1+q^2)(1+q^3) and (q^2; q)_3 = (1-q^2)(1-q^3)(1-q^4)
    for kind, sign, first in (("-q", 1, 1), ("q2;q", -1, 2)):
        direct = QSeries.one(t)
        for i in range(3):
            direct = direct * QSeries.from_terms([(0, 1), (first + i, sign)], t)
        assert pochhammer(kind, 3, t) == direct, kind


@pytest.mark.parametrize("kind", sorted(series._POCH_NAMES))
@pytest.mark.parametrize("trunc", [1, 17, Fraction(61, 3), 40])
def test_inverse_pochhammer_matches_series_inverse(kind, trunc):
    # every named kind is a factor (1 - c x^e) the packed ring takes
    coeff, exponent, step = series._POCH_NAMES[kind]
    assert coeff in (1, -1) and type(exponent) is int and exponent >= 0 and step >= 1
    for n in (0, 1, 2, 5, 9):
        if n and series._POCH_NAMES[kind][1] == 0:  # a factor 1 - c q^0
            with pytest.raises(QSeriesError):
                inverse_pochhammer(kind, n, trunc)
            continue
        got = inverse_pochhammer(kind, n, trunc)
        want = pochhammer(kind, n, trunc).inverse().truncate(trunc)
        assert got == want
        assert got._coeffs == want._coeffs and got.trunc == want.trunc
        assert {m: type(c) for m, c in got._coeffs.items()} == {
            m: type(c) for m, c in want._coeffs.items()
        }
        assert_clean(got)
        one = (got * pochhammer(kind, n, trunc)).truncate(trunc)
        assert one == QSeries.one(trunc)


def test_inverse_pochhammer_refuses_exponent_zero():
    # 1/(-1;q)_n has the factor 1/(1 + q^0); only factor exponents >= 1
    # are divided out, so every inverse has int coefficients.
    assert inverse_pochhammer("-1", 0, 6) == QSeries.one(6)
    for n in (1, 2, 7):
        with pytest.raises(QSeriesError, match="exponents >= 1"):
            inverse_pochhammer("-1", n, 6)
    # the product itself still takes exponent 0, and its series inverse
    # keeps the halves: 1/(2(1+q)) = (1 - q + q^2 - ...)/2
    inv = pochhammer("-1", 2, 6).inverse()
    assert [inv.coeff(e) for e in range(6)] == [Fraction((-1) ** e, 2) for e in range(6)]
    for kind in sorted(set(series._POCH_NAMES) - {"-1"}):
        assert {type(c) for c in inverse_pochhammer(kind, 5, 30)._coeffs.values()} == {int}
    # partitions into parts <= 6
    assert inverse_pochhammer("q", 6, 25).coeff(6) == 11


def test_inverse_pochhammer_refuses_what_it_cannot_divide():
    with pytest.raises(QSeriesError):
        inverse_pochhammer("q", 3, INF)
    with pytest.raises(QSeriesError, match="exponents >= 1"):
        inverse_pochhammer("-1", 2, 10)  # the factor 1 + q^0 has exponent 0
    with pytest.raises(QSeriesError):
        inverse_pochhammer("q", -1, 10)
    with pytest.raises(QSeriesError, match="kind must be one of"):
        inverse_pochhammer((1, 1, 1), 3, 10)  # kinds go by name only
    assert inverse_pochhammer("-q", 3, 30) == pochhammer("-q", 3, 30).inverse()


def _assert_pochhammers_match_the_product_route(kind, ns, trunc):
    """pochhammer(kind, n, trunc) against the product of its factors
    (1 - c q^e) as series, and inverse_pochhammer against that product's
    QSeries.inverse, for each n in ``ns``, values and truncs alike; below
    a trunc <= 0 both are the empty series."""
    c, exponent, step = series._POCH_NAMES[kind]
    t = Fraction(trunc)
    product = QSeries.one(t)
    for n in range(max(ns) + 1):
        if n in ns:
            got = pochhammer(kind, n, trunc)
            want = product if t > 0 else QSeries.zero(t)
            assert got == want and got.trunc == want.trunc == t, (kind, n, trunc)
            if exponent == 0 < n:
                with pytest.raises(QSeriesError, match="exponents >= 1"):
                    inverse_pochhammer(kind, n, trunc)
            else:
                inv = inverse_pochhammer(kind, n, trunc)
                want = product.inverse().truncate(t) if t > 0 else want
                assert inv == want and inv.trunc == t, (kind, n, trunc)
                assert {type(x) for x in inv._coeffs.values()} <= {int}
        product = (product * QSeries.from_terms([(0, 1), (exponent + step * n, -c)], t)).truncate(t)


def test_pochhammers_across_the_word_digit_edge(monkeypatch):
    # Digits of up to 8 bytes are packed by one struct call, wider ones
    # byte by byte (PackedRing.encode and decode).  The majorant bound of
    # inverse_pochhammer("q", 40, T) grows with T (8 bytes at T = 200), and
    # that of pochhammer("q", n, 500) with n.  Both sides of each first
    # width past 8 bytes, and the fixed truncs, match the product route for
    # every kind.
    widths = []
    init = TruncatedRing.__init__

    def recording(self, slots, bound):
        init(self, slots, bound)
        widths.append((self.bytes, bool(self._words)))

    monkeypatch.setattr(TruncatedRing, "__init__", recording)

    def width(build, n, trunc):
        widths.clear()
        build("q", n, trunc)
        (out,) = widths
        return out

    edge = next(t for t in range(1, 1000) if width(inverse_pochhammer, 40, t)[0] > 8)
    assert width(inverse_pochhammer, 40, edge - 1) == (8, True)
    assert width(inverse_pochhammer, 40, edge) == (9, False)
    n_edge = next(n for n in range(500) if width(pochhammer, n, 500)[0] > 8)
    assert width(pochhammer, n_edge - 1, 500) == (8, True)
    assert width(pochhammer, n_edge, 500) == (9, False)
    for kind in sorted(series._POCH_NAMES):
        for trunc in (-3, 0, 1, Fraction(7, 2), 61, edge - 1, edge):
            _assert_pochhammers_match_the_product_route(kind, range(41), trunc)
        _assert_pochhammers_match_the_product_route(kind, (n_edge - 1, n_edge), 500)


@pytest.mark.parametrize("build", [pochhammer, inverse_pochhammer], ids=["poch", "inverse"])
@pytest.mark.parametrize(
    "kind, trunc, message",
    [
        ("q", INF, "finite truncation order"),
        ((1, Fraction(1, 2), 1), 10, "kind must be one of"),
        ((Fraction(1, 2), 1, 1), 10, "kind must be one of"),
        ((1, -1, 1), 10, "kind must be one of"),
        ((1, 1, 1), 10, "kind must be one of"),  # once the triple of "q"
        (["q"], 10, "kind must be one of"),
        ("q;q", 10, "kind must be one of"),
    ],
    ids=[
        "infinite-trunc", "half-exponent", "fraction-coefficient", "negative-exponent",
        "triple-of-q", "list", "unknown-name",
    ],
)
def test_pochhammers_refuse_what_the_dense_passes_cannot_take(build, kind, trunc, message):
    # Both take one path, a packed-ring pass per factor below a finite
    # trunc, and share the guard in front of it.  Kinds
    # go by name, each with an integer coefficient and an exponent >= 0,
    # so a triple is refused as an unknown kind whatever it holds.
    with pytest.raises(QSeriesError, match=message):
        build(kind, 3, trunc)


def test_pochhammer_inverses_never_reach_series_inverse(monkeypatch):
    def refused(self):
        raise AssertionError("a Pochhammer inverse went through QSeries.inverse")

    monkeypatch.setattr(QSeries, "inverse", refused)
    assert sigma_series("pochhammer", 40) == sigma_series("indefinite", 40)
    assert sigma_star_series("odd-pochhammer", 40) == sigma_star_series("alternating", 40)
    for pair in (unit_pair("one"), unit_pair("q"), pair_relative_q(2, 1)):
        assert verify_pair(pair, 4, 20).status == "pass"


# --------------------------------------------------------- gaussian binomials


def test_gaussian_binomial_frozen():
    assert [gaussian_binomial(4, 2).coeff(e) for e in range(5)] == [1, 1, 2, 1, 1]
    assert gaussian_binomial(0, 0) == QSeries.one()
    assert gaussian_binomial(5, 5) == QSeries.one()
    assert gaussian_binomial(5, 0) == QSeries.one()
    assert gaussian_binomial(3, 5).is_zero()
    assert gaussian_binomial(3, -1).is_zero()
    assert gaussian_binomial(-1, 0).is_zero()
    # [5 2] = 1 + q + 2q^2 + 2q^3 + 2q^4 + q^5 + q^6
    assert [gaussian_binomial(5, 2).coeff(e) for e in range(7)] == [1, 1, 2, 2, 2, 1, 1]


def test_gaussian_binomial_pascal_recurrences():
    for n in range(1, 10):
        for k in range(0, n + 1):
            lhs = gaussian_binomial(n, k)
            a = gaussian_binomial(n - 1, k - 1) + gaussian_binomial(n - 1, k).shift(k)
            b = gaussian_binomial(n - 1, k - 1).shift(n - k) + gaussian_binomial(n - 1, k)
            assert lhs == a.truncate(lhs.trunc) or lhs == a
            assert lhs == b


def test_gaussian_binomial_palindromic():
    for n in range(0, 11):
        for k in range(0, n + 1):
            g = gaussian_binomial(n, k)
            d = k * (n - k)
            for e in range(d + 1):
                assert g.coeff(e) == g.coeff(d - e)


def test_descending_product_identity():
    # prod_{i=0}^{n-1}(1 - z q^i): the z^u coefficient must be
    # (-1)^u q^(u(u-1)/2) [n choose u]_q, for all n <= 12.
    for n in range(0, 13):
        qdeg = n * (n - 1) // 2
        cols = oracle_descending_product(n, qdeg)
        for u in range(n + 1):
            shift = u * (u - 1) // 2
            sign = -1 if u % 2 else 1
            expected = gaussian_binomial(n, u).shift(shift).scale(sign)
            got = QSeries({e: c for e, c in enumerate(cols[u]) if c}, 1, INF)
            assert got == expected, (n, u)


# ------------------------------------------------------------ averaged sums
#
# The reference route of the Bailey limit identities (tests/oracles.py)
# takes the even/odd average of the partial sums at a proven top; these
# tests keep that average honest.  The library's top and its guard are
# tested in test_bailey.py.


def test_stabilized_sum_geometric_settle_mode():
    t = 40
    res = stabilized_sum([QSeries.monomial(1, i, t) for i in range(t + 1)], trunc=t)
    assert res == QSeries.from_terms([(e, 1) for e in range(t)], t)


def test_stabilized_sum_alternating_constant():
    # 1 - 1 + 1 - ... averages to 1/2 (the even/odd mean of partial sums),
    # whichever top the terms stop at
    t = 10
    for top in range(4):
        res = stabilized_sum(
            [QSeries.from_terms([(0, (-1) ** i)], t) for i in range(top + 1)], trunc=t
        )
        assert res == QSeries.from_terms([(0, Fraction(1, 2))], t), top


def test_stabilized_sum_accepts_sequences():
    t = 20
    seq = [QSeries.monomial(1, i, t) for i in range(45)]
    res = stabilized_sum(seq, trunc=t)
    assert res == QSeries.from_terms([(e, 1) for e in range(t)], t)


# ------------------------------------------------------------------ division


def test_divide_one_minus_power():
    # PackedRing.divide takes a value of Z[x]/(x^T) over (1 - x^s) or
    # (1 + x^s); at or past the horizon it is the identity.
    t = 9
    ring = TruncatedRing(t, 2**20)
    assert ring.decode(ring.divide(1, 2)) == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    assert ring.decode(ring.divide(1, 2, -1)) == {0: 1, 2: -1, 4: 1, 6: -1, 8: 1}
    p = QSeries.from_dense([2, 0, -1, 5], trunc=t)
    for sign in (1, -1):
        prod = p * QSeries.from_terms([(0, 1), (3, -sign)], t)
        assert ring.decode(ring.divide(ring.encode(prod._coeffs), 3, sign)) == p._coeffs
    for s in (t, t + 1, 40):
        assert ring.divide(ring.encode(p._coeffs), s, -1) == ring.encode(p._coeffs)
    # The twin at x = rho = 3/4 (T = 9) bounds 1 / (1 + x^2) by
    # 1 / (1 - rho^2) = 16/7, rounding up; at or past the horizon it is
    # the identity too.
    twin = MajorantBound(t)
    assert twin.divide(3, 2, -1) == twin.divide(3, 2) == 7
    assert twin.divide(3, t, -1) == twin.divide(3, 40) == 3
    for r in (ring, MajorantBound(t)):
        with pytest.raises(QSeriesError, match="exponents >= 1"):
            r.divide(1, 0)


# ------------------------------------------------------------ majorant twin

_TWIN_STEPS = ["encode", "add", "sub", "mul", "rot", "divide", "poch", "binom"]


@st.composite
def _twin_builds(draw):
    """T <= 40 and a list of steps over Z[x]/(x^T), each appending values
    made from earlier ones by the ring operations the packed builds use."""
    T = draw(st.integers(1, 40))
    maps = st.dictionaries(st.integers(0, T + 2), st.integers(-999, 999), max_size=5)
    steps, count = [], 0
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(_TWIN_STEPS) if count else st.just("encode"))
        pick = st.integers(0, max(count - 1, 0))
        if op == "encode":
            args = (draw(maps),)
        elif op in ("add", "sub", "mul"):
            args = (draw(pick), draw(pick))
        elif op == "rot":
            args = (draw(pick), draw(st.integers(0, T + 1)))
        elif op == "divide":
            args = (draw(pick), draw(st.integers(1, T + 1)), draw(st.sampled_from([1, -1])))
        elif op == "poch":
            args = (draw(st.lists(pick, min_size=1, max_size=6)), draw(st.integers(1, T + 1)),
                    draw(st.integers(1, 2)))
        else:
            end = draw(st.integers(0, 6))
            terms = st.lists(st.tuples(st.integers(0, end), pick), min_size=1, max_size=2)
            args = (draw(st.dictionaries(st.integers(0, 3), terms, min_size=1, max_size=2)), end)
        steps.append((op, args))
        count += args[-1] + 1 if op == "binom" else 1
    return T, steps


def _run_build(ring, steps) -> list:
    """The values of ``steps`` in a packed ring or its twin."""
    values = []
    for op, args in steps:
        if op == "encode":
            values.append(ring.encode(args[0]))
        elif op == "binom":
            by_g, end = args
            values += ring.binomial_sums({g: [(p, values[i]) for p, i in terms] for g, terms in by_g.items()}, end)
        elif op == "poch":
            values.append(ring.pochhammer_sum([values[i] for i in args[0]], *args[1:]))
        else:
            a, *rest = args
            if op in ("add", "sub", "mul"):
                rest = [values[rest[0]]]
            act = {"add": operator.add, "sub": ring.sub, "mul": ring.mul, "rot": ring.rot, "divide": ring.divide}
            values.append(act[op](values[a], *rest))
    return values


def _q_binomial(n: int, g: int, T: int) -> QSeries:
    """[n choose g] below q^T as prod_(i<=g) (1 - q^(n-g+i)) / (1 - q^i)."""
    top = bottom = QSeries.one(T)
    for i in range(1, g + 1):
        top = (top - top.shift(n - g + i)).truncate(T)
        bottom = (bottom - bottom.shift(i)).truncate(T)
    return (top * bottom.inverse()).truncate(T)


def _route_build(T: int, steps) -> list:
    """The values of ``steps`` below q^T by QSeries products and inverses."""
    one, values = QSeries.one(T), []
    for op, args in steps:
        if op == "encode":
            values.append(QSeries(args[0], 1, T))
        elif op == "binom":
            by_g, end = args
            for n in range(end + 1):
                total = QSeries.zero(T)
                for g, terms in by_g.items():
                    for p, i in terms:
                        if p <= n:
                            total = total + (values[i] * _q_binomial(n - p + g, g, T)).truncate(T)
                values.append(total)
        elif op == "poch":
            idx, s, reps = args
            total, weight = QSeries.zero(T), one
            for m, i in enumerate(idx, 1):
                total = total + (weight * values[i]).truncate(T)
                for _ in range(reps):
                    weight = (weight - weight.shift(s * m)).truncate(T)
            values.append(total)
        else:
            a, b, *sign = args
            if op == "divide":
                b = (one - QSeries.monomial(sign[0], b, T)).inverse()
            elif op == "rot":
                b = QSeries.monomial(1, b, T + b)
            else:
                b = values[b]
            act = {"add": operator.add, "sub": operator.sub}.get(op, operator.mul)
            values.append(act(values[a], b).truncate(T))
    return values


class _WithoutRhoFactor(MajorantBound):
    bound = L1Bound.bound  # the largest value, without rho^-(T-1)


class _RotRoundedDown(MajorantBound):
    def rot(self, a: int, s: int) -> int:
        return a * self._powers[s] >> self._k * s if s < self.horizon else 0


def test_majorant_twin_bounds_every_build_and_has_teeth():
    # Every coefficient that the QSeries route gives lies within the twin's
    # bound, and the ring of that bound decodes every value exactly.  A
    # twin without the factor rho^-(T-1), or with rot rounded down, lets
    # some coefficient past its bound.
    caught = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_twin_builds())
    def check(build):
        T, steps = build
        want = _route_build(T, steps)
        peak = max((abs(c) for v in want for c in v._coeffs.values()), default=0)
        twin = MajorantBound(T)
        bound = twin.bound(_run_build(twin, steps))
        assert peak <= bound
        ring = TruncatedRing(T, bound)
        assert [ring.decode(a) for a in _run_build(ring, steps)] == [v._coeffs for v in want]
        for mutant in (_WithoutRhoFactor, _RotRoundedDown):
            if peak > mutant(T).bound(_run_build(mutant(T), steps)):
                caught.add(mutant)

    check()
    assert caught == {_WithoutRhoFactor, _RotRoundedDown}


@pytest.mark.parametrize(
    "call, ceiling",
    [
        (lambda: verify_limiting_identity(synthetic_pair("q", random.Random(3)), "q", "even", 620).ok, 256),
        (lambda: family_series(4, 8, 8, 200), 128),
        (lambda: sigma_series("alternating", 1000), 128),
    ],
    ids=["q-even-identity-620", "family4-k8-200", "sigma-alternating-1000"],
)
def test_wide_truncated_passes_keep_narrow_digits(call, ceiling, monkeypatch):
    # Sizes that no benchmark workload reaches: the widest digit of every
    # TruncatedRing that each call builds stays under its ceiling.
    widths = []
    init = TruncatedRing.__init__

    def recording(self, slots, bound):
        init(self, slots, bound)
        widths.append(self.width)

    monkeypatch.setattr(TruncatedRing, "__init__", recording)
    assert call()
    assert max(widths) <= ceiling


# ------------------------------------------------------------- comparison


def test_first_mismatch_and_agrees():
    a = QSeries.from_dense([1, 2, 3, 4], trunc=10)
    b = QSeries.from_dense([1, 2, 5, 4], trunc=10)
    assert a.first_mismatch(b) == 2
    assert a.first_mismatch(b, up_to=2) is None
    assert a.first_mismatch(b, up_to=3) == 2
    assert a.first_mismatch(a) is None
    c = QSeries.from_dense([1, 2], trunc=2)
    assert a.first_mismatch(c) is None  # only compared below the common window


# ------------------------------------------- truncation bookkeeping oracle
#
# A series as a triple (terms by Fraction exponent, denom, trunc), with every
# exponent and truncation computed in Fractions by the formulas of the series
# model.  The integer bookkeeping of QSeries must reproduce these triples.


def ref(s):
    return dict(s.terms()), s.denom, s.trunc


def ref_build(terms, denom, trunc):
    """Keep the nonzero terms below trunc, as the constructor does."""
    return {e: c for e, c in terms.items() if c != 0 and e < trunc}, denom, trunc


def ref_add(a, b):
    out = dict(a[0])
    for e, c in b[0].items():
        out[e] = out.get(e, 0) + c
    return ref_build(out, math.lcm(a[1], b[1]), min(a[2], b[2]))


def ref_shift(a, e):
    e = Fraction(e)
    trunc = a[2] if a[2] is INF else a[2] + e
    return ref_build(
        {x + e: c for x, c in a[0].items()}, math.lcm(a[1], e.denominator), trunc
    )


def ref_truncate(a, t):
    return ref_build(a[0], a[1], min(a[2], Fraction(t) if isinstance(t, int) else t))


def ref_scale(a, c):
    if c == 0:
        return {}, 1, a[2]
    return ref_build({e: c * v for e, v in a[0].items()}, a[1], a[2])


def ref_inverse(a):
    terms, denom, trunc = a
    o = min(terms)
    size = math.ceil((trunc - o) * denom)
    if size <= 0:
        return {}, 1, trunc - 2 * o
    unit = [(int((e - o) * denom), c) for e, c in terms.items() if e != o]
    inv = [Fraction(1) / terms[o]]
    for k in range(1, size):
        inv.append(-inv[0] * sum(c * inv[k - j] for j, c in unit if j <= k))
    return ref_build(
        {-o + Fraction(k, denom): c for k, c in enumerate(inv)}, denom, trunc - 2 * o
    )


def assert_same(got, want):
    terms, denom, trunc = want
    assert dict(got.terms()) == terms
    assert got.denom == denom
    assert got.trunc == trunc
    assert type(got.trunc) is Fraction or got.trunc is INF


TRUNCS = st.one_of(
    st.just(INF),
    st.sampled_from([Fraction(23, 2), Fraction(61, 3)]),
    st.builds(Fraction, st.integers(-30, 60), st.integers(1, 12)),
    st.integers(-5, 40),  # stored as a Fraction
)
EXPONENTS = st.one_of(
    st.integers(-10, 10), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
)


@st.composite
def bookkeeping_series(draw, truncs=TRUNCS, numerators=st.integers(-24, 60)):
    """Up to 8 terms over a denominator 1..12, often below exponent 0."""
    coeff = st.one_of(
        st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])
    )
    terms = draw(st.dictionaries(numerators, coeff, max_size=8))
    return QSeries(terms, draw(st.integers(1, 12)), draw(truncs))


@settings(max_examples=300, deadline=None)
@given(
    bookkeeping_series(),
    bookkeeping_series(),
    TRUNCS,
    EXPONENTS,
    st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-3, 4)]),
)
def test_bookkeeping_matches_fraction_formulas(a, b, cut, e, c):
    ra, rb = ref(a), ref(b)
    assert_same(a + b, ref_add(ra, rb))
    assert_same(a - b, ref_add(ra, ref_scale(rb, -1)))
    product, trunc = oracle_product(a, b)
    assert_same(a * b, (product, math.lcm(a.denom, b.denom), trunc))
    assert_same(a.shift(e), ref_shift(ra, e))
    assert_same(a.truncate(cut), ref_truncate(ra, cut))
    assert_same(a.scale(c), ref_scale(ra, c))


def test_sum_builds_a_clean_map():
    # Unequal truncs: the sum is cut at the lower one, in either order.
    a = QSeries({0: 1, 3: 2, 9: 5}, 1, Fraction(10))
    b = QSeries({1: 1, 6: 7}, 2, Fraction(4))
    for s in (a + b, b + a):
        assert s.trunc == 4 and s.denom == 2
        assert s._coeffs == {0: 1, 1: 1, 6: 2 + 7}
    # Full cancellation leaves the empty map, at the shared trunc.
    zero = a - a
    assert zero._coeffs == {} and zero.trunc == 10
    # Halves that sum to whole numbers become ints; zero sums drop out.
    h = QSeries({0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(3, 2)}, 1, Fraction(5))
    g = QSeries({0: Fraction(1, 2), 1: Fraction(-1, 2), 2: 1}, 1, Fraction(5))
    s = h + g
    assert s._coeffs == {0: 1, 2: Fraction(5, 2)}
    assert type(s._coeffs[0]) is int
    # Cyclotomic coefficients add, and cancel, in their field.
    z = CycNumber.zeta(5, 1)
    c = QSeries({0: z, 1: z, 2: 1}, 1, Fraction(6)) + QSeries({0: -z, 1: z}, 1, Fraction(6))
    assert set(c._coeffs) == {1, 2} and c._coeffs[1] == 2 * z
    for s in (a + b, zero, h + g, c):
        assert_clean(s)


def assert_clean(s):
    """The map of s is what the cleaning constructor would build from it."""
    assert s._coeffs == QSeries(dict(s._coeffs), s.denom, s.trunc)._coeffs
    assert type(s.trunc) is Fraction or s.trunc is INF


@settings(max_examples=200, deadline=None)
@given(bookkeeping_series(), bookkeeping_series(), EXPONENTS, st.integers(1, 12))
def test_results_built_without_cleaning_are_clean(a, b, e, d):
    # Products (pairwise and packed), sums, negation and shifts wrap
    # their maps without the cleaning pass of the constructor.
    dense = QSeries({m: (1 - m % 2 * 2) * (m % 5) for m in range(-6, 34)}, d)
    assert _kronecker_product(dense._coeffs, dense._coeffs, None) is not None
    cut = dense.truncate(b.trunc)
    products = (a * b, dense * dense, cut * dense, dense * a)
    sums = (a + b, b + a, a - a, cut + dense, dense - cut)
    for s in (*products, *sums, -a, -cut, a.shift(e), cut.shift(e), dense.shift(e)):
        assert_clean(s)
        assert_clean(s.normalized())


@settings(max_examples=150, deadline=None)
@given(bookkeeping_series(TRUNCS.filter(lambda t: t != INF)))
def test_inverse_matches_fraction_formulas(a):
    if a.is_zero():
        with pytest.raises(QSeriesError):
            a.inverse()
    else:
        assert_same(a.inverse(), ref_inverse(ref(a)))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(bookkeeping_series(numerators=st.integers(-6, 12)), min_size=1, max_size=12),
    st.one_of(
        st.just(INF),
        st.sampled_from([Fraction(23, 2), Fraction(61, 3)]),
        st.builds(Fraction, st.integers(-6, 24), st.integers(1, 12)),
        st.integers(-3, 8),
    ),
)
def test_stabilized_sum_matches_fraction_formulas(seq, trunc):
    # (S_(top-1) + S_top) / 2: every term but the last whole, the last
    # halved, each cut below trunc.
    terms = [ref_truncate(ref(s), trunc) for s in seq]
    want = ref_scale(terms[-1], Fraction(1, 2))
    for term in terms[:-1]:
        want = ref_add(want, term)
    assert_same(stabilized_sum(seq, trunc), ref_truncate(want, trunc))


@pytest.mark.parametrize("trunc", [10, Fraction(61, 3)])
def test_stabilized_sum_takes_each_term_once_in_order(trunc):
    # The reference route of the averaged identity reads beta_0 .. beta_top
    # in order, once in each ring of its one decoding pass, top =
    # ceil(trunc) + settle, and no further.
    for settle in (0, 3):
        calls = []

        def betas(ring, n_max):
            for n in range(n_max + 1):
                calls.append(n)
                yield ring.encode({n: 1})

        pair = BaileyPair("q", lambda n, size: {}, betas, "counted", settle)
        limit_identity_by_products(pair, "q", "even", trunc)
        assert calls == list(range(math.ceil(trunc) + settle + 1)) * 2, settle


# --------------------------------------------- Fraction construction guard


def fractions_built_in(path, work) -> int:
    """Fractions constructed while running ``work()`` whose nearest caller
    outside the fractions module is code from the file ``path``."""
    original = Fraction.__dict__["__new__"]
    count = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal count
        frame = sys._getframe(1)
        while frame.f_code.co_filename == fractions.__file__:
            frame = frame.f_back
        count += frame.f_code.co_filename == path
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        work()
    finally:
        Fraction.__new__ = original
    return count


def test_series_bookkeeping_builds_few_fractions():
    # Exponents and truncations of these computations are integers or fixed
    # Fractions; what series.py still builds is a shifted truncation or a
    # halved coefficient.  Fraction truncation arithmetic in the
    # constructor, the product truncation and the averaged sums built
    # 12,142 here.
    def work():
        for j in range(1, 5):
            family_series(j, 1, 1, 120)
        report = verify_limiting_identity(pair_relative_q(1, 1), "q", "even", 40)
        assert report.ok

    built = fractions_built_in(series.__file__, work)
    assert 0 < built <= 600


# ------------------------------------------------------ non-finite truncations


_FINITE_TRUNC_ENTRY_POINTS = {
    "verify_pair": lambda t: verify_pair(pair_relative_q(2, 1), 3, t),
    "verify_limiting_identity": lambda t: verify_limiting_identity(
        pair_relative_q(1, 1), "q", "gauss", t
    ),
    "relation_sums": lambda t: relation_sums(unit_pair("one"), 0, t),
    "family_series": lambda t: family_series(1, 1, 1, t),
    "sigma_series": lambda t: sigma_series("pochhammer", t),
    "sigma_star_series": lambda t: sigma_star_series("alternating", t),
    "ag_generating": lambda t: ag_generating(PartitionConstraint(3, 1, 4, 2), t),
    "indefinite_theta_series": lambda t: indefinite_theta_series(family_params(1, 1, 1).params, t),
    "family_lattice_series": lambda t: family_lattice_series(1, 1, 1, t),
    "verify_theta_embedding": lambda t: verify_theta_embedding(1, 1, 1, t),
    "verify_family_lattice": lambda t: verify_family_lattice(1, 1, 1, t),
}


@pytest.mark.parametrize("trunc", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", sorted(_FINITE_TRUNC_ENTRY_POINTS))
def test_non_finite_truncs_are_refused(entry, trunc):
    # A float infinity that is not the INF object, and NaN, get the same
    # QSeriesError as INF itself: not OverflowError or a bare ValueError.
    with pytest.raises(QSeriesError, match="finite truncation order"):
        _FINITE_TRUNC_ENTRY_POINTS[entry](trunc)
    with pytest.raises(QSeriesError, match="finite truncation order"):
        _FINITE_TRUNC_ENTRY_POINTS[entry](INF)


@pytest.mark.parametrize("trunc", [0, -3, Fraction(-1, 2)])
@pytest.mark.parametrize(
    "check",
    [
        lambda t: verify_theta_embedding(1, 1, 1, t),
        lambda t: verify_family_lattice(2, 2, 1, t),
    ],
    ids=["theta_embedding", "family_lattice"],
)
def test_checks_refuse_nonpositive_truncs(check, trunc):
    # Below q^0 or lower a check compares nothing, so it may not pass.
    with pytest.raises(QSeriesError, match="positive truncation order"):
        check(trunc)


@pytest.mark.parametrize("trunc", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_chain_polynomials_read_inf_as_whole(trunc):
    # The chain polynomials are finite, so +inf (INF or another float
    # infinity) asks for them whole; -inf and NaN are refused as above.
    if trunc > 0:
        for inf in (trunc, float("inf")):
            whole = ag_polynomials(2, 1, 0, 3, inf)
            assert all(poly.trunc is INF for poly in whole)
            assert [poly.truncate(13) for poly in whole] == ag_polynomials(2, 1, 0, 3, 13)
            assert whole[3].degree() == 12
        return
    with pytest.raises(QSeriesError, match="finite truncation order"):
        ag_polynomials(2, 1, 0, 3, trunc)
