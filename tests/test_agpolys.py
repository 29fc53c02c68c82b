"""Chain polynomials, the partition oracle, and the reversal identity."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_binomial

import qmaass.agpolys as agpolys
from qmaass.agpolys import (
    PartitionConstraint,
    ag_generating,
    ag_polynomial,
    ag_polynomials,
    verify_ag_relation,
)
from qmaass.cyclotomic import CyclicRing
from qmaass.series import (
    INF,
    L1Bound,
    MajorantBound,
    PackedRing,
    QSeries,
    QSeriesError,
    TruncatedRing,
    gaussian_binomial,
)

# --------------------------------------------------------------------- oracles


def oracle_chain_poly(k: int, ell: int, b: int, n: int) -> dict:
    """Brute-force chain sum with dict polynomial arithmetic."""
    if k == 1:
        return {0: 1}
    total: dict = {}
    for chain in itertools.product(range(n + 1), repeat=k - 1):
        if any(chain[i] > chain[i + 1] for i in range(k - 2)):
            continue
        values = list(chain) + [n]
        poly = {0: 1}
        weight = sum(v * v + (1 - b) * v for v in chain)
        poly = {weight: 1}
        dead = False
        for j in range(1, k):
            g = -b * j + sum(2 * values[r - 1] + (1 if r < ell else 0) for r in range(1, j + 1))
            if g < 0:
                dead = True
                break
            bottom = values[j] - values[j - 1]
            factor = oracle_binomial(bottom + g, bottom)
            new = {}
            for e1, c1 in poly.items():
                for e2, c2 in factor.items():
                    new[e1 + e2] = new.get(e1 + e2, 0) + c1 * c2
            poly = new
        if dead:
            continue
        for e, c in poly.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def _depth_first_chains(k: int, ell: int, b: int, trunc, top: int):
    """Depth-first over the chains ``0 <= n_1 <= ... <= n_{k-1} <= top``.

    Yields ``(n_{k-1}, g_{k-1}, partial)`` for each chain with q-weight
    below ``trunc`` and every ``g_j >= 0``; ``partial`` is the chain's
    power of q times every binomial except the final one, whose top side
    depends on ``n``.
    """
    def walk(j: int, prev: int, acc: int, weight: int, partial):
        g = acc - b * j
        if g < 0:
            return
        if j == k - 1:
            yield prev, g, partial
            return
        for v in range(prev, top + 1):
            w = v * v + (1 - b) * v
            if weight + w >= trunc:
                break
            factor = QSeries(oracle_binomial(v - prev + g, v - prev), 1, trunc).shift(w)
            nxt = acc + 2 * v + (1 if j + 1 < ell else 0)
            yield from walk(j + 1, v, nxt, weight + w, partial * factor)

    return walk(0, 0, 0, 0, QSeries.one(trunc))


def reference_polynomial(k: int, ell: int, b: int, n: int, trunc=INF) -> QSeries:
    """The chain polynomial by a depth-first walk with one series product per
    factor: the library's evaluator before the merged walk replaced it."""
    total = QSeries.zero(trunc)
    for last, g, partial in _depth_first_chains(k, ell, b, trunc, n):
        total = total + partial * QSeries(oracle_binomial(n - last + g, n - last), 1, trunc)
    return total


def oracle_partition_counts(c: PartitionConstraint, size: int) -> list:
    """Filtered product over whole frequency vectors (no DP factorization)."""
    npos = c.part_bound - 1
    counts = [0] * size
    if npos == 0:
        if size > 0:
            counts[0] = 1
        return counts
    ranges = [range(0, (size - 1) // j + 1) for j in range(1, npos + 1)]
    for fvec in itertools.product(*ranges):
        if fvec[0] >= c.first_freq_bound:
            continue
        if fvec[-1] >= c.last_freq_bound:
            continue
        if any(fvec[i] + fvec[i + 1] > c.pair_sum_max for i in range(npos - 1)):
            continue
        w = sum((i + 1) * f for i, f in enumerate(fvec))
        if w < size:
            counts[w] += 1
    return counts


# ---------------------------------------------------------------- chain values


def test_single_level_is_constant_one():
    for b in (0, 1):
        for n in range(31):
            assert ag_polynomial(1, 1, b, n) == QSeries.one()


def test_hand_expanded_value():
    # k=2, ell=1, b=1, n=1: the chain (0,) has g_1 = -1 (dead) and the
    # chain (1,) contributes q^1 * binom(1,0) = q.
    assert ag_polynomial(2, 1, 1, 1) == QSeries.monomial(1, 1)


def test_top_value_zero():
    for k in (1, 2, 3, 4):
        for ell in range(1, k + 1):
            assert ag_polynomial(k, ell, 0, 0) == QSeries.one()
            expected = QSeries.one() if ell == k else QSeries.zero()
            assert ag_polynomial(k, ell, 1, 0) == expected


def test_matches_bruteforce_oracle():
    for k in (2, 3):
        for ell in range(1, k + 1):
            for b in (0, 1):
                for n in range(6):
                    got = ag_polynomial(k, ell, b, n)
                    want = oracle_chain_poly(k, ell, b, n)
                    assert dict((int(e), c) for e, c in got.terms()) == want, (k, ell, b, n)


def test_truncated_matches_full():
    full = ag_polynomial(3, 2, 0, 5)
    cut = ag_polynomial(3, 2, 0, 5, trunc=12)
    assert cut == full.truncate(12)


def test_ag_polynomial_decodes_only_its_own_entry(monkeypatch):
    # Entry n of ag_polynomials, with one decode (and one total check)
    # instead of n + 1.
    want = {trunc: ag_polynomials(3, 2, 0, 6, trunc)[6] for trunc in (INF, 12)}
    decoded = []
    decode = TruncatedRing.decode

    def counting(self, a, low=0):
        decoded.append(a)
        return decode(self, a, low)

    monkeypatch.setattr(TruncatedRing, "decode", counting)
    for trunc, poly in want.items():
        decoded.clear()
        assert ag_polynomial(3, 2, 0, 6, trunc) == poly
        assert len(decoded) == 1
    decoded.clear()
    assert len(ag_polynomials(3, 2, 0, 6)) == 7 and len(decoded) > 1


def test_nonnegative_coefficients_without_linear_weight():
    for k in (2, 3):
        for ell in range(1, k + 1):
            for n in range(11):
                poly = ag_polynomial(k, ell, 0, n)
                assert all(c > 0 for _, c in poly.terms()), (k, ell, n)


def test_parameter_validation():
    with pytest.raises(QSeriesError):
        ag_polynomial(0, 1, 0, 1)
    with pytest.raises(QSeriesError):
        ag_polynomial(2, 3, 0, 1)
    with pytest.raises(QSeriesError):
        ag_polynomial(2, 0, 0, 1)
    with pytest.raises(QSeriesError):
        ag_polynomial(2, 1, 2, 1)
    with pytest.raises(QSeriesError):
        ag_polynomial(2, 1, 0, -1)


# ---------------------------------------------------------------------- sweep


def test_sweep_matches_direct_evaluation():
    # Long chains below a small trunc give inner binomials whose top
    # reaches the trunc, where q-Lucas would no longer hold mod q^trunc.
    for ks, trunc in (((1, 2, 3), 30), ((4, 5), 3), ((4, 5), Fraction(9, 2))):
        for k in ks:
            for ell in range(1, k + 1):
                for b in (0, 1):
                    sweep = ag_polynomials(k, ell, b, 10, trunc)
                    for n, poly in enumerate(sweep):
                        want = reference_polynomial(k, ell, b, n, trunc)
                        assert poly == want, (k, ell, b, trunc, n)


def test_sweep_deep_consistency_spot():
    # Larger n, past the point n = trunc - 1 where the walk's list turns constant.
    trunc = 12
    values = ag_polynomials(2, 1, 0, 25, trunc)
    for n in (15, 20, 25):
        assert values[n] == reference_polynomial(2, 1, 0, n, trunc)


def test_sweep_at_infinite_truncation_is_whole():
    values = ag_polynomials(2, 1, 0, 8, INF)
    for n, poly in enumerate(values):
        assert poly.trunc is INF
        assert poly == reference_polynomial(2, 1, 0, n), n


def test_sweep_shares_equal_consecutive_values():
    values = ag_polynomials(1, 1, 0, 300, 300)
    assert all(poly is values[0] for poly in values) and values[0] == QSeries.one(300)
    values = ag_polynomials(3, 2, 1, 40, 9)
    assert all(poly is values[8] for poly in values[8:])


def test_sweep_at_nonpositive_truncation_is_zero():
    for trunc in (0, Fraction(-1, 2), -3):
        values = ag_polynomials(3, 2, 0, 4, trunc)
        assert all(poly.is_zero() and poly.trunc == trunc for poly in values)


def test_whole_polynomials_prove_their_degree_bound(monkeypatch):
    # (k, ell, b) = (3, 1, 0) reaches the bound D = (k-1) n (n+1) at n = 4,
    # so one slot fewer drops its top term and the coefficient sum catches it.
    assert ag_polynomial(3, 1, 0, 4).degree() == agpolys._degree_bound(3, 0, 4)
    bound = agpolys._degree_bound
    monkeypatch.setattr(agpolys, "_degree_bound", lambda k, b, n: bound(k, b, n) - 1)
    with pytest.raises(QSeriesError, match="degree bound"):
        ag_polynomials(3, 1, 0, 4)
    with pytest.raises(QSeriesError, match="degree bound"):
        verify_ag_relation(3, 1, 0, 4)


# ------------------------------------------------------- the z-series Horner

# (T, end, by_g): terms a z^p with g <= 6 and p <= end <= 8, where a is a
# small polynomial below x^T.
BINOMIAL_SUMS = st.tuples(st.integers(1, 12), st.integers(0, 8)).flatmap(
    lambda t_end: st.tuples(
        st.just(t_end[0]),
        st.just(t_end[1]),
        st.dictionaries(
            st.integers(0, 6),
            st.lists(
                st.tuples(
                    st.integers(0, t_end[1]),
                    st.dictionaries(st.integers(0, t_end[0] - 1), st.integers(-3, 3), max_size=4),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=4,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(BINOMIAL_SUMS)
def test_binomial_sums_gather_the_gaussian_binomials(case):
    # The z^n entry is sum a [n - p + g choose n - p], over Z[x]/(x^T) and at x = 1.
    T, end, by_g = case
    ring = TruncatedRing(T, 2**40)
    packed = {g: [(p, ring.encode(a)) for p, a in group] for g, group in by_g.items()}
    norms = {g: [(p, sum(map(abs, a.values()))) for p, a in group] for g, group in by_g.items()}
    got = ring.binomial_sums(packed, end)
    sizes = L1Bound().binomial_sums(norms, end)
    for n in range(end + 1):
        want, size = QSeries.zero(T), 0
        for g, group in by_g.items():
            for p, a in group:
                binomial = oracle_binomial(n - p + g, n - p)
                want = want + QSeries.from_terms(a.items(), T) * QSeries(binomial, 1, T)
                size += sum(map(abs, a.values())) * sum(binomial.values())
        assert ring.decode(got[n]) == {int(e): c for e, c in want.terms() if c}
        assert sizes[n] == size


@pytest.mark.parametrize("T", [1, 2, 5, 9])
def test_binomial_sums_join_terms_past_the_horizon(T):
    # A term at g >= T joins before the Horner starts, as 1 - z x^g is 1
    # below x^T; the entries still match the dense Pascal oracle.
    ring, end = TruncatedRing(T, 2**40), 6
    by_g = {g: [(g % (end + 1), {g % T: 1 + g % 3})] for g in (T - 1, T, T + 2, 3 * T + 1)}
    by_g[0] = [(1, {0: -2})]
    got = ring.binomial_sums({g: [(p, ring.encode(a)) for p, a in group] for g, group in by_g.items()}, end)
    for n in range(end + 1):
        want: dict = {}
        for g, group in by_g.items():
            for p, a in group:
                for e, c in a.items():
                    for f, d in (oracle_binomial(n - p + g, n - p) if p <= n else {}).items():
                        if e + f < T:
                            want[e + f] = want.get(e + f, 0) + c * d
        assert ring.decode(got[n]) == {e: c for e, c in want.items() if c}, n


def test_walk_takes_no_product_in_any_ring(monkeypatch):
    # Every layer is one z-series Horner per acc: the walk calls no mul in
    # the truncated ring, the cyclic ring or either twin.
    products = []
    for ring in (TruncatedRing, MajorantBound, CyclicRing, L1Bound):
        monkeypatch.setattr(ring, "mul", lambda self, a, b: products.append(type(self)) or a * b)
    for ring in (TruncatedRing(30, 2**60), MajorantBound(30), CyclicRing(7, 2**60), L1Bound(period=7), L1Bound()):
        agpolys._walk(ring, 4, 2, 1, 9)
        agpolys._walk(ring, 3, 1, 0, 12)
    assert products == []


def test_gaussian_binomial_matches_the_pascal_oracle():
    # n reaches 41, as far as the benchmark's binomials do.
    for n in range(42):
        for k in range(-1, n + 2):
            assert gaussian_binomial(n, k) == QSeries(oracle_binomial(n, k), 1, INF), (n, k)


def test_gaussian_binomial_reads_the_rings_horner(monkeypatch):
    def refused(self, by_g, end):
        raise AssertionError("gaussian_binomial took its own loops")

    monkeypatch.setattr(PackedRing, "binomial_sums", refused)
    with pytest.raises(AssertionError, match="its own loops"):
        gaussian_binomial(5, 2)


# ------------------------------------------------------------------ partitions


def test_partition_trivial_cases():
    assert ag_generating(PartitionConstraint(1, 1, 2, 2), 10) == QSeries.zero(10) + QSeries.one(10)
    # part_bound 1: only the empty partition
    assert ag_generating(PartitionConstraint(5, 5, 5, 1), 10) == QSeries.one(10)


def test_partition_first_freq_bound_one_blocks_all_ones():
    # parts in {1}, f_1 < 1: only the empty partition survives
    series = ag_generating(PartitionConstraint(3, 1, 4, 2), 15)
    assert series == QSeries.one(15)


def test_partition_unconstrained_matches_bounded_parts_product():
    # Slack bounds: partitions into parts < 6.
    trunc = 25
    series = ag_generating(PartitionConstraint(10**6, 10**6, 10**6, 6), trunc)
    product = QSeries.one(trunc)
    for j in range(1, 6):
        product = product * QSeries.from_terms([(0, 1), (j, -1)], trunc)
    assert series == product.inverse().truncate(trunc)


def test_partition_matches_bruteforce_oracle():
    # Every pair, first and last bound in 1..3 and part bound in 1..6.
    size = 14
    for bounds in itertools.product(range(1, 4), range(1, 4), range(1, 4), range(1, 7)):
        constraint = PartitionConstraint(*bounds)
        series = ag_generating(constraint, size)
        want = oracle_partition_counts(constraint, size)
        got = [series.coeff(e) for e in range(size)]
        assert got == want, constraint


def test_partition_validation():
    with pytest.raises(QSeriesError):
        PartitionConstraint(0, 1, 1, 1)
    with pytest.raises(QSeriesError):
        PartitionConstraint(1, 1, 1, 0)
    with pytest.raises(QSeriesError):
        ag_generating(PartitionConstraint(1, 1, 1, 2), INF)


# ------------------------------------------------------------------- reversal


def test_reversal_hand_case():
    report = verify_ag_relation(2, 1, 1, 1)
    assert report.ok
    assert report.params == {"k": 2, "ell": 1, "b": 1, "n": 1}


def test_reversal_top_zero():
    assert verify_ag_relation(2, 1, 0, 0).ok
    assert verify_ag_relation(3, 2, 0, 0).ok


def test_reversal_small_sweep():
    for k in (2, 3):
        for ell in range(1, k + 1):
            for b in (0, 1):
                for n in range(5):
                    if b == 1 and n == 0:
                        continue
                    assert verify_ag_relation(k, ell, b, n).ok, (k, ell, b, n)


def test_reversal_rejects_degenerate_corners():
    with pytest.raises(QSeriesError):
        verify_ag_relation(1, 1, 0, 3)
    with pytest.raises(QSeriesError):
        verify_ag_relation(2, 1, 1, 0)


def test_reversal_degree_matches_shift():
    # The reversal exponent equals the polynomial degree whenever the
    # polynomial is nonzero (so no negative exponents appear on the left).
    for k in (2, 3):
        for n in range(1, 5):
            poly = ag_polynomial(k, 1, 0, n)
            assert poly.degree() == Fraction((k - 1) * n * (n + 1))
