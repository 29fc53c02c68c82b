"""Root-of-unity values against oracles built from exact polynomials.

The library sums ``kz_root_value``, ``u_root_value`` and
``quantum_value`` in the group ring Z[x]/(x^N - 1).  The oracles here
build every chain polynomial, Gaussian binomial and Pochhammer as an
exact q-series, evaluate each with ``root_of_unity_value`` and multiply
the factors as cyclotomic numbers.
"""

import functools
import importlib
import inspect
import itertools
import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    galois,
    lift,
    oracle_binomial,
    root_of_unity_value,
    sigma_at_root,
    sigma_star_at_root,
    strange_value,
    torus_jones_at_root,
)

import qmaass.families as families
import qmaass.maass as maass
from qmaass.agpolys import _walk, ag_polynomial, ag_polynomials
from qmaass.bailey import LIMIT_WEIGHTS, unit_pair
from qmaass.cyclotomic import (
    MAX_ROOT_ORDER,
    CycNumber,
    CyclicRing,
    check_root_order,
    root_sums,
)
from qmaass.families import (
    FAMILIES,
    family_series,
    kz_root_value,
    negative_part_series,
    u_root_value,
    verify_kz_duality,
)
from qmaass.maass import MaassCoeffTable, quantum_value
from qmaass.series import (
    L1Bound,
    MajorantBound,
    PackedRing,
    QSeries,
    QSeriesError,
    TruncatedRing,
    int_slots,
    pochhammer,
)
from qmaass.theta import family_params

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
        return QSeries(oracle_binomial(*args))
    if kind == "poch":
        # (q;q)_n has degree n(n+1)/2, so this trunc keeps every term.
        (n,) = args
        return pochhammer("q", n, n * (n + 1) // 2 + 1)
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
    fam = FAMILIES[j]
    w = (fam.power * x) % 1
    N, num = w.denominator, w.numerator
    s, first, power = LIMIT_WEIGHTS[fam.identity]
    prefix = CycNumber.from_rational(N, fam.sum_scale)
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kz_root_value_is_the_torus_knot_jones_value(k):
    # At ell = 1 the chain sum is the coloured Jones polynomial of the
    # (2, 2k + 1) torus knot at q = zeta_N, here from Morton's formula,
    # which shares no code with the chain walk.  (At ell = 2 it is not,
    # and nothing is claimed there.)
    for N in range(1, 31):
        chain = lift(kz_root_value(k, 1, N), 4 * N)
        knot = torus_jones_at_root(2, 2 * k + 1, N)
        assert knot == chain, N
        assert knot + 1 != chain and knot != chain + 1, N


# The twelve (k, ell, N) at which the a <-> b swap of the strange identity
# still gives the KZ value; every one has N even.
STRANGE_SWAP_MATCHES = {(1, 1, 2), (2, 1, 2), (2, 2, 4), (3, 1, 2), (3, 2, 4), (3, 3, 2),
                        (3, 3, 6), (4, 1, 2), (4, 2, 4), (4, 3, 2), (4, 3, 6), (4, 4, 8)}


def test_kz_root_value_is_the_strange_identity_l_value():
    # Hikami's strange identity at every ell <= k <= 4 and N <= 20, an
    # oracle at every ell where Morton's formula covers only ell = 1.  A
    # perturbed value fails everywhere; the swapped character fails at
    # every odd N and in 188 of the 200 cases.
    swap_matches = set()
    for k in range(1, 5):
        for ell in range(1, k + 1):
            for N in range(1, 21):
                chain = lift(kz_root_value(k, ell, N), 2 * (8 * k + 4) * N)
                value = strange_value(k, ell, N)
                assert value == chain, (k, ell, N)
                assert value + 1 != chain, (k, ell, N)
                if strange_value(k, ell, N, swap=True) == chain:
                    swap_matches.add((k, ell, N))
    assert swap_matches == STRANGE_SWAP_MATCHES


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


def test_kz_root_value_takes_no_binomial_table(monkeypatch):
    # Each level is one pass of the z-series Horner: no binomial table and
    # no product.
    want = kz_oracle(3, 2, 12)

    def refuse(self, a, b):
        raise AssertionError("kz_root_value took a product")

    assert not hasattr(PackedRing, "binomial")
    for ring in (CyclicRing, L1Bound):
        monkeypatch.setattr(ring, "mul", refuse)
    assert _same(kz_root_value(3, 2, 12), want)


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


# ------------------------------------------------ the merged chain walk

def _pascal(ring):
    """[m choose i] by the q-Pascal rule alone, for any m: the exact
    polynomial in the ring, where q-Lucas holds only mod Phi_N."""

    @functools.lru_cache(maxsize=None)
    def binomial(m: int, i: int):
        if not 0 <= i <= m:
            return 0
        return 1 if i in (0, m) else binomial(m - 1, i - 1) + ring.rot(binomial(m - 1, i), i)

    return binomial


def _chain_by_chain(ring, k: int, ell: int, b: int, n_max: int) -> list:
    """The chain polynomials in the ring, one chain at a time, with no layer
    stop and no cut, every factor an exact q-Pascal binomial."""
    binomial = _pascal(ring)
    out = [0] * (n_max + 1)
    for chain in itertools.combinations_with_replacement(range(n_max + 1), k - 1):
        partial, prev, acc = 1, 0, 0
        for j, v in enumerate(chain + (None,)):
            g = acc - b * j
            if g < 0:
                break
            if v is None:  # the last factor, for every top value n
                for n in range(prev, n_max + 1):
                    out[n] += ring.mul(partial, binomial(n - prev + g, n - prev))
                break
            factor = ring.rot(binomial(v - prev + g, v - prev), v * v + (1 - b) * v)
            partial, prev = ring.mul(partial, factor), v
            acc += 2 * v + (1 if j + 1 < ell else 0)
    return out


# n_max is capped per k so that the reference walks at most ~2,000 chains.
# The truncations, integer or not, put n_max past the walk's cut at
# n = ceil(trunc) - 1 in most cases.
WALK_CASES = st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.just(k),
    st.integers(1, k),
    st.sampled_from([0, 1]),
    st.integers(1, 24),
    st.integers(0, (24, 24, 24, 16, 9)[k - 1]),
    st.builds(operator.sub, st.integers(1, 30), st.sampled_from([0, Fraction(1, 2), Fraction(2, 3)])),
))


@settings(max_examples=60, deadline=None)
@given(WALK_CASES)
def test_merged_walk_matches_chain_by_chain(case):
    k, ell, b, N, n_max, trunc = case
    # At a root the walk's values agree at zeta_N (1 - z^N stands for a
    # whole period of factors there), and its L1 twin bounds each of them.
    expected = root_sums(N, lambda ring: _chain_by_chain(ring, k, ell, b, n_max))
    sizes = _walk(L1Bound(period=N), k, ell, b, n_max)
    ring = CyclicRing(N, max(sizes, default=0) + 1)
    got = [ring.decode(a) for a in _walk(ring, k, ell, b, n_max)]
    assert [CycNumber.from_powers(N, m) for m in got] == [CycNumber.from_powers(N, m) for m in expected]
    assert all(sum(map(abs, m.values())) <= size for m, size in zip(got, sizes))
    # Over the truncated ring the walk adds its layer stop and its cut.
    T = int_slots(trunc)
    twin = MajorantBound(T)
    ring = TruncatedRing(T, twin.bound(_chain_by_chain(twin, k, ell, b, n_max)))
    expected = [ring.decode(a) for a in _chain_by_chain(ring, k, ell, b, n_max)]
    got = ag_polynomials(k, ell, b, n_max, trunc)
    assert [{int(e): c for e, c in poly.terms()} for poly in got] == expected
    assert all(poly.trunc == trunc for poly in got)
    # With no horizon the L1 walk is each polynomial at q = 1, as the
    # coefficient-sum guard of whole polynomials reads it.
    whole = L1Bound()
    assert _walk(whole, k, ell, b, n_max) == _chain_by_chain(whole, k, ell, b, n_max)


def _walk_at_root(monkeypatch, k: int, ell: int, b: int, N: int, n_max: int) -> tuple:
    """The walk's values at n_max over CyclicRing(N) as CycNumbers, and the
    largest g its binomial_sums passes read."""
    gs = []
    sums = PackedRing.binomial_sums
    monkeypatch.setattr(PackedRing, "binomial_sums", lambda ring, by_g, end: gs.extend(by_g) or sums(ring, by_g, end))
    ring = CyclicRing(N, max(_walk(L1Bound(period=N), k, ell, b, n_max)) + 1)
    got = [CycNumber.from_powers(N, ring.decode(a)) for a in _walk(ring, k, ell, b, n_max)]
    return got, max(gs)


@pytest.mark.parametrize("k, ell, b, N", [(3, 3, 0, 2), (4, 2, 0, 1), (3, 2, 1, 4), (3, 3, 1, 5)])
def test_merged_walk_steps_a_whole_period_from_zero(monkeypatch, k, ell, b, N):
    # At n_max = N the states merge (every g stays below k + N), and a chain
    # still steps from n_j = 0 to N, s = N: that state keeps its exact acc,
    # below k.  Keying every acc mod N fails each case.
    expected = root_sums(N, lambda ring: _chain_by_chain(ring, k, ell, b, N))
    got, top_g = _walk_at_root(monkeypatch, k, ell, b, N, N)
    assert got == [CycNumber.from_powers(N, m) for m in expected]
    assert top_g < k + N


@pytest.mark.parametrize("k, ell, b, N", [(3, 3, 0, 3), (4, 4, 0, 5), (4, 2, 1, 3), (3, 2, 1, 2)])
def test_walk_past_the_period_does_not_merge(monkeypatch, k, ell, b, N):
    # At n_max = N + 1 a step from n_j = 1 reaches s = N, where
    # [N + g choose N] = 1 + floor(g/N) reads more of g than g mod N: the walk
    # keeps every acc (some g reaches k + N).  Merging here fails each case.
    expected = root_sums(N, lambda ring: _chain_by_chain(ring, k, ell, b, N + 1))
    got, top_g = _walk_at_root(monkeypatch, k, ell, b, N, N + 1)
    assert got == [CycNumber.from_powers(N, m) for m in expected]
    assert top_g >= k + N


@pytest.mark.parametrize("call", [
    lambda: quantum_value(1, 3, 1, Fraction(1, 16)),
    lambda: quantum_value(2, 2, 2, Fraction(2, 9)),
    lambda: quantum_value(4, 3, 2, Fraction(1, 7)),
    lambda: u_root_value(3, 1, 16),
    lambda: u_root_value(2, 2, 9),
], ids=["qv1", "qv2", "qv4", "u3", "u2"])
def test_root_values_take_one_twin_pass_and_decode_only_the_sum(monkeypatch, call):
    # One walk over the L1 twin sizes both rings, one walk over the walk's
    # ring gives the chain values, and each distinct one moves to the sum's
    # ring digit by digit: no map round trip, one decode, of the sum.
    want = call()
    walks, decoded, encoded, taken = [], [], [], []
    for module in (families, maass):
        def logged(ring, *args, walk=module._walk):
            walks.append((ring, walk(ring, *args)))
            return walks[-1][1]
        monkeypatch.setattr(module, "_walk", logged)
    for log, name in ((decoded, "decode"), (encoded, "encode"), (taken, "take")):
        method = getattr(PackedRing, name)
        monkeypatch.setattr(PackedRing, name, lambda ring, *a, log=log, method=method: log.append(ring) or method(ring, *a))
    assert call() == want
    assert [type(ring).__name__ for ring, _ in walks] == ["L1Bound", "CyclicRing"]
    walk_ring, chains = walks[1]
    assert len(decoded) == 1 and type(decoded[0]) is CyclicRing and decoded[0] is not walk_ring
    assert decoded[0].width >= walk_ring.width
    assert encoded == [] and taken == [decoded[0]] * len(set(chains))


# Every integer argument of the API, by "module.function": valid arguments,
# and for each integer parameter one int outside its range (None where
# every int is valid).  Each must refuse True, 2.5, "3" and that int with
# QSeriesError; tests/test_api_surface.py checks that every public
# parameter annotated int is listed here.
_J_K_ELL = {"j": 5, "k": 0, "ell": 2}
INT_ARGUMENTS = {
    "agpolys.PartitionConstraint": ((1, 1, 1, 2), dict.fromkeys(
        ("pair_sum_max", "first_freq_bound", "last_freq_bound", "part_bound"), 0)),
    "agpolys.ag_polynomial": ((2, 1, 0, 3), {"k": 0, "ell": 3, "b": 2, "n": -1}),
    "agpolys.ag_polynomials": ((2, 1, 0, 3), {"k": 0, "ell": 3, "b": 2, "n_max": -1}),
    "agpolys.verify_ag_relation": ((2, 1, 0, 3), {"k": 0, "ell": 3, "b": 2, "n": -1}),
    "bailey.BaileyPair": (("q", abs, len, "", 0), {"settle": -1}),
    "bailey.pair_relative_one": ((2, 1), {"k": 0, "ell": 3}),
    "bailey.pair_relative_q": ((2, 1), {"k": 0, "ell": 3}),
    "bailey.relation_sums": ((unit_pair("q"), 2, 10), {"n_max": -1}),
    "bailey.verify_pair": ((unit_pair("q"), 2, 10), {"n_max": -1}),
    "cyclotomic.check_root_order": ((5,), {"N": 0}),
    "families.family_series": ((1, 1, 1, 10), _J_K_ELL),
    "families.kz_root_value": ((1, 1, 5), {"k": 0, "ell": 2, "N": MAX_ROOT_ORDER + 1}),
    "families.negative_part_series": ((4, 1, 10), {"M": 1, "ell": 0}),
    "families.sigma_coefficients": ((5,), {"n_max": -1}),
    "families.sigma_star_coefficients": ((5,), {"n_max": -1}),
    "families.u_root_value": ((1, 1, 5), {"k": 0, "ell": 2, "N": 0}),
    "families.verify_kz_duality": ((1, 1, 5), {"k": 0, "ell": 2, "N": -5}),
    "maass.MaassCoeffTable": ((24,), {"scale": 0}),
    "maass.cohen_table": ((30,), {"n_max": 0}),
    "maass.cohen_transform_residual": ((1j, 100), {"n_cut": 0}),
    "maass.eval_waveform": ((MaassCoeffTable(24, {1: 1, 25: -1}), 1j, 25), {"n_cut": -1}),
    "maass.quantum_value": ((1, 1, 1, Fraction(1, 5)), _J_K_ELL),
    "maass.radial_limit_check": ((1, 1, 1, Fraction(1, 5)), _J_K_ELL),
    "series.gaussian_binomial": ((5, 2), {"n": None, "k": None}),
    "series.inverse_pochhammer": (("q", 3, 10), {"n": -1}),
    "series.pochhammer": (("q", 3, 10), {"n": -1}),
    "theta.QuadForm": ((2,), {"M": 1}),
    "theta.ThetaParams": ((5, (Fraction(1, 6), 0), (0, 0)), {"M": 1}),
    "theta.completion_defect": ((family_params(1, 1, 1).params, 1j, 10), {"lattice_cut": 0}),
    "theta.family_params": ((1, 1, 1), _J_K_ELL),
    "theta.validate_family_params": ((1, 1, 1), _J_K_ELL),
    "theta.verify_family_lattice": ((1, 1, 1, 10), _J_K_ELL),
    "theta.verify_theta_embedding": ((1, 1, 1, 10), _J_K_ELL),
    "theta.waveform_numeric": ((family_params(1, 1, 1).params, 1j, 12), {"lattice_cut": 0}),
}


def _int_call(name: str, param: str = "", value=None):
    """The call of ``name`` on its INT_ARGUMENTS arguments, with ``param``
    replaced by ``value`` when given."""
    module, qualname = name.split(".")
    func = getattr(importlib.import_module(f"qmaass.{module}"), qualname)
    bound = inspect.signature(func).bind(*INT_ARGUMENTS[name][0])
    if param:
        bound.arguments[param] = value
    return lambda: func(*bound.args, **bound.kwargs)


@pytest.mark.parametrize("name", sorted(INT_ARGUMENTS))
def test_the_integer_argument_table_calls_are_valid(name):
    # So each refusal below is the replaced argument's.
    _int_call(name)()


@pytest.mark.parametrize("call", [
    lambda: check_root_order(True),
    lambda: verify_kz_duality(True, True, True),
    lambda: kz_root_value(1, 1, True),
    lambda: u_root_value(True, 1, 5),
    lambda: quantum_value(True, 1, 1, Fraction(1, 5)),
    lambda: quantum_value(1, True, 1, Fraction(1, 5)),
    lambda: quantum_value(1, 1, True, Fraction(1, 5)),
    lambda: family_series(1, 1, True, 10),
    lambda: ag_polynomial(True, 1, 0, 3),
    lambda: ag_polynomial(2, True, 0, 3),
    lambda: ag_polynomial(2, 1, False, 3),
    lambda: ag_polynomial(2, 1, 0, True),
    lambda: negative_part_series(4, True, 10),
    *(pytest.param(_int_call(name, param, value), id=f"{name}.{param}={value!r}")
      for name, (_, params) in INT_ARGUMENTS.items()
      for param, out_of_range in params.items()
      for value in (True, 2.5, "3", out_of_range) if value is not None),
])
def test_root_and_chain_validators_refuse_bools(call):
    # A bool is an int subclass but no order, family index or chain
    # parameter: refused, not reported as "N": true.  Every integer
    # argument refuses a bool, a float, a string and an int out of range
    # the same way, with QSeriesError.
    with pytest.raises(QSeriesError):
        call()


@pytest.mark.parametrize("ell", range(1, 7))
def test_duality_at_k6_order_24(ell):
    assert verify_kz_duality(6, ell, 24).ok


def test_long_chains_at_high_order_are_fast():
    start = time.perf_counter()
    u_root_value(6, 1, 24)
    quantum_value(1, 5, 1, Fraction(1, 29))
    assert time.perf_counter() - start < 4.0  # about 0.16 s on 2 CPUs


# ---------------------------------------------- Habiro-ring properties
#
# The families lie in the Habiro ring (Habiro, Invent. Math. 171, 2008), so
# their values at roots of unity are Galois equivariant and congruent
# along prime-power steps.  quantum_value(j, k, ell, x) is F_j at
# q = e(w), w = d x mod 1, d the family power.


def _units(m: int) -> list:
    """The fractions a/m in [0, 1) with a a unit mod m."""
    return [Fraction(a, m) for a in range(m) if math.gcd(a, m) == 1]


def _integral(x: CycNumber) -> bool:
    return all(Fraction(c).denominator == 1 for c in x.vec)


@pytest.mark.parametrize("N", [6, 9, 16, 25, 30])
@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (3, 2)])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_quantum_values_are_galois_equivariant(j, k, ell, N):
    # F(zeta^b) = sigma_b F(zeta): the value at a/N is sigma_b of the value
    # at 1/N, b = num(w_a) num(w_1)^-1 mod den(w).
    d = FAMILIES[j].power
    w1 = d * Fraction(1, N) % 1
    base = quantum_value(j, k, ell, Fraction(1, N)).value
    moved = 0
    for x in _units(N)[1:]:
        w = d * x % 1
        b = w.numerator * pow(w1.numerator, -1, w.denominator) % w.denominator
        got = quantum_value(j, k, ell, x).value
        assert _same(got, galois(base, b)), x
        moved += got != base
    assert moved  # some conjugate differs from the value at 1/N


@functools.lru_cache(maxsize=None)
def _family_at(j: int, k: int, ell: int, w: Fraction) -> CycNumber:
    """F_j(e(w)) for the chain (k, ell), read from quantum_value."""
    return quantum_value(j, k, ell, w / FAMILIES[j].power).value


@functools.lru_cache(maxsize=None)
def _over_one_minus(eps: Fraction, L: int) -> CycNumber:
    """1 / (1 - e(eps)) in Q(zeta_L)."""
    return lift(1 - CycNumber.zeta(eps.denominator, eps.numerator), L).inverse()


@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_quantum_values_satisfy_the_habiro_congruences(j, k, ell):
    # F(zeta eps) = F(zeta) mod (1 - eps) in Z[zeta eps] for eps of prime-
    # power order: (F(zeta eps) - F(zeta)) / (1 - eps) has integer
    # coordinates in the power basis of Q(zeta_L), L the lcm of the orders.
    # 1 / (1 - eps) itself is not integral, so adding 1 to the difference
    # must break it.
    cases = 0
    for m in (1, 2, 3, 4):
        for zeta in _units(m):
            for order in (2, 3, 4, 5, 7):
                L = math.lcm(m, order)
                for eps in _units(order):
                    diff = lift(_family_at(j, k, ell, (zeta + eps) % 1), L) - lift(
                        _family_at(j, k, ell, zeta), L
                    )
                    assert _integral(diff * _over_one_minus(eps, L)), (zeta, eps)
                    assert not _integral((diff + 1) * _over_one_minus(eps, L)), (zeta, eps)
                    cases += 1
    assert cases == 90


# ------------------------------------------- the scale-24 quantum identities


def test_sigma_and_sigma_star_agree_at_roots_of_unity():
    # sigma(zeta) = -sigma*(zeta^-1) at every root of unity (Cohen, Invent.
    # Math. 91, 1988), both summed termwise in the oracles.
    for N in range(1, 61):
        left, right = sigma_at_root(N), -sigma_star_at_root(N, -1)
        assert _same(left, right), N


def test_second_and_fourth_families_agree_on_exact_values():
    # quantum_value(2, 1, 1, x) is sigma(e(4x)) / 2 and quantum_value(4, 1,
    # 1, y) is -sigma*(-e(2y)), so at y = -2x - 1/4 the identity
    # sigma(zeta) = -sigma*(zeta^-1) makes the second twice the first; here
    # for every reduced x = a/b in [0, 1) with b <= 32.
    xs = [x for b in range(1, 33) for x in _units(b)]
    assert len(xs) == 324
    for x in xs:
        left = 2 * quantum_value(2, 1, 1, x).value
        right = quantum_value(4, 1, 1, -2 * x - Fraction(1, 4)).value
        L = math.lcm(left.order, right.order)
        assert _same(lift(left, L), lift(right, L)), x
