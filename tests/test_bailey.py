"""Bailey pairs: defining relation, explicit pairs, limit identities."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chain_alpha_by_series,
    decoded_betas,
    limit_identity_by_products,
    over_one_minus,
    weighted_term,
)

import qmaass.agpolys as agpolys
import qmaass.bailey as bailey
from qmaass.agpolys import ag_polynomial
from qmaass.bailey import (
    CHAIN_PAIRS,
    IDENTITY_KINDS,
    RELATIVES,
    BaileyPair,
    pair_relative_one,
    pair_relative_q,
    quadratic_shift,
    relation_sums,
    synthetic_pair,
    unit_pair,
    verify_limiting_identity,
    verify_pair,
)
from qmaass.families import family_series, sigma_series
from qmaass.series import (
    MajorantBound,
    PackedRing,
    QSeries,
    QSeriesError,
    TruncatedRing,
    int_slots,
    inverse_pochhammer,
    pochhammer,
)


def reference_right_side(pair: BaileyPair, n: int, trunc) -> QSeries:
    """The defining-relation right side sum_{m<=n} alpha_m / ((q;q)_{n-m}
    (aq;q)_{n+m}), built from scratch with two series products per
    nonzero alpha_m."""
    t = Fraction(trunc)
    second = "q" if pair.relative == "one" else "q2;q"
    total = QSeries.zero(t)
    for m in range(n + 1):
        term = QSeries(pair.alpha(m, int_slots(t)), 1, t)
        if term.is_zero():
            continue
        term = term * inverse_pochhammer("q", n - m, t)
        term = term * inverse_pochhammer(second, n + m, t)
        total = total + term
    return total.truncate(t)


def beta(pair: BaileyPair, n: int, trunc) -> QSeries:
    """beta_n of the pair: the last of the betas up to n."""
    return decoded_betas(pair, n, trunc)[n]


def _encoded(ring, powers: dict) -> int:
    """The map ``powers`` as a value of ``ring``, below x^T, T =
    ``ring.horizon``, through the gate the checks read alpha through
    (bailey._alpha_maps): off the packed grid it raises QSeriesError."""
    (checked,) = bailey._alpha_maps(lambda n, size: powers, 0, ring.horizon)
    return ring.encode(checked)


def _terms(series: QSeries) -> dict:
    """The {exponent: coefficient} map of a series with integer exponents."""
    return {int(e): c for e, c in series.terms()}


def _term_map(terms) -> dict:
    """The {exponent: coefficient} map of (exponent, coefficient) terms,
    equal exponents added and zero terms dropped."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _witness_pairs() -> list:
    """The chain pairs with k <= 2 and the six synthetic pairs of `qmaass
    verify bailey`."""
    rng = random.Random(7)
    pairs = [CHAIN_PAIRS[rel](k, ell) for rel in RELATIVES for k in (1, 2) for ell in range(1, k + 1)]
    return pairs + [synthetic_pair(rel, rng) for rel in RELATIVES for _ in range(3)]

# ------------------------------------------------------------ quadratic shift


def test_quadratic_shift_values():
    # ((2k+1) nu^2 + (2k-2l+1) nu)/2 at k = l = 1: nu=1 -> 2, nu=-1 -> 1.
    assert quadratic_shift(1, 1, 0) == 0
    assert quadratic_shift(1, 1, 1) == 2
    assert quadratic_shift(1, 1, -1) == 1
    # k=3, l=2, nu=-4: (7*16 + 3*(-4))/2 = (112 - 12)/2 = 50.
    assert quadratic_shift(3, 2, -4) == 50


def test_quadratic_shift_always_integral():
    for k in range(1, 6):
        for ell in range(1, k + 1):
            for nu in range(-8, 9):
                assert isinstance(quadratic_shift(k, ell, nu), int)


# -------------------------------------------------------------- explicit pairs


def test_pair_one_alpha_frozen():
    # Hand expansion at k = l = 1, n = 1:
    # -q(1 - q^2)(-q^{-1} + 1) = (1-q)(1-q^2) = 1 - q - q^2 + q^3.
    pair = pair_relative_one(1, 1)
    assert pair.alpha(1, 10) == {0: 1, 1: -1, 2: -1, 3: 1}
    assert pair.alpha(1, 3) == {0: 1, 1: -1, 2: -1}


def test_pair_q_alpha_frozen():
    # Hand expansion at k = l = 1, n = 1:
    # (1+q+q^2)(q^3 - q^2 - q) = -q - 2q^2 - q^3 + q^5.
    pair = pair_relative_q(1, 1)
    assert pair.alpha(1, 10) == {1: -1, 2: -2, 3: -1, 5: 1}
    assert pair.alpha(1, 5) == {1: -1, 2: -2, 3: -1}


def test_pair_one_vanishing_at_zero():
    pair = pair_relative_one(2, 1)
    assert pair.alpha(0, 10) == {}
    assert beta(pair, 0, 10).is_zero()
    assert decoded_betas(pair, 3, 10)[0].is_zero()


def test_pair_q_at_zero():
    pair = pair_relative_q(2, 1)
    assert pair.alpha(0, 10) == {0: 1}
    assert beta(pair, 0, 10) == QSeries.one(10)


def test_pair_alpha_integer_exponents():
    for maker in (pair_relative_one, pair_relative_q):
        for k in (1, 2, 3):
            for ell in range(1, k + 1):
                pair = maker(k, ell)
                for n in range(5):
                    terms = pair.alpha(n, 50).items()
                    assert all(type(e) is type(c) is int and 0 <= e < 50 and c for e, c in terms)


@pytest.mark.parametrize("relative", RELATIVES)
@pytest.mark.parametrize("trunc", [1, 40, Fraction(79, 2)])
def test_chain_alpha_maps_match_the_series_routes(relative, trunc):
    # The maps read below x^size, size = ceil(trunc), are the series the
    # pairs built before: by QSeries.from_terms for relative 1, and the
    # lattice times QSeries.from_dense([1] * (2n + 1)) for relative q.
    size = int_slots(trunc)
    for k in range(1, 5):
        for ell in range(1, k + 1):
            pair = CHAIN_PAIRS[relative](k, ell)
            for n in range(21):
                got = pair.alpha(n, size)
                assert QSeries(got, 1, trunc) == chain_alpha_by_series(relative, k, ell, n, trunc), (k, ell, n)
                assert all(0 <= e < size and c for e, c in got.items())


def test_pair_parameter_validation():
    with pytest.raises(QSeriesError):
        pair_relative_one(1, 2)
    with pytest.raises(QSeriesError):
        pair_relative_q(0, 0)


@pytest.mark.parametrize("maker", [pair_relative_one, pair_relative_q])
@pytest.mark.parametrize("k, ell", [(True, 1), (1, True), (True, True), (2.0, 1), (2, 1.0)])
def test_chain_pairs_refuse_parameters_that_are_not_ints(maker, k, ell):
    # A bool is an int subclass, but no chain length: it is refused, not
    # labelled chain(k=True, ...).
    with pytest.raises(QSeriesError, match=r"^(k must be a positive integer|ell must be in 1\.\.[12]), got "):
        maker(k, ell)


_PAIR_KINDS = {
    "unit": lambda: unit_pair("q"),
    "chain": lambda: pair_relative_one(2, 1),
    "synthetic": lambda: synthetic_pair("q", random.Random(7)),
}


@pytest.mark.parametrize("kind", sorted(_PAIR_KINDS))
@pytest.mark.parametrize("n_max", [2.0, True, False, -1, "3", None, Fraction(2)])
def test_every_pair_kind_refuses_one_bad_n_max(kind, n_max):
    # verify_pair and relation_sums take n_max as an int >= 0, with one
    # QSeriesError whatever the kind of pair.
    pair = _PAIR_KINDS[kind]()
    for check in (verify_pair, relation_sums):
        with pytest.raises(QSeriesError, match=r"^n_max must be a nonnegative integer, got ") as err:
            check(pair, n_max, 10)
        assert err.type is QSeriesError, check
    assert verify_pair(pair, 2, 10).ok


# ----------------------------------------------------------- defining relation


def test_unit_pair_beta_formula():
    pair = unit_pair("one")
    want = (pochhammer("q", 3, 30) * pochhammer("q", 3, 30)).inverse()
    assert beta(pair, 3, 30) == want.truncate(30)
    pair_q = unit_pair("q")
    want_q = (pochhammer("q", 2, 30) * pochhammer("q2;q", 2, 30)).inverse()
    assert beta(pair_q, 2, 30) == want_q.truncate(30)


@pytest.mark.parametrize("relative", RELATIVES)
@pytest.mark.parametrize("trunc", [5, 40])
def test_unit_pair_beta_matches_inverse_pochhammer_products(relative, trunc):
    # The unit pair's beta as it was built before, the product of two
    # inverse_pochhammer series, is the oracle of its divisions in the
    # caller's ring.
    second = "q" if relative == "one" else "q2;q"
    want = [
        (inverse_pochhammer("q", n, trunc) * inverse_pochhammer(second, n, trunc)).truncate(trunc)
        for n in range(13)
    ]
    assert decoded_betas(unit_pair(relative), 12, trunc) == want


@pytest.mark.parametrize("relative", RELATIVES)
@pytest.mark.parametrize("n, e", [(0, 0), (3, 2), (8, 39)])
def test_unit_pair_with_one_beta_changed_fails_its_check(relative, n, e):
    unit = unit_pair(relative)

    def betas(ring, n_max):
        out = list(unit.betas(ring, n_max))
        out[n] += ring.encode({e: 1})
        return out

    report = verify_pair(BaileyPair(relative, unit.alpha, betas, "changed"), 8, 40).to_json_dict()
    assert report["status"] == "fail"
    assert (report["n"], report["first_mismatch_exponent"]) == (n, str(e))


def test_verify_unit_pairs():
    for relative in ("one", "q"):
        report = verify_pair(unit_pair(relative), 8, 40)
        assert report.ok, report.to_json_dict()


def test_verify_chain_pairs_small():
    for maker in (pair_relative_one, pair_relative_q):
        for k in (1, 2):
            for ell in range(1, k + 1):
                report = verify_pair(maker(k, ell), 6, 40)
                assert report.ok, report.to_json_dict()


def test_verify_pair_negative_control():
    base = pair_relative_q(1, 1)

    def bad_betas(ring, n_max):
        out = list(base.betas(ring, n_max))
        out[1] += ring.encode({1: 1})
        return out

    corrupted = BaileyPair(relative="q", alpha=base.alpha, betas=bad_betas)
    report = verify_pair(corrupted, 4, 30)
    assert not report.ok
    assert report.to_json_dict()["n"] == 1
    assert "first_mismatch_exponent" in report.to_json_dict()


# ---------------------------------------------------------------------- betas


@pytest.mark.parametrize("maker, b", [(pair_relative_one, 1), (pair_relative_q, 0)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("trunc, n_max", [(7, 9), (Fraction(13, 2), 2), (Fraction(9, 2), 8), (12, 12)])
def test_chain_betas_match_one_walk_per_n(maker, b, k, trunc, n_max):
    # One walk to n_max gives what a walk per n gives, also past
    # n = ceil(trunc) - 1, where the chain polynomials stop changing.
    for ell in range(1, k + 1):
        betas = decoded_betas(maker(k, ell), n_max, trunc)
        assert len(betas) == n_max + 1
        assert betas[0] == (QSeries.zero(trunc) if b else ag_polynomial(k, ell, 0, 0, trunc))
        for n in range(1, n_max + 1):
            assert betas[n] == ag_polynomial(k, ell, b, n, trunc), (ell, n)
            assert betas[n].trunc == trunc


@pytest.mark.parametrize("maker", [pair_relative_one, pair_relative_q])
def test_chain_pair_check_takes_one_walk_to_n_max(maker, monkeypatch):
    # verify_pair reads beta_0 .. beta_n_max from one chain walk per ring
    # of its one pass, the majorant twin and the packed ring, each
    # stopping at n_max, not at ceil(trunc) - 1.
    walks = []
    walk = bailey._walk

    def counting(ring, *args):
        walks.append((type(ring), *args))
        return walk(ring, *args)

    monkeypatch.setattr(bailey, "_walk", counting)
    assert verify_pair(maker(3, 2), 8, 400).ok
    assert [(ring.__name__, args[-1]) for ring, *args in walks] == [("MajorantBound", 8), ("TruncatedRing", 8)]


@pytest.mark.parametrize("check", ["verify_pair", *IDENTITY_KINDS])
def test_each_bailey_check_is_one_packed_pass(check, monkeypatch):
    # On a chain or synthetic pair, each check sums beta and its other
    # side in one TruncatedRing.packed pass, and reads no chain polynomial
    # or relation sum as a QSeries.
    passes = []
    packed = PackedRing.packed.__func__

    def counting(cls, size, build):
        passes.append(size)
        return packed(cls, size, build)

    def refused(*args):
        raise AssertionError("a Bailey check read beta as QSeries")

    monkeypatch.setattr(TruncatedRing, "packed", classmethod(counting))
    monkeypatch.setattr(agpolys, "ag_polynomials", refused)
    monkeypatch.setattr(bailey, "ag_polynomials", refused, raising=False)
    monkeypatch.setattr(bailey, "relation_sums", refused)
    for pair in _witness_pairs():
        passes.clear()
        if check == "verify_pair":
            report = verify_pair(pair, 8, Fraction(79, 2))
        else:
            report = verify_limiting_identity(pair, pair.relative, check, Fraction(79, 2))
        assert report.ok and passes == [40], (pair.label, passes)


@pytest.mark.parametrize("n", [1, 2])
def test_corrupted_betas_fail_the_limit_identities(n):
    # The left sides read the pair's betas: one extra term in beta_n shows.
    base = pair_relative_q(2, 1)

    def bad_betas(ring, n_max):
        out = list(base.betas(ring, n_max))
        out[n] += ring.encode({3: 1})
        return out

    corrupted = BaileyPair(relative="q", alpha=base.alpha, betas=bad_betas)
    for kind in ("gauss", "even"):
        assert verify_limiting_identity(base, "q", kind, 30).ok
        assert not verify_limiting_identity(corrupted, "q", kind, 30).ok, kind


@pytest.mark.parametrize("trunc", [1, 2, 3, 4, 5, 6, 620])
def test_averaged_identity_term_budget(trunc):
    # This pair's beta still changes at index ceil(trunc) + 6, past what a
    # top of ceil(trunc) - 1 would read.  Its declared settle 7, the largest
    # index of its support, puts the proven top past that at every trunc.
    pair = synthetic_pair("q", random.Random(3))
    report = verify_limiting_identity(pair, "q", "even", trunc)
    assert report.ok, report.to_json_dict()


def _changed(base: BaileyPair, side: str, n: int, extra) -> BaileyPair:
    """``base`` with the term map extra(size) added to alpha_n or beta_n;
    beta gains it as a ring value (:func:`_encoded`), below x^T, T =
    ``ring.horizon``."""
    alpha, betas = base.alpha, base.betas
    if side == "alpha":
        def alpha(m, size):
            out = base.alpha(m, size)
            return _term_map([*out.items(), *extra(size).items()]) if m == n else out
    else:
        def betas(ring, n_max):
            out = list(base.betas(ring, n_max))
            if n <= n_max:
                out[n] += _encoded(ring, extra(ring.horizon))
            return out
    return BaileyPair(base.relative, alpha, betas, base.label, base.settle)


def _designed_pair(beta_at, settle: int = 0) -> BaileyPair:
    """A relative-q pair with beta_n = beta_at(n, T), T = ``ring.horizon``,
    read in order in each ring, alpha = 0 and the given settle: a test
    input for the proven top and its guard, a Bailey pair only for
    beta = 0."""
    def betas(ring, n_max):
        return [_encoded(ring, _terms(beta_at(n, ring.horizon))) for n in range(n_max + 1)]

    return BaileyPair("q", lambda n, size: {}, betas, "designed", settle)


def _q3(size) -> dict:
    return {3: 1}


def _none(size) -> dict:
    return {}


@pytest.mark.parametrize("trunc", [1, Fraction(7, 2), 40, Fraction(121, 2), Fraction(5, 2), 7])
def test_limit_identities_match_the_reference_route(trunc):
    # The packed sums give the reports of the series-product route in
    # tests/oracles.py, which decodes beta from one ring pass and averages
    # each side on its own: on the chain pairs with k <= 3, the six
    # synthetic pairs of `qmaass verify bailey` and six more per relative.
    rng = random.Random(2029)
    pairs = [CHAIN_PAIRS[rel](k, ell) for rel in RELATIVES for k in (1, 2, 3) for ell in range(1, k + 1)]
    pairs += [synthetic_pair(rel, rng) for rel in RELATIVES for _ in range(6)]
    pairs += _witness_pairs()[-6:]
    for pair in pairs:
        for kind in IDENTITY_KINDS:
            args = (pair, pair.relative, kind, trunc)
            got = verify_limiting_identity(*args).to_json_dict()
            assert got == limit_identity_by_products(*args).to_json_dict(), (pair.label, kind)


@pytest.mark.parametrize("trunc", [1, Fraction(7, 2), 10, 30, 40, Fraction(121, 2), 80])
def test_reading_past_the_proven_top_changes_no_report(trunc):
    # The averaged identity reads beta and alpha to top + 1, top =
    # ceil(trunc) + settle.  The same pair declaring a settle 20 higher
    # reads 20 more of each and gives the same passing report, for every
    # built-in constructor: the sum at the proven top is the limit.
    rng = random.Random(2032)
    pairs = [pair_relative_q(k, ell) for k in range(1, 5) for ell in range(1, k + 1)]
    pairs += [unit_pair("q"), *(synthetic_pair("q", rng) for _ in range(40))]
    for pair in pairs:
        later = BaileyPair(**{**vars(pair), "settle": pair.settle + 20})
        want = verify_limiting_identity(later, "q", "even", trunc)
        assert want.ok, want.to_json_dict()
        assert verify_limiting_identity(pair, "q", "even", trunc) == want, pair.label


@pytest.mark.parametrize("kind", IDENTITY_KINDS)
def test_relative_one_identities_refuse_a_term_at_index_zero(kind):
    # Both relative-1 identities sum from n = 1, so a pair with alpha_0 or
    # beta_0 nonzero tests nothing and is refused, not failed.
    with pytest.raises(QSeriesError, match="alpha_0 = 0"):
        verify_limiting_identity(unit_pair("one"), "one", kind, 20)
    base = CHAIN_PAIRS["one"](2, 1)
    with pytest.raises(QSeriesError, match="alpha_0 = 0"):
        verify_limiting_identity(_changed(base, "alpha", 0, _q3), "one", kind, 20)
    with pytest.raises(QSeriesError, match="beta_0 = 0"):
        verify_limiting_identity(_changed(base, "beta", 0, _q3), "one", kind, 20)
    assert verify_limiting_identity(base, "one", kind, 20).ok
    assert verify_limiting_identity(synthetic_pair("one", random.Random(5)), "one", kind, 20).ok


@pytest.mark.parametrize("relative", RELATIVES)
@pytest.mark.parametrize("kind", IDENTITY_KINDS)
@pytest.mark.parametrize("side, n", [("alpha", 1), ("alpha", 2), ("beta", 1), ("beta", 2)])
def test_corrupted_pairs_fail_every_limit_identity(relative, kind, side, n):
    # One extra term q^3 in alpha_n or beta_n shows on its side of each of
    # the four identities, at the reference route's first mismatch.
    base = CHAIN_PAIRS[relative](2, 1)
    corrupted = _changed(base, side, n, _q3)
    assert verify_limiting_identity(base, relative, kind, 30).ok
    report = verify_limiting_identity(corrupted, relative, kind, 30)
    assert not report.ok
    assert report.to_json_dict() == limit_identity_by_products(corrupted, relative, kind, 30).to_json_dict()


@pytest.mark.parametrize("pair", _witness_pairs(), ids=lambda pair: pair.label)
def test_one_changed_beta_fails_every_check_of_its_pair(pair):
    # Below x^12, both identities of the pair's relative fail when one
    # beta_n they read gains x^e, at the lowest and the highest e that its
    # weight x^power(n) keeps below x^T, and pass when beta_n gains
    # nothing; so does the definition check, naming n and e.
    trunc = 12
    for kind in IDENTITY_KINDS:
        weights = _, first, power = bailey.LIMIT_WEIGHTS[pair.relative, kind]
        top = bailey.limit_top(weights, trunc, pair.settle)
        for n in range(first, top if power else top + 2):
            same = _changed(pair, "beta", n, _none)
            assert verify_limiting_identity(same, pair.relative, kind, trunc).ok, (kind, n)
            for e in {0, trunc - 1 - (power(n) if power else 0)}:
                moved = _changed(pair, "beta", n, lambda size: {e: 1})
                assert not verify_limiting_identity(moved, pair.relative, kind, trunc).ok, (kind, n, e)
    for n in range(7):
        assert verify_pair(_changed(pair, "beta", n, _none), 6, trunc).ok, n
        for e in (0, trunc - 1):
            report = verify_pair(_changed(pair, "beta", n, lambda size: {e: 1}), 6, trunc)
            got = report.to_json_dict()
            assert (got["status"], got["n"], got["first_mismatch_exponent"]) == ("fail", n, str(e))


@pytest.mark.parametrize("edge", [6, 7, 14, 15, 30, 31, 62, 63, 127])
def test_betas_at_the_rings_l1_bound_decode_exactly(edge, monkeypatch):
    # alpha = 0, so every relation sum vanishes, and beta_2 = c q^3 is the
    # one nonzero value: the ring's bound is the twin's bound of that one
    # encoded value, ceil(ceil(|c| rho^3) rho^-9) at T = 10, rho = 3/4.
    # For the last |c| whose bound stays below 2^edge and the first that
    # reaches it, both signs decode exactly, on both sides of each
    # digit-width edge.
    bounds = []
    init = TruncatedRing.__init__

    def recording(self, slots, bound):
        bounds.append(bound)
        init(self, slots, bound)

    monkeypatch.setattr(TruncatedRing, "__init__", recording)
    twin = MajorantBound(10)

    def bound_of(c):
        return twin.bound([twin.encode({3: c})])

    below, first = 0, 2**edge  # bisect: bound_of(below) < 2^edge <= bound_of(first)
    while first - below > 1:
        mid = (below + first) // 2
        below, first = (mid, first) if bound_of(mid) < 2**edge else (below, mid)
    assert 0 < bound_of(below) < 2**edge <= bound_of(first)
    for big in (below, first):
        for c in (big, -big):
            pair = _designed_pair(lambda n, t: QSeries.monomial(c if n == 2 else 0, 3, t))
            bounds.clear()
            zero = QSeries.zero(10)
            assert decoded_betas(pair, 3, 10) == [zero, zero, QSeries.monomial(c, 3, 10), zero]
            got = verify_pair(pair, 3, 10).to_json_dict()
            assert bounds == [bound_of(big)] * 2
            details = [got[key] for key in ("n", "first_mismatch_exponent", "beta_coeff", "definition_coeff")]
            assert details == [2, "3", str(c), "0"], c


@pytest.mark.parametrize("relative", RELATIVES)
@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_one_changed_coefficient_fails_every_check(relative, side, monkeypatch):
    # alpha_2 or beta_2 of a chain pair gains c x^5 below x^12.  The
    # definition check and both limit identities of the pair's relative
    # compare in the ring, with no decode, and each fails for c = 1 and for
    # the largest c whose check still packs the digit width of c = 1, where
    # a changed coefficient comes nearest to 2^(W-2), the edge the packed
    # comparison's proof allows; so does -c.  The reports are those of the
    # decoding routes: the definition check names n = 2 and x^5, and each
    # identity gives the report of the reference route in tests/oracles.py.
    widths = []
    init = TruncatedRing.__init__

    def recording(self, slots, bound):
        init(self, slots, bound)
        widths.append(self.width)

    monkeypatch.setattr(TruncatedRing, "__init__", recording)
    base = CHAIN_PAIRS[relative](2, 1)
    checks = {"definition": lambda pair: verify_pair(pair, 6, 12)}
    for kind in IDENTITY_KINDS:
        checks[kind] = partial(verify_limiting_identity, relative=relative, kind=kind, trunc=12)

    def changed(c) -> BaileyPair:
        return _changed(base, side, 2, lambda size: {5: c})

    def width_of(check, c) -> int:
        widths.clear()
        check(changed(c))
        return widths[-1]

    for name, check in checks.items():
        assert check(base).ok, name
        width = width_of(check, 1)
        largest, above = 1, 2 ** (width + 1)  # bisect: width_of(largest) == width < width_of(above)
        assert width_of(check, above) > width
        while above - largest > 1:
            mid = (largest + above) // 2
            largest, above = (mid, above) if width_of(check, mid) == width else (largest, mid)
        assert largest > 2 ** (width // 2), name
        for c in (1, largest, -largest):
            got = check(changed(c)).to_json_dict()
            assert got["status"] == "fail", (name, c)
            if name == "definition":
                assert (got["n"], got["first_mismatch_exponent"]) == (2, "5"), c
            else:
                want = limit_identity_by_products(changed(c), relative, name, 12).to_json_dict()
                assert got == want, (name, c)


def test_passing_checks_decode_nothing(monkeypatch):
    # A check that passes compares its values in the ring and decodes none
    # of them; a failing one decodes what its report names.
    decoded = []
    decode = PackedRing.decode

    def counting(self, a, low=0):
        decoded.append(a)
        return decode(self, a, low)

    monkeypatch.setattr(PackedRing, "decode", counting)
    for pair in [*_witness_pairs(), unit_pair("one"), unit_pair("q")]:
        assert verify_pair(pair, 8, Fraction(79, 2)).ok, pair.label
        for kind in IDENTITY_KINDS:
            if pair.label != "unit(one)":
                assert verify_limiting_identity(pair, pair.relative, kind, Fraction(79, 2)).ok, pair.label
    assert decoded == []
    changed = _changed(pair_relative_q(2, 1), "beta", 1, _q3)
    assert not verify_pair(changed, 8, 40).ok
    assert len(decoded) == 2
    assert not verify_limiting_identity(changed, "q", "gauss", 40).ok
    assert len(decoded) == 4


def _guard(report) -> tuple:
    """The status of a limit-identity report (or its dict) with the index
    and exponent its guard names, (None, None) where the guard held."""
    out = report if isinstance(report, dict) else report.to_json_dict()
    if "unsettled_n" not in out:
        return out["status"], None, None
    return out["status"], out["unsettled_n"], out["first_mismatch_exponent"]


@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (3, 2)])
def test_beta_corrupted_past_the_averaged_stop_never_passes(k, ell):
    # At trunc 30 the averaged identity reads beta_0 .. beta_31 of a chain
    # pair, top = 30 + settle 0.  One extra q^3 in any of them fails: up to
    # the proven stop T - 1 + settle = 29 it moves the sum, and past it
    # the guard names beta_31 and q^3.  beta_32 is read by no check.
    base = pair_relative_q(k, ell)
    assert verify_limiting_identity(base, "q", "even", 30).ok
    for m in range(33):
        report = verify_limiting_identity(_changed(base, "beta", m, _q3), "q", "even", 30)
        want = ("fail", None, None) if m < 30 else ("fail", 31, "3")
        assert _guard(report) == (want if m < 32 else ("pass", None, None)), m


@pytest.mark.parametrize("settle", [0, 1, 3])
def test_beta_moved_past_the_declared_settle_trips_the_guard(settle):
    # beta = alpha = 0 is a Bailey pair for any settle.  Below x^10 its top
    # is 10 + settle: one extra q^3 at an index up to 9 + settle moves the
    # sum, one in (9 + settle, top + 1] trips the guard, and one past
    # top + 1 is not read.  The synthetic pairs keep their own settle.
    top = 10 + settle
    zero = _designed_pair(lambda n, t: QSeries.zero(t), settle)
    assert verify_limiting_identity(zero, "q", "even", 10).ok
    for m in range(top + 3):
        report = verify_limiting_identity(_changed(zero, "beta", m, _q3), "q", "even", 10)
        want = ("fail", None, None) if m <= 9 + settle else ("fail", top + 1, "3")
        assert _guard(report) == (want if m <= top + 1 else ("pass", None, None)), m
    for pair in (synthetic_pair("q", random.Random(seed)) for seed in range(8)):
        top = 10 + pair.settle
        for m in (top, top + 1):
            report = verify_limiting_identity(_changed(pair, "beta", m, _q3), "q", "even", 10)
            assert _guard(report) == ("fail", top + 1, "3"), (pair.label, m)


@pytest.mark.parametrize("settle", [0, 1, 3])
def test_alpha_moved_past_the_declared_settle_trips_the_guard(settle):
    # beta = alpha = 0 below x^10, top = 10 + settle.  One extra q^3 in
    # alpha_m moves the right side for m < top; at m = top or top + 1,
    # alpha_(top+1) differs from alpha_top and the guard names top + 1;
    # past it alpha is unread.  Where beta moves at top + 1 as well, the
    # beta guard's report is the one returned.
    top = 10 + settle
    zero = _designed_pair(lambda n, t: QSeries.zero(t), settle)
    beta_moved = verify_limiting_identity(_changed(zero, "beta", top + 1, _q3), "q", "even", 10)
    assert _guard(beta_moved) == ("fail", top + 1, "3")
    for m in range(top + 3):
        moved = _changed(zero, "alpha", m, _q3)
        got = verify_limiting_identity(moved, "q", "even", 10).to_json_dict()
        named = got.get("unsettled_alpha_n"), got.get("first_mismatch_exponent")
        if m < top:
            assert (got["status"], named[0]) == ("fail", None), m
        elif m <= top + 1:
            assert (got["status"], named) == ("fail", (top + 1, "3")), m
            assert "unsettled_n" not in got
        else:
            assert got["status"] == "pass", m
        both = _changed(moved, "beta", top + 1, _q3)
        assert verify_limiting_identity(both, "q", "even", 10) == beta_moved, m


@pytest.mark.parametrize("relative", RELATIVES)
@pytest.mark.parametrize("side", ["alpha", "beta"])
@pytest.mark.parametrize(
    "exponent, coeff", [(-1, 1), (Fraction(1, 2), 1), (Fraction(-3, 2), 2), (2, Fraction(1, 2))]
)
def test_limit_identities_refuse_terms_off_the_packed_grid(relative, side, exponent, coeff):
    # Both sides are summed in Z[x]/(x^T): an alpha with a negative or
    # fractional exponent, or a coefficient that is not an int, is refused.
    # Such a beta cannot be a ring value; the corrupted pair meets the same
    # refusal when it encodes its term (_encoded), inside the check's pass.
    base = CHAIN_PAIRS[relative](2, 1)
    corrupted = _changed(base, side, 1, lambda size: {exponent: coeff})
    for kind in IDENTITY_KINDS:
        with pytest.raises(QSeriesError) as err:
            verify_limiting_identity(corrupted, relative, kind, 30)
        assert err.type is QSeriesError, kind


@pytest.mark.parametrize("relative", RELATIVES)
def test_limit_identities_read_the_rings_horner(relative, monkeypatch):
    def refused(self, terms, s=1, reps=1):
        raise AssertionError("the limit identity took its own loops")

    monkeypatch.setattr(PackedRing, "pochhammer_sum", refused)
    for kind in IDENTITY_KINDS:
        with pytest.raises(AssertionError, match="its own loops"):
            verify_limiting_identity(CHAIN_PAIRS[relative](1, 1), relative, kind, 30)


@pytest.mark.parametrize("relative", RELATIVES)
def test_limit_identities_take_no_product_past_the_sweep(relative, monkeypatch):
    # A synthetic pair's betas come from its relation sweep and a chain
    # pair's from the chain walk, both in packed rings, and the alphas are
    # int maps: neither they nor the sums themselves take a series product.
    synthetic = synthetic_pair(relative, random.Random(11))
    chain = CHAIN_PAIRS[relative](2, 1)
    products = []
    mul = QSeries.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    for kind in IDENTITY_KINDS:
        products.clear()
        assert verify_limiting_identity(chain, relative, kind, 40).ok
        assert products == [], kind
        assert verify_limiting_identity(synthetic, relative, kind, 40).ok
        assert products == [], kind


# ------------------------------------------------ proven top and its guard
#
# The even identity for relative q has no decaying weight: its sum is the
# even/odd average of the partial sums at the proven top ceil(trunc) +
# settle, and beta_(top+1) must equal beta_top.  These designed inputs,
# with the settle each beta keeps, test that top and that guard against
# the reference route, which averages at the same top.


def _balanced(n: int, t) -> QSeries:
    """beta_n with every averaged increment 0: beta_n = 0 for even n, and
    beta_(2m+1) = (-1)^m / prod_(j=1..m) (1 - q^(4j)) (1 - q^(4j+2)), so
    that beta_(2m-1) = -(1 - q^(4m)) (1 - q^(4m+2)) beta_(2m+1)."""
    if n % 2 == 0:
        return QSeries.zero(t)
    out = QSeries.one(t)
    for j in range(1, n // 2 + 1):
        out = over_one_minus(over_one_minus(out, 4 * j), 4 * j + 2)
    return out.scale((-1) ** (n // 2))


def _read_and_outcome(check, beta_at, trunc, settle):
    """The report of ``check`` on the designed pair of ``beta_at`` and
    ``settle``, as a dict, and the indices of the betas it read, in order,
    in each ring of its one pass (the majorant twin, then the packed ring)."""
    read = []

    def counted(n, t):
        read.append(n)
        return beta_at(n, t)

    return check(_designed_pair(counted, settle), "q", "even", trunc).to_json_dict(), read


@pytest.mark.parametrize("trunc", [10, 40, Fraction(61, 3)])
@pytest.mark.parametrize(
    "beta_at, settle",
    [
        (lambda n, t: QSeries.monomial(1, n, t), 1),  # zero below x^T from n = T on
        (lambda n, t: QSeries.one(t), 0),  # sum of (-1)^n (q^2;q^2)_n
        (lambda n, t: QSeries.monomial(n * n if n < 9 else 81, 2, t), 9),  # moves, then settles
        (lambda n, t: QSeries.monomial(int(n >= 8), 2, t), 8),  # still, then one move
        (_balanced, 0),  # every increment vanishes, but beta never settles
    ],
    ids=["geometric", "constant", "settling", "late", "balanced"],
)
def test_averaged_stop_settles_as_the_reference_route(trunc, beta_at, settle):
    # The check reads beta_0 .. beta_(top+1), once per ring, in order.  A beta
    # that keeps its settle gives the reference route's report (alpha = 0,
    # so a nonzero left side fails); the balanced beta, whose averages are
    # all equal, still moves at top + 1, and the guard names it.
    top = math.ceil(trunc) + settle
    got, read = _read_and_outcome(verify_limiting_identity, beta_at, trunc, settle)
    assert read == list(range(top + 2)) * 2
    if beta_at is _balanced:
        assert _guard(got) == ("fail", top + 1, "0")
    else:
        assert got == _read_and_outcome(limit_identity_by_products, beta_at, trunc, settle)[0]


@pytest.mark.parametrize("trunc, exponent", [(10, 0), (10, 3), (Fraction(61, 3), 7)])
def test_averaged_stop_diverges_with_the_first_unstable_exponent(trunc, exponent):
    # beta_n = n^2 q^e never settles: whatever settle it declares, the
    # check reads beta_0 .. beta_(top+1), once per ring, and the guard
    # names top + 1 and q^e.
    for settle in (0, 5):
        got, read = _read_and_outcome(
            verify_limiting_identity, lambda n, t: QSeries.monomial(n * n, exponent, t), trunc, settle)
        top = math.ceil(trunc) + settle
        assert read == list(range(top + 2)) * 2
        assert _guard(got) == ("fail", top + 1, str(exponent))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.dictionaries(st.integers(0, 24), st.integers(-9, 9).filter(bool), max_size=4),
            st.integers(1, 7),
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([1, 2, 5, Fraction(13, 2), 12, 25]),
    st.integers(0, 12),
)
def test_averaged_stop_matches_the_reference_on_random_betas(runs, trunc, settle):
    # beta_n runs through the drawn polynomials, each repeated its drawn
    # number of times, then stays at the last; the drawn settle may or may
    # not hold.  Where beta_(top+1) = beta_top the check gives the
    # reference route's report at the same top; elsewhere the guard names
    # top + 1 and the first exponent that moved.
    polys = [poly for poly, times in runs for _ in range(times)]

    def beta_at(n, t):
        return QSeries(polys[min(n, len(polys) - 1)], 1, t)

    top = math.ceil(trunc) + settle
    got, read = _read_and_outcome(verify_limiting_identity, beta_at, trunc, settle)
    assert read == list(range(top + 2)) * 2
    moved = beta_at(top + 1, trunc).first_mismatch(beta_at(top, trunc))
    if moved is None:
        assert got == _read_and_outcome(limit_identity_by_products, beta_at, trunc, settle)[0]
    else:
        assert _guard(got) == ("fail", top + 1, str(moved))


# ------------------------------------------------------------ limit identities


def test_limit_identities_chain_pairs():
    for k in (1, 2):
        for ell in range(1, k + 1):
            pair1 = pair_relative_one(k, ell)
            pairq = pair_relative_q(k, ell)
            for kind in ("gauss", "even"):
                r1 = verify_limiting_identity(pair1, "one", kind, 30)
                assert r1.ok, r1.to_json_dict()
                rq = verify_limiting_identity(pairq, "q", kind, 30)
                assert rq.ok, rq.to_json_dict()


def test_limit_identity_relative_mismatch():
    pair = pair_relative_one(1, 1)
    with pytest.raises(QSeriesError):
        verify_limiting_identity(pair, "q", "gauss", 20)
    with pytest.raises(QSeriesError):
        verify_limiting_identity(pair, "one", "triangular", 20)
    with pytest.raises(QSeriesError):
        verify_limiting_identity(pair, "unit", "gauss", 20)


def test_limit_identities_fixed_synthetic():
    rng = random.Random(7)
    pair_one = synthetic_pair("one", rng)
    pair_q = synthetic_pair("q", rng)
    for kind in ("gauss", "even"):
        assert verify_limiting_identity(pair_one, "one", kind, 40).ok
        assert verify_limiting_identity(pair_q, "q", kind, 40).ok


def test_limit_identities_random_sweep():
    rng = random.Random(20260823)
    for trial in range(10):
        for relative in ("one", "q"):
            pair = synthetic_pair(relative, rng)
            assert verify_pair(pair, 6, 30).ok, pair.label
            for kind in ("gauss", "even"):
                report = verify_limiting_identity(pair, relative, kind, 30)
                assert report.ok, (pair.label, kind, report.to_json_dict())


def test_synthetic_relative_one_support_excludes_zero():
    rng = random.Random(5)
    for _ in range(20):
        pair = synthetic_pair("one", rng)
        assert pair.alpha(0, 10) == {}
        assert beta(pair, 0, 10).is_zero()


@pytest.mark.parametrize("relative", ["one", "q"])
def test_each_check_reads_each_alpha_once(relative):
    # Each check builds the alpha maps it reads once, up front, and
    # encodes the same maps in both rings of its pass: alpha_0 ..
    # alpha_n_max for the relation sweep, alpha_0 .. alpha_end for a limit
    # identity (which refuses the unit pair relative 1: summed from n = 1,
    # the identities need alpha_0 = 0).
    pairs = CHAIN_PAIRS[relative](2, 1), unit_pair(relative), synthetic_pair(relative, random.Random(3))
    for pair in pairs:
        read = []

        def alpha(m, size, pair=pair):
            read.append(m)
            return pair.alpha(m, size)

        counted = BaileyPair(**{**vars(pair), "alpha": alpha})
        assert verify_pair(counted, 7, 20).ok
        assert read == list(range(8)), pair.label
        for kind in IDENTITY_KINDS:
            _, _, power = weights = bailey.LIMIT_WEIGHTS[relative, kind]
            top = bailey.limit_top(weights, 20, pair.settle)
            read.clear()
            if pair.label == "unit(one)":
                with pytest.raises(QSeriesError, match="alpha_0"):
                    verify_limiting_identity(counted, relative, kind, 20)
            else:
                verify_limiting_identity(counted, relative, kind, 20)
            assert read == list(range(top if power else top + 2)), (pair.label, kind)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(bailey.LIMIT_WEIGHTS)),
    st.integers(0, 9),
    st.dictionaries(st.integers(-6, 60), st.integers(-50, 50).filter(bool), max_size=30),
    st.sampled_from([Fraction(60), Fraction(121, 2), Fraction(7, 3)]),
    st.sampled_from([-20, 0, 5, math.inf]),
)
def test_weighted_term_cuts_beta_before_the_product(identity, n, coeffs, trunc, slack):
    # The reference route's weighted_term cuts beta at trunc - power(n) before multiplying; the
    # term and its truncation equal the full product, shifted and cut.
    s, first, power = bailey.LIMIT_WEIGHTS[identity]
    n = max(n, first)
    beta_n = QSeries(coeffs, 1, trunc + slack)
    want = pochhammer({1: "q", 2: "q2"}[s], n - first, trunc) * beta_n
    want = want.shift(0 if power is None else power(n)).truncate(trunc).scale((-1) ** n)
    got = weighted_term(*identity, n, beta_n, trunc)
    assert got == want and got.trunc == want.trunc


def _assert_left_side_is_family(j, k, ell, trunc):
    # Family j is a multiple of one limit-identity left side on a chain
    # pair; the four weighted sums are written out here independently,
    # as products of QSeries.
    trunc = Fraction(trunc)
    sign = lambda n: -1 if n % 2 else 1  # noqa: E731
    triangle = lambda n: n * (n + 1) // 2  # noqa: E731
    pair = (pair_relative_q if j in (1, 2) else pair_relative_one)(k, ell)
    betas = decoded_betas(pair, 120, trunc)

    def term(n: int) -> QSeries:
        if j == 1:  # (q)_n (-1)^n q^(n(n+1)/2) beta_n
            out = (pochhammer("q", n, trunc) * betas[n]).shift(triangle(n))
        elif j == 2:  # (q^2;q^2)_n (-1)^n beta_n
            out = pochhammer("q2", n, trunc) * betas[n]
        elif j == 3:  # (q)_(n-1) (-1)^n q^(n(n+1)/2) beta_n
            out = pochhammer("q", n - 1, trunc) * betas[n]
            out = out.shift(triangle(n))
        else:  # 2 (q^2;q^2)_(n-1) (-1)^n q^n beta_n
            out = (pochhammer("q2", n - 1, trunc) * betas[n]).shift(n)
            out = out.scale(2)
        return out.truncate(trunc).scale(sign(n))

    if j == 2:
        # No decaying weight: average the partial sums S_(2N) and S_(2N+1)
        # until every coefficient below trunc has settled.
        partial = QSeries.zero(trunc)
        averages = []
        for n in range(120):
            partial = partial + term(n)
            if n % 2:
                averages.append(
                    (previous + partial).scale(Fraction(1, 2)).truncate(trunc)
                )
            previous = partial
        assert averages[-1] == averages[-2] == averages[-3]
        total = averages[-1]
    else:
        first = 0 if j == 1 else 1
        weight = triangle if j in (1, 3) else (lambda n: n)
        total = QSeries.zero(trunc)
        n = first
        while weight(n) < trunc:
            total = total + term(n)
            n += 1
    assert total == family_series(j, k, ell, trunc)


@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (3, 2)])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_limit_identity_left_side_is_family(j, k, ell):
    _assert_left_side_is_family(j, k, ell, 25)


@pytest.mark.parametrize("trunc", [1, 2, Fraction(7, 2), Fraction(121, 2)])
@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (3, 2)])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_limit_identity_left_side_is_family_across_truncs(j, k, ell, trunc):
    # Integer and half-integer truncations, down to a single coefficient.
    _assert_left_side_is_family(j, k, ell, trunc)


def test_definition_right_side_unit():
    pair = unit_pair("one")
    rhs = relation_sums(pair, 2, 20)[2]
    want = (pochhammer("q", 2, 20) * pochhammer("q", 2, 20)).inverse()
    assert rhs == want.truncate(20)


# ------------------------------------------------------------ relation sweep


def _polynomial_pair(relative: str, alphas: dict) -> BaileyPair:
    """A pair whose alpha_m is the polynomial alphas[m] (a list of (exponent,
    coefficient) terms), its terms below x^size; the relation sums read no
    betas, so it has none."""

    def alpha(m: int, size: int) -> dict:
        return _term_map((e, c) for e, c in alphas.get(m, ()) if e < size)

    return BaileyPair(relative=relative, alpha=alpha, betas=lambda ring, n_max: ())


_polynomial = st.lists(
    st.tuples(st.integers(0, 30), st.integers(-9, 9).filter(bool)), min_size=1, max_size=4
)


@settings(max_examples=100, deadline=None)
@given(
    relative=st.sampled_from(["one", "q"]),
    alphas=st.dictionaries(st.integers(0, 7), _polynomial, min_size=1, max_size=3),
    top=st.integers(1, 60),
    offset=st.sampled_from([0, Fraction(1, 2), Fraction(2, 3)]),
)
def test_relation_sums_match_the_double_product_loop(relative, alphas, top, offset):
    # Integral and fractional truncs up to 60, and n past the freeze point:
    # every alpha_m has frozen once n >= T + m.
    trunc = top - offset
    pair = _polynomial_pair(relative, alphas)
    n_max = math.ceil(trunc) + max(alphas) + 2
    sums = relation_sums(pair, n_max, trunc)
    assert len(sums) == n_max + 1
    for n, got in enumerate(sums):
        assert got == reference_right_side(pair, n, trunc), n
        assert got.trunc == trunc


@pytest.mark.parametrize("maker", [pair_relative_one, pair_relative_q])
@pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_relation_sums_of_chain_pairs(maker, k, ell):
    pair = maker(k, ell)
    for trunc in (40, Fraction(79, 2)):
        betas = decoded_betas(pair, 12, trunc)
        for n, got in enumerate(relation_sums(pair, 12, trunc)):
            assert got == reference_right_side(pair, n, trunc), (trunc, n)
            assert got == betas[n], (trunc, n)


@pytest.mark.parametrize(
    "exponent, coeff",
    [(-1, 2), (Fraction(1, 2), 2), (Fraction(-3, 2), 2), (3, Fraction(1, 2))],
    ids=["-1", "exponent1", "exponent2", "fraction-coefficient"],
)
def test_relation_sums_refuse_alpha_off_the_dense_grid(exponent, coeff):
    # The sweep runs in Z[x]/(x^T): alpha_1 with a negative or fractional
    # exponent, or a coefficient that is not an int, is refused as soon as
    # the sweep reads it.
    pair = _polynomial_pair("q", {0: [(0, 1)], 1: [(exponent, coeff), (3, 1)]})
    assert relation_sums(pair, 0, 20) == [reference_right_side(pair, 0, 20)]
    with pytest.raises(QSeriesError) as err:
        relation_sums(pair, 1, 20)
    assert err.type is QSeriesError


@pytest.mark.parametrize("maker", [pair_relative_one, pair_relative_q])
def test_relation_sums_read_each_alpha_once(maker):
    # The sweep reads alpha_0 .. alpha_(n_max) once each, in order, up
    # front, and its sums are the chain pair's betas; equal neighbours are
    # one series.
    pair = maker(3, 2)
    read = []

    def alpha(m, trunc):
        read.append(m)
        return pair.alpha(m, trunc)

    counted = BaileyPair(pair.relative, alpha, pair.betas, pair.label)
    sums = relation_sums(counted, 12, 60)
    assert read == list(range(13))
    assert sums == decoded_betas(pair, 12, 60)
    assert all(a is b for a, b in zip(sums, sums[1:]) if a == b)
    assert verify_pair(counted, 12, 60).ok


# --------------------------------------------------------- vacuous checks


@pytest.mark.parametrize("n_max, trunc", [(-1, 40), (3, 0), (3, -2), (3, Fraction(-1, 2))])
def test_verify_pair_refuses_empty_ranges(n_max, trunc):
    with pytest.raises(QSeriesError):
        verify_pair(pair_relative_q(2, 1), n_max, trunc)


@pytest.mark.parametrize("kind, trunc", [("gauss", 0), ("even", -3), ("gauss", Fraction(-1, 3))])
def test_limit_identity_refuses_empty_ranges(kind, trunc):
    with pytest.raises(QSeriesError):
        verify_limiting_identity(pair_relative_q(2, 1), "q", kind, trunc)


def test_series_below_nonpositive_truncs_stay_zero():
    assert family_series(1, 1, 1, 0).is_zero()
    assert family_series(2, 1, 1, -3).is_zero()
    assert sigma_series("pochhammer", 0).is_zero()
    assert sigma_series("averaged", Fraction(-1, 2)).is_zero()
