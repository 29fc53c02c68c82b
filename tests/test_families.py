"""Series families, classical companions, lattice negative part, root values."""

from fractions import Fraction

import pytest
from oracles import (
    min_order,
    negate_variable,
    negative_part_by_box,
    negative_part_counts,
    sigma_by_rank_parity,
    sigma_star_by_odd_partitions,
)

import qmaass.families as families
from qmaass import series
from qmaass.agpolys import ag_polynomial
from qmaass.cyclotomic import CycNumber
from qmaass.families import (
    family_series,
    kz_root_value,
    negative_part_series,
    sigma_coefficients,
    sigma_series,
    sigma_star_coefficients,
    sigma_star_series,
    u_root_value,
    verify_kz_duality,
)
from qmaass.series import INF, QSeries, QSeriesError, TruncatedRing, int_slots, pochhammer


def _counted(log, fn):
    """``fn``, logging the positional arguments of each call to ``log``."""
    def call(*args, **kwargs):
        log.append(args)
        return fn(*args, **kwargs)
    return call


# ---------------------------------------------------------------------- sigma


def test_sigma_frozen_head():
    # Hand summation: 1 + q/(1+q) + q^3/((1+q)(1+q^2)) + O(q^6)
    #   = 1 + (q - q^2 + q^3 - q^4 + q^5) + (q^3 - q^4) + O(q^6).
    want = QSeries.from_dense([1, 1, -1, 2, -2, 1], trunc=6)
    assert sigma_series("pochhammer", 6) == want


def test_sigma_representations_agree():
    for trunc in (60, Fraction(121, 2), 1000):
        reference = sigma_series("pochhammer", trunc)
        for rep in ("alternating", "averaged", "indefinite"):
            assert sigma_series(rep, trunc) == reference, (rep, trunc)


def test_sigma_pochhammer_sums_take_one_packed_pass(monkeypatch):
    # sigma "pochhammer" and sigma* "odd-pochhammer" carry one running term
    # through PackedRing.divide, and sigma* "alternating" is one
    # PackedRing.pochhammer_sum, each in one TruncatedRing.sums pass: no
    # Pochhammer or inverse Pochhammer (both run series._factors) and no
    # series sum.
    passes, factors, sums = [], [], []
    monkeypatch.setattr(TruncatedRing, "sums", _counted(passes, TruncatedRing.sums))
    monkeypatch.setattr(series, "_factors", _counted(factors, series._factors))
    monkeypatch.setattr(QSeries, "__add__", _counted(sums, QSeries.__add__))
    for build in (lambda t: sigma_series("pochhammer", t),
                  lambda t: sigma_star_series("odd-pochhammer", t),
                  lambda t: sigma_star_series("alternating", t)):
        for trunc in (2, Fraction(121, 2), 1000):
            for log in (passes, factors, sums):
                log.clear()
            build(trunc)
            assert [size for size, _ in passes] == [int_slots(trunc)], trunc
            assert factors == sums == [], trunc


def test_sigma_constant_term():
    for rep in ("pochhammer", "alternating", "averaged", "indefinite"):
        assert sigma_series(rep, 8).coeff(0) == 1


def test_sigma_coefficients_match_series():
    series = sigma_series("alternating", 41)
    table = sigma_coefficients(40)
    assert [series.coeff(e) for e in range(41)] == table


def _perturbed(values: list, n: int) -> list:
    return values[:n] + [values[n] + 1] + values[n + 1 :]


def test_sigma_counts_distinct_partitions_by_rank_parity():
    # Andrews, Dyson and Hickerson's reading of sigma, by partitions.
    table = sigma_coefficients(400)
    assert table == sigma_by_rank_parity(400)
    for n in (0, 1, 57, 400):
        assert _perturbed(table, n) != sigma_by_rank_parity(400), n


def test_sigma_star_counts_odd_partitions():
    # 2 sum (-1)^n q^(n^2) / (q; q^2)_n by counting partitions, against
    # the library's table, read off family 4's lattice.
    table = sigma_star_coefficients(400)
    assert table == sigma_star_by_odd_partitions(400)
    for n in (1, 7, 400):
        assert _perturbed(table, n) != sigma_star_by_odd_partitions(400), n


def test_sigma_star_frozen_head():
    # -2[q + q^2(1-q^2) + q^3(1-q^2)(1-q^4) + q^4(1-q^2)... ] truncated:
    want = QSeries.from_dense([0, -2, -2, -2, 0, 0], trunc=6)
    assert sigma_star_series("alternating", 6) == want


def test_sigma_star_representations_agree():
    for trunc in (60, Fraction(121, 2), 1000):
        assert sigma_star_series("odd-pochhammer", trunc) == sigma_star_series("alternating", trunc)


def test_sigma_star_leading_term():
    series = sigma_star_series("odd-pochhammer", 10)
    assert min_order(series) == 1 and series.coeff(1) == -2


def test_sigma_star_value_at_minus_one():
    # The alternating representation terminates at q = -1: the running
    # factor (1 - q^2) vanishes, leaving -2 * (-1) = 2.
    total = CycNumber.from_rational(2, 0)
    product = CycNumber.from_rational(2, 1)
    n = 0
    while not product.is_zero():
        total = total + CycNumber.from_rational(2, -2) * CycNumber.zeta(2, n + 1) * product
        one = CycNumber.from_rational(2, 1)
        product = product * (one - CycNumber.zeta(2, 2 * (n + 1)))
        n += 1
    assert total == 2


def test_sigma_bad_representation():
    with pytest.raises(QSeriesError):
        sigma_series("fourier", 10)
    with pytest.raises(QSeriesError):
        sigma_star_series("pochhammer", 10)


@pytest.mark.parametrize("trunc", [0, -3, Fraction(1, 2)])
def test_companions_refuse_a_bad_representation_at_any_truncation(trunc):
    # The representation is checked before an empty truncation returns zero.
    with pytest.raises(QSeriesError, match=r"^rep must be one of \(.*\), got 'bogus'$"):
        sigma_series("bogus", trunc)
    with pytest.raises(QSeriesError, match=r"^rep must be one of \(.*\), got 'bogus'$"):
        sigma_star_series("bogus", trunc)


@pytest.mark.parametrize("table", [sigma_coefficients, sigma_star_coefficients])
@pytest.mark.parametrize("n_max", [True, False, 2.5, 2.0, -1, "3", None, Fraction(2)])
def test_companion_tables_refuse_a_bad_n_max(table, n_max):
    with pytest.raises(QSeriesError, match=r"^n_max must be a nonnegative integer, got "):
        table(n_max)


@pytest.mark.parametrize("n_max", [0, 1, 2, 57, 2000])
def test_lattice_tables_match_the_pochhammer_routes(n_max):
    # sigma off Cohen's lattice and sigma* off family 4's, against the
    # running-term sums, which read no lattice.
    for table, rep, series_of in ((sigma_coefficients, "pochhammer", sigma_series),
                                  (sigma_star_coefficients, "odd-pochhammer", sigma_star_series)):
        series = series_of(rep, n_max + 1)
        assert table(n_max) == [series.coeff(m) for m in range(n_max + 1)], rep


# ------------------------------------------------------------------- families


def test_family_one_frozen_head():
    want = QSeries.from_dense([1, -1, 1, 1, -1, -1], trunc=6)
    assert family_series(1, 1, 1, 6) == want


def test_family_constant_terms():
    # Family 2 averages partial sums, which halves the boundary constant.
    for k, ell in ((1, 1), (2, 1), (2, 2)):
        assert family_series(1, k, ell, 12).coeff(0) == 1
        assert family_series(2, k, ell, 12).coeff(0) == Fraction(1, 2)
        assert family_series(3, k, ell, 12).coeff(0) == 0
        assert family_series(4, k, ell, 12).coeff(0) == 0


def test_family_two_matches_literal_averaging():
    # Oracle: literal partial sums S_m of the defining terms, then
    # (S_2N + S_2N+1)/2 at a comfortably large N.
    trunc = 15
    k, ell = 2, 1
    terms = []
    for n in range(trunc + 4):
        piece = pochhammer("q2", n, trunc) * ag_polynomial(k, ell, 0, n, trunc)
        terms.append(piece if n % 2 == 0 else -piece)
    partial = QSeries.zero(trunc)
    partials = []
    for t in terms:
        partial = partial + t
        partials.append(partial)
    oracle = (partials[16] + partials[17]).scale(Fraction(1, 2))
    assert family_series(2, k, ell, trunc) == oracle


def test_family_three_matches_direct_products():
    trunc = 20
    k, ell = 2, 2
    oracle = QSeries.zero(trunc)
    n = 1
    while n * (n + 1) // 2 < trunc:
        term = (
            pochhammer("q", n - 1, trunc)
            * ag_polynomial(k, ell, 1, n, trunc)
        ).shift(n * (n + 1) // 2)
        oracle = oracle + (-term if n % 2 else term)
        n += 1
    assert family_series(3, k, ell, trunc) == oracle.truncate(trunc)


def test_family_four_matches_direct_products():
    trunc = 20
    k, ell = 2, 1
    oracle = QSeries.zero(trunc)
    for n in range(1, trunc):
        term = (
            pochhammer("-1", n, trunc)
            * pochhammer("q", n - 1, trunc)
            * ag_polynomial(k, ell, 1, n, trunc)
        ).shift(n)
        oracle = oracle + (-term if n % 2 else term)
    assert family_series(4, k, ell, trunc) == oracle.truncate(trunc)


def test_family_series_takes_one_walk_and_no_chain_products(monkeypatch):
    # The chain polynomials come from one walk per ring, the sizing pass
    # and the packed pass, and the weighted sum stays packed: no series
    # product.
    walks, products = [], []
    monkeypatch.setattr(families, "_walk", _counted(walks, families._walk))
    monkeypatch.setattr(QSeries, "__mul__", _counted(products, QSeries.__mul__))
    for j in (1, 2, 3, 4):
        for log in (walks, products):
            log.clear()
        family_series(j, 3, 2, 30)
        assert [type(ring).__name__ for ring, *_ in walks] == ["MajorantBound", "TruncatedRing"], j
        assert products == [], j


def test_family_two_special_case():
    # Twice family 2 at (1,1) is the first companion in q^2.
    trunc = 60
    lhs = family_series(2, 1, 1, trunc).scale(2)
    rhs = sigma_series("pochhammer", 30).compose_power(2)
    assert lhs.first_mismatch(rhs) is None


def test_family_four_special_case():
    # Family 4 at (1,1) is minus the second companion with q negated.
    trunc = 60
    lhs = family_series(4, 1, 1, trunc)
    rhs = negate_variable(sigma_star_series("alternating", trunc)).scale(-1)
    assert lhs == rhs


def test_family_integer_coefficients():
    for j in (1, 2, 3, 4):
        series = family_series(j, 2, 1, 25)
        if j == 2:
            series = series.scale(2)
        for _, c in series.terms():
            assert Fraction(c).denominator == 1, (j, c)


def test_family_validation():
    with pytest.raises(QSeriesError):
        family_series(5, 1, 1, 10)
    with pytest.raises(QSeriesError):
        family_series(1, 2, 3, 10)
    with pytest.raises(QSeriesError):
        family_series(1, 1, 1, INF)


# -------------------------------------------------------------- negative part


def test_negative_part_defaults_to_the_cone():
    series, diag = negative_part_series(4, 1, 10)
    assert diag["region"] == "cone"
    assert (series, diag) == negative_part_series(4, 1, 10, region="cone")
    for e, c in series.terms():
        assert 0 < e < 10
        assert c != 0


@pytest.mark.parametrize("region", ["printed", "", None])
def test_negative_part_refuses_any_region_but_the_cone(region):
    # The printed region's lattice sum diverges: its table read the
    # search window, not the series.
    with pytest.raises(QSeriesError, match="region"):
        negative_part_series(4, 1, 10, region=region)


@pytest.mark.parametrize("trunc", [5, 20, Fraction(61, 2), 60])
@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("M", range(2, 9))
def test_negative_part_is_the_cone_sum_over_a_box(M, ell, trunc):
    series, diag = negative_part_series(M, ell, trunc)
    assert dict(series.terms()) == negative_part_by_box(M, ell, trunc)
    assert diag["anomalous_terms"] == []


@pytest.mark.parametrize("trunc", [5, 20, Fraction(61, 2), 60])
@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("M", range(2, 9))
def test_negative_part_counts_its_cone_points(M, ell, trunc):
    # terms_in_series counts the cone points kept below trunc, and
    # dropped_above_trunc the ones of the nu window at or above it.
    _, diag = negative_part_series(M, ell, trunc)
    counts = negative_part_counts(M, ell, trunc, diag["nu_window"])
    assert (diag["terms_in_series"], diag["dropped_above_trunc"]) == counts
    assert counts[0] > 0


def test_negative_part_cone_is_anomaly_free():
    series, diag = negative_part_series(4, 1, 10, region="cone")
    assert diag["anomalous_terms"] == []
    assert not series.is_zero()
    assert all(e > 0 for e, _ in series.terms())


def test_negative_part_exponent_denominator():
    series, _ = negative_part_series(4, 1, 10, region="cone")
    assert 120 % series.denom == 0


def test_negative_part_empty_window_below_trunc():
    series, _ = negative_part_series(4, 1, Fraction(1, 1000), region="cone")
    assert series.is_zero()


def test_negative_part_refuses_m_below_two():
    with pytest.raises(QSeriesError):
        negative_part_series(1, 1, 10)


# ---------------------------------------------------------- root-of-unity sums


def test_kz_values_at_small_roots():
    assert kz_root_value(1, 1, 1) == 1
    assert kz_root_value(1, 1, 2) == -3


def test_u_values_at_small_roots():
    assert u_root_value(1, 1, 1) == 1
    assert u_root_value(1, 1, 2) == -3


def test_kz_duality_small_sweep():
    for k in (1, 2):
        for ell in range(1, k + 1):
            for N in range(1, 7):
                report = verify_kz_duality(k, ell, N)
                assert report.ok, (k, ell, N, report.to_json_dict())

