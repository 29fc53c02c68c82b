"""Tests for the indefinite theta layer.

Covers the exact quadratic-form toolkit, the family parameter tables and
their validation, the two-region theta series against an independent
brute-force enumeration, the closed lattice expansions of the series
families, the embedding of each family into its theta series, and the
numeric waveform / completion-defect layer including the modular
transformation spot checks.
"""

import cmath
import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmaass import PrecisionError, QSeries, QSeriesError
from qmaass.bailey import quadratic_shift
from qmaass.bessel import k0_bessel
from qmaass.cyclotomic import CycNumber
from qmaass.families import FAMILIES, family_series, sigma_star_series
from qmaass.theta import (
    FamilyThetaData,
    QuadForm,
    ThetaParams,
    _bounded,
    _denominators,
    _frac_pair,
    _gauss_legendre,
    _lattice_coefficients,
    _lattice_walk,
    _ray_integral,
    _ray_sign,
    _shell_floor,
    _shell_walk,
    completed_waveform_numeric,
    completion_defect,
    equivalence_check,
    family_lattice_numeric,
    family_lattice_series,
    family_params,
    indefinite_theta_series,
    modular_spotcheck_m2,
    star,
    unit_phase,
    validate_family_params,
    verify_family_lattice,
    verify_theta_embedding,
    waveform_numeric,
)

F = Fraction


# ------------------------------------------------------------ quadratic form


class TestQuadForm:
    def test_value_and_bilinear_hand_examples(self):
        form = QuadForm(4)
        assert form.value((1, 1)) == 1
        assert form.value((F(3, 10), F(1, 6))) == F(11, 60)
        assert form.bilinear((1, 0), (0, 1)) == 0
        assert form.bilinear((1, 1), (1, 1)) == 2 * form.value((1, 1))

    @pytest.mark.parametrize("M", [2, 3, 4, 10, 23])
    def test_reference_vectors_have_norm_minus_one(self, M):
        form = QuadForm(M)
        for which in (1, 2):
            c = form.reference_vector(which)
            val = (M + 1) / 2 * c[0] ** 2 - (M - 1) / 2 * c[1] ** 2
            assert abs(val + 1.0) < 1e-12

    @pytest.mark.parametrize("M", [2, 3, 4, 10, 23])
    def test_reference_vectors_pair_to_minus_two_m(self, M):
        form = QuadForm(M)
        c1 = form.reference_vector(1)
        c2 = form.reference_vector(2)
        val = (M + 1) * c1[0] * c2[0] - (M - 1) * c1[1] * c2[1]
        assert abs(val + 2 * M) < 1e-11

    @pytest.mark.parametrize("M", [2, 3, 4, 10])
    def test_curve_passes_through_reference_vectors(self, M):
        form = QuadForm(M)
        for which in (1, 2):
            t = form.reference_parameter(which)
            p = form.curve_point(t)
            c = form.reference_vector(which)
            assert math.hypot(p[0] - c[0], p[1] - c[1]) < 1e-12
        assert form.reference_parameter(2) > form.reference_parameter(1)

    @pytest.mark.parametrize("M", range(2, 51))
    def test_automorph_properties(self, M):
        form = QuadForm(M)
        g = form.automorph
        assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1
        # Exact conjugation g^T A g == A.
        A = form.matrix
        conj = [
            [
                sum(g[i][r] * A[i][j] * g[j][c] for i in range(2) for j in range(2))
                for c in range(2)
            ]
            for r in range(2)
        ]
        assert conj == [list(row) for row in A]
        c1 = form.reference_vector(1)
        mapped = (
            g[0][0] * c1[0] + g[0][1] * c1[1],
            g[1][0] * c1[0] + g[1][1] * c1[1],
        )
        c2 = form.reference_vector(2)
        assert math.hypot(mapped[0] - c2[0], mapped[1] - c2[1]) < 1e-12

    @pytest.mark.parametrize("M", [2, 3, 7])
    def test_pairings_match_float_reference_vectors(self, M):
        form = QuadForm(M)
        root = math.sqrt(M * M - 1)
        r = (F(2, 3), F(-1, 5))
        for which in (1, 2):
            c = form.reference_vector(which)
            direct = (M + 1) * float(r[0]) * c[0] - (M - 1) * float(r[1]) * c[1]
            assert abs(direct - float(form.boundary_pairing(r, which)) * root) < 1e-12
            n = (1, -1) if which == 1 else (1, 1)
            normal_direct = (M + 1) * float(r[0]) * n[0] - (M - 1) * float(r[1]) * n[1]
            assert abs(normal_direct - float(form.normal_pairing(r, which))) < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(QSeriesError):
            QuadForm(1)
        with pytest.raises(QSeriesError):
            QuadForm(2).reference_vector(3)


# ------------------------------------------------- star / equivalence / params


class TestEquivalence:
    def test_star_is_an_involution(self):
        v = (F(2, 7), F(-3, 5))
        assert star(star(v)) == v
        assert star(v) == (F(-2, 7), F(-3, 5))

    def test_identical_pairs_are_equivalent(self):
        a, b = (F(1, 5), F(2, 5)), (F(1, 3), F(1, 7))
        assert equivalence_check((a, b), (a, b), 4)

    def test_non_integral_offset_is_rejected(self):
        a = (F(1, 5), F(2, 5))
        al = (F(1, 5), F(-2, 5))
        b = (F(0), F(0))
        assert not equivalence_check((a, b), (al, b), 2)

    def test_integrality_of_pairing_is_required(self):
        # Offsets are integral with the plus sign, but B(a, mu) = 1/2.
        a = (F(1, 2), F(1, 2))
        al = (F(1, 2), F(1, 2))
        b = (F(1, 3), F(0))
        be = (F(2, 3), F(0))
        assert not equivalence_check((a, b), (al, be), 2)

    def test_automorph_image_example(self):
        # M = 4 automorph sends (3/10, 1/6) to (19/10, 23/10)... shifted by
        # (-2, -2) it lands on the starred shift (-3/10, 1/6).
        form = QuadForm(4)
        a = (F(3, 10), F(1, 6))
        ga = form.apply_automorph(a)
        shifted = (ga[0] - 2, ga[1] - 2)
        assert shifted == star(a)
        assert form.bilinear(a, (-1, -1)) == -1


class TestFamilyParams:
    def test_frozen_tables_at_k_one(self):
        d1 = family_params(1, 1, 1)
        assert d1.params.M == 4
        assert d1.params.a == (F(3, 10), F(1, 6))
        assert d1.params.b == (F(1, 10), F(1, 6))
        assert d1.alpha == F(11, 60)
        assert (d1.scale, d1.power) == (1, 1)

        d2 = family_params(2, 1, 1)
        assert d2.params.M == 7
        assert d2.params.a == (F(1, 4), F(1, 6))
        assert d2.params.b == (F(1, 16), F(1, 12))
        assert d2.alpha == F(1, 6)
        assert (d2.scale, d2.power) == (2, 2)

        d3 = family_params(3, 1, 1)
        assert d3.params.M == 4
        assert d3.params.a == (F(-1, 10), F(1, 6))
        assert d3.alpha == F(-1, 60)
        assert (d3.scale, d3.power) == (-1, 1)

        d4 = family_params(4, 1, 1)
        assert d4.params.M == 7
        assert d4.params.a == (F(0), F(1, 6))
        assert d4.alpha == F(-1, 12)
        assert (d4.scale, d4.power) == (-1, 2)

    def test_rejects_bad_indices(self):
        with pytest.raises(QSeriesError):
            family_params(5, 1, 1)
        with pytest.raises(QSeriesError):
            family_params(1, 2, 3)
        with pytest.raises(QSeriesError):
            family_params(1, 2, 0)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_validation_passes_small_sweep(self, j):
        for k in range(1, 5):
            for ell in range(1, k + 1):
                rep = validate_family_params(j, k, ell)
                assert rep.ok, (j, k, ell, rep.details)

    def test_equivalence_branch_bookkeeping(self):
        # Families 1-3 satisfy the starred branch; family 4 does too while
        # its direct branch fails on the twist part.
        for j in (1, 2, 3, 4):
            rep = validate_family_params(j, 2, 1)
            assert rep.details["equivalence_starred"] is True
        assert validate_family_params(4, 2, 1).details["equivalence_direct"] is False

    def test_json_round_trip_fields(self):
        d = family_params(2, 2, 1)
        payload = d.to_json_dict()
        assert payload["j"] == 2 and payload["M"] == 11
        assert payload["a"] == ["1/3", "3/10"]
        assert payload["alpha"] == str(d.alpha)


# sha256 per family of (a) family_params(j, k, ell).to_json_dict() for
# 1 <= ell <= k <= 10 and (b) family_lattice_series(j, k, ell, 150).terms()
# for 1 <= ell <= k <= 5, recorded before the family data became one
# record per family; any change to the parameters or lattice terms shows.
_LOCKED_FAMILY_DIGESTS = {
    1: (
        "b0c377f2d0162481da69766d5873c47d83c7d7e3371e7a2cd9d40e32f9dec20a",
        "f5d1988e22badc27ecf3c95f7f5d55585fe06b701ca8a23fc93a9fea8e5a4290",
    ),
    2: (
        "3b2cb8e2654379a1b0d7a6cd790d30b19a64efc180399ed402cfa0695e5585fc",
        "cb7ea3af73c1c1c147c98c739044b97c1f95553aea7508af777d5bafde57a553",
    ),
    3: (
        "f73c3e359105cb0ec60b3620c813958eb9afbe603445c078b4ceff42b439ae52",
        "83946af375a891292ae9eea6a6e365da57c4259fededfdecf06f4e0cfde0dcda",
    ),
    4: (
        "0ee43211b0ef21f6e0778108e35113283ae4fc86e881ee55147253a56a8cf1c8",
        "e62afbca27c0013e9c57e1fe94259d5e31979a0b041eba8ae4369fd2ea4f6885",
    ),
}


def _sha256_json(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_family_data_lock(j):
    params = [
        family_params(j, k, ell).to_json_dict()
        for k in range(1, 11)
        for ell in range(1, k + 1)
    ]
    lattice = [
        [k, ell, [[str(e), str(c)] for e, c in family_lattice_series(j, k, ell, 150).terms()]]
        for k in range(1, 6)
        for ell in range(1, k + 1)
    ]
    assert (_sha256_json(params), _sha256_json(lattice)) == _LOCKED_FAMILY_DIGESTS[j]


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_tampered_family_record_fails_both_checks(j, monkeypatch):
    # The record keeps a1 over 2(M + 1): one more in its constant moves it
    # by 1 / (2(M + 1)), and both checks must notice.
    k, ell = 2, 1
    before = family_params(j, k, ell).params
    slope, constant = FAMILIES[j].a1
    moved = dataclasses.replace(FAMILIES[j], a1=(slope, constant + 1))
    monkeypatch.setitem(FAMILIES, j, moved)
    assert family_params(j, k, ell).params.a[0] == before.a[0] + F(1, 2 * (before.M + 1))
    assert not validate_family_params(j, k, ell).ok
    assert not verify_theta_embedding(j, k, ell, 40).ok


def test_frac_pair_passes_fractions_through():
    pair = (F(1, 3), F(-2, 5))
    got = _frac_pair(pair)
    assert got[0] is pair[0] and got[1] is pair[1]
    converted = _frac_pair([3, F(1, 2)])
    assert converted == (F(3), F(1, 2)) and all(type(c) is F for c in converted)


# ------------------------------------------------------------ theta series


def _brute_force_theta(params: ThetaParams, trunc, box: int) -> QSeries:
    """Independent enumeration over a fixed large box with literal regions."""
    form = QuadForm(params.M)
    a1, a2 = params.a
    beta1 = (params.M + 1) * params.b[0]
    beta2 = (params.M - 1) * params.b[1]
    order = math.lcm(beta1.denominator, beta2.denominator)
    fl_plus = math.floor(a1 + a2)
    fl_minus = math.floor(a1 - a2)
    terms = []
    for n in range(-box, box + 1):
        for nu in range(-box, box + 1):
            upper = n + nu >= -fl_plus and n - nu >= -fl_minus
            lower = n + nu < -fl_plus and n - nu < -fl_minus
            if not (upper or lower):
                continue
            e = form.value((a1 + n, a2 + nu))
            if e >= trunc:
                continue
            w = (beta1 * n - beta2 * nu) % 1
            if order <= 2:
                coeff = -1 if w == F(1, 2) else 1
            else:
                coeff = CycNumber.zeta(order, int(w * order))
            terms.append((e, coeff))
    return QSeries.from_terms(terms, trunc)


class TestIndefiniteThetaSeries:
    def test_empty_truncation_window_gives_zero(self):
        d = family_params(1, 1, 1)
        s = indefinite_theta_series(d.params, 0)
        assert s.is_zero()

    def test_invalid_shift_rejected(self):
        with pytest.raises(QSeriesError):
            ThetaParams(M=3, a=(F(1, 2), F(1, 2)), b=(F(0), F(0)))

    def test_head_matches_first_family(self):
        # Lowest terms of the k = ell = 1 realization of family 1: the
        # family head 1 - q + q^2 + q^3 - q^4 - q^5 shifted by 11/60.
        d = family_params(1, 1, 1)
        s = indefinite_theta_series(d.params, F(11, 60) + 6)
        expected = [1, -1, 1, 1, -1, -1]
        for offset, c in enumerate(expected):
            assert s.coeff(F(11, 60) + offset) == c

    def test_agrees_with_brute_force_plus_minus_phases(self):
        d = family_params(3, 2, 1)
        mine = indefinite_theta_series(d.params, 12)
        brute = _brute_force_theta(d.params, F(12), 25)
        assert mine == brute

    def test_agrees_with_brute_force_cyclotomic_phases(self):
        params = ThetaParams(M=3, a=(F(1, 5), F(1, 3)), b=(F(1, 7), F(1, 9)))
        mine = indefinite_theta_series(params, 6)
        brute = _brute_force_theta(params, F(6), 20)
        assert mine.first_mismatch(brute) is None

    def test_takes_family_data_directly(self):
        d = family_params(4, 1, 1)
        assert indefinite_theta_series(d, 5) == indefinite_theta_series(d.params, 5)


# -------------------------------------------------- the integer lattice walk


def _fraction_points(params, cut):
    """(shell, r1, r2) for r = a + (n, nu), max(|n|, |nu|) <= cut, in
    Fractions: the per-point loop the integer walk replaced."""
    a1, a2 = params.a
    return (
        (max(abs(n), abs(nu)), a1 + n, a2 + nu)
        for n in range(-cut, cut + 1)
        for nu in range(-cut, cut + 1)
    )


def _waveform_by_fractions(params, tau, cut):
    form = QuadForm(params.M)
    M, u, v = params.M, tau.real, tau.imag
    total, outer_abs = 0j, 0.0
    for shell, r1, r2 in _fraction_points(params, cut):
        qv = form.value((r1, r2))
        main = r1 * r1 - r2 * r2
        rho = 1.0 if main > 0 else (0.5 if main == 0 else 0.0)
        normal = ((M + 1) * r1) ** 2 - ((M - 1) * r2) ** 2
        rho_perp = 1.0 if normal < 0 else (0.5 if normal == 0 else 0.0)
        weight = 0.0
        if rho and qv > 0:
            weight += rho * k0_bessel(2.0 * math.pi * float(qv) * v)
        if rho_perp and qv < 0:
            weight += rho_perp * k0_bessel(-2.0 * math.pi * float(qv) * v)
        if weight == 0.0:
            continue
        term = weight * unit_phase(
            float(qv) * u + float(form.bilinear((r1, r2), params.b))
        )
        total += term
        if shell == cut:
            outer_abs += abs(term)
    root_v = math.sqrt(v)
    return _bounded(root_v * total, 2.0 * root_v * outer_abs)


def _defect_by_fractions(params, tau, cut):
    form = QuadForm(params.M)
    M, u, v = params.M, tau.real, tau.imag
    root_v = math.sqrt(v)
    t1, t2 = form.reference_parameter(1), form.reference_parameter(2)
    total = 0j
    for _, r1, r2 in _fraction_points(params, cut):
        qv = form.value((r1, r2))
        combined = (M * M - 1) * min((r1 + r2) ** 2, (r1 - r2) ** 2) + 2 * qv
        if math.pi * v * float(combined) > 100.0:
            continue
        u_plus = math.sqrt(2.0 * (M + 1)) * float(r1) * root_v
        u_minus = math.sqrt(2.0 * (M - 1)) * float(r2) * root_v
        sign1 = _ray_sign(u_plus, u_minus, t1)
        sign2 = _ray_sign(u_plus, u_minus, t2)
        if sign1 == 0 and sign2 == 0:
            continue
        alpha = _ray_integral(u_plus, u_minus, t1, sign1) - _ray_integral(
            u_plus, u_minus, t2, sign2
        )
        phase = unit_phase(float(qv) * u + float(form.bilinear((r1, r2), params.b)))
        total += alpha * (math.exp(-2.0 * math.pi * float(qv) * v) * phase)
    return root_v * total


_small_fractions = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def _theta_params(draw):
    a = draw(
        st.tuples(_small_fractions, _small_fractions).filter(
            lambda a: all(s.denominator != 1 for s in (a[0] + a[1], a[0] - a[1]))
        )
    )
    b = draw(st.tuples(_small_fractions, _small_fractions))
    return ThetaParams(M=draw(st.integers(2, 8)), a=a, b=b)


_taus = st.builds(
    complex,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(0.05, 2.0, allow_nan=False),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as exc:
        return str(exc)


class TestIntegerWalk:
    """The integer walk gives the numbers of the per-point Fraction loop,
    bit for bit: every float is an int/int or Fraction division of the
    same rational, and both are correctly rounded."""

    @settings(max_examples=60, deadline=None)
    @given(_theta_params(), _taus, st.integers(1, 6))
    def test_waveform_and_defect_match_the_fraction_loop(self, params, tau, cut):
        assert _outcome(waveform_numeric, params, tau, cut) == _outcome(
            _waveform_by_fractions, params, tau, cut
        )
        assert completion_defect(params, tau, cut) == _defect_by_fractions(
            params, tau, cut
        )

    @settings(max_examples=40, deadline=None)
    @given(_theta_params(), st.builds(F, st.integers(1, 24), st.integers(1, 3)))
    def test_theta_series_matches_fraction_keys(self, params, trunc):
        # The library's box and rescan ring, plus one more ring.
        box = math.isqrt(math.ceil(trunc)) + 4 + max(math.ceil(abs(c)) for c in params.a)
        mine = indefinite_theta_series(params, trunc)
        brute = _brute_force_theta(params, trunc, box)
        assert mine == brute and mine.denom == brute.denom

    def test_term_just_below_trunc_is_kept(self):
        # trunc times the exponent denominator falls strictly between two
        # integers here, so rounding it down would drop the q^e term.
        e = F(11, 60) + 5
        s = indefinite_theta_series(family_params(1, 1, 1).params, e + F(1, 10**9))
        assert s.coeff(e) == -1

    def test_walk_coordinates(self):
        params = ThetaParams(M=4, a=(F(1, 5), F(-2, 3)), b=(F(1, 3), F(5, 4)))
        form = QuadForm(4)
        D, E = _denominators(params)
        assert (D, E) == (15, 12)
        for n, nu, x, y, q, t in _lattice_walk(params, 3):
            r = (params.a[0] + n, params.a[1] + nu)
            assert (F(x, D), F(y, D)) == r
            assert F(q, 2 * D * D) == form.value(r)
            assert F(t, D * E) == form.bilinear(r, params.b)


# -------------------------------------------------------------- lattice sums


# Phases whose denominators square past int64; the second is far from a
# power of two, so a wrapped int64 product would change the phase.
HUGE_PHASES = (F(2**40 + 1, 2**41 + 3), F(2**61 + 1, 3**39 + 2))


def _shell_reference(j, k, ell, n):
    """Lattice terms of family j at outer index n, one (exponent, coeff) at a time."""
    terms = []
    if j in (1, 2):
        base = (k + 1) * n * n + k * n + (n * (n + 1) // 2 if j == 1 else 0)
        for nu in range(-n, n + 1):
            e = base - quadratic_shift(k, ell, nu)
            c = (-1) ** (n + nu) * (F(1, 2) if j == 2 else 1)
            terms += [(e, c), (e + 2 * n + 1, -c)]
    else:
        base = (k + 1) * n * n + (n * (n - 1) // 2 if j == 3 else 0)
        for nu in range(-n, n):
            e = base - quadratic_shift(k, ell, nu)
            sign = (-1) ** (n + nu)
            terms += [(e, -sign), (e + n, -sign)] if j == 3 else [(e, -2 * sign)]
    return terms


def _numeric_reference(j, k, ell, x, t):
    """Term-by-term sum of the lattice expansion at q = e(x) exp(-t).

    Shells are summed until every term of one is below exp(-45); phases
    are reduced exactly in Python integers.
    """
    p, q = x.numerator, x.denominator
    total = 0j
    n = 0 if j in (1, 2) else 1
    while True:
        terms = _shell_reference(j, k, ell, n)
        if min(e for e, _ in terms) * t > 45:
            return total
        for e, c in terms:
            turns = (p * e) % q / q
            total += float(c) * cmath.exp(2j * math.pi * turns - t * e)
        n += 1


class TestFamilyLattice:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_matches_defining_sums(self, j):
        for k in (1, 2):
            for ell in range(1, k + 1):
                rep = verify_family_lattice(j, k, ell, 50)
                assert rep.ok, (j, k, ell, rep.details)

    def test_first_family_head(self):
        from qmaass.series import dense_int_coeffs

        s = family_lattice_series(1, 1, 1, 6)
        assert dense_int_coeffs(s, 6) == [1, -1, 1, 1, -1, -1]

    def test_fourth_family_ties_to_odd_divisor_partner(self):
        # The k = ell = 1 member equals minus the odd-indexed partner
        # series with q negated.
        lhs = family_lattice_series(4, 1, 1, 60)
        rhs = sigma_star_series("alternating", 60).negate_variable().scale(-1)
        assert lhs == rhs

    def test_numeric_route_matches_exact_series(self):
        for j in (1, 2, 3, 4):
            exact = family_series(j, 1, 1, 45)
            q = unit_phase(F(1, 3)) * math.exp(-2.0)
            direct = sum(
                complex(c) * q ** int(e) for e, c in exact.terms()
            )
            via_lattice = family_lattice_numeric(j, 1, 1, F(1, 3), 2.0)
            assert abs(direct - via_lattice) < 1e-12

    def test_numeric_route_rejects_bad_radius(self):
        with pytest.raises(QSeriesError):
            family_lattice_numeric(1, 1, 1, F(0), 0.0)
        with pytest.raises(QSeriesError):
            family_lattice_numeric(1, 1, 1, F(0), [0.5, -0.1])
        with pytest.raises(QSeriesError):
            family_lattice_numeric(1, 1, 1, F(0), [])

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    @pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (2, 2)])
    def test_numeric_route_matches_termwise_reference(self, j, k, ell):
        for x in (F(0), F(1, 3), F(2, 7)) + HUGE_PHASES:
            for t in (0.5, 0.01):
                ref = _numeric_reference(j, k, ell, x, t)
                got = family_lattice_numeric(j, k, ell, x, t)
                assert abs(got - ref) <= 1e-12 * (1 + abs(ref)), (x, t)

    def test_grid_call_equals_pointwise_calls(self):
        grid = [0.125 * 0.5**i for i in range(8)]
        for j in (1, 2, 3, 4):
            for x in (F(1, 5),) + HUGE_PHASES:
                values = family_lattice_numeric(j, 2, 1, x, grid)
                assert len(values) == len(grid)
                for t, value in zip(grid, values):
                    single = family_lattice_numeric(j, 2, 1, x, t)
                    assert isinstance(single, complex)
                    assert abs(value - single) <= 1e-13 * (1 + abs(single))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
        st.one_of(
            st.builds(F, st.integers(-120, 120), st.integers(1, 60)),
            st.sampled_from(HUGE_PHASES),
        ),
        st.floats(0.01, 2.0),
    )
    def test_numeric_route_equals_the_exact_series_termwise(self, j, k_ell, x, t):
        # Terms past 45 / t are below exp(-45) each.
        k, ell = k_ell
        series = family_lattice_series(j, k, ell, math.ceil(45 / t))
        p, q = x.numerator, x.denominator
        ref = sum(
            float(c) * cmath.exp(2j * math.pi * (p * int(e) % q / q) - t * int(e))
            for e, c in series.terms()
        )
        got = family_lattice_numeric(j, k, ell, x, t)
        assert abs(got - ref) <= 1e-12 * (1 + abs(ref))

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_series_route_equals_defining_sums(self, j):
        for k, ell in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert family_lattice_series(j, k, ell, 80) == family_series(
                j, k, ell, 80
            ), (k, ell)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    @pytest.mark.parametrize("top", [1, 2, 9, 40, 157])
    def test_shells_below_top_equal_the_full_enumeration(self, j, top):
        # The walk's cut shells keep exactly the full enumeration's terms
        # below top, and the dense table sums them.
        denom = 2 if j == 2 else 1
        for k in (1, 2, 3):
            for ell in range(1, k + 1):
                table = [0] * top
                n = 0 if j in (1, 2) else 1
                for exps, nums in _shell_walk(j, k, ell, top):
                    want = sorted((e, c) for e, c in _shell_reference(j, k, ell, n) if e < top)
                    assert sorted((e, F(c, denom)) for e, c in zip(exps, nums)) == want
                    for e, c in want:
                        table[e] += c * denom
                    n += 1
                # one shell past the walk contributes nothing below top
                assert all(e >= top for e, _ in _shell_reference(j, k, ell, n))
                coeffs, got_denom = _lattice_coefficients(j, k, ell, top)
                assert list(coeffs) == table and got_denom == denom

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.one_of(st.integers(1, 60), st.just(2**61)).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(1, k))
        ),
        st.integers(0, 60),
    )
    def test_shell_floor_is_the_least_shell_exponent(self, j, k_ell, n):
        # The walk's bound, read from the shell data, is the least exponent
        # of the shell and never decreases from one shell to the next.
        k, ell = k_ell
        n += 0 if j in (1, 2) else 1
        floor = _shell_floor(j, k, ell, n)
        assert floor == min(e for e, _ in _shell_reference(j, k, ell, n))
        assert _shell_floor(j, k, ell, n + 1) >= floor

    def test_series_route_stays_exact_for_huge_chain_length(self):
        # Intermediates beyond int64 must not wrap.
        k = 2**61
        for j in (1, 2):
            terms = [
                (e, c)
                for n in range(8)
                for e, c in _shell_reference(j, k, 1, n)
                if e < 13
            ]
            expected = QSeries.from_terms(terms, 13)
            assert family_lattice_series(j, k, 1, 13) == expected
            assert not expected.is_zero()


class TestThetaEmbedding:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_embedding_small_sweep(self, j):
        for k in (1, 2):
            for ell in range(1, k + 1):
                rep = verify_theta_embedding(j, k, ell, 40)
                assert rep.ok, (j, k, ell, rep.details)

    def test_tampered_shift_is_detected(self):
        # Moving the second shift component by one lattice-admissible step
        # changes the series: the embedding must report the mismatch.
        d = family_params(1, 1, 1)
        wrong = ThetaParams(
            M=d.params.M,
            a=(d.params.a[0], d.params.a[1] + F(1, 3)),
            b=d.params.b,
        )
        theta = indefinite_theta_series(wrong, 10)
        fam = family_series(1, 1, 1, 10 - d.alpha)
        reference = fam.shift(d.alpha).truncate(F(10))
        assert theta.first_mismatch(reference) is not None


# ------------------------------------------------------------- numeric layer


class TestWaveform:
    def test_real_after_phase_normalization_first_family(self):
        d = family_params(1, 1, 1)
        form = QuadForm(d.params.M)
        off = form.bilinear(d.params.a, d.params.b) % 1
        value, tail = waveform_numeric(d, 1j, 12)
        normalized = unit_phase(-off) * value
        assert abs(normalized.imag) < 1e-10
        assert normalized.real > 0
        assert 0 <= tail < 1e-100

    def test_real_after_phase_normalization_fourth_family(self):
        d = family_params(4, 1, 1)
        form = QuadForm(d.params.M)
        off = form.bilinear(d.params.a, d.params.b) % 1
        value, _ = waveform_numeric(d, 1j, 12)
        assert abs((unit_phase(-off) * value).imag) < 1e-10

    def test_lattice_cut_stability(self):
        d = family_params(1, 1, 1)
        w1, _ = waveform_numeric(d, 0.3 + 0.8j, 12)
        w2, _ = waveform_numeric(d, 0.3 + 0.8j, 17)
        assert abs(w1 - w2) < 1e-12

    def test_rejects_lower_half_plane(self):
        d = family_params(1, 1, 1)
        with pytest.raises(QSeriesError):
            waveform_numeric(d, 1 - 1j, 8)

    def test_tail_bound_above_the_value_is_refused(self):
        params = ThetaParams(M=4, a=(F(1, 5), F(1, 7)), b=(F(1, 3), F(1, 11)))
        with pytest.raises(PrecisionError, match="tail bound"):
            waveform_numeric(params, 1e-4j, 2)
        value, tail = waveform_numeric(params, 1j, 2)
        assert 0 < tail < abs(value)

    @pytest.mark.parametrize("cut", [0, -2])
    def test_rejects_nonpositive_lattice_cut(self, cut):
        d = family_params(1, 1, 1)
        with pytest.raises(QSeriesError):
            waveform_numeric(d, 1j, cut)
        with pytest.raises(QSeriesError):
            completion_defect(d, 1j, cut)


class TestCompletionDefect:
    @pytest.mark.parametrize("j", [1, 4])
    def test_vanishes_for_family_parameters(self, j):
        d = family_params(j, 1, 1)
        assert abs(completion_defect(d, 1j, lattice_cut=10)) < 1e-8

    @pytest.mark.parametrize(
        "j, k, ell, defect",
        [
            (1, 1, 1, 3.048596840313095e-09),
            (3, 1, 1, 1.1908254091475856),
            (3, 2, 1, 0.00011384829815614909),
            (1, 2, 2, 0.00840775999811983),
            (3, 2, 2, 1.6109110023377873),
        ],
    )
    def test_float_sign_defects_are_pinned(self, j, k, ell, defect):
        # The float ray signs at exact zeros (TestExactRaySigns) leave
        # these defects; `verify all` prints the first of them.
        assert abs(completion_defect(family_params(j, k, ell), 1j)) == defect

    def test_every_point_skipped_far_up_the_axis(self):
        assert completion_defect(family_params(1, 1, 1), 1000j) == 0

    def test_does_not_vanish_generically(self):
        bad = ThetaParams(
            M=4, a=(F(1, 5), F(1, 7)), b=(F(1, 3), F(1, 11))
        )
        assert abs(completion_defect(bad, 1j, lattice_cut=10)) > 1e-3

    def test_elliptic_shift_law(self):
        # Completed waveform with (a + lambda, b + mu) for integral lambda
        # and mu in the inverse-matrix lattice picks up exactly e(B(a, mu)).
        a = (F(1, 11), F(1, 2))
        b = (F(1, 7), F(1, 5))
        params = ThetaParams(M=2, a=a, b=b)
        mu = (F(1, 3), F(0))
        shifted = ThetaParams(M=2, a=(a[0] + 1, a[1]), b=(b[0] + mu[0], b[1]))
        form = QuadForm(2)
        tau = 0.1 + 0.9j
        lhs = completed_waveform_numeric(shifted, tau, 12)
        rhs = unit_phase(form.bilinear(a, mu) % 1) * completed_waveform_numeric(
            params, tau, 12
        )
        assert abs(lhs - rhs) < 1e-8

    def test_modular_spotcheck(self):
        res = modular_spotcheck_m2(
            (F(1, 11), F(1, 2)), (F(1, 7), F(1, 5)), 1j, 12
        )
        assert res["shift_residual"] < 1e-6
        assert res["inversion_residual"] < 1e-6


def _quad_ray_integral(u_plus, u_minus, t, sign):
    """The boundary weight by adaptive quadrature of exp(-pi G(x)^2)."""

    def integrand(x):
        if abs(x) > 700.0:
            return 0.0
        g = u_plus * math.sinh(x) - u_minus * math.cosh(x)
        return math.exp(-math.pi * min(g * g, 1e300))

    if sign > 0:
        return quad(integrand, t, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return -quad(integrand, -math.inf, t, epsabs=0.0, epsrel=1e-13, limit=500)[0]


def _ray_cases():
    """(u_plus, u_minus, t, sign) on both branches of G, both ray
    directions, rays starting at the turning point x0 of G^2, and points
    whose weight e^(2 pi |Q| v) reaches about 1e10."""
    rng = np.random.default_rng(20121)
    cases = []
    for branch in ("sinh", "cosh"):
        for r_sq in np.geomspace(1e-3, 14.6, 24):
            x0, t = rng.uniform(-2.0, 2.0, 2)
            big, small = math.sqrt(r_sq) * math.cosh(x0), math.sqrt(r_sq) * math.sinh(x0)
            flip = rng.choice((-1.0, 1.0))
            u_plus, u_minus = (big, small) if branch == "sinh" else (small, big)
            cases.append((float(flip * u_plus), float(flip * u_minus), float(t)))
    rays = [(up, um, t, _ray_sign(up, um, t)) for up, um, t in cases]
    # u_minus = 0 (resp. u_plus = 0) puts x0 at 0 exactly: the ray starts
    # at the turning point, where the sign test gives 0, so pass it.
    for up, um in ((1.3, 0.0), (0.0, 1.3), (0.0, -3.8), (0.05, 0.0)):
        rays += [(up, um, 0.0, 1), (up, um, 0.0, -1)]
    return rays


def test_ray_integrals_match_adaptive_quadrature():
    rays = _ray_cases()
    assert all(s != 0 for _, _, _, s in rays)
    assert any(abs(up) > abs(um) for up, um, _, _ in rays)
    assert any(abs(up) < abs(um) for up, um, _, _ in rays)
    for u_plus, u_minus, t0, s in rays:
        value = _ray_integral(u_plus, u_minus, t0, s)
        ref = _quad_ray_integral(u_plus, u_minus, t0, s)
        # The q^Q modulus the integral is multiplied by in the defect:
        # e^(-2 pi Q v), with 4 v Q = u_plus^2 - u_minus^2.
        weight = math.exp(-math.pi * (u_plus**2 - u_minus**2) / 2)
        assert abs(value - ref) * weight <= 1e-12 * max(1.0, abs(ref) * weight), (
            u_plus, u_minus, t0, s, value, ref,
        )
    assert max(math.exp(math.pi * (b * b - a * a) / 2) for a, b, _, _ in rays) > 1e9


@pytest.mark.parametrize("c", [1e-12, 1e-4, 1.0, 30.0, 1e4, 1e8])
def test_ray_integrals_from_the_turning_point(c):
    # From x0 = 0 the integral of exp(-c sinh^2 y) is e^(c/2) K0(c/2) / 2,
    # and exp(-c cosh^2 y) carries a further e^-c.
    half = mpmath.mpf(c) / 2
    ref = float(mpmath.exp(half) * mpmath.besselk(0, half) / 2)
    root = math.sqrt(c / math.pi)
    sinh_branch = _ray_integral(root, 0.0, 0.0, 1)
    cosh_branch = _ray_integral(0.0, root, 0.0, 1)
    assert abs(sinh_branch - ref) <= 1e-13 * ref
    assert abs(cosh_branch - math.exp(-c) * ref) <= 1e-13 * math.exp(-c) * ref


def _legendre_rule_mp(n):
    """The n-point Gauss-Legendre rule to 40 digits: numpy's nodes
    polished by mpmath's root finder, weights 2 / ((1 - x^2) P_n'(x)^2)."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for x0 in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.findroot(lambda z: mpmath.legendre(n, z), mpmath.mpf(x0))
            p, p_prev = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            slope = n * (x * p - p_prev) / (x * x - 1)
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * slope**2)))
    return nodes, weights


def test_gauss_legendre_rule():
    nodes, weights = _gauss_legendre(64)
    np_nodes, np_weights = np.polynomial.legendre.leggauss(64)
    assert max(abs(a - b) for a, b in zip(nodes, np_nodes)) <= 1e-15
    # numpy takes its weights from derivatives at the unpolished
    # eigenvalue roots; they are off the true weights by up to 2.3e-15.
    assert max(abs(a - b) for a, b in zip(weights, np_weights)) <= 4e-15
    mp_nodes, mp_weights = _legendre_rule_mp(64)
    assert max(abs(a - b) for a, b in zip(nodes, mp_nodes)) <= 1e-15
    assert max(abs(a - b) for a, b in zip(weights, mp_weights)) <= 1e-15
    assert abs(sum(weights) - 2.0) <= 1e-14
    # Exact for polynomials up to degree 127.
    moment = sum(w * x**126 for x, w in zip(nodes, weights))
    assert abs(moment - 2.0 / 127.0) <= 1e-14


def _exact_sign(x) -> int:
    return (x > 0) - (x < 0)


def _defect_by_ray_signs(params, tau, exact, lattice_cut=10):
    """completion_defect with the ray directions decided in rationals
    (``exact``) or by the library's float test.

    The float test takes the sign of g_here * g_slope.  That product is
    the product of the boundary and normal pairings below up to a
    positive factor, and it is exactly zero at some lattice points;
    there the float rounding picks the direction.
    """
    form = QuadForm(params.M)
    M = params.M
    u, v = tau.real, tau.imag
    root_v = math.sqrt(v)
    t1, t2 = form.reference_parameter(1), form.reference_parameter(2)
    total = 0j
    for _, r1, r2 in _fraction_points(params, lattice_cut):
        qv = form.value((r1, r2))
        combined = (M * M - 1) * min((r1 + r2) ** 2, (r1 - r2) ** 2) + 2 * qv
        if math.pi * v * float(combined) > 100.0:
            continue
        u_plus = math.sqrt(2.0 * (M + 1)) * float(r1) * root_v
        u_minus = math.sqrt(2.0 * (M - 1)) * float(r2) * root_v
        exact_signs = (
            _exact_sign(-(r1 + r2)) * _exact_sign((M + 1) * r1 + (M - 1) * r2),
            _exact_sign(r1 - r2) * _exact_sign((M + 1) * r1 - (M - 1) * r2),
        )
        float_signs = (_ray_sign(u_plus, u_minus, t1), _ray_sign(u_plus, u_minus, t2))
        # Away from the exact zeros the float test is the exact one.
        assert all(f == e or e == 0 for f, e in zip(float_signs, exact_signs))
        sign1, sign2 = exact_signs if exact else float_signs
        alpha = _ray_integral(u_plus, u_minus, t1, sign1) - _ray_integral(
            u_plus, u_minus, t2, sign2
        )
        phase = unit_phase(float(qv) * u + float(form.bilinear((r1, r2), params.b)))
        total += alpha * (math.exp(-2.0 * math.pi * float(qv) * v) * phase)
    return root_v * total


class TestExactRaySigns:
    """The family 1 and 3 defects come from float ray signs at exact zeros.

    With the ray directions decided exactly, every family's completion
    defect vanishes to rounding, while the off-family control does not.
    """

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    @pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_family_defect_vanishes(self, j, k, ell, tau):
        params = family_params(j, k, ell).params
        assert abs(_defect_by_ray_signs(params, tau, exact=True)) < 1e-13

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    def test_control_defect_stays(self, tau):
        bad = ThetaParams(M=4, a=(F(1, 5), F(1, 7)), b=(F(1, 3), F(1, 11)))
        assert abs(_defect_by_ray_signs(bad, tau, exact=True)) > 1e-3

    def test_float_signs_leave_a_defect(self):
        # Family 3 at (1, 1): the same sum with the float signs, which
        # differ from the exact ones only at exact zeros.
        params = family_params(3, 1, 1).params
        defect = _defect_by_ray_signs(params, 1j, exact=False)
        assert abs(defect) > 1.0
        assert abs(defect - completion_defect(params, 1j)) < 1e-12
