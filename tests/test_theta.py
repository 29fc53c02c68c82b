"""Tests for the indefinite theta layer.

Covers the exact quadratic-form toolkit, the family parameter tables and
their validation, the two-region theta series against an independent
brute-force enumeration, the closed lattice expansions of the series
families, the embedding of each family into its theta series, and the
numeric waveform / completion-defect layer including the modular
transformation spot checks.
"""

import cmath
import hashlib
import json
import fractions
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import negate_variable

from qmaass import PrecisionError, QSeries, QSeriesError
from qmaass.bailey import quadratic_shift
from qmaass.bessel import k0_bessel
from qmaass.cyclotomic import CycNumber
from qmaass.families import FAMILIES, _affine, _kept_nus, family_series, sigma_series, sigma_star_series
from qmaass.reports import CheckReport
from qmaass.theta import (
    COHEN_LATTICE,
    QuadForm,
    ThetaParams,
    _bounded,
    _denominators,
    _equivalent,
    _family_shell,
    _frac_pair,
    _gauss_legendre,
    _lattice_table,
    _lattice_walk,
    _over_common,
    _param_checks,
    _ray_integral,
    _ray_sign,
    _shell_walk,
    _waveform_tail,
    completion_defect,
    family_lattice_numeric,
    family_lattice_series,
    family_params,
    indefinite_theta_series,
    star,
    unit_phase,
    validate_family_params,
    validate_params,
    verify_family_lattice,
    verify_theta_embedding,
    waveform_numeric,
)

F = Fraction


class FractionForm(QuadForm):
    """QuadForm with the Fraction-only helpers the validation used before
    it moved to integer numerators, the form's and the automorph's
    matrices, and the float reference vectors."""

    @property
    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.M + 1, 0), (0, 1 - self.M))

    @property
    def automorph(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The determinant-one integer matrix preserving the form."""
        M = self.M
        return ((M, M - 1), (M + 1, M))

    def bilinear(self, r, s) -> Fraction:
        x, y = _frac_pair(r)
        u, w = _frac_pair(s)
        return (self.M + 1) * x * u - (self.M - 1) * y * w

    def apply_automorph(self, v) -> tuple[Fraction, Fraction]:
        x, y = _frac_pair(v)
        M = self.M
        return (M * x + (M - 1) * y, (M + 1) * x + M * y)

    def reference_vector(self, which: int) -> tuple[float, float]:
        """The norm -1 vectors ((-1)^which (M-1), M+1)/sqrt(M^2-1)."""
        self._check_ref_index(which)
        M = self.M
        root = math.sqrt(M * M - 1)
        sign = -1.0 if which == 1 else 1.0
        return (sign * (M - 1) / root, (M + 1) / root)

    def curve_point(self, t: float) -> tuple[float, float]:
        """The norm -1 curve (sqrt(2/(M+1)) sinh t, sqrt(2/(M-1)) cosh t)."""
        M = self.M
        return (
            math.sqrt(2.0 / (M + 1)) * math.sinh(t),
            math.sqrt(2.0 / (M - 1)) * math.cosh(t),
        )


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
        form = FractionForm(M)
        for which in (1, 2):
            c = form.reference_vector(which)
            val = (M + 1) / 2 * c[0] ** 2 - (M - 1) / 2 * c[1] ** 2
            assert abs(val + 1.0) < 1e-12

    @pytest.mark.parametrize("M", [2, 3, 4, 10, 23])
    def test_reference_vectors_pair_to_minus_two_m(self, M):
        form = FractionForm(M)
        c1 = form.reference_vector(1)
        c2 = form.reference_vector(2)
        val = (M + 1) * c1[0] * c2[0] - (M - 1) * c1[1] * c2[1]
        assert abs(val + 2 * M) < 1e-11

    @pytest.mark.parametrize("M", [2, 3, 4, 10])
    def test_curve_passes_through_reference_vectors(self, M):
        form = FractionForm(M)
        for which in (1, 2):
            t = form.reference_parameter(which)
            p = form.curve_point(t)
            c = form.reference_vector(which)
            assert math.hypot(p[0] - c[0], p[1] - c[1]) < 1e-12
        assert form.reference_parameter(2) > form.reference_parameter(1)

    @pytest.mark.parametrize("M", range(2, 51))
    def test_automorph_properties(self, M):
        form = FractionForm(M)
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
        # Exactly: sqrt(M^2 - 1) c_1 = (1 - M, M + 1) goes to sqrt(M^2 - 1) c_2.
        assert QuadForm(M).apply_automorph((1 - M, M + 1)) == (M - 1, M + 1)
        # The integer map is the matrix: its columns are the images of the units.
        columns = QuadForm(M).apply_automorph((1, 0)), QuadForm(M).apply_automorph((0, 1))
        assert columns == tuple(zip(*g))

    @pytest.mark.parametrize("M", [2, 3, 7])
    def test_pairings_match_float_reference_vectors(self, M):
        form = FractionForm(M)
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
            FractionForm(2).reference_vector(3)


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
        payload = _family_row(d)
        assert payload["j"] == 2 and payload["M"] == 11
        assert payload["a"] == ["1/3", "3/10"]
        assert payload["alpha"] == str(d.alpha)
        assert json.loads(json.dumps(payload)) == payload


def _family_row(d) -> dict:
    """The fields of family data, exact values as strings, in the order
    the locked digests were recorded with."""
    p = d.params
    return {
        "j": d.j,
        "k": d.k,
        "ell": d.ell,
        "M": p.M,
        "a": [str(c) for c in p.a],
        "b": [str(c) for c in p.b],
        "alpha": str(d.alpha),
        "scale": str(d.scale),
        "power": d.power,
    }


# sha256 per family of (a) _family_row(family_params(j, k, ell)) for
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
        _family_row(family_params(j, k, ell))
        for k in range(1, 11)
        for ell in range(1, k + 1)
    ]
    lattice = [
        [k, ell, [[str(e), str(c)] for e, c in family_lattice_series(j, k, ell, 150).terms()]]
        for k in range(1, 6)
        for ell in range(1, k + 1)
    ]
    assert (_sha256_json(params), _sha256_json(lattice)) == _LOCKED_FAMILY_DIGESTS[j]


def _with(record, **changes):
    """``record`` with some fields changed, built (and checked) again by its
    constructor; an unknown field name raises TypeError."""
    return type(record)(**{**vars(record), **changes})


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_tampered_family_record_fails_both_checks(j, monkeypatch):
    # The record keeps a1 over 2(M + 1): one more in its constant moves it
    # by 1 / (2(M + 1)), and both checks must notice.
    k, ell = 2, 1
    before = family_params(j, k, ell).params
    slope, constant = FAMILIES[j].a1
    moved = _with(FAMILIES[j], a1=(slope, constant + 1))
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


# ------------------------------------ Fraction reference for the validation
# The validation as it stood before it moved to integer numerators, kept
# as the oracle of the integer checks: the same code on Fraction pairs,
# with the Fraction helpers of FractionForm.


def reference_star(v) -> tuple[Fraction, Fraction]:
    """The reflection (x1, x2) -> (-x1, x2)."""
    x, y = _frac_pair(v)
    return (-x, y)


def reference_equivalence_check(pair1, pair2, M: int) -> bool:
    """Whether shift/twist pairs (a, b) and (alpha, beta) are equivalent.

    Requires a +- alpha integral and b +- beta =: mu integral with the
    same sign choice in both, and B(a, mu) an integer.
    """
    form = FractionForm(M)
    a, b = _frac_pair(pair1[0]), _frac_pair(pair1[1])
    al, be = _frac_pair(pair2[0]), _frac_pair(pair2[1])
    for sign in (1, -1):
        da = (a[0] + sign * al[0], a[1] + sign * al[1])
        mu = (b[0] + sign * be[0], b[1] + sign * be[1])
        if all(c.denominator == 1 for c in da + mu):
            if form.bilinear(a, mu).denominator == 1:
                return True
    return False


def equivalence_check(pair1, pair2, M: int) -> bool:
    """Whether shift/twist pairs (a, b) and (alpha, beta) are equivalent.

    Requires a +- alpha integral and b +- beta =: mu integral with the
    same sign choice in both, and B(a, mu) an integer.
    """
    D, (a, alpha) = _over_common(pair1[0], pair2[0])
    E, (b, beta) = _over_common(pair1[1], pair2[1])
    return _equivalent(QuadForm(M), a, alpha, D, b, beta, E)


def reference_offset(u, v):
    """The integer c with u + c (1, 1) = v, or None."""
    c = v[0] - u[0]
    return int(c) if c.denominator == 1 and v[1] - u[1] == c else None


def reference_validate_params(M: int, a, b) -> tuple[str, dict, tuple, object]:
    """(status, details, shifts, pairing): every condition of the validation on
    Fraction pairs a and b, with the Fraction helpers of FractionForm, the
    shifts (s1, s2) and the pairing derived as the validation derives them.

    Checks the shift window, the automorph congruences, the bilinear
    integrality, the automorph matrix properties, the float map of the
    first reference vector onto the second, the half-integer phase
    collapse, and which equivalence branch holds.
    """
    a, b = _frac_pair(a), _frac_pair(b)
    form = FractionForm(M)
    gamma = form.apply_automorph

    checks: dict[str, bool] = {}

    s, d = a[0] + a[1], a[0] - a[1]
    checks["shift_window"] = 0 < s < 1 and d.denominator != 1
    checks["shift_nonzero"] = a != (Fraction(0), Fraction(0))

    a_star, b_star = reference_star(a), reference_star(b)
    # g(a) + s1 (1, 1) = a* and g(a*) + s2 (1, 1) = a, or g(a) + s (1, 1) = a
    shifts = reference_offset(gamma(a), a_star), reference_offset(gamma(a_star), a)
    checks["shift_congruence"] = None not in shifts or reference_offset(gamma(a), a) is not None
    checks["twist_congruence"] = reference_offset(gamma(b), b_star) == -1 and gamma(b_star) == b

    pairing = form.bilinear(a, (-1, -1))
    checks["bilinear_integrality"] = pairing.denominator == 1

    g = form.automorph
    A = form.matrix
    checks["automorph_det"] = g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1
    conjugated = tuple(
        tuple(
            sum(g[i][r] * A[i][jj] * g[jj][c] for i in range(2) for jj in range(2))
            for c in range(2)
        )
        for r in range(2)
    )
    checks["automorph_preserves_form"] = conjugated == A

    c1 = form.reference_vector(1)
    mapped = [row[0] * c1[0] + row[1] * c1[1] for row in g]
    c2 = form.reference_vector(2)
    checks["automorph_maps_reference_vectors"] = math.dist(mapped, c2) < 1e-12

    checks["phase_collapse"] = (M + 1) * b[0] == (M - 1) * b[1] == Fraction(1, 2)

    branch_direct = reference_equivalence_check((gamma(a), gamma(b)), (a, b), M)
    branch_star = reference_equivalence_check(
        (gamma(a), gamma(b)), (a_star, b_star), M
    ) and reference_equivalence_check((gamma(a_star), gamma(b_star)), (a, b), M)
    checks["equivalence_branch"] = branch_direct or branch_star

    status = "pass" if all(checks.values()) else "fail"
    details: dict[str, object] = dict(checks)
    details["equivalence_direct"] = branch_direct
    details["equivalence_starred"] = branch_star
    return status, details, shifts, int(pairing) if pairing.denominator == 1 else None


def reference_validate_family_params(j: int, k: int, ell: int) -> CheckReport:
    """The report of validate_family_params, from reference_validate_params
    on the family's Fraction parameters."""
    p = family_params(j, k, ell).params
    status, details, _, _ = reference_validate_params(p.M, p.a, p.b)
    return CheckReport(
        check="family_theta_params",
        params={"j": j, "k": k, "ell": ell, "M": p.M},
        status=status,
        details=details,
    )


def reference_validate_theta_params(M: int, a, b) -> CheckReport:
    """The report of validate_params, from reference_validate_params."""
    status, details, shifts, pairing = reference_validate_params(M, a, b)
    return CheckReport(
        check="theta_params",
        params={"M": M, "a": _frac_pair(a), "b": _frac_pair(b)},
        status=status,
        details={**details, "shifts": list(shifts), "pairing": pairing},
    )


def _same_report(got, expected) -> bool:
    """Equal reports, with the detail keys in the same order."""
    return got == expected and list(got.details) == list(expected.details)


def test_integer_validation_matches_reference_up_to_k30():
    for j in FAMILIES:
        for k in range(1, 31):
            for ell in range(1, k + 1):
                got = validate_family_params(j, k, ell)
                assert _same_report(got, reference_validate_family_params(j, k, ell))
                assert got.ok


# The shifts (s1, s2) and the pairing each family record used to carry, as
# affine forms in (k, ell), before validation derived them from a and b.
# Family 4 has a = a* and carried s2 as None, for g(a) + s1 (1, 1) = a;
# the starred form g(a*) + s2 (1, 1) = a then holds with s2 = s1.
_FORMER_RECORD_FORMS = {
    1: ((-2, 1, -1), (0, 1, 0), (0, -1, 0)),
    2: ((-4, 2, -1), (0, 2, -1), (0, -2, 1)),
    3: ((-1, 1, 0), (-1, 1, -1), (1, -1, 1)),
    4: ((-2, 2, -1), (-2, 2, -1), (2, -2, 1)),
}


def test_validate_params_agrees_with_the_family_validation_up_to_k10():
    for j, forms in _FORMER_RECORD_FORMS.items():
        for k in range(1, 11):
            for ell in range(1, k + 1):
                params = family_params(j, k, ell).params
                got = validate_params(params)
                family = validate_family_params(j, k, ell)
                assert got.ok and family.ok
                assert list(got.details)[:12] == list(family.details)
                assert all(got.details[key] is value for key, value in family.details.items())
                s1, s2, pairing = (_affine(form, k, ell) for form in forms)
                assert got.details["shifts"] == [s1, s2]
                assert got.details["pairing"] == pairing
                assert _same_report(got, reference_validate_theta_params(params.M, params.a, params.b))


def test_validate_params_passes_cohen_lattice():
    # Cohen's example as the lattice M = 5: g(a) - (1, 1) = a*,
    # g(a*) + (1, 1) = a, g(b) - (1, 1) = b*, g(b*) = b, B(a, (-1, -1)) = -1.
    params = COHEN_LATTICE
    assert (params.M, params.a, params.b) == (5, (F(1, 6), 0), (F(1, 12), F(1, 8)))
    rep = validate_params(params)
    assert rep.ok, rep.details
    assert rep.check == "theta_params"
    assert (rep.details["shifts"], rep.details["pairing"]) == ([-1, 1], -1)
    assert rep.details["equivalence_starred"] and not rep.details["equivalence_direct"]
    assert rep.to_json_dict()["params"] == {"M": 5, "a": ["1/6", "0"], "b": ["1/12", "1/8"]}
    assert _same_report(rep, reference_validate_theta_params(params.M, params.a, params.b))


@pytest.mark.parametrize("T", [1, 2, 37, 400])
def test_cohen_lattice_theta_is_sigma_at_q_squared(T):
    # The theta series of Cohen's lattice is q^(1/12) sigma(q^2), with
    # sigma from its Pochhammer route, which reads no lattice.
    theta = indefinite_theta_series(COHEN_LATTICE, F(1, 12) + 2 * T)
    sigma = sigma_series("pochhammer", T).compose_power(2).shift(F(1, 12))
    assert theta == sigma
    assert theta.num_terms() == sigma.num_terms() > 0


def test_validate_params_fails_the_off_family_control():
    # The control of `verify completion`, whose defect must not vanish.
    params = ThetaParams(4, (F(1, 5), F(1, 7)), (F(1, 3), F(1, 11)))
    rep = validate_params(params)
    assert rep.status == "fail"
    failed = {key for key, value in rep.details.items() if value is False}
    assert {"shift_congruence", "bilinear_integrality", "phase_collapse"} <= failed
    assert (rep.details["shifts"], rep.details["pairing"]) == ([None, None], None)
    assert _same_report(rep, reference_validate_theta_params(params.M, params.a, params.b))


def _param_checks_of(M: int, a, b) -> tuple:
    """theta._param_checks on the integer numerators of Fraction pairs a, b."""
    (D, (A,)), (E, (B,)) = _over_common(_frac_pair(a)), _over_common(_frac_pair(b))
    return _param_checks(M, A, D, B, E)


def _family_denominator(M: int, k: int) -> int:
    """D with a = A / D for a family's a = (a1 / (2(M + 1)), (2k - 2ell + 1) / (4k + 2))."""
    return math.lcm(2 * (M + 1), 4 * k + 2)


@st.composite
def _perturbed_params(draw):
    """(M, a, b): a family's parameters at some (k, ell) with each part kept
    or perturbed: M redrawn, each entry of a moved by a multiple of 1/D
    (:func:`_family_denominator`) or by an integer, each entry of b scaled by -1, 2, 1/2 or
    -2 or redrawn."""
    j = draw(st.sampled_from(sorted(FAMILIES)))
    k = draw(st.integers(1, 12))
    ell = draw(st.integers(1, k))
    p = family_params(j, k, ell).params
    D = _family_denominator(p.M, k)

    def either(kept, *others):  # shrinks towards the family's own value
        return draw(st.one_of(st.just(kept), *others))

    M = either(p.M, st.integers(2, 40))
    a = tuple(
        either(
            c,
            st.integers(-2, 2).map(lambda n, c=c: c + F(n, D)),
            st.integers(-1, 1).map(lambda n, c=c: c + n),
        )
        for c in p.a
    )
    b = tuple(
        either(
            c,
            st.sampled_from((-1, 2, F(1, 2), -2)).map(lambda r, c=c: c * r),
            st.builds(F, st.integers(-9, 9), st.integers(1, 30)),
        )
        for c in p.b
    )
    return M, a, b


@settings(max_examples=200, deadline=None)
@given(case=_perturbed_params())
def test_integer_validation_matches_reference_on_tampered_records(case):
    # Perturbed (M, a, b), checked on integers and on Fractions alike.
    M, a, b = case
    status, details, shifts, pairing = _param_checks_of(M, a, b)
    expected = reference_validate_params(M, a, b)
    assert (status, details, shifts, pairing) == expected and list(details) == list(expected[1])
    a1, a2 = _frac_pair(a)
    if (a1 + a2).denominator != 1 and (a1 - a2).denominator != 1:
        assert _same_report(validate_params(ThetaParams(M, a, b)), reference_validate_theta_params(M, a, b))
    else:
        # ThetaParams refuses a1 +- a2 integral, which the checks report
        # as a failed window
        assert not details["shift_window"] and status == "fail"


# find() settings for the tests that show a strategy reaches a branch: a
# fixed seed, and no shrinking, since any example shows it.
_FIND = settings(max_examples=2000, database=None, phases=[Phase.generate], derandomize=True)

# The checks that read a or b.  shift_nonzero reads a too, but no family
# has a = 0: a2 = (2k - 2ell + 1) / (4k + 2) is never zero.
_RECORD_KEYS = (
    "shift_window",
    "shift_congruence",
    "twist_congruence",
    "bilinear_integrality",
    "phase_collapse",
    "equivalence_branch",
)


@pytest.mark.parametrize("key", _RECORD_KEYS)
@pytest.mark.parametrize("value", [True, False])
def test_tampered_records_reach_both_branches(key, value):
    # The property above sees every check that reads a or b pass and fail.
    find(
        _perturbed_params(),
        lambda case: _param_checks_of(*case)[1][key] is value,
        settings=_FIND,
    )


@st.composite
def _equivalence_cases(draw):
    """((a, b), (alpha, beta), M): alpha is either unrelated to a or
    sign (n - a) for an integer vector n, so that a + sign alpha is
    integral, plus on each entry maybe a nudge by a fraction whose
    denominator (7, 11 or 13) a does not have; beta likewise."""
    M = draw(st.integers(2, 12))
    entry = st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-30, 30), st.sampled_from((2, 3, 4, 5, 6, 10, 12))),
    )
    nudge = st.one_of(
        st.just(0), st.builds(Fraction, st.integers(1, 6), st.sampled_from((7, 11, 13)))
    )
    a, b = (draw(entry), draw(entry)), (draw(entry), draw(entry))
    sign = draw(st.sampled_from((1, -1)))

    def partner(v):
        if draw(st.booleans()):
            return (draw(entry), draw(entry))
        n = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        return (sign * (n[0] - v[0]) + draw(nudge), sign * (n[1] - v[1]) + draw(nudge))

    return (a, b), (partner(a), partner(b)), M


@settings(max_examples=200, deadline=None)
@given(case=_equivalence_cases())
def test_equivalence_check_matches_reference(case):
    pair1, pair2, M = case
    assert equivalence_check(pair1, pair2, M) is reference_equivalence_check(pair1, pair2, M)


# a = (1/3, 1/4) and b = (1/2, 1/5): each pair's entries have unequal
# denominators, and D = 12 for a differs from E = 10 for b.
_A, _B = (F(1, 3), F(1, 4)), (F(1, 2), F(1, 5))


@pytest.mark.parametrize(
    "partner, M, expected",
    [
        # a + alpha = (1, 1), b + beta = (1, 1), B(a, (1, 1)) = 6/3 - 4/4
        (((F(2, 3), F(3, 4)), (F(1, 2), F(4, 5))), 5, True),
        # the same sums, but B(a, (1, 1)) = 5/3 - 3/4 at M = 4
        (((F(2, 3), F(3, 4)), (F(1, 2), F(4, 5))), 4, False),
        # a - alpha = (1, -2), b - beta = (1, 0), B(a, (1, 0)) = 6/3
        (((F(-2, 3), F(9, 4)), (F(-1, 2), F(1, 5))), 5, True),
        # a - alpha = (1, -2), b - beta = (1, 0), B(a, (1, 0)) = 4/3 at M = 3
        (((F(-2, 3), F(9, 4)), (F(-1, 2), F(1, 5))), 3, False),
        # alpha over 84 and beta over 70: no sign makes either sum integral
        (((F(2, 3), F(3, 4) + F(1, 7)), (F(1, 2), F(4, 5) + F(1, 7))), 5, False),
        # integer entries in the partner pair
        (((F(-1, 3), 3), (F(1, 2), F(-1, 5))), 5, False),
    ],
)
def test_equivalence_check_on_unequal_denominators(partner, M, expected):
    assert equivalence_check((_A, _B), partner, M) is expected
    assert reference_equivalence_check((_A, _B), partner, M) is expected


# Named perturbations of (a, b) per check key, each of which must make the
# key read false and the report fail.  D = lcm(2(M + 1), 4k + 2) is the
# denominator of a family's a, as Family writes it.
# automorph_det, automorph_preserves_form and
# automorph_maps_reference_vectors read the form alone and hold for every
# M >= 2, so no perturbation can make them fail.
_WITNESSES = {
    # a1 + a2 moved past 1
    "shift_window": lambda a, b, D: [((a[0] + 1, a[1]), b)],
    # a off by 1/D in either coordinate
    "shift_congruence": lambda a, b, D: [((a[0] + F(1, D), a[1]), b), ((a[0], a[1] + F(1, D)), b)],
    "bilinear_integrality": lambda a, b, D: [((a[0] + F(1, D), a[1]), b), ((a[0], a[1] + F(1, D)), b)],
    # b1 -> -b1; and b -> (2 b1, 0), which keeps g(b) - (1, 1) = b* but
    # not g(b*) = b
    "twist_congruence": lambda a, b, D: [(a, (-b[0], b[1])), (a, (2 * b[0], 0))],
    # b -> 2b, so (M + 1) b1 = 1 and not 1/2
    "phase_collapse": lambda a, b, D: [(a, (2 * b[0], 2 * b[1]))],
    # b1 -> b1 / 2
    "equivalence_branch": lambda a, b, D: [(a, (b[0] / 2, b[1]))],
}


@pytest.mark.parametrize("key", sorted(_WITNESSES))
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_a_tampered_record_fails_each_check(key, j):
    # Each named perturbation of family j's a or b fails its check.
    for k, ell in ((1, 1), (2, 1), (3, 2)):
        p = family_params(j, k, ell).params
        for a, b in _WITNESSES[key](p.a, p.b, _family_denominator(p.M, k)):
            rep = validate_params(ThetaParams(p.M, a, b))
            assert rep.details[key] is False and rep.status == "fail", (k, ell, a, b, rep.details)
            assert _same_report(rep, reference_validate_theta_params(p.M, a, b))


@pytest.mark.parametrize("M, a", [(7, (F(1, 4), F(1, 4))), (4, (F(3, 4), F(-1, 4)))])
def test_window_fails_an_integral_difference(M, a):
    # 0 < a1 + a2 < 1, but a1 - a2 is an integer: lattice points would lie
    # on the cone's boundary.  ThetaParams refuses such an a; the integer
    # checks report the window failed.
    b = (F(1, 2 * (M + 1)), F(1, 2 * (M - 1)))
    got = _param_checks_of(M, a, b)
    assert got[0] == "fail" and got[1]["shift_window"] is False
    assert got == reference_validate_params(M, a, b)
    with pytest.raises(QSeriesError, match="non-integral"):
        ThetaParams(M, a, b)


def _fraction_calls(func, points) -> int:
    """Python-level calls into the fractions module while func runs on points."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        for point in points:
            func(*point)
    finally:
        sys.setprofile(None)
    return calls


def test_validation_makes_no_fraction_calls_beyond_family_params():
    grid = [(j, k, ell) for j in FAMILIES for k in range(1, 11) for ell in range(1, k + 1)]
    assert _fraction_calls(family_params, grid) > 0
    assert _fraction_calls(validate_family_params, grid) <= _fraction_calls(family_params, grid)


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

    def test_takes_the_params_of_family_data(self):
        # Family data is not theta parameters: its ``params`` are.
        d = family_params(4, 1, 1)
        for call in (indefinite_theta_series, waveform_numeric, completion_defect):
            with pytest.raises(AttributeError):
                call(d, 5 if call is indefinite_theta_series else 1j)
        assert indefinite_theta_series(d.params, 5) == family_lattice_series(4, 1, 1, 5).compose_power(
            d.power
        ).shift(d.alpha).scale(d.scale).truncate(5)


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
    total = 0j
    for _, r1, r2 in _fraction_points(params, cut):
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
        total += weight * unit_phase(
            float(qv) * u + float(form.bilinear((r1, r2), params.b))
        )
    root_v = math.sqrt(v)
    return _bounded(root_v * total, root_v * _waveform_tail(params, v, cut))


def _defect_by_fractions(params, tau, cut):
    form = QuadForm(params.M)
    M, u, v = params.M, tau.real, tau.imag
    root_v = math.sqrt(v)
    t1, t2 = form.reference_parameter(1), form.reference_parameter(2)
    total = 0j
    for shell, r1, r2 in _fraction_points(params, cut):
        qv = form.value((r1, r2))
        combined = (M * M - 1) * min((r1 + r2) ** 2, (r1 - r2) ** 2) + 2 * qv
        if math.pi * v * float(combined) > 100.0:
            continue
        if shell == cut:
            raise PrecisionError(f"lattice cut {cut} is too short for the completion defect at tau = {tau}")
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
        # The defect refuses a cut that keeps a point of its outer shell,
        # as most cuts up to 6 do; it accepts about two in three from 7 to 12.
        assert _outcome(completion_defect, params, tau, cut + 6) == _outcome(
            _defect_by_fractions, params, tau, cut + 6
        )

    @settings(max_examples=40, deadline=None)
    @given(_theta_params(), st.builds(F, st.integers(1, 24), st.integers(1, 3)))
    def test_theta_series_matches_fraction_keys(self, params, trunc):
        # The box holds every term: in the cone r1^2 < Q(r) < trunc, so
        # |a1 + n| < sqrt(trunc), and |a2 + nu| < |a1 + n|.
        box = math.isqrt(math.ceil(trunc)) + 4 + max(math.ceil(abs(c)) for c in params.a)
        mine = indefinite_theta_series(params, trunc)
        brute = _brute_force_theta(params, trunc, box)
        assert mine == brute and mine.denom == brute.denom

    @settings(max_examples=40, deadline=None)
    @given(_theta_params(), st.builds(F, st.integers(1, 24), st.integers(1, 3)))
    def test_theta_series_visits_only_the_points_it_keeps(self, params, trunc):
        # The nu ranges the series reads hold exactly the lattice points of
        # the cone with exponent below trunc: none is visited and dropped.
        visited = []

        def counted(*args):
            ranges = _kept_nus(*args)
            visited.extend(len(nus) for nus in ranges)
            return ranges

        # patch, not monkeypatch: a function-scoped fixture trips the health check
        with patch("qmaass.families._kept_nus", counted):
            indefinite_theta_series(params, trunc)
        form, (a1, a2) = QuadForm(params.M), params.a
        box = math.isqrt(math.ceil(trunc)) + 1 + max(math.ceil(abs(c)) for c in params.a)
        points = [(a1 + n, a2 + nu) for n in range(-box, box + 1) for nu in range(-box, box + 1)]
        kept = [r for r in points if r[0] ** 2 > r[1] ** 2 and form.value(r) < trunc]
        assert sum(visited) == len(kept)

    @settings(max_examples=60, deadline=None)
    @given(_theta_params())
    def test_main_cone_is_the_floor_based_regions(self, params):
        # The two regions of the theta series, as the floor-based tests on
        # n +- nu described them, are the lattice points with r1^2 > r2^2.
        a1, a2 = params.a
        fl_plus, fl_minus = math.floor(a1 + a2), math.floor(a1 - a2)
        for n, nu, x, y, _, _ in _lattice_walk(params, 8):
            upper = n + nu >= -fl_plus and n - nu >= -fl_minus
            lower = n + nu < -fl_plus and n - nu < -fl_minus
            assert (upper or lower) == (x * x > y * y), (params, n, nu)

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
        s = family_lattice_series(1, 1, 1, 6)
        assert [s.coeff(e) for e in range(6)] == [1, -1, 1, 1, -1, -1]

    def test_fourth_family_ties_to_odd_divisor_partner(self):
        # The k = ell = 1 member equals minus the odd-indexed partner
        # series with q negated.
        lhs = family_lattice_series(4, 1, 1, 60)
        rhs = negate_variable(sigma_star_series("alternating", 60)).scale(-1)
        assert lhs == rhs

    def test_numeric_route_matches_exact_series(self):
        for j in (1, 2, 3, 4):
            exact = family_series(j, 1, 1, 45)
            q = unit_phase(F(1, 3)) * math.exp(-2.0)
            direct = sum(
                complex(c) * q ** int(e) for e, c in exact.terms()
            )
            (via_lattice,) = family_lattice_numeric(j, 1, 1, F(1, 3), [2.0])
            assert abs(direct - via_lattice) < 1e-12

    def test_numeric_route_rejects_bad_radius(self):
        with pytest.raises(QSeriesError):
            family_lattice_numeric(1, 1, 1, F(0), [0.0])
        with pytest.raises(QSeriesError):
            family_lattice_numeric(1, 1, 1, F(0), [0.5, -0.1])
        with pytest.raises(QSeriesError):
            family_lattice_numeric(1, 1, 1, F(0), [])

    @pytest.mark.parametrize("t", [0.99 * 34.5388 / 2**20, 1e-7, 5e-324])
    def test_numeric_route_refuses_a_table_past_its_cap(self, t):
        # The table holds floor(-log(1e-15) / t) + 1 coefficients; past
        # 2^20 of them the call refuses before it allocates any.
        tracemalloc.start()
        try:
            with pytest.raises(PrecisionError, match=r"t = .* needs a table of .* coefficients"):
                family_lattice_numeric(1, 1, 1, F(1, 3), [0.5, t])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_numeric_route_takes_the_finest_test_grid(self):
        # t = 1/8192, the finest radial grid point of the tests, needs
        # 282,942 coefficients: under the cap.
        (value,) = family_lattice_numeric(1, 1, 1, F(1, 3), [1 / 8192])
        assert cmath.isfinite(value)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    @pytest.mark.parametrize("k, ell", [(1, 1), (2, 1), (2, 2)])
    def test_numeric_route_matches_termwise_reference(self, j, k, ell):
        for x in (F(0), F(1, 3), F(2, 7)) + HUGE_PHASES:
            for t in (0.5, 0.01):
                ref = _numeric_reference(j, k, ell, x, t)
                (got,) = family_lattice_numeric(j, k, ell, x, [t])
                assert abs(got - ref) <= 1e-12 * (1 + abs(ref)), (x, t)

    def test_grid_call_equals_pointwise_calls(self):
        grid = [0.125 * 0.5**i for i in range(8)]
        for j in (1, 2, 3, 4):
            for x in (F(1, 5),) + HUGE_PHASES:
                values = family_lattice_numeric(j, 2, 1, x, grid)
                assert len(values) == len(grid)
                for t, value in zip(grid, values):
                    (single,) = family_lattice_numeric(j, 2, 1, x, [t])
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
        (got,) = family_lattice_numeric(j, k, ell, x, [t])
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
                coeffs, got_denom = _lattice_table(j, k, ell, top)
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
        # The walk stops at the first empty cut shell: a shell cut below top
        # is empty exactly when its least exponent reaches top, and that
        # least exponent never decreases from one shell to the next.
        k, ell = k_ell
        n += 0 if j in (1, 2) else 1
        floor = min(e for e, _ in _shell_reference(j, k, ell, n))
        assert not _family_shell(j, k, ell, n, floor)[0]
        assert _family_shell(j, k, ell, n, floor + 1)[0]
        assert min(e for e, _ in _shell_reference(j, k, ell, n + 1)) >= floor

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
        value, tail = waveform_numeric(d.params, 1j, 12)
        normalized = unit_phase(-off) * value
        assert abs(normalized.imag) < 1e-10
        assert normalized.real > 0
        assert 0 <= tail < 1e-100

    def test_real_after_phase_normalization_fourth_family(self):
        d = family_params(4, 1, 1)
        form = QuadForm(d.params.M)
        off = form.bilinear(d.params.a, d.params.b) % 1
        value, _ = waveform_numeric(d.params, 1j, 12)
        assert abs((unit_phase(-off) * value).imag) < 1e-10

    def test_lattice_cut_stability(self):
        d = family_params(1, 1, 1)
        w1, _ = waveform_numeric(d.params, 0.3 + 0.8j, 12)
        w2, _ = waveform_numeric(d.params, 0.3 + 0.8j, 17)
        assert abs(w1 - w2) < 1e-12

    def test_rejects_lower_half_plane(self):
        d = family_params(1, 1, 1)
        with pytest.raises(QSeriesError):
            waveform_numeric(d.params, 1 - 1j, 8)

    def test_tail_bound_above_the_value_is_refused(self):
        params = ThetaParams(M=4, a=(F(1, 5), F(1, 7)), b=(F(1, 3), F(1, 11)))
        with pytest.raises(PrecisionError, match="tail bound"):
            waveform_numeric(params, 1e-4j, 2)
        value, tail = waveform_numeric(params, 1j, 2)
        assert 0 < tail < abs(value)

    @settings(max_examples=30, deadline=None)
    @given(_theta_params(), _taus, st.integers(1, 8))
    def test_tail_bound_covers_a_larger_cut(self, params, tau, cut):
        # Each sum is within its tail bound of the full one, so two sums
        # are within the sum of their bounds (plus rounding).
        with patch("qmaass.theta._bounded", lambda value, tail: (value, tail)):
            near, tail = waveform_numeric(params, tau, cut)
            far, far_tail = waveform_numeric(params, tau, cut + 20)
        assert abs(near - far) <= tail + far_tail + 1e-12 * (1 + abs(far))

    def test_k0_is_below_the_bound_the_tail_uses(self):
        for i in range(-30, 29):
            x = 10.0 ** (i / 10)
            assert k0_bessel(x) <= math.sqrt(math.pi / (2 * x)) * math.exp(-x), x

    @pytest.mark.parametrize("cut", [0, -2])
    def test_rejects_nonpositive_lattice_cut(self, cut):
        d = family_params(1, 1, 1)
        with pytest.raises(QSeriesError):
            waveform_numeric(d.params, 1j, cut)
        with pytest.raises(QSeriesError):
            completion_defect(d.params, 1j, cut)


def completed_waveform_numeric(params, tau: complex, lattice_cut: int = 12) -> complex:
    """Waveform plus completion defect: the modular completion, numerically."""
    value, _ = waveform_numeric(params, tau, lattice_cut)
    return value + completion_defect(params, tau, lattice_cut)


def modular_spotcheck_m2(
    a, b, tau: complex = 1j, lattice_cut: int = 12
) -> dict[str, float]:
    """Numeric residuals of the transformation laws at M = 2.

    Checks the completed waveform against its shift law (tau -> tau + 1,
    with the twist moved to a + b + (1/2, 1/2) and an explicit phase)
    and its inversion law (tau -> -1/tau, averaging the three residue
    classes of the inverse form matrix).  Returns both absolute
    residuals; for honest parameters both sit at quadrature precision.
    """
    M = 2
    form = QuadForm(M)
    params = ThetaParams(M=M, a=_frac_pair(a), b=_frac_pair(b))
    a_v, b_v = params.a, params.b

    # Shift law.  The matrix diagonal is (M+1, 1-M); applying the inverse
    # matrix to it gives (1, 1), so the twist shift is (1/2, 1/2).
    new_b = (a_v[0] + b_v[0] + Fraction(1, 2), a_v[1] + b_v[1] + Fraction(1, 2))
    lhs = completed_waveform_numeric(params, tau + 1.0, lattice_cut)
    phase_arg = -form.value(a_v) - Fraction(1, 2) * form.bilinear((1, 1), a_v)
    rhs = unit_phase(phase_arg % 1) * completed_waveform_numeric(
        ThetaParams(M=M, a=a_v, b=new_b), tau, lattice_cut
    )
    shift_residual = abs(lhs - rhs)

    # Inversion law.  The inverse matrix maps the integer lattice onto
    # multiples of (1/3, 1), so the residues mod Z^2 are (p/3, 0).
    lhs2 = completed_waveform_numeric(params, -1.0 / tau, lattice_cut)
    total = 0.0 + 0.0j
    for p in range(3):
        shifted = ThetaParams(M=M, a=(Fraction(p, 3) - b_v[0], -b_v[1]), b=a_v)
        total += completed_waveform_numeric(shifted, tau, lattice_cut)
    rhs2 = unit_phase(form.bilinear(a_v, b_v) % 1) / math.sqrt(3.0) * total
    inversion_residual = abs(lhs2 - rhs2)
    return {
        "shift_residual": shift_residual,
        "inversion_residual": inversion_residual,
    }


class TestCompletionDefect:
    @pytest.mark.parametrize("j", [1, 4])
    def test_vanishes_for_family_parameters(self, j):
        d = family_params(j, 1, 1)
        assert abs(completion_defect(d.params, 1j, lattice_cut=10)) < 1e-8

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
        assert abs(completion_defect(family_params(j, k, ell).params, 1j)) == defect

    @pytest.mark.parametrize("tau", [1j, complex(0.3, 0.8), 0.2j])
    @pytest.mark.parametrize("j, k, ell", [(1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 1, 1)])
    def test_a_cut_the_guard_accepts_is_converged(self, j, k, ell, tau):
        # From the first cut whose outer shell is all skipped, every larger
        # cut is accepted too and adds nothing to the defect.
        params = family_params(j, k, ell).params
        first = next(
            c for c in range(1, 30) if not isinstance(_outcome(completion_defect, params, tau, c), str)
        )
        with pytest.raises(PrecisionError, match=f"lattice cut {first - 1} is too short"):
            completion_defect(params, tau, first - 1)
        defects = [completion_defect(params, tau, c) for c in range(first, first + 5)]
        assert defects == [defects[0]] * 5

    def test_every_point_skipped_far_up_the_axis(self):
        assert completion_defect(family_params(1, 1, 1).params, 1000j) == 0

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
