"""Acceptance gate: eleven criteria, one pass/fail line each.

Each test computes its criterion from scratch, records a single
``ACCEPTANCE nn <name>: PASS|FAIL`` line (printed by the terminal
summary hook in conftest, outside capture), and then asserts.
Tolerances and sweep bounds are pinned inside each test; nothing here
is loosened to accommodate the implementation.
"""

import math
import random
import time
from fractions import Fraction

from conftest import record_acceptance
from oracles import negate_variable

from qmaass.agpolys import verify_ag_relation
from qmaass.bailey import (
    pair_relative_one,
    pair_relative_q,
    synthetic_pair,
    verify_limiting_identity,
    verify_pair,
)
from qmaass.families import (
    SIGMA_REPS,
    SIGMA_STAR_REPS,
    family_series,
    sigma_coefficients,
    sigma_series,
    sigma_star_series,
    verify_kz_duality,
)
from qmaass.maass import (
    cohen_table,
    cohen_transform_residual,
    eval_waveform,
    radial_limit_check,
)
from qmaass.series import gaussian_binomial
from qmaass.theta import (
    ThetaParams,
    completion_defect,
    family_params,
    validate_family_params,
    verify_family_lattice,
    verify_theta_embedding,
)

FAMILIES = (1, 2, 3, 4)


def _emit(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number:02d} {name}: {tag}{suffix}"
    record_acceptance(number, line)
    assert ok, line


def test_criterion_01_chain_partition_relation():
    start = time.perf_counter()
    failures = []
    cases = 0
    for k in (2, 3):
        for ell in range(1, k + 1):
            for b in (0, 1):
                for n in range(0, 9):
                    if b == 1 and n == 0:
                        # The weighted-partition identity needs at least
                        # one part when the boundary factor is on.
                        continue
                    cases += 1
                    report = verify_ag_relation(k, ell, b, n)
                    if not report.ok:
                        failures.append((k, ell, b, n))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _emit(1, "chain polynomials match weighted partitions", ok,
          f"{cases} cases, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_02_classical_series_representations():
    start = time.perf_counter()
    order = Fraction(200)
    base = sigma_series(SIGMA_REPS[0], order)
    mismatches = [
        rep for rep in SIGMA_REPS[1:]
        if base.first_mismatch(sigma_series(rep, order)) is not None
    ]
    star_base = sigma_star_series(SIGMA_STAR_REPS[0], order)
    mismatches += [
        rep for rep in SIGMA_STAR_REPS[1:]
        if star_base.first_mismatch(sigma_star_series(rep, order)) is not None
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    _emit(2, "all classical-series representations agree to order 200", ok,
          f"{elapsed:.2f}s")
    assert not mismatches, mismatches


def test_criterion_03_families_recover_classical_series():
    order = Fraction(200)
    lhs_two = family_series(2, 1, 1, order).scale(2)
    rhs_two = sigma_series(SIGMA_REPS[0], Fraction(100)).compose_power(2)
    first = lhs_two.first_mismatch(rhs_two, up_to=order)
    lhs_four = family_series(4, 1, 1, order)
    rhs_four = negate_variable(sigma_star_series(SIGMA_STAR_REPS[0], order)).scale(-1)
    second = lhs_four.first_mismatch(rhs_four, up_to=order)
    ok = first is None and second is None
    _emit(3, "families two and four recover the classical pair", ok,
          f"mismatches: {first}, {second}")


def test_criterion_04_pair_relation_and_limit_identities():
    start = time.perf_counter()
    order = Fraction(60)
    failures = []
    for k in range(1, 4):
        for ell in range(1, k + 1):
            for maker in (pair_relative_one, pair_relative_q):
                if not verify_pair(maker(k, ell), 12, order).ok:
                    failures.append(("pair", maker.__name__, k, ell))
    rng = random.Random(11)
    pairs = 0
    for _ in range(50):
        for relative in ("one", "q"):
            pair = synthetic_pair(relative, rng)
            pairs += 1
            for kind in ("gauss", "even"):
                if not verify_limiting_identity(pair, relative, kind, order).ok:
                    failures.append(("identity", pair.label, kind))
    for n in range(13):
        for m in range(n + 1):
            value = gaussian_binomial(n, m)
            mirror = gaussian_binomial(n, n - m)
            if value != mirror:
                failures.append(("binomial-symmetry", n, m))
            if m and n and value != gaussian_binomial(n - 1, m - 1) + (
                gaussian_binomial(n - 1, m).shift(m)
            ):
                failures.append(("binomial-recurrence", n, m))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _emit(4, "pair relation, limit identities, q-binomials", ok,
          f"{pairs} random pairs, {elapsed:.2f}s")
    assert not failures, failures[:5]


def test_criterion_05_lattice_expansion_identity():
    order = Fraction(100)
    failures = [
        (j, k, ell)
        for j in FAMILIES
        for k in range(1, 4)
        for ell in range(1, k + 1)
        if not verify_family_lattice(j, k, ell, order).ok
    ]
    _emit(5, "defining sums equal lattice expansions to order 100",
          not failures, f"{4 * 6} series")
    assert not failures, failures


def test_criterion_06_family_parameter_validation():
    failures = [
        (j, k, ell)
        for j in FAMILIES
        for k in range(1, 11)
        for ell in range(1, k + 1)
        if not validate_family_params(j, k, ell).ok
    ]
    _emit(6, "exact parameter validation for every family up to k=10",
          not failures, f"{4 * 55} checks")
    assert not failures, failures


def test_criterion_07_theta_embedding():
    order = Fraction(60)
    failures = [
        (j, k, ell)
        for j in FAMILIES
        for k in range(1, 4)
        for ell in range(1, k + 1)
        if not verify_theta_embedding(j, k, ell, order).ok
    ]
    _emit(7, "theta series equal shifted families to order 60",
          not failures, f"{4 * 6} series")
    assert not failures, failures


def test_criterion_08_completion_defect():
    tau = 1j
    defects = {
        (j, 1, 1): abs(completion_defect(family_params(j, 1, 1).params, tau, 10))
        for j in (1, 4)
    }
    control_params = ThetaParams(
        4, (Fraction(1, 5), Fraction(1, 7)), (Fraction(1, 3), Fraction(1, 11))
    )
    control = abs(completion_defect(control_params, tau, 10))
    ok = all(d < 1e-8 for d in defects.values()) and control > 1e-3
    _emit(8, "completion defect vanishes on families, not off them", ok,
          f"defects {[f'{d:.1e}' for d in defects.values()]}, control {control:.1e}")


def test_criterion_09_cohen_waveform_transformations():
    start = time.perf_counter()
    table = cohen_table(5000)
    cut = table.extent()
    value, _ = eval_waveform(table, complex(0.0, 1.0 / math.sqrt(2.0)), cut)
    inv_i, shift_i = cohen_transform_residual(1j, 5000)
    inv_p, shift_p = cohen_transform_residual(complex(1.0 / 3.0, 0.5), 5000)
    elapsed = time.perf_counter() - start
    ok = (
        abs(value.imag) < 1e-8
        and abs(inv_i) < 1e-6
        and abs(inv_p) < 1e-6
        and abs(shift_i) < 1e-12
        and abs(shift_p) < 1e-12
        and elapsed < 10.0
    )
    _emit(9, "level-two waveform is real and transforms correctly", ok,
          f"|Im|={abs(value.imag):.1e}, inversion {abs(inv_i):.1e}/{abs(inv_p):.1e}, "
          f"shift {abs(shift_i):.1e}/{abs(shift_p):.1e}, {elapsed:.2f}s")


def test_criterion_10_root_duality_and_radial_limits():
    failures = [
        (k, ell, big_n)
        for k in range(1, 4)
        for ell in range(1, k + 1)
        for big_n in range(1, 13)
        if not verify_kz_duality(k, ell, big_n).ok
    ]
    radial = {
        (j, k, ell): radial_limit_check(j, k, ell, Fraction(0), tol=1e-4)
        for (j, k, ell) in ((1, 1, 1), (4, 1, 1), (1, 2, 1))
    }
    failures += [key for key, report in radial.items() if not report.ok]
    errors = [f"{report.details['error']:.1e}" for report in radial.values()]
    _emit(10, "root-of-unity duality and radial limits", not failures,
          f"72 duality checks, radial errors {errors}")
    assert not failures, failures


def test_criterion_11_coefficient_growth_survey():
    coeffs = sigma_coefficients(10000)
    zeros = sum(1 for c in coeffs if c == 0)
    max_short = max(abs(c) for c in coeffs[:1001])
    max_long = max(abs(c) for c in coeffs)
    ok = zeros > 0 and max_long > max_short
    _emit(11, "coefficients vanish often yet grow in amplitude", ok,
          f"zeros={zeros}, max<=1000: {max_short}, max<=10000: {max_long}")
