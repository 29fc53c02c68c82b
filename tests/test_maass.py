"""Tests for the numeric waveform layer and the quantum-modular toolkit."""

import cmath
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import root_of_unity_value

from qmaass.agpolys import ag_polynomial
from qmaass.bessel import k0_bessel
from qmaass.cyclotomic import CycNumber
from qmaass.families import sigma_series, sigma_star_series
from qmaass.maass import (
    MaassCoeffTable,
    cocycle_samples,
    cohen_table,
    cohen_transform_residual,
    eval_waveform,
    quantum_value,
    radial_limit_check,
)
from qmaass.series import PrecisionError, QSeriesError


# ----------------------------------------------------------------- K0 Bessel


class TestBessel:
    def test_matches_reference_on_grid(self):
        # Cross-regime grid including both sides of the series/continued
        # fraction switch; scipy is the independent oracle.
        xs = list(np.geomspace(0.01, 60.0, 40)) + [1.9, 2.0, 2.1]
        for x in xs:
            ref = scipy.special.k0(x)
            assert abs(k0_bessel(float(x)) - ref) <= 1e-12 * abs(ref)

    def test_matches_thirty_digits_log_uniformly(self):
        # 2,000 log-uniform points in [1e-8, 700] plus the neighbours of
        # the switch at x = 2.  The documented bound is 1e-12; the float
        # regimes hold 1e-13.
        rng = np.random.default_rng(8)
        xs = list(np.exp(rng.uniform(math.log(1e-8), math.log(700.0), 2000)))
        xs += [1e-8, 700.0]
        for step in (1, 2, 1e6):
            xs += [2.0 - step * 2.0**-52, 2.0 + step * 2.0**-51]
        xs.append(2.0)
        with mpmath.workdps(30):
            refs = [float(mpmath.besselk(0, x)) for x in xs]
        bad = [
            (x, ref)
            for x, ref in zip(xs, refs)
            if not abs(k0_bessel(float(x)) - ref) <= 1e-13 * ref
        ]
        assert not bad

    def test_frozen_value_at_one(self):
        assert abs(k0_bessel(1.0) - 0.42102443824070834) < 5e-16

    def test_asymptotic_law_at_fifty(self):
        # K0(x) e^x sqrt(x) tends to sqrt(pi/2) from below like
        # 1 - 1/(8x) + O(x^-2); at x = 50 the first correction is 1/400.
        limit = math.sqrt(math.pi / 2)
        scaled = k0_bessel(50.0) * math.exp(50.0) * math.sqrt(50.0)
        assert abs(scaled - limit) < 4e-3
        first_corrected = limit * (1.0 - 1.0 / 400.0)
        assert abs(scaled - first_corrected) < 4e-5

    def test_ode_residual_on_grid(self):
        # x y'' + y' - x y = 0, via central differences.  The step and the
        # lower end of the grid keep the h^2 scheme error (driven by the
        # fourth derivative, which grows like x^-4) below the tolerance.
        h = 3e-4
        for x in [0.5, 1.0, 2.0, 5.0, 10.0, 17.5, 18.5, 25.0]:
            y0, yp, ym = k0_bessel(x), k0_bessel(x + h), k0_bessel(x - h)
            second = (yp - 2.0 * y0 + ym) / (h * h)
            first = (yp - ym) / (2.0 * h)
            assert abs(x * second + first - x * y0) < 1e-6

    def test_monotone_decreasing(self):
        assert k0_bessel(2.0) < k0_bessel(1.0)
        assert k0_bessel(18.5) < k0_bessel(17.5)

    @pytest.mark.parametrize("x", [745.0, 1e21, 1e300, 1.7e308, math.inf])
    def test_underflows_to_zero(self, x):
        # K0(x) < sqrt(pi/(2x)) e^-x is below half the least subnormal.
        assert k0_bessel(x) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(QSeriesError):
            k0_bessel(0.0)
        with pytest.raises(QSeriesError):
            k0_bessel(-1.0)

    def test_threads_keep_precision(self):
        # Two threads evaluate K0 on fresh arguments in the ascending-series
        # regime while a third works in mpmath at its own precision, with
        # frequent thread switches.  mpmath is the oracle, computed up front;
        # no thread may disturb another, and the global precision must come
        # back unchanged.
        rng = random.Random(11)
        xs = [rng.uniform(8.0, 17.5) for _ in range(200)]
        with mpmath.workdps(30):
            refs = [float(mpmath.besselk(0, x)) for x in xs]
        dps = mpmath.mp.dps
        values = {}
        done = threading.Event()

        def bessel_side(part):
            for i in part:
                values[i] = k0_bessel(xs[i])

        def other_side():
            while not done.is_set():
                with mpmath.workdps(15):
                    mpmath.mpf(1) / 3

        workers = [
            threading.Thread(target=bessel_side, args=(range(r, len(xs), 2),))
            for r in (0, 1)
        ]
        other = threading.Thread(target=other_side)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in workers + [other]:
                th.start()
            for th in workers:
                th.join(timeout=120)
        finally:
            done.set()
            other.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in workers + [other])
        assert mpmath.mp.dps == dps
        assert len(values) == len(xs)
        bad = [
            x for i, (x, ref) in enumerate(zip(xs, refs))
            if not abs(values[i] - ref) <= 1e-12 * abs(ref)
        ]
        assert not bad


# ----------------------------------------------------------- coefficient table


class TestCoeffTable:
    def test_frozen_odd_divisor_values(self):
        table = cohen_table(100)
        assert table.scale == 24
        assert table.coeffs[1] == 1
        assert table.coeffs[25] == 1
        assert table.coeffs[49] == -1
        assert table.coeffs[73] == 2
        assert table.coeffs[-23] == -2

    def test_support_residue_class(self):
        table = cohen_table(3000)
        assert {n % 24 for n in table.coeffs} == {1}
        assert all(n % 24 == 1 for n in table.coeffs)

    def test_negative_side_matches_dense_representation(self):
        # The table reads the negative side off the fourth family's lattice
        # expansion; the odd Pochhammer route, which reads no lattice,
        # must agree.
        table = cohen_table(24 * 300 + 2)
        star = sigma_star_series("odd-pochhammer", 301)
        for m in range(1, 301):
            assert table.coeffs.get(1 - 24 * m, 0) == star.coeff(m)

    def test_positive_side_matches_stream(self):
        # The positive side is read off Cohen's lattice; the Pochhammer
        # route, which reads no lattice, must agree.
        table = cohen_table(24 * 200 + 1)
        values = sigma_series("pochhammer", 201)
        for m in range(201):
            assert table.coeffs.get(24 * m + 1, 0) == values.coeff(m)

    def test_extent_and_max(self):
        table = cohen_table(100)
        assert table.extent() == 97
        assert table.max_abs_coeff() == 2.0
        assert table.positive_items()[0] == (1, 1)

    def test_cut_past_extent_is_precision_error(self):
        table = cohen_table(100)
        with pytest.raises(PrecisionError, match="insufficient table extent"):
            eval_waveform(table, 1j, table.extent() + 1)

    def test_validation(self):
        with pytest.raises(QSeriesError):
            MaassCoeffTable(scale=0, coeffs={1: 1})
        with pytest.raises(QSeriesError):
            MaassCoeffTable(scale=24, coeffs={0: 1})
        with pytest.raises(QSeriesError):
            cohen_table(0)


# ------------------------------------------------------------- waveform sums


class TestEvalWaveform:
    def test_single_coefficient_value(self):
        table = MaassCoeffTable(scale=1, coeffs={1: 1})
        value, tail = eval_waveform(table, 1j, 1)
        assert abs(value - k0_bessel(2.0 * math.pi)) < 1e-15
        assert tail >= 0.0

    def test_zero_tables(self):
        assert eval_waveform(MaassCoeffTable(scale=1, coeffs={}), 1j, 0)[0] == 0
        zero_valued = MaassCoeffTable(scale=24, coeffs={1: 0, 25: 0})
        assert eval_waveform(zero_valued, 1j, 25)[0] == 0

    def test_extent_guard(self):
        table = MaassCoeffTable(scale=1, coeffs={1: 1})
        with pytest.raises(QSeriesError):
            eval_waveform(table, 1j, 2)

    def test_rejects_lower_half_plane(self):
        table = MaassCoeffTable(scale=1, coeffs={1: 1})
        with pytest.raises(QSeriesError):
            eval_waveform(table, 1 - 1j, 1)
        with pytest.raises(QSeriesError):
            eval_waveform(table, 0.5 + 0j, 1)

    def test_reality_on_imaginary_axis(self):
        table = cohen_table(5000)
        value, _ = eval_waveform(table, 1j / math.sqrt(2), table.extent())
        assert abs(value.imag) < 1e-8

    def test_tail_bound_dominates_truncation(self):
        table = cohen_table(5000)
        tau = 0.05j
        full, _ = eval_waveform(table, tau, table.extent())
        part, tail = eval_waveform(table, tau, 500)
        assert abs(full - part) <= tail

    def test_scale_consistency(self):
        # Doubling the scale and the height together rescales by sqrt(v).
        narrow = MaassCoeffTable(scale=1, coeffs={1: 1})
        wide = MaassCoeffTable(scale=2, coeffs={1: 1})
        v1, _ = eval_waveform(narrow, 1j, 1)
        v2, _ = eval_waveform(wide, 2j, 1)
        assert abs(v2 - math.sqrt(2.0) * v1) < 1e-15

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-40, max_value=40).filter(bool),
                st.integers(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.3, max_value=3.0),
    )
    def test_real_coefficients_conjugation_symmetry(self, entries, u, v):
        # Real coefficient tables satisfy f(-u + iv) = conj(f(u + iv)).
        coeffs = {}
        for n, c in entries:
            coeffs[n] = coeffs.get(n, 0) + c
        table = MaassCoeffTable(scale=7, coeffs=coeffs)
        cut = table.extent()
        try:
            left, _ = eval_waveform(table, -u + 1j * v, cut)
        except PrecisionError:
            # The tail bound reached |f|, which conjugation leaves alone.
            with pytest.raises(PrecisionError):
                eval_waveform(table, u + 1j * v, cut)
            return
        right, _ = eval_waveform(table, u + 1j * v, cut)
        assert abs(left - right.conjugate()) < 1e-12

    def test_tail_bound_above_the_value_is_refused(self):
        table = cohen_table(50)
        with pytest.raises(PrecisionError, match="tail bound"):
            eval_waveform(table, 1e-9j, table.extent())
        value, tail = eval_waveform(table, 1j, table.extent())
        assert 0 < tail < abs(value)


# ---------------------------------------------------- transformation residuals


class TestCohenResiduals:
    def test_inversion_residual_small(self):
        for tau in (1j, 1 / 3 + 0.5j):
            res_inv, _ = cohen_transform_residual(tau, 5000)
            assert abs(res_inv) < 1e-6

    def test_shift_residual_termwise(self):
        for tau in (1j, 1 / 3 + 0.5j):
            _, res_shift = cohen_transform_residual(tau, 5000)
            assert abs(res_shift) < 1e-10

    def test_residual_shrinks_with_cut(self):
        # At a height where truncation actually matters the residual must
        # drop as the cut deepens.
        tau = 0.05j
        coarse = abs(cohen_transform_residual(tau, 500)[0])
        fine = abs(cohen_transform_residual(tau, 5000)[0])
        assert coarse > 1e-5
        assert fine < coarse

    def test_returns_complex_pair(self):
        pair = cohen_transform_residual(1j, 200)
        assert isinstance(pair, tuple) and len(pair) == 2
        assert all(isinstance(z, complex) for z in pair)


# --------------------------------------------------------- quantum evaluation


def _float_terminating_sum(j, k, ell, x):
    """Independent float evaluation of the terminating defining sum."""
    power = {1: 1, 2: 2, 3: 1, 4: 2}[j]
    w = (power * Fraction(x)) % 1
    q = cmath.exp(2j * math.pi * float(w))
    order = w.denominator
    b = 0 if j in (1, 2) else 1

    def chain(n):
        return sum(c * q ** int(e) for e, c in ag_polynomial(k, ell, b, n).terms())

    total = 0.0 + 0.0j
    if j in (1, 2):
        prefix = 1.0 + 0.0j
        for n in range(0, 2 * order + 4):
            if n > 0:
                prefix *= 1.0 - q ** ((1 if j == 1 else 2) * n)
            if abs(prefix) < 1e-13:
                break
            term = prefix * (-1) ** n * chain(n)
            if j == 1:
                term *= q ** (n * (n + 1) // 2)
            total += term
    else:
        prefix = 1.0 + 0.0j
        aux = 1.0 + 0.0j
        for n in range(1, 2 * order + 5):
            if n > 1:
                prefix *= 1.0 - q ** (n - 1)
            if abs(prefix) < 1e-13:
                break
            if j == 4:
                aux *= 1.0 + q ** (n - 1)
            term = prefix * (-1) ** n * chain(n)
            if j == 3:
                term *= q ** (n * (n + 1) // 2)
            else:
                term *= aux * q**n
            total += term
    return total


class TestQuantum:
    def test_first_family_is_one_at_one(self):
        sample = quantum_value(1, 1, 1, 0)
        assert sample.value.is_rational()
        assert sample.value.rational_value() == 1
        assert quantum_value(1, 2, 2, 0).value.rational_value() == 1

    def test_fourth_family_frozen_value(self):
        sample = quantum_value(4, 1, 1, 0)
        assert sample.value.rational_value() == -2

    def test_third_family_matches_first_chain_value(self):
        for k, ell in ((1, 1), (2, 2), (3, 1)):
            sample = quantum_value(3, k, ell, 0)
            h1 = root_of_unity_value(ag_polynomial(k, ell, 1, 1), 1, 0)
            assert sample.value == -h1

    def test_companion_chain_value_at_one(self):
        # The even-parts companion at 1 is twice the family-2 value.
        sample = quantum_value(2, 1, 1, 0)
        assert sample.value.rational_value() == 1
        assert 2 * sample.value.rational_value() == 2

    @pytest.mark.parametrize(
        "j,k,ell,x",
        [
            (1, 1, 1, Fraction(1, 3)),
            (1, 2, 1, Fraction(2, 5)),
            (2, 1, 1, Fraction(1, 3)),
            (2, 2, 2, Fraction(1, 4)),
            (3, 2, 1, Fraction(1, 5)),
            (3, 1, 1, Fraction(3, 7)),
            (4, 1, 1, Fraction(1, 3)),
            (4, 3, 2, Fraction(1, 6)),
        ],
    )
    def test_matches_float_terminating_sum(self, j, k, ell, x):
        exact = quantum_value(j, k, ell, x).complex_value
        approx = _float_terminating_sum(j, k, ell, x)
        assert abs(exact - approx) < 1e-9 * max(1.0, abs(exact))

    def test_sample_fields(self):
        sample = quantum_value(1, 1, 1, Fraction(2, 6))
        assert sample.x == Fraction(1, 3)
        assert isinstance(sample.value, CycNumber)
        payload = sample.to_json_dict()
        assert payload["x"] == "1/3"
        assert payload["order"] == sample.value.order

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.fractions(
            min_value=Fraction(-2), max_value=Fraction(2), max_denominator=12
        ),
    )
    def test_periodic_in_x(self, j, x):
        # The root e(d x) only sees x modulo 1, so the value is periodic.
        one = quantum_value(j, 1, 1, x)
        other = quantum_value(j, 1, 1, x + 1)
        assert one.value == other.value

    def test_square_root_families_collapse_half_integers(self):
        # Families evaluated at the square of the root cannot distinguish
        # x from x + 1/2.
        assert quantum_value(2, 1, 1, Fraction(1, 2)).value == quantum_value(
            2, 1, 1, 0
        ).value
        assert quantum_value(4, 2, 1, Fraction(5, 6)).value == quantum_value(
            4, 2, 1, Fraction(1, 3)
        ).value

    def test_rejects_bad_family(self):
        with pytest.raises(QSeriesError):
            quantum_value(5, 1, 1, 0)


# ------------------------------------------------------------- radial limits


class TestRadialLimits:
    @pytest.mark.parametrize(
        "j,k,ell,target",
        [(1, 1, 1, 1.0), (4, 1, 1, -2.0), (1, 2, 1, 1.0), (2, 1, 1, 1.0)],
    )
    def test_extrapolates_to_quantum_value_at_zero(self, j, k, ell, target):
        report = radial_limit_check(j, k, ell, 0)
        assert report.ok
        assert report.details["error"] < 1e-4
        assert abs(report.details["target_re"] - target) < 1e-12

    def test_nonzero_point_with_finer_grid(self):
        grid = [1 / 16 * 0.5**i for i in range(10)]
        report = radial_limit_check(3, 2, 1, Fraction(1, 3), t_grid=grid)
        assert report.ok
        assert report.details["error"] < 1e-4

    def test_reports_instability(self):
        report = radial_limit_check(1, 1, 1, 0)
        assert "instability" in report.details
        assert report.details["instability"] >= 0.0

    @pytest.mark.parametrize(
        "j, k, ell", [(5, 1, 1), (0, 1, 1), (-1, 1, 1), (1, 0, 1), (1, 1, 2)]
    )
    def test_rejects_invalid_family(self, j, k, ell):
        with pytest.raises(QSeriesError):
            radial_limit_check(j, k, ell, Fraction(1, 3))

    def test_rejects_bad_grid(self):
        with pytest.raises(QSeriesError):
            radial_limit_check(1, 1, 1, 0, t_grid=[0.1, 0.2])
        with pytest.raises(QSeriesError):
            radial_limit_check(1, 1, 1, 0, t_grid=[0.1, -0.05])
        with pytest.raises(QSeriesError):
            radial_limit_check(1, 1, 1, 0, t_grid=[0.1])
        with pytest.raises(QSeriesError):
            radial_limit_check(1, 1, 1, 0, t_grid=[0.1, 0.2, 0.05])


# ------------------------------------------------------------ cocycle layer


def _fplus_exact(x):
    """Exact radial limit of the positive part at a rational point.

    The positive-part series factors as e(x/24) times the even-parts
    companion at e(x), whose exact value comes out of the family-2
    evaluation at the square root of the argument.
    """
    x = Fraction(x)
    companion = 2 * quantum_value(2, 1, 1, x / 4).complex_value
    return cmath.exp(2j * math.pi * float(x) / 24.0) * companion


FRICKE_GRID = [1 / 32 * 0.5**i for i in range(8)]


def second_differences(values: list[complex]) -> list[complex]:
    """Plain second finite differences of a sample list."""
    return [
        values[i + 2] - 2 * values[i + 1] + values[i]
        for i in range(len(values) - 2)
    ]


class TestCocycle:
    def test_identity_gives_exact_zeros(self):
        table = cohen_table(27000)
        xs = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)]
        samples = cocycle_samples(table, (1, 0, 0, 1), xs)
        assert samples == [0, 0, 0]

    def test_translation_twisted_cocycle_vanishes(self):
        # Support on 1 mod 24 makes the translation phase e(1/24) exact
        # termwise, so the twisted cocycle cancels at every grid point.
        table = cohen_table(27000)
        xs = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]
        mu = cmath.exp(2j * math.pi / 24.0)
        samples = cocycle_samples(table, (1, 1, 0, 1), xs, multiplier=mu)
        assert all(abs(v) < 1e-10 for v in samples)

    def test_inversion_cocycle_matches_exact_values(self):
        # tau -> -1/(2 tau) acts conjugate-linearly on the waveform, so
        # the smooth cocycle pairs F+ with the conjugate of its image
        # under the determinant-normalized weight-one factor.
        table = cohen_table(500000)
        xs = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]
        samples = cocycle_samples(
            table, (0, 1, -2, 0), xs, conjugate_image=True, t_grid=FRICKE_GRID
        )
        for x, sample in zip(xs, samples):
            image = -1 / (2 * x)
            exact = _fplus_exact(x) + _fplus_exact(image).conjugate() / (
                math.sqrt(2.0) * float(x)
            )
            assert abs(sample - exact) < 2e-2

    def test_inversion_cocycle_varies_smoothly(self):
        table = cohen_table(500000)
        xs = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)]
        smooth = cocycle_samples(
            table, (0, 1, -2, 0), xs, conjugate_image=True, t_grid=FRICKE_GRID
        )
        diffs = second_differences(smooth)
        assert len(diffs) == 2
        assert all(abs(d) < 0.5 for d in diffs)
        # The naive linear pairing does not produce a smooth function;
        # its second differences are orders of magnitude larger.
        wild = cocycle_samples(table, (0, -1, 2, 0), xs, t_grid=FRICKE_GRID)
        assert all(abs(d) > 1.0 for d in second_differences(wild))

    def test_rejects_cusp_preimage(self):
        table = cohen_table(27000)
        with pytest.raises(QSeriesError):
            cocycle_samples(table, (0, -1, 2, 0), [Fraction(0)])

    def test_rejects_insufficient_extent(self):
        with pytest.raises(PrecisionError):
            cocycle_samples(cohen_table(100), (0, -1, 2, 0), [Fraction(1, 5)])

    @pytest.mark.parametrize("grid", [[0.1], [0.1, 0.2, 0.05], [0.1, -0.05]])
    def test_rejects_bad_grid(self, grid):
        table = cohen_table(2000)
        with pytest.raises(QSeriesError, match="radial grid"):
            cocycle_samples(table, (1, 0, 0, 1), [Fraction(1, 5)], t_grid=grid)

    def test_rejects_bad_matrix(self):
        table = cohen_table(27000)
        with pytest.raises(QSeriesError):
            cocycle_samples(table, (1, 0, 0, -1), [Fraction(1, 5)])

    def test_second_differences_helper(self):
        values = [0.0, 1.0, 4.0, 9.0]
        assert second_differences(values) == [2.0, 2.0]
