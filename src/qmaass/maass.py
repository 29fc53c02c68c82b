"""Numeric Maass-waveform layer and the quantum-modular toolkit.

A waveform is described by a coefficient table: a scale ``N`` and real
coefficients indexed by nonzero integers.  Its value at a point of the
upper half plane is the Bessel-weighted Fourier sum

    sqrt(v) * sum_n T(n) K0(2 pi |n| v / N) e(n u / N).

This module provides:

* the coefficient-table data model;
* the explicit odd-divisor example at scale 24 (positive indices from
  sigma, read off Cohen's lattice :data:`~qmaass.theta.COHEN_LATTICE`,
  negative ones from sigma*, read off family 4's lattice) with its two
  transformation residuals;
* exact root-of-unity evaluation of the families (the hypergeometric
  sums terminate there), radial-limit extrapolation checks against
  those exact values, and cocycle sampling of the positive-part series
  along a fractional-linear map.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .agpolys import _walk
from .bailey import LIMIT_WEIGHTS, chain_sum
from .bessel import k0_bessel
from .cyclotomic import CycNumber, CyclicRing, check_root_order
from .families import FAMILIES, _validate_family, sigma_coefficients, sigma_star_coefficients
from .reports import CheckReport, Record, _exact_str, report_from_condition
from .series import PrecisionError, QSeriesError, int_arg
from .theta import _bounded, family_lattice_numeric, unit_phase, upper_half_plane

__all__ = [
    "MaassCoeffTable",
    "QuantumSample",
    "cohen_table",
    "cocycle_samples",
    "cohen_transform_residual",
    "eval_waveform",
    "quantum_value",
    "radial_limit_check",
]


# ---------------------------------------------------------------- data model


class MaassCoeffTable(Record):
    """Fourier coefficient table of a waveform.

    ``scale`` is the positive integer N in the expansion; ``coeffs`` maps
    nonzero integer indices to real coefficients (exact rationals when
    sourced from series).  Every table built here is cuspidal: it has no
    constant term.
    """

    def __init__(self, scale: int, coeffs: dict[int, object] | None = None) -> None:
        coeffs = {} if coeffs is None else coeffs
        int_arg(scale, "the table scale", 1)
        if 0 in coeffs:
            raise QSeriesError("coefficient tables are indexed by nonzero integers")
        self.__dict__.update(scale=scale, coeffs=coeffs)

    def extent(self) -> int:
        """Largest absolute index present (0 for an empty table)."""
        return max((abs(n) for n in self.coeffs), key=int, default=0)

    def max_abs_coeff(self) -> float:
        return max((abs(float(c)) for c in self.coeffs.values()), default=0.0)

    def positive_items(self) -> list[tuple[int, object]]:
        return sorted((n, c) for n, c in self.coeffs.items() if n > 0)


# ------------------------------------------------------------- Cohen example


def cohen_table(n_max: int) -> MaassCoeffTable:
    """Coefficient table of the scale-24 example, out to |n| <= n_max.

    Index 24m + 1 carries sigma_m and index 1 - 24m (m >= 1) sigma*_m,
    both tables read off their lattices by :mod:`qmaass.families`: exact
    integers supported on the residue class 1 mod 24.
    """
    int_arg(n_max, "the table extent", 1)
    coeffs: dict[int, int] = {}
    for m, value in enumerate(sigma_coefficients((n_max - 1) // 24)):
        if value:
            coeffs[24 * m + 1] = value
    for m, value in enumerate(sigma_star_coefficients((n_max + 1) // 24)[1:], 1):
        if value:
            coeffs[1 - 24 * m] = value
    return MaassCoeffTable(scale=24, coeffs=coeffs)


def eval_waveform(
    table: MaassCoeffTable, tau: complex, n_cut: int
) -> tuple[complex, float]:
    """Truncated Fourier sum of the waveform at tau, with a tail bound.

    The tail bound uses the exponential decay of K0 together with the
    largest coefficient magnitude seen in the table (standing in for the
    polynomial-growth bound).  A tail bound that is not below |value|
    raises :class:`PrecisionError`.
    """
    u, v = upper_half_plane(tau)
    if int_arg(n_cut, "n_cut", 0) > table.extent():
        raise PrecisionError(
            "insufficient table extent: "
            f"requested {n_cut}, table holds {table.extent()}"
        )
    total = 0.0 + 0.0j
    step = 2.0 * math.pi * v / table.scale
    for n, c in sorted(table.coeffs.items()):
        if abs(n) > n_cut:
            continue
        weight = k0_bessel(step * abs(n))
        if weight == 0.0:
            continue
        total += float(c) * weight * unit_phase(n * u / table.scale)
    head = k0_bessel(step * (n_cut + 1))
    tail = 2.0 * table.max_abs_coeff() * head / max(1.0 - math.exp(-step), 1e-300)
    return _bounded(math.sqrt(v) * total, math.sqrt(v) * tail)


def _cohen_residuals(tau: complex, n_cut: int) -> tuple[complex, complex, float]:
    """The two residuals of :func:`cohen_transform_residual` and ``tail``,
    the sum of the tail bounds of f(tau) and f(-1/(2 tau)), the two values
    the first residual compares."""
    table = cohen_table(int_arg(n_cut, "n_cut", 1))
    cut = table.extent()  # the largest index the table actually reaches
    f_tau, tail_tau = eval_waveform(table, tau, cut)
    f_inv, tail_inv = eval_waveform(table, -1.0 / (2.0 * tau), cut)
    f_shift, _ = eval_waveform(table, tau + 1.0, cut)
    res_inv = f_inv - f_tau.conjugate()
    res_shift = f_shift - unit_phase(Fraction(1, 24)) * f_tau
    return res_inv, res_shift, tail_tau + tail_inv


def cohen_transform_residual(tau: complex, n_cut: int) -> tuple[complex, complex]:
    """Residuals of the two transformation laws of the scale-24 example.

    Returns (f(-1/(2 tau)) - conj(f(tau)), f(tau + 1) - e(1/24) f(tau)).
    The second vanishes termwise; the first vanishes up to truncation
    and float error.
    """
    return _cohen_residuals(tau, n_cut)[:2]


# --------------------------------------------------------- quantum evaluation


class QuantumSample(Record):
    """Exact value of a family series at a root of unity."""

    def __init__(self, x: Fraction, value: CycNumber) -> None:
        self.__dict__.update(x=x, value=value)

    @property
    def complex_value(self) -> complex:
        return self.value.to_complex()

    def to_json_dict(self) -> dict:
        z = self.complex_value
        return {
            "x": _exact_str(self.x),
            "order": self.value.order,
            "value_re": z.real,
            "value_im": z.imag,
        }


def quantum_value(j: int, k: int, ell: int, x) -> QuantumSample:
    """Exact family value at the root of unity e(d x), d the family power.

    The family's limit-identity sum (its :data:`~qmaass.families.FAMILIES`
    record) is summed with q = e(d x): its finite q-Pochhammer prefactor
    vanishes once its length reaches the order of the root, so the sum
    terminates, and its :func:`~qmaass.bailey.chain_sum` to that top is
    twice the value; the result is exact in a cyclotomic field.  Families
    with power d = 2 are evaluated at e(x)^d = e(d x), matching the variable
    of their theta embedding.

    One L1 twin pass sizes the chain walk's ring and the sum's
    (:meth:`~qmaass.series.PackedRing.weighted_sum`); the walk's states
    merge by q-Lucas, as top - 1 <= N, and only the sum is decoded.
    """
    _validate_family(j, k, ell)
    xq = Fraction(x)
    fam = FAMILIES[j]
    s, first, _ = weights = LIMIT_WEIGHTS[fam.identity]
    w = (s * xq) % 1
    N, num = w.denominator, w.numerator
    check_root_order(N)
    # Summed in Z[x]/(x^N - 1) at x = q, mapped to q = e(w) at the end.
    # (q^s; q^s)_i vanishes there from the first i with N | num*s*i on.
    # The top term has the factor (q^s; q^s)_(top - first) = 0: any chain value.
    top = first + N // math.gcd(N, num * s)
    twice = CyclicRing.weighted_sum(N, lambda ring: _walk(ring, k, ell, first, top - 1),
                                    lambda ring, chains: chain_sum(ring, weights, [*chains, 0], top))
    value = CycNumber.from_powers(N, {e * num: c * fam.sum_scale // 2 for e, c in twice.items()})
    return QuantumSample(x=xq, value=value)


def _richardson(samples: list[complex], rho: float) -> tuple[complex, float]:
    """Richardson extrapolation to t = 0 of samples on a geometric t-grid.

    Assumes a smooth expansion in t; with grid ratio ``rho`` the update
    constant at level m is rho^-m.  Needs at least two samples; returns
    the estimate and the size of the last step, an instability estimate.
    """
    rows = [samples]
    for m in range(1, len(samples)):
        factor = rho ** (-m)
        prev = rows[-1]
        rows.append(
            [
                (factor * prev[i + 1] - prev[i]) / (factor - 1.0)
                for i in range(len(prev) - 1)
            ]
        )
    return rows[-1][0], abs(rows[-1][0] - rows[-2][0])


def _radial_grid(t_grid, start: float) -> list[float]:
    """``t_grid`` (default: eight points of ratio one half from ``start``),
    checked to have the two or more positive, decreasing points it needs."""
    t_grid = [start * 0.5**i for i in range(8)] if t_grid is None else list(t_grid)
    if len(t_grid) < 2 or not all(a > b > 0 for a, b in zip(t_grid, t_grid[1:])):
        raise QSeriesError(
            "the radial grid must have at least two positive, decreasing points"
        )
    return t_grid


def radial_limit_check(
    j: int,
    k: int,
    ell: int,
    x,
    t_grid=None,
    tol: float = 1e-4,
) -> CheckReport:
    """Radial limit of a family along q = e(x) exp(-t) versus its exact value.

    Evaluates the cancellation-free lattice evaluator once for the whole
    decreasing geometric ``t_grid`` (default: ratio one half, eight
    points from 1/8; at least two points), Richardson-extrapolates to
    t = 0, and compares with the exact root-of-unity value.  The last
    extrapolation step is reported as an instability estimate.
    """
    _validate_family(j, k, ell)
    xq = Fraction(x)
    t_grid = _radial_grid(t_grid, 0.125)
    power = FAMILIES[j].power
    w = (power * xq) % 1
    samples = family_lattice_numeric(j, k, ell, w, [power * t for t in t_grid])
    estimate, stability = _richardson(samples, t_grid[1] / t_grid[0])
    target = quantum_value(j, k, ell, xq).complex_value
    error = abs(estimate - target)
    return report_from_condition(
        "family_radial_limit",
        {"j": j, "k": k, "ell": ell, "x": _exact_str(xq)},
        error < tol,
        {
            "target_re": target.real,
            "target_im": target.imag,
            "estimate_re": estimate.real,
            "estimate_im": estimate.imag,
            "error": error,
            "instability": stability,
        },
    )


# ------------------------------------------------------------ cocycle layer


def _positive_part_radial(
    table: MaassCoeffTable, x: Fraction, t_grid: list[float], tol: float
) -> complex:
    """Radial limit of the positive-part series at a rational point.

    Evaluates sum_{n>0} T(n) e(n (x + i t) / N) on the grid and
    Richardson-extrapolates to t = 0.  Raises when the table is too
    short for the tail to be negligible at the smallest grid point.
    """
    items = table.positive_items()
    if not items:
        return 0.0 + 0.0j
    n_top = items[-1][0]
    t_min = t_grid[-1]
    step = 2.0 * math.pi * t_min / table.scale
    tail = (
        max(abs(float(c)) for _, c in items)
        * math.exp(-step * (n_top + 1.0))
        / max(1.0 - math.exp(-step), 1e-300)
    )
    if tail > tol:
        raise PrecisionError(
            "insufficient table extent for the radial cocycle evaluation"
        )
    turns = float(x) / table.scale
    weighted = [(n, float(c) * unit_phase(turns * n)) for n, c in items]
    samples = []
    for t in t_grid:
        rate = -2.0 * math.pi * t / table.scale
        samples.append(sum(w * math.exp(rate * n) for n, w in weighted))
    return _richardson(samples, t_grid[1] / t_grid[0])[0]


def cocycle_samples(
    table: MaassCoeffTable,
    gamma,
    xs,
    multiplier: complex | None = None,
    conjugate_image: bool = False,
    t_grid=None,
    tol: float = 1e-8,
) -> list[complex]:
    """Weight-one cocycle values of the positive-part series at rationals.

    For each rational x this returns

        F+(x) - conj(mu) * sqrt(det) / (c x + d) * G(x),

    where ``gamma = (a, b, c, d)`` is an integer matrix with positive
    determinant acting by fractional linear maps, ``mu`` is an optional
    multiplier (default 1), and G(x) is F+(gamma x) — or its complex
    conjugate with ``conjugate_image``, for maps under which the
    waveform transforms conjugate-linearly (the scale-24 example flips
    tau to -1/(2 tau) that way).  The sqrt(det) normalization is the
    standard weight-one slash factor; for determinant one it reduces to
    1/(c x + d).  Points where c x + d = 0 (the preimage of the cusp at
    infinity) are rejected.  Positive-part values are radial limits of
    the Bessel-free series; deep t-grids need correspondingly long
    tables.
    """
    a, b, c, d = (int_arg(v, "a gamma entry") for v in gamma)
    det = a * d - b * c
    if det <= 0:
        raise QSeriesError("the matrix must have positive determinant")
    mu = 1.0 + 0.0j if multiplier is None else complex(multiplier)
    mu_bar = mu.conjugate()
    t_grid = _radial_grid(t_grid, 0.5)
    out: list[complex] = []
    for x in xs:
        xq = Fraction(x)
        denom = c * xq + d
        if denom == 0:
            raise QSeriesError(
                f"the point {xq} maps to the cusp at infinity and must be avoided"
            )
        image = (a * xq + b) / denom
        here = _positive_part_radial(table, xq, t_grid, tol)
        there = _positive_part_radial(table, image, t_grid, tol)
        if conjugate_image:
            there = there.conjugate()
        out.append(here - mu_bar * math.sqrt(det) / float(denom) * there)
    return out

