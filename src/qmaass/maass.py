"""Numeric Maass-waveform layer and the quantum-modular toolkit.

A waveform is described by a coefficient table: a scale ``N`` and real
coefficients indexed by nonzero integers.  Its value at a point of the
upper half plane is the Bessel-weighted Fourier sum

    sqrt(v) * sum_n T(n) K0(2 pi |n| v / N) e(n u / N).

This module provides:

* the coefficient-table data model;
* the explicit odd-divisor example at scale 24 (positive indices from
  the even-parts generating series, negative ones from its odd-indexed
  partner) with its two transformation residuals;
* coefficient tables for the four q-series families, read off the exact
  indefinite theta series, with experimental negative parts;
* exact root-of-unity evaluation of the families (the hypergeometric
  sums terminate there), radial-limit extrapolation checks against
  those exact values, and cocycle sampling of the positive-part series
  along a fractional-linear map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .agpolys import ag_polynomials_at_root
from .bailey import LIMIT_WEIGHTS
from .bessel import k0_bessel
from .cyclotomic import CycNumber, check_root_order, cyclic_add, cyclic_mul
from .families import FAMILIES, _validate_family, negative_part_series
from .reports import CheckReport, _exact_str, report_from_condition
from .series import PrecisionError, QSeriesError
from .theta import (
    _bounded,
    family_lattice_numeric,
    family_params,
    indefinite_theta_series,
    unit_phase,
)

__all__ = [
    "MaassCoeffTable",
    "QuantumSample",
    "cohen_table",
    "cocycle_samples",
    "cohen_transform_residual",
    "eval_waveform",
    "family_coeff_table",
    "quantum_value",
    "radial_limit_check",
]


# ---------------------------------------------------------------- data model


@dataclass(frozen=True)
class MaassCoeffTable:
    """Fourier coefficient table of a waveform.

    ``scale`` is the positive integer N in the expansion; ``coeffs`` maps
    nonzero integer indices to real coefficients (exact rationals when
    sourced from series).  The two constant-term exponents ``kappa1``
    and ``kappa2`` are carried to express cuspidality; every table built
    here is cuspidal, so both are zero.
    """

    scale: int
    coeffs: dict[int, object] = field(default_factory=dict)
    kappa1: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.scale, int) and self.scale >= 1):
            raise QSeriesError("the table scale must be a positive integer")
        if 0 in self.coeffs:
            raise QSeriesError("coefficient tables are indexed by nonzero integers")

    def extent(self) -> int:
        """Largest absolute index present (0 for an empty table)."""
        return max((abs(n) for n in self.coeffs), key=int, default=0)

    def residue_classes(self) -> set[int]:
        """Residue classes mod scale in which the support lives.

        Tables built here are supported on a single residue class (for
        instance 1 mod 24 for the scale-24 example), so this set is a
        singleton for them.
        """
        return {n % self.scale for n in self.coeffs}

    def max_abs_coeff(self) -> float:
        return max((abs(float(c)) for c in self.coeffs.values()), default=0.0)

    def positive_items(self) -> list[tuple[int, object]]:
        return sorted((n, c) for n, c in self.coeffs.items() if n > 0)


# ------------------------------------------------------------- Cohen example


def cohen_table(n_max: int) -> MaassCoeffTable:
    """Coefficient table of the scale-24 example, out to |n| <= n_max.

    Positive indices 24m + 1 carry the coefficients of the even-parts
    generating series; negative indices 1 - 24m carry those of its
    odd-indexed partner, streamed through the fourth family's closed
    lattice expansion (the partner equals minus the fourth family at
    (1,1) with the variable negated, and the lattice route enumerates
    coefficients in linear time; the dense classical representation is
    cross-checked against it in the tests).  All values are exact
    integers supported on the residue class 1 mod 24.
    """
    from .families import sigma_coefficients
    from .series import dense_int_coeffs
    from .theta import family_lattice_series

    if not (isinstance(n_max, int) and n_max >= 1):
        raise QSeriesError("the table extent must be a positive integer")
    coeffs: dict[int, int] = {}
    m_pos = (n_max - 1) // 24
    for m, value in enumerate(sigma_coefficients(m_pos)):
        if value:
            coeffs[24 * m + 1] = value
    m_neg = (n_max + 1) // 24
    if m_neg >= 1:
        fourth = dense_int_coeffs(family_lattice_series(4, 1, 1, m_neg + 1), m_neg + 1)
        for m in range(1, m_neg + 1):
            value = -fourth[m] if m % 2 == 0 else fourth[m]
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
    u, v = tau.real, tau.imag
    if not v > 0:
        raise QSeriesError("tau must lie in the upper half plane")
    if n_cut > table.extent():
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


def cohen_transform_residual(tau: complex, n_cut: int) -> tuple[complex, complex]:
    """Residuals of the two transformation laws of the scale-24 example.

    Returns (f(-1/(2 tau)) - conj(f(tau)), f(tau + 1) - e(1/24) f(tau)).
    The second vanishes termwise; the first vanishes up to truncation
    and float error.
    """
    table = cohen_table(max(n_cut, 1))
    cut = table.extent()  # the largest index the table actually reaches
    f_tau, _ = eval_waveform(table, tau, cut)
    f_inv, _ = eval_waveform(table, -1.0 / (2.0 * tau), cut)
    f_shift, _ = eval_waveform(table, tau + 1.0, cut)
    res_inv = f_inv - f_tau.conjugate()
    res_shift = f_shift - unit_phase(Fraction(1, 24)) * f_tau
    return res_inv, res_shift


# ------------------------------------------------- family coefficient tables


def family_coeff_table(
    j: int,
    k: int,
    ell: int,
    trunc,
    include_negative: bool = False,
    region: str = "cone",
    nu_window: int | None = None,
) -> tuple[MaassCoeffTable, dict]:
    """Coefficient table of a family waveform read off its theta series.

    Positive indices come from the exact indefinite theta series below
    ``trunc`` (so the positive part of the table reproduces the shifted
    family series term by term).  With ``include_negative`` the
    conjectural negative part is filled from the negative-index series
    and flagged experimental in the diagnostics — the pairing is
    reported data, not a certified property.
    """
    data = family_params(j, k, ell)
    series = indefinite_theta_series(data.params, trunc)
    exponents = [e for e, _ in series.terms()]
    diagnostics: dict[str, object] = {"experimental_negative": False}
    negative_terms: list[tuple[Fraction, object]] = []
    if include_negative:
        neg, neg_diag = negative_part_series(
            data.params.M, ell, trunc, region=region, nu_window=nu_window
        )
        negative_terms = list(neg.terms())
        exponents.extend(e for e, _ in negative_terms)
        diagnostics["experimental_negative"] = True
        diagnostics["negative_part"] = neg_diag
    scale = math.lcm(*(e.denominator for e in exponents)) if exponents else 1
    coeffs: dict[int, object] = {}
    for e, c in series.terms():
        coeffs[int(e * scale)] = c
    # The companion series lists the coefficients of negative Fourier
    # indices against positive exponents |n|/scale, so indices flip sign.
    for e, c in negative_terms:
        idx = -int(e * scale)
        coeffs[idx] = coeffs.get(idx, 0) + c
    table = MaassCoeffTable(scale=scale, coeffs=coeffs)
    diagnostics["scale"] = scale
    diagnostics["positive_terms"] = len(list(series.terms()))
    return table, diagnostics


# --------------------------------------------------------- quantum evaluation


@dataclass(frozen=True)
class QuantumSample:
    """Exact value of a family series at a root of unity."""

    x: Fraction
    value: CycNumber

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
    terminates; the result is exact in a cyclotomic field.  Families with
    power d = 2 are evaluated at e(x)^d = e(d x), matching the variable of
    their theta embedding.
    """
    _validate_family(j, k, ell)
    xq = Fraction(x)
    fam = FAMILIES[j]
    s, first, power = LIMIT_WEIGHTS[fam.identity]
    w = (s * xq) % 1
    N, num = w.denominator, w.numerator
    check_root_order(N)
    # Summed in Z[x]/(x^N - 1) at x = q, mapped to q = e(w) at the end.
    # (q^s; q^s)_i vanishes there from the first i with N | num*s*i on.
    length = N // math.gcd(N, num * s)
    chains = ag_polynomials_at_root(k, ell, first, first + length - 1, N)
    prefix = {0: fam.sum_scale}  # sum_scale * (q^s; q^s)_(n - first)
    total: dict = {}
    for n in range(first, first + length):
        if n > first:
            prefix = cyclic_add(prefix, prefix, N, -1, s * (n - first))
        term = cyclic_mul(prefix, chains[n], N)
        shift = 0 if power is None else power(n)
        total = cyclic_add(total, term, N, -1 if n % 2 else 1, shift)
    value = CycNumber.from_powers(N, {e * num: c for e, c in total.items()})
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
    a, b, c, d = (int(v) for v in gamma)
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

