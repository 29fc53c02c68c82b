"""Signature (1,1) indefinite theta machinery.

Everything here revolves around the integral quadratic form
``Q(r) = ((M+1) r1^2 - (M-1) r2^2) / 2`` for an integer ``M >= 2``.  The
central exact object is a two-region lattice sum over integer pairs
shifted by a rational vector ``a`` and phase-twisted by a rational
vector ``b``; for each of the four q-series families there is a
parameter specialization making that sum equal to an exact rational
power of q times the family series (composed with a power of q).

Provided here:

* an exact rational toolkit for the form: values, bilinear pairing, the
  determinant-one automorph, the two norm ``-1`` reference vectors with
  their hyperbolic parameterization, and sign tests against them that
  stay in rational arithmetic;
* the exact two-region theta series, enumerated row by row over exactly
  the lattice points whose exponent is below the truncation;
* the per-family parameters of :data:`qmaass.families.FAMILIES` plus exact
  validation of the windows, congruences and integrality of any (M, a, b);
* closed lattice expansions of the four series families, their exact
  verification against the defining sums, and a cancellation-free
  numeric evaluator for radial limits;
* numeric evaluation of the Bessel-weighted waveform attached to theta
  data, and of the boundary correction ("completion defect") that must
  vanish exactly when the parameters satisfy the validated conditions.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import defaultdict
from fractions import Fraction
from itertools import cycle, islice

from .bessel import k0_bessel
from .cyclotomic import CycNumber
from .families import FAMILIES, _affine, _validate_family, family_series
from .reports import CheckReport, Record, _exact_str, report_from_comparison
from .series import (PrecisionError, QSeries, QSeriesError, _lattice_row, finite_trunc, int_arg, positive_trunc,
                     rational_arg)


def unit_phase(w) -> complex:
    """e(w) = exp(2 pi i w), with ``w`` given in full turns."""
    angle = 2.0 * math.pi * float(w)
    return complex(math.cos(angle), math.sin(angle))


def _rational_pair(v, name: str) -> tuple[Fraction, Fraction]:
    """The pair ``v`` as Fractions, its coordinates read as name1 and name2;
    Fraction entries pass through as they are."""
    if not isinstance(v, (tuple, list)) or len(v) != 2:
        raise QSeriesError(f"{name} must be a pair of rationals, got {v!r}")
    x, y = v
    x, y = rational_arg(x, name + "1"), rational_arg(y, name + "2")
    return (x if type(x) is Fraction else Fraction(x), y if type(y) is Fraction else Fraction(y))


def star(v):
    """The reflection (x1, x2) -> (-x1, x2), of Fractions or of integer numerators."""
    x, y = v
    return (-x, y)


def _over_common(*pairs) -> tuple[int, list[tuple[int, int]]]:
    """D, the pairs' least common denominator, and each pair's numerators over D."""
    D = math.lcm(*(c.denominator for pair in pairs for c in pair))
    return D, [tuple(c.numerator * (D // c.denominator) for c in pair) for pair in pairs]


class QuadForm:
    """Exact toolkit for the form Q(r) = ((M+1) r1^2 - (M-1) r2^2)/2.

    :meth:`bilinear` and :meth:`apply_automorph` take Fractions or integer
    numerators over a common denominator."""

    def __init__(self, M: int):
        self.M = int_arg(M, "M", 2)

    def value(self, r: tuple[Fraction, Fraction]) -> Fraction:
        x, y = _rational_pair(r, "r")
        return Fraction(self.M + 1, 2) * x * x - Fraction(self.M - 1, 2) * y * y

    def bilinear(self, r, s):
        (x, y), (u, w) = r, s
        return (self.M + 1) * x * u - (self.M - 1) * y * w

    def apply_automorph(self, v):
        """g v for the automorph g = ((M, M - 1), (M + 1, M)) of the form."""
        x, y = v
        M = self.M
        return (M * x + (M - 1) * y, (M + 1) * x + M * y)

    # ----------------------------------------------- norm -1 reference data
    def reference_parameter(self, which: int) -> float:
        """Hyperbolic parameter placing the norm -1 reference vector
        c_which = ((-1)^which (M-1), M+1)/sqrt(M^2-1) on the curve."""
        self._check_ref_index(which)
        t = math.asinh(math.sqrt((self.M - 1) / 2.0))
        return -t if which == 1 else t

    def boundary_pairing(self, r: tuple[Fraction, Fraction], which: int) -> Fraction:
        """B(r, c_which) divided by sqrt(M^2 - 1); the sign is exact.

        Reference vector 1 gives -(r1 + r2); vector 2 gives r1 - r2.
        """
        self._check_ref_index(which)
        x, y = _rational_pair(r, "r")
        return (x - y) if which == 2 else -(x + y)

    def normal_pairing(self, r: tuple[Fraction, Fraction], which: int) -> Fraction:
        """B(r, c_which^perp), exactly rational.

        The companions are c_1^perp = (1, -1) and c_2^perp = (1, 1).
        """
        self._check_ref_index(which)
        x, y = _rational_pair(r, "r")
        M = self.M
        return (M + 1) * x + (M - 1) * y if which == 1 else (M + 1) * x - (M - 1) * y

    @staticmethod
    def _check_ref_index(which: int) -> None:
        int_arg(which, "reference vector index", 1, 2)


def _equivalent(form: QuadForm, x, alpha, D: int, y, beta, E: int) -> bool:
    """Whether shift/twist pairs (x / D, y / E) and (alpha / D, beta / E) are equivalent."""
    for sign in (1, -1):
        shift = (x[0] + sign * alpha[0], x[1] + sign * alpha[1])
        mu = (y[0] + sign * beta[0], y[1] + sign * beta[1])
        if shift[0] % D or shift[1] % D or mu[0] % E or mu[1] % E:
            continue
        if form.bilinear(x, (mu[0] // E, mu[1] // E)) % D == 0:
            return True
    return False


# --------------------------------------------------------------- theta params


class ThetaParams(Record):
    """Shift/twist data (M, a, b) for the two-region theta series.

    The components of ``a`` must have non-integral sum and difference;
    that keeps every lattice point strictly inside one of the two
    regions and the exponent strictly positive there.
    """

    def __init__(self, M: int, a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> None:
        int_arg(M, "M", 2)
        a, b = _rational_pair(a, "a"), _rational_pair(b, "b")
        for s in (a[0] + a[1], a[0] - a[1]):
            if s.denominator == 1:
                raise QSeriesError("the shift components must have non-integral sum and difference")
        self.__dict__.update(M=M, a=a, b=b)


# Cohen's example as a lattice, whose theta series is q^(1/12) sigma(q^2)
# (Andrews, Dyson, Hickerson and Cohen, Invent. Math. 91, 1988).
COHEN_LATTICE = ThetaParams(M=5, a=(Fraction(1, 6), 0), b=(Fraction(1, 12), Fraction(1, 8)))


class FamilyThetaData(Record):
    """Theta parameters realizing one series family, plus exact match data.

    The two-region theta series of ``params`` equals
    ``scale * q^alpha * F(q^power)`` where F is the family series.
    """

    def __init__(self, j: int, k: int, ell: int, params: ThetaParams, alpha: Fraction,
                 scale: Fraction, power: int) -> None:
        self.__dict__.update(
            j=j, k=k, ell=ell, params=params, alpha=alpha, scale=scale, power=power
        )


def _family_numerators(j: int, k: int, ell: int) -> tuple:
    """(M, A, D, B, E): family j's shift a = A / D and twist b = B / E at
    (k, ell), read off its record as :class:`qmaass.families.Family` says."""
    fam = FAMILIES[j]
    M = _affine(fam.M, k)
    d1, d2 = 2 * (M + 1), 4 * k + 2
    D = math.lcm(d1, d2)
    A = (_affine(fam.a1, k) * (D // d1), (2 * k - 2 * ell + 1) * (D // d2))
    e1, e2 = (_affine(c, k) for c in fam.b)
    E = math.lcm(e1, e2)
    return M, A, D, (E // e1, E // e2), E


def family_params(j: int, k: int, ell: int) -> FamilyThetaData:
    """The exact (M, a, b) specialization realizing family j at (k, ell)."""
    _validate_family(j, k, ell)
    fam = FAMILIES[j]
    M, A, D, B, E = _family_numerators(j, k, ell)
    a, b = (Fraction(A[0], D), Fraction(A[1], D)), (Fraction(B[0], E), Fraction(B[1], E))
    params = ThetaParams(M=M, a=a, b=b)
    alpha = QuadForm(M).value(params.a)
    return FamilyThetaData(j, k, ell, params, alpha, Fraction(fam.theta_scale), fam.power)


# ------------------------------------------------------------ two-region sum


def _denominators(params: ThetaParams) -> tuple[int, int]:
    """D and E with a = (A1, A2) / D and b = (B1, B2) / E."""
    return _over_common(params.a)[0], _over_common(params.b)[0]


def _lattice_walk(params: ThetaParams, cut: int):
    """The points a + (n, nu) with max(|n|, |nu|) <= cut, in integers.

    Yields (n, nu, x, y, q, t), with D and E from :func:`_denominators`:
    the point is (x, y) / D, its form value Q is q / (2 D^2) and its
    pairing B(r, b) is t / (D E).  Int/int division is correctly
    rounded, so q / (2 D^2) is the float of the exact value.
    """
    int_arg(cut, "lattice_cut", 1)
    M = params.M
    D, ((A1, A2),) = _over_common(params.a)
    E, ((B1, B2),) = _over_common(params.b)
    for n in range(-cut, cut + 1):
        x = A1 + n * D
        qx, tx = (M + 1) * x * x, (M + 1) * x * B1
        for nu in range(-cut, cut + 1):
            y = A2 + nu * D
            yield n, nu, x, y, qx - (M - 1) * y * y, tx - (M - 1) * y * B2


def _twist_residues(params: ThetaParams) -> tuple[int, int, int]:
    """(order, c1, c2): the twist coefficient at (n, nu) is zeta_order^r,
    r = (c1 n - c2 nu) mod order.

    The twist is e(beta1 n - beta2 nu) with beta1 = (M+1) b1 and
    beta2 = (M-1) b2, and c_i = beta_i * order.
    """
    beta1 = (params.M + 1) * params.b[0]
    beta2 = (params.M - 1) * params.b[1]
    order = math.lcm(beta1.denominator, beta2.denominator)
    return order, int(beta1 * order), int(beta2 * order)


def indefinite_theta_series(params: ThetaParams, trunc) -> QSeries:
    """The exact two-region theta series of (M, a, b), below ``trunc``.

    The two regions make up the cone r1^2 > r2^2 (the main cone of
    :func:`_cone_weight`), whose boundary no lattice point meets because
    a1 +- a2 is not integral.  In the cone the exponent numerator
    q = (M+1) x^2 - (M-1) y^2 exceeds 2 x^2, so only the rows with
    2 x^2 below the limit hold terms; each row's kept nu and their
    exponents come from :func:`~qmaass.series._lattice_row`, as the
    family shells' do, and its twist residues repeat along each run.
    """
    t = finite_trunc(trunc)
    if t <= 0:
        return QSeries.zero(t)
    M = params.M
    order, c1, c2 = _twist_residues(params)
    D, ((A1, A2),) = _over_common(params.a)
    den = 2 * D * D
    limit = math.ceil(t * den)  # an integer q is below t * den iff it is below limit
    reach = math.isqrt((limit - 1) // 2)  # the largest |x| with 2 x^2 < limit
    # q = (M+1) x^2 - (M-1) A2^2 - (square nu^2 + linear nu) / 2 at y = A2 + nu D
    square, linear = 2 * (M - 1) * D * D, 4 * (M - 1) * A2 * D
    # exponent numerator -> the number of points at each twist residue
    acc: dict[int, list[int]] = defaultdict(lambda: [0] * order)
    for n in range(-((reach + A1) // D), (reach - A1) // D + 1):
        x = A1 + n * D
        # the cone: -|x| < A2 + nu D < |x|
        lo, hi = (-abs(x) - A2) // D + 1, -((A2 - abs(x)) // D) - 1
        for nus, exps in _lattice_row(square, linear, (M + 1) * x * x - (M - 1) * A2 * A2, limit, lo, hi):
            r0 = (c1 * n - c2 * nus.start) % order  # falls by c2 from one nu to the next
            for q, r in zip(exps, cycle([(r0 - c2 * i) % order for i in range(min(order, len(nus)))])):
                acc[q][r] += 1
    if order <= 2:  # zeta_2 = -1
        coeffs = {q: c[0] - sum(c[1:]) for q, c in acc.items()}
    else:
        coeffs = {q: CycNumber(order, c) for q, c in acc.items()}
    g = math.gcd(den, *coeffs)
    return QSeries({q // g: c for q, c in coeffs.items()}, den // g, t)


# -------------------------------------------------------- family lattice sums


def _family_shell(j: int, k: int, ell: int, n: int, top: int):
    """Lattice terms of family j at outer index n with exponent below ``top``:
    (exponents, numerators), two lists of ints, the terms numerators /
    shell_denom * q^exponents.  Each part (m, mult) of the shell is a row of
    :func:`~qmaass.series._lattice_row` with alternating signs, exponent
    start - ((2k+1) nu^2 + (2k - 2 ell + 1) nu) / 2 at nu and start =
    (Q(a + (m, 0)) - Q(a)) / power = ((M + 1) m^2 + A1 m) / (2 power), a1 = A1 / (2(M + 1)).
    """
    fam = FAMILIES[j]
    M, a1, den = _affine(fam.M, k), _affine(fam.a1, k), 2 * fam.power
    square, linear = 2 * k + 1, 2 * k - 2 * ell + 1
    exps, nums = [], []
    for form, mult in fam.shell_parts:
        m = _affine(form, n)
        start = ((M + 1) * m * m + a1 * m) // den
        for nus, run in _lattice_row(square, linear, start, top, -n, n - fam.first):
            exps += run
            nums += islice(cycle((-mult, mult) if (n + nus.start) & 1 else (mult, -mult)), len(nus))
    return exps, nums


def _shell_walk(j: int, k: int, ell: int, top: int):
    """The shells n = first, first + 1, ... of family j cut below ``top``, up
    to the first empty one.  A cut shell keeps exactly the terms below top,
    so it is empty exactly when its least exponent reaches top; that least
    exponent never decreases in n, so no later shell keeps a term."""
    n = FAMILIES[j].first
    while (shell := _family_shell(j, k, ell, n, top))[0]:
        yield shell
        n += 1


@functools.lru_cache(maxsize=16)
def _lattice_table(j: int, k: int, ell: int, top: int) -> tuple[tuple[int, ...], int]:
    """Dense integer numerators of the lattice expansion below q^top, and
    their denominator; cached for the exact series, the numeric grids and
    :func:`~qmaass.families.sigma_star_coefficients` alike."""
    coeffs = [0] * top
    for exps, nums in _shell_walk(j, k, ell, top):
        for e, c in zip(exps, nums):
            coeffs[e] += c
    return tuple(coeffs), FAMILIES[j].shell_denom


def family_lattice_series(j: int, k: int, ell: int, trunc) -> QSeries:
    """Closed two-variable lattice expansion of a series family."""
    _validate_family(j, k, ell)
    t = finite_trunc(trunc)
    coeffs, denom = _lattice_table(j, k, ell, math.ceil(t))
    return QSeries({e: Fraction(c, denom) for e, c in enumerate(coeffs) if c}, 1, t)


# Lattice terms of modulus below this are dropped: about the rounding
# error of a double-precision sum of magnitude 1.
_LATTICE_TERM_FLOOR = 1e-15
# The most coefficients one numeric table may hold (t down to about 3.3e-5).
_LATTICE_TABLE_CAP = 1 << 20


def family_lattice_numeric(j: int, k: int, ell: int, x: Fraction, ts: list) -> list:
    """Numeric family values at q = e(x) exp(-t) via the lattice expansion,
    one for each t in ``ts``.

    ``x`` is an exact rational phase in full turns and each t a positive
    radial distance to the unit circle.  Every lattice term has modulus
    exp(-t * exponent) <= 1, so this route is free of the catastrophic
    cancellation the defining hypergeometric sums suffer near the
    circle.  At each t the terms with exp(-t * exponent) >= 1e-15 are
    summed from one integer coefficient table, shared by the grid; a t
    whose table would exceed ``_LATTICE_TABLE_CAP`` coefficients raises
    :class:`PrecisionError`.  With x = p/q the exponents r0 + q m of one
    residue class share the phase e(p r0 / q), reduced exactly, and their
    decay factors exp(-t q m).
    """
    _validate_family(j, k, ell)
    ts = [float(s) for s in ts]
    if not ts or not all(0 < s < math.inf for s in ts):
        raise QSeriesError("the radial distance must be positive and finite")
    xq = rational_arg(x, "x")
    p, q = xq.numerator, xq.denominator
    cutoff = -math.log(_LATTICE_TERM_FLOOR)
    if cutoff / min(ts) >= _LATTICE_TABLE_CAP:  # floor(cutoff / t) + 1 > the cap
        raise PrecisionError(
            f"t = {min(ts)!r} needs a table of {cutoff / min(ts):.4g} lattice"
            f" coefficients, more than {_LATTICE_TABLE_CAP}"
        )
    limits = [math.floor(cutoff / s) + 1 for s in ts]
    coeffs, denom = _lattice_table(j, k, ell, max(limits))
    phases = [unit_phase(p * r0 % q / q) for r0 in range(min(q, max(limits)))]
    values = []
    for s, lim in zip(ts, limits):
        decay = [math.exp(-s * q * m) for m in range(-(-lim // q))]
        total = 0j
        for r0 in range(min(q, lim)):
            head = math.exp(-s * r0) * phases[r0]
            total += sum(map(operator.mul, coeffs[r0:lim:q], decay)) * head
        values.append(total / denom)
    return values


def verify_family_lattice(j: int, k: int, ell: int, trunc) -> CheckReport:
    """Compare a defining family sum with its closed lattice expansion."""
    t = positive_trunc(trunc)
    lhs = family_series(j, k, ell, t)
    rhs = family_lattice_series(j, k, ell, t)
    return report_from_comparison(
        "family_lattice_identity", {"j": j, "k": k, "ell": ell}, lhs, rhs
    )


def verify_theta_embedding(j: int, k: int, ell: int, trunc) -> CheckReport:
    """Certify theta = scale * q^alpha * family(q^power) below ``trunc``."""
    data = family_params(j, k, ell)
    t = positive_trunc(trunc)
    theta = indefinite_theta_series(data.params, t)
    inner_trunc = (t - data.alpha) / data.power
    fam = family_series(j, k, ell, inner_trunc)
    shifted = fam.compose_power(data.power).shift(data.alpha).scale(data.scale)
    params = {"j": j, "k": k, "ell": ell, "alpha": _exact_str(data.alpha)}
    return report_from_comparison("theta_embedding", params, theta, shifted.truncate(t))


# ----------------------------------------------------------- param validation


def _param_checks(M: int, A, D: int, B, E: int) -> tuple:
    """(status, details, shifts, pairing) of :func:`validate_params` on
    a = A / D and b = B / E, each check an integer identity or divisibility."""
    form = QuadForm(M)
    gamma, bilinear = form.apply_automorph, form.bilinear

    def offset(u, v):  # the int c with u + c D (1, 1) = v, else None
        c, r = divmod(v[0] - u[0], D)
        return None if r or v[1] - u[1] != c * D else c

    checks = {}
    s, d = A[0] + A[1], A[0] - A[1]
    checks["shift_window"] = 0 < s < D and d % D != 0
    checks["shift_nonzero"] = A != (0, 0)
    A_star, B_star = star(A), star(B)
    ga, ga_star, gb = gamma(A), gamma(A_star), gamma(B)
    # g(a) + s (1, 1) = a forces a1 = 0, so a = a* and this covers it
    shifts = offset(ga, A_star), offset(ga_star, A)
    checks["shift_congruence"] = None not in shifts
    checks["twist_congruence"] = (gb[0] - E, gb[1] - E) == B_star and gamma(B_star) == B
    pairing, rest = divmod(bilinear(A, (-1, -1)), D)
    checks["bilinear_integrality"] = rest == 0

    c1, c2 = gamma((1, 0)), gamma((0, 1))  # the columns of g
    checks["automorph_det"] = c1[0] * c2[1] - c2[0] * c1[1] == 1
    # g^T Q g = Q: they pair as the units do
    pairs = bilinear(c1, c1), bilinear(c2, c2), bilinear(c1, c2)
    checks["automorph_preserves_form"] = pairs == (M + 1, 1 - M, 0)
    # g c_1 = c_2; both reference vectors carry the factor 1 / sqrt(M^2 - 1)
    checks["automorph_maps_reference_vectors"] = gamma((1 - M, M + 1)) == (M - 1, M + 1)
    checks["phase_collapse"] = 2 * (M + 1) * B[0] == 2 * (M - 1) * B[1] == E

    branch_direct = _equivalent(form, ga, A, D, gb, B, E)
    branch_star = _equivalent(form, ga, A_star, D, gb, B_star, E) and _equivalent(
        form, ga_star, A, D, gamma(B_star), B, E
    )
    checks["equivalence_branch"] = branch_direct or branch_star
    status = "pass" if all(checks.values()) else "fail"
    details = {**checks, "equivalence_direct": branch_direct, "equivalence_starred": branch_star}
    return status, details, shifts, None if rest else pairing


def validate_params(params: ThetaParams) -> CheckReport:
    """Exact validation of any (M, a, b): 0 < a1 + a2 < 1, a1 - a2 not
    integral; g(a) + s1 (1, 1) = a* and g(a*) + s2 (1, 1) = a for the
    automorph g (s1 = s2 when a = a*); B(a, (-1, -1)) integral;
    g(b) - (1, 1) = b*, g(b*) = b; 2(M + 1) b1 = 2(M - 1) b2 = 1; an
    equivalence branch.  Reports ``shifts`` [s1, s2] and ``pairing``, None
    if no integer fits: [-1, 1], -1 for :data:`COHEN_LATTICE`."""
    (D, (A,)), (E, (B,)) = _over_common(params.a), _over_common(params.b)
    status, details, shifts, pairing = _param_checks(params.M, A, D, B, E)
    return CheckReport("theta_params", {"M": params.M, "a": params.a, "b": params.b}, status,
                       {**details, "shifts": list(shifts), "pairing": pairing})


def validate_family_params(j: int, k: int, ell: int) -> CheckReport:
    """:func:`validate_params` on family j at (k, ell), without its shifts
    and pairing, on the integers of :func:`_family_numerators`."""
    _validate_family(j, k, ell)
    M, A, D, B, E = _family_numerators(j, k, ell)
    status, details, _, _ = _param_checks(M, A, D, B, E)
    return CheckReport("family_theta_params", {"j": j, "k": k, "ell": ell, "M": M}, status, details)


# ------------------------------------------------------------- numeric layer


def upper_half_plane(tau) -> tuple[float, float]:
    """(Re tau, Im tau); QSeriesError unless tau lies in the upper half plane.
    Every waveform and completion evaluation reads its point here."""
    if not tau.imag > 0:
        raise QSeriesError("tau must lie in the upper half plane")
    return tau.real, tau.imag


def _cone_weight(M: int, x: int, y: int) -> float:
    """Exact-sign weight of the lattice point (x, y) / D.

    It is 1 inside the cone r1^2 > r2^2, whose boundary no lattice point
    meets (x = +-y would make a1 -+ a2 integral), and 1 inside
    (M+1)^2 r1^2 < (M-1)^2 r2^2 (1/2 on its boundary).  The cones are
    disjoint, and the gap between them carries weight zero.
    """
    if x * x > y * y:
        return 1.0
    normal = ((M + 1) * x) ** 2 - ((M - 1) * y) ** 2
    return 1.0 if normal < 0 else (0.5 if normal == 0 else 0.0)


def _bounded(value: complex, tail: float) -> tuple[complex, float]:
    """``(value, tail)``, refused when a nonzero tail bound reaches |value|."""
    if tail and tail >= abs(value):
        raise PrecisionError(
            f"the tail bound {tail:.3g} is not below the value's size {abs(value):.3g}"
        )
    return value, tail


def _waveform_tail(params: ThetaParams, v: float, cut: int) -> float:
    """A bound on the waveform terms, before the factor sqrt(v), of the
    lattice points outside the shells max(|n|, |nu|) <= cut.

    In either cone |Q(r)| >= c |r|^2 with c = (M-1) / (2 (M+1)): in the
    main one Q > r1^2 > |r|^2 / 2, in the perpendicular one
    |Q| >= (M-1) / (M+1) r2^2 and |r|^2 <= 2 r2^2.  The cones are disjoint,
    so a point weighs at most 1, and K0(x) <= sqrt(pi / (2x)) e^-x.  Shell
    s holds 8 s points, each with |r| >= s - A for A = max(|a1|, |a2|), so
    it adds at most f(s) = 8 s sqrt(pi / (2 x)) e^-x, x = 2 pi c v (s - A)^2.
    With f decreasing, the shells from S = cut + 1 on add at most
    f(S) + the integral of f from S, and s / (s - A) <= S / (S - A) leaves
    a Gaussian integral, an erfc.  Infinite when shell S can reach the
    origin (S <= A).
    """
    M, A, start = params.M, max(map(abs, params.a)), cut + 1
    if start <= A:
        return math.inf
    gap, rate = start - float(A), math.pi * (M - 1) / (M + 1) * v  # rate = 2 pi c v
    x = rate * gap * gap
    head = 8 * start * math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    integral = 8 * start / gap * math.pi / (2.0 * math.sqrt(2.0) * rate) * math.erfc(math.sqrt(x))
    return head + integral


def waveform_numeric(
    params: ThetaParams, tau: complex, lattice_cut: int = 12
) -> tuple[complex, float]:
    """The Bessel-weighted indefinite theta waveform at tau.

    Sums over both cones with exact region selection and K0 weights.
    Returns (value, tail_bound): the tail bound is sqrt(v) times the bound
    of :func:`_waveform_tail` on the omitted lattice points, proven for
    the exact terms; the float rounding of the sum is not bounded.  A
    tail bound that is not below |value| raises :class:`PrecisionError`.
    """
    u, v = upper_half_plane(tau)
    M = params.M
    D, E = _denominators(params)
    q_den, t_den = 2 * D * D, D * E
    total = 0.0 + 0.0j
    for _, _, x, y, q, t in _lattice_walk(params, lattice_cut):
        weight = _cone_weight(M, x, y)
        if weight:
            # q > 2 x^2 >= 0 in the main cone; q <= -2 (M-1) y^2 / (M+1) < 0 in
            # the closed perpendicular one, where y = 0 would force x = 0 and
            # make a1 + a2 integral.
            qv = q / q_den
            total += weight * k0_bessel(2.0 * math.pi * abs(qv) * v) * unit_phase(qv * u + t / t_den)
    root_v = math.sqrt(v)
    return _bounded(root_v * total, root_v * _waveform_tail(params, v, lattice_cut))


# Gauss-Legendre nodes per panel and panels per ray integral; the rule
# is good to a few units in 1e-15 relative for c down to about 1e-30.
_RAY_NODES = 64
_RAY_PANELS = 4
# exp(-745) is below the smallest subnormal double, so the integrand is
# zero beyond the point where c sinh^2 y reaches it.
_UNDERFLOW_EXPONENT = 745.0


def _gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule
    on [-1, 1], by Newton's method on the three-term Legendre recurrence
    from the asymptotic first guesses cos(pi (i + 3/4) / (n + 1/2))."""

    def legendre(x):
        # P_n(x) and P_n'(x)
        p_prev, p = 1.0, x
        for m in range(2, n + 1):
            p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, slope = legendre(x)
            step = p / slope
            x -= step
            if abs(step) < 1e-15:
                break
        _, slope = legendre(x)
        nodes[i], nodes[n - 1 - i] = -x, x
        weights[i] = weights[n - 1 - i] = 2.0 / ((1.0 - x * x) * slope * slope)
    return nodes, weights


@functools.cache
def _ray_rule() -> tuple[tuple[float, float], ...]:
    """Composite Gauss-Legendre (node, weight) pairs on [0, 1]."""
    x, w = _gauss_legendre(_RAY_NODES)
    return tuple(
        ((panel + (xi + 1.0) / 2.0) / _RAY_PANELS, wi / (2.0 * _RAY_PANELS))
        for panel in range(_RAY_PANELS)
        for xi, wi in zip(x, w)
    )


def _ray_sign(u_plus: float, u_minus: float, t: float) -> int:
    """Direction of the boundary ray of G(x) = u_plus sinh x - u_minus cosh x
    anchored at ``t``: +1 (toward +inf) when G and its slope agree in sign
    there, -1 (toward -inf) when they differ, 0 when their product is zero.

    At some lattice points the product is zero in exact arithmetic, and
    the sign its float rounding takes decides that point's contribution.
    """
    g_here = u_plus * math.sinh(t) - u_minus * math.cosh(t)
    g_slope = u_plus * math.cosh(t) - u_minus * math.sinh(t)
    product = g_here * g_slope
    return (product > 0) - (product < 0)


def _ray_integral(u_plus: float, u_minus: float, t: float, sign: int) -> float:
    """Boundary weight: the signed integral of exp(-pi G(x)^2) along a ray.

    G(x) = u_plus sinh x - u_minus cosh x; the ray starts at ``t`` and
    runs toward +inf for ``sign`` +1, toward -inf (with an overall minus)
    for -1, and the weight is zero for 0.

    With R^2 = |u_plus^2 - u_minus^2| and c = pi R^2, G is +-R sinh(x - x0)
    when |u_plus| > |u_minus| and +-R cosh(x - x0) otherwise, where
    e^(2 x0) = |(u_plus + u_minus) / (u_plus - u_minus)|.  The ray runs
    away from x0, so its integral is (1, resp. e^-c) times the integral
    of exp(-c sinh^2 y) over y >= |t - x0|, taken by a fixed composite
    Gauss-Legendre rule up to where the integrand underflows (zero for a
    ray that starts beyond that point).
    """
    if not sign:
        return 0.0
    s = u_plus + u_minus
    d = u_plus - u_minus
    root_c = math.sqrt(math.pi * abs(s * d))
    lower = abs(t - 0.5 * math.log(abs(s / d)))
    upper = math.asinh(math.sqrt(_UNDERFLOW_EXPONENT) / root_c)
    span = upper - lower
    if not span > 0.0:
        return 0.0
    tail = span * sum(
        w * math.exp(-((root_c * math.sinh(lower + span * y)) ** 2))
        for y, w in _ray_rule()
    )
    return sign * (math.exp(-(root_c**2)) if s * d < 0 else 1.0) * tail


def completion_defect(params: ThetaParams, tau: complex, lattice_cut: int = 10) -> complex:
    """Difference of the two boundary correction sums at tau.

    Each lattice point contributes (alpha_1 - alpha_2) q^Q(r) e(B(r, b))
    where alpha_i is the boundary weight along the ray anchored at the
    i-th reference parameter.  For parameters passing the family
    validation this difference vanishes identically; generically it does
    not.  Points whose combined Gaussian exponent exceeds 100/pi-fold
    are skipped: their contribution is below exp(-100).  A point kept on
    the outer shell max(|n|, |nu|) = lattice_cut means a larger cut adds
    terms this one leaves out, and raises :class:`PrecisionError`.
    """
    u, v = upper_half_plane(tau)
    form = QuadForm(params.M)
    M = params.M
    D, E = _denominators(params)
    q_den, t_den, r_den = 2 * D * D, D * E, D * D
    root_v = math.sqrt(v)
    root_plus, root_minus = math.sqrt(2.0 * (M + 1)), math.sqrt(2.0 * (M - 1))
    t1, t2 = form.reference_parameter(1), form.reference_parameter(2)
    total = 0j
    for n, nu, x, y, q, t in _lattice_walk(params, lattice_cut):
        # Each ray integral is bounded by a Gaussian whose exponent is
        # pi v B(r, c_i)^2 with B(r, c_i)^2 = (M^2-1)(r1 -+ r2)^2; with the q^Q
        # modulus the per-point exponent is at least
        # pi v ((M^2-1) min (r1 +- r2)^2 + 2 Q(r)), a positive definite
        # expression.
        combined = (M * M - 1) * min((x + y) ** 2, (x - y) ** 2) + q
        if math.pi * v * (combined / r_den) > 100.0:
            continue
        if max(abs(n), abs(nu)) == lattice_cut:
            raise PrecisionError(
                f"lattice cut {lattice_cut} is too short for the completion defect at tau = {tau}"
            )
        u_plus = root_plus * (x / D) * root_v
        u_minus = root_minus * (y / D) * root_v
        sign1 = _ray_sign(u_plus, u_minus, t1)
        sign2 = _ray_sign(u_plus, u_minus, t2)
        qv = q / q_den
        alpha = _ray_integral(u_plus, u_minus, t1, sign1) - _ray_integral(
            u_plus, u_minus, t2, sign2
        )
        phase = unit_phase(qv * u + t / t_den)
        total += alpha * (math.exp(-2.0 * math.pi * qv * v) * phase)
    return root_v * total
