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
* the exact two-region theta series with a derived enumeration box and a
  one-layer safety rescan that turns an undersized box into a hard
  error;
* the per-family parameters of :data:`qmaass.families.FAMILIES` plus full
  validation of the windows, congruences, and integrality conditions;
* closed lattice expansions of the four series families, their exact
  verification against the defining sums, and a cancellation-free
  numeric evaluator for radial limits;
* numeric evaluation of the Bessel-weighted waveform attached to theta
  data, of the boundary correction ("completion defect") that must
  vanish exactly when the parameters satisfy the validated conditions,
  and numeric spot checks of the modular transformation laws of the
  completed waveform at ``M = 2``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, cycle, islice

from .bailey import quadratic_shift
from .cyclotomic import CycNumber
from .families import FAMILIES, _affine, _validate_family, family_series
from .reports import CheckReport, _exact_str, report_from_comparison
from .series import INF, PrecisionError, QSeries, QSeriesError


def unit_phase(w) -> complex:
    """e(w) = exp(2 pi i w), with ``w`` given in full turns."""
    angle = 2.0 * math.pi * float(w)
    return complex(math.cos(angle), math.sin(angle))


def _frac_pair(v) -> tuple[Fraction, Fraction]:
    """``v`` as a pair of Fractions; Fraction entries pass through as they are."""
    x, y = v
    return (x if type(x) is Fraction else Fraction(x), y if type(y) is Fraction else Fraction(y))


def star(v) -> tuple[Fraction, Fraction]:
    """The reflection (x1, x2) -> (-x1, x2)."""
    x, y = _frac_pair(v)
    return (-x, y)


class QuadForm:
    """Exact toolkit for the form Q(r) = ((M+1) r1^2 - (M-1) r2^2)/2."""

    def __init__(self, M: int):
        if not (isinstance(M, int) and M >= 2):
            raise QSeriesError("the form parameter M must be an integer >= 2")
        self.M = M

    @property
    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.M + 1, 0), (0, 1 - self.M))

    def value(self, r) -> Fraction:
        x, y = _frac_pair(r)
        return Fraction(self.M + 1, 2) * x * x - Fraction(self.M - 1, 2) * y * y

    def bilinear(self, r, s) -> Fraction:
        x, y = _frac_pair(r)
        u, w = _frac_pair(s)
        return (self.M + 1) * x * u - (self.M - 1) * y * w

    @property
    def automorph(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The determinant-one integer matrix preserving the form."""
        M = self.M
        return ((M, M - 1), (M + 1, M))

    def apply_automorph(self, v) -> tuple[Fraction, Fraction]:
        x, y = _frac_pair(v)
        M = self.M
        return (M * x + (M - 1) * y, (M + 1) * x + M * y)

    # ----------------------------------------------- norm -1 reference data
    def reference_vector(self, which: int) -> tuple[float, float]:
        """The norm -1 vectors ((-1)^which (M-1), M+1)/sqrt(M^2-1)."""
        self._check_ref_index(which)
        M = self.M
        root = math.sqrt(M * M - 1)
        sign = -1.0 if which == 1 else 1.0
        return (sign * (M - 1) / root, (M + 1) / root)

    def reference_parameter(self, which: int) -> float:
        """Hyperbolic parameter placing reference vector ``which`` on the curve."""
        self._check_ref_index(which)
        t = math.asinh(math.sqrt((self.M - 1) / 2.0))
        return -t if which == 1 else t

    def curve_point(self, t: float) -> tuple[float, float]:
        """The norm -1 curve (sqrt(2/(M+1)) sinh t, sqrt(2/(M-1)) cosh t)."""
        M = self.M
        return (
            math.sqrt(2.0 / (M + 1)) * math.sinh(t),
            math.sqrt(2.0 / (M - 1)) * math.cosh(t),
        )

    def boundary_pairing(self, r, which: int) -> Fraction:
        """B(r, c_which) divided by sqrt(M^2 - 1); the sign is exact.

        Reference vector 1 gives -(r1 + r2); vector 2 gives r1 - r2.
        """
        self._check_ref_index(which)
        x, y = _frac_pair(r)
        return (x - y) if which == 2 else -(x + y)

    def normal_pairing(self, r, which: int) -> Fraction:
        """B(r, c_which^perp), exactly rational.

        The companions are c_1^perp = (1, -1) and c_2^perp = (1, 1).
        """
        self._check_ref_index(which)
        x, y = _frac_pair(r)
        M = self.M
        return (M + 1) * x + (M - 1) * y if which == 1 else (M + 1) * x - (M - 1) * y

    @staticmethod
    def _check_ref_index(which: int) -> None:
        if which not in (1, 2):
            raise QSeriesError("reference vector index must be 1 or 2")


def equivalence_check(pair1, pair2, M: int) -> bool:
    """Whether shift/twist pairs (a, b) and (alpha, beta) are equivalent.

    Requires a +- alpha integral and b +- beta =: mu integral with the
    same sign choice in both, and B(a, mu) an integer.
    """
    form = QuadForm(M)
    a, b = _frac_pair(pair1[0]), _frac_pair(pair1[1])
    al, be = _frac_pair(pair2[0]), _frac_pair(pair2[1])
    for sign in (1, -1):
        da = (a[0] + sign * al[0], a[1] + sign * al[1])
        mu = (b[0] + sign * be[0], b[1] + sign * be[1])
        if all(c.denominator == 1 for c in da + mu):
            if form.bilinear(a, mu).denominator == 1:
                return True
    return False


# --------------------------------------------------------------- theta params


@dataclass(frozen=True)
class ThetaParams:
    """Shift/twist data (M, a, b) for the two-region theta series.

    The components of ``a`` must have non-integral sum and difference;
    that keeps every lattice point strictly inside one of the two
    regions and the exponent strictly positive there.
    """

    M: int
    a: tuple[Fraction, Fraction]
    b: tuple[Fraction, Fraction]

    def __post_init__(self) -> None:
        if not (isinstance(self.M, int) and self.M >= 2):
            raise QSeriesError("M must be an integer >= 2")
        object.__setattr__(self, "a", _frac_pair(self.a))
        object.__setattr__(self, "b", _frac_pair(self.b))
        for s in (self.a[0] + self.a[1], self.a[0] - self.a[1]):
            if s.denominator == 1:
                raise QSeriesError(
                    "the shift components must have non-integral sum and difference"
                )

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "a": [_exact_str(c) for c in self.a],
            "b": [_exact_str(c) for c in self.b],
        }


@dataclass(frozen=True)
class FamilyThetaData:
    """Theta parameters realizing one series family, plus exact match data.

    The two-region theta series of ``params`` equals
    ``scale * q^alpha * F(q^power)`` where F is the family series.
    """

    j: int
    k: int
    ell: int
    params: ThetaParams
    alpha: Fraction
    scale: Fraction
    power: int

    def to_json_dict(self) -> dict:
        out = {"j": self.j, "k": self.k, "ell": self.ell}
        out.update(self.params.to_json_dict())
        out["alpha"] = _exact_str(self.alpha)
        out["scale"] = _exact_str(self.scale)
        out["power"] = self.power
        return out


def family_params(j: int, k: int, ell: int) -> FamilyThetaData:
    """The exact (M, a, b) specialization realizing family j at (k, ell)."""
    _validate_family(j, k, ell)
    fam = FAMILIES[j]
    M = _affine(fam.M, k)
    a = (Fraction(_affine(fam.a1, k), 2 * (M + 1)), Fraction(2 * k - 2 * ell + 1, 4 * k + 2))
    b = (Fraction(1, _affine(fam.b[0], k)), Fraction(1, _affine(fam.b[1], k)))
    params = ThetaParams(M=M, a=a, b=b)
    alpha = QuadForm(M).value(params.a)
    return FamilyThetaData(j, k, ell, params, alpha, Fraction(fam.theta_scale), fam.power)


def _as_theta_params(p) -> ThetaParams:
    if isinstance(p, FamilyThetaData):
        return p.params
    if isinstance(p, ThetaParams):
        return p
    raise QSeriesError("expected ThetaParams or FamilyThetaData")


# ------------------------------------------------------------ two-region sum


def _sqrt_ceil(t: Fraction) -> int:
    """Smallest integer N >= 0 with N*N >= t."""
    if t <= 0:
        return 0
    n = math.isqrt(math.ceil(t))
    while n * n < t:
        n += 1
    return n


def _denominators(params: ThetaParams) -> tuple[int, int]:
    """D and E with a = (A1, A2) / D and b = (B1, B2) / E."""
    (a1, a2), (b1, b2) = params.a, params.b
    return (
        math.lcm(a1.denominator, a2.denominator),
        math.lcm(b1.denominator, b2.denominator),
    )


def _lattice_walk(params: ThetaParams, cut: int):
    """The points a + (n, nu) with max(|n|, |nu|) <= cut, in integers.

    Yields (n, nu, x, y, q, t), with D and E from :func:`_denominators`:
    the point is (x, y) / D, its form value Q is q / (2 D^2) and its
    pairing B(r, b) is t / (D E).  Int/int division is correctly
    rounded, so q / (2 D^2) is the float of the exact value.
    """
    if cut < 1:
        raise QSeriesError("the lattice cutoff must be a positive integer")
    M = params.M
    D, E = _denominators(params)
    A1, A2 = (c.numerator * (D // c.denominator) for c in params.a)
    B1, B2 = (c.numerator * (E // c.denominator) for c in params.b)
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


def indefinite_theta_series(params, trunc) -> QSeries:
    """The exact two-region theta series of (M, a, b), below ``trunc``.

    The two regions are cut by floor-based inequalities on n +- nu; in
    either region the exponent dominates (n + a1)^2, which bounds the
    enumeration box.  A one-layer rescan beyond the box raises if any
    in-region term below ``trunc`` shows up there, so an undersized box
    can never silently drop terms.
    """
    params = _as_theta_params(params)
    if trunc is INF:
        raise QSeriesError("the theta series needs a finite truncation order")
    t = Fraction(trunc)
    if t <= 0:
        return QSeries.zero(t)
    a1, a2 = params.a
    fl_plus = math.floor(a1 + a2)
    fl_minus = math.floor(a1 - a2)
    order, c1, c2 = _twist_residues(params)
    D, _ = _denominators(params)
    den = 2 * D * D
    # An integer numerator q is below t * den exactly when it is below
    # the ceiling.
    limit = math.ceil(t * den)
    reach = _sqrt_ceil(t) + 1 + max(math.ceil(abs(a1)), math.ceil(abs(a2)))
    edge = reach + 1
    # exponent numerator -> {twist residue: number of points}
    acc: dict[int, dict[int, int]] = {}
    for n, nu, _, _, q, _ in _lattice_walk(params, edge):
        upper = n + nu >= -fl_plus and n - nu >= -fl_minus
        lower = n + nu < -fl_plus and n - nu < -fl_minus
        if not (upper or lower):
            continue
        if abs(n) == edge or abs(nu) == edge:
            if q < limit:
                raise QSeriesError(
                    "enumeration box closed too early: term below trunc at "
                    f"({n}, {nu})"
                )
            continue
        if q <= 0:
            raise QSeriesError(
                f"in-region lattice point ({n}, {nu}) has non-positive exponent"
            )
        if q < limit:
            counts = acc.setdefault(q, {})
            r = (c1 * n - c2 * nu) % order
            counts[r] = counts.get(r, 0) + 1
    if order <= 2:
        coeffs = {q: c.get(0, 0) - c.get(1, 0) for q, c in acc.items()}
    else:
        coeffs = {q: CycNumber.from_powers(order, c) for q, c in acc.items()}
    g = math.gcd(den, *coeffs)
    return QSeries({q // g: c for q, c in coeffs.items()}, den // g, t)


# -------------------------------------------------------- family lattice sums


def _kept_nus(square: int, linear: int, excess: int, lo: int, hi: int) -> tuple:
    """The nu in lo..hi with (square nu^2 + linear nu) / 2 > excess, as
    ascending ranges.

    With disc = linear^2 + 8 square excess >= 0 the others are the integers
    between the parabola's real roots r1 <= r2, [ceil(r1), floor(r2)].  Both
    ends are exact from isqrt(disc), since floor((m + sqrt(disc)) / d) =
    floor((m + isqrt(disc)) / d) for integers m and d > 0.
    """
    disc = linear * linear + 8 * square * excess
    if disc < 0:
        return (range(lo, hi + 1),)
    root = math.isqrt(disc)
    first_out = -((linear + root) // (2 * square))
    last_out = (root - linear) // (2 * square)
    return range(lo, min(hi, first_out - 1) + 1), range(max(lo, last_out + 1), hi + 1)


def _shell_parts(j: int, k: int, ell: int, n: int) -> list[tuple[int, int]]:
    """(start, mult) per part of shell n of family j.  At nu the part's
    exponent is start - quadratic_shift(k, ell, nu), and start is
    (Q(a + (m, 0)) - Q(a)) / power = ((M + 1) m^2 + A1 m) / (2 power) for
    the record's a1 = A1 / (2(M + 1))."""
    fam = FAMILIES[j]
    M, a1, den = _affine(fam.M, k), _affine(fam.a1, k), 2 * fam.power
    parts = ((_affine(form, n), mult) for form, mult in fam.shell_parts)
    return [(((M + 1) * m * m + a1 * m) // den, mult) for m, mult in parts]


def _family_shell(j: int, k: int, ell: int, n: int, top: int):
    """Lattice terms of family j at outer index n with exponent below ``top``.

    Returns (exponents, numerators), two lists of Python ints: the terms
    numerators / shell_denom * q^exponents.  Each exponent is a downward
    parabola in nu, so the kept nu form two end ranges; along a range the
    exponents are running sums of an arithmetic progression and the signs
    alternate.
    """
    square, linear = 2 * k + 1, 2 * k - 2 * ell + 1
    exps, nums = [], []
    for start, mult in _shell_parts(j, k, ell, n):
        for nus in _kept_nus(square, linear, start - top, -n, n - FAMILIES[j].first):
            if not nus:
                continue
            nu = nus.start
            step = -((square * (2 * nu + 1) + linear) // 2)  # exponent at nu + 1 minus at nu
            first = start - (square * nu * nu + linear * nu) // 2
            steps = range(step, step - square * (len(nus) - 1), -square)
            exps += accumulate(steps, initial=first)
            signs = (-mult, mult) if (n + nu) & 1 else (mult, -mult)
            nums += islice(cycle(signs), len(nus))
    return exps, nums


def _shell_floor(j: int, k: int, ell: int, n: int) -> int:
    """The least exponent of shell n of family j.  Each part's exponent is a
    downward parabola in nu, least at an end of -n..n - first."""
    ends = (-n, n - FAMILIES[j].first)
    starts = [start for start, _ in _shell_parts(j, k, ell, n)]
    return min(start - quadratic_shift(k, ell, nu) for start in starts for nu in ends)


def _shell_walk(j: int, k: int, ell: int, top: int):
    """The shells n = first, first + 1, ... of family j cut below ``top``, while
    their least exponent is below top; it never decreases in n."""
    n = FAMILIES[j].first
    while _shell_floor(j, k, ell, n) < top:
        yield _family_shell(j, k, ell, n, top)
        n += 1


def _lattice_table(j: int, k: int, ell: int, top: int) -> tuple[tuple[int, ...], int]:
    """Dense integer numerators of the lattice expansion below q^top, and their denominator."""
    coeffs = [0] * top
    for exps, nums in _shell_walk(j, k, ell, top):
        for e, c in zip(exps, nums):
            coeffs[e] += c
    return tuple(coeffs), FAMILIES[j].shell_denom


# The numeric evaluator's table, shared by its radial grid and every x.
_lattice_coefficients = functools.lru_cache(maxsize=16)(_lattice_table)


def family_lattice_series(j: int, k: int, ell: int, trunc) -> QSeries:
    """Closed two-variable lattice expansion of a series family."""
    _validate_family(j, k, ell)
    if trunc is INF:
        raise QSeriesError("the lattice expansion needs a finite truncation order")
    t = Fraction(trunc)
    coeffs, denom = _lattice_table(j, k, ell, math.ceil(t))
    return QSeries({e: Fraction(c, denom) for e, c in enumerate(coeffs) if c}, 1, t)


def family_lattice_numeric(j: int, k: int, ell: int, x, t, eps: float = 1e-15):
    """Numeric family value at q = e(x) exp(-t) via the lattice expansion.

    ``x`` is an exact rational phase in full turns and ``t`` the radial
    distance to the unit circle: a positive float (one complex value) or
    a grid of them (a list of values).  Every lattice term has modulus
    exp(-t * exponent) <= 1, so this route is free of the catastrophic
    cancellation the defining hypergeometric sums suffer near the
    circle.  At each t the terms with exp(-t * exponent) >= ``eps`` are
    summed from one integer coefficient table, shared by the grid.  With
    x = p/q the exponents r0 + q m of one residue class share the phase
    e(p r0 / q), reduced exactly, and their decay factors exp(-t q m).
    """
    _validate_family(j, k, ell)
    scalar = not isinstance(t, (list, tuple))
    ts = [float(t)] if scalar else [float(s) for s in t]
    if not ts or not all(0 < s < math.inf for s in ts):
        raise QSeriesError("the radial distance must be positive and finite")
    xq = Fraction(x)
    p, q = xq.numerator, xq.denominator
    cutoff = -math.log(eps)
    limits = [math.floor(cutoff / s) + 1 for s in ts]
    coeffs, denom = _lattice_coefficients(j, k, ell, max(limits))
    phases = [unit_phase(p * r0 % q / q) for r0 in range(min(q, max(limits)))]
    values = []
    for s, lim in zip(ts, limits):
        decay = [math.exp(-s * q * m) for m in range(-(-lim // q))]
        total = 0j
        for r0 in range(min(q, lim)):
            head = math.exp(-s * r0) * phases[r0]
            total += sum(map(operator.mul, coeffs[r0:lim:q], decay)) * head
        values.append(total / denom)
    return values[0] if scalar else values


def verify_family_lattice(j: int, k: int, ell: int, trunc) -> CheckReport:
    """Compare a defining family sum with its closed lattice expansion."""
    lhs = family_series(j, k, ell, trunc)
    rhs = family_lattice_series(j, k, ell, trunc)
    return report_from_comparison(
        "family_lattice_identity", {"j": j, "k": k, "ell": ell}, lhs, rhs
    )


def verify_theta_embedding(j: int, k: int, ell: int, trunc) -> CheckReport:
    """Certify theta = scale * q^alpha * family(q^power) below ``trunc``."""
    data = family_params(j, k, ell)
    t = Fraction(trunc)
    theta = indefinite_theta_series(data.params, t)
    inner_trunc = (t - data.alpha) / data.power
    fam = family_series(j, k, ell, inner_trunc)
    shifted = fam.compose_power(data.power).shift(data.alpha).scale(data.scale)
    params = {"j": j, "k": k, "ell": ell, "alpha": _exact_str(data.alpha)}
    return report_from_comparison(
        "theta_embedding", params, theta, shifted.truncate(t), up_to=t
    )


# ----------------------------------------------------------- param validation


def validate_family_params(j: int, k: int, ell: int) -> CheckReport:
    """Exact validation of every condition the family parameters satisfy.

    Checks the shift windows, the automorph congruences, the bilinear
    integrality value, the automorph matrix properties, the float map of
    the first reference vector onto the second, the half-integer phase
    collapse, and which equivalence branch holds.
    """
    data = family_params(j, k, ell)
    fam = FAMILIES[j]
    M, a, b = data.params.M, data.params.a, data.params.b
    form = QuadForm(M)
    gamma = form.apply_automorph

    def moved(u, c):  # u + c (1, 1)
        return (u[0] + c, u[1] + c)

    checks: dict[str, bool] = {}

    s, d = a[0] + a[1], a[0] - a[1]
    checks["shift_window"] = 0 < s < 1 and fam.window < d < fam.window + 1
    checks["shift_nonzero"] = a != (Fraction(0), Fraction(0))

    a_star, b_star = star(a), star(b)
    s1, s2 = (None if c is None else _affine(c, k, ell) for c in fam.shifts)
    if s2 is None:
        checks["shift_congruence"] = moved(gamma(a), s1) == a
    else:
        checks["shift_congruence"] = (
            moved(gamma(a), s1) == a_star and moved(gamma(a_star), s2) == a
        )
    checks["twist_congruence"] = moved(gamma(b), -1) == b_star and gamma(b_star) == b

    # an int equal to B(a, (-1, -1)) makes it integral
    checks["bilinear_integrality"] = form.bilinear(a, (-1, -1)) == _affine(fam.pairing, k, ell)

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

    branch_direct = equivalence_check((gamma(a), gamma(b)), (a, b), M)
    branch_star = equivalence_check(
        (gamma(a), gamma(b)), (a_star, b_star), M
    ) and equivalence_check((gamma(a_star), gamma(b_star)), (a, b), M)
    checks["equivalence_branch"] = branch_direct or branch_star

    details: dict[str, object] = dict(checks)
    details["equivalence_direct"] = branch_direct
    details["equivalence_starred"] = branch_star
    return CheckReport(
        check="family_theta_params",
        params={"j": j, "k": k, "ell": ell, "M": M},
        status="pass" if all(checks.values()) else "fail",
        details=details,
    )


# ------------------------------------------------------------- numeric layer


def _cone_weights(M: int, x: int, y: int) -> tuple[float, float]:
    """Exact-sign weights of the two cones at the lattice point (x, y) / D.

    The first weight is 1 inside the cone r1^2 > r2^2 (1/2 on its
    boundary); the second is 1 inside (M+1)^2 r1^2 < (M-1)^2 r2^2 (1/2
    on its boundary).  The gap between the cones carries weight zero.
    """
    main = x * x - y * y
    rho = 1.0 if main > 0 else (0.5 if main == 0 else 0.0)
    normal = ((M + 1) * x) ** 2 - ((M - 1) * y) ** 2
    rho_perp = 1.0 if normal < 0 else (0.5 if normal == 0 else 0.0)
    return rho, rho_perp


def _bounded(value: complex, tail: float) -> tuple[complex, float]:
    """``(value, tail)``, refused when a nonzero tail bound reaches |value|."""
    if tail and tail >= abs(value):
        raise PrecisionError(
            f"the tail bound {tail:.3g} is not below the value's size {abs(value):.3g}"
        )
    return value, tail


def waveform_numeric(
    params, tau: complex, lattice_cut: int = 12
) -> tuple[complex, float]:
    """The Bessel-weighted indefinite theta waveform at tau.

    Sums over both cones with exact region selection and K0 weights.
    Returns (value, tail_bound); the tail bound is twice the outermost
    shell's absolute contribution, justified by the Gaussian decay of
    the shells.  A tail bound that is not below |value| raises
    :class:`PrecisionError`.
    """
    from .bessel import k0_bessel

    params = _as_theta_params(params)
    u, v = tau.real, tau.imag
    if not v > 0:
        raise QSeriesError("tau must lie in the upper half plane")
    M = params.M
    D, E = _denominators(params)
    q_den, t_den = 2 * D * D, D * E
    total = 0.0 + 0.0j
    outer_abs = 0.0
    for n, nu, x, y, q, t in _lattice_walk(params, lattice_cut):
        if q == 0:
            raise QSeriesError("the form vanishes at a lattice point")
        rho, rho_perp = _cone_weights(M, x, y)
        qv = q / q_den
        weight = 0.0
        if rho and q > 0:
            weight += rho * k0_bessel(2.0 * math.pi * qv * v)
        if rho_perp and q < 0:
            weight += rho_perp * k0_bessel(-2.0 * math.pi * qv * v)
        if weight == 0.0:
            continue
        term = weight * unit_phase(qv * u + t / t_den)
        total += term
        if max(abs(n), abs(nu)) == lattice_cut:
            outer_abs += abs(term)
    root_v = math.sqrt(v)
    return _bounded(root_v * total, 2.0 * root_v * outer_abs)


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


def completion_defect(params, tau: complex, lattice_cut: int = 10) -> complex:
    """Difference of the two boundary correction sums at tau.

    Each lattice point contributes (alpha_1 - alpha_2) q^Q(r) e(B(r, b))
    where alpha_i is the boundary weight along the ray anchored at the
    i-th reference parameter.  For parameters passing the family
    validation this difference vanishes identically; generically it does
    not.  Points whose combined Gaussian exponent exceeds 100/pi-fold
    are skipped: their contribution is below exp(-100).
    """
    params = _as_theta_params(params)
    u, v = tau.real, tau.imag
    if not v > 0:
        raise QSeriesError("tau must lie in the upper half plane")
    form = QuadForm(params.M)
    M = params.M
    D, E = _denominators(params)
    q_den, t_den, r_den = 2 * D * D, D * E, D * D
    root_v = math.sqrt(v)
    root_plus, root_minus = math.sqrt(2.0 * (M + 1)), math.sqrt(2.0 * (M - 1))
    t1 = form.reference_parameter(1)
    t2 = form.reference_parameter(2)
    total = 0j
    for _, _, x, y, q, t in _lattice_walk(params, lattice_cut):
        if q == 0:
            raise QSeriesError("the form vanishes at a lattice point")
        # Each ray integral is bounded by a Gaussian whose exponent is
        # pi v B(r, c_i)^2 with B(r, c_i)^2 = (M^2-1)(r1 -+ r2)^2; with
        # the q^Q modulus the per-point exponent is at least
        # pi v ((M^2-1) min (r1 +- r2)^2 + 2 Q(r)), a positive definite
        # expression.
        combined = (M * M - 1) * min((x + y) ** 2, (x - y) ** 2) + q
        if math.pi * v * (combined / r_den) > 100.0:
            continue
        u_plus = root_plus * (x / D) * root_v
        u_minus = root_minus * (y / D) * root_v
        sign1 = _ray_sign(u_plus, u_minus, t1)
        sign2 = _ray_sign(u_plus, u_minus, t2)
        if sign1 == 0 and sign2 == 0:
            continue
        qv = q / q_den
        alpha = _ray_integral(u_plus, u_minus, t1, sign1) - _ray_integral(
            u_plus, u_minus, t2, sign2
        )
        phase = unit_phase(qv * u + t / t_den)
        total += alpha * (math.exp(-2.0 * math.pi * qv * v) * phase)
    return root_v * total


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
