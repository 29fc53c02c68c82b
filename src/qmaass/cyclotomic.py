"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A :class:`CycNumber` is a vector of rational coordinates in the power basis
1, zeta, ..., zeta^(phi(L)-1), always reduced modulo the L-th cyclotomic
polynomial, so equality of field elements is equality of vectors.  The
cyclotomic polynomials themselves are computed by the classical recursion:
Phi_L = (x^L - 1) / prod of Phi_d over proper divisors d of L.

Arithmetic combines numbers of one order, or a number and a rational;
numbers of different orders raise ``ValueError``.  Every long division by
a cyclotomic polynomial is :func:`_divide`: the exact ones of the
recursion above, and the reduction of a vector longer than phi(L) in the
constructor, the one place a vector is reduced mod Phi_L.  Series with
such coefficients multiply by one Kronecker substitution of their
coordinates into the integer product of ``QSeries``
(:func:`series_product`), and each term a number reaches is built, so
reduced, once.

Sums at one root of unity are taken in Z[x]/(x^N - 1), packed by x -> 2^W
into one int mod 2^(W*N) - 1 (:class:`CyclicRing`, on the codec of
:class:`~qmaass.series.PackedRing`), and reduced mod Phi_N once (exact, as
Phi_N divides x^N - 1).  Only the final value is split into digits: run
once with x -> 1 and signs dropped (:class:`~qmaass.series.L1Bound`), the
sum bounds its own L1 norm, which sizes W (:func:`root_sums`).  A sum
weighting the chain values of a walk (the quantum values, the dual KZ
sum) sizes the walk's digits and the sum's by one such pass, and moves
each chain value digit by digit
(:meth:`~qmaass.series.PackedRing.weighted_sum`).
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import defaultdict
from fractions import Fraction
from itertools import repeat

from .series import L1Bound, PackedRing, QSeriesError, _clean, _int_product, int_arg, rational_arg


class _Phi(tuple):
    """Ascending coefficients of Phi_L, with ``low``: its nonzero (j, c)
    below the leading 1, made once per order for :func:`_divide`."""


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the L-th cyclotomic polynomial."""
    if L < 1:
        raise ValueError("order must be a positive integer")
    # x^L - 1 divided exactly by every proper-divisor cyclotomic polynomial.
    num = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            phi = cyclotomic_polynomial(d)
            _divide(num, phi)
            num = num[len(phi) - 1 :]  # the quotient
    phi = _Phi(num)
    phi.low = [(j, c) for j, c in enumerate(num[:-1]) if c]
    return phi


def _divide(num: list, phi: _Phi) -> None:
    """Long division by ``phi`` = Phi_L in place: leaves the remainder in
    ``num`` below degree d = len(phi) - 1 and the quotient from d on."""
    d = len(phi) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            base = i - d
            for j, p in phi.low:
                num[base + j] -= c * p


class CycNumber:
    """An element of Q(zeta_L) in reduced power-basis coordinates."""

    __slots__ = ("order", "vec")

    def __init__(self, order: int, vec):
        phi = cyclotomic_polynomial(order)
        d = len(phi) - 1
        v = list(vec)
        if len(v) > d:
            for k in range(order, len(v)):  # zeta^order = 1
                v[k % order] += v[k]
            del v[order:]
            _divide(v, phi)  # the remainder mod Phi_order
            del v[d:]
        self.order = order
        self.vec = (*(v if {*map(type, v)} <= {int} else map(_clean, v)), *repeat(0, d - len(v)))

    # ------------------------------------------------------------------ build
    @classmethod
    def from_rational(cls, order: int, value) -> "CycNumber":
        return cls(int_arg(order, "order", 1), [rational_arg(value, "coefficient")])

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycNumber":
        return cls.from_powers(order, {int_arg(power, "power"): 1})

    @classmethod
    def from_powers(cls, order: int, powers: dict[int, object]) -> "CycNumber":
        """Build sum of c * zeta_order^k from a power->coefficient map."""
        vec = [0] * int_arg(order, "order", 1)
        for k, c in powers.items():
            vec[k % order] += rational_arg(c, "coefficient")
        return cls(order, vec)

    def _pair(self, other) -> tuple["CycNumber", "CycNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CycNumber(self.order, [other])
        elif not isinstance(other, CycNumber):
            return NotImplemented, NotImplemented
        elif other.order != self.order:
            raise ValueError(f"cannot combine orders {self.order} and {other.order}")
        return self, other

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNumber(a.order, [x + y for x, y in zip(a.vec, b.vec)])

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.order, [-x for x in self.vec])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycNumber(a.order, [x - y for x, y in zip(a.vec, b.vec)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        conv = [0] * (2 * len(a.vec) - 1)
        for i, x in enumerate(a.vec):
            if x:
                for j, y in enumerate(b.vec):
                    if y:
                        conv[i + j] += x * y
        return CycNumber(a.order, conv)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Field inverse: the product of the other Galois conjugates
        (zeta -> zeta^p, p a unit mod the order) over the norm, a rational.
        The product is taken in Z[x]/(x^L - 1) (:func:`root_sums`) and
        reduced mod Phi_L before the division."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        L = self.order
        den = math.lcm(*(c.denominator for c in self.vec))
        a = {i: int(c * den) for i, c in enumerate(self.vec) if c}

        def build(ring):
            others = 1
            for p in range(2, L):
                if math.gcd(p, L) == 1:
                    others = ring.mul(others, ring.encode({i * p: c for i, c in a.items()}))
            return [others, ring.mul(ring.encode(a), others)]

        others, norm = root_sums(L, build)
        norm = CycNumber.from_powers(L, norm).rational_value()
        return CycNumber(L, [Fraction(c * den, norm) for c in CycNumber.from_powers(L, others).vec])

    # ------------------------------------------------------------------ tests
    def is_zero(self) -> bool:
        return not any(self.vec)

    def is_rational(self) -> bool:
        return not any(self.vec[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.vec[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.vec[0] == other and self.is_rational()
        if isinstance(other, CycNumber):
            return self.vec == self._pair(other)[1].vec
        return NotImplemented

    __hash__ = None

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        p = 1 + 0j
        for c in self.vec:
            if c != 0:
                acc += float(c) * p
            p *= z
        return acc

    def to_json_dict(self) -> dict:
        z = self.to_complex()
        return {
            "order": self.order,
            "coeffs": [f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in self.vec],
            "re": z.real,
            "im": z.imag,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CycNumber(order={self.order}, vec={self.vec})"


# ------------------------------------------- the group ring Z[x]/(x^N - 1)

#: Largest root order the root-of-unity values accept.  A chain layer has
#: at most N + k acc groups (its states merge by q-Lucas), each one
#: binomial_sums pass of up to about N/2 Horner steps over N + 1 values.
MAX_ROOT_ORDER = 128


def check_root_order(N) -> None:
    """Reject an order that is not a positive integer or exceeds the bound."""
    if int_arg(N, "N", 1) > MAX_ROOT_ORDER:
        raise QSeriesError(f"root of unity of order {N} exceeds the order bound {MAX_ROOT_ORDER}")


class CyclicRing(PackedRing):
    """Z[x]/(x^N - 1), N = ``order``, packed onto Z/(2^(W*N) - 1) as
    x^N - 1 -> 0: ``mul`` and ``rot`` fold the bits above W*N back."""

    def __init__(self, order: int, bound: int):
        super().__init__(order, bound)
        self.period, self.bits = order, order * self.width
        self.modulus = (1 << self.bits) - 1
        self._low = [self.modulus >> self.width * s for s in range(order)]

    twin = L1Bound  # L1Bound(period=N): a cycle has no horizon

    def mul(self, a: int, b: int) -> int:
        return self.rot(self.rot(a * b, 0), 0)  # two folds bring a product near W*N bits

    def rot(self, a: int, s: int) -> int:
        """a x^s, folded once: the N - s low digits move up, the rest to
        x^0, so a value below 2^(W*N) stays below 2^(W*N) (1 + 2^-W) and a
        larger one loses about W bits."""
        s %= self.period
        return ((a & self._low[s]) << self.width * s) + (a >> self.bits - self.width * s)

    def _horner(self, series: list, low: int, lo: int, hi: int) -> None:
        end = len(series)
        for m, up, down in map(self._fold, range(lo, hi)):  # a + rot(a, i)
            a = series[low]
            for n in range(low + 1, end):
                a = series[n] = series[n] + ((a & m) << up) + (a >> down)

    def _times(self, series: list, low: int, high: int, lo: int, hi: int) -> int:
        end = len(series) - 1
        for m, up, down in map(self._fold, range(lo, hi)):  # a - rot(a', i)
            high = min(high + 1, end)
            for n in range(high, low, -1):
                a = series[n - 1]
                series[n] -= ((a & m) << up) + (a >> down)
        return high

    def _fold(self, i: int) -> tuple:
        """The mask and the two shifts of :meth:`rot` by x^i."""
        s = i % self.period
        return self._low[s], self.width * s, self.bits - self.width * s


#: root_sums(order, build): the list ``build(ring)`` as integer maps in
#: Z[x]/(x^order - 1), by :meth:`~qmaass.series.PackedRing.sums`.
root_sums = CyclicRing.sums


def series_product(xa: dict, xb: dict, bound) -> dict:
    """The product below ``bound`` of two term maps of rationals and numbers
    of one order L, by one Kronecker substitution into the integer product
    :func:`~qmaass.series._int_product`: cleared of its operand's
    denominator, the coordinate c_i of zeta^i at q^m is the term
    c_i y^(m S + i), S = 2 phi(L) - 1 (a rational is its coordinate 0), so
    the coordinates of one product term stay apart.  Each term a CycNumber
    reaches is built by the CycNumber constructor, the one reduction mod
    Phi_L; the others stay int or Fraction."""
    for c in (*xa.values(), *xb.values()):
        if type(c) not in (int, Fraction, CycNumber):
            raise QSeriesError(f"a series product cannot take {type(c).__name__} coefficients")
    cyc = [[m for m, c in x.items() if type(c) is CycNumber] for x in (xa, xb)]
    orders = {x[m].order for x, ms in zip((xa, xb), cyc) for m in ms}
    if len(orders) > 1:
        raise ValueError("cannot combine orders %d and %d" % tuple(sorted(orders)[:2]))
    L = min(orders, default=1)
    S, nums, den = 2 * len(cyclotomic_polynomial(L)) - 3, [], 1
    for x in (xa, xb):
        vecs = {m: c.vec if type(c) is CycNumber else (c,) for m, c in x.items()}
        d = math.lcm(*[c.denominator for v in vecs.values() for c in v])
        nums.append({m * S + i: c.numerator * (d // c.denominator)
                     for m, v in vecs.items() for i, c in enumerate(v) if c})
        den *= d
    reach = None  # the exponents a pair holding a CycNumber reaches, unless every pair does
    if len(cyc[0]) < len(xa) and len(cyc[1]) < len(xb):
        reach = {m + e for m in cyc[0] for e in xb} | {m + e for m in xa for e in cyc[1]}
    out, coords = {}, defaultdict(lambda: [0] * S)
    for e, p in _int_product(*nums, None if bound is None else bound * S).items():
        m, i = divmod(e, S)
        if reach is None or m in reach:
            coords[m][i] = p
        else:
            out[m] = _clean(Fraction(p, den))
    for m, v in coords.items():
        c = CycNumber(L, v if den == 1 else [Fraction(p, den) for p in v])
        if not c.is_zero():
            out[m] = c
    return out
