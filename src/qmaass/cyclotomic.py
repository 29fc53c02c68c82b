"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A :class:`CycNumber` is a vector of rational coordinates in the power basis
1, zeta, ..., zeta^(phi(L)-1), always reduced modulo the L-th cyclotomic
polynomial, so equality of field elements is equality of vectors.  The
cyclotomic polynomials themselves are computed by the classical recursion:
Phi_L = (x^L - 1) / prod of Phi_d over proper divisors d of L.

Arithmetic between numbers of different orders embeds both into the
compositum Q(zeta_lcm) first, which keeps mixed expressions (roots of unity
with heterogeneous denominators) canonical.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .series import INF, QSeries, QSeriesError, _clean


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the L-th cyclotomic polynomial."""
    if L < 1:
        raise ValueError("order must be a positive integer")
    # x^L - 1 divided exactly by every proper-divisor cyclotomic polynomial.
    num = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            phi_d = cyclotomic_polynomial(d)
            num = _poly_exact_div(num, phi_d)
    return tuple(num)


def _poly_exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact polynomial long division over Z (monic or +/-1-leading divisor)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r != 0:
            raise ArithmeticError("non-exact cyclotomic division")
        out[i - dd] = q
        for j, dc in enumerate(den):
            num[i - dd + j] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact cyclotomic division")
    return out


@functools.lru_cache(maxsize=None)
def _phi_degree(L: int) -> int:
    return len(cyclotomic_polynomial(L)) - 1


@functools.lru_cache(maxsize=None)
def _power_row(L: int, k: int) -> tuple:
    """zeta_L^k expressed in the power basis (k taken mod L)."""
    k %= L
    d = _phi_degree(L)
    if k < d:
        row = [0] * d
        row[k] = 1
        return tuple(row)
    return _reduced_powers(L)[k - d]


@functools.lru_cache(maxsize=None)
def _reduced_powers(L: int) -> tuple:
    """zeta_L^k in the power basis for d <= k < L, d = phi(L), each row
    one shift of the row before it."""
    phi = cyclotomic_polynomial(L)
    d = len(phi) - 1
    row = [0] * (d - 1) + [1]
    rows = []
    for _ in range(d, L):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            # zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^{d-1})
            for j in range(d):
                row[j] -= top * phi[j]
        rows.append(tuple(row))
    return tuple(rows)


class CycNumber:
    """An element of Q(zeta_L) in reduced power-basis coordinates."""

    __slots__ = ("order", "vec")

    def __init__(self, order: int, vec):
        d = _phi_degree(order)
        v = list(vec)
        if len(v) > d:
            folded = [0] * d
            for k, c in enumerate(v):
                if c == 0:
                    continue
                row = _power_row(order, k)
                for j, r in enumerate(row):
                    if r:
                        folded[j] += c * r
            v = folded
        elif len(v) < d:
            v = v + [0] * (d - len(v))
        self.order = order
        self.vec = tuple(_clean(c) for c in v)

    # ------------------------------------------------------------------ build
    @classmethod
    def from_rational(cls, order: int, value) -> "CycNumber":
        return cls(order, [value])

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycNumber":
        return cls.from_powers(order, {power: 1})

    @classmethod
    def from_powers(cls, order: int, powers: dict[int, object]) -> "CycNumber":
        """Build sum of c * zeta_order^k from a power->coefficient map."""
        d = _phi_degree(order)
        vec = [0] * d
        for k, c in powers.items():
            if c == 0:
                continue
            row = _power_row(order, k)
            for j, r in enumerate(row):
                if r:
                    vec[j] += c * r
        return cls(order, vec)

    # ---------------------------------------------------------------- embed
    def embed(self, order: int) -> "CycNumber":
        """Image in Q(zeta_order) for a multiple of the current order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("embedding requires a multiple of the current order")
        step = order // self.order
        return CycNumber.from_powers(
            order, {k * step: c for k, c in enumerate(self.vec) if c != 0}
        )

    def _pair(self, other) -> tuple["CycNumber", "CycNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CycNumber.from_rational(self.order, other)
        elif not isinstance(other, CycNumber):
            return NotImplemented, NotImplemented
        if self.order == other.order:
            return self, other
        L = math.lcm(self.order, other.order)
        return self.embed(L), other.embed(L)

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
        if isinstance(other, (int, Fraction)):
            return CycNumber(self.order, [other * x for x in self.vec])
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        d = _phi_degree(a.order)
        conv = [0] * (2 * d - 1)
        av, bv = a.vec, b.vec
        for i, x in enumerate(av):
            if x == 0:
                continue
            for j, y in enumerate(bv):
                if y != 0:
                    conv[i + j] += x * y
        vec = list(conv[:d])
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c == 0:
                continue
            row = _power_row(a.order, k)
            for j, r in enumerate(row):
                if r:
                    vec[j] += c * r
        return CycNumber(a.order, vec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycNumber.from_rational(self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "CycNumber":
        """Field inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = [Fraction(c) for c in self.vec]
        # extended gcd of a and phi
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_deg(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            if not r1:
                raise ZeroDivisionError("element is a zero divisor (not a unit)")
        c = r1[0]
        inv = [x / c for x in s1]
        return CycNumber(self.order, inv)

    # ------------------------------------------------------------------ tests
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vec)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.vec[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.vec[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycNumber)):
            a, b = self._pair(other)
            return a.vec == b.vec
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


# --------------------------------------------------- small Q[x] helpers

def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return list(p)


def _poly_deg(p) -> int:
    return len(_trim(p)) - 1


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a, b):
    a = _trim(a)
    b = _trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while _poly_deg(r) >= _poly_deg(b) and r:
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        for j, bc in enumerate(b):
            r[shift + j] -= c * bc
        r = _trim(r)
    return _trim(q), r


# -------------------------------------------------------------- root helpers

def e_rational(w) -> CycNumber:
    """Exact value of e(w) = exp(2*pi*i*w) for rational w."""
    w = Fraction(w)
    m = w.denominator
    return CycNumber.zeta(m, w.numerator % m)


def root_of_unity_value(series: QSeries, N: int, power: int = 1) -> CycNumber:
    """Exact evaluation of a q-series at q = zeta_N^power.

    All stored terms are summed, so the caller is responsible for the series
    being an exact polynomial (infinite trunc) or for the truncation being
    the intended evaluation window.  Fractional exponents m/D map to
    zeta_(N*D)^(m*power); the result lives in Q(zeta_(N*D)) (coefficient
    rings of cyclotomic numbers embed into the compositum automatically).
    """
    s = series.normalized()
    L = N * s.denom
    rational_powers: dict[int, object] = {}
    cyc_parts: CycNumber | None = None
    for m, c in s._coeffs.items():
        k = (m * power) % L
        if isinstance(c, (int, Fraction)):
            rational_powers[k] = rational_powers.get(k, 0) + c
        else:
            term = CycNumber.zeta(L, k) * c
            cyc_parts = term if cyc_parts is None else cyc_parts + term
    out = CycNumber.from_powers(L, rational_powers)
    if cyc_parts is not None:
        out = out + cyc_parts
    return out
