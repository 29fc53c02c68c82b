"""Exact arithmetic in cyclotomic fields Q(zeta_L).

A :class:`CycNumber` is a vector of rational coordinates in the power basis
1, zeta, ..., zeta^(phi(L)-1), always reduced modulo the L-th cyclotomic
polynomial, so equality of field elements is equality of vectors.  The
cyclotomic polynomials themselves are computed by the classical recursion:
Phi_L = (x^L - 1) / prod of Phi_d over proper divisors d of L.

Arithmetic between numbers of different orders embeds both into the
compositum Q(zeta_lcm) first, which keeps mixed expressions (roots of unity
with heterogeneous denominators) canonical.

Long sums of products at one root of unity are done first in the group
ring Z[x]/(x^N - 1) (integer maps {exponent mod N: coefficient}, see
:func:`cyclic_mul`) and reduced mod Phi_N once at the end.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from .series import QSeries, QSeriesError, _clean, _kronecker_product


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


def _phi_degree(L: int) -> int:
    return len(cyclotomic_polynomial(L)) - 1


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
        for k in range(order, len(v)):  # zeta^order = 1
            v[k % order] += v[k]
        v += [0] * (d - len(v))
        rows = _reduced_powers(order) if any(v[d:order]) else ()
        for c, row in zip(v[d:order], rows):  # fold zeta^k, d <= k < order
            if c:
                for j, r in enumerate(row):
                    if r:
                        v[j] += c * r
        self.order = order
        self.vec = tuple(_clean(c) for c in v[:d])

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
        vec = [0] * order
        for k, c in powers.items():
            vec[k % order] += c
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
        return CycNumber(a.order, conv)

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
        """Field inverse: the product of the other Galois conjugates
        (zeta -> zeta^p, p a unit mod the order) over the norm, a rational.
        The product is taken in Z[x]/(x^L - 1) (:func:`cyclic_mul`)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        L = self.order
        den = math.lcm(*(c.denominator for c in self.vec))
        a = {i: int(c * den) for i, c in enumerate(self.vec) if c}
        others = {0: 1}
        for p in range(2, L):
            if math.gcd(p, L) == 1:
                others = cyclic_mul(others, {i * p % L: c for i, c in a.items()}, L)
        norm = CycNumber.from_powers(L, cyclic_mul(a, others, L)).rational_value()
        return CycNumber.from_powers(
            L, {e: Fraction(c * den, norm) for e, c in others.items()}
        )

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


# -------------------------------------------------------------- root helpers

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


# ------------------------------------------- the group ring Z[x]/(x^N - 1)
#
# An element is an integer map {exponent mod N: coefficient}.  Sums of
# products at a primitive N-th root of unity are taken here and reduced
# mod Phi_N once, by CycNumber.from_powers; that is exact, since Phi_N
# divides x^N - 1.

#: Largest root order the root-of-unity values accept.  Chains of length
#: k >= 2 tabulate up to N^2/2 Gaussian binomials of N terms each.
MAX_ROOT_ORDER = 128


def check_root_order(N) -> None:
    """Reject an order that is not a positive integer or exceeds the bound."""
    if not (isinstance(N, int) and N >= 1):
        raise QSeriesError(f"N must be a positive integer, got {N!r}")
    if N > MAX_ROOT_ORDER:
        raise QSeriesError(
            f"root of unity of order {N} exceeds the order bound {MAX_ROOT_ORDER}"
        )


def cyclic_add(a: dict, b: dict, N: int, sign: int = 1, shift: int = 0) -> dict:
    """a + sign * x^shift * b in Z[x]/(x^N - 1); b's exponents may be any ints."""
    out = dict(a)
    for e, c in b.items():
        e = (e + shift) % N
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def cyclic_mul(a: dict, b: dict, N: int) -> dict:
    """Product in Z[x]/(x^N - 1): one Kronecker product, folded mod N."""
    prod = _kronecker_product(a, b, None)
    if prod is None:  # sparse operands
        prod = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                prod[m1 + m2] = prod.get(m1 + m2, 0) + c1 * c2
    return cyclic_add({}, prod, N)


def binomials_at_root(N: int):
    """[top choose bottom] at a primitive N-th root of unity, as a function
    returning group-ring maps.

    By the q-Lucas theorem (Desarmenien, Europ. J. Combin. 3, 1982) it is
    C(top // N, bottom // N) [top % N choose bottom % N], and tops below N
    come from the division-free q-Pascal rule [m, i] = [m-1, i-1] +
    x^i [m-1, i], memoized for as long as the returned function lives.
    """

    @functools.lru_cache(maxsize=None)
    def small(m: int, i: int) -> dict:
        if i in (0, m):
            return {0: 1}
        return cyclic_add(small(m - 1, i - 1), small(m - 1, i), N, shift=i)

    def binomial(top: int, bottom: int) -> dict:
        (t1, t0), (b1, b0) = divmod(top, N), divmod(bottom, N)
        if not 0 <= bottom <= top or b0 > t0:
            return {}
        c = math.comb(t1, b1)
        return small(t0, b0) if c == 1 else cyclic_add({}, small(t0, b0), N, c)

    return binomial
