"""Exact sparse q-series with rational exponents and explicit truncation.

A :class:`QSeries` stores finitely many terms ``c * q^(m/denom)`` with integer
numerators ``m`` over one shared positive denominator, together with a
truncation threshold ``trunc``: the series is known exactly for all exponents
strictly below ``trunc``, and terms at or above ``trunc`` are discarded.
Coefficients are ``int``, ``Fraction`` or
:class:`~qmaass.cyclotomic.CycNumber`.  Every product runs on one integer
kernel: rationals over their common denominator, numbers of one order as
their coordinates (:func:`~qmaass.cyclotomic.series_product`); two orders
raise ``ValueError``, other coefficients :class:`QSeriesError`.  Rescaling
``(m, denom) -> (m*t, denom*t)`` never changes the series; equality
compares the canonical (gcd-reduced) form.

``trunc`` may be ``math.inf`` for series that are exact polynomials (needed
when a polynomial must be reversed coefficient-by-coefficient).

Truncation bookkeeping is integer arithmetic: a finite ``trunc`` is held as
a ``Fraction``, but every operation works with the integer bound
ceil(trunc * denom) on exponent numerators and the integer lowest exponent,
and builds a new ``Fraction`` only for a truncation that actually moves.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, repeat

INF = math.inf

# The packed integer product costs about one digit operation per exponent
# of its span, the pairwise loop one multiplication per term pair; packing
# wins only from about this many term pairs per digit of the span.
_PACK_MIN_PAIRS_PER_DIGIT = 3

# Little-endian unsigned struct codes of the machine-word digit widths.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

_EXPONENT = int | Fraction


class QSeriesError(ValueError):
    """Raised for invalid q-series operations."""


class PrecisionError(QSeriesError):
    """Raised when a numeric or truncation guard refuses to certify a value."""


def int_arg(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` if its type is int (not bool) and least <= value <= most,
    a None end open; QSeriesError naming ``name`` otherwise.  Every integer
    argument of the package is checked here."""
    if type(value) is int and (least is None or value >= least) and (most is None or value <= most):
        return value
    if most is not None:
        want = f"in {least}..{most}"
    elif least in (0, 1):
        want = ("a nonnegative", "a positive")[least] + " integer"
    else:
        want = "an integer" if least is None else f"an integer >= {least}"
    raise QSeriesError(f"{name} must be {want}, got {value!r}")


def rational_arg(value, name: str) -> _EXPONENT:
    """``value`` if its type is int (not bool) or Fraction; QSeriesError naming
    ``name`` otherwise.  Every point x, exponent and lattice shift is read here."""
    if type(value) is int or type(value) is Fraction:
        return value
    raise QSeriesError(f"{name} must be a rational (an int or a Fraction), got {value!r}")


def coefficient_arg(value):
    """``value`` if its type is int (not bool), Fraction or CycNumber;
    QSeriesError otherwise.  Every coefficient a public builder takes is read here."""
    if type(value) is int or type(value) is Fraction:
        return value
    from .cyclotomic import CycNumber  # cyclotomic builds on this module

    if type(value) is CycNumber:
        return value
    raise QSeriesError(f"a coefficient must be an int, a Fraction or a CycNumber, got {value!r}")


def choice_arg(value, name: str, choices: tuple):
    """``value`` if it is one of ``choices``; QSeriesError naming ``name``
    otherwise.  Every named choice of the package is checked here."""
    if value not in choices:
        raise QSeriesError(f"{name} must be one of {choices}, got {value!r}")
    return value


def finite_trunc(trunc) -> Fraction:
    """``trunc`` as a Fraction; QSeriesError for a bool or an infinite or
    NaN float.  Every truncated entry point reads its order here."""
    if type(trunc) is bool or isinstance(trunc, float) and not math.isfinite(trunc):
        raise QSeriesError(f"this operation needs a finite truncation order, got {trunc!r}")
    return Fraction(trunc)


def positive_trunc(trunc) -> Fraction:
    """A finite ``trunc`` > 0: a check below q^0 or lower compares nothing."""
    t = finite_trunc(trunc)
    if t <= 0:
        raise QSeriesError(f"a check needs a positive truncation order, got {t}")
    return t


def int_slots(trunc) -> int:
    """Number of integer exponents e with 0 <= e < trunc."""
    return max(0, math.ceil(Fraction(trunc)))


def _clean(c):
    """Normalize a coefficient: rationals with denominator 1 become ints."""
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _int_bound(t, denom: int) -> int | None:
    """Smallest integer b with  m/denom < t  <=>  m < b  for integers m.

    ``t`` is an int, a Fraction or a float; None stands for t = +inf.
    """
    if isinstance(t, float):
        if t == INF:
            return None
        t = Fraction(t)
    return -(-t.numerator * denom // t.denominator)


def _cross_trunc(t, known: "QSeries"):
    """Order t + min(ord known, 0) of  known * O(q^t)  for a nonempty series."""
    lo = min(known._coeffs)
    return t if lo >= 0 else t + Fraction(lo, known.denom)


class QSeries:
    __slots__ = ("denom", "trunc", "_coeffs")

    def __init__(self, coeffs: dict[int, object], denom: int = 1, trunc=INF):
        if denom <= 0:
            raise QSeriesError("denominator must be positive")
        if type(trunc) is int:
            trunc = Fraction(trunc)
        if type(trunc) is Fraction:
            # exponent numerators m are kept iff m < bound = ceil(trunc * denom)
            bound = -(-trunc.numerator * denom // trunc.denominator)
        elif isinstance(trunc, float) and trunc == INF:
            # canonicalize +inf produced by arithmetic back to the singleton
            bound, trunc = None, INF
        else:
            raise QSeriesError("trunc must be rational or infinite")
        clean: dict[int, object] = {}
        for m, c in coeffs.items():
            if bound is not None and m >= bound:
                continue
            if type(c) is not int:
                c = _clean(c)
            if c != 0:
                clean[m] = c
        self.denom = denom
        self.trunc = trunc
        self._coeffs = clean

    @classmethod
    def _from_clean(cls, coeffs: dict[int, object], denom: int, trunc) -> "QSeries":
        """Wrap a map that already holds only nonzero, clean coefficients
        below ``trunc`` (a Fraction, or +inf from truncation arithmetic)."""
        s = object.__new__(cls)
        s.denom = denom
        s.trunc = INF if type(trunc) is float else trunc
        s._coeffs = coeffs
        return s

    # ------------------------------------------------------------------ build
    @classmethod
    def zero(cls, trunc=INF, denom: int = 1) -> "QSeries":
        return cls({}, int_arg(denom, "denom", 1), trunc)

    @classmethod
    def one(cls, trunc=INF) -> "QSeries":
        return cls({0: 1}, 1, trunc)

    @classmethod
    def monomial(cls, coeff, exponent: _EXPONENT, trunc=INF) -> "QSeries":
        e = rational_arg(exponent, "exponent")
        return cls({e.numerator: coefficient_arg(coeff)}, e.denominator, trunc)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[_EXPONENT, object]], trunc=INF) -> "QSeries":
        """Build from (exponent, coefficient) pairs; repeated exponents add."""
        exps = [(rational_arg(e, "exponent"), coefficient_arg(c)) for e, c in terms]
        denom = math.lcm(*(e.denominator for e, _ in exps)) if exps else 1
        coeffs: dict[int, object] = {}
        for e, c in exps:
            m = e.numerator * (denom // e.denominator)
            coeffs[m] = coeffs.get(m, 0) + c
        return cls(coeffs, denom, trunc)

    @classmethod
    def from_dense(cls, coeffs: Sequence, trunc=INF) -> "QSeries":
        """Build from a dense list indexed by integer exponent."""
        return cls({i: coefficient_arg(c) for i, c in enumerate(coeffs)}, 1, trunc)

    # ------------------------------------------------------------------ views
    def terms(self) -> Iterator[tuple[Fraction, object]]:
        """Yield (exponent, coefficient) pairs in increasing exponent order."""
        for m in sorted(self._coeffs):
            yield Fraction(m, self.denom), self._coeffs[m]

    def coeff(self, exponent: _EXPONENT):
        e = rational_arg(exponent, "exponent")
        if self.denom % e.denominator != 0:
            return 0
        return self._coeffs.get(e.numerator * (self.denom // e.denominator), 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def num_terms(self) -> int:
        return len(self._coeffs)

    def degree(self) -> Fraction | None:
        if not self._coeffs:
            return None
        return Fraction(max(self._coeffs), self.denom)

    # -------------------------------------------------------------- normalize
    def normalized(self) -> "QSeries":
        """Canonical form: shared denominator reduced by the overall gcd."""
        if not self._coeffs:
            if self.denom == 1:
                return self
            return QSeries({}, 1, self.trunc)
        g = math.gcd(self.denom, *self._coeffs.keys())
        if g == 1:
            return self
        return QSeries._from_clean(
            {m // g: c for m, c in self._coeffs.items()}, self.denom // g, self.trunc
        )

    def _rescaled(self, denom: int) -> dict[int, object]:
        f = denom // self.denom
        if f == 1:
            return self._coeffs
        return {m * f: c for m, c in self._coeffs.items()}

    # ------------------------------------------------------------- arithmetic
    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return a.denom == b.denom and a.trunc == b.trunc and a._coeffs == b._coeffs

    __hash__ = None

    def __neg__(self) -> "QSeries":
        return QSeries._from_clean(
            {m: -c for m, c in self._coeffs.items()}, self.denom, self.trunc
        )

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        denom = math.lcm(self.denom, other.denom)
        out = dict(self._rescaled(denom))
        for m, c in other._rescaled(denom).items():
            if m in out:
                c = out[m] + c
                if type(c) is not int:
                    c = _clean(c)
                if c == 0:
                    del out[m]
                    continue
            out[m] = c
        # Each operand is clean below its own trunc; only the higher one's
        # terms between the two truncs need dropping.
        trunc = self.trunc
        if other.trunc is not trunc and other.trunc != trunc:
            trunc = min(trunc, other.trunc)
            bound = _int_bound(trunc, denom)
            out = {m: c for m, c in out.items() if m < bound}
        return QSeries._from_clean(out, denom, trunc)

    def __sub__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "QSeries":
        """Multiply every coefficient by a scalar ring element."""
        if coefficient_arg(c) == 0:
            return QSeries({}, 1, self.trunc)
        return QSeries({m: c * v for m, v in self._coeffs.items()}, self.denom, self.trunc)

    def _mul_trunc(self, other) -> Fraction:
        # With x = a + O(q^tx) and y = b + O(q^ty),
        #   xy = ab + a*O(q^ty) + b*O(q^tx) + O(q^(tx+ty)),
        # so the product is exact below the smallest of tx+ty and the two
        # known-part cross orders; a cross term exists only when that known
        # part is nonempty, and its order is capped at 0 to stay conservative.
        # A nonempty b has ord b < ty, so tx + min(ord b, 0) < tx + ty: the
        # last order decides only when both known parts are empty.
        if not self._coeffs:
            if not other._coeffs:
                return self.trunc + other.trunc
            return _cross_trunc(self.trunc, other)
        if not other._coeffs:
            return _cross_trunc(other.trunc, self)
        return min(_cross_trunc(self.trunc, other), _cross_trunc(other.trunc, self))

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        denom = math.lcm(self.denom, other.denom)
        xa = self._rescaled(denom)
        xb = other._rescaled(denom)
        if len(xa) > len(xb):
            xa, xb = xb, xa
        trunc = self._mul_trunc(other)
        bound = _int_bound(trunc, denom)
        if not xa or {*map(type, xa.values()), *map(type, xb.values())} <= {int}:
            out = _int_product(xa, xb, bound)  # xa is the shorter operand
        else:  # rationals as Q(zeta_1), on the same kernel
            from .cyclotomic import series_product  # cyclotomic builds on this module

            out = series_product(xa, xb, bound)
        return QSeries._from_clean(out, denom, trunc)

    __rmul__ = __mul__

    def shift(self, exponent: _EXPONENT) -> "QSeries":
        """Multiply by the exact monomial q^exponent (truncation shifts too)."""
        e = rational_arg(exponent, "exponent")
        denom = math.lcm(self.denom, e.denominator)
        off = e.numerator * (denom // e.denominator)
        coeffs = {m + off: c for m, c in self._rescaled(denom).items()}
        return QSeries._from_clean(coeffs, denom, self.trunc + e if off else self.trunc)

    def truncate(self, trunc) -> "QSeries":
        if not trunc < self.trunc:
            return self
        return QSeries(self._coeffs, self.denom, trunc)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse as a (Laurent) series.

        Requires a lowest-order coefficient that is a nonzero ``int`` or
        ``Fraction``.  If the series has order o and is exact below T, the
        inverse is exact below T - 2*o.
        """
        if not self._coeffs:
            raise QSeriesError("cannot invert: series is zero below its truncation")
        m0 = min(self._coeffs)
        c0 = self._coeffs[m0]
        if isinstance(c0, int):
            inv_c0 = c0 if c0 in (1, -1) else Fraction(1, c0)
        elif isinstance(c0, Fraction):
            inv_c0 = 1 / c0
        else:
            raise QSeriesError(f"cannot invert: the lowest coefficient {c0!r} is not rational")
        denom = self.denom
        if self.trunc is INF:
            # An exact polynomial inverts to an infinite series: no window
            # is exact without a truncation order, so none is guessed.
            raise QSeriesError("inverse of an untruncated series needs a finite trunc")
        trunc = self.trunc - Fraction(2 * m0, denom) if m0 else self.trunc
        size = _int_bound(self.trunc, denom) - m0
        if size <= 0:
            return QSeries({}, 1, trunc)
        inv = [0] * size
        inv[0] = inv_c0
        unit_items = [(m - m0, c) for m, c in self._coeffs.items() if m != m0]
        for e in range(1, size):
            acc = 0
            for m, c in unit_items:
                if m > e:
                    continue
                v = inv[e - m]
                if v != 0:
                    acc = acc + c * v
            if acc != 0:
                inv[e] = _clean(-acc * inv_c0)
        out = {e - m0: c for e, c in enumerate(inv) if c != 0}
        return QSeries(out, denom, trunc)

    def compose_power(self, c: _EXPONENT) -> "QSeries":
        """Substitute q -> q^c for a positive rational c (exponents scale by c)."""
        c = rational_arg(c, "c")
        if c <= 0:
            raise QSeriesError("compose_power requires a positive rational power")
        denom = self.denom * c.denominator
        coeffs = {m * c.numerator: v for m, v in self._coeffs.items()}
        trunc = self.trunc if self.trunc is INF else self.trunc * c
        return QSeries(coeffs, denom, trunc).normalized()

    # ------------------------------------------------------------- comparison
    def first_mismatch(self, other: "QSeries", up_to=None) -> Fraction | None:
        """Lowest exponent below min(truncs, up_to) where coefficients differ."""
        window = min(self.trunc, other.trunc)
        if up_to is not None:
            window = min(window, up_to)
        denom = math.lcm(self.denom, other.denom)
        xa = self._rescaled(denom)
        xb = other._rescaled(denom)
        bound = _int_bound(window, denom)
        bad = None
        for m in set(xa) | set(xb):
            if bound is not None and m >= bound:
                continue
            if xa.get(m, 0) != xb.get(m, 0):
                if bad is None or m < bad:
                    bad = m
        return None if bad is None else Fraction(bad, denom)

    # ---------------------------------------------------------------- display
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for e, c in list(self.terms())[:8]:
            parts.append(f"{c}*q^({e})" if e else f"{c}")
        body = " + ".join(parts) if parts else "0"
        if self.num_terms() > 8:
            body += " + ..."
        tail = "" if self.trunc is INF else f" + O(q^{self.trunc})"
        return f"QSeries({body}{tail})"


# ------------------------------------------------------------ integer product


def _int_product(xa: dict, xb: dict, bound: int | None) -> dict:
    """The nonzero terms of the product of two integer term maps below
    ``bound``: packed by :func:`_kronecker_product` when dense enough,
    else pairwise over the terms of ``xb`` in exponent order."""
    out = _kronecker_product(xa, xb, bound)
    if out is not None:
        return out
    out, items_b = {}, sorted(xb.items())
    for m1, c1 in xa.items():
        top = INF if bound is None else bound - m1
        for m2, c2 in items_b:
            if m2 >= top:
                break
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _kronecker_product(xa: dict, xb: dict, bound: int | None) -> dict | None:
    """Product of two integer-coefficient term maps by Kronecker substitution:
    one big-int product (CPython's Karatsuba) in the :class:`TruncatedRing`
    of the product's span, cut at ``bound`` (exponents at or above it are
    dropped).  Its bound is the product of the largest operand coefficients
    times the shorter operand's length, at least every product coefficient.
    Returns None, leaving the product to the pairwise loop, when a
    coefficient is not a plain int or when the operands make fewer than
    ``_PACK_MIN_PAIRS_PER_DIGIT`` term pairs per digit of the product's
    span.
    """
    if not xa or not xb:
        return {}
    lo_a, lo_b = min(xa), min(xb)
    hi_a, hi_b = max(xa), max(xb)
    if bound is not None:  # terms that can only land at or above it stay out
        hi_a, hi_b = min(hi_a, bound - 1 - lo_b), min(hi_b, bound - 1 - lo_a)
        if hi_a < lo_a or hi_b < lo_b:
            return {}
    size = hi_a + hi_b - lo_a - lo_b + 1
    if len(xa) * len(xb) < _PACK_MIN_PAIRS_PER_DIGIT * size:
        return None
    if {*map(type, xa.values()), *map(type, xb.values())} != {int}:
        return None
    peak = max(map(abs, xa.values())) * max(map(abs, xb.values()))
    slots = size if bound is None else min(size, bound - lo_a - lo_b)
    ring = TruncatedRing(slots, peak * min(len(xa), len(xb)))
    return ring.decode(ring.mul(ring.encode(xa, lo_a), ring.encode(xb, lo_b)), lo_a + lo_b)


# ------------------------------------------------------------ packed rings


class PackedRing:
    """Z[x]/(x^T) (:class:`TruncatedRing`) or Z[x]/(x^N - 1)
    (:class:`~qmaass.cyclotomic.CyclicRing`) packed into one int by
    x -> 2^W, a ring map onto Z/``modulus`` (Kronecker substitution; Harvey,
    J. Symb. Comput. 44, 2009).  ``+`` and ``*`` by an int >= 0 are int
    operations, ``sub`` is ``-`` (signs are dropped in a ``twin``,
    :class:`L1Bound` or :class:`MajorantBound`); a subclass supplies
    ``modulus``, ``mul`` and ``rot`` (times x^s), each exact, and its
    Horner steps with ``rot`` inlined (a shift and a mask, a fold, the
    majorant's rounding up, a running sum for x -> 1): ``_horner`` divides
    a z-series by prod_(lo<=i<hi) (1 - z x^i) in one call, and with a
    period ``_times`` multiplies by such factors.

    A value is the sum of its coefficients c times 2^(W e) over ``slots``
    exponents e.  :meth:`decode` reads each c back while |c| <= ``bound``:
    W is ceil((bound.bit_length() + 2) / 8) bytes, rounded up to a machine
    word up to 8 bytes, so c + 2^(W-1) lies in [2^(W-2), 3 * 2^(W-2)], one
    unsigned digit that never reaches 2^W - 1.  Exponents at or above
    ``horizon`` vanish, and with a ``period`` N, x^N = 1.  Gaussian
    binomials are summed along rows by :meth:`binomial_sums`, with no
    table and no product.
    """

    horizon = INF
    period = None
    sub = operator.sub

    def __init__(self, slots: int, bound: int):
        nbytes = (bound.bit_length() + 9) // 8
        self.bytes = next((w for w in _WORD_CODES if w >= nbytes), nbytes)
        self.width, self.slots = 8 * self.bytes, slots
        self._half = 1 << self.width - 1
        self._ones = int.from_bytes((1).to_bytes(self.bytes, "little") * slots, "little")
        self._bias = self._ones << self.width - 1
        code = _WORD_CODES.get(self.bytes)  # wider digits go byte by byte
        self._words = code and struct.Struct("<%d%s" % (slots, code))

    def binomial_sums(self, by_g: dict, end: int) -> list:
        """z^0..z^end of sum_g sum_((p, a) in by_g[g]) a z^p / prod_(i<=g) (1 - z x^i),
        each p <= end: z^(p+s) gathers a [s+g choose s] (Andrews, The Theory
        of Partitions, Thm 3.3).  The terms join from the largest g down, and
        the series is divided by the factors down to the next g (Horner)."""
        series, low, high, gs = [0] * (end + 1), end, 0, sorted(by_g, reverse=True)
        for g, below in zip(gs, gs[1:] + [-1]):
            for p, a in by_g[g]:  # series[n] = 0 off low <= n <= high
                series[p] += a
                if p < low:
                    low = p
                if p > high:
                    high = p
            high = self._over(series, low, high, below + 1, g + 1)
        return series

    def _over(self, series: list, low: int, high: int, lo: int, hi: int) -> int:
        """series / prod_(lo<=i<hi) (1 - z x^i) in place, series[n] = 0 off
        low <= n <= high; returns the new high.  Factors past the horizon
        are 1.  A period N is read only at primitive N-th roots, where N
        factors in a row are 1 - z^N: a whole period is one division by it,
        and r more, if cheaper, the other N - r factors multiplied (each
        widens the series by one, the ring's :meth:`_times`) over one more.
        The other factors are one call of the ring's :meth:`_horner`."""
        N, end = self.period, len(series) - 1
        hi, full = min(hi, self.horizon), 0
        if N:
            full, rest = divmod(hi - lo, N)
            k = N - rest
            if k * (min(high + k, end) - low) < rest * (end - low):
                full, rest = full + 1, 0
                high = self._times(series, low, high, hi, hi + k)
            hi = lo + rest
        if hi > lo and low < end:
            self._horner(series, low, lo, hi)
        for _ in range(full):
            for n in range(low + N, end + 1):
                series[n] += series[n - N]
        return end if hi > lo or full else high

    def divide(self, a: int, c: int, sign: int = 1) -> int:
        """a / (1 - sign x^c), c >= 1, sign 1 or -1, in a ring with a
        horizon: a (1 + sign x^c)(1 + x^(2c))(1 + x^(4c)) ... up to the
        first factor that the horizon kills.  Without a horizon, 1 - x^c has
        no such inverse: QSeriesError."""
        if c < 1:
            raise QSeriesError(f"an inverse pochhammer needs factor exponents >= 1, got {c}")
        if self.horizon == INF:
            raise QSeriesError("a division by 1 - x^c needs a ring with a horizon")
        if sign < 0:
            a, c = self.sub(a, self.rot(a, c)), 2 * c
        while c < self.horizon:
            a, c = a + self.rot(a, c), 2 * c
        return a

    def pochhammer_sum(self, terms: list, s: int = 1, reps: int = 1):
        """sum_m (x^s; x^s)_m^reps terms[m] by Horner's rule: for m from the
        number of terms down to 1, the total is multiplied by
        (1 - x^(s m))^reps and takes terms[m - 1]."""
        total = 0
        for m in range(len(terms), 0, -1):
            for _ in range(reps):
                total = self.sub(total, self.rot(total, s * m))
            total += terms[m - 1]
        return total

    @classmethod
    def packed(cls, size: int, build) -> tuple:
        """``(ring, build(ring))``: ``build`` runs over the ring's ``twin`` of
        ``size``, whose ``bound`` B of its values bounds every coefficient of
        each element of the list, then over the ring of ``size`` and B.

        So two elements a and b of a :class:`TruncatedRing` list are equal
        polynomials iff (a - b) % ``ring.modulus`` == 0, and so are 2a and b:
        |c| <= B < 2^(W-2) for every coefficient c of both, so each
        coefficient of a - b (or 2a - b) is less than 2^W in absolute value,
        and the lowest nonzero one, at x^e with e < T, keeps the value
        nonzero mod 2^(W T).  An equal pair needs no :meth:`decode`."""
        twin = cls.twin(size)
        ring = cls(size, twin.bound(build(twin)))
        return ring, build(ring)

    @classmethod
    def sums(cls, size: int, build) -> list[dict]:
        """The elements of the list ``build(ring)`` of :meth:`packed` as
        integer maps."""
        ring, values = cls.packed(size, build)
        return [ring.decode(a) for a in values]

    @classmethod
    def weighted_sum(cls, size: int, walk, weigh) -> dict:
        """``weigh(ring, walk(ring))`` as an integer map, over two rings of
        ``size`` sized by one pass over the ``twin``: ``walk`` runs in digits
        for its values, each distinct value moves by :meth:`take` to digits
        for them and the sum, ``weigh`` runs there, and only the sum is decoded."""
        twin = cls.twin(size)
        sizes = walk(twin)
        inner, ring = cls(size, twin.bound(sizes)), cls(size, twin.bound([weigh(twin, sizes), *sizes]))
        values = walk(inner)
        moved = {a: ring.take(a, inner) for a in set(values)}
        return ring.decode(weigh(ring, [moved[a] for a in values]))

    def encode(self, powers: dict, low: int = 0) -> int:
        """The value of the map {exponent: coefficient} times x^-low, its
        exponents at least ``low`` (any, with a period): the biased digits
        joined by :meth:`_join`, less the bias.  Exponents from
        ``low + slots`` on vanish."""
        digits, period, slots = [self._half] * self.slots, self.period, self.slots
        for e, c in powers.items():
            e -= low
            if period:
                e %= period
            elif e < 0:
                raise QSeriesError(f"exponent {e + low} is below {low}")
            if e < slots:
                digits[e] += c
        return self._join(digits) - self._bias

    def decode(self, a: int, low: int = 0) -> dict:
        """The map {exponent: coefficient} of the nonzero coefficients of ``a``
        times x^low: the digits of :meth:`_cells`, each less 2^(W-1)."""
        half = self._half
        return {e: c - half for e, c in enumerate(self._cells(a), low) if c != half}

    def take(self, a: int, ring: "PackedRing") -> int:
        """The value ``a`` of ``ring``, of the same slots and period and no
        wider digits, in this ring, digit by digit: its biased digits joined
        at this width, less its bias spread over this width's digits; so
        ``encode(ring.decode(a))`` with no map in between."""
        return self._join(ring._cells(a)) - ring._half * self._ones

    def _cells(self, a: int):
        """The unsigned digits of the least residue of ``a`` plus the bias,
        x^0 first, by one ``struct`` call (byte by byte past 8 bytes)."""
        w = self.bytes
        raw = ((a + self._bias) % self.modulus).to_bytes(w * self.slots, "little")
        if self._words:
            return self._words.unpack(raw)
        return map(int.from_bytes, [raw[i : i + w] for i in range(0, len(raw), w)], repeat("little"))

    def _join(self, cells) -> int:
        """The int of the unsigned digits ``cells``, x^0 first: :meth:`_cells` reversed."""
        if self._words:
            return int.from_bytes(self._words.pack(*cells), "little")
        return int.from_bytes(b"".join(map(int.to_bytes, cells, repeat(self.bytes), repeat("little"))), "little")


class L1Bound(PackedRing):
    """x -> 1 with signs dropped, taking the steps of the ring of its
    ``period`` (:meth:`~PackedRing.binomial_sums` reads it): each value
    bounds the L1 norm of the matching value of that ring (or of the whole
    polynomial), a norm subadditive, submultiplicative and unchanged by
    rotation, so the largest is the ring's ``bound``.  A value with all
    coefficients >= 0 is their sum."""

    width = 0
    sub = operator.add

    def __init__(self, period: int | None = None):
        self.period = period

    def bound(self, values: list) -> int:
        return max(values, default=0)

    def mul(self, a: int, b: int) -> int:
        return a * b

    def rot(self, a: int, s: int) -> int:
        return a

    def _horner(self, series: list, low: int, lo: int, hi: int) -> None:
        end = len(series)
        for _ in range(lo, hi):  # x -> 1: each division is a running sum
            a = series[low]
            for n in range(low + 1, end):
                a = series[n] = series[n] + a

    def _times(self, series: list, low: int, high: int, lo: int, hi: int) -> int:
        for _ in range(lo, hi):  # x -> 1: each factor adds the series moved up by one
            high = min(high + 1, len(series) - 1)
            series[low + 1 : high + 1] = map(operator.add, series[low + 1 : high + 1], series[low:high])
        return high

    def encode(self, powers: dict) -> int:
        return sum(map(abs, powers.values()))


class MajorantBound(L1Bound):
    """The twin of the :class:`TruncatedRing` of T = ``horizon`` slots:
    x -> rho = 1 - 2^-k, k = max(1, round(log2(T) / 2)), signs dropped,
    each value rounded up to an int (``rot(a, s)`` is ceil(a p_s / 2^(k s)),
    p_s = (2^k - 1)^s = ``_powers[s]``, and 0 from s = T on).  By induction
    over the build each value bounds M(rho), M(y) = sum_(e<T) |c_e| y^e the
    coefficientwise majorant of the matching ring value: M of a sum, or of
    a product below x^T, is at most the sum or the product of the Ms, M of
    x^s a is rho^s M(a), and M of a / (1 -+ x^c) at most M(a) / (1 - rho^c).
    By Cauchy's estimate |c_e| <= M(rho) rho^-e (Flajolet and Sedgewick,
    Analytic Combinatorics, 2009, VIII.2) the ring's ``bound`` is the
    largest value times rho^-(T-1), rounded up: both factors are about
    e^sqrt(T) for a Pochhammer of any length, whose L1 bound is 2^length."""

    def __init__(self, horizon: int):
        super().__init__()
        self.horizon, self._k = horizon, max(1, round(math.log2(max(horizon, 1)) / 2))
        self._powers = [*accumulate(repeat((1 << self._k) - 1, horizon - 1), operator.mul, initial=1)]

    def bound(self, values: list) -> int:
        n = len(self._powers) - 1
        return -(-(super().bound(values) << self._k * n) // self._powers[n])

    def rot(self, a: int, s: int) -> int:
        return -(-a * self._powers[s] >> self._k * s) if s < self.horizon else 0

    def _horner(self, series: list, low: int, lo: int, hi: int) -> None:
        end, k = len(series), self._k
        for i in range(lo, hi):  # a + rot(a, i), rounded up
            p, s = self._powers[i], k * i
            a = series[low]
            for n in range(low + 1, end):
                a = series[n] = series[n] - (-a * p >> s)

    def divide(self, a: int, c: int, sign: int = 1) -> int:
        if not 1 <= c < self.horizon:  # the guard, or the identity
            return super().divide(a, c, sign)
        return -((-a << self._k * c) // ((1 << self._k * c) - self._powers[c]))

    def encode(self, powers: dict, low: int = 0) -> int:
        if min(powers, default=low) < low:
            raise QSeriesError(f"exponent {min(powers)} is below {low}")
        return sum(self.rot(abs(c), e - low) for e, c in powers.items())


class TruncatedRing(PackedRing):
    """Z[x]/(x^T), T = ``slots``, packed onto Z/2^(W*T) as x^T -> 0: ``mul``
    is a product and a mask, ``rot`` a shift and a mask."""

    def __init__(self, slots: int, bound: int):
        super().__init__(slots, bound)
        self.horizon, self.mask = slots, (1 << self.width * slots) - 1
        self.modulus = self.mask + 1

    twin = MajorantBound  # sizes the ring by Cauchy's estimate, not the L1 norm

    @classmethod
    def series(cls, trunc, build) -> list[QSeries]:
        """The elements of the list ``build(ring)`` of :meth:`packed` as
        QSeries below the finite ``trunc``, over T = ceil(trunc) slots, which
        ``build`` reads as ``ring.horizon``; equal neighbours are one series.
        Every truncated packed sum reaches QSeries here."""
        t = finite_trunc(trunc)
        out = []
        for coeffs in cls.sums(int_slots(t), build):
            out.append(out[-1] if out and out[-1]._coeffs == coeffs else QSeries._from_clean(coeffs, 1, t))
        return out

    def mul(self, a: int, b: int) -> int:
        return a * b & self.mask

    def rot(self, a: int, s: int) -> int:
        return a << self.width * s & self.mask if s < self.horizon else 0

    def _horner(self, series: list, low: int, lo: int, hi: int) -> None:
        end, mask, w = len(series), self.mask, self.width
        for s in range(w * lo, w * hi, w):  # a + rot(a, i), i < T
            a = series[low]
            for n in range(low + 1, end):
                a = series[n] = series[n] + (a << s & mask)


# ----------------------------------------------------------------- pochhammer

_POCH_NAMES = {
    "q": (1, 1, 1),        # (q; q)_n
    "q2": (1, 2, 2),       # (q^2; q^2)_n
    "-q": (-1, 1, 1),      # (-q; q)_n
    "-1": (-1, 0, 1),      # (-1; q)_n
    "q;q2": (1, 1, 2),     # (q; q^2)_n
    "q2;q": (1, 2, 1),     # (q^2; q)_n
}


def _factors(kind: str, n: int, trunc, apply) -> QSeries:
    """The first n factors (1 - c x^e) of ``kind``, each applied to a value
    of Z[x]/(x^T), 1 at first, by ``apply(ring, value, e, c)``, in one
    :meth:`TruncatedRing.series` pass, T = ceil(trunc)."""
    int_arg(n, "n", 0)
    coeff, exponent, step = _POCH_NAMES[choice_arg(kind, "kind", tuple(_POCH_NAMES))]

    def build(ring) -> list:
        a = 1
        for e in range(exponent, exponent + step * n, step):
            a = apply(ring, a, e, coeff)
        return [a]

    return TruncatedRing.series(trunc, build)[0]


def _times(ring, a: int, e: int, c: int) -> int:
    """a (1 - c x^e), c = 1 or -1."""
    return ring.sub(a, ring.rot(a, e)) if c == 1 else a + ring.rot(a, e)


def pochhammer(kind: str, n: int, trunc) -> QSeries:
    """Finite q-Pochhammer product of n factors, below the finite ``trunc``.

    ``kind`` names one of the products in ``_POCH_NAMES``: (q;q)_n,
    (q^2;q^2)_n, (-q;q)_n, (-1;q)_n, (q;q^2)_n and (q^2;q)_n.  Any other
    kind, or an infinite trunc, raises :class:`QSeriesError`.
    """
    return _factors(kind, n, trunc, _times)


def inverse_pochhammer(kind: str, n: int, trunc) -> QSeries:
    """1 / pochhammer(kind, n, trunc), exact below the finite ``trunc``:
    one :meth:`PackedRing.divide` per factor.  Takes what
    :func:`pochhammer` takes, except that a factor exponent 0 (as in
    (-1; q)_n, n >= 1) raises :class:`QSeriesError`."""
    return _factors(kind, n, trunc, PackedRing.divide)


# ----------------------------------------------------------- gaussian binomial

def gaussian_binomial(n: int, k: int, trunc=INF) -> QSeries:
    """Gaussian binomial coefficient [n choose k]_q as an exact polynomial.

    Zero whenever the pair (n, k) falls outside 0 <= k <= n (including
    negative top entries).  With g = min(k, n - k) it is the z^(n-g) entry
    of :meth:`PackedRing.binomial_sums` of the single term z^0 at g, over
    the ring of its g (n - g) + 1 exponents: its coefficients are >= 0 and
    sum to C(n, g), which bounds each of them.
    """
    n, k = int_arg(n, "n"), int_arg(k, "k")
    if not 0 <= k <= n:
        return QSeries.zero(trunc)
    g = min(k, n - k)
    ring = TruncatedRing(g * (n - g) + 1, math.comb(n, g))
    return QSeries(ring.decode(ring.binomial_sums({g: [(0, 1)]}, n - g)[-1]), 1, trunc)


# ---------------------------------------------------------------- lattice rows


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


def _lattice_row(square: int, linear: int, start: int, top: int, lo: int, hi: int):
    """(nus, exponents) per nonempty run of the nu in lo..hi whose exponent
    start - (square nu^2 + linear nu) / 2, square + linear even, is below
    ``top``: the end runs of :func:`_kept_nus`, each exponent a running sum.
    Every exact lattice sum reads its points from here."""
    for nus in _kept_nus(square, linear, start - top, lo, hi):
        if nus:
            nu = nus.start
            step = -((square * (2 * nu + 1) + linear) // 2)  # exponent at nu + 1 minus at nu
            steps = range(step, step - square * (len(nus) - 1), -square)
            yield nus, accumulate(steps, initial=start - (square * nu * nu + linear * nu) // 2)
