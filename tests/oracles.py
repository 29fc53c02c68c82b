"""Reference evaluations the tests compare the library against.

The library never evaluates a general q-series at a root of unity: its
root-of-unity values come from group-ring sums (:mod:`qmaass.cyclotomic`).
The tests expand the same objects as exact q-series and sum them here,
term by term, as an independent oracle.  The knot side (Morton's formula
for torus knots) and the partition side of the classical companions
share no code with the library either.  The Bailey limit identities
are summed here over series products, the even/odd average taken at
the pair's proven top (:func:`limit_identity_by_products`), where the
library sums them in a packed ring.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count

from qmaass.bailey import LIMIT_WEIGHTS
from qmaass.cyclotomic import CycNumber
from qmaass.reports import _exact_str, report_from_comparison
from qmaass.series import INF, QSeries, QSeriesError, TruncatedRing, int_slots, pochhammer


def root_of_unity_value(series: QSeries, N: int, power: int = 1) -> CycNumber:
    """Exact evaluation of a q-series at q = zeta_N^power.

    All stored terms are summed, so the caller is responsible for the series
    being an exact polynomial (infinite trunc) or for the truncation being
    the intended evaluation window.  Fractional exponents m/D map to
    zeta_(N*D)^(m*power); the result lives in Q(zeta_(N*D)), or in the
    compositum with the fields of cyclotomic coefficients (see :func:`lift`).
    """
    s = series.normalized()
    L = N * s.denom
    rational_powers: dict[int, object] = {}
    cyclotomic = []
    for m, c in s._coeffs.items():
        k = (m * power) % L
        if isinstance(c, (int, Fraction)):
            rational_powers[k] = rational_powers.get(k, 0) + c
        else:
            cyclotomic.append((k, c))
    order = math.lcm(L, *(c.order for _, c in cyclotomic))
    out = lift(CycNumber.from_powers(L, rational_powers), order)
    for k, c in cyclotomic:
        out = out + lift(CycNumber.zeta(L, k), order) * lift(c, order)
    return out


def lift(x: CycNumber, order: int) -> CycNumber:
    """The image of ``x`` in Q(zeta_order), for a multiple ``order`` of its
    order: zeta_(x.order) -> zeta_order^(order / x.order)."""
    if order % x.order:
        raise ValueError(f"order {order} is not a multiple of {x.order}")
    step = order // x.order
    return CycNumber.from_powers(order, {k * step: c for k, c in enumerate(x.vec) if c})


def negate_variable(series: QSeries) -> QSeries:
    """The substitution q -> -q in an integer-exponent series."""
    s = series.normalized()
    assert s.denom == 1, "q -> -q needs integer exponents"
    return QSeries({m: -c if m % 2 else c for m, c in s._coeffs.items()}, 1, s.trunc)


@lru_cache(maxsize=None)
def oracle_binomial(top: int, bottom: int) -> dict:
    """Gaussian binomial as an exponent->coeff dict via the Pascal recursion
    [m, j] = [m-1, j-1] + q^j * [m-1, j]  (independent of the library route)."""
    if bottom < 0 or bottom > top:
        return {}
    if bottom == 0 or bottom == top:
        return {0: 1}
    out = dict(oracle_binomial(top - 1, bottom - 1))
    for e, c in oracle_binomial(top - 1, bottom).items():
        out[e + bottom] = out.get(e + bottom, 0) + c
    return {e: c for e, c in out.items() if c}


def torus_jones_at_root(m: int, p: int, N: int) -> CycNumber:
    """The N-coloured Jones polynomial of the (m, p) torus knot at
    q = zeta_N, by Morton's formula (Math. Proc. Cambridge Philos. Soc.
    117, 1995) in Q = q^(1/4):

        Q^(mp(1 - N^2)) / (Q^(2N) - Q^(-2N)) * sum over 2r = -(N-1), -(N-3), ..., N-1
            of Q^(mp(2r)^2 - 2(m+p)(2r) + 2) - Q^(mp(2r)^2 - 2(m-p)(2r) - 2).

    The denominator vanishes at Q = zeta_(4N), so the Laurent polynomial
    is divided exactly first; the value lies in Q(zeta_(4N)).
    """
    # The numerator times Q^(2N), to be divided by Q^(4N) - 1.
    num: dict[int, int] = {}
    for r2 in range(1 - N, N, 2):
        base = m * p * (r2 * r2 + 1 - N * N) + 2 * N
        for e, c in ((base - 2 * (m + p) * r2 + 2, 1), (base - 2 * (m - p) * r2 - 2, -1)):
            num[e] = num.get(e, 0) + c
    num = {e: c for e, c in num.items() if c}
    floor, quotient = min(num, default=0), {}
    while num and max(num) - 4 * N >= floor:
        top = max(num)
        c = num.pop(top)
        quotient[top - 4 * N] = c
        num[top - 4 * N] = num.get(top - 4 * N, 0) + c
        if not num[top - 4 * N]:
            del num[top - 4 * N]
    assert not num, "Morton's numerator is not divisible by Q^(2N) - Q^(-2N)"
    vec = [0] * (4 * N)
    for e, c in quotient.items():
        vec[e % (4 * N)] += c
    return CycNumber(4 * N, vec)


def strange_value(k: int, ell: int, N: int, swap: bool = False) -> CycNumber:
    """Hikami's strange identity (Ramanujan J. 11, 2006) for the KZ sum
    at q = zeta_N, in Q(zeta_T), T = 2mN: the L-value

        (T/4) * sum over n = 1..T of chi(n) B_2(n/T) zeta_T^(n^2 - a^2 + 2mk),

    with m = 8k + 4, a = 2k - 2ell + 1, b = 2k + 2ell + 1, B_2(x) = x^2 - x
    + 1/6, and chi(n) = +1 for n = ±a, -1 for n = ±b mod m, 0 otherwise.
    ``swap`` exchanges a and b throughout.  It shares no code with the
    chain walk of ``kz_root_value``.
    """
    m = 8 * k + 4
    a, b = 2 * k - 2 * ell + 1, 2 * k + 2 * ell + 1
    if swap:
        a, b = b, a
    T = 2 * m * N
    chi = {a % m: 1, -a % m: 1, b % m: -1, -b % m: -1}
    powers: dict[int, Fraction] = {}
    for n in range(1, T + 1):
        if n % m in chi:
            x = Fraction(n, T)
            e = (n * n - a * a + 2 * m * k) % T
            powers[e] = powers.get(e, 0) + chi[n % m] * (x * x - x + Fraction(1, 6))
    return CycNumber.from_powers(T, {e: T * c / 4 for e, c in powers.items()})


def sigma_by_rank_parity(n_max: int) -> list:
    """Coefficients 0..n_max of Ramanujan's sigma(q) by Andrews, Dyson and
    Hickerson (Invent. Math. 91, 1988): S(n) is the number of partitions
    of n into distinct parts with even rank less the number with odd
    rank, the rank being the largest part less the number of parts.

    A partition with largest part L is L on top of a distinct-part
    partition of the rest into parts below L; ``parts[s][e]`` counts the
    partitions of s into distinct parts below L with a part count of
    parity e."""
    out = [0] * (n_max + 1)
    out[0] = 1  # the empty partition
    parts = [[0, 0] for _ in range(n_max + 1)]
    parts[0][0] = 1
    for L in range(1, n_max + 1):
        for s in range(n_max - L + 1):
            for e in (0, 1):
                rank = L - (1 + e)  # its parity: the part count is 1 + e mod 2
                out[L + s] += parts[s][e] if rank % 2 == 0 else -parts[s][e]
        for s in range(n_max, L - 1, -1):  # admit the part L
            parts[s][0] += parts[s - L][1]
            parts[s][1] += parts[s - L][0]
    return out


def sigma_star_by_odd_partitions(n_max: int) -> list:
    """Coefficients 0..n_max of sigma*(q) = 2 sum_(n >= 1) (-1)^n q^(n^2) / (q; q^2)_n,
    read literally: q^(n^2) / (q; q^2)_n counts the partitions into odd
    parts whose distinct parts are exactly 1, 3, ..., 2n - 1, that is n^2
    plus a partition into odd parts up to 2n - 1."""
    out = [0] * (n_max + 1)
    odd = [1] + [0] * n_max  # partitions into odd parts up to 2n - 1
    n = 1
    while n * n <= n_max:
        part = 2 * n - 1
        for s in range(part, n_max + 1):
            odd[s] += odd[s - part]
        for s in range(n_max - n * n + 1):
            out[n * n + s] += 2 * (-1) ** n * odd[s]
        n += 1
    return out


def galois(x: CycNumber, b: int) -> CycNumber:
    """sigma_b(x), the automorphism zeta -> zeta^b of Q(zeta_(x.order)),
    for b a unit mod the order."""
    if math.gcd(b, x.order) != 1:
        raise ValueError(f"{b} is not a unit mod {x.order}")
    return CycNumber.from_powers(x.order, {k * b: c for k, c in enumerate(x.vec) if c})


def sigma_at_root(N: int, power: int = 1) -> CycNumber:
    """Ramanujan's sigma(q) = 1 + sum_(n >= 0) (-1)^n q^(n+1) (q; q)_n at
    q = zeta_N^power, a unit power: (q; q)_n vanishes from n = N on, so
    the sum stops there."""
    one = CycNumber.from_rational(N, 1)
    total, prefix = one, one
    for n in range(N):
        total = total + (-1) ** n * CycNumber.zeta(N, power * (n + 1)) * prefix
        prefix = prefix * (1 - CycNumber.zeta(N, power * (n + 1)))
    return total


def sigma_star_at_root(N: int, power: int = 1) -> CycNumber:
    """sigma*(q) = -2 sum_(n >= 0) q^(n+1) (q^2; q^2)_n at q = zeta_N^power,
    a unit power: (q^2; q^2)_n vanishes once N divides 2n, so the sum stops
    at n = N."""
    total, prefix = CycNumber.from_rational(N, 0), CycNumber.from_rational(N, 1)
    for n in range(N):
        total = total + CycNumber.zeta(N, power * (n + 1)) * prefix
        prefix = prefix * (1 - CycNumber.zeta(N, 2 * power * (n + 1)))
    return -2 * total


def negative_part_by_box(M: int, ell: int, trunc, box: int = 60) -> dict:
    """The cone sum of :func:`qmaass.families.negative_part_series` below
    ``trunc`` by brute force over |n|, |nu| <= box: with
    X = 2(M+1)n + M - 1 and Y = 2(M-1)nu + M - 1 - 2 ell, each point with
    |X| < |Y| adds (-1)^(n+nu) at ((M+1)Y^2 - (M-1)X^2) / (8(M+1)(M-1)).
    Raises if a kept point lies on the box's edge, where the box may cut."""
    denom = 8 * (M + 1) * (M - 1)
    top = math.ceil(trunc * denom)  # e < trunc exactly when its numerator is below top
    out: dict = {}
    for n in range(-box, box + 1):
        x = 2 * (M + 1) * n + M - 1
        for nu in range(-box, box + 1):
            y = 2 * (M - 1) * nu + M - 1 - 2 * ell
            num = (M + 1) * y * y - (M - 1) * x * x
            if abs(x) < abs(y) and num < top:
                assert box not in (abs(n), abs(nu)), "the box cuts the cone sum"
                e = Fraction(num, denom)
                out[e] = out.get(e, 0) + (-1) ** (n + nu)
    return {e: c for e, c in out.items() if c}


def negative_part_counts(M: int, ell: int, trunc, nu_window: tuple) -> tuple[int, int]:
    """(kept, dropped): the cone points of :func:`negative_part_by_box` with
    nu in ``nu_window``, by brute force over n, whose exponent is below
    ``trunc`` and at or above it.  |X| < |Y| needs |n| <= |Y|."""
    denom = 8 * (M + 1) * (M - 1)
    kept = dropped = 0
    for nu in range(nu_window[0], nu_window[1] + 1):
        y = 2 * (M - 1) * nu + M - 1 - 2 * ell
        for n in range(-abs(y), abs(y) + 1):
            x = 2 * (M + 1) * n + M - 1
            if abs(x) < abs(y):
                if Fraction((M + 1) * y * y - (M - 1) * x * x, denom) < trunc:
                    kept += 1
                else:
                    dropped += 1
    return kept, dropped


def min_order(series: QSeries) -> Fraction | None:
    """The lowest exponent of ``series``, None for the zero series."""
    return next((e for e, _ in series.terms()), None)


def weighted_term(relative: str, kind: str, n: int, beta: QSeries, trunc) -> QSeries:
    """The n-th left-side term (-1)^n q^power(n) (q^s;q^s)_(n-first) beta,
    truncated below trunc, of the limit identity ``(relative, kind)``."""
    s, first, power = LIMIT_WEIGHTS[relative, kind]
    shift = 0 if power is None else power(n)
    # Terms of beta at or above trunc - shift land at or above trunc, so
    # beta is cut there first.
    term = pochhammer("q" if s == 1 else "q2", n - first, trunc) * beta.truncate(trunc - shift)
    if shift:
        term = term.shift(shift)
    term = term.truncate(trunc)
    return -term if n % 2 else term


def stabilized_sum(terms, trunc) -> QSeries:
    """(S_(top-1) + S_top) / 2 for the partial sums S_n of the term list
    t_0 .. t_top, each term cut below ``trunc``: the even/odd average of
    the partial sums of any sequence that goes on as (-1)^n t_top."""
    *head, last = (s.truncate(trunc) for s in terms)
    return (sum(head, QSeries.zero(trunc)) + last.scale(Fraction(1, 2))).truncate(trunc)


def _limit_sum(relative: str, kind: str, values, term, trunc, settle: int) -> QSeries:
    """The sum of term(n, v_n) over n >= first below trunc, v_0, v_1, ...
    read in one pass from ``values(n_max, trunc)``: cut before the first n
    with power(n) >= trunc, where two probe terms must vanish, or with no
    power the :func:`stabilized_sum` of the terms up to the top
    max(ceil(trunc) + settle, first)."""
    _, first, power = LIMIT_WEIGHTS[relative, kind]
    if power is None:
        n_max = max(math.ceil(trunc) + settle, first)
    else:
        n_max = next(n for n in count(first) if power(n) >= trunc) + 1
    terms = [term(n, v) for n, v in enumerate(values(n_max, trunc)) if n >= first]
    if power is None:
        return stabilized_sum(terms, trunc)
    *kept, probe, next_probe = terms
    if not (probe.is_zero() and next_probe.is_zero()):
        raise QSeriesError("limit-identity term re-entered below trunc past the cutoff")
    return sum(kept, QSeries.zero(trunc))


def quadratic_shift(k: int, ell: int, nu: int) -> int:
    """Integer value of ((2k+1) nu^2 + (2k - 2 ell + 1) nu) / 2, one nu at a
    time, apart from the row kernel the library reads its alphas from.

    The numerator is congruent to nu^2 + nu = nu (nu + 1) mod 2, so it is
    even and the halving is exact for every integer k, ell and nu.
    """
    return ((2 * k + 1) * nu * nu + (2 * k - 2 * ell + 1) * nu) // 2


def chain_alpha_by_series(relative: str, k: int, ell: int, n: int, trunc) -> QSeries:
    """alpha_n of the chain pair of ``relative`` below ``trunc``, as the
    series the library built before its alphas became int maps: the signed
    lattice terms by ``QSeries.from_terms``, for relative 1 each at e and
    e + 2n, for relative q times the polynomial 1 + q + ... + q^(2n) by a
    series product."""
    sign = lambda nu: -1 if nu % 2 else 1  # noqa: E731
    if relative == "one":
        base = (k + 1) * n * n - n
        terms = [(base - quadratic_shift(k, ell, nu) + i, sign(nu) * c)
                 for nu in range(-n, n) for i, c in ((0, -1), (2 * n, 1))]
        return QSeries.from_terms(terms, trunc)
    base = (k + 1) * n * n + k * n
    lattice = QSeries.from_terms(
        [(base - quadratic_shift(k, ell, nu), sign(nu)) for nu in range(-n, n + 1)], trunc)
    return lattice * QSeries.from_dense([1] * (2 * n + 1), INF)


def decoded_betas(pair, n_max: int, trunc) -> list[QSeries]:
    """beta_0 .. beta_(n_max) of ``pair`` as QSeries below ``trunc``,
    decoded from one TruncatedRing.sums pass over ``pair.betas``."""
    t = Fraction(trunc)
    build = lambda ring: list(pair.betas(ring, n_max))  # noqa: E731
    return [QSeries(coeffs, 1, t) for coeffs in TruncatedRing.sums(int_slots(t), build)]


def over_one_minus(series: QSeries, s: int) -> QSeries:
    """series / (1 - q^s), s >= 1, for integer exponents >= 0 below its
    trunc: the dense recurrence c_e += c_(e-s)."""
    out = [series.coeff(e) for e in range(max(0, math.ceil(series.trunc)))]
    for e in range(s, len(out)):
        out[e] += out[e - s]
    return QSeries({e: c for e, c in enumerate(out) if c}, 1, series.trunc)


def limit_identity_by_products(pair, relative: str, kind: str, trunc):
    """The report of :func:`qmaass.bailey.verify_limiting_identity`, both
    sides summed term by term over series products by one rule: the right
    side's terms are (-1)^n q^power(n) alpha_n, divided by (1 - q^(s n))
    for relative 1; its sum is multiplied by (1 - q) for relative q, and
    halved for the even identity for relative q, whose two sides are
    averaged each on its own, at the top max(ceil(trunc) + settle, first)
    of the pair's own settle.  It reads beta as QSeries through
    :func:`decoded_betas`, never through ``chain_sum``.  It has no guard:
    a beta that still moves at the top gives a wrong sum here, not a named
    index."""
    t = Fraction(trunc)
    params = {"relative": relative, "kind": kind, "label": pair.label, "trunc": _exact_str(t)}
    s, _, power = LIMIT_WEIGHTS[relative, kind]

    def alphas(n_max: int, trunc):
        return (QSeries(pair.alpha(n, int_slots(trunc)), 1, trunc) for n in range(n_max + 1))

    def rhs_at(n: int, alpha: QSeries) -> QSeries:
        term = (alpha if power is None else alpha.shift(power(n))).truncate(t)
        if relative == "one":  # n >= first = 1, so s n >= 1
            term = over_one_minus(term, s * n)
        return -term if n % 2 else term

    def betas(n_max: int, trunc):
        return decoded_betas(pair, n_max, trunc)

    lhs = _limit_sum(relative, kind, betas,
                     lambda n, b: weighted_term(relative, kind, n, b, t), t, pair.settle)
    rhs = _limit_sum(relative, kind, alphas, rhs_at, t, pair.settle)
    if relative == "q":
        rhs = ((QSeries.one(t) - QSeries.monomial(1, 1, t)) * rhs).truncate(t)
        if kind == "even":
            rhs = rhs.scale(Fraction(1, 2))
    return report_from_comparison("bailey_limit_identity", params, lhs, rhs)
