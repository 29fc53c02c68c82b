"""The four chain-weighted series families and their companion series.

Everything here is exact: truncated integer-coefficient series, integer
coefficient tables, and cyclotomic root-of-unity values.

* Every family is a limit-identity left side
  (:data:`qmaass.bailey.LIMIT_WEIGHTS`) on chain values, summed by
  :func:`qmaass.bailey.chain_sum` in a packed ring: :func:`family_series`
  over Z[x]/(x^T) for the :class:`Family` records of :data:`FAMILIES`,
  :func:`qmaass.maass.quantum_value` over Z[x]/(x^N - 1).
* :func:`sigma_series` / :func:`sigma_star_series` give the two classical
  partial-theta companions in all their representations; their integer
  tables are read off their lattices (Cohen's M = 5 lattice, family 4's).
* :func:`_lattice_row` enumerates the points below a truncation, row by
  row, for every exact lattice sum: :func:`negative_part_series` (the
  companion sum over its cone) and :mod:`qmaass.theta`'s.
* :func:`kz_root_value`, :func:`u_root_value`, :func:`verify_kz_duality`
  evaluate the Kontsevich-Zagier-type finite sums at roots of unity and
  check the duality between them.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .agpolys import _walk, check_chain_params
from .bailey import LIMIT_WEIGHTS, chain_sum, limit_top
from .cyclotomic import CycNumber, CyclicRing, check_root_order, root_sums
from .reports import CheckReport, Record, report_from_condition
from .series import QSeries, TruncatedRing, choice_arg, finite_trunc, int_arg, int_slots

__all__ = [
    "FAMILIES",
    "Family",
    "family_series",
    "kz_root_value",
    "negative_part_series",
    "sigma_coefficients",
    "sigma_series",
    "sigma_star_coefficients",
    "sigma_star_series",
    "u_root_value",
    "verify_kz_duality",
]

SIGMA_REPS = ("pochhammer", "alternating", "averaged", "indefinite")
SIGMA_STAR_REPS = ("odd-pochhammer", "alternating")


def _validate_family(j: int, k: int, ell: int) -> None:
    int_arg(j, "family index", 1, len(FAMILIES))
    check_chain_params(k, ell)


# ------------------------------------------------------------- the 4 families


def _affine(coeffs: tuple, *xs: int) -> int:
    """The affine form ``coeffs`` at ``xs``: (2, -2, 1) at (k, ell) is 2k - 2ell + 1."""
    return sum(map(operator.mul, coeffs, xs), coeffs[-1])


class Family(Record):
    """Everything family-specific about one series family, as data.

    Forms are affine in k (``M``, ``a1``, ``b``) or in n (shell points); see
    :func:`_affine`.

    * The family is ``sum_scale`` times the left side of the limit identity
      ``identity`` of :data:`qmaass.bailey.LIMIT_WEIGHTS` on the chain
      polynomials with boundary bit :attr:`first`.
    * Its theta series, at M, a = (a1 / (2(M + 1)), (2k - 2ell + 1) / (4k + 2))
      and b = (1 / b[0], 1 / b[1]), is ``theta_scale * q^Q(a) * F(q^power)``.
    * Validation derives the shifts (s1, s2) and the pairing from a and b
      by the conditions of :func:`qmaass.theta.validate_params`, which
      Cohen's lattice :data:`qmaass.theta.COHEN_LATTICE` passes too.
    * Shell n >= first of the lattice expansion has, for each (m, mult) in
      ``shell_parts`` and -n <= nu <= n - first, the term
      mult (-1)^(n + nu) / shell_denom at q^((Q(a + (m(n), nu)) - Q(a)) / power).
    """

    def __init__(self, identity: tuple[str, str], sum_scale: int, theta_scale: int, M: tuple,
                 a1: tuple, b: tuple, shell_parts: tuple, shell_denom: int) -> None:
        self.__dict__.update(
            identity=identity, sum_scale=sum_scale, theta_scale=theta_scale, M=M, a1=a1, b=b,
            shell_parts=shell_parts, shell_denom=shell_denom,
        )

    @property
    def power(self) -> int:  # the identity's s: the family is a series in q^s
        return LIMIT_WEIGHTS[self.identity][0]

    @property
    def first(self) -> int:  # the identity's first index
        return LIMIT_WEIGHTS[self.identity][1]


# Each comment is the family's sum, on the chain polynomials H_n.
FAMILIES = {
    # sum over n >= 0 of (q)_n (-1)^n q^(n(n+1)/2) H_n
    1: Family(("q", "gauss"), sum_scale=1, theta_scale=1, M=(2, 2), a1=(2, 1),
              b=((4, 6), (4, 2)), shell_parts=(((1, 0), 1), ((-1, -1), -1)), shell_denom=1),
    # sum over n >= 0 of (q^2;q^2)_n (-1)^n H_n
    2: Family(("q", "even"), sum_scale=1, theta_scale=2, M=(4, 3), a1=(4, 0),
              b=((8, 8), (8, 4)), shell_parts=(((1, 0), 1), ((-1, -1), -1)), shell_denom=2),
    # sum over n >= 1 of (q)_(n-1) (-1)^n q^(n(n+1)/2) H_n
    3: Family(("one", "gauss"), sum_scale=1, theta_scale=-1, M=(2, 2), a1=(0, -1),
              b=((4, 6), (4, 2)), shell_parts=(((1, 0), -1), ((-1, 0), -1)), shell_denom=1),
    # sum over n >= 1 of (-1;q)_n (q)_(n-1) (-q)^n H_n, twice the sum with
    # (q^2;q^2)_(n-1) in place of (-1;q)_n (q)_(n-1); a1 = 0 merges m = n and -n
    4: Family(("one", "even"), sum_scale=2, theta_scale=-1, M=(4, 3), a1=(0, 0),
              b=((8, 8), (8, 4)), shell_parts=(((1, 0), -2),), shell_denom=1),
}


def _truncated_chain_sum(weights: tuple, k: int, ell: int, t: Fraction) -> dict:
    """:func:`chain_sum` below ``t`` over Z[x]/(x^T), T = ceil(t), on the
    chain polynomials with boundary bit ``first``, to the proven top of
    :func:`~qmaass.bailey.limit_top` at settle 0: the chain polynomials
    are constant mod x^T from T - 1 on (:func:`~qmaass.agpolys._walk`)."""
    first = weights[1]
    size = int_slots(t)
    top = limit_top(weights, size)
    (coeffs,) = TruncatedRing.sums(
        size, lambda ring: [chain_sum(ring, weights, _walk(ring, k, ell, first, top), top)])
    return coeffs


def family_series(j: int, k: int, ell: int, trunc) -> QSeries:
    """Exact expansion of family ``j`` with parameters ``(k, ell)``: the sum
    its :data:`FAMILIES` record names, ``sum_scale`` times the limit-identity
    left side on its chain polynomials, which is half their
    :func:`chain_sum` over Z[x]/(x^T); for family 2, whose sum converges
    only as the even/odd average of its partial sums, exactly that average.
    """
    _validate_family(j, k, ell)
    fam = FAMILIES[j]
    t = finite_trunc(trunc)
    coeffs = _truncated_chain_sum(LIMIT_WEIGHTS[fam.identity], k, ell, t)
    return QSeries({e: Fraction(c * fam.sum_scale, 2) for e, c in coeffs.items()}, 1, t)


# ------------------------------------------------------- classical companions


def sigma_series(rep: str, trunc) -> QSeries:
    """One of the four representations of the first classical companion.

    ``pochhammer``   sum over n >= 0 of q^(n(n+1)/2) / (-q;q)_n, a
                     running term times x^n / (1 + x^n) per n,
    ``alternating``  1 + sum over n >= 0 of (-1)^n q^(n+1) (q;q)_n, one
                     Horner pass of
                     :meth:`~qmaass.series.PackedRing.pochhammer_sum`,
    ``averaged``     2 * averaged partial sums of (-1)^n (q;q)_n, the
                     :func:`chain_sum` of weights (1, 0, None) at k = 1,
    ``indefinite``   :func:`sigma_coefficients`, the theta series of
                     :data:`~qmaass.theta.COHEN_LATTICE` read at q^2.

    All four agree coefficient-for-coefficient below ``trunc``.
    """
    choice_arg(rep, "rep", SIGMA_REPS)
    t = finite_trunc(trunc)
    size = int_slots(t)
    if size <= 0:
        return QSeries.zero(t)
    if rep == "averaged":
        return QSeries._from_clean(_truncated_chain_sum((1, 0, None), 1, 1, t), 1, t)
    if rep == "indefinite":
        return QSeries.from_dense(sigma_coefficients(size - 1), t)
    if rep == "pochhammer":
        def build(ring) -> list:
            total = term = 1
            for n in itertools.takewhile(lambda n: n * (n + 1) // 2 < size, itertools.count(1)):
                term = ring.rot(ring.divide(term, n, -1), n)
                total += term
            return [total]
    else:
        def build(ring) -> list:
            terms = (ring.rot(1, n + 1) for n in range(size - 1))
            return [1 + ring.pochhammer_sum([ring.sub(0, a) if n % 2 else a for n, a in enumerate(terms)])]
    (coeffs,) = TruncatedRing.sums(size, build)
    return QSeries._from_clean(coeffs, 1, t)


def sigma_coefficients(n_max: int) -> list:
    """Integer coefficients 0..n_max of sigma, read off the theta series of
    :data:`~qmaass.theta.COHEN_LATTICE`, which is q^(1/12) sigma(q^2)."""
    from .theta import COHEN_LATTICE, indefinite_theta_series

    size = int_arg(n_max, "n_max", 0) + 1
    theta = indefinite_theta_series(COHEN_LATTICE, Fraction(1, 12) + 2 * size)
    out = [0] * size
    for e, c in theta._coeffs.items():  # e / denom = 1/12 + 2m
        out[e // (2 * theta.denom)] = c
    return out


def sigma_star_series(rep: str, trunc) -> QSeries:
    """One of the two representations of the second classical companion.

    ``odd-pochhammer``  2 * sum over n >= 1 of (-1)^n q^(n^2) / (q;q^2)_n,
                        a running term times -x^c / (1 - x^c), c = 2n - 1,
    ``alternating``     -2 * sum over n >= 0 of q^(n+1) (q^2;q^2)_n, one
                        Horner pass of
                        :meth:`~qmaass.series.PackedRing.pochhammer_sum`.

    Both agree below ``trunc``; the leading term is -2q.
    """
    choice_arg(rep, "rep", SIGMA_STAR_REPS)
    t = finite_trunc(trunc)
    size = int_slots(t)
    if size <= 0:
        return QSeries.zero(t)
    if rep == "odd-pochhammer":
        def build(ring) -> list:
            total, term = 0, 1
            for n in itertools.takewhile(lambda n: n * n < size, itertools.count(1)):
                term = ring.sub(0, ring.rot(ring.divide(term, 2 * n - 1), 2 * n - 1))
                total += term
            return [2 * total]
    else:
        def build(ring) -> list:
            terms = [ring.rot(1, n + 1) for n in range(size - 1)]
            return [2 * ring.sub(0, ring.pochhammer_sum(terms, 2))]
    (coeffs,) = TruncatedRing.sums(size, build)
    return QSeries._from_clean(coeffs, 1, t)


def sigma_star_coefficients(n_max: int) -> list:
    """Integer coefficients 0..n_max of sigma*, which is minus family 4 at
    (1, 1) with q -> -q: -(-1)^m times the m-th entry of its lattice table."""
    from .theta import _lattice_table

    fourth, _ = _lattice_table(4, 1, 1, int_arg(n_max, "n_max", 0) + 1)  # shell_denom 1: integers
    return [c if m & 1 else -c for m, c in enumerate(fourth)]


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
            yield nus, itertools.accumulate(steps, initial=start - (square * nu * nu + linear * nu) // 2)


# ---------------------------------------------------------------- negative part


def negative_part_series(M: int, ell: int, trunc, region: str = "cone"):
    """Companion sum over the cone ``|X| < |Y|`` of a two-variable lattice.

    With ``X = 2(M+1)n + M - 1`` and ``Y = 2(M-1)v + M - 1 - 2*ell``, each
    pair ``(n, v)`` in the cone contributes ``(-1)^(n+v)`` at exponent
    ``((M+1) Y^2 - (M-1) X^2) / (8 (M+1) (M-1))``.  Inside the cone that
    exponent is at least ``Y^2 / (4 (M^2-1))``, so enumeration below
    ``trunc`` is finite and complete, and every exponent is positive.
    ``region`` accepts only ``"cone"``.

    Returns ``(series, diagnostics)`` where diagnostics record the region,
    the ``v`` window searched, the anomalous (non-positive exponent) terms
    (always none), the count of cone points at or above ``trunc`` and the
    count kept.
    """
    int_arg(M, "M", 2)
    int_arg(ell, "ell", 1)
    choice_arg(region, "region", ("cone",))
    t = finite_trunc(trunc)
    denom = 8 * (M + 1) * (M - 1)
    c = M - 1 - 2 * ell

    # |Y| <= y_bound covers every in-cone term below trunc.
    y_bound = math.isqrt(4 * (M * M - 1) * max(1, math.ceil(t))) + 2 * (M - 1)
    lo, hi = -((y_bound + c) // (2 * (M - 1))), (y_bound - c) // (2 * (M - 1))

    # (M+1) Y^2 - (M-1) X^2 = start - (square n^2 + linear n) / 2 in row v
    square, linear, top = 8 * (M - 1) * (M + 1) ** 2, 8 * (M - 1) ** 2 * (M + 1), math.ceil(t * denom)
    coeffs: dict[int, int] = {}
    admitted = kept = 0
    for nu in range(lo, hi + 1):
        y = abs(2 * (M - 1) * nu + c)
        # the cone: -|Y| < 2(M+1)n + M - 1 < |Y|
        n_lo, n_hi = (-y - (M - 1)) // (2 * (M + 1)) + 1, -((M - 1 - y) // (2 * (M + 1))) - 1
        admitted += max(0, n_hi - n_lo + 1)
        for ns, exps in _lattice_row(square, linear, (M + 1) * y * y - (M - 1) ** 3, top, n_lo, n_hi):
            kept += len(ns)
            for e, sign in zip(exps, itertools.cycle((-1, 1) if (ns.start + nu) & 1 else (1, -1))):
                coeffs[e] = coeffs.get(e, 0) + sign
    g = math.gcd(denom, *coeffs)
    return QSeries({e // g: s for e, s in coeffs.items()}, denom // g, t), {
        "region": region,
        "nu_window": (lo, hi),
        "anomalous_terms": [],
        "dropped_above_trunc": admitted - kept,
        "terms_in_series": kept,
    }


# ----------------------------------------------- root-of-unity finite sums


def kz_root_value(k: int, ell: int, N: int) -> CycNumber:
    """Exact value at the primitive N-th root of unity of the finite sum

        q^k * sum over (n_1,...,n_k) >= 0 of
            (q)_(n_k) q^(n_1^2+...+n_(k-1)^2 + n_ell+...+n_(k-1))
            * prod_(j=1..k-1) binom(n_(j+1) + [j == ell-1], n_j).

    The Pochhammer factor kills n_k >= N and the binomials force
    n_j <= n_(j+1) + 1, so the sum is finite.  It is summed level by
    level in Z[x]/(x^N - 1): ``inner[m]`` is the sum over n_1..n_j with
    n_(j+1) = m, and N bounds every n_j (one bump at most).  Each level is one
    pass of :meth:`~qmaass.series.PackedRing.binomial_sums` with g = p = v, as
    [m choose v] = [(m - v) + v choose m - v].
    """
    check_chain_params(k, ell)
    check_root_order(N)

    def build(ring):
        inner = [1] * (N + 1)
        for j in range(1, k):
            bump = 1 if j == ell - 1 else 0
            by_g = {v: [(v, ring.rot(t, v * v + (v if j >= ell else 0)))]
                    for v, t in enumerate(inner)}
            inner = ring.binomial_sums(by_g, len(inner) - 1)[bump:]
        return [ring.rot(ring.pochhammer_sum(inner[:N]), k)]

    return CycNumber.from_powers(N, root_sums(N, build)[0])


def u_root_value(k: int, ell: int, N: int) -> CycNumber:
    """Exact value of the dual finite sum at the inverse root ``q = zeta_N^(-1)``:

        q^(-k) * sum over n >= 1 of q^n (q)_(n-1)^2 H_n(k, ell; b=1),

    which terminates because (q)_(n-1) vanishes at roots of unity for
    n - 1 >= N.  It is summed in Z[x]/(x^N - 1) at x = q and mapped to
    q = zeta_N^(-1) at the end, by the passes of
    :func:`~qmaass.maass.quantum_value` over H_0..H_N.
    """
    check_chain_params(k, ell)
    check_root_order(N)

    def weigh(ring, chains):  # the term of n is (q)_(n-1)^2 times chains[n] q^(n - k)
        return ring.pochhammer_sum([ring.rot(chains[n], n - k) for n in range(1, N + 1)], reps=2)

    total = CyclicRing.weighted_sum(N, lambda ring: _walk(ring, k, ell, 1, N), weigh)
    return CycNumber.from_powers(N, {-e: c for e, c in total.items()})


def verify_kz_duality(k: int, ell: int, N: int) -> CheckReport:
    """The root-of-unity value of the forward sum equals the dual sum's."""
    lhs = kz_root_value(k, ell, N)
    rhs = u_root_value(k, ell, N)
    return report_from_condition(
        "kz_duality",
        {"k": k, "ell": ell, "N": N},
        lhs == rhs,
        {"lhs": lhs.to_json_dict(), "rhs": rhs.to_json_dict()},
    )
