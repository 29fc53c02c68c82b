"""The four chain-weighted series families and their companion series.

Everything here is exact: truncated integer-coefficient series, integer
coefficient tables, and cyclotomic root-of-unity values.

* :func:`family_series` builds the four families as the left sides of the
  four Bailey limit identities on the chain polynomials (the weights of
  :data:`qmaass.bailey.LIMIT_WEIGHTS`, picked by the :class:`Family`
  records of :data:`FAMILIES`), with certified even/odd averaging for the
  conditionally convergent family 2.
* :func:`sigma_series` / :func:`sigma_star_series` give the two classical
  partial-theta companions in all their representations, plus fast integer
  coefficient tables for large ranges.
* :func:`negative_part_series` enumerates the experimental companion sum
  whose printed region produces anomalous terms; those are quarantined in a
  diagnostics structure, never silently dropped.
* :func:`kz_root_value`, :func:`u_root_value`, :func:`verify_kz_duality`
  evaluate the Kontsevich-Zagier-type finite sums at roots of unity and
  check the duality between them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .agpolys import _int_slots, ag_polynomial_sweep, ag_polynomials_at_root
from .bailey import LIMIT_WEIGHTS, _require_finite, weighted_term
from .cyclotomic import CycNumber, binomials_at_root, check_root_order, cyclic_add, cyclic_mul
from .reports import CheckReport, report_from_condition
from .series import QSeries, QSeriesError, inverse_pochhammer, pochhammer, stabilized_sum

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
    if j not in FAMILIES:
        raise QSeriesError(f"family index must be in 1..{len(FAMILIES)}, got {j!r}")
    if not (isinstance(k, int) and k >= 1):
        raise QSeriesError(f"k must be a positive integer, got {k!r}")
    if not (isinstance(ell, int) and 1 <= ell <= k):
        raise QSeriesError(f"ell must satisfy 1 <= ell <= k, got {ell!r}")


# ------------------------------------------------------------- the 4 families


def _affine(coeffs: tuple, *xs: int) -> int:
    """The affine form ``coeffs`` at ``xs``: (2, -2, 1) at (k, ell) is 2k - 2ell + 1."""
    return sum(map(operator.mul, coeffs, xs), coeffs[-1])


@dataclass(frozen=True)
class Family:
    """Everything family-specific about one series family, as data.

    Forms are affine in k (``M``, ``a1``, ``b``), in (k, ell) (``shifts``,
    ``pairing``) or in n (shell points); see :func:`_affine`.

    * The family is ``sum_scale`` times the left side of the limit identity
      ``identity`` of :data:`qmaass.bailey.LIMIT_WEIGHTS` on the chain
      polynomials with boundary bit :attr:`first`.
    * Its theta series, at M, a = (a1 / (2(M + 1)), (2k - 2ell + 1) / (4k + 2))
      and b = (1 / b[0], 1 / b[1]), is ``theta_scale * q^Q(a) * F(q^power)``.
    * Validation checks (M, a, b) against: a1 - a2 in (window, window + 1);
      g(a) + s1 (1, 1) = a* and g(a*) + s2 (1, 1) = a for the automorph g
      and ``shifts`` (s1, s2), or g(a) + s1 (1, 1) = a for (s1, None); and
      B(a, (-1, -1)) = ``pairing``.
    * Shell n >= first of the lattice expansion has, for each (m, mult) in
      ``shell_parts`` and -n <= nu <= n - first, the term
      mult (-1)^(n + nu) / shell_denom at q^((Q(a + (m(n), nu)) - Q(a)) / power).
    """

    identity: tuple[str, str]
    sum_scale: int
    theta_scale: int
    M: tuple
    a1: tuple
    b: tuple
    window: int
    shifts: tuple
    pairing: tuple
    shell_parts: tuple
    shell_denom: int

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
              b=((4, 6), (4, 2)), window=0, shifts=((-2, 1, -1), (0, 1, 0)), pairing=(0, -1, 0),
              shell_parts=(((1, 0), 1), ((-1, -1), -1)), shell_denom=1),
    # sum over n >= 0 of (q^2;q^2)_n (-1)^n H_n
    2: Family(("q", "even"), sum_scale=1, theta_scale=2, M=(4, 3), a1=(4, 0),
              b=((8, 8), (8, 4)), window=0, shifts=((-4, 2, -1), (0, 2, -1)), pairing=(0, -2, 1),
              shell_parts=(((1, 0), 1), ((-1, -1), -1)), shell_denom=2),
    # sum over n >= 1 of (q)_(n-1) (-1)^n q^(n(n+1)/2) H_n
    3: Family(("one", "gauss"), sum_scale=1, theta_scale=-1, M=(2, 2), a1=(0, -1),
              b=((4, 6), (4, 2)), window=-1, shifts=((-1, 1, 0), (-1, 1, -1)), pairing=(1, -1, 1),
              shell_parts=(((1, 0), -1), ((-1, 0), -1)), shell_denom=1),
    # sum over n >= 1 of (-1;q)_n (q)_(n-1) (-q)^n H_n, twice the sum with
    # (q^2;q^2)_(n-1) in place of (-1;q)_n (q)_(n-1); a1 = 0 merges m = n and -n
    4: Family(("one", "even"), sum_scale=2, theta_scale=-1, M=(4, 3), a1=(0, 0),
              b=((8, 8), (8, 4)), window=-1, shifts=((-2, 2, -1), None), pairing=(2, -2, 1),
              shell_parts=(((1, 0), -2),), shell_denom=1),
}


def family_series(j: int, k: int, ell: int, trunc) -> QSeries:
    """Exact expansion of family ``j`` with parameters ``(k, ell)``: the sum
    its :data:`FAMILIES` record names.  Family 2's sum converges only
    through even/odd averaging of partial sums; the averaging runs under a
    certified tail bound (order >= 2N at step N) that is checked against
    every observed increment.
    """
    _validate_family(j, k, ell)
    t = _require_finite(trunc)
    size = _int_slots(t)
    if size <= 0:
        return QSeries.zero(t)
    fam = FAMILIES[j]
    _, first, power = LIMIT_WEIGHTS[fam.identity]
    sweep = itertools.islice(ag_polynomial_sweep(k, ell, first, t), first, None)
    if power is None:
        terms = (weighted_term(*fam.identity, n, h, t) for n, h in sweep)
        total = stabilized_sum(
            terms, t, n_bound=2 * size + 8, tail_order=lambda n: 2 * n
        )
    else:
        total = QSeries.zero(t)
        for n, h in sweep:
            if power(n) >= t:
                break
            total = total + weighted_term(*fam.identity, n, h, t)
    return total.scale(fam.sum_scale)


# ------------------------------------------------------- classical companions


def sigma_series(rep: str, trunc) -> QSeries:
    """One of the four representations of the first classical companion.

    ``pochhammer``   sum over n >= 0 of q^(n(n+1)/2) / (-q;q)_n,
    ``alternating``  1 + sum over n >= 0 of (-1)^n q^(n+1) (q;q)_n,
    ``averaged``     2 * averaged partial sums of (-1)^n (q;q)_n,
    ``indefinite``   sum over n >= 0, |v| <= n of
                     (-1)^(n+v) q^(n(3n+1)/2 - v^2) (1 - q^(2n+1)).

    All four agree coefficient-for-coefficient below ``trunc``.
    """
    t = _require_finite(trunc)
    size = _int_slots(t)
    if size <= 0:
        return QSeries.zero(t)
    if rep == "pochhammer":
        total = QSeries.zero(t)
        for n in itertools.count(0):
            e = n * (n + 1) // 2
            if e >= t:
                break
            total = total + inverse_pochhammer("-q", n, t).shift(e)
        return total
    if rep == "alternating":
        total = QSeries.one(t)
        for n in itertools.count(0):
            if n + 1 >= t:
                break
            term = pochhammer("q", n, t).shift(n + 1)
            total = total + (-term if n % 2 else term)
        return total
    if rep == "averaged":
        def term_at(i: int) -> QSeries:
            p = pochhammer("q", i, t)
            return -p if i % 2 else p

        return stabilized_sum(
            term_at, t, n_bound=2 * size + 8, tail_order=lambda n: 2 * n
        ).scale(2)
    if rep == "indefinite":
        return QSeries.from_dense(sigma_coefficients(size - 1), t)
    raise QSeriesError(f"unknown representation {rep!r}; expected one of {SIGMA_REPS}")


def sigma_coefficients(n_max: int) -> list:
    """Integer coefficients 0..n_max via the indefinite double sum (fast)."""
    if n_max < 0:
        raise QSeriesError("n_max must be nonnegative")
    size = n_max + 1
    out = [0] * size
    for n in itertools.count(0):
        if n * (n + 1) // 2 >= size:
            break
        base = n * (3 * n + 1) // 2
        for nu in range(-n, n + 1):
            e = base - nu * nu
            sgn = -1 if (n + nu) % 2 else 1
            if e < size:
                out[e] += sgn
            e2 = e + 2 * n + 1
            if e2 < size:
                out[e2] -= sgn
    return out


def sigma_star_series(rep: str, trunc) -> QSeries:
    """One of the two representations of the second classical companion.

    ``odd-pochhammer``  2 * sum over n >= 1 of (-1)^n q^(n^2) / (q;q^2)_n,
    ``alternating``     -2 * sum over n >= 0 of q^(n+1) (q^2;q^2)_n.

    Both agree below ``trunc``; the leading term is -2q.
    """
    t = _require_finite(trunc)
    size = _int_slots(t)
    if size <= 0:
        return QSeries.zero(t)
    if rep == "odd-pochhammer":
        total = QSeries.zero(t)
        for n in itertools.count(1):
            e = n * n
            if e >= t:
                break
            term = inverse_pochhammer("q;q2", n, t).shift(e)
            total = total + (-term if n % 2 else term)
        return total.scale(2)
    if rep == "alternating":
        return QSeries.from_dense(sigma_star_coefficients(size - 1), t)
    raise QSeriesError(
        f"unknown representation {rep!r}; expected one of {SIGMA_STAR_REPS}"
    )


def sigma_star_coefficients(n_max: int) -> list:
    """Integer coefficients 0..n_max by dense accumulation of the
    alternating representation (running product updated in place)."""
    if n_max < 0:
        raise QSeriesError("n_max must be nonnegative")
    size = n_max + 1
    poly = [0] * size
    if size > 0:
        poly[0] = 1  # running (q^2;q^2)_n, starting at n = 0
    out = [0] * size
    for n in itertools.count(0):
        shift = n + 1
        if shift >= size:
            break
        for e in range(size - shift):
            if poly[e]:
                out[e + shift] -= 2 * poly[e]
        stride = 2 * (n + 1)
        for e in range(size - 1, stride - 1, -1):
            poly[e] -= poly[e - stride]
    return out


# ------------------------------------------------- experimental negative part


def negative_part_series(
    M: int,
    ell: int,
    trunc,
    region: str = "printed",
    nu_window: tuple | None = None,
):
    """Experimental companion sum over a two-variable lattice region.

    With ``X = 2(M+1)n + M - 1`` and ``Y = 2(M-1)v + M - 1 - 2*ell``, each
    admitted pair ``(n, v)`` contributes ``(-1)^(n+v)`` at exponent
    ``((M+1) Y^2 - (M-1) X^2) / (8 (M+1) (M-1))``.

    ``region`` selects the admission rule:

    * ``"printed"`` — ``|(M+1)n + M-1| < 2 |(M-1)v + M-1-2*ell|``, taken
      literally.  This region contains points with non-positive exponent
      (collected into the diagnostics, never added to the series) and also
      meets every exponent window at arbitrarily large ``|v|``, so a finite
      ``v`` window is required to make the enumeration terminate; enlarging
      the window may add terms.  The data is experimental.
    * ``"cone"`` — ``|X| < |Y|``.  Inside the cone the exponent is at least
      ``Y^2 / (4 (M^2-1))``, so enumeration below ``trunc`` is complete and
      no window is needed; every exponent is positive.

    Returns ``(series, diagnostics)`` where diagnostics record the region,
    the ``v`` window used, the anomalous (non-positive exponent) terms, and
    the count of terms at or above ``trunc``.
    """
    if not (isinstance(M, int) and M >= 2):
        raise QSeriesError(f"M must be an integer >= 2, got {M!r}")
    if not (isinstance(ell, int) and ell >= 1):
        raise QSeriesError(f"ell must be a positive integer, got {ell!r}")
    if region not in ("printed", "cone"):
        raise QSeriesError(f"region must be 'printed' or 'cone', got {region!r}")
    t = _require_finite(trunc)
    denom = 8 * (M + 1) * (M - 1)
    c = M - 1 - 2 * ell

    if nu_window is None:
        # |Y| <= y_bound covers every in-cone term below trunc; the printed
        # region gets a doubled window so near-cone anomalies are surfaced.
        budget = max(1, math.ceil(t))
        y_bound = math.isqrt(4 * (M * M - 1) * budget) + 2 * (M - 1)
        if region == "printed":
            y_bound *= 2
        lo = math.ceil(Fraction(-y_bound - c, 2 * (M - 1)))
        hi = math.floor(Fraction(y_bound - c, 2 * (M - 1)))
    else:
        lo, hi = nu_window
        if lo > hi:
            raise QSeriesError("empty v window")

    coeffs: dict[Fraction, int] = {}
    anomalies = []
    dropped_high = 0
    kept = 0
    for nu in range(lo, hi + 1):
        y = 2 * (M - 1) * nu + c
        if region == "printed":
            radius = abs(y + c)  # equals 2 |(M-1) v + M-1-2*ell|
            # |(M+1) n + (M-1)| < radius
            span = radius - (M - 1)
            n_lo = math.ceil(Fraction(-radius - (M - 1), M + 1))
            n_hi = math.floor(Fraction(span, M + 1))
            candidates = range(n_lo, n_hi + 1)
            admitted = (
                n for n in candidates if abs((M + 1) * n + M - 1) < radius
            )
        else:
            n_lo = math.ceil(Fraction(-abs(y) - (M - 1), 2 * (M + 1)))
            n_hi = math.floor(Fraction(abs(y) - (M - 1), 2 * (M + 1)))
            admitted = (
                n
                for n in range(n_lo, n_hi + 1)
                if abs(2 * (M + 1) * n + M - 1) < abs(y)
            )
        for n in admitted:
            x = 2 * (M + 1) * n + M - 1
            e_num = (M + 1) * y * y - (M - 1) * x * x
            exponent = Fraction(e_num, denom)
            sign = -1 if (n + nu) % 2 else 1
            if exponent <= 0:
                anomalies.append({"n": n, "nu": nu, "exponent": exponent})
            elif exponent < t:
                kept += 1
                coeffs[exponent] = coeffs.get(exponent, 0) + sign
            else:
                dropped_high += 1
    series = QSeries.from_terms(coeffs.items(), t)
    diagnostics = {
        "region": region,
        "nu_window": (lo, hi),
        "anomalous_terms": anomalies,
        "dropped_above_trunc": dropped_high,
        "terms_in_series": kept,
    }
    return series, diagnostics


# ----------------------------------------------- root-of-unity finite sums


def kz_root_value(k: int, ell: int, N: int) -> CycNumber:
    """Exact value at the primitive N-th root of unity of the finite sum

        q^k * sum over (n_1,...,n_k) >= 0 of
            (q)_(n_k) q^(n_1^2+...+n_(k-1)^2 + n_ell+...+n_(k-1))
            * prod_(j=1..k-1) binom(n_(j+1) + [j == ell-1], n_j).

    The Pochhammer factor kills n_k >= N and the binomials force
    n_j <= n_(j+1) + 1, so the sum is finite.  It is summed level by
    level in Z[x]/(x^N - 1): ``inner[m]`` is the sum over n_1..n_j with
    n_(j+1) = m, and N bounds every n_j (one bump at most).
    """
    _validate_family(1, k, ell)
    check_root_order(N)
    binomial = binomials_at_root(N)
    inner = [{0: 1}] * (N + 1)
    for j in range(1, k):
        bump = 1 if j == ell - 1 else 0
        weighted = [
            cyclic_add({}, t, N, shift=v * v + (v if j >= ell else 0))
            for v, t in enumerate(inner)
        ]
        sums = []
        for m in range(len(inner) - bump):
            row: dict = {}
            for v in range(m + bump + 1):
                row = cyclic_add(row, cyclic_mul(binomial(m + bump, v), weighted[v], N), N)
            sums.append(row)
        inner = sums
    total: dict = {}
    poch = {0: 1}  # (q)_(n_k)
    for n_k in range(N):
        total = cyclic_add(total, cyclic_mul(poch, inner[n_k], N), N, shift=k)
        poch = cyclic_add(poch, poch, N, -1, n_k + 1)
    return CycNumber.from_powers(N, total)


def u_root_value(k: int, ell: int, N: int) -> CycNumber:
    """Exact value of the dual finite sum at the inverse root ``q = zeta_N^(-1)``:

        q^(-k) * sum over n >= 1 of q^n (q)_(n-1)^2 H_n(k, ell; b=1),

    which terminates because (q)_(n-1) vanishes at roots of unity for
    n - 1 >= N.  It is summed in Z[x]/(x^N - 1) at x = q and mapped to
    q = zeta_N^(-1) at the end.
    """
    _validate_family(1, k, ell)
    check_root_order(N)
    chains = ag_polynomials_at_root(k, ell, 1, N, N)
    total: dict = {}
    poch = {0: 1}  # (q)_(n-1)
    for n in range(1, N + 1):
        term = cyclic_mul(cyclic_mul(poch, poch, N), chains[n], N)
        total = cyclic_add(total, term, N, shift=n - k)
        poch = cyclic_add(poch, poch, N, -1, n)
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
