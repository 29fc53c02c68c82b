"""Bailey-pair machinery.

A Bailey pair relative to ``a`` (here ``a`` is 1 or ``q``) is a pair of
sequences ``(alpha_n, beta_n)`` of q-series tied together by

    beta_n = sum_{m=0}^{n} alpha_m / ((q;q)_{n-m} (a q; q)_{n+m}).

This module provides the relation sweep :func:`relation_sums` (every
beta_n the relation forces, by in-place divisions) and the verifier built
on it, the two explicit pairs built from the chain polynomials of
:mod:`qmaass.agpolys`, random finite-support pairs for property testing,
and truncation-level verification of the four limit identities obtained
by summing a pair against classical weight sequences.  Those weights live
in one table, :data:`LIMIT_WEIGHTS`; the four series families of
:mod:`qmaass.families` are the left sides of the four identities on the
chain pairs, and both they and their root-of-unity values read it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Callable, Iterator

from .agpolys import ag_polynomial
from .reports import CheckReport, _exact_str, report_from_comparison
from .series import (
    INF,
    QSeries,
    QSeriesError,
    _divide_dense,
    dense_int_coeffs,
    divide_one_minus_power,
    finite_trunc,
    int_slots,
    inverse_pochhammer,
    pochhammer,
    stabilized_sum,
)

RELATIVES = ("one", "q")
IDENTITY_KINDS = ("gauss", "even")

#: Pochhammer flavour of the second denominator factor (a q; q)_m.
_SECOND_FACTOR = {"one": "q", "q": "q2;q"}


def quadratic_shift(k: int, ell: int, nu: int) -> int:
    """Integer value of ((2k+1) nu^2 + (2k - 2 ell + 1) nu) / 2.

    The numerator is always even because nu^2 and nu share parity, so the
    shift is an exact integer; a non-integer value signals corrupted input.
    """
    num = (2 * k + 1) * nu * nu + (2 * k - 2 * ell + 1) * nu
    if num % 2:
        raise QSeriesError("quadratic exponent shift must be an integer")
    return num // 2


def _validate_pair_params(k, ell) -> None:
    if not (isinstance(k, int) and isinstance(ell, int)):
        raise QSeriesError("chain-pair parameters must be integers")
    if not 1 <= ell <= k:
        raise QSeriesError("chain-pair parameters need 1 <= ell <= k")


def _require_positive(trunc) -> Fraction:
    """A finite ``trunc`` > 0: a check below q^0 or lower compares nothing."""
    t = finite_trunc(trunc)
    if t <= 0:
        raise QSeriesError(f"a check needs a positive truncation order, got {_exact_str(t)}")
    return t


@dataclass(frozen=True)
class BaileyPair:
    """A Bailey pair: its relative parameter and the two sequences.

    ``alpha`` and ``beta`` map ``(n, trunc)`` to a :class:`QSeries`.  The
    built-in constructors memoize alpha.  Only the synthetic pairs memoize
    beta: a list per trunc, grown from one :func:`relation_sums` sweep and
    held as long as the pair.  The chain and unit pairs rebuild beta on
    each call (one chain walk, or a product of inverse Pochhammers), which
    the checks seldom repeat.

    The relation sums read alpha as a dense list, so every alpha_n must
    have integer exponents >= 0 below trunc (all built-in pairs have int
    coefficients and such exponents); any other alpha raises
    :class:`QSeriesError` there.
    """

    relative: str
    alpha: Callable[[int, object], QSeries]
    beta: Callable[[int, object], QSeries]
    label: str = ""

    def __post_init__(self) -> None:
        if self.relative not in RELATIVES:
            raise QSeriesError(
                f"relative must be one of {RELATIVES}, got {self.relative!r}"
            )


def relation_sums(pair: BaileyPair, trunc) -> Iterator[QSeries]:
    """Yield the relation sums sum_{m<=n} alpha_m / ((q;q)_{n-m} (aq;q)_{n+m})
    for n = 0, 1, 2, ..., each below the finite ``trunc``.

    A nonzero alpha_m enters at n = m as alpha_m / (aq;q)_{2m}, one series
    product.  Each step n -> n+1 divides every live term in place by
    (1 - q^(n+1-m)) and (1 - q^(n+1+m+d)), d = 0 for relative 1 and 1 for
    relative q.  Once n+1-m reaches T = ceil(trunc) both divisions are the
    identity below q^T, so the term is folded into a shared accumulator
    and never touched again.
    """
    t = finite_trunc(trunc)
    size = int_slots(t)
    second = _SECOND_FACTOR[pair.relative]
    d = 1 if pair.relative == "q" else 0
    frozen = [0] * size
    live: list[tuple[int, list]] = []  # (m, dense term at the current n)
    for n in count():
        still = []
        for m, term in live:
            if n - m >= size:
                frozen[:] = map(operator.add, frozen, term)
                continue
            _divide_dense(term, 1, n - m)
            _divide_dense(term, 1, n + m + d)
            still.append((m, term))
        live = still
        alpha = pair.alpha(n, t)
        if not alpha.is_zero():
            live.append((n, dense_int_coeffs(alpha * inverse_pochhammer(second, 2 * n, t), size)))
        total = frozen
        for _, term in live:
            total = list(map(operator.add, total, term))
        yield QSeries({e: c for e, c in enumerate(total) if c}, 1, t)


def verify_pair(pair: BaileyPair, n_max: int, trunc) -> CheckReport:
    """Check the defining relation for every n <= n_max below trunc."""
    if n_max < 0:
        raise QSeriesError(f"a check needs n_max >= 0, got {n_max}")
    t = _require_positive(trunc)
    params = {
        "relative": pair.relative,
        "label": pair.label,
        "n_max": n_max,
        "trunc": _exact_str(t),
    }
    for n, rhs in zip(range(n_max + 1), relation_sums(pair, t)):
        lhs = pair.beta(n, t)
        bad = lhs.first_mismatch(rhs)
        if bad is not None:
            return CheckReport(
                check="bailey_pair_definition",
                params=params,
                status="fail",
                details={
                    "n": n,
                    "first_mismatch_exponent": _exact_str(bad),
                    "beta_coeff": _exact_str(lhs.coeff(bad)),
                    "definition_coeff": _exact_str(rhs.coeff(bad)),
                },
            )
    return CheckReport(
        check="bailey_pair_definition", params=params, status="pass", details={}
    )


# ------------------------------------------------------------- explicit pairs


def pair_relative_one(k: int, ell: int) -> BaileyPair:
    """The chain-polynomial Bailey pair relative to 1.

    ``beta_n`` is the chain polynomial with offset 1 (zero at n = 0) and
    ``alpha_n`` is an explicit signed lattice polynomial; the factor
    (1 - q^{2n}) makes ``alpha_0`` vanish as well.
    """
    _validate_pair_params(k, ell)

    @lru_cache(maxsize=None)
    def alpha(n: int, trunc) -> QSeries:
        if n == 0:
            return QSeries.zero(trunc)
        base = (k + 1) * n * n - n
        terms = []
        for nu in range(-n, n):
            sign = -1 if nu % 2 else 1
            e = base - quadratic_shift(k, ell, nu)
            terms.append((e, -sign))
            terms.append((e + 2 * n, sign))
        return QSeries.from_terms(terms, trunc)

    def beta(n: int, trunc) -> QSeries:
        if n == 0:
            return QSeries.zero(trunc)
        return ag_polynomial(k, ell, 1, n, trunc)

    return BaileyPair(
        relative="one",
        alpha=alpha,
        beta=beta,
        label=f"chain(k={k},ell={ell},relative=one)",
    )


def pair_relative_q(k: int, ell: int) -> BaileyPair:
    """The chain-polynomial Bailey pair relative to q.

    ``beta_n`` is the chain polynomial with offset 0 and ``alpha_n``
    carries the geometric prefactor (1 - q^{2n+1})/(1 - q), expanded as
    the exact polynomial 1 + q + ... + q^{2n}.
    """
    _validate_pair_params(k, ell)

    @lru_cache(maxsize=None)
    def alpha(n: int, trunc) -> QSeries:
        base = (k + 1) * n * n + k * n
        terms = []
        for nu in range(-n, n + 1):
            sign = -1 if nu % 2 else 1
            terms.append((base - quadratic_shift(k, ell, nu), sign))
        lattice = QSeries.from_terms(terms, INF)
        prefactor = QSeries.from_dense([1] * (2 * n + 1), INF)
        return (lattice * prefactor).truncate(trunc)

    def beta(n: int, trunc) -> QSeries:
        return ag_polynomial(k, ell, 0, n, trunc)

    return BaileyPair(
        relative="q",
        alpha=alpha,
        beta=beta,
        label=f"chain(k={k},ell={ell},relative=q)",
    )


def unit_pair(relative: str) -> BaileyPair:
    """The pair with alpha = (1, 0, 0, ...) and beta_n forced by the relation."""
    if relative not in RELATIVES:
        raise QSeriesError(f"relative must be one of {RELATIVES}")
    second = _SECOND_FACTOR[relative]

    @lru_cache(maxsize=None)
    def alpha(n: int, trunc) -> QSeries:
        if n == 0:
            return QSeries.one(trunc)
        return QSeries.zero(trunc)

    def beta(n: int, trunc) -> QSeries:
        out = inverse_pochhammer("q", n, trunc) * inverse_pochhammer(
            second, n, trunc
        )
        return out.truncate(trunc)

    return BaileyPair(
        relative=relative, alpha=alpha, beta=beta, label=f"unit({relative})"
    )


def synthetic_pair(
    relative: str,
    rng,
    max_support: int = 5,
    index_range: int = 8,
    coeff_bound: int = 9,
) -> BaileyPair:
    """A random pair: finite-support integer alpha, beta from the relation.

    For relative 1 the support excludes index 0, keeping alpha_0 = beta_0 = 0;
    the limit identities that sum from n = 1 silently ignore the 0-index
    entries on one side only, so nonzero 0-index entries would break them.
    """
    if relative not in RELATIVES:
        raise QSeriesError(f"relative must be one of {RELATIVES}")
    lowest = 1 if relative == "one" else 0
    indices = rng.sample(
        range(lowest, index_range), rng.randint(1, max_support)
    )
    support = {}
    for i in indices:
        value = 0
        while value == 0:
            value = rng.randint(-coeff_bound, coeff_bound)
        support[i] = value

    @lru_cache(maxsize=None)
    def alpha(n: int, trunc) -> QSeries:
        return QSeries.monomial(support.get(n, 0), 0, trunc)

    placeholder = BaileyPair(
        relative=relative, alpha=alpha, beta=alpha, label="_partial"
    )
    sums: dict = {}  # trunc -> (its relation sweep, the betas drawn from it)

    def beta(n: int, trunc) -> QSeries:
        t = finite_trunc(trunc)
        entry = sums.get(t)
        if entry is None:
            entry = sums[t] = (relation_sums(placeholder, t), [])
        sweep, values = entry
        while len(values) <= n:
            values.append(next(sweep))
        return values[n]

    label = "synthetic({},{})".format(
        relative, ",".join(f"{i}:{support[i]}" for i in sorted(support))
    )
    return BaileyPair(relative=relative, alpha=alpha, beta=beta, label=label)


# ------------------------------------------------------------ limit identities


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def _linear(n: int) -> int:
    return n


#: The four limit identities, keyed by ``(relative, kind)``.  An entry
#: ``(s, first, power)`` makes the left side the sum over n >= first of
#:
#:     (-1)^n q^power(n) (q^s; q^s)_(n - first) beta_n,
#:
#: and the right side the same sum with alpha_n in place of
#: (q^s; q^s)_(n - first) beta_n, divided termwise by (1 - q^(s n)) for
#: relative 1 and multiplied by (1 - q) for relative q (and halved for
#: ``even``).  ``power`` None means no decaying weight: such a sum is
#: taken by even/odd averaging of its partial sums.
LIMIT_WEIGHTS = {
    ("one", "gauss"): (1, 1, _triangle),
    ("one", "even"): (2, 1, _linear),
    ("q", "gauss"): (1, 0, _triangle),
    ("q", "even"): (2, 0, None),
}


def weighted_term(relative: str, kind: str, n: int, beta: QSeries, trunc) -> QSeries:
    """The n-th left-side term (-1)^n q^power(n) (q^s;q^s)_(n-first) beta,
    truncated below trunc, of the limit identity ``(relative, kind)``."""
    s, first, power = LIMIT_WEIGHTS[relative, kind]
    term = pochhammer((1, s, s), n - first, trunc) * beta
    if power is not None:
        term = term.shift(power(n))
    term = term.truncate(trunc)
    return -term if n % 2 else term


def _sum_weighted_terms(term_at, first: int, power, trunc) -> QSeries:
    """Plain sum of term_at(n) for n >= first, cut off where q^power(n) closes it.

    ``power(n)`` is a provable lower bound for the order contributed by
    the weight sequence alone; summation stops once it reaches trunc.  Two
    probe terms past the cutoff guard against sequences that violate the
    nonnegative-order assumption the cutoff relies on.
    """
    total = QSeries.zero(trunc)
    n = first
    while power(n) < trunc:
        total = total + term_at(n)
        n += 1
    for probe in (n, n + 1):
        lo = term_at(probe).min_order()
        if lo is not None and lo < trunc:
            raise QSeriesError(
                "limit-identity term re-entered below trunc past the cutoff"
            )
    return total.truncate(trunc)


def verify_limiting_identity(
    pair: BaileyPair,
    relative: str,
    kind: str,
    trunc,
    n_bound: int = 600,
) -> CheckReport:
    """Verify one of the four limit identities on a pair, below trunc.

    The identity is selected by ``(relative, kind)``, and its weights are
    read from :data:`LIMIT_WEIGHTS`: ``gauss`` weights carry the triangular
    power q^{n(n+1)/2}; ``even`` weights use (q^2;q^2) Pochhammers.
    ``relative`` must match the pair's own relative parameter.  The
    ``even`` identity for relative q has no decaying weight on either
    side, so both sides are summed with stabilized averaging.
    """
    if relative not in RELATIVES:
        raise QSeriesError(f"relative must be one of {RELATIVES}")
    if kind not in IDENTITY_KINDS:
        raise QSeriesError(f"kind must be one of {IDENTITY_KINDS}")
    if pair.relative != relative:
        raise QSeriesError(
            f"pair is relative {pair.relative!r} but the requested "
            f"identity needs relative {relative!r}"
        )
    t = _require_positive(trunc)
    params = {
        "relative": relative,
        "kind": kind,
        "label": pair.label,
        "trunc": _exact_str(t),
    }
    s, first, power = LIMIT_WEIGHTS[relative, kind]

    def lhs_at(n: int) -> QSeries:
        return weighted_term(relative, kind, n, pair.beta(n, t), t)

    def rhs_at(n: int) -> QSeries:
        term = pair.alpha(n, t)
        if power is not None:
            term = term.shift(power(n))
        term = term.truncate(t)
        if relative == "one":
            term = divide_one_minus_power(term, s * n)
        return -term if n % 2 else term

    if power is None:
        lhs = stabilized_sum(lhs_at, t, n_bound=n_bound)
        rhs = stabilized_sum(rhs_at, t, n_bound=n_bound)
    else:
        lhs = _sum_weighted_terms(lhs_at, first, power, t)
        rhs = _sum_weighted_terms(rhs_at, first, power, t)
    if relative == "q":
        one_minus_q = QSeries.one(t) - QSeries.monomial(1, 1, t)
        rhs = (one_minus_q * rhs).truncate(t)
        if kind == "even":
            rhs = rhs.scale(Fraction(1, 2))

    return report_from_comparison("bailey_limit_identity", params, lhs, rhs)
