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
in one table, :data:`LIMIT_WEIGHTS`, and both sides of every identity are
summed by one rule over :class:`~qmaass.series.QSeries` products.  The
four series families of :mod:`qmaass.families` are the left sides of the
four identities on the chain pairs, summed from the same table in a
packed ring instead (:func:`qmaass.families.chain_sum`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count, islice
from typing import Callable, Iterable, Iterator

from .agpolys import ag_polynomials
from .reports import CheckReport, _exact_str, report_from_comparison
from .series import (
    INF,
    QSeries,
    QSeriesError,
    _divide_dense,
    averaging_budget,
    dense_int_coeffs,
    finite_trunc,
    int_slots,
    inverse_pochhammer,
    pochhammer,
    positive_trunc,
    stabilized_sum,
)

RELATIVES = ("one", "q")
IDENTITY_KINDS = ("gauss", "even")

#: Pochhammer flavour of the second denominator factor (a q; q)_m.
_SECOND_FACTOR = {"one": "q", "q": "q2;q"}


def quadratic_shift(k: int, ell: int, nu: int) -> int:
    """Integer value of ((2k+1) nu^2 + (2k - 2 ell + 1) nu) / 2.

    The numerator is congruent to nu^2 + nu = nu (nu + 1) mod 2, so it is
    even and the halving is exact for every integer k, ell and nu.
    """
    return ((2 * k + 1) * nu * nu + (2 * k - 2 * ell + 1) * nu) // 2


def _validate_pair_params(k, ell) -> None:
    if not (isinstance(k, int) and isinstance(ell, int)):
        raise QSeriesError("chain-pair parameters must be integers")
    if not 1 <= ell <= k:
        raise QSeriesError("chain-pair parameters need 1 <= ell <= k")


@dataclass(frozen=True)
class BaileyPair:
    """A Bailey pair: its relative parameter and the two sequences.

    ``alpha`` maps ``(n, trunc)`` to alpha_n, a :class:`QSeries`; the
    built-in constructors memoize it.  ``betas`` maps ``(n_max, trunc)`` to
    beta_0, ..., beta_(n_max) in one pass, which nothing keeps after the
    check that asked: a chain pair takes one chain walk to n_max, a unit
    pair yields its products of inverse Pochhammers one by one, and a
    synthetic pair reads the first n_max + 1 sums of its own
    :func:`relation_sums` sweep.

    So a synthetic pair's definition check (:func:`verify_pair`) compares
    the sweep with itself and passes by construction.  That stays: its
    beta has no definition but the relation, a beta from the direct double
    sum would cost about 15 ms per pair, and the synthetic pairs are there
    to test the limit identities, which sum beta on one side and alpha on
    the other.

    The relation sums read alpha as a dense list, so every alpha_n must
    have integer exponents >= 0 below trunc (all built-in pairs have int
    coefficients and such exponents); any other alpha raises
    :class:`QSeriesError` there.
    """

    relative: str
    alpha: Callable[[int, object], QSeries]
    betas: Callable[[int, object], Iterable[QSeries]]
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
    t = positive_trunc(trunc)
    params = {
        "relative": pair.relative,
        "label": pair.label,
        "n_max": n_max,
        "trunc": _exact_str(t),
    }
    for n, (lhs, rhs) in enumerate(zip(pair.betas(n_max, t), relation_sums(pair, t))):
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

    def betas(n_max: int, trunc) -> list[QSeries]:
        return [QSeries.zero(trunc), *ag_polynomials(k, ell, 1, n_max, trunc)[1:]]

    return BaileyPair(
        relative="one",
        alpha=alpha,
        betas=betas,
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

    def betas(n_max: int, trunc) -> list[QSeries]:
        return ag_polynomials(k, ell, 0, n_max, trunc)

    return BaileyPair(
        relative="q",
        alpha=alpha,
        betas=betas,
        label=f"chain(k={k},ell={ell},relative=q)",
    )


#: The chain pair of each relative parameter, by (k, ell).
CHAIN_PAIRS = {"one": pair_relative_one, "q": pair_relative_q}


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

    def betas(n_max: int, trunc) -> Iterator[QSeries]:
        for n in range(n_max + 1):
            out = inverse_pochhammer("q", n, trunc) * inverse_pochhammer(second, n, trunc)
            yield out.truncate(trunc)

    return BaileyPair(
        relative=relative, alpha=alpha, betas=betas, label=f"unit({relative})"
    )


def synthetic_pair(relative: str, rng) -> BaileyPair:
    """A random pair: alpha_m a nonzero integer in -9..9 at 1 to 5 indices
    m < 8 and zero elsewhere, beta from the relation.

    For relative 1 the support excludes index 0, keeping alpha_0 = beta_0 = 0;
    the limit identities that sum from n = 1 silently ignore the 0-index
    entries on one side only, so nonzero 0-index entries would break them.
    """
    if relative not in RELATIVES:
        raise QSeriesError(f"relative must be one of {RELATIVES}")
    lowest = 1 if relative == "one" else 0
    support = {}
    for i in rng.sample(range(lowest, 8), rng.randint(1, 5)):
        value = 0
        while value == 0:
            value = rng.randint(-9, 9)
        support[i] = value

    @lru_cache(maxsize=None)
    def alpha(n: int, trunc) -> QSeries:
        return QSeries.monomial(support.get(n, 0), 0, trunc)

    def betas(n_max: int, trunc) -> Iterator[QSeries]:
        return islice(relation_sums(pair, trunc), n_max + 1)

    label = "synthetic({},{})".format(
        relative, ",".join(f"{i}:{support[i]}" for i in sorted(support))
    )
    pair = BaileyPair(relative=relative, alpha=alpha, betas=betas, label=label)
    return pair


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
    shift = 0 if power is None else power(n)
    # Terms of beta at or above trunc - shift land at or above trunc, so
    # beta is cut there first; the Pochhammer keeps trunc, the one cut its
    # cache holds.
    term = pochhammer("q" if s == 1 else "q2", n - first, trunc) * beta.truncate(trunc - shift)
    if shift:
        term = term.shift(shift)
    term = term.truncate(trunc)
    return -term if n % 2 else term


def _limit_sum(relative: str, kind: str, values, term, trunc) -> QSeries:
    """The sum of term(n, v_n) over n >= first for the limit identity
    ``(relative, kind)``, below trunc, with v_0, v_1, ... read in one pass
    from ``values(n_max, trunc)``.

    With a decaying weight the sum stops before the first n with
    q^power(n) at or above trunc: ``power(n)`` is a provable lower bound for
    the order the weight alone contributes.  The two terms past the cut
    must vanish below trunc, a guard against values of negative order.
    Without one (first = 0) the sum is the even/odd average of partial
    sums, :func:`stabilized_sum` over its term budget, which stops once the
    average is seen to settle.
    """
    _, first, power = LIMIT_WEIGHTS[relative, kind]
    if power is None:
        n_max = averaging_budget(trunc)
    else:
        n_max = next(n for n in count(first) if power(n) >= trunc) + 1
    terms = (term(n, v) for n, v in enumerate(values(n_max, trunc)) if n >= first)
    if power is None:
        return stabilized_sum(terms, trunc)
    *kept, probe, next_probe = terms
    if not (probe.is_zero() and next_probe.is_zero()):
        raise QSeriesError("limit-identity term re-entered below trunc past the cutoff")
    return sum(kept, QSeries.zero(trunc))


def verify_limiting_identity(pair: BaileyPair, relative: str, kind: str, trunc) -> CheckReport:
    """Verify one of the four limit identities on a pair, below trunc.

    The identity is selected by ``(relative, kind)``, and its weights are
    read from :data:`LIMIT_WEIGHTS`: ``gauss`` weights carry the triangular
    power q^{n(n+1)/2}; ``even`` weights use (q^2;q^2) Pochhammers.
    ``relative`` must match the pair's own relative parameter.  Both sides
    are summed by the same rule; the ``even`` identity for relative q has
    no decaying weight on either side, so both are averaged.
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
    t = positive_trunc(trunc)
    params = {
        "relative": relative,
        "kind": kind,
        "label": pair.label,
        "trunc": _exact_str(t),
    }
    s, _, power = LIMIT_WEIGHTS[relative, kind]

    def alphas(n_max: int, trunc) -> Iterator[QSeries]:
        return (pair.alpha(n, trunc) for n in range(n_max + 1))

    def rhs_at(n: int, alpha: QSeries) -> QSeries:
        term = alpha if power is None else alpha.shift(power(n))
        term = term.truncate(t)
        if relative == "one":  # n >= first = 1, so s n >= 1
            out = dense_int_coeffs(term, int_slots(t))
            _divide_dense(out, 1, s * n)
            term = QSeries({e: c for e, c in enumerate(out) if c}, 1, t)
        return -term if n % 2 else term

    beta_at = partial(weighted_term, relative, kind, trunc=t)
    lhs = _limit_sum(relative, kind, pair.betas, beta_at, t)
    rhs = _limit_sum(relative, kind, alphas, rhs_at, t)
    if relative == "q":
        one_minus_q = QSeries.one(t) - QSeries.monomial(1, 1, t)
        rhs = (one_minus_q * rhs).truncate(t)
        if kind == "even":
            rhs = rhs.scale(Fraction(1, 2))

    return report_from_comparison("bailey_limit_identity", params, lhs, rhs)
