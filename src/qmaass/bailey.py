"""Bailey-pair machinery.

A Bailey pair relative to ``a`` (here ``a`` is 1 or ``q``) is a pair of
sequences ``(alpha_n, beta_n)`` of q-series tied together by

    beta_n = sum_{m=0}^{n} alpha_m / ((q;q)_{n-m} (a q; q)_{n+m}).

This module provides the relation sweep (every beta_n the relation
forces, in one packed ring) and the verifier built on it, the two
explicit pairs built from the chain polynomials of
:mod:`qmaass.agpolys`, random finite-support pairs for property testing,
and truncation-level verification of the four limit identities obtained
by summing a pair against classical weight sequences.  Those weights live
in one table, :data:`LIMIT_WEIGHTS`, and every sum weighted by them is
one :func:`chain_sum` in a packed ring: both sides of each identity
here, and the four series families of :mod:`qmaass.families`, which are
the left sides on the chain pairs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import reduce
from itertools import count

from .agpolys import _walk, check_chain_params
from .reports import CheckReport, Record, _exact_str, report_from_comparison
from .series import (
    QSeries,
    QSeriesError,
    TruncatedRing,
    choice_arg,
    finite_trunc,
    int_arg,
    int_slots,
    positive_trunc,
)

RELATIVES = ("one", "q")
IDENTITY_KINDS = ("gauss", "even")


def quadratic_shift(k: int, ell: int, nu: int) -> int:
    """Integer value of ((2k+1) nu^2 + (2k - 2 ell + 1) nu) / 2.

    The numerator is congruent to nu^2 + nu = nu (nu + 1) mod 2, so it is
    even and the halving is exact for every integer k, ell and nu.
    """
    return ((2 * k + 1) * nu * nu + (2 * k - 2 * ell + 1) * nu) // 2


class BaileyPair(Record):
    """A Bailey pair: its relative parameter, the two sequences, and where
    beta settles.

    ``alpha`` maps ``(n, size)`` to the nonzero terms of alpha_n below
    x^size, {exponent: int coefficient}, the map a packed ring encodes;
    each check reads every alpha_n it needs once, up front, and encodes
    the same map in both rings of its pass.  ``betas`` maps ``(ring, n_max)`` to
    beta_0, ..., beta_(n_max) as values of the caller's
    :class:`~qmaass.series.TruncatedRing` or its majorant twin, below x^T, T =
    ``ring.horizon``, so that each check sums beta in the one
    :meth:`~qmaass.series.PackedRing.packed` pass that holds its other side:
    a chain pair takes one chain walk to n_max, a synthetic pair its own
    relation sweep, and a unit pair multiplies two inverse Pochhammers for
    each n.

    ``settle`` is a promise about beta: below every x^T, beta_n is one
    series from n = T - 1 + ``settle`` on.  Each constructor proves its
    own: 0 for a chain pair (the chain walk is constant from T - 1 on,
    :func:`~qmaass.agpolys._walk`) and a unit pair (beta_n - beta_(n-1)
    has order >= n), and the largest index S of a synthetic pair's support
    (order >= n - S).  :func:`limit_top` turns it into the top of the
    averaged limit identity, which checks the promise at top + 1, on beta
    and on alpha.

    So a synthetic pair's definition check (:func:`verify_pair`) compares
    the sweep with itself and passes by construction.  That stays: its
    beta has no definition but the relation, a beta from the direct double
    sum would cost about 15 ms per pair, and the synthetic pairs are there
    to test the limit identities, which sum beta on one side and alpha on
    the other.

    A map with an exponent that is not an int in [0, size), or a
    coefficient that is not an int, raises :class:`QSeriesError` in the
    check that reads it (:func:`_alpha_maps`).
    """

    def __init__(self, relative: str, alpha: Callable[[int, int], dict],
                 betas: Callable[[object, int], Iterable[int]], label: str = "",
                 settle: int = 0) -> None:
        self.__dict__.update(relative=choice_arg(relative, "relative", RELATIVES), alpha=alpha,
                             betas=betas, label=label, settle=int_arg(settle, "settle", 0))


def _sweep(ring, alphas: list, d: int) -> list:
    """The sums sum_{m<=n} alpha_m / ((q;q)_{n-m} (aq;q)_{n+m}) in ``ring``
    on the int maps ``alphas`` of alpha_0 .. alpha_(n_max).  A nonzero
    alpha_m enters at n = m, divided by the 2m factors of (aq;q)_{2m}.
    Each step n -> n+1 divides every term by (1 - x^(n+1-m)) and
    (1 - x^(n+1+m+d)), d = 0 for relative 1 and 1 for relative q; a
    division at or past the horizon is the identity."""
    terms, sums = [], []
    for n, alpha in enumerate(alphas):
        terms = [(m, ring.divide(ring.divide(a, n - m), n + m + d)) for m, a in terms]
        if alpha:
            a = ring.encode(alpha)
            for e in range(1 + d, 2 * n + 1 + d):
                a = ring.divide(a, e)
            terms.append((n, a))
        sums.append(sum(a for _, a in terms))
    return sums


def _alpha_maps(alpha, n_max, size: int) -> list:
    """alpha(n, size) for n = 0, ..., n_max, read once, up front;
    QSeriesError unless n_max is an int >= 0 and each map has int
    exponents in [0, size) and int coefficients."""
    maps = [alpha(n, size) for n in range(int_arg(n_max, "n_max", 0) + 1)]
    for m in maps:
        if m and ({*map(type, m), *map(type, m.values())} != {int} or min(m) < 0 or max(m) >= size):
            raise QSeriesError("a Bailey sum reads alpha_n as int coefficients at int exponents in [0, size)")
    return maps


def relation_sums(pair: BaileyPair, n_max: int, trunc) -> list[QSeries]:
    """The relation sums for n = 0, ..., n_max below the finite ``trunc``,
    from one :func:`_sweep` in Z[x]/(x^T), T = ceil(trunc), on the alpha
    maps below x^T, sized by one twin pass and decoded
    (:meth:`~qmaass.series.PackedRing.sums`).  Equal neighbouring sums are
    one series."""
    t = finite_trunc(trunc)
    size = int_slots(t)
    alphas, d = _alpha_maps(pair.alpha, n_max, size), RELATIVES.index(pair.relative)
    out = []
    for coeffs in TruncatedRing.sums(size, lambda ring: _sweep(ring, alphas, d)):
        out.append(out[-1] if out and out[-1]._coeffs == coeffs else QSeries._from_clean(coeffs, 1, t))
    return out


def verify_pair(pair: BaileyPair, n_max: int, trunc) -> CheckReport:
    """Check the defining relation for every n <= n_max below trunc: beta_n
    and the :func:`_sweep` sum on the alpha maps below x^T, T =
    ceil(trunc), for every n, in one
    :meth:`~qmaass.series.PackedRing.packed` pass, equal when their
    difference is 0 in the ring.  Only a failure is decoded, to name n, the
    first exponent that differs and both coefficients there."""
    t = positive_trunc(trunc)
    size = int_slots(t)
    alphas, d = _alpha_maps(pair.alpha, n_max, size), RELATIVES.index(pair.relative)
    params = {"relative": pair.relative, "label": pair.label, "n_max": n_max, "trunc": _exact_str(t)}
    ring, values = TruncatedRing.packed(size, lambda ring: [*pair.betas(ring, n_max), *_sweep(ring, alphas, d)])
    for n, (lhs, rhs) in enumerate(zip(values, values[n_max + 1:])):
        if (lhs - rhs) % ring.modulus:
            lhs, rhs = ring.decode(lhs), ring.decode(rhs)
            bad = min(e for e, _ in lhs.items() ^ rhs.items())
            return CheckReport("bailey_pair_definition", params, "fail", {
                "n": n, "first_mismatch_exponent": _exact_str(bad),
                "beta_coeff": _exact_str(lhs.get(bad, 0)), "definition_coeff": _exact_str(rhs.get(bad, 0))})
    return CheckReport("bailey_pair_definition", params, "pass", {})


# ------------------------------------------------------------- explicit pairs


def _lattice_alpha(size: int, k: int, ell: int, base: int, nus: range, factor: list) -> dict:
    """The nonzero terms below x^size of the sum over nu in ``nus`` of
    (-1)^nu x^(base - quadratic_shift(k, ell, nu)) times the polynomial
    ``factor``, its (exponent, coefficient) terms in rising exponent: one
    pass over the product terms, stopping each nu at x^size."""
    out = {}
    for nu in nus:
        low, sign = base - quadratic_shift(k, ell, nu), -1 if nu % 2 else 1
        for i, c in factor:
            if low + i >= size:
                break
            out[low + i] = out.get(low + i, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def pair_relative_one(k: int, ell: int) -> BaileyPair:
    """The chain-polynomial Bailey pair relative to 1.

    ``beta_n`` is the chain polynomial with offset 1 (zero at n = 0) and
    ``alpha_n`` is an explicit signed lattice polynomial times -(1 - q^{2n}),
    which makes ``alpha_0`` vanish as well.
    """
    check_chain_params(k, ell)

    def alpha(n: int, size: int) -> dict:
        return _lattice_alpha(size, k, ell, (k + 1) * n * n - n, range(-n, n), [(0, -1), (2 * n, 1)])

    def betas(ring, n_max: int) -> list:
        return [0, *_walk(ring, k, ell, 1, n_max)[1:]]

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
    check_chain_params(k, ell)

    def alpha(n: int, size: int) -> dict:
        geometric = [(i, 1) for i in range(2 * n + 1)]
        return _lattice_alpha(size, k, ell, (k + 1) * n * n + k * n, range(-n, n + 1), geometric)

    def betas(ring, n_max: int) -> list:
        return _walk(ring, k, ell, 0, n_max)

    return BaileyPair(
        relative="q",
        alpha=alpha,
        betas=betas,
        label=f"chain(k={k},ell={ell},relative=q)",
    )


#: The chain pair of each relative parameter, by (k, ell).
CHAIN_PAIRS = {"one": pair_relative_one, "q": pair_relative_q}


def unit_pair(relative: str) -> BaileyPair:
    """The pair with alpha = (1, 0, 0, ...) and beta_n forced by the relation.

    Each beta_n = 1 / ((q;q)_n (aq;q)_n) is built on its own in the
    caller's ring, as 1 divided by the n factors of each Pochhammer, so
    that :func:`verify_pair` compares the relation sweep with a second
    route; a running pass would repeat the sweep's divisions of alpha_0.
    """
    d = RELATIVES.index(choice_arg(relative, "relative", RELATIVES))

    def alpha(n: int, size: int) -> dict:
        return {0: 1} if n == 0 < size else {}

    def betas(ring, n_max: int) -> list:
        return [ring.mul(*(reduce(ring.divide, range(1 + s, n + 1 + s), 1) for s in (0, d)))
                for n in range(n_max + 1)]

    return BaileyPair(relative=relative, alpha=alpha, betas=betas, label=f"unit({relative})")


def synthetic_pair(relative: str, rng) -> BaileyPair:
    """A random pair: alpha_m a nonzero integer in -9..9 at 1 to 5 indices
    m < 8 and zero elsewhere, beta from the relation, settling at the
    largest index of the support (:class:`BaileyPair`).

    For relative 1 the support excludes index 0, keeping alpha_0 = beta_0 = 0;
    the limit identities that sum from n = 1 silently ignore the 0-index
    entries on one side only, so nonzero 0-index entries would break them.
    """
    lowest = 1 if choice_arg(relative, "relative", RELATIVES) == "one" else 0
    support = {}
    for i in rng.sample(range(lowest, 8), rng.randint(1, 5)):
        value = 0
        while value == 0:
            value = rng.randint(-9, 9)
        support[i] = value

    def alpha(n: int, size: int) -> dict:
        return {0: support[n]} if n in support and size > 0 else {}

    def betas(ring, n_max: int) -> list:
        return _sweep(ring, [alpha(n, ring.horizon) for n in range(n_max + 1)], RELATIVES.index(relative))

    label = "synthetic({},{})".format(
        relative, ",".join(f"{i}:{support[i]}" for i in sorted(support))
    )
    return BaileyPair(relative, alpha, betas, label, settle=max(support))


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


def chain_sum(ring, weights: tuple, chains: list, top: int):
    """2 sum_(first <= n < top) t_n + t_top in ``ring``, t_n = (-1)^n
    x^power(n) (x^s; x^s)_(n - first) chains[n] for the
    :data:`LIMIT_WEIGHTS` entry (s, first, power), by
    :meth:`~qmaass.series.PackedRing.pochhammer_sum`.  Half of it is the
    sum if t_n vanishes from ``top`` on, and exactly the even/odd average
    of the partial sums if t_n is (-1)^n times one value from ``top`` on;
    below a truncation, :func:`limit_top` proves where that is."""
    s, first, power = weights
    terms = []
    for n in range(first, top + 1):
        t = ring.rot(chains[n], 0 if power is None else power(n)) * (1 if n == top else 2)
        terms.append(ring.sub(0, t) if n % 2 else t)
    return ring.pochhammer_sum(terms, s)


def limit_top(weights: tuple, size: int, settle: int = 0) -> int:
    """The top at which :func:`chain_sum` with the :data:`LIMIT_WEIGHTS`
    entry (s, first, power) is exactly twice the limit sum below x^size,
    on chains that settle ``settle`` past size - 1 (:class:`BaileyPair`).

    With a power, the first n with power(n) >= size: every term from there
    on vanishes.  With none, max(size + settle, first).  From there on the
    chain is constant mod x^size, and so is (x^s; x^s)_(n - first), whose
    next factor is 1 - x^(s (n + 1 - first)); and alpha_n vanishes mod
    x^size for every built-in pair (order >= n for a chain pair, zero past
    the support otherwise).  So both sides' terms are (-1)^n times one
    value from the top on, and the sum is the even/odd average of the
    partial sums.  Every limit sum takes its top from here: both sides of
    :func:`verify_limiting_identity` and the families of
    :mod:`qmaass.families`, on the chain pairs' settle 0.
    """
    _, first, power = weights
    if power is None:
        return max(size + settle, first)
    return next(n for n in count(first) if power(n) >= size)


def verify_limiting_identity(pair: BaileyPair, relative: str, kind: str, trunc) -> CheckReport:
    """Verify one of the four limit identities on a pair, below trunc.

    The identity is selected by ``(relative, kind)``, and its weights are
    read from :data:`LIMIT_WEIGHTS`: ``gauss`` weights carry the triangular
    power q^{n(n+1)/2}; ``even`` weights use (q^2;q^2) Pochhammers.
    ``relative`` must match the pair's own relative parameter.

    Both sides are one :func:`chain_sum` each, in one Z[x]/(x^T), T =
    ceil(trunc), sized by one majorant pass
    (:meth:`~qmaass.series.PackedRing.packed`) that also holds beta: the
    left side over beta_n, the right side over the alpha maps below x^T with
    no Pochhammer weight, as (x^T; x^T)_m is 1 there.  The identity holds
    when (halves / 2) lhs - rhs is 0 in the ring, halves 4 for the ``even``
    identity for relative q and 2 otherwise; only a failure is decoded.
    Both stop at the one proven top of :func:`limit_top`: the first n with
    power(n) >= T, past which every term vanishes, or for the ``even``
    identity for relative q, which has no decaying weight, T +
    ``pair.settle``.  That identity reads beta and
    alpha one index further, and fails, naming that index
    (``unsettled_n`` for beta, ``unsettled_alpha_n`` for alpha) and the
    first exponent that moved, unless beta_(top + 1) = beta_top and
    alpha_(top + 1) = alpha_top below x^T; both differences are taken in
    the same pass and tested the same way.  Every alpha map read must pass
    :func:`_alpha_maps`.  The relative-1 identities sum from n = 1, so they
    raise :class:`QSeriesError` on alpha_0 or beta_0 not 0 below x^T.
    """
    choice_arg(relative, "relative", RELATIVES)
    choice_arg(kind, "kind", IDENTITY_KINDS)
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
    size = int_slots(t)
    weights = s, first, power = LIMIT_WEIGHTS[relative, kind]
    top = limit_top(weights, size, pair.settle)
    # With a power, the terms at top vanish below x^T and are padded as 0;
    # with none, beta and alpha are read at top + 1, where they must repeat.
    end = top - 1 if power else top + 1
    alphas = _alpha_maps(pair.alpha, end, size)
    pad, refused = [0] * (top - end), "an identity from n = 1 needs {} = 0"
    if first and alphas[0]:
        raise QSeriesError(refused.format("alpha_0"))

    def build(ring) -> list:
        betas = [*pair.betas(ring, end), *pad]
        terms = [ring.encode(m) if m else 0 for m in alphas[first:]]
        if relative == "one":
            terms = [ring.divide(a, s * n) for n, a in enumerate(terms, first)]
        lhs = chain_sum(ring, weights, betas, top)
        rhs = chain_sum(ring, (size, first, power), [0] * first + terms + pad, top)  # s = T: no Pochhammer
        out = [lhs, ring.sub(rhs, ring.rot(rhs, 1)) if relative == "q" else rhs, betas[0] * first]
        return out if power else [*out, ring.sub(betas[-1], betas[-2]), ring.sub(terms[-1], terms[-2])]

    ring, (lhs, rhs, beta_0, *moved) = TruncatedRing.packed(size, build)
    if beta_0 % ring.modulus:
        raise QSeriesError(refused.format("beta_0"))
    for key, diff in zip(("unsettled_n", "unsettled_alpha_n"), moved):
        if diff % ring.modulus:
            return CheckReport("bailey_limit_identity", params, "fail", {
                key: top + 1, "first_mismatch_exponent": _exact_str(min(ring.decode(diff)))})
    halves = 4 if (relative, kind) == ("q", "even") else 2
    if (halves // 2 * lhs - rhs) % ring.modulus == 0:
        return CheckReport("bailey_limit_identity", params, "pass")
    return report_from_comparison(
        "bailey_limit_identity",
        params,
        QSeries({e: Fraction(c, 2) for e, c in ring.decode(lhs).items()}, 1, t),
        QSeries({e: Fraction(c, halves) for e, c in ring.decode(rhs).items()}, 1, t),
    )
