"""Chain polynomials and the bounded-frequency partition oracle.

The central objects are integer-coefficient polynomials indexed by
``(k, ell, b, n)``: sums over weakly increasing integer chains
``0 <= n_1 <= ... <= n_{k-1} <= n`` where each chain contributes a power of
``q`` quadratic in the chain values times a product of Gaussian binomials
whose entries are linear in the chain.  Reversing such a polynomial
(``q -> 1/q`` plus a monomial shift) reproduces the generating function of
partitions with bounded part sizes and bounded adjacent-frequency sums; the
:func:`verify_ag_relation` check certifies that match coefficient by
coefficient.  ``ag`` names the Andrews-Gordon family of partition identities
this construction generalizes.

One walk computes them, over merged chain states and parameterised by its
ring (:func:`_walk`).  Over the packed truncated ring Z[x]/(x^T) it gives
the polynomials for n = 0..n_max below a truncation, or whole
(:func:`ag_polynomials`, :func:`ag_polynomial`); the root-of-unity values
of :mod:`qmaass.families` and :mod:`qmaass.maass` run it over the packed
cyclic ring Z[x]/(x^N - 1), where its states merge by q-Lucas
(:meth:`~qmaass.series.PackedRing.weighted_sum`).  The partition oracle
(:func:`ag_generating`) runs its own DP over the same packed truncated
ring.
"""

from __future__ import annotations

from itertools import accumulate

from .reports import CheckReport, Record, report_from_comparison
from .series import INF, L1Bound, QSeries, QSeriesError, TruncatedRing, finite_trunc, int_arg, int_slots

__all__ = [
    "PartitionConstraint",
    "ag_generating",
    "ag_polynomial",
    "ag_polynomials",
    "verify_ag_relation",
]


def check_chain_params(k: int, ell: int) -> None:
    """QSeriesError unless k >= 1 and 1 <= ell <= k are ints: the rule for
    the chain parameters of every chain sum, pair and family."""
    int_arg(ell, "ell", 1, int_arg(k, "k", 1))


def _degree_bound(k: int, b: int, n_max: int) -> int:
    """D = (k-1) n_max (n_max + 1 - b), the degree bound of the polynomials
    up to n_max; :func:`ag_polynomials` proves it for each one it returns."""
    return (k - 1) * n_max * (n_max + 1 - b)


def _walk(ring, k: int, ell: int, b: int, n_max: int) -> list:
    """The chain polynomials for n = 0..n_max as elements of ``ring``, from
    one walk over the chains.

    Each layer keeps one sum per chain state (n_j, acc), as the later
    factors read only n_j and g_j = acc - b*j, and takes no product: the
    states of one acc join a series in z at z^(n_j), whose z^v term after
    one pass of the ring's :meth:`~qmaass.series.PackedRing.binomial_sums`
    holds their factors [v - n_j + g_j choose v - n_j].  A layer stops at
    the first n_j whose weight n_j^2 + (1-b) n_j reaches the ring's horizon
    and drops the states whose sum is 0; the last is one pass over every
    acc.  Below a finite horizon T its series stops changing at n = T - 1:
    [s+g choose s] is constant mod x^T from s = T - 1 on, and a chain's
    weight is at least its n_(k-1).

    With a ``period`` N and n_max <= N the states merge by q-Lucas (Sagan,
    Adv. Math. 95, 1992): at a primitive N-th root, [s+g choose s] with
    s < N depends on g only mod N.  A state is keyed by acc while acc < k
    and by k + (acc - k) mod N from then on, so a layer has at most N + k
    accs.  acc >= k keeps every later g >= 0 (b*j < k) and needs n_j >= 1
    (at n_j = 0, acc counts only the bumps, fewer than k), so every later
    step v - n_j is below n_max <= N.  With n_max > N a step from n_j = 1
    reaches s = N, where [N+g choose N] = 1 + floor(g/N) reads more of g
    than g mod N: no merge.
    """
    # the weights n_j^2 + (1-b) n_j below the horizon, increasing in n_j <= n_max
    weights = [w for v in range(n_max + 1) if (w := v * (v + 1 - b)) < ring.horizon]
    N = ring.period if ring.period and n_max <= ring.period else None  # merge mod N
    layer = {0: [(0, 1)]} if weights else {}  # acc -> [(n_j, sum)]
    for j in range(k - 1):
        step: dict = {}
        for acc, terms in layer.items():
            if acc >= b * j:
                series = ring.binomial_sums({acc - b * j: terms}, len(weights) - 1)
                for v, a in enumerate(series):
                    if a and (r := ring.rot(a, weights[v])):
                        step.setdefault(acc + 2 * v + (j + 1 < ell), []).append((v, r))
        layer = step
        if N:
            layer = {}
            for acc, terms in step.items():
                layer.setdefault(acc if acc < k else k + (acc - k) % N, []).extend(terms)
    base = b * (k - 1)
    end = min(n_max, max(ring.horizon - 1, 0))
    series = ring.binomial_sums({acc - base: terms for acc, terms in layer.items() if acc >= base}, end)
    return series + series[-1:] * (n_max - end)


def ag_polynomials(k: int, ell: int, b: int, n_max: int, trunc=INF) -> list[QSeries]:
    """The chain polynomials for n = 0..n_max, exact below ``trunc`` (default:
    whole), from one walk over the packed ring Z[x]/(x^T).

    A finite ``trunc`` takes T = ceil(trunc) slots; the polynomials are then
    constant from n = T - 1 on.  ``INF`` takes T = D + 1 with D the degree
    bound of :func:`_degree_bound`, and proves that nothing was dropped:
    every coefficient is >= 0, so the walk with x -> 1 and no horizon gives
    each polynomial at q = 1, which its coefficients must sum to.  Equal
    consecutive polynomials share one :class:`QSeries`.
    """
    return _chain_polynomials(k, ell, b, int_arg(n_max, "n_max", 0), trunc)


def _chain_polynomials(k: int, ell: int, b: int, n_max: int, trunc, first: int = 0) -> list:
    """Entries first..n_max of :func:`ag_polynomials`, the only ones decoded.
    Whole polynomials are sized by L1Bound over their degree bound, and
    their q = 1 totals prove that no term lies above it."""
    check_chain_params(k, ell)
    int_arg(b, "b", 0, 1)
    if trunc != INF:
        return TruncatedRing.series(trunc, lambda ring: _walk(ring, k, ell, b, n_max)[first:])
    slots = _degree_bound(k, b, n_max) + 1
    sizes = _walk(L1Bound(), k, ell, b, n_max)
    ring = TruncatedRing(slots, L1Bound().bound(sizes))
    out, prev = [], None
    for n, a in enumerate(_walk(ring, k, ell, b, n_max)[first:], first):
        if a != prev:
            coeffs = ring.decode(a)
            poly, total, prev = QSeries._from_clean(coeffs, 1, INF), sum(coeffs.values()), a
        if total != sizes[n]:
            raise QSeriesError(f"chain polynomial {n} has terms above its degree bound {slots - 1}")
        out.append(poly)
    return out


def ag_polynomial(k: int, ell: int, b: int, n: int, trunc=INF) -> QSeries:
    """One chain polynomial, exact below ``trunc`` (default: the full polynomial).

    The value is the sum over chains ``0 <= n_1 <= ... <= n_{k-1} <= n`` of

        q^(sum_j n_j^2 + (1-b) n_j) * prod_j binom(bottom_j + g_j, bottom_j)

    with ``bottom_j = n_{j+1} - n_j`` (reading ``n_k = n``) and
    ``g_j = -b*j + sum_{r<=j} (2 n_r + [r < ell])``; a chain with any
    ``g_j < 0`` contributes nothing because the binomial vanishes (for
    ``k = 1`` every value is 1): entry n of :func:`ag_polynomials`.
    """
    return _chain_polynomials(k, ell, b, int_arg(n, "n", 0), trunc, n)[0]


class PartitionConstraint(Record):
    """Admission rules for partitions counted by :func:`ag_generating`.

    Writing ``f_j`` for the number of parts equal to ``j``, a partition is
    admitted when all of the following hold:

    * every part is strictly less than ``part_bound``,
    * ``f_1 < first_freq_bound``,
    * ``f_(part_bound-1) < last_freq_bound``,
    * ``f_j + f_(j+1) <= pair_sum_max`` for every ``1 <= j <= part_bound - 2``.

    ``part_bound = 1`` leaves only the empty partition.
    """

    def __init__(self, pair_sum_max: int, first_freq_bound: int, last_freq_bound: int,
                 part_bound: int) -> None:
        fields = dict(pair_sum_max=pair_sum_max, first_freq_bound=first_freq_bound,
                      last_freq_bound=last_freq_bound, part_bound=part_bound)
        for name, value in fields.items():
            int_arg(value, name, 1)
        self.__dict__.update(fields)


def ag_generating(constraint: PartitionConstraint, trunc) -> QSeries:
    """Generating function (by partition size) of the admitted partitions.

    Dynamic programming over part sizes ``1, ..., part_bound - 1``: the state
    is the frequency of the previous size (needed for the adjacent-sum rule),
    and each state holds its partitions' series below the finite ``trunc``
    as one packed value.  The rule reads only the running total of the
    states up to pair_sum_max - f, so f parts of size j are one rotation of
    that total by f j.  The DP runs first over
    :class:`~qmaass.series.L1Bound`: no rotation reaches x^T and every term
    is >= 0, so its total bounds every coefficient, here more tightly than
    the ring's majorant twin.
    """
    trunc = finite_trunc(trunc)
    size = int_slots(trunc)
    npos = constraint.part_bound - 1
    caps = {1: constraint.first_freq_bound - 1}
    caps[npos] = min(caps.get(npos, size), constraint.last_freq_bound - 1)

    def build(ring) -> list:
        states = [1]  # states[f]: the packed series of previous frequency f
        for j in range(1, npos + 1):
            cap, totals = min(caps.get(j, size), (size - 1) // j), [*accumulate(states)]
            # the pair rule f_(j-1) + f_j <= pair_sum_max from j = 2 on
            rule = constraint.pair_sum_max if j > 1 else cap
            last = len(totals) - 1
            states = [ring.rot(totals[min(rule - f, last)], f * j) for f in range(min(cap, rule) + 1)]
        return [sum(states)]

    ring = TruncatedRing(size, L1Bound().bound(build(L1Bound())))
    return QSeries._from_clean(ring.decode(build(ring)[0]), 1, trunc)


def verify_ag_relation(k: int, ell: int, b: int, n: int) -> CheckReport:
    """Certify that the reversed chain polynomial counts the constrained partitions.

    The chain polynomial with top value ``n`` is reversed about
    ``D = (k-1) * n * (n+1-b)`` (coefficient of ``q^e`` moves to ``q^(D-e)``,
    i.e. the substitution ``q -> 1/q`` normalized back to nonnegative powers)
    and compared with the partition generating function for pair-sum bound
    ``k-1``, first-frequency bound ``ell``, last-frequency bound ``k``, and
    part bound ``2n - b + 1``.  Comparison runs beyond the degree bound, so
    a pass means the polynomials agree everywhere.
    """
    poly = ag_polynomial(k, ell, b, n)
    if k < 2:
        raise QSeriesError("the partition comparison needs at least two chain levels (k >= 2)")
    if b == 1 and n == 0:
        raise QSeriesError(
            "no partition side exists for b=1, n=0: the part bound 2n - b + 1 vanishes"
        )
    degree_bound = _degree_bound(k, b, n)
    compare_to = degree_bound + 2
    flipped = QSeries({degree_bound - m: c for m, c in poly._coeffs.items()}, 1, compare_to)
    partitions = ag_generating(
        PartitionConstraint(k - 1, ell, k, 2 * n - b + 1), compare_to
    )
    params = {"k": k, "ell": ell, "b": b, "n": n}
    return report_from_comparison("ag_relation", params, flipped, partitions)
