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

Three evaluators are provided: :func:`ag_polynomial` computes one polynomial
exactly (depth-first over chains), :func:`ag_polynomial_sweep` streams
the whole sequence ``n = 0, 1, 2, ...`` below a fixed truncation in
amortized linear time per step, which is what the series-family code needs
at large truncation orders, and :func:`ag_polynomials_at_root` gives the
values at a root of unity of every n up to a bound from one walk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import binomials_at_root, root_sums
from .reports import CheckReport, report_from_comparison
from .series import INF, QSeries, QSeriesError, dense_int_coeffs, finite_trunc, gaussian_binomial

__all__ = [
    "PartitionConstraint",
    "ag_generating",
    "ag_polynomial",
    "ag_polynomial_sweep",
    "ag_polynomials_at_root",
    "verify_ag_relation",
]


def _validate_chain_params(k: int, ell: int, b: int, n: int) -> None:
    if not (isinstance(k, int) and k >= 1):
        raise QSeriesError(f"chain length parameter must be a positive integer, got {k!r}")
    if not (isinstance(ell, int) and 1 <= ell <= k):
        raise QSeriesError(f"offset parameter must satisfy 1 <= ell <= k, got ell={ell!r}")
    if b not in (0, 1):
        raise QSeriesError(f"weight flag must be 0 or 1, got {b!r}")
    if not (isinstance(n, int) and n >= 0):
        raise QSeriesError(f"top chain value must be a nonnegative integer, got {n!r}")


def _int_slots(trunc) -> int:
    """Number of integer exponents e with 0 <= e < trunc."""
    t = trunc if isinstance(trunc, Fraction) else Fraction(trunc)
    return max(0, math.ceil(t))


def _chains(k: int, ell: int, b: int, trunc, top: int | None = None):
    """Depth-first over the chains ``0 <= n_1 <= ... <= n_{k-1}`` (``<= top``).

    Yields ``(n_{k-1}, g_{k-1}, partial)`` for each chain with q-weight
    below ``trunc`` and every ``g_j >= 0``; ``partial`` is the chain's
    power of q times every binomial except the final one, whose top side
    depends on ``n``.
    """
    def walk(j: int, prev: int, acc: int, weight: int, partial):
        g = acc - b * j
        if g < 0:
            return
        if j == k - 1:
            yield prev, g, partial
            return
        for v in itertools.count(prev) if top is None else range(prev, top + 1):
            w = v * v + (1 - b) * v
            if weight + w >= trunc:
                break
            factor = gaussian_binomial(v - prev + g, v - prev, trunc).shift(w)
            nxt = acc + 2 * v + (1 if j + 1 < ell else 0)
            yield from walk(j + 1, v, nxt, weight + w, partial * factor)

    return walk(0, 0, 0, 0, QSeries.one(trunc))


def ag_polynomial(k: int, ell: int, b: int, n: int, trunc=INF) -> QSeries:
    """One chain polynomial, exact below ``trunc`` (default: the full polynomial).

    The value is the sum over chains ``0 <= n_1 <= ... <= n_{k-1} <= n`` of

        q^(sum_j n_j^2 + (1-b) n_j) * prod_j binom(bottom_j + g_j, bottom_j)

    with ``bottom_j = n_{j+1} - n_j`` (reading ``n_k = n``) and
    ``g_j = -b*j + sum_{r<=j} (2 n_r + [r < ell])``; a chain with any
    ``g_j < 0`` contributes nothing because the binomial vanishes.  For
    ``k = 1`` the empty product makes every value 1.
    """
    _validate_chain_params(k, ell, b, n)
    total = QSeries.zero(trunc)
    for last, g, partial in _chains(k, ell, b, trunc, n):
        total = total + partial * gaussian_binomial(n - last + g, n - last, trunc)
    return total


def _chains_at_root(ring, k: int, ell: int, b: int, n_max: int) -> list:
    """The chain polynomials for n = 0..n_max as elements of ``ring`` (a
    :class:`~qmaass.cyclotomic.CyclicRing` or its L1 bound), from one walk.

    Each layer keeps one sum per chain state (n_j, acc), as the later
    factors read only n_j and g_j = acc - b*j.  The last factor takes no
    product: as sum_s [s+g choose s] z^s = 1/prod_(i<=g) (1 - z x^i), the
    states join a series in z at z^(n_(k-1)), divided by 1 - z x^g from
    the largest g down (Horner's rule).
    """
    binomial = binomials_at_root(ring)
    layer = {(0, 0): 1}
    for j in range(k - 1):
        step: dict = {}
        for (prev, acc), partial in layer.items():
            g = acc - b * j
            for v in range(prev, n_max + 1) if g >= 0 else ():
                factor = binomial(v - prev + g, v - prev)
                if factor:
                    key = (v, acc + 2 * v + (1 if j + 1 < ell else 0))
                    step[key] = step.get(key, 0) + ring.mul(partial, factor)
        layer = {(v, acc): ring.rot(a, v * v + (1 - b) * v) for (v, acc), a in step.items()}
    by_g: dict = {}
    for (last, acc), partial in layer.items():
        by_g.setdefault(acc - b * (k - 1), []).append((last, partial))
    series, low = [0] * (n_max + 1), n_max  # series[n] = 0 for n < low
    for g in range(max(by_g, default=-1), -1, -1):
        for last, partial in by_g.get(g, ()):
            series[last] += partial
            low = min(low, last)
        for n in range(low + 1, n_max + 1):
            series[n] += ring.rot(series[n - 1], g)
    return series


def ag_polynomials_at_root(k: int, ell: int, b: int, n_max: int, N: int) -> list[dict]:
    """The chain polynomials for n = 0..n_max at a primitive N-th root of unity, as
    maps in Z[x]/(x^N - 1) (reduce with :meth:`~qmaass.cyclotomic.CycNumber.from_powers`)."""
    _validate_chain_params(k, ell, b, n_max)
    return root_sums(N, lambda ring: _chains_at_root(ring, k, ell, b, n_max))


def ag_polynomial_sweep(k: int, ell: int, b: int, trunc):
    """Yield ``(n, polynomial truncated below trunc)`` for n = 0, 1, 2, ...

    Chains with ``n_{k-1} <= n`` are shared between consecutive ``n``: only
    the final binomial factor changes, by the exact one-term ratio

        binom(r+1+g, r+1) = binom(r+g, r) * (1 - q^(r+1+g)) / (1 - q^(r+1)),

    so each active chain is advanced with two dense linear passes instead of
    being recomputed.  Chains whose update exponents have left the window
    are frozen into a shared accumulator and never touched again.
    """
    _validate_chain_params(k, ell, b, 0)
    trunc = finite_trunc(trunc)
    size = _int_slots(trunc)
    if k == 1:
        constant = QSeries.one(trunc)
        for n in itertools.count(0):
            yield n, constant
        return

    # Static part of each chain: (n_{k-1}, final g, dense prefix).
    records = [
        (last, g, dense_int_coeffs(partial, size))
        for last, g, partial in _chains(k, ell, b, trunc)
    ]
    records.sort(key=lambda rec: rec[0])
    stable = [0] * size
    active: list[list] = []  # [n_{k-1}, g, mutable dense coefficients]
    next_record = 0
    for n in itertools.count(0):
        while next_record < len(records) and records[next_record][0] == n:
            last, g, base = records[next_record]
            active.append([last, g, list(base)])
            next_record += 1
        still_active: list[list] = []
        for entry in active:
            last, g, arr = entry
            s = n - last
            if s == 0:
                still_active.append(entry)
                continue
            if s >= size:
                # Both update strides fall outside the window: frozen.
                for e in range(size):
                    stable[e] += arr[e]
                continue
            t = s + g
            if t < size:
                for e in range(size - 1, t - 1, -1):
                    arr[e] -= arr[e - t]
            for e in range(s, size):
                arr[e] += arr[e - s]
            still_active.append(entry)
        active = still_active
        out = list(stable)
        for _, _, arr in active:
            for e in range(size):
                out[e] += arr[e]
        yield n, QSeries.from_dense(out, trunc)


@dataclass(frozen=True)
class PartitionConstraint:
    """Admission rules for partitions counted by :func:`ag_generating`.

    Writing ``f_j`` for the number of parts equal to ``j``, a partition is
    admitted when all of the following hold:

    * every part is strictly less than ``part_bound``,
    * ``f_1 < first_freq_bound``,
    * ``f_(part_bound-1) < last_freq_bound``,
    * ``f_j + f_(j+1) <= pair_sum_max`` for every ``1 <= j <= part_bound - 2``.

    ``part_bound = 1`` leaves only the empty partition.
    """

    pair_sum_max: int
    first_freq_bound: int
    last_freq_bound: int
    part_bound: int

    def __post_init__(self) -> None:
        for name in ("pair_sum_max", "first_freq_bound", "last_freq_bound", "part_bound"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise QSeriesError(f"{name} must be a positive integer, got {value!r}")


def ag_generating(constraint: PartitionConstraint, trunc) -> QSeries:
    """Generating function (by partition size) of the admitted partitions.

    Dynamic programming over part sizes ``1, ..., part_bound - 1``: the state
    is the frequency of the previous size (needed for the adjacent-sum rule)
    and the accumulated size, all below the finite ``trunc``.
    """
    trunc = finite_trunc(trunc)
    size = _int_slots(trunc)
    if size <= 0:
        return QSeries.zero(trunc)
    npos = constraint.part_bound - 1
    if npos == 0:
        return QSeries.one(trunc)

    def edge_cap(j: int) -> int | None:
        cap = None
        if j == 1:
            cap = constraint.first_freq_bound - 1
        if j == npos:
            last = constraint.last_freq_bound - 1
            cap = last if cap is None else min(cap, last)
        return cap

    # dp: frequency at the previous position -> dense counts by weight
    dp: dict[int, list] = {}
    top = (size - 1) // 1
    cap1 = edge_cap(1)
    if cap1 is not None:
        top = min(top, cap1)
    for f in range(top + 1):
        arr = [0] * size
        arr[f] = 1
        dp[f] = arr
    for j in range(2, npos + 1):
        new_dp: dict[int, list] = {}
        capj = edge_cap(j)
        for fprev, arr in dp.items():
            fmax = min(constraint.pair_sum_max - fprev, (size - 1) // j)
            if capj is not None:
                fmax = min(fmax, capj)
            for f in range(fmax + 1):
                dest = new_dp.get(f)
                if dest is None:
                    dest = new_dp[f] = [0] * size
                off = f * j
                for w in range(size - off):
                    if arr[w]:
                        dest[w + off] += arr[w]
        dp = new_dp
    total = [0] * size
    for arr in dp.values():
        for w in range(size):
            total[w] += arr[w]
    return QSeries.from_dense(total, trunc)


def verify_ag_relation(k: int, ell: int, b: int, n: int, up_to=None) -> CheckReport:
    """Certify that the reversed chain polynomial counts the constrained partitions.

    The chain polynomial with top value ``n`` is reversed about
    ``D = (k-1) * n * (n+1-b)`` (coefficient of ``q^e`` moves to ``q^(D-e)``,
    i.e. the substitution ``q -> 1/q`` normalized back to nonnegative powers)
    and compared with the partition generating function for pair-sum bound
    ``k-1``, first-frequency bound ``ell``, last-frequency bound ``k``, and
    part bound ``2n - b + 1``.  Comparison runs beyond the degree bound, so
    a pass means the polynomials agree everywhere.
    """
    _validate_chain_params(k, ell, b, n)
    if k < 2:
        raise QSeriesError("the partition comparison needs at least two chain levels (k >= 2)")
    if b == 1 and n == 0:
        raise QSeriesError(
            "no partition side exists for b=1, n=0: the part bound 2n - b + 1 vanishes"
        )
    degree_bound = (k - 1) * n * (n + 1 - b)
    compare_to = degree_bound + 2
    if up_to is not None:
        compare_to = min(compare_to, up_to)
    poly = ag_polynomial(k, ell, b, n)
    flipped = QSeries.from_terms(
        ((degree_bound - e, c) for e, c in poly.terms()), trunc=compare_to
    )
    partitions = ag_generating(
        PartitionConstraint(k - 1, ell, k, 2 * n - b + 1), compare_to
    )
    params = {"k": k, "ell": ell, "b": b, "n": n}
    return report_from_comparison("ag_relation", params, flipped, partitions)
