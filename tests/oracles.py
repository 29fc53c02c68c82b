"""Reference evaluations the tests compare the library against.

The library never evaluates a general q-series at a root of unity: its
root-of-unity values come from group-ring sums (:mod:`qmaass.cyclotomic`).
The tests expand the same objects as exact q-series and sum them here,
term by term, as an independent oracle.
"""

from fractions import Fraction
from functools import lru_cache

from qmaass.cyclotomic import CycNumber
from qmaass.series import QSeries


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
    out = CycNumber.from_rational(L, 0)
    for m, c in s._coeffs.items():
        k = (m * power) % L
        if isinstance(c, (int, Fraction)):
            rational_powers[k] = rational_powers.get(k, 0) + c
        else:
            out = out + CycNumber.zeta(L, k) * c
    return CycNumber.from_powers(L, rational_powers) + out


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
