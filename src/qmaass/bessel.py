"""Modified Bessel function of the second kind, order zero.

Two regimes:

* for arguments below 18 the ascending series is summed in arbitrary
  precision (the two pieces cancel to roughly 0.87 * x digits, so the
  working precision grows linearly with the argument);
* for arguments of 18 and above the asymptotic expansion converges to
  machine precision before its terms start growing, so plain floats
  suffice.

Values are cached; the evaluator targets a relative error of 1e-12 or
better across both regimes.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import mpmath

from .series import QSeriesError

_ASYMPTOTIC_SWITCH = 18.0
_CTX = mpmath.MPContext()
_CTX_LOCK = threading.Lock()


@lru_cache(maxsize=65536)
def k0_bessel(x: float) -> float:
    """K0(x) for real x > 0."""
    x = float(x)
    if not x > 0:
        raise QSeriesError("the Bessel argument must be positive")
    if x >= _ASYMPTOTIC_SWITCH:
        return _k0_asymptotic(x)
    return _k0_ascending(x)


def _k0_ascending(x: float) -> float:
    """Ascending series in raised precision.

    K0(x) = -(log(x/2) + euler_gamma) I0(x) + sum_{m>=1} z^m/(m!)^2 H_m
    with z = x^2/4 and H_m the m-th harmonic number.  Both pieces grow
    like e^x while the result decays like e^-x, hence the extra digits.
    A private mpmath context under a lock keeps threads and the global
    precision apart.
    """
    with _CTX_LOCK:
        _CTX.dps = 25 + int(math.ceil(x))
        z = _CTX.mpf(x) ** 2 / 4
        term = _CTX.mpf(1)
        i0 = _CTX.mpf(1)
        corr = _CTX.mpf(0)
        harmonic = _CTX.mpf(0)
        m = 0
        while True:
            m += 1
            term *= z / (m * m)
            harmonic += _CTX.mpf(1) / m
            i0 += term
            corr += term * harmonic
            if term < _CTX.mpf(10) ** (-_CTX.dps) * i0:
                break
        value = -(_CTX.log(_CTX.mpf(x) / 2) + _CTX.euler) * i0 + corr
        return float(value)


def _k0_asymptotic(x: float) -> float:
    """Asymptotic expansion sqrt(pi/(2x)) e^-x sum_n (-1)^n u_n / x^n.

    The term ratio is -(2n-1)^2/(8nx); summation stops at machine
    precision or as soon as the terms stop shrinking.
    """
    total = 1.0
    term = 1.0
    n = 0
    while True:
        n += 1
        ratio = -((2 * n - 1) ** 2) / (8.0 * n * x)
        nxt = term * ratio
        if abs(nxt) >= abs(term) or abs(nxt) < 1e-17 * abs(total):
            if abs(nxt) < abs(term):
                total += nxt
            break
        term = nxt
        total += term
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * total
