"""Modified Bessel function of the second kind, order zero, in floats.

Three regimes:

* below x = 2 the ascending series
  K0(x) = -(log(x/2) + euler_gamma) I0(x) + sum_{m>=1} z^m/(m!)^2 H_m,
  with z = x^2/4 and H_m the m-th harmonic number; there z < 1, the
  terms fall at least like 1/(m!)^2, and the two pieces cancel by at
  most one digit;
* from x = 2 up, Steed's continued fraction CF2 (Thompson and Barnett,
  J. Comput. Phys. 64, 1986; the nu = 0 case of ``bessik`` in Numerical
  Recipes), which gives K0(x) = sqrt(pi/(2x)) e^-x / s with s the sum
  the recurrence builds; it needs fewer terms the larger x is;
* from x = 745 up, including x = inf, 0.0: there
  K0(x) < sqrt(pi/(2x)) e^-x lies below half the least subnormal double,
  so 0.0 is the correctly rounded value (the recurrence itself overflows
  to NaN on part of that range, first near x = 5e16).

Values are cached.  The relative error is below 1e-12 on all of
(0, 700]; the tests hold it to 1e-13 against 30-digit references on
log-uniform points in [1e-8, 700] and on both sides of x = 2.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .series import QSeriesError

_CF2_SWITCH = 2.0
_UNDERFLOW = 745.0
_EULER_GAMMA = 0.5772156649015329
_EPS = 1e-17
_MAX_TERMS = 10000


@lru_cache(maxsize=65536)
def k0_bessel(x: float) -> float:
    """K0(x) for real x > 0."""
    x = float(x)
    if not x > 0:
        raise QSeriesError("the Bessel argument must be positive")
    if x < _CF2_SWITCH:
        return _k0_ascending(x)
    if x >= _UNDERFLOW:
        return 0.0
    return _k0_steed(x)


def _k0_ascending(x: float) -> float:
    """The ascending series, summed until a term no longer moves I0."""
    z = 0.25 * x * x
    term = i0 = 1.0
    corr = harmonic = 0.0
    m = 0
    while term > _EPS * i0:
        m += 1
        term *= z / (m * m)
        harmonic += 1.0 / m
        i0 += term
        corr += term * harmonic
    return corr - (math.log(0.5 * x) + _EULER_GAMMA) * i0


def _k0_steed(x: float) -> float:
    """CF2 by Steed's algorithm, for x >= 2.

    The increments delh of the continued fraction for K1/K0 drive the
    sum s; the fraction itself is not needed for K0.  The loop stops
    when a term no longer moves s.
    """
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh = d
    q1, q2 = 0.0, 1.0
    q = c = 0.25
    a = -0.25
    s = 1.0 + q * delh
    for i in range(2, _MAX_TERMS):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh *= b * d - 1.0
        dels = q * delh
        s += dels
        if abs(dels) < _EPS * s:
            break
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
