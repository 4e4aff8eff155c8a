"""Extended-precision helpers: double-double products and mpmath glue.

The raw phase t*alpha of an oscillatory term can be far beyond 2^53, so
reducing it mod 1 in plain float64 destroys the fractional part.  All phase
reduction below goes through an error-free two-term (hi/lo) product split,
which keeps the fractional part accurate to ~1e-16 absolute for phases up
to ~1e20.  Frequencies that are not exactly representable (p^k for
non-integer k) are carried as hi/lo pairs computed once in mpmath.

mpmath's global precision is pinned here, at import, to 50 significant
digits (>= the 30 the boundary and admission contracts require).  Nothing
else may change it.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

mp.dps = 50

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def two_prod(a, b):
    """Error-free product (Dekker): returns (p, e) with p + e == a * b exactly.

    Works elementwise on numpy arrays; exact provided no overflow, which at
    the magnitudes used here (|a*b| < 1e20) is never an issue.
    """
    p = a * b
    ah = _SPLIT * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLIT * b
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def frac_reduce(hi, lo):
    """Fractional part (mod 1, centered) of the extended value hi + lo."""
    r = np.rint(hi)
    f = (hi - r) + lo  # hi - r is exact
    return f - np.rint(f)


def phase_frac(freq_hi, freq_lo, alpha, alpha_lo=0.0):
    """frac((freq_hi + freq_lo) * (alpha + alpha_lo)) to ~1e-16 absolute.

    freq_* may be scalars or arrays; alpha is a scalar or broadcastable
    array.  alpha_lo lets callers pass an exactly-known two-term abscissa.
    """
    p, e = two_prod(freq_hi, alpha)
    e = e + freq_lo * alpha
    if alpha_lo != 0.0:
        e = e + freq_hi * alpha_lo
    return frac_reduce(p, e)


def dd_from_mpf(x) -> tuple[float, float]:
    """Split an mpmath value into a hi/lo float64 pair."""
    hi = float(x)
    lo = float(x - mp.mpf(hi))
    return hi, lo


def pow_dd(base: float, exponent: float) -> tuple[float, float]:
    """base**exponent as a hi/lo pair, computed in mpmath.

    Integer exponents of integer-valued bases whose power stays below 2^53
    short-circuit to exact float64.
    """
    if float(exponent).is_integer() and float(base).is_integer():
        v = int(base) ** int(exponent)
        if v < 2**53:
            return float(v), 0.0
        hi = float(v)
        return hi, float(v - int(hi))
    v = mp.power(mp.mpf(base), mp.mpf(exponent))
    return dd_from_mpf(v)


def dd_scale(hi, lo, s: float):
    """(hi + lo) * s as a hi/lo pair (s a float64 scalar)."""
    p, e = two_prod(hi, s)
    return p, e + lo * s


def dd_add(a_hi, a_lo, b_hi, b_lo):
    """(a_hi + a_lo) + (b_hi + b_lo) as a normalized hi/lo pair."""
    s, e = two_sum(a_hi, b_hi)
    e = e + (a_lo + b_lo)
    return two_sum(s, e)


def kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sum of a 1-d array (Kahan), returned as float64."""
    out = np.empty(len(values), dtype=np.float64)
    s = 0.0
    c = 0.0
    for i, v in enumerate(values):
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out
