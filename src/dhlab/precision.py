"""Extended-precision helpers: double-double products and mpmath glue.

The raw phase t*alpha of an oscillatory term can be far beyond 2^53, so
reducing it mod 1 in plain float64 destroys the fractional part.  All phase
reduction below goes through an error-free two-term (hi/lo) product split,
which keeps the fractional part accurate to ~1e-16 absolute for phases up
to ~1e20.  Frequencies that are not exactly representable (p^k for
non-integer k) are carried as hi/lo pairs, each correctly rounded from
exact integer roots for dyadic k = m / 2^e (1.5, 2.5, 1.25, ...) and
split from one 50-digit mpmath power for other k.
`fixed_sum` sums float64 arrays exactly, so that a total does not depend
on the order or the chunks in which its terms arrive; `fixed_to_float`
rounds it once, to math.fsum's result.

mpmath's global precision is pinned here, at import, to 50 significant
digits (>= the 30 the boundary and admission contracts require).  Nothing
else may change it.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from .errors import DomainError

mp.dps = 50

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
U = 2.0**-53  # unit roundoff of float64
TWO_PI_I = 2j * np.pi


def higham_gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u)."""
    return m * U / (1 - m * U)


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

    freq_* may be scalars or arrays; alpha and alpha_lo are scalars or
    broadcastable arrays.  alpha_lo lets callers pass an exactly-known
    two-term abscissa; an all-zero alpha_lo costs nothing.
    """
    p, e = two_prod(freq_hi, alpha)
    e = e + freq_lo * alpha
    if np.any(alpha_lo):
        e = e + freq_hi * alpha_lo
    return frac_reduce(p, e)


def dd_from_mpf(x) -> tuple[float, float]:
    """Split an mpmath value into a hi/lo float64 pair."""
    hi = float(x)
    lo = float(x - mp.mpf(hi))
    return hi, lo


# k = m / 2^e takes nested integer square roots for e <= _ROOT_DEPTH: the
# radicand n^m 2^(F 2^e) doubles in width with each level, past which one
# mp.power costs less
_ROOT_DEPTH = 4
_DD_BITS = 120  # pow_dd: 2^-121 absolute, below hi/lo's 2^-106 relative


def _dyadic(k: float) -> tuple[int, int] | None:
    """(m, e) with k = m / 2^e, m > 0 and e <= _ROOT_DEPTH, or None."""
    m, d = float(k).as_integer_ratio()  # d is a power of two
    e = d.bit_length() - 1
    return (m, e) if m > 0 and e <= _ROOT_DEPTH else None


def _dyadic_root(n: int, m: int, e: int, F: int) -> int:
    """2 floor(n^(m/2^e) 2^F) + s, s = 0 iff n^(m/2^e) 2^F is that integer.

    floor(sqrt(floor(x))) = floor(sqrt(x)), so e nested math.isqrt of
    n^m 2^(F 2^e) give the floor; a root past an inexact one is inexact.
    With s a sticky bit, the result r is within 1 of n^k 2^(F+1) and on
    it exactly when s = 0, so r rounds to p bits as n^k does whenever r
    has at least p + 2 bits (F >= p for n >= 1): every rounding
    boundary is then an even integer, and r is odd unless exact.
    """
    r = n**m << (F << e)
    exact = True
    for _ in range(e):
        s = math.isqrt(r)
        exact = exact and s * s == r
        r = s
    return 2 * r + (not exact)


def _require_base(n) -> int:
    n = int(n)
    if n < 1:
        raise DomainError(f"n^k at non-integer k needs n >= 1, got {n}")
    return n


def pow_mp(n: int, k: float):
    """n**k at mpmath's working precision: the exact power for integer k.
    For dyadic k = m / 2^e with e <= _ROOT_DEPTH, the correctly rounded
    power, from _dyadic_root at mp.prec fractional bits; for other k,
    mp.power.  Non-integer k needs n >= 1 (DomainError otherwise)."""
    if float(k).is_integer():
        return mp.mpf(int(n) ** int(k))
    n = _require_base(n)
    me = _dyadic(k)
    if me is None:
        return mp.power(n, mp.mpf(k))
    F = mp.prec
    return mp.mpf((_dyadic_root(n, *me, F), -(F + 1)))


def _root_pairs(ns: np.ndarray, m: int, e: int):
    """Yield hi/lo of n^(m/2^e) for each n >= 1 of ns from r =
    _dyadic_root at _DD_BITS fractional bits: hi = r / 2^(_DD_BITS+1),
    rounded once by Python's int division, and lo the integer remainder r
    - hi 2^(_DD_BITS+1) (n^k >= 1, so hi's ulp is a multiple of
    2^-(_DD_BITS+1)), scaled and rounded once."""
    sh = _DD_BITS + 1
    scale = 1 << sh
    for n in ns.tolist():
        r = _dyadic_root(n, m, e, _DD_BITS)
        hi = r / scale
        p, q = hi.as_integer_ratio()  # q a power of two <= 2^52
        yield hi, (r - (p << sh) // q) / scale


def pow_dd(ns, k: float) -> tuple[np.ndarray, np.ndarray]:
    """n**k for each integer n >= 1 of `ns`, as hi/lo float64 arrays.

    Integer k: each power split exactly into hi/lo (int64 below 2^62, so
    lo is 0 below 2^53; Python integers past it).  Dyadic k = m / 2^e,
    e <= _ROOT_DEPTH: _root_pairs, hi correctly rounded and hi + lo within
    2^-121 + ulp(lo)/2 of n^k.  Other k: pow_mp, split once.  Non-integer
    k needs every n >= 1 (DomainError otherwise).
    """
    ns = np.asarray(ns, dtype=np.int64)
    if not len(ns):  # no power formed: k may be past any exponent
        return np.zeros(0), np.zeros(0)
    if float(k).is_integer():
        k = int(k)
        if int(np.max(ns, initial=1)) ** k < 2**62:
            v = ns**k
            hi = v.astype(np.float64)
            return hi, (v - hi.astype(np.int64)).astype(np.float64)
        pairs = ((float(v), float(v - int(float(v))))
                 for v in (int(n) ** k for n in ns))
    else:
        if len(ns):
            _require_base(np.min(ns))
        me = _dyadic(k)
        if me is None:
            pairs = (dd_from_mpf(pow_mp(n, k)) for n in ns)
        else:
            pairs = _root_pairs(ns, *me)
    hl = np.fromiter(pairs, np.dtype((np.float64, 2)), len(ns))
    return np.ascontiguousarray(hl[:, 0]), np.ascontiguousarray(hl[:, 1])


def dd_scale(hi, lo, s: float):
    """(hi + lo) * s as a hi/lo pair (s a float64 scalar)."""
    p, e = two_prod(hi, s)
    return p, e + lo * s


def dd_add(a_hi, a_lo, b_hi, b_lo):
    """(a_hi + a_lo) + (b_hi + b_lo) as a normalized hi/lo pair."""
    s, e = two_sum(a_hi, b_hi)
    e = e + (a_lo + b_lo)
    return two_sum(s, e)


_FIXED_BITS = 1126  # every finite float64 is a multiple of 2^-1126 here
_FIXED_BLOCK = 1 << 26  # bin sums of 27-bit halves stay below 2^53


def fixed_sum(values) -> int:
    """The exact sum of float64 values, as an integer multiple of 2^-1126.

    Each finite value is m 2^e (np.frexp) = M 2^(e-53) with M = m 2^53 an
    integer below 2^53 in magnitude, split as M = hi 2^26 + lo into two
    integers below 2^27.  np.bincount sums the halves per exponent in
    float64, exactly while a block holds at most 2^26 values, and the bins
    are shifted into one Python integer.  The result does not depend on the
    order of the values or on how they are split into calls.  Non-finite
    values raise DomainError.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(values).all():
        raise DomainError("exact sum of non-finite values")
    total = 0
    for s in range(0, len(values), _FIXED_BLOCK):
        m, e = np.frexp(values[s:s + _FIXED_BLOCK])
        m *= 2.0**27
        hi = np.trunc(m)
        lo = (m - hi) * 2.0**26
        bins = e + (_FIXED_BITS - 53)  # e >= -1073, so bins >= 0
        sum_hi = np.bincount(bins, weights=hi)
        sum_lo = np.bincount(bins, weights=lo)
        for b in np.flatnonzero(sum_hi != 0.0).tolist():
            total += int(sum_hi[b]) << (b + 26)
        for b in np.flatnonzero(sum_lo != 0.0).tolist():
            total += int(sum_lo[b]) << b
    return total


def fixed_to_float(total: int) -> float:
    """A fixed_sum result rounded once to float64 (to nearest, ties even):
    math.fsum's result, in any order of the values."""
    return total / (1 << _FIXED_BITS)  # Python's int division rounds correctly


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
