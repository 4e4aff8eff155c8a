"""Moment integrals and counting machinery behind the bound suite.

The quadruple counter returns an exact int: integer arithmetic when k is
an integer, and correctly-rounded powers with boundary-safe window counting
otherwise, so it agrees with an exhaustive enumeration term for term.

The finite-interval moments are exact finite sums.  With |S|^p =
|sum c e(t a)|^2, the frequencies t and coefficients c of S^(p/2),

    int_lo^hi |S|^p da = sum over m, n of c_m c_n E(t_m - t_n),
    E(xi) = (e(xi hi) - e(xi lo)) / (2 pi i xi),  E(0) = hi - lo,

the finite-interval form of orthogonality.  Over whole periods of
distinct integer frequencies every E off the diagonal vanishes and the
moment is (hi - lo) sum c^2; otherwise the pairs are summed in blocks.
Where the pairs pass MAX_GRID_VALUES the moments fall back to trapezoid
sums on the 64x-oversampled grids of `expsums.trapezoid_step`.

The kernel-weighted moments go by Fourier duality instead: K_eta
transforms to a tent, so over the whole line |S|^p K_eta integrates to a
finite sum over pairs of frequencies of S^(p/2), for integer k eta times
the weighted count of equal (p/2)-fold sums of k-th powers.  A finite
interval takes off a trapezoid head and a tail past hi, summed pair by
pair (p = 2) or estimated by its mean term.  Each tail term is in
float64 from the by-parts series of int_x^inf cos t t^-2 dt, its phase
reduced in double-double; the few terms whose x lies below a fixed
threshold are taken at 50 digits.  The report's tail_bound certifies the
float error of the tail, plus the mean term's remainder; it does not
cover the head's trapezoid error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np
from mpmath import mp
from numpy.polynomial.polynomial import polyval

from .errors import DomainError, InsufficientTableError
from .expsums import (MAX_GRID_VALUES, fejer_kernel, fejer_kernel_hat,
                      sum_freqs, trapezoid)
from .precision import (U, fixed_sum, fixed_to_float, higham_gamma,
                        phase_frac, pow_dd, two_prod, two_sum)
from .primes import PrimeTable, SumRange, theta_many

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass
class MomentReport:
    """One moment integral with its comparison bound; ratio = value / bound
    (inf where the bound is not positive).  tail_bound, set by kernel_moment
    alone, certifies the error of its tail estimate."""

    exponent: int
    lo: float
    hi: float
    value: float
    bound: float
    ratio: float = field(init=False)
    X: float
    k: float
    eta: float | None = None
    tail_bound: float | None = None

    def __post_init__(self):
        self.ratio = self.value / self.bound if self.bound > 0 else math.inf

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# quadruple counting (meet in the middle)

def _power_values(N: int, k: float) -> np.ndarray:
    """n**k for n in (N, 2N]: exact int64 when k is integral, else the
    correctly rounded float64 (pow_dd's hi: from integer roots for dyadic
    k, from one 50-digit power otherwise)."""
    ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    if float(k).is_integer():
        return np.power(ns, int(k), out=ns)
    return pow_dd(ns, k)[0]


def count_quadruples(N: int, k: float, gamma: float) -> int:
    """Count ordered (n1,n2,n3,n4), N < ni <= 2N, |n1^k+n2^k-n3^k-n4^k| < gamma.

    Strictly below gamma.  Meet in the middle: sort the N^2 ordered pair
    sums, then count window partners for every pair sum, O(N^2 log N).
    More than MAX_GRID_VALUES pair sums are refused before any is formed.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if not 0 < k < math.inf:
        raise DomainError(f"k must be positive and finite, got {k}")
    # pair sums below 2^62 keep them and their windows exact in int64;
    # float sums need room below overflow (2^1024) for the window margins
    if float(k).is_integer():
        if k > 61 or 2 * (2 * N) ** int(k) >= 2**62:
            raise DomainError(f"pair sums of {2 * N}^{k:g} reach 2^62")
    elif k * math.log2(2 * N) > 1000:
        raise DomainError(f"pair sums of {2 * N}^{k:g} near float64 overflow")
    if N * N > MAX_GRID_VALUES:
        raise DomainError(f"N = {N} needs {N * N} pair sums "
                          f"(> {MAX_GRID_VALUES})")
    vals = _power_values(N, k)
    sums = np.sort((vals[:, None] + vals[None, :]).ravel())

    if sums.dtype.kind == "i":
        # integer sums: |d| < gamma  <=>  |d| <= g with g integral; no
        # difference exceeds the span of the sums
        g = int(math.ceil(gamma)) - 1 if float(gamma).is_integer() else int(math.floor(gamma))
        g = min(g, int(sums[-1] - sums[0]))
        lo = np.searchsorted(sums, sums - g, side="left")
        hi = np.searchsorted(sums, sums + g, side="right")
        return int(np.sum(hi - lo))

    # float sums: interior window certain, boundary shells re-tested with
    # the same comparison an exhaustive enumeration would use
    eps = np.finfo(np.float64).eps
    margin = 16.0 * eps * (float(sums[-1]) + gamma)
    in_lo = np.searchsorted(sums, sums - gamma + margin, side="left")
    in_hi = np.searchsorted(sums, sums + gamma - margin, side="right")
    total = int(np.sum(np.maximum(0, in_hi - in_lo)))
    sh_lo = np.searchsorted(sums, sums - gamma - margin, side="left")
    sh_hi = np.searchsorted(sums, sums + gamma + margin, side="right")
    for a in np.nonzero((sh_lo < in_lo) | (sh_hi > in_hi))[0]:
        s = sums[a]
        for z0, z1 in ((sh_lo[a], in_lo[a]), (max(in_hi[a], in_lo[a]), sh_hi[a])):
            if z1 > z0:
                total += int(np.count_nonzero(np.abs(sums[z0:z1] - s) < gamma))
    return total


# ---------------------------------------------------------------------------
# finite-interval moments

def _moment_bound(p: int, tau: float, X: float, k: float) -> float:
    logX = math.log(X)
    if p == 2:
        return (tau * X ** (1.0 / k) + X ** (2.0 / k - 1.0)) * logX**3
    if p == 4:
        return (tau * X ** (2.0 / k) + X ** (4.0 / k - 1.0)) * X**0.1
    if p == 8:
        if k != 3:
            raise DomainError("eighth-moment bound is specific to k = 3")
        return X ** (5.0 / 3.0) * X**0.1
    raise DomainError(f"exponent must be one of 2, 4, 8, got {p}")


PAIR_BLOCK = 1 << 16  # most pairs one block of _pair_sum holds


def _group(t, t_lo, c):
    """The distinct t, ascending, each with the t_lo of its first
    occurrence and the sum of its coefficients c."""
    t, first, inv = np.unique(t, return_index=True, return_inverse=True)
    return t, t_lo[first], np.bincount(inv.ravel(), weights=c)


def _coefficients(p: int, fh, fl, w, integer: bool):
    """(t, t_lo, c) with (sum w e((fh + fl) a))^(p/2) = sum c e((t + t_lo) a),
    or None where a squaring would pass MAX_GRID_VALUES pair sums.

    t: distinct and ascending, exact int64 for `integer` frequencies (t_lo
    = 0), else the float64 sums of the high parts, t_lo the low part of
    each t's first sum; c: the summed coefficients of equal t."""
    if integer:
        t, t_lo = fh.astype(np.int64) + fl.astype(np.int64), np.zeros(len(fh))
    else:
        t, t_lo = fh, fl
    t, t_lo, c = _group(t, t_lo, w)
    for _ in range(p.bit_length() - 2):  # p = 2, 4, 8: 0, 1, 2 squarings
        if len(t) ** 2 > MAX_GRID_VALUES:
            return None
        s, e = (t[:, None] + t, 0.0) if integer else two_sum(t[:, None], t)
        t, t_lo, c = _group(s.ravel(), (e + t_lo[:, None] + t_lo).ravel(),
                            np.outer(c, c).ravel())
    return t, t_lo, c


def _hi_lo(t, t_lo):
    """t + t_lo as float64 hi/lo arrays, an int64 t's rounding to float64
    moved into the low part."""
    th = t.astype(np.float64)
    return th, t_lo + (t - th.astype(t.dtype))


def _pair_sum(t, t_lo, c, lo: float, hi: float) -> float:
    """sum over m, n of c_m c_n E(t_m - t_n), E(xi) the integral of e(xi a)
    over [lo, hi]: E(0) = hi - lo, and the real part of E, the imaginary
    parts cancelling in pairs, is cos(pi xi (hi + lo)) sin(pi xi (hi -
    lo)) / (pi xi), each phase reduced by phase_frac from the error-free
    difference of the two frequencies and the error-free hi + lo and
    hi - lo.  Pairs m < n go in blocks of rows of at most PAIR_BLOCK
    pairs, each block summed with np.sum; the block sums and the diagonal
    (hi - lo) sum c^2 with math.fsum."""
    th, tl = _hi_lo(t, t_lo)
    w, w_lo = two_sum(hi, -lo)
    s, s_lo = two_sum(hi, lo)
    n = len(t)
    rows = max(1, PAIR_BLOCK // max(n, 1))
    sums = [w * math.fsum(c * c)]
    for a in range(0, n - 1, rows):
        b = min(a + rows, n)
        dh, de = two_sum(th[a:], -th[a:b, None])
        dl = de + (tl[a:] - tl[a:b, None])
        ker = (np.sin(2.0 * np.pi * phase_frac(dh, dl, 0.5 * w, 0.5 * w_lo))
               * np.cos(2.0 * np.pi * phase_frac(dh, dl, 0.5 * s, 0.5 * s_lo)))
        upper = np.arange(a, n) > np.arange(a, b)[:, None]
        q = np.divide(ker, np.pi * (dh + dl), out=np.zeros_like(ker),
                      where=upper)
        sums.append(2.0 * np.sum(c[a:b, None] * c[a:] * q))
    return math.fsum(sums)


def _pair_moment(p: int, f, lo: float, hi: float,
                 integer: bool) -> float | None:
    """The integral over [lo, hi] of |sum w e((fh + fl) a)|^p, f = (fh, fl,
    w), as a finite sum over the coefficients of the (p/2)-th power, or
    None where its pair sums pass MAX_GRID_VALUES.  Over whole periods
    (hi - lo an integer) of integer frequencies it is (hi - lo) sum c^2."""
    coeffs = _coefficients(p, *f, integer)
    if coeffs is None:
        return None
    t, t_lo, c = coeffs
    if integer and (Fraction(hi) - Fraction(lo)).denominator == 1:
        return (hi - lo) * math.fsum(c * c)
    if len(t) ** 2 > MAX_GRID_VALUES:
        return None
    return _pair_sum(t, t_lo, c, lo, hi)


def moment_integral(kind: str, p: int, interval: tuple[float, float],
                    rng: SumRange, table: PrimeTable) -> MomentReport:
    """Integral of |sum|^p over the finite `interval`, with comparison bound:
    the exact pair sum of _pair_moment, or where that declines the
    trapezoid.

    kind 'S1' integrates the linear prime sum on the window [delta X, X];
    kind 'Sk' uses the k of `rng`.
    """
    if kind == "S1":
        rng = SumRange(1.0, rng.delta, rng.X)
    elif kind != "Sk":
        raise DomainError(f"kind must be 'S1' or 'Sk', got {kind!r}")
    lo, hi = float(interval[0]), float(interval[1])
    bound = _moment_bound(p, max(abs(lo), abs(hi)), rng.X, rng.k)
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"need finite lo < hi, got [{lo}, {hi}]")
    f = sum_freqs("prime", rng, table)
    value = _pair_moment(p, f, lo, hi, float(rng.k).is_integer())
    if value is None:
        value = trapezoid([f], lo, hi, rng.X, lambda alphas, s: np.abs(s) ** p)
    return MomentReport(exponent=p, lo=lo, hi=hi, value=value, bound=bound,
                        X=rng.X, k=rng.k)


def exp_sum_gap_l2(Y: float, rng: SumRange, table: PrimeTable) -> MomentReport:
    """Integral of |prime sum - integer sum|^2 over [-Y, Y], with the
    short-window variance bound as comparison: the exact pair sum of
    _pair_moment over the union of the two ensembles' frequencies (log p
    at the primes, -1 at every integer), or where that declines the
    trapezoid."""
    if not 0 < Y <= 0.5:
        raise DomainError(f"Y must be in (0, 1/2], got {Y}")
    fp, fu = sum_freqs("prime", rng, table), sum_freqs("integer", rng)
    union = (np.concatenate((fp[0], fu[0])), np.concatenate((fp[1], fu[1])),
             np.concatenate((fp[2], -fu[2])))
    value = _pair_moment(2, union, -Y, Y, float(rng.k).is_integer())
    if value is None:
        value = trapezoid([fp, fu], -Y, Y, rng.X,
                          lambda alphas, s, u: np.abs(s - u) ** 2)

    X, k = rng.X, rng.k
    logX = math.log(X)
    j = selberg_integral(rng, 1.0 / (2.0 * Y), table)
    bound = X ** (2.0 / k - 2.0) * logX**2 / Y + Y**2 * X + Y**2 * j
    return MomentReport(exponent=2, lo=-Y, hi=Y, value=value, bound=bound,
                        X=X, k=k)


# ---------------------------------------------------------------------------
# generalized Selberg integral

def selberg_integral(rng: SumRange, h: float, table: PrimeTable) -> float:
    """Mean-square error of theta in short k-th power windows:

        integral over [X, 2X] of
          (theta((x+h)^(1/k)) - theta(x^(1/k)) - ((x+h)^(1/k) - x^(1/k)))^2 dx

    computed piecewise-exactly between consecutive jump abscissas of the two
    theta terms (the smooth correction is integrated by quadrature on each
    piece; for k = 1 it is constant and every piece is exact).
    """
    if not h > 0:
        raise DomainError(f"h must be positive, got {h}")
    X, k = rng.X, rng.k
    top = (2.0 * X + h) ** (1.0 / k)
    if top > table.limit:
        raise InsufficientTableError(
            f"selberg integral needs primes up to {top:.6g}, "
            f"table sieved to {table.limit}"
        )
    primes = table.primes.astype(np.float64)
    pk = primes**k
    jumps1 = pk[(pk >= X) & (pk <= 2.0 * X)]
    shifted = pk - h
    jumps2 = shifted[(shifted >= X) & (shifted <= 2.0 * X)]
    x = np.sort(np.concatenate(([X, 2.0 * X], jumps1, jumps2)))
    cuts = x[np.r_[True, x[1:] != x[:-1]]]
    x0s, x1s = cuts[:-1], cuts[1:]
    mids = 0.5 * (x0s + x1s)
    d = theta_many((mids + h) ** (1.0 / k), table) - theta_many(mids ** (1.0 / k), table)

    if k == 1.0:
        # correction term is exactly h on every piece
        return float(np.dot((d - h) ** 2, x1s - x0s))

    total = 0.0
    for x0, x1, dv in zip(x0s, x1s, d):
        half = 0.5 * (x1 - x0)
        t = 0.5 * (x0 + x1) + half * _GL8_NODES
        g = (t + h) ** (1.0 / k) - t ** (1.0 / k)
        total += half * float(np.dot(_GL8_WEIGHTS, (dv - g) ** 2))
    return total


# ---------------------------------------------------------------------------
# kernel-weighted moments (minor-arc machinery)

def _kernel_bound(p: int, eta: float, X: float, k: float) -> float:
    logX = math.log(X)
    if p == 2:
        return eta * X ** (1.0 / k) * logX**3
    if p == 4:
        return eta * max(X ** (2.0 / k), X ** (4.0 / k - 1.0)) * X**0.1
    if p == 8:
        if k != 3:
            raise DomainError("eighth-moment bound is specific to k = 3")
        return eta * X ** (5.0 / 3.0) * X**0.1
    raise DomainError(f"exponent must be one of 2, 4, 8, got {p}")


_EXACT_TAIL_PAIRS = 1 << 20  # most pairs whose tail terms are summed one by one
_TAIL_BLOCK = 1 << 16  # most pairs of one row block of _tail


def _identity(p: int, lam: float, eta: float, rng: SumRange, table: PrimeTable):
    """(t, t_lo, c, whole) for |S(lam a)|^p = |sum c e(t lam a)|^2, S the prime
    sum of `rng`, or None where the sums would pass MAX_GRID_VALUES.

    t, t_lo, c: the frequencies of S^(p/2) at scale 1 and their
    coefficients, as _coefficients gives them.  whole: the integral over
    the whole line of |S(lam a)|^p K_eta(a).  K_eta transforms to the tent
    max(0, eta - |xi|), so whole is the sum over i, j of c_i c_j max(0,
    eta - |lam (t_i - t_j)|), whose pairs closer than eta/|lam| are found
    by two searches over t.
    """
    coeffs = _coefficients(p, *sum_freqs("prime", rng, table),
                           float(rng.k).is_integer())
    if coeffs is None:
        return None
    t, t_lo, c = coeffs
    r = eta / abs(lam)
    a = np.searchsorted(t, t - r, side="right")
    n = np.searchsorted(t, t + r, side="left") - a
    if int(n.sum()) > MAX_GRID_VALUES:
        return None
    i = np.repeat(np.arange(len(t)), n)
    j = a[i] + np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
    whole = math.fsum(c[i] * c[j] * fejer_kernel_hat(lam * (t[i] - t[j]), eta))
    return t, t_lo, c, whole


_TAIL_TERMS = 16  # N: terms of the by-parts series of J
_TAIL_X_MIN = 100.0  # x = 2 pi |nu| R below which J is taken at 50 digits
_SERIES_A = [(-1) ** m * math.factorial(2 * m + 1) for m in range(_TAIL_TERMS // 2)]
_SERIES_B = [(-1) ** m * math.factorial(2 * m + 2) for m in range(_TAIL_TERMS // 2)]


def _J_mp(nu, R):
    """J(nu) = int_R^inf cos(2 pi nu a) a^-2 da = cos(cR)/R - c (pi/2 -
    Si(cR)), c = 2 pi |nu| (by parts), for mpf nu and R at the package's
    50 digits; the two terms cancel to about 1/(c R^2)."""
    c = 2 * mp.pi * abs(nu)
    return mp.cos(c * R) / R - c * (mp.pi / 2 - mp.si(c * R))


def _tail_J(s, lo, R: float, eps_nu: float):
    """J(nu) of _J_mp and a bound on its error for each nu = s + lo
    (arrays), the pairs themselves within eps_nu of the nu meant.

    With x = 2 pi |nu| R, J(nu) = (x/R) int_x^inf cos t t^-2 dt, and by
    parts int_x^inf e^(it) t^-2 dt = i e^(ix) sum_{j<N} (j+1)! (-i)^j /
    x^(j+2) + r, |r| <= N!/x^(N+1).  So, with y = 1/x and m < N/2,

        J = (B cos x - A sin x) / (x R) + r',  |r'| <= N! y^(N-1) / (x R),
        A = sum_m (-1)^m (2m+1)! y^2m,  B = sum_m (-1)^m (2m+2)! y^(2m+1).

    At x >= _TAIL_X_MIN = 100 and N = 16 the remainder is below 2^-55 of
    the scale 1/(x R).  cos x and sin x come from nu R reduced mod 1 by
    phase_frac on the pair (s, lo): x reaches about 1e10.  The error, in
    units of 1/(x R) and to first order in u (a factor 1.01 covers the
    higher orders and the bound's own roundings):
      - (j+1)! <= N^j, so |A| + |B| <= S = 1/(1 - N y) <= 1.2;
      - x: 2 pi (0.35 u), three roundings and nu's error, so eps_x = 4 u
        + eps_nu/|nu| <= 4 u + 7 R eps_nu / _TAIL_X_MIN; y: eps_x + u;
      - Horner in z = y^2, every factorial exact (odd parts below 2^53):
        gamma_2N S, and the perturbed powers of y and z: N (eps_x + 2 u) S;
      - phase: phase_frac's last rounding and nu's error with the
        second-order terms, u + 2 R eps_nu turns; 2 pi phi rounded and
        cos, sin within 4 ulp (numpy's SIMD bound): eps_cs = 2 pi (u +
        2 R eps_nu) + 16 u each, so eps_cs S;
      - B cos - A sin: gamma_2 S; the division by x R: (eps_x + 2 u) S;
      - the remainder N! y^(N-1).
    Below _TAIL_X_MIN each value is _J_mp at 50 digits of s + lo on its
    own, rounded once: u |J| + 1e-40/R, its terms being at most 160/R.
    nu = 0 is J = 1/R.  Both add pi^2 eps_nu, since |dJ/dnu| = 2 pi |pi/2
    - Si(2 pi |nu| R)| <= pi^2."""
    nu = s + lo
    x = (2.0 * np.pi * R) * np.abs(nu)
    far = x >= _TAIL_X_MIN
    J, err = np.empty_like(x), np.empty_like(x)
    xf = x[far]
    y = 1.0 / xf
    z = y * y
    A, B = polyval(z, _SERIES_A), y * polyval(z, _SERIES_B)  # Horner
    phase = 2.0 * np.pi * phase_frac(s[far], lo[far], R)
    J[far] = (B * np.cos(phase)
              - A * np.sign(nu[far]) * np.sin(phase)) / (xf * R)
    N = _TAIL_TERMS
    eps_x = 4.0 * U + 7.0 * R * eps_nu / _TAIL_X_MIN
    eps_cs = 2.0 * np.pi * (U + 2.0 * R * eps_nu) + 16.0 * U
    eps = (higham_gamma(2 * N) + N * (eps_x + 2.0 * U) + eps_cs
           + higham_gamma(2) + eps_x + 2.0 * U)
    err[far] = 1.01 * (eps / (1.0 - N * y)
                       + math.factorial(N) * y ** (N - 1)) / (xf * R)
    near = np.flatnonzero(~far)
    J[near] = [float(_J_mp(mp.mpf(a) + mp.mpf(b), mp.mpf(R))) if n else 1.0 / R
               for a, b, n in zip(s[near], lo[near], nu[near])]
    err[near] = U * np.abs(J[near]) + 1e-40 / R + np.pi**2 * eps_nu
    return J, err


def _cos_tails(lam: float, dh, dl, R: float, eta: float, size: float):
    """T(lam d) and a bound on its error for each d = dh + dl (arrays),
    where T(xi) is the integral over [R, inf) of cos(2 pi xi a) K_eta(a) da.
    K_eta(a) = (1 - cos 2 pi eta a) / (2 pi^2 a^2), so

        T(xi) = (2 J(xi) - J(xi + eta) - J(xi - eta)) / (4 pi^2),

    J as in _tail_J.  Each nu = lam d +- eta is a pair (s, lo): two_prod
    of lam and dh with lam dl added to its error, and eta by two_sum.
    size bounds |lam| (|t_i| + |t_j|) over the differences d = t_j - t_i,
    and each t_lo is at most 4 u |t| (as _coefficients forms them), so dl
    is within 9 u^2 (|t_i| + |t_j|) of the exact difference less dh, and
    with the roundings of lam dl, of its sum and of lo every nu is within
    eps_nu = 32 u^2 (size + eta).  The combination and the factor
    1/(4 pi^2) add 6 u (2 |J(xi)| + |J(xi + eta)| + |J(xi - eta)|) /
    (4 pi^2)."""
    p, e = two_prod(lam, dh)
    e = e + lam * dl
    eps_nu = 32.0 * U * U * (size + eta)
    J, E = [], []
    for shift in (0.0, eta, -eta):
        s, e2 = two_sum(p, shift)
        j, r = _tail_J(s, e2 + e, R, eps_nu)
        J.append(j)
        E.append(r)
    K = 1.0 / (4.0 * math.pi**2)
    T = (2.0 * J[0] - J[1] - J[2]) * K
    err = 1.01 * K * (2.0 * E[0] + E[1] + E[2] + 6.0 * U * (
        2.0 * np.abs(J[0]) + np.abs(J[1]) + np.abs(J[2])))
    return T, err


def _tail(t, t_lo, c, lam: float, eta: float, R: float, pairs: bool):
    """(tail, err): the integral over [R, inf) of |sum c e((t + t_lo) lam
    a)|^2 K_eta(a), summed pair by pair, sum c^2 T(0) + sum over i < j of
    2 c_i c_j T(lam (t_j - t_i)), or (not pairs) its mean term sum c^2 T(0)
    alone, each difference formed as in _pair_sum; err bounds the float
    error of that sum: each T's (_cos_tails) times its weight, the
    roundings of sum c^2 and of the products c_i c_j T (2 u each, 3 u on
    the diagonal) and of the final rounding (u), times 1.01.  The pairs
    are taken in blocks of whole rows i, at most _TAIL_BLOCK pairs each,
    and their terms added exactly (precision.fixed_sum), so the tail is
    the exact sum of the terms rounded once, math.fsum's value."""
    th, tl = _hi_lo(t, t_lo)
    size = 2.0 * abs(lam) * float(np.max(np.abs(th), initial=0.0))
    T0, E0 = _cos_tails(lam, np.zeros(1), np.zeros(1), R, eta, size)
    sq = math.fsum(c * c)
    total, bound = fixed_sum(sq * T0), 0
    n = len(t) if pairs else 0
    rows = np.arange(n)
    ends = np.cumsum(n - 1 - rows)  # the pairs (i, j > i) of rows 0 .. i
    r0 = 0
    while r0 < n - 1:  # rows r0 .. r1-1, at most _TAIL_BLOCK pairs
        r1 = int(np.searchsorted(ends, ends[r0] - (n - 1 - r0) + _TAIL_BLOCK,
                                 "right"))
        i = np.repeat(rows[r0:r1], n - 1 - rows[r0:r1])
        j = np.concatenate([rows[r + 1 :] for r in range(r0, r1)])
        dh, de = two_sum(th[j], -th[i])
        T, E = _cos_tails(lam, dh, de + (tl[j] - tl[i]), R, eta, size)
        w = 2.0 * c[i] * c[j]
        terms = w * T
        total += fixed_sum(terms)
        bound += fixed_sum(np.abs(w) * E + 2.0 * U * np.abs(terms))
        r0 = r1
    tail = fixed_to_float(total)
    err = 1.01 * (fixed_to_float(bound) + sq * (E0[0] + 3.0 * U * abs(T0[0]))
                  + U * abs(tail))
    return tail, err


def _remainder_bound(t, c, lam: float, eta: float, R: float) -> float:
    """Certified bound on |sum over i != j of c_i c_j T(lam (t_i - t_j))|,
    the part of the tail past R that its mean term sum c^2 T(0) leaves out.

    By parts, |int_R^inf cos(2 pi nu a) a^-2 da| <= m(nu) = min(1/R,
    1/(pi |nu| R^2)), so |T(xi)| <= B(|xi|) = (m(|xi|) + m(max(0, |xi| -
    eta))) / (2 pi^2), nonincreasing.  The partners of each t_i are grouped
    in shells |xi| in [0, eta) and [eta 2^s, eta 2^(s+1)), each charged B
    at its inner edge; the shell masses are differences of one cumulative
    sum of c at searched edges."""
    if len(t) < 2:
        return 0.0
    a = abs(lam)

    def m(nu):
        return 1.0 / R if nu <= 0 else min(1.0 / R, 1.0 / (math.pi * nu * R * R))

    def B(x):
        return (m(x) + m(x - eta)) / (2.0 * math.pi**2)

    cum = np.concatenate(([0.0], np.cumsum(c)))

    def mass(x):  # sum of c_j over |lam (t_j - t_i)| < x, for every i
        return (cum[np.searchsorted(t, t + x / a, side="left")]
                - cum[np.searchsorted(t, t - x / a, side="right")])

    span = a * float(t[-1] - t[0])
    inner = mass(eta)
    total = float(np.dot(c, inner - c)) * B(0.0)
    x = eta
    while x <= span:
        outer = mass(2.0 * x)
        total += float(np.dot(c, outer - inner)) * B(x)
        inner, x = outer, 2.0 * x
    return total


def kernel_moment(p: int, lam: float, lo: float, hi: float, eta: float,
                  rng: SumRange, table: PrimeTable) -> MomentReport:
    """Integral of |S_k(lam * alpha)|^p K_eta(alpha) over [lo, hi], hi
    possibly inf, by Fourier duality.

    With [lo, hi] reflected so that |lo| <= hi (the integrand is even),

        value = whole / 2 - sign(lo) int_0^|lo| - int_hi^inf,

    where whole, the integral over the whole line, is a finite sum over
    the frequencies t and coefficients c of S^(p/2) (see _identity).  For
    integer k and |lam| >= eta every nonzero |lam (t_i - t_j)| is at least
    eta, so whole = eta sum c^2: eta times the weighted count of equal
    (p/2)-fold sums of k-th powers of primes.

    Head: one trapezoid over [0, |lo|], whose O(h^2) endpoint error
    (about 1e-6 of the head at X = 1000) no bound here covers.  Tail:
    each pair's c_i c_j int_hi^inf cos(2 pi lam (t_i - t_j) a) K_eta(a) da
    (p = 2, up to _EXACT_TAIL_PAIRS pairs), else the mean term sum c^2
    int_hi^inf K_eta, off by at most _remainder_bound; both in float64
    (_tail).  The report's tail_bound is the certified float error of
    the tail summed, plus _remainder_bound for the mean term (0 where no
    tail is taken: hi = inf and the trapezoid fallback).  Where the sums pass
    MAX_GRID_VALUES, [lo, hi] is one trapezoid instead.  Bad
    arguments, an unsupported p and over-large grids are refused before
    any value is evaluated.
    """
    if not 0 < eta < 1:
        raise DomainError(f"eta must be in (0,1), got {eta}")
    if not (math.isfinite(lam) and lam != 0):
        raise DomainError(f"lam must be finite and nonzero, got {lam}")
    if not (math.isfinite(lo) and lo < hi):
        raise DomainError(f"need finite lo < hi (hi may be inf), got [{lo}, {hi}]")
    X = rng.X
    bound = _kernel_bound(p, eta, X, rng.k)
    band = X * max(1.0, abs(lam))
    f = sum_freqs("prime", rng, table, scale=lam)

    def integrand(alphas, s):
        return np.abs(s) ** p * fejer_kernel(alphas, eta)

    a, b = (-hi, -lo) if hi <= 0 or -lo > hi else (lo, hi)
    ident = _identity(p, lam, eta, rng, table)
    tail_bound = 0.0
    if ident is None:
        if b == math.inf:
            raise DomainError(f"p = {p} at X = {X} needs the trapezoid, "
                              "which needs a finite hi")
        value = trapezoid([f], lo, hi, band, integrand)
    else:
        t, t_lo, c, whole = ident
        head = trapezoid([f], 0.0, abs(a), band, integrand) if a != 0 else 0.0
        if b == math.inf:
            tail = 0.0
        else:
            pairs = p == 2 and len(t) * (len(t) - 1) // 2 <= _EXACT_TAIL_PAIRS
            tail, tail_bound = _tail(t, t_lo, c, lam, eta, b, pairs)
            if not pairs:
                tail_bound += _remainder_bound(t, c, lam, eta, b)
        value = 0.5 * whole - math.copysign(head, a) - tail
    return MomentReport(exponent=p, lo=lo, hi=hi, value=value, bound=bound,
                        X=X, k=rng.k, eta=eta, tail_bound=tail_bound)
