"""Moment integrals and counting machinery behind the bound suite.

The quadruple counter is exact: integer arithmetic when k is an integer,
and correctly-rounded powers with boundary-safe window counting otherwise,
so it agrees with an exhaustive enumeration term for term.  The moment
integrals are trapezoid sums on the 64x-oversampled grids of
`expsums.trapezoid_step`, which for periodic integrands of bandwidth below
the sampling rate is exact up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from mpmath import mp

from .errors import DomainError, InsufficientTableError
from .expsums import (fejer_kernel, iter_grid_values, sum_freqs, trapezoid,
                      trapezoid_step)
from .primes import PrimeTable, SumRange, theta_many

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass
class QuadrupleCount:
    """Result of the near-equal-pair-sums count on (N, 2N]."""

    N: int
    k: float
    gamma: float
    count: int


@dataclass
class MomentReport:
    """One moment integral with its comparison bound."""

    exponent: int
    lo: float
    hi: float
    value: float
    bound: float
    ratio: float
    X: float
    k: float
    eta: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# quadruple counting (meet in the middle)

def _power_values(N: int, k: float) -> np.ndarray:
    """n**k for n in (N, 2N]: exact int64 when k is integral, else the
    correctly rounded float64 (computed in 50-digit arithmetic)."""
    ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    if float(k).is_integer():
        return ns ** int(k)
    return np.array([float(mp.power(int(n), mp.mpf(k))) for n in ns])


def count_quadruples(N: int, k: float, gamma: float) -> QuadrupleCount:
    """Count ordered (n1,n2,n3,n4), N < ni <= 2N, |n1^k+n2^k-n3^k-n4^k| < gamma.

    Strictly below gamma.  Meet in the middle: sort the N^2 ordered pair
    sums, then count window partners for every pair sum, O(N^2 log N).
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    vals = _power_values(N, k)
    sums = np.sort((vals[:, None] + vals[None, :]).ravel())

    if sums.dtype.kind == "i":
        # integer sums: |d| < gamma  <=>  |d| <= g with g integral
        g = int(math.ceil(gamma)) - 1 if float(gamma).is_integer() else int(math.floor(gamma))
        lo = np.searchsorted(sums, sums - g, side="left")
        hi = np.searchsorted(sums, sums + g, side="right")
        total = int(np.sum(hi - lo))
        return QuadrupleCount(N=N, k=k, gamma=gamma, count=total)

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
    return QuadrupleCount(N=N, k=k, gamma=gamma, count=total)


# ---------------------------------------------------------------------------
# trapezoid moments

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


def moment_integral(kind: str, p: int, interval: tuple[float, float],
                    rng: SumRange, table: PrimeTable) -> MomentReport:
    """Trapezoid integral of |sum|^p over `interval`, with comparison bound.

    kind 'S1' integrates the linear prime sum on the window [delta X, X];
    kind 'Sk' uses the k of `rng`.
    """
    if kind == "S1":
        rng = SumRange(1.0, rng.delta, rng.X)
    elif kind != "Sk":
        raise DomainError(f"kind must be 'S1' or 'Sk', got {kind!r}")
    lo, hi = float(interval[0]), float(interval[1])
    bound = _moment_bound(p, max(abs(lo), abs(hi)), rng.X, rng.k)
    value = trapezoid([sum_freqs("prime", rng, table)], lo, hi, rng.X,
                      lambda alphas, s: np.abs(s) ** p)
    return MomentReport(exponent=p, lo=lo, hi=hi, value=value, bound=bound,
                        ratio=value / bound if bound > 0 else math.inf,
                        X=rng.X, k=rng.k)


def exp_sum_gap_l2(Y: float, rng: SumRange, table: PrimeTable) -> MomentReport:
    """Integral of |prime sum - integer sum|^2 over [-Y, Y], with the
    short-window variance bound as comparison."""
    if not 0 < Y <= 0.5:
        raise DomainError(f"Y must be in (0, 1/2], got {Y}")
    value = trapezoid([sum_freqs("prime", rng, table), sum_freqs("integer", rng)],
                      -Y, Y, rng.X, lambda alphas, s, u: np.abs(s - u) ** 2)

    X, k = rng.X, rng.k
    logX = math.log(X)
    j = selberg_integral(rng, 1.0 / (2.0 * Y), table)
    bound = X ** (2.0 / k - 2.0) * logX**2 / Y + Y**2 * X + Y**2 * j
    return MomentReport(exponent=2, lo=-Y, hi=Y, value=value, bound=bound,
                        ratio=value / bound if bound > 0 else math.inf,
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
    cuts = np.unique(np.concatenate(([X, 2.0 * X], jumps1, jumps2)))
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


def kernel_moment(p: int, lam: float, lo: float, hi: float, eta: float,
                  rng: SumRange, table: PrimeTable) -> MomentReport:
    """Integral of |S_k(lam * alpha)|^p K_eta(alpha) over [lo, hi].

    Past 1/eta the kernel decays like alpha^-2.  For integer k the sum is
    periodic with period 1/|lam| there, so a straight trapezoid covers the
    head up to 1/eta and one sampled period serves the whole tail.
    Otherwise [lo, hi] is one trapezoid.  Both grids follow trapezoid_step,
    and an over-large one is refused before any value is evaluated.
    """
    if not 0 < eta < 1:
        raise DomainError(f"eta must be in (0,1), got {eta}")
    if hi <= lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    X = rng.X
    band = X * max(1.0, abs(lam))
    split = min(hi, max(lo, 1.0 / eta))
    periodic = float(rng.k).is_integer() and hi > split
    top = split if periodic else hi
    if periodic:  # refuse an over-large sample before the head is evaluated
        period = 1.0 / abs(lam)
        n, h = trapezoid_step(0.0, period, band)

    f = sum_freqs("prime", rng, table, scale=lam)
    partials = []

    if top > lo:
        partials.append(trapezoid(
            [f], lo, top, band,
            lambda alphas, s: np.abs(s) ** p * fejer_kernel(alphas, eta)))

    if periodic:
        fvals = np.concatenate([np.abs(block) ** p for _, block
                                in iter_grid_values(*f, split, h, n)])
        # past ~8/eta the kernel's oscillation is slow on the period
        # scale, so the period mean of |sum|^p decouples from it
        near_hi = min(hi, max(8.0 / eta, split + 4.0 * period))
        m_whole = int((near_hi - split) / period)
        rem_start = split + m_whole * period
        # (start, node count) of each sampled period, then the partial one
        spans = [(split + m * period, n) for m in range(m_whole)]
        if near_hi >= hi and hi > rem_start:
            spans.append((rem_start, min(n, int(math.ceil((hi - rem_start) / h)))))
        offsets = np.arange(n) * h
        acc = [float(np.dot(fvals[:c], fejer_kernel(s + offsets[:c], eta))) * h
               for s, c in spans]
        if hi > near_hi:
            fbar = float(np.mean(fvals))
            kstep = min(1.0 / (8.0 * eta), max((hi - rem_start) / 1000.0, 1e-3))
            m = max(2, int(math.ceil((hi - rem_start) / kstep)))
            grid = np.linspace(rem_start, hi, m + 1)
            kv = fejer_kernel(grid, eta)
            acc.append(fbar * float(np.trapezoid(kv, grid)))
        partials.append(math.fsum(acc))

    value = math.fsum(partials)
    bound = _kernel_bound(p, eta, X, rng.k)
    return MomentReport(exponent=p, lo=lo, hi=hi, value=value, bound=bound,
                        ratio=value / bound if bound > 0 else math.inf,
                        X=X, k=rng.k, eta=eta)
