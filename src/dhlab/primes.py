"""Prime generation and the Chebyshev theta function.

Every weighted sum in the package draws its support from a PrimeTable and a
SumRange: the window of primes p with delta*X <= p**k <= X, both ends
inclusive.  Boundary membership is decided exactly (integer arithmetic) for
integer k and in 50-digit arithmetic otherwise, because a double rounding at
the boundary changes set membership and hence every downstream sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from mpmath import mp

from .errors import DomainError, EmptyDomainError, InsufficientTableError
from .precision import _dyadic, kahan_cumsum

SEGMENT = 1 << 18  # fixed segment size: cache friendly, deterministic


@dataclass(eq=False)
class PrimeTable:
    """All primes up to `limit`, ascending, with cached log machinery.

    `freq_cache` holds the frequency ensembles `expsums.sum_freqs` built
    from this table, keyed by (SumRange, scale), and the points plans
    `expsums.prime_points_plan` built, keyed by ("points", SumRange).
    """

    limit: int
    primes: np.ndarray
    _logs: np.ndarray | None = field(default=None, repr=False)
    _cumlog: np.ndarray | None = field(default=None, repr=False)
    freq_cache: dict = field(default_factory=dict, repr=False)

    @property
    def logs(self) -> np.ndarray:
        if self._logs is None:
            self._logs = np.log(self.primes.astype(np.float64))
        return self._logs

    @property
    def cumlog(self) -> np.ndarray:
        """Compensated running sums of log p; cumlog[i] = theta(primes[i])."""
        if self._cumlog is None:
            self._cumlog = kahan_cumsum(self.logs)
        return self._cumlog

    def __len__(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class SumRange:
    """Summation window delta*X <= p**k <= X (both boundaries inclusive)."""

    k: float
    delta: float
    X: float

    def __post_init__(self):
        if not self.k > 0:
            raise DomainError(f"k must be positive, got {self.k}")
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must be in (0,1), got {self.delta}")
        if not 0 < self.X < math.inf:
            raise DomainError(f"X must be positive and finite, got {self.X}")

    @property
    def lo(self) -> float:
        """Lower window edge (delta*X)**(1/k) in float64."""
        return (self.delta * self.X) ** (1.0 / self.k)

    @property
    def hi(self) -> float:
        """Upper window edge X**(1/k) in float64."""
        return self.X ** (1.0 / self.k)


def sieve(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to `limit` (inclusive).

    Memory stays O(sqrt(limit) + SEGMENT) so limits up to 1e9 are feasible.
    """
    limit = int(limit)
    if limit < 2:
        raise EmptyDomainError(f"sieve limit must be >= 2, got {limit}")

    root = math.isqrt(limit)
    base_flags = np.ones(root + 1, dtype=bool)
    base_flags[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base_flags[p]:
            base_flags[p * p :: p] = False
    base_primes = np.nonzero(base_flags)[0]

    chunks = [base_primes[base_primes <= limit]]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base_primes:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            seg[start - lo :: p] = False
        chunks.append(np.nonzero(seg)[0] + lo)
        lo = hi

    primes = np.concatenate(chunks).astype(np.int64, copy=False)
    return PrimeTable(limit=limit, primes=primes)


def theta(x: float, table: PrimeTable) -> float:
    """Chebyshev theta(x) = sum of log p over primes p <= x."""
    return float(theta_many(x, table))


def theta_many(xs: np.ndarray, table: PrimeTable) -> np.ndarray:
    """Vectorized theta over an array of points (each <= limit, not NaN)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and not float(np.max(xs)) <= table.limit:
        raise InsufficientTableError(
            f"theta needs primes up to {np.max(xs)}, table sieved to {table.limit}"
        )
    idx = np.searchsorted(table.primes, np.floor(xs), side="right")
    out = np.zeros(xs.shape, dtype=np.float64)
    nz = idx > 0
    out[nz] = table.cumlog[idx[nz] - 1]
    return out


def _in_window(p: int, rng: SumRange) -> bool:
    """Exact boundary test delta*X <= p**k <= X for a single candidate: for
    dyadic k = m / 2^e (integer k too) p^m against the float edges raised
    to 2^e, in rationals; for other k, k log p at 50 digits."""
    me = _dyadic(rng.k)
    if me is not None:
        m, e = me
        return (Fraction(rng.delta * rng.X) ** (1 << e) <= p**m
                <= Fraction(rng.X) ** (1 << e))
    t = mp.mpf(rng.k) * mp.log(p)
    return mp.log(rng.delta * rng.X) <= t <= mp.log(rng.X)


def window_indices(rng: SumRange, table: PrimeTable) -> tuple[int, int]:
    """Index half-open range [i0, i1) of table.primes inside the window.

    The float64 window edges are only trusted away from the boundary; the
    few candidates within rounding distance of either edge are re-decided
    with the exact test.
    """
    if rng.hi > table.limit:
        raise InsufficientTableError(
            f"window reaches {rng.hi:.6g}, table sieved to {table.limit}"
        )
    primes = table.primes
    slack_lo = max(1e-9 * rng.lo, 1e-9)
    slack_hi = max(1e-9 * rng.hi, 1e-9)
    i0 = int(np.searchsorted(primes, rng.lo - slack_lo, side="left"))
    i1 = int(np.searchsorted(primes, rng.hi + slack_hi, side="right"))
    while i0 < i1 and not _in_window(int(primes[i0]), rng):
        i0 += 1
    while i1 > i0 and not _in_window(int(primes[i1 - 1]), rng):
        i1 -= 1
    return i0, i1


def window_arrays(rng: SumRange, table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """(primes, log primes) arrays for the window, shared views of the table."""
    i0, i1 = window_indices(rng, table)
    return table.primes[i0:i1], table.logs[i0:i1]


def primes_in_range(rng: SumRange, table: PrimeTable) -> list[tuple[int, float]]:
    """The primes with delta*X <= p**k <= X, paired with their logs."""
    ps, logs = window_arrays(rng, table)
    return [(int(p), float(l)) for p, l in zip(ps, logs)]


def integers_in_range(rng: SumRange) -> np.ndarray:
    """Integers n >= 1 with delta*X <= n**k <= X, same boundary contract.

    Only integers within one unit of the float64 window edges need the
    exact test; the interior is certain.
    """
    start = max(1, math.floor(rng.lo) - 1)
    end = math.ceil(rng.hi) + 1  # inclusive
    head_end = min(start + 4, end + 1)  # head [start, head_end), <= 4 long
    tail_start = max(head_end, end - 3)  # tail [tail_start, end], <= 4 long
    head = [n for n in range(start, head_end) if _in_window(n, rng)]
    tail = [n for n in range(tail_start, end + 1) if _in_window(n, rng)]
    return np.concatenate([np.asarray(head, dtype=np.int64),
                           np.arange(head_end, tail_start, dtype=np.int64),
                           np.asarray(tail, dtype=np.int64)])
