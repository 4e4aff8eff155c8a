"""Direct enumeration of prime solutions and the kernel-integral cross-check.

A solution of one ProblemInstance at scale X and width eta is an ordered
prime triple (p1, p2, p3) inside the summation windows with

    |l1 p1 + l2 p2 + l3 p3^k - omega| <= eta.

Admission is a filtered-exact decision: float64 windows propose candidates,
their residuals are formed in double-double under a certified error bound,
and only the candidates that bound leaves undecided are rechecked in 50-digit
arithmetic, so the admitted set and stored residuals are those of a 50-digit
enumeration.  A 1e-14 * eta guard band flags records that sit essentially on
the boundary.  By Fourier inversion the weighted count
W = sum(w * max(0, eta - residual)) equals the real-line integral of
S1(l1 a) S1(l2 a) Sk(l3 a) K_eta(a) e(-omega a), which `solution_integral`
approximates on a finite interval; the pair is the package's central
correctness check.  `weighted_count` computes W, rounded once from its exact
sum, so it does not depend on the order of the records.

The enumeration is one set-up (`Enumeration`) and one generator of column
chunks in (p3, p1, p2) order over any share of its p3 rows:
`enumerate_solutions` joins the chunks of a single share, and `level_sums`
runs one share per CPU of the process's affinity mask on threads and
reduces each to counts and W at several widths without holding the
records.  The shares' partial sums are exact integers and their smallest
residuals are merged in (p3, p1, p2) order, so the result does not depend
on the number of shares.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from . import expsums
from .arcs import choose_parameters
from .errors import DomainError
from .expsums import fejer_kernel, prime_exp_sum, sum_freqs, trapezoid
from .precision import (TWO_PI_I, U, dd_from_mpf, fixed_sum,
                        fixed_to_float, phase_frac, pow_mp, two_prod, two_sum)
from .primes import PrimeTable, SumRange, window_arrays

BOUNDARY_BAND = 1e-14


@dataclass(frozen=True)
class ProblemInstance:
    """One inequality |l1 p1 + l2 p2 + l3 p3^k - omega| <= eta to study."""

    lambda1: float
    lambda2: float
    lambda3: float
    k: float
    omega: float
    delta: float = 0.1
    epsilon: float = 0.01

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        if 0.0 in (self.lambda1, self.lambda2, self.lambda3):
            raise DomainError("coefficients must be nonzero")
        if not 1.0 < self.k <= 3.0:
            raise DomainError(f"k must be in (1, 3], got {self.k}")
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must be in (0,1), got {self.delta}")
        if not self.epsilon > 0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def lambdas(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)

    @property
    def same_sign(self) -> bool:
        """True when all coefficients share a sign (hypothesis violation)."""
        signs = {math.copysign(1.0, l) for l in self.lambdas}
        return len(signs) == 1

    def linear_range(self, X: float) -> SumRange:
        return SumRange(1.0, self.delta, X)

    def power_range(self, X: float) -> SumRange:
        return SumRange(self.k, self.delta, X)


@dataclass(frozen=True)
class SolutionRecord:
    """One admitted ordered triple with its residual and log-weight."""

    p1: int
    p2: int
    p3: int
    residual: float
    weight: float
    boundary: bool = False

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.p1, self.p2, self.p3)


@dataclass(frozen=True, eq=False)
class Solutions:
    """Admitted triples as columns, in (p3, p1, p2) order.

    `candidates` counts the triples the float64 windows proposed, and
    `exact_fallbacks` those of them the double-double bound left undecided,
    which the 50-digit path then decided.  Iterating yields SolutionRecords.
    """

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    residual: np.ndarray
    weight: np.ndarray
    boundary: np.ndarray
    candidates: int = 0
    exact_fallbacks: int = 0

    @classmethod
    def empty(cls) -> "Solutions":
        ints = np.empty(0, dtype=np.int64)
        floats = np.empty(0, dtype=np.float64)
        return cls(ints, ints, ints, floats, floats, np.empty(0, dtype=bool))

    def __len__(self) -> int:
        return len(self.p1)

    def __iter__(self):
        cols = (self.p1, self.p2, self.p3, self.residual, self.weight,
                self.boundary)
        for row in zip(*(c.tolist() for c in cols)):
            yield SolutionRecord(*row)


def _dd_residuals(a1_hi, a1_lo, a2_hi, a2_lo, base, mag, exact_base=False,
                  eta=math.inf):
    """Residuals l1 p1 + l2 p2 + base as (r_hi, err, rounded): |R - r_hi| <=
    err, and float(|R|) == |r_hi| where `rounded`.

    l1 p1 = a1_hi + a1_lo and l2 p2 = a2_hi + a2_lo exactly (two_prod);
    `base` is the 50-digit l3 p3^k - omega, split by dd_from_mpf; `mag`
    bounds |l1 p1| + |l2 p2|.  R is the residual the 50-digit path
    computes: mp.fsum of l1 p1, l2 p2, l3 p3^k and -omega, which rounds
    their exact sum once to 169 bits.  Each term is exact at 169 bits (for
    integer k), so R is the correctly rounded residual even under total
    cancellation.  Callers add eta into `mag`, so that err also covers the
    169-bit rounding of |R| - eta in the band test.

    The bound: base splits as bh + bl with |base - bh - bl| <= u^2 |bh|
    (u = 2^-53), and two_sum makes a1_hi + a2_hi + bh = s2 + e1 + e2 exactly
    with |e1| <= u|s1|, |e2| <= u|s2|.  The five low parts are summed in
    float64, erring by at most gamma_4 = 4u/(1-4u) times their magnitude,
    itself at most 3u(1+3u) M with M = mag + |bh|.  So r_hi + r_lo lies
    within 13.01 u^2 M of l1 p1 + l2 p2 + base.  base is l3 p3^k - omega
    rounded once and R the exact residual rounded once, each within 2^-169
    of its magnitude, so R lies within 2^-167 M of that.  err = |r_lo| +
    16 u^2 M covers both, with the slack absorbing the float64 rounding of
    err itself.

    Rounding: `_rounds_alike`, or where `exact_base` (bh + bl is l3 p3^k -
    omega exactly) and no low-part addition rounds: r_hi + r_lo is then the
    exact residual, so R itself at a tie (54 bits), which two_sum rounded
    half to even as float(R) does; off a tie |r_lo| is 2^-54 half an ulp
    inside it, far beyond R's 2^-169.  If also r_lo == 0, R == r_hi and
    err = 0, checked where |eta - |r_hi|| < 2 err (ties on eta).
    """
    b_hi, b_lo = base
    s1, e1 = two_sum(a1_hi, a2_hi)
    s2, e2 = two_sum(s1, b_hi)
    lo_a, lo_b = a1_lo + a2_lo, b_lo + (e1 + e2)
    r_hi, r_lo = two_sum(s2, lo_a + lo_b)
    err = np.abs(r_lo) + 16.0 * U * U * (mag + abs(b_hi))
    rounded = _rounds_alike(r_hi, err)
    if exact_base:
        tie = (r_lo == 0) & (np.abs(eta - np.abs(r_hi)) < 2.0 * err)
        c = np.flatnonzero(~rounded | tie)
        exact = ((two_sum(a1_lo[c], a2_lo[c])[1] == 0)
                 & (two_sum(e1[c], e2[c])[1] == 0)
                 & (two_sum(b_lo, e1[c] + e2[c])[1] == 0)
                 & (two_sum(lo_a[c], lo_b[c])[1] == 0))
        rounded[c] |= exact
        err[c[exact & (r_lo[c] == 0)]] = 0.0
    return r_hi, err, rounded


def _rounds_alike(r_hi, err):
    """Whether every R with |R - r_hi| <= err has float(|R|) == |r_hi|."""
    res = np.abs(r_hi)  # the gap below a power of two is the smaller one
    return err < 0.5 * (res - np.nextafter(res, 0.0))


def _certify(r_hi, err, rounded, eta, band_hi, band_lo):
    """(admit, boundary, decided) for residuals known as |R - r_hi| <= err,
    with float(|R|) == |r_hi| where `rounded`.

    Where `decided`, admit is |R| <= eta, boundary is
    |R| >= eta - (band_hi + band_lo) on admitted entries, and float(|R|) is
    |r_hi|, for every such R.  Each test demands a margin of twice the
    uncertainty (none at err == 0, where R == r_hi), which also covers the
    float64 rounding of the margins.
    """
    res = np.abs(r_hi)
    gap = eta - res  # exact wherever it is small (Sterbenz)
    over_band = gap - band_hi
    admit = gap >= 0
    band_tol = 2.0 * (err + abs(band_lo) + 2.0 * U * np.abs(gap))
    decided = (np.abs(gap) >= 2.0 * err) & (
        ~admit | (np.abs(over_band) > band_tol) & rounded)
    return admit, over_band <= 0, decided


class Lattice:
    """The candidates of an `Enumeration`, found on the integer line.

    `candidates(t, b0, b1)` returns the pairs (i, j) of window indices with
    fl(rel - s) <= fl(l2 p2) <= fl(rel + s), rel = fl(t - fl(l1 p1)) and s
    = lo_shift, in (i, p2) order: np.searchsorted's pairs over the sorted
    l2 p2, for either sign of l2.  The products are formed at the hits
    alone.  `slot[q - q0]` is True where 2q + 1 is a window prime (2 on the
    slot of 1), one byte per odd integer, and both ends are False for the
    clip of np.take.  A hit's window index is the count of True slots
    before it: `rank` holds that count at every eighth slot, and the bytes
    below the hit in its 8-byte word add the rest (np.bitwise_count).  A
    probe reads the nd = floor(hw + w/2) + 1 slots from ceil(y), y = (c -
    hw - w - 1)/2 - q0 with c = (t - a1)/l2 and a1 = fl(l1 p1); only its
    hits take the float test.  2 takes the slot of 1, which w = 1 (if 2 is
    in the window) reaches.

    The certificate of hw = s/|l2| + tol, for u = 2^-53 and M a bound of
    |t/l2| + |a1/l2| + the largest prime + 2|q0| + hw + 2: the float test's
    three roundings put an admitted p2 within s/|l2| + e of c, e <= 3.01uM.
    y = fl(K - c1), c1 = fl(a1/l2)/2, K = fl(fl(t/l2)/2 - shift) and shift
    = fl(fl(fl(hw + w) + 1)/2 + q0), is seven roundings of at most uM/2
    from its exact value Y.  With tol = 65uM (M counted with s/|l2| for hw),
    an admitted p2 in slot q - q0 (2q + 1, or 1 for 2, which w pays for)
    has q - q0 >= Y + (tol - e)/2 - uM > y, so q - q0 >= ceil(y), and
    q - q0 - ceil(y) <= s/|l2| + w/2 + tol/2 + 6.52uM < fl(hw + w/2), so it
    is below nd.  An interval wider than the table reads all of it: nd is
    capped at its length and y clipped to [0, nd].
    """

    def __init__(self, p1s, l1, l2, lo_shift, t_max):
        self.p1s, self.l1, self.l2, self.lo_shift = p1s, l1, l2, lo_shift
        q0 = (int(p1s[0]) - 1) // 2 - 1  # 2 lands on the slot of 1
        n = (int(p1s[-1]) - 1) // 2 - q0 + 2
        # whole 8-byte words, the padding False: slot is the first n bytes
        buf = np.zeros(-(-n // 8) * 8, dtype=bool)
        buf[(p1s - 1) // 2 - q0] = True
        self.slot, self.words = buf[:n], buf.view("<u8")
        self.rank = np.zeros(len(self.words), dtype=np.int32)
        np.cumsum(np.bitwise_count(self.words[:-1]), dtype=np.int32,
                  out=self.rank[1:])
        w = 1.0 if p1s[0] == 2 else 0.0
        # max |fl(l1 p1)| is at the largest p1: rounding is monotone
        M = ((t_max + abs(l1) * float(p1s[-1]) + lo_shift) / abs(l2)
             + float(p1s[-1]) + 2.0 * abs(q0) + 3.0)
        if not M < math.inf:
            raise DomainError(f"l2 = {l2} too small to probe on the integers")
        hw = lo_shift / abs(l2) + 65.0 * U * M
        self.nd = int(min(hw + 0.5 * w, n - 1)) + 1
        self.shift = ((hw + w) + 1.0) * 0.5 + q0
        self.c1 = np.multiply(l1, p1s, dtype=np.float64)  # a1
        self.c1 /= 2.0 * l2  # fl(a1/l2)/2: halving commutes with fl

    def candidates(self, t, b0, b1):
        """The pairs (i, j) at target t for the p1 of indices b0 .. b1-1."""
        y = np.subtract(t / self.l2 * 0.5 - self.shift, self.c1[b0:b1])
        if self.nd == len(self.slot):
            np.clip(y, 0.0, self.nd, out=y)
        s = np.ceil(y, out=y).astype(np.intp)
        if self.nd > 1:
            s = (s[:, None] + np.arange(self.nd)).ravel()
        f = np.flatnonzero(np.take(self.slot, s, mode="clip"))
        s = s[f]
        word = s >> 3
        j = self.rank[word] + np.bitwise_count(
            self.words[word] & _BYTES_BELOW[s & 7])
        i = f // self.nd + b0
        rel = t - self.l1 * self.p1s[i].astype(np.float64)
        v = self.l2 * self.p1s[j].astype(np.float64)
        keep = np.flatnonzero((rel - self.lo_shift <= v)
                              & (v <= rel + self.lo_shift))
        return i[keep], j[keep]


# the bytes of a little-endian word below byte r, for r = 0 .. 7
_BYTES_BELOW = np.array([(1 << 8 * r) - 1 for r in range(8)], dtype="<u8")


PROBE_BLOCK = 1 << 17  # slots one probe block reads at most
# admitted records a share of level_sums holds at a time, and the hits one
# probe block expects at most: the candidate arrays do not grow with eta
CHUNK_RECORDS = 1 << 14


class Enumeration:
    """The triples with residual <= eta at scale X, found p3 by p3.

    Building it does the set-up every share of the enumeration reads and
    none changes: the windows (views of the prime table), the `Lattice`
    (one float64 per window prime and under a byte per odd integer), and
    for each p3 whose target can meet the window its target t, its p1
    index range, its 50-digit l3 p3^k and the split `base` = l3 p3^k -
    omega.  So every `pow_mp` call runs here.  The float l1 p1 of the
    range searches is freed once they are done.

    For each p3 the target l1 p1 + l2 p2 is a window of width 2 eta,
    widened by the float64 error bound.  l1 p1 is monotone in p1, so only
    the one contiguous range of p1 whose window can meet the values l2 p2
    is probed, on the integer line of p2 (`Lattice`).  Each candidate's
    exact products l1 p1 and l2 p2 (two_prod) are formed for it alone, its
    residual in double-double, and its admission, guard-band flag
    (|residual - eta| <= 1e-14 eta) and stored rounding are decided under
    the certified bounds of `_dd_residuals` and `_certify`, or, where they
    leave one open, on its 50-digit residual: the result equals a 50-digit
    enumeration exactly.
    """

    def __init__(self, instance: ProblemInstance, X: float, eta: float,
                 table: PrimeTable):
        if not 0.0 <= eta < math.inf:
            raise DomainError(f"eta must be finite and >= 0, got {eta}")
        self.rows: list[tuple] = []
        self.p1s, self.logs1 = p1s, logs1 = window_arrays(
            instance.linear_range(X), table)
        self.eta = eta
        p3s, logs3 = window_arrays(instance.power_range(X), table)
        if len(p1s) == 0 or len(p3s) == 0:
            return
        l1, l2, l3, omega = *instance.lambdas, instance.omega
        ts = [omega - l3 * float(p3) ** instance.k for p3 in p3s]

        L1, L2, L3, OM = (mp.mpf(v) for v in (l1, l2, l3, omega))
        # widened by the float64 error bound
        # 2^-46 ((|l1|+|l2|+|l3|) X + |omega|)
        lo_shift = eta + 128.0 * U * ((abs(l1) + abs(l2) + abs(l3)) * float(X)
                                      + abs(omega))
        self.lattice = lat = Lattice(p1s, l1, l2, lo_shift,
                                     max(map(abs, ts)))
        # p1 per probe block: it reads at most PROBE_BLOCK slots and expects
        # at most CHUNK_RECORDS hits, at the window's primes per slot
        slots = min(PROBE_BLOCK, CHUNK_RECORDS * len(lat.slot) // len(p1s))
        self.block = max(1, slots // lat.nd)
        v_lo, v_hi = sorted((l2 * float(p1s[0]), l2 * float(p1s[-1])))
        # a1 = fl(l1 p1) made ascending in the p1 index, |a1| = fl(|l1| p1),
        # for the two range searches; only the set-up holds it
        a1_up = np.multiply(abs(l1), p1s, dtype=np.float64)
        sign1 = 1.0 if l1 > 0 else -1.0
        for p3, lg3, t in zip(p3s, logs3, ts):
            # a window meets [v_lo, v_hi] only if a1 lies in
            # [t - lo_shift - v_hi, t + lo_shift - v_lo]; a second lo_shift
            # covers the rounding of both tests, which is below that bound
            reach = sorted((sign1 * (t - 2.0 * lo_shift - v_hi),
                            sign1 * (t + 2.0 * lo_shift - v_lo)))
            start = int(np.searchsorted(a1_up, reach[0], side="left"))
            stop = int(np.searchsorted(a1_up, reach[1], side="right"))
            if start >= stop:
                continue
            l3p = L3 * pow_mp(p3, instance.k)
            base = dd_from_mpf(l3p - OM)
            exact_base = float(instance.k).is_integer() and (
                sum(map(Fraction, base))
                == Fraction(l3) * int(p3) ** int(instance.k) - Fraction(omega))
            self.rows.append((p3, lg3, t, start, stop, l3p, base, exact_base))

        self.L1, self.L2, self.OM = L1, L2, OM
        self.eta_mp = mp.mpf(eta)
        self.band = mp.mpf(BOUNDARY_BAND) * self.eta_mp
        self.band_hi, self.band_lo = two_prod(BOUNDARY_BAND, eta)  # == band
        self.lin_mag = (abs(l1) + abs(l2)) * float(p1s[-1]) + eta

    def chunks(self, share: int = 0, shares: int = 1) -> Iterator[Solutions]:
        """The admitted triples of share `share` of `shares`, the p3 rows
        share, share + shares, ..., as consecutive Solutions chunks in
        (p3, p1, p2) order: one per p3 and probe block of `block` p1 that
        has candidates.  Each chunk counts its own candidates and exact
        fallbacks; a block with candidates but no admitted triple yields an
        empty chunk.  Only reads the set-up, so shares may run at once."""
        p1s, eta, lat = self.p1s, self.eta, self.lattice
        for p3, lg3, t, start, stop, l3p, base, exact_base in (
                self.rows[share::shares]):
            for b0 in range(start, stop, self.block):
                i, j = lat.candidates(t, b0, min(b0 + self.block, stop))
                if len(i) == 0:
                    continue
                # l1 p1 and l2 p2 exactly, at the candidates alone
                r_hi, err, rounded = _dd_residuals(
                    *two_prod(lat.l1, p1s[i].astype(np.float64)),
                    *two_prod(lat.l2, p1s[j].astype(np.float64)),
                    base, self.lin_mag, exact_base, eta)
                admit, boundary, decided = _certify(
                    r_hi, err, rounded, eta, self.band_hi, self.band_lo)
                res = np.abs(r_hi)
                undecided = np.nonzero(~decided)[0]
                for c in undecided:
                    p1, p2 = int(p1s[i[c]]), int(p1s[j[c]])
                    exact = abs(mp.fsum((self.L1 * p1, self.L2 * p2, l3p,
                                         -self.OM)))
                    admit[c] = bool(exact <= self.eta_mp)
                    if admit[c]:
                        res[c] = float(exact)
                        boundary[c] = bool(abs(exact - self.eta_mp)
                                           <= self.band)

                n = len(i)
                if not admit.all():
                    keep = np.nonzero(admit)[0]
                    i, j, res, boundary = (i[keep], j[keep], res[keep],
                                           boundary[keep])
                yield Solutions(p1s[i], p1s[j], np.full(len(i), p3), res,
                                self.logs1[i] * self.logs1[j] * lg3, boundary,
                                candidates=n, exact_fallbacks=len(undecided))


def enumerate_solutions(instance: ProblemInstance, X: float, eta: float,
                        table: PrimeTable) -> Solutions:
    """All ordered triples with residual <= eta, in (p3, p1, p2) order: the
    chunks of the `Enumeration`, as one share, joined."""
    chunks = list(Enumeration(instance, X, eta, table).chunks())
    if not chunks:
        return Solutions.empty()
    names = ("p1", "p2", "p3", "residual", "weight", "boundary")
    columns = [np.concatenate([getattr(c, n) for c in chunks]) for n in names]
    return Solutions(*columns,
                     candidates=sum(c.candidates for c in chunks),
                     exact_fallbacks=sum(c.exact_fallbacks for c in chunks))


def _within(residual: np.ndarray, weight: np.ndarray, eta: float):
    """The residuals and weights of the records with residual <= eta, and
    their terms w * max(0, eta - residual) of W."""
    inside = residual <= eta
    r, w = residual[inside], weight[inside]
    return r, w, w * np.maximum(0.0, eta - r)


def weighted_count(solutions: Solutions, eta: float) -> float:
    """W = sum of weight * max(0, eta - residual) over the records with
    residual <= eta, summed exactly (precision.fixed_sum) and rounded once:
    the same bits in any record order, and those of level_sums."""
    terms = _within(solutions.residual, solutions.weight, eta)[2]
    return fixed_to_float(fixed_sum(terms))


@dataclass(frozen=True)
class LevelSums:
    """Counts and weighted counts W of one enumeration at several widths,
    with its smallest residual and the first triple (p1, p2, p3), in
    (p3, p1, p2) order, that reaches it."""

    counts: tuple[int, ...]
    weighted: tuple[float, ...]
    min_residual: float | None
    sample: tuple[int, int, int] | None


class _ShareSums:
    """The exact partial sums of one share of `level_sums`: per-level counts
    and fixed_sum integers, and its first smallest residual with its
    triple."""

    def __init__(self, etas: tuple[float, ...]):
        self.etas = etas
        self.counts = [0] * len(etas)
        self.sums = [0] * len(etas)
        self.best, self.sample = math.inf, None

    def reduce(self, chunks: list[Solutions]) -> None:
        res = np.concatenate([c.residual for c in chunks])
        b = int(np.argmin(res))
        if res[b] < self.best:  # strictly: an earlier chunk keeps a tie
            self.best = float(res[b])
            for c in chunks:
                if b < len(c):
                    self.sample = (int(c.p1[b]), int(c.p2[b]), int(c.p3[b]))
                    break
                b -= len(c)
        # the levels nest, so each filters the records of the one above it
        r, w = res, np.concatenate([c.weight for c in chunks])
        etas = self.etas
        for n in sorted(range(len(etas)), key=lambda n: -etas[n]):
            r, w, terms = _within(r, w, etas[n])
            self.counts[n] += len(terms)
            self.sums[n] += fixed_sum(terms)

    @classmethod
    def of_share(cls, enum: Enumeration, share: int, shares: int,
                 etas: tuple[float, ...]) -> "_ShareSums":
        """The sums of one share, reduced CHUNK_RECORDS records at a time."""
        acc, held, n_held = cls(etas), [], 0
        for chunk in enum.chunks(share, shares):
            if len(chunk):
                held.append(chunk)
                n_held += len(chunk)
            if n_held >= CHUNK_RECORDS:
                acc.reduce(held)
                held, n_held = [], 0
        if held:
            acc.reduce(held)
        return acc


def level_sums(instance: ProblemInstance, X: float, etas,
               table: PrimeTable) -> LevelSums:
    """Per eta of `etas`, the count and `weighted_count` of the triples with
    residual <= eta, from one enumeration at max(etas).  An empty `etas`,
    a level that is not finite and >= 0, or one at which W could pass
    float64 (eta times the largest weight times the triples of the
    windows) raises DomainError before any work.

    The enumeration's p3 rows are dealt round-robin to shares, one per
    CPU of the process's affinity mask (expsums.CPUS): the calling thread
    runs share 0 and one thread each the others (numpy releases the GIL
    inside its loops).  Each share reduces its chunks CHUNK_RECORDS
    records at a time to counts, exact sums of W (precision.fixed_sum) and
    its first smallest residual.  The merge adds the counts and the integers and
    keeps the smallest residual, a tie going to the first triple in
    (p3, p1, p2) order, so the values equal those of the whole enumeration
    bit for bit, whatever the number of shares, while memory stays that of
    the prime windows.
    """
    etas = tuple(float(e) for e in etas)
    if not etas:
        raise DomainError("level_sums needs at least one eta")
    for eta in etas:
        if not 0.0 <= eta < math.inf:
            raise DomainError(f"eta must be finite and >= 0, got {eta}")
    # a term w max(0, eta - residual) of W is at most eta times the
    # largest weight log p1 log p2 log p3, and W at most that many times
    # the triples of the windows
    logs1 = window_arrays(instance.linear_range(X), table)[1]
    logs3 = window_arrays(instance.power_range(X), table)[1]
    if len(logs1) and len(logs3):
        top = float(logs1[-1]) ** 2 * float(logs3[-1])
        triples = len(logs1) ** 2 * len(logs3)
        for eta in etas:
            if not math.isfinite(eta * top * triples):
                raise DomainError(
                    f"level eta = {eta:g} can take W past float64: terms up "
                    f"to eta * {top:.6g} over {triples} triples")
    enum = Enumeration(instance, X, max(etas), table)
    shares = max(1, min(expsums.CPUS, len(enum.rows)))
    parts: list = [None] * shares

    def run(share):
        try:
            parts[share] = _ShareSums.of_share(enum, share, shares, etas)
        except BaseException as exc:  # raised again by the calling thread
            parts[share] = exc

    threads = [threading.Thread(target=run, args=(s,))
               for s in range(1, shares)]
    for th in threads:
        th.start()
    run(0)
    for th in threads:
        th.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    first = min((p for p in parts if p.sample is not None), default=None,
                key=lambda p: (p.best, p.sample[2], p.sample[0], p.sample[1]))
    levels = range(len(etas))
    return LevelSums(
        counts=tuple(sum(p.counts[n] for p in parts) for n in levels),
        weighted=tuple(fixed_to_float(sum(p.sums[n] for p in parts))
                       for n in levels),
        min_residual=None if first is None else first.best,
        sample=None if first is None else first.sample)


def duality_tail_bound(instance: ProblemInstance, X: float, B: float,
                       table: PrimeTable) -> float:
    """Crude tail bound S1(0)^2 Sk(0) / B for truncating the detector
    integral to [-B, B] (kernel decay alpha^-2 against trivial sum bounds)."""
    s1 = prime_exp_sum(0.0, instance.linear_range(X), table).real
    sk = prime_exp_sum(0.0, instance.power_range(X), table).real
    return s1 * s1 * sk / B


def solution_integral(instance: ProblemInstance, X: float, eta: float,
                      interval: tuple[float, float], table: PrimeTable,
                      whole_line: bool = False) -> complex:
    """Trapezoid integral over `interval` of

        S1(l1 a) S1(l2 a) Sk(l3 a) K_eta(a) e(-omega a).

    On an arc the grid is 64x oversampled for the bandwidth X max(1, max|l|).
    With `whole_line` the interval truncates the real-line integral, which
    is the weighted count of the solutions (the duality estimate).  The
    integrand's Fourier transform is then a sum of tents of half-width eta
    at the triple frequencies l1 p1 + l2 p2 + l3 p3^k - omega, all within
    F = sum of the max|frequency| of each factor + |omega|; the grid takes
    the Nyquist step of the band F + eta, on which the trapezoid sum over
    the whole line equals the weighted count exactly.  The imaginary part
    of a symmetric-interval run is a discretization diagnostic: the
    integrand's Hermitian symmetry makes the true value real.
    """
    if not 0.0 < eta < math.inf:  # K_0 vanishes: no detector
        raise DomainError(f"eta must be positive and finite, got {eta}")
    lo, hi = float(interval[0]), float(interval[1])
    lin = instance.linear_range(X)
    ensembles = [sum_freqs("prime", lin, table, scale=instance.lambda1),
                 sum_freqs("prime", lin, table, scale=instance.lambda2),
                 sum_freqs("prime", instance.power_range(X), table,
                           scale=instance.lambda3)]
    if whole_line:
        band = sum(float(np.max(np.abs(fh) + np.abs(fl), initial=0.0))
                   for fh, fl, _ in ensembles) + abs(instance.omega) + eta
    else:
        band = X * max(1.0, max(abs(l) for l in instance.lambdas))

    def integrand(alphas, s1, s2, s3):
        om = phase_frac(np.float64(-instance.omega), 0.0, alphas)
        return s1 * s2 * s3 * (fejer_kernel(alphas, eta) * np.exp(TWO_PI_I * om))

    return trapezoid(ensembles, lo, hi, band, integrand, whole_line)


@dataclass
class MainTermRow:
    """One scale of the major-region scan."""

    X: float
    eta: float
    major_integral: complex
    expected_scale: float  # eta^2 X^(1 + 1/k)
    ratio: float
    degenerate: bool = False


def main_term_scan(instance: ProblemInstance, X_list,
                   table: PrimeTable) -> list[MainTermRow]:
    """Detector integral over the major region per X, against eta^2 X^(1+1/k).

    Ratios staying positive and bounded below across the list is the
    experimental analogue of the main-term lower bound; a sign-infeasible
    instance is flagged degenerate instead.
    """
    rows = []
    degenerate = instance.same_sign
    for X in X_list:
        d = choose_parameters(instance, X)
        val = solution_integral(instance, X, d.eta, d.major, table)
        scale = d.main_term_scale
        rows.append(MainTermRow(
            X=float(X), eta=d.eta, major_integral=val,
            expected_scale=scale, ratio=val.real / scale,
            degenerate=degenerate,
        ))
    return rows


def write_solutions_csv(path, solutions: Solutions) -> None:
    import csv

    s = solutions
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["p1", "p2", "p3", "residual", "weight"])
        out.writerows(zip(s.p1.tolist(), s.p2.tolist(), s.p3.tolist(),
                          s.residual.tolist(), s.weight.tolist()))
