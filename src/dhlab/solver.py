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
correctness check; `weighted_count` computes W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .arcs import choose_parameters
from .errors import DomainError
from .expsums import fejer_kernel, prime_exp_sum, sum_freqs, trapezoid
from .precision import TWO_PI_I, U, dd_from_mpf, phase_frac, two_prod, two_sum
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


def _mp_lambdas(instance: ProblemInstance):
    return (mp.mpf(instance.lambda1), mp.mpf(instance.lambda2),
            mp.mpf(instance.lambda3), mp.mpf(instance.omega))


def _p3_power_mp(p3: int, k: float):
    if float(k).is_integer():
        return mp.mpf(int(p3) ** int(k))
    return mp.power(int(p3), mp.mpf(k))


def _dd_residuals(a1_hi, a1_lo, a2_hi, a2_lo, base, mag):
    """Residuals l1 p1 + l2 p2 + base as (r_hi, err), |R - r_hi| <= err.

    l1 p1 = a1_hi + a1_lo and l2 p2 = a2_hi + a2_lo exactly (two_prod);
    `base` is the 50-digit l3 p3^k - omega; `mag` bounds |l1 p1| + |l2 p2|.
    R is the residual the 50-digit path computes: mp.fsum of l1 p1, l2 p2,
    l3 p3^k and -omega, which rounds their exact sum once to 169 bits.
    Each term is exact at 169 bits (for integer k), so R is the correctly
    rounded residual even under total cancellation.  Callers add eta into
    `mag`, so that err also covers the 169-bit rounding of |R| - eta in the
    band test.

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
    """
    b_hi, b_lo = dd_from_mpf(base)
    s1, e1 = two_sum(a1_hi, a2_hi)
    s2, e2 = two_sum(s1, b_hi)
    r_hi, r_lo = two_sum(s2, (a1_lo + a2_lo) + (b_lo + (e1 + e2)))
    return r_hi, np.abs(r_lo) + 16.0 * U * U * (mag + abs(b_hi))


def _certify(r_hi, err, eta, band_hi, band_lo):
    """(admit, boundary, decided) for residuals known as |R - r_hi| <= err.

    Where `decided`, admit is |R| <= eta, boundary is
    |R| >= eta - (band_hi + band_lo) on admitted entries, and float(|R|) is
    |r_hi|, for every such R.  Each test demands a margin of twice the
    uncertainty, which also covers the float64 rounding of the margins.
    """
    res = np.abs(r_hi)
    gap = eta - res  # exact wherever it is small (Sterbenz)
    over_band = gap - band_hi
    admit = gap > 0
    band_tol = 2.0 * (err + abs(band_lo) + 2.0 * U * np.abs(gap))
    # |r_hi| is the correctly rounded |R| when R cannot reach a midpoint;
    # the gap below a power of two is the smaller one
    half_ulp = 0.5 * (res - np.nextafter(res, 0.0))
    decided = (np.abs(gap) > 2.0 * err) & (
        ~admit | (np.abs(over_band) > band_tol) & (err < half_ulp))
    return admit, over_band <= 0, decided


class CellIndex:
    """np.searchsorted over a sorted float64 array, through a cell table.

    The map cell(v) = trunc(clip(v r - s0 r, 0, top)), with s0 the first
    value, r = 1/w and w the smallest positive gap, evaluated in float64,
    sends every member to a cell of at most `depth` members (measured here;
    1 or 2 when w is the smallest gap), and `first[c]` counts the members
    in cells below c.  Each correctly rounded step is monotone, so cell is
    too: members in cells below cell(x) are < x and those above are > x.
    The bound of x is therefore first[cell(x)] plus one comparison against
    each of the next `depth` entries, which equals np.searchsorted's bit for
    bit.  The cell count is capped at MAX_CELLS_PER_VALUE per member, so a
    window whose smallest gap is far below its mean gets wider, deeper
    cells instead of a huge table.
    """

    MAX_CELLS_PER_VALUE = 16

    def __init__(self, values: np.ndarray):
        n = len(values)
        gaps = np.diff(values)
        span = float(values[-1] - values[0])
        w = float(np.min(gaps[gaps > 0], initial=np.inf))
        w = max(w, span / (self.MAX_CELLS_PER_VALUE * n))
        # one cell for one value, all equal, or a span too small to invert
        self._scale = 1.0 / w if 1.0 / w < math.inf else 0.0
        self._shift = -float(values[0]) * self._scale
        self._top = float(np.floor(span * self._scale) + 2)
        cells = self._cells(values)
        counts = np.bincount(cells, minlength=int(self._top) + 1)
        self.depth = int(counts.max())
        self.first = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=self.first[1:])
        # NaN pads past the end compare false on either side
        self._values = np.concatenate([values, np.full(self.depth, np.nan)])

    def _cells(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # overflow saturates to a clip end
            c = x * self._scale
        c += self._shift
        np.clip(c, 0.0, self._top, out=c)
        return c.astype(np.intp)

    def search(self, x: np.ndarray, side: str = "left") -> np.ndarray:
        """np.searchsorted(values, x, side) for finite x."""
        lo = self.first[self._cells(x)]
        below = np.less if side == "left" else np.less_equal
        out = lo + below(self._values[lo], x)
        for t in range(1, self.depth):
            out += below(self._values[lo + t], x)
        return out


def enumerate_solutions(instance: ProblemInstance, X: float, eta: float,
                        table: PrimeTable) -> Solutions:
    """All ordered triples with residual <= eta, in (p3, p1, p2) order.

    For each p3 the target l1 p1 + l2 p2 is a window of width 2 eta, widened
    by the float64 error bound.  l1 p1 is monotone in p1, so the p1 whose
    window can meet the values l2 p2 at all form one contiguous range, found
    by two scalar searches; only that range is probed, each window's ends
    through a `CellIndex` over the sorted l2 p2, which returns
    np.searchsorted's bounds bit for bit.  Every candidate's residual is
    then formed in double-double, and three decisions are taken on it under
    the certified bound of `_dd_residuals`: admission (residual <= eta), the
    guard-band flag (|residual - eta| <= 1e-14 eta) and the correct rounding
    of the stored float residual.  A candidate that any of them leaves
    undecided is decided on its 50-digit residual, so the result equals a
    50-digit enumeration exactly.
    """
    if not 0.0 <= eta < math.inf:
        raise DomainError(f"eta must be finite and >= 0, got {eta}")
    lin = instance.linear_range(X)
    pw = instance.power_range(X)
    p1s, logs1 = window_arrays(lin, table)
    p3s, logs3 = window_arrays(pw, table)
    if len(p1s) == 0 or len(p3s) == 0:
        return Solutions.empty()
    l1, l2, l3 = instance.lambdas
    omega = instance.omega

    ps = p1s.astype(np.float64)
    a1, a1_lo = two_prod(l1, ps)
    vals2, vals2_lo = two_prod(l2, ps)
    order = np.argsort(vals2, kind="stable")
    sorted2 = vals2[order]
    sorted2_lo = vals2_lo[order]
    index = CellIndex(sorted2)
    # a1 made ascending in the p1 index, for the two range searches
    a1_up, sign1 = (a1, 1.0) if l1 > 0 else (-a1, -1.0)

    L1, L2, L3, OM = _mp_lambdas(instance)
    slack = 64.0 * np.finfo(np.float64).eps * (
        (abs(l1) + abs(l2) + abs(l3)) * float(X) + abs(omega)
    )
    lo_shift = eta + slack
    eta_mp = mp.mpf(eta)
    band = mp.mpf(BOUNDARY_BAND) * eta_mp
    band_hi, band_lo = two_prod(BOUNDARY_BAND, eta)  # == band, exactly
    lin_mag = (abs(l1) + abs(l2)) * float(p1s[-1]) + eta

    cols = []
    candidates = fallbacks = 0
    for p3, lg3 in zip(p3s, logs3):
        t = omega - l3 * float(p3) ** instance.k
        # a window meets [sorted2[0], sorted2[-1]] only if a1 lies in
        # [t - lo_shift - sorted2[-1], t + lo_shift - sorted2[0]]; a second
        # lo_shift covers the rounding of both tests, which is below slack
        reach = sorted((sign1 * (t - 2.0 * lo_shift - sorted2[-1]),
                        sign1 * (t + 2.0 * lo_shift - sorted2[0])))
        start = int(np.searchsorted(a1_up, reach[0], side="left"))
        stop = int(np.searchsorted(a1_up, reach[1], side="right"))
        if start >= stop:
            continue
        rel = t - a1[start:stop]
        i_lo = index.search(rel - lo_shift, side="left")
        i_hi = index.search(rel + lo_shift, side="right")
        counts = i_hi - i_lo
        hit = np.nonzero(counts > 0)[0]
        if len(hit) == 0:
            continue
        counts = counts[hit]
        i = np.repeat(hit + start, counts)
        j = np.arange(len(i)) + np.repeat(i_lo[hit] - (np.cumsum(counts) - counts),
                                          counts)
        l3p = L3 * _p3_power_mp(int(p3), instance.k)
        base = l3p - OM
        r_hi, err = _dd_residuals(a1[i], a1_lo[i], sorted2[j], sorted2_lo[j],
                                  base, lin_mag)
        admit, boundary, decided = _certify(r_hi, err, eta, band_hi, band_lo)
        res = np.abs(r_hi)
        undecided = np.nonzero(~decided)[0]
        for c in undecided:
            p1 = int(p1s[i[c]])
            p2 = int(p1s[order[j[c]]])
            exact = abs(mp.fsum((L1 * p1, L2 * p2, l3p, -OM)))
            admit[c] = bool(exact <= eta_mp)
            if admit[c]:
                res[c] = float(exact)
                boundary[c] = bool(abs(exact - eta_mp) <= band)
        candidates += len(i)
        fallbacks += len(undecided)

        keep = np.nonzero(admit)[0]
        i1 = i[keep]
        i2 = order[j[keep]]
        cols.append((p1s[i1], p1s[i2], np.full(len(keep), p3), res[keep],
                     logs1[i1] * logs1[i2] * lg3, boundary[keep]))
    del index  # free the cell table before the columns are assembled
    if not cols:
        return Solutions.empty()
    columns = [np.concatenate(c) for c in zip(*cols)]
    p1, p2, p3 = columns[:3]
    # p3 and p1 ascend already, and p2 within them when l2 > 0: sort only
    # when the rows are out of (p3, p1, p2) order
    d3, d1, d2 = np.diff(p3), np.diff(p1), np.diff(p2)
    if not np.all((d3 > 0) | (d3 == 0) & ((d1 > 0) | (d1 == 0) & (d2 > 0))):
        srt = np.lexsort((p2, p1, p3))
        columns = [c[srt] for c in columns]
    return Solutions(*columns, candidates=candidates, exact_fallbacks=fallbacks)


def weighted_count(solutions: Solutions, eta: float) -> float:
    """W = sum of weight * max(0, eta - residual) over the records with
    residual <= eta, summed by np.sum in record order."""
    r = solutions.residual
    inside = r <= eta
    return float(np.sum(solutions.weight[inside] *
                        np.maximum(0.0, eta - r[inside])))


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
        scale = d.eta * d.eta * X ** (1.0 + 1.0 / instance.k)
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
        for p1, p2, p3, res, w in zip(s.p1.tolist(), s.p2.tolist(), s.p3.tolist(),
                                      s.residual.tolist(), s.weight.tolist()):
            out.writerow([p1, p2, p3, repr(res), repr(w)])
