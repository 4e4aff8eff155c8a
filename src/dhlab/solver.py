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
sum(w * max(0, eta - residual)) equals the real-line integral of
S1(l1 a) S1(l2 a) Sk(l3 a) K_eta(a) e(-omega a), which `solution_integral`
approximates on a finite interval; the pair is the package's central
correctness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .arcs import choose_parameters
from .errors import DomainError
from .expsums import (fejer_kernel, prime_exp_sum, sum_freqs, trapezoid,
                      trapezoid_step)
from .precision import dd_from_mpf, phase_frac, two_prod, two_sum
from .primes import PrimeTable, SumRange, window_arrays

_TWO_PI_I = 2j * np.pi
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


_U = 2.0**-53  # unit roundoff of float64


def _dd_residuals(a1_hi, a1_lo, a2_hi, a2_lo, base, mag):
    """Residuals l1 p1 + l2 p2 + base as (r_hi, err), |R - r_hi| <= err.

    l1 p1 = a1_hi + a1_lo and l2 p2 = a2_hi + a2_lo exactly (two_prod);
    `base` is the 50-digit l3 p3^k - omega; `mag` bounds |l1 p1| + |l2 p2|.
    R is the residual the 50-digit path computes, (l1 p1 + l2 p2) + base
    rounded to 169 bits per operation: the association of a plain 50-digit
    enumeration, since under heavy cancellation another association rounds
    to another R.  Callers add eta into `mag`, so that err also covers the
    169-bit rounding of |R| - eta in the band test.

    The bound: base splits as bh + bl with |base - bh - bl| <= u^2 |bh|
    (u = 2^-53), and two_sum makes a1_hi + a2_hi + bh = s2 + e1 + e2 exactly
    with |e1| <= u|s1|, |e2| <= u|s2|.  The five low parts are summed in
    float64, erring by at most gamma_4 = 4u/(1-4u) times their magnitude,
    itself at most 3u(1+3u) M with M = mag + |bh|.  So r_hi + r_lo lies
    within 13.01 u^2 M of l1 p1 + l2 p2 + base, and R within 2^-167 M of
    that.  err = |r_lo| + 16 u^2 M covers both, with the slack absorbing the
    float64 rounding of err itself.
    """
    b_hi, b_lo = dd_from_mpf(base)
    s1, e1 = two_sum(a1_hi, a2_hi)
    s2, e2 = two_sum(s1, b_hi)
    r_hi, r_lo = two_sum(s2, (a1_lo + a2_lo) + (b_lo + (e1 + e2)))
    return r_hi, np.abs(r_lo) + 16.0 * _U * _U * (mag + abs(b_hi))


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
    band_tol = 2.0 * (err + abs(band_lo) + 2.0 * _U * np.abs(gap))
    # |r_hi| is the correctly rounded |R| when R cannot reach a midpoint;
    # the gap below a power of two is the smaller one
    half_ulp = 0.5 * (res - np.nextafter(res, 0.0))
    decided = (np.abs(gap) > 2.0 * err) & (
        ~admit | (np.abs(over_band) > band_tol) & (err < half_ulp))
    return admit, over_band <= 0, decided


def enumerate_solutions(instance: ProblemInstance, X: float, eta: float,
                        table: PrimeTable) -> Solutions:
    """All ordered triples with residual <= eta, in (p3, p1, p2) order.

    For each p3 the target l1 p1 + l2 p2 is a window of width 2 eta; the
    sorted values l2 p2 are binary-searched per p1, in windows widened by
    the float64 error bound.  Every candidate's residual is then formed in
    double-double, and three decisions are taken on it under the certified
    bound of `_dd_residuals`: admission (residual <= eta), the guard-band flag
    (|residual - eta| <= 1e-14 eta) and the correct rounding of the stored
    float residual.  A candidate that any of them leaves undecided is
    decided on its 50-digit residual, so the result equals a 50-digit
    enumeration exactly.
    """
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
        lows = t - a1 - lo_shift
        highs = t - a1 + lo_shift
        i_lo = np.searchsorted(sorted2, lows, side="left")
        i_hi = np.searchsorted(sorted2, highs, side="right")
        counts = i_hi - i_lo
        hit = np.nonzero(counts > 0)[0]
        if len(hit) == 0:
            continue
        counts = counts[hit]
        i = np.repeat(hit, counts)
        j = np.arange(len(i)) + np.repeat(i_lo[hit] - (np.cumsum(counts) - counts),
                                          counts)
        base = L3 * _p3_power_mp(int(p3), instance.k) - OM
        r_hi, err = _dd_residuals(a1[i], a1_lo[i], sorted2[j], sorted2_lo[j],
                                  base, lin_mag)
        admit, boundary, decided = _certify(r_hi, err, eta, band_hi, band_lo)
        res = np.abs(r_hi)
        undecided = np.nonzero(~decided)[0]
        for c in undecided:
            p1 = int(p1s[i[c]])
            p2 = int(p1s[order[j[c]]])
            exact = abs(L1 * p1 + L2 * p2 + base)
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
    if not cols:
        return Solutions.empty()
    p1, p2, p3, res, weight, boundary = (np.concatenate(c) for c in zip(*cols))
    srt = np.lexsort((p2, p1, p3))
    return Solutions(p1[srt], p2[srt], p3[srt], res[srt], weight[srt],
                     boundary[srt], candidates=candidates,
                     exact_fallbacks=fallbacks)


def weighted_count(solutions: Solutions, eta: float) -> float:
    """sum of weight * max(0, eta - residual) over the records."""
    return math.fsum(solutions.weight * np.maximum(0.0, eta - solutions.residual))


def duality_tail_bound(instance: ProblemInstance, X: float, B: float,
                       table: PrimeTable) -> float:
    """Crude tail bound S1(0)^2 Sk(0) / B for truncating the detector
    integral to [-B, B] (kernel decay alpha^-2 against trivial sum bounds)."""
    s1 = prime_exp_sum(0.0, instance.linear_range(X), table).real
    sk = prime_exp_sum(0.0, instance.power_range(X), table).real
    return s1 * s1 * sk / B


def solution_integral(instance: ProblemInstance, X: float, eta: float,
                      interval: tuple[float, float], table: PrimeTable,
                      step: float | None = None) -> complex:
    """Trapezoid integral over `interval` of

        S1(l1 a) S1(l2 a) Sk(l3 a) K_eta(a) e(-omega a).

    Step must satisfy step <= 1/(64 X max|l|).  The imaginary part of a
    symmetric-interval run is a discretization diagnostic: the integrand's
    Hermitian symmetry makes the true value real.
    """
    lo, hi = float(interval[0]), float(interval[1])
    lmax = max(abs(l) for l in instance.lambdas)
    n, h = trapezoid_step(lo, hi, 1.0 / (64.0 * X * max(1.0, lmax)), step)
    lin = instance.linear_range(X)
    ensembles = [sum_freqs("prime", lin, table, scale=instance.lambda1),
                 sum_freqs("prime", lin, table, scale=instance.lambda2),
                 sum_freqs("prime", instance.power_range(X), table,
                           scale=instance.lambda3)]

    def integrand(alphas, s1, s2, s3):
        om = phase_frac(np.float64(-instance.omega), 0.0, alphas)
        return s1 * s2 * s3 * (fejer_kernel(alphas, eta) * np.exp(_TWO_PI_I * om))

    return trapezoid(ensembles, lo, h, n + 1, integrand)


@dataclass
class MainTermRow:
    """One scale of the major-region scan."""

    X: float
    eta: float
    major_integral: complex
    expected_scale: float  # eta^2 X^(1 + 1/k)
    ratio: float
    degenerate: bool = False


@dataclass
class MainTermScan:
    rows: list[MainTermRow]
    bounded_below: bool  # all ratios positive, none collapsing toward zero

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __len__(self):
        return len(self.rows)


def main_term_scan(instance: ProblemInstance, X_list, table: PrimeTable,
                   eta_override: float | None = None) -> MainTermScan:
    """Detector integral over the major region per X, against eta^2 X^(1+1/k).

    Ratios staying positive and bounded below across the list is the
    experimental analogue of the main-term lower bound; a sign-infeasible
    instance is flagged degenerate instead.
    """
    rows = []
    degenerate = instance.same_sign
    for X in X_list:
        d = choose_parameters(instance, X)
        eta = eta_override if eta_override is not None else d.eta
        cut = d.major[1]
        val = solution_integral(instance, X, eta, (-cut, cut), table)
        scale = eta * eta * X ** (1.0 + 1.0 / instance.k)
        rows.append(MainTermRow(
            X=float(X), eta=eta, major_integral=val,
            expected_scale=scale, ratio=val.real / scale,
            degenerate=degenerate,
        ))
    ratios = [r.ratio for r in rows]
    bounded = bool(ratios) and all(r > 0 for r in ratios) and (
        min(ratios) >= 0.05 * max(ratios)
    )
    return MainTermScan(rows=rows, bounded_below=bounded)


def write_solutions_csv(path, solutions: Solutions) -> None:
    import csv

    s = solutions
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["p1", "p2", "p3", "residual", "weight"])
        for p1, p2, p3, res, w in zip(s.p1.tolist(), s.p2.tolist(), s.p3.tolist(),
                                      s.residual.tolist(), s.weight.tolist()):
            out.writerow([p1, p2, p3, repr(res), repr(w)])
