"""Weighted exponential sums over primes and integers, and the Fejer pair.

Central objects:

  prime_exp_sum(alpha)    sum of log(p) * e(p^k * alpha) over the window
  integer_exp_sum(alpha)  sum of       e(n^k * alpha) over the window
  integral_exp_sum(alpha) the continuous analogue, an incomplete gamma function
  fejer_kernel / _hat     the detection kernel (sin(pi a eta)/(pi a))^2 and
                          its transform max{0, eta - |a|}

plus evaluators of sum w_n e(n alpha), one per abscissa layout and class
of frequencies:

  layout     frequencies          evaluator        error bound
  ---------  -------------------  ---------------  ----------------------
  grid       many, any            GaussGridPlan    .error_bound
  grid       few, any             row recurrence   recurrence_error_bound
  scattered  integers             GaussPointsPlan  .error_bound
  scattered  any (the reference)  eval_points      points_error_bound

where gauss_grid_plan's cost model decides what is many.

iter_grid_values serves the two grid rows on the fixed blocks of
_grid_blocks.  The row recurrence e(x*(a0+(j+1)d)) = e(x*(a0+j*d)) * e(x*d)
advances per term along rows of 1024 grid points, each restarted from the
phase of its exact double-double base a0 + r*d, so each value belongs to
the node a0 + j*d itself and rounding drift never accumulates past a row.
GaussGridPlan spreads each block's terms onto an oversampled grid with a
Gaussian and takes one inverse FFT (Dutt & Rokhlin, 1993; Greengard &
Lee, 2004).  GaussPointsPlan, its adjoint, takes one inverse FFT of the
deconvolved weights and reads each scattered point off the 2m+1 grid
values nearest it.  Callers that must decide a threshold as eval_points
would (the large-values sampler) decide on the plan's value where it
clears both bounds and fall back to eval_points elsewhere.
eval_points, the direct evaluator, serves single points too and is the
reference the others are tested against.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np
from mpmath import mp

from .errors import DomainError, PhaseBudgetError
from .precision import (TWO_PI_I, U, dd_add, dd_scale, higham_gamma,
                        phase_frac, pow_dd, two_prod, two_sum)
from .primes import PrimeTable, SumRange, integers_in_range, window_arrays

RESYNC = 1024  # grid points per row of the rotation recurrence
GRID_BLOCK = 1 << 16  # points per block yielded by iter_grid_values
PHASE_BUDGET = float(1 << 46)  # max |freq * alpha| the grid machinery accepts
MAX_TRAPEZOID_POINTS = 1 << 28  # most nodes of one streamed trapezoid
MAX_GRID_VALUES = 1 << 24  # most values eval_grid holds (256 MB complex128)
# CPUs this process may run on (its affinity mask): in_parallel runs its
# calls on threads from two on, and solver.level_sums takes one share per CPU
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)
# nodes per integrand call of trapezoid: f's temporaries take 128 kB each
# (complex128) where a whole GRID_BLOCK took 1 MB, and eight calls a block
# keep the per-call overhead small; a power of two, so the sub-blocks tile
# every block but the ragged last
_TRAPEZOID_SUB = 1 << 13


def in_parallel(*calls) -> list:
    """Run calls (functions of no argument), the first on the calling
    thread and, with CPUS >= 2, each other on a thread of its own (numpy
    releases the GIL inside its loops), or else all on the calling thread
    one after another.  Once every call has ended and every thread is
    joined, raise the error of the lowest-numbered call that raised, if
    any, or return the results in call order."""
    results, errors = [None] * len(calls), [None] * len(calls)

    def run(i):
        try:
            results[i] = calls[i]()
        except BaseException as exc:  # raised again by the calling thread
            errors[i] = exc

    threads = ([threading.Thread(target=run, args=(i,))
                for i in range(1, len(calls))] if CPUS >= 2 else [])
    for th in threads:
        th.start()
    for i in range(len(calls) - len(threads)):
        run(i)
    for th in threads:
        th.join()
    for exc in filter(None, errors):  # the first, if any
        raise exc
    return results


def _fft_rounding(M: int) -> float:
    """Relative 2-norm error t eta / (1 - t eta) of a computed length-M
    power-of-two FFT, t = log2 M, eta = mu + gamma_4 (sqrt(2) + mu) with
    twiddle error mu = 4u (Higham, Accuracy and Stability, 2nd ed.,
    Thm 24.2, stated for radix 2; numpy's pocketfft, radix 4 for powers of
    two, is taken to obey it, and the tests check against 50-digit sums)."""
    mu = 4 * U
    t = math.log2(M)
    eta = mu + higham_gamma(4) * (math.sqrt(2) + mu)
    return t * eta / (1 - t * eta)


def _exp_err(delta: float) -> float:
    """Error of a computed e(theta) whose phase is within delta turns:
    2 pi (delta + 2u) + 2u, with 2 pi i theta and exp rounded."""
    return 2 * math.pi * (delta + 2 * U) + 2 * U


def fejer_kernel(alpha, eta: float) -> float | np.ndarray:
    """K_eta(alpha) = (sin(pi alpha eta) / (pi alpha))^2, K_eta(0) = eta^2."""
    a = np.asarray(alpha, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (np.sin(np.pi * a * eta) / (np.pi * a)) ** 2
    v = np.where(np.abs(a) < 1e-12 * eta, eta * eta, v)
    return v if a.ndim else float(v)


def fejer_kernel_hat(alpha, eta: float) -> float | np.ndarray:
    """The transform max{0, eta - |alpha|}: a tent supported on [-eta, eta]."""
    a = np.asarray(alpha, dtype=np.float64)
    v = np.maximum(0.0, eta - np.abs(a))
    return v if a.ndim else float(v)


# ---------------------------------------------------------------------------
# frequency/weight assembly: prime ensembles are cached on their PrimeTable,
# so they live exactly as long as it does; integer ensembles, which need no
# table, are built per call

def sum_freqs(kind: str, rng: SumRange, table: PrimeTable | None = None,
              scale: float = 1.0):
    """(freq_hi, freq_lo, weights) for one ensemble of oscillatory terms.

    kind 'prime': frequencies scale*p**k, weights log p.
    kind 'integer': frequencies scale*n**k, unit weights.
    Frequencies are hi/lo pairs so non-integer powers keep ~32 digits.
    """
    if kind == "prime":
        key = (rng, float(scale))
        out = table.freq_cache.get(key)
        if out is None:
            ns, weights = window_arrays(rng, table)
            out = _assemble_freqs(ns, np.array(weights, dtype=np.float64),
                                  rng, float(scale))
            table.freq_cache[key] = out
        return out
    if kind == "integer":
        ns = integers_in_range(rng)
        return _assemble_freqs(ns, np.ones(len(ns), dtype=np.float64), rng,
                               float(scale))
    raise ValueError(f"unknown kind {kind!r}")


def _assemble_freqs(ns, weights, rng: SumRange, scale: float):
    fh, fl = pow_dd(ns, rng.k)
    if scale != 1.0:
        fh, fl = dd_scale(fh, fl, scale)
    return fh, fl, weights


def require_phase(alpha: float, alpha_lo: float = 0.0, fh=None) -> None:
    """Refuse an abscissa alpha (+ alpha_lo) that has no phase: NaN or
    infinite, or, given frequencies fh, so large that phase_frac's product
    with one of them overflows (two_prod's Veltkamp split scales each
    factor by 2^27 + 1), which would sum NaNs."""
    if not (math.isfinite(alpha) and math.isfinite(alpha_lo)):
        lo = f" + {alpha_lo}" if alpha_lo else ""
        raise DomainError(f"alpha must be finite, got {alpha}{lo}")
    if fh is not None:
        fmax = float(np.max(np.abs(fh), initial=0.0))
        p, e = two_prod(fmax, abs(float(alpha)) + abs(float(alpha_lo)))
        if not (math.isfinite(p) and math.isfinite(e)):
            raise DomainError(f"alpha {alpha:g} too large for float64 phases")


def prime_exp_sum(alpha: float, rng: SumRange, table: PrimeTable,
                  scale: float = 1.0, alpha_lo: float = 0.0) -> complex:
    """Sum of log(p) e(scale * p^k * alpha) over the window of `rng`.

    The product p^k * alpha is reduced mod 1 through the hi/lo machinery, so
    phases far beyond 2^53 keep full fractional accuracy.  `alpha_lo` is an
    optional low-order part of the abscissa for exact two-term inputs.
    """
    f = sum_freqs("prime", rng, table, scale)
    require_phase(alpha, alpha_lo, f[0])
    return complex(eval_points(*f, [alpha], alpha_lo)[0])


def integer_exp_sum(alpha: float, rng: SumRange,
                    alpha_lo: float = 0.0) -> complex:
    """Sum of e(n^k * alpha) over integers in the window of `rng`."""
    f = sum_freqs("integer", rng)
    require_phase(alpha, alpha_lo, f[0])
    return complex(eval_points(*f, [alpha], alpha_lo)[0])


# ---------------------------------------------------------------------------
# integral of e(t^k alpha) over the window, in closed form

def integral_exp_sum(alpha: float, rng: SumRange) -> complex:
    """Integral of e(t^k alpha) over t in the window [rng.lo, rng.hi].

    With u = t^k and c = -2 pi i alpha the integral is the incomplete
    gamma function (1/k) c^(-1/k) gamma(1/k; c lo^k, c hi^k), where
    gamma(s; a, b) = integral of t^(s-1) e^(-t) over [a, b] along the ray
    through c; it is evaluated at mpmath's 50 digits and rounded once.
    """
    alpha = float(alpha)
    require_phase(alpha)
    lo, hi = rng.lo, rng.hi
    if alpha == 0.0:
        return complex(hi - lo)
    k = mp.mpf(rng.k)
    s = 1 / k
    c = mp.mpc(0, -2 * mp.pi * alpha)
    return complex(s * c**-s * mp.gammainc(s, c * mp.mpf(lo)**k,
                                           c * mp.mpf(hi)**k))


# ---------------------------------------------------------------------------
# grid evaluation

@dataclass
class SpectrumGrid:
    """Exponential-sum values on the uniform grid alpha0 + j*step."""

    alpha0: float
    step: float
    count: int
    values: np.ndarray

    def alphas(self) -> np.ndarray:
        """The nodes alpha0 + j*step, rounded to float64."""
        return self.alpha0 + np.arange(self.count) * self.step

    def alpha_dd(self, j: int) -> tuple[float, float]:
        """Exact two-term abscissa alpha0 + j*step of grid point j, the
        node its stored value was evaluated at."""
        return _node(self.alpha0, self.step, float(j))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["alpha", "re", "im", "abs"])
            alphas = self.alphas()
            for s in range(0, self.count, GRID_BLOCK):  # bounded row lists
                v = self.values[s : s + GRID_BLOCK]
                out.writerows(zip(alphas[s : s + GRID_BLOCK].tolist(),
                                  v.real.tolist(), v.imag.tolist(),
                                  map(abs, v.tolist())))


def _node(alpha0: float, step: float, j):
    """Exact two-term node alpha0 + j*step, j float(s) holding integers."""
    return dd_add(alpha0, 0.0, *two_prod(j, step))


def _grid_blocks(alpha0: float, step: float, count: int):
    """Yield (start, length, base) of each block of GRID_BLOCK nodes of
    alpha0 + j*step, j < count (the last the remainder), base = node start
    in double-double.  Both grid evaluators draw their blocks here, so
    ensembles on the same grid yield aligned blocks."""
    for start in range(0, count, GRID_BLOCK):
        base = _node(alpha0, step, float(start))
        yield start, min(GRID_BLOCK, count - start), base


def _check_budget(fh, alpha0: float, step: float, count: int) -> None:
    if len(fh) == 0:
        return
    fmax = float(np.max(np.abs(fh)))
    amax = abs(alpha0) + abs(step) * count
    if fmax * amax > PHASE_BUDGET:
        raise PhaseBudgetError(
            f"phase range {fmax * amax:.3e} exceeds budget {PHASE_BUDGET:.3e}; "
            f"use a smaller step*count (or split the grid)"
        )


def iter_grid_values(fh, fl, weights, alpha0: float, step: float, count: int):
    """Yield (start_index, values) blocks of the grid sum, in index order.

    Every block holds GRID_BLOCK points (the last one the remainder),
    whatever the evaluator, so generators over different ensembles on the
    same grid yield aligned blocks.  Ensembles large enough for
    gauss_grid_plan, of any frequencies, go through its Gaussian
    gridding; all others through the row recurrence.  Summation order is
    fixed on both paths, so results are reproducible.
    """
    _check_budget(fh, alpha0, step, count)
    plan = gauss_grid_plan(fh, fl, weights, step, count)
    if plan is not None:
        yield from plan.blocks(alpha0, count)
        return
    B = min(RESYNC, count)
    rot = np.exp(TWO_PI_I * phase_frac(fh, fl, step))
    V = np.empty((len(fh), B), dtype=np.complex128)
    V[:, 0] = 1.0
    for b in range(1, B):
        np.multiply(V[:, b - 1], rot, out=V[:, b])
    # gauss_grid_plan takes 418 terms or more on full blocks, so V holds
    # at most 417 x RESYNC values (6.7 MB), 835 x RESYNC (13 MB) on blocks
    # of 32,769 nodes; rows start every B nodes from their block's first
    for start, nb, _ in _grid_blocks(alpha0, step, count):
        r = np.arange(start, start + nb, B, dtype=np.float64)
        bh, bl = _node(alpha0, step, r)
        phases = phase_frac(fh[:, None], fl[:, None], bh[None, :], bl[None, :])
        bases = weights[:, None] * np.exp(TWO_PI_I * phases)
        yield start, (bases.T @ V).ravel()[:nb]


def recurrence_error_bound(fh, fl, weights, alpha0: float, step: float,
                           count: int) -> float:
    """Certified bound on |G - S| and on ||G| - |S|| for every value G the
    row recurrence of iter_grid_values yields on alpha0 + j step, j <
    count, where S = sum w_n e(f_n alpha) at the exact node alpha = alpha0
    + j step and the frequencies f_n = fh_n + fl_n are taken as exact.

    With u = 2^-53, gamma_m = m u / (1 - m u), g = sqrt(2) gamma_2 (one
    complex product), f and f_lo the largest |fh| and |fl|, amax = |alpha0|
    + count step, B = min(RESYNC, count) and a phase computed within delta
    turns giving e() within E(delta) = 2 pi (delta + 2u) + 2u (_exp_err):

        e_r = E(u (1 + 5 (u f + f_lo) step))
                          the rotation e(f_n step), phase_frac's phase
                          error u (1 + 5 L) as in points_error_bound
        e_V = ((1 + e_r) (1 + g))^(B-1) - 1
                          V[n, b] = rot^b against e(f_n b step), b < B:
                          v_b <= v_(b-1) (1 + e_r) (1 + g) + e_r + g (1 +
                          e_r), v_0 = 0
        e_B = E(u (1 + 5 (2.01 u f amax + f_lo amax))) (1 + u) + u
                          the row base w_n e(f_n a_r) at the node a_r in
                          double-double (|low part| <= u amax), times w_n
        A = (1 + e_B) (1 + e_V)
                          the most |base V| / |w_n|

    each value of bases.T @ V is within

        E = sum|w| (A - 1 + (1 + e_B) 2 pi (f + f_lo) x_err)
          + sqrt(2) gamma_{n+2} sum|w| A,   x_err = 5.01 u^2 amax,

    the last term the n-term complex dot product in any summation order
    (Higham, Accuracy and Stability, 2nd ed., sec. 3.1) and x_err the row
    base formed in double-double.  The bound is E + u (sum|w| + E), the
    last u for np.abs.
    """
    n = len(fh)
    if n == 0:
        return 0.0
    w_abs = math.fsum(np.abs(weights))
    f = float(np.max(np.abs(fh)))
    f_lo = float(np.max(np.abs(fl)))
    amax = abs(alpha0) + count * step
    g = math.sqrt(2) * higham_gamma(2)
    e_r = _exp_err(U * (1 + 5 * (U * f + f_lo) * step))
    e_v = ((1 + e_r) * (1 + g)) ** max(0, min(RESYNC, count) - 1) - 1
    lo_b = 2.01 * U * f * amax + f_lo * amax
    e_b = _exp_err(U * (1 + 5 * lo_b)) * (1 + U) + U
    a = (1 + e_b) * (1 + e_v)
    x_err = 5.01 * U * U * amax
    e = (w_abs * (a - 1 + (1 + e_b) * 2 * math.pi * (f + f_lo) * x_err)
         + math.sqrt(2) * higham_gamma(n + 2) * w_abs * a)
    return e + U * (w_abs + e)


def trapezoid_step(lo: float, hi: float, band: float,
                   whole_line: bool = False) -> tuple[int, float]:
    """Panel count n and step h = (hi - lo) / n of the trapezoid grid over
    [lo, hi], for finite lo < hi.  Grids of more than MAX_TRAPEZOID_POINTS
    nodes are refused.

    On a finite arc, `band` is the integrand's bandwidth (X max(1, |scale|)
    for a sum over p^k <= X at frequency scale `scale`), oversampled 64x:
    h <= 1/(64 band).

    With `whole_line`, [lo, hi] truncates an integral over the whole line
    whose integrand g has a Fourier transform G supported in [-band, band].
    By Poisson summation h sum_j g(a0 + j h) over all j equals the sum over
    m of G(m/h) e(m a0 / h), whose terms with m != 0 vanish once
    1/h > band.  So the grid takes the Nyquist step h < 1/band, and the
    truncation to [lo, hi] is the only error left.
    """
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"need finite lo < hi, got [{lo}, {hi}]")
    if whole_line:
        n = math.floor((hi - lo) * band) + 1
    else:
        n = max(1, math.ceil((hi - lo) / (1.0 / (64.0 * band))))
    if n + 1 > MAX_TRAPEZOID_POINTS:
        raise DomainError(f"trapezoid over [{lo}, {hi}] needs {n + 1} nodes "
                          f"(> {MAX_TRAPEZOID_POINTS}); shrink the interval")
    return n, (hi - lo) / n


def trapezoid(ensembles, lo: float, hi: float, band: float,
              f, whole_line: bool = False) -> float | complex:
    """Trapezoid rule over [lo, hi] on the grid of trapezoid_step(lo, hi,
    band, whole_line) of f(alphas, *sums), where sums holds the grid values
    of each (freq_hi, freq_lo, weights) ensemble at the nodes lo + j*h.

    f must act elementwise: it is called on sub-blocks of _TRAPEZOID_SUB
    nodes, written into the block's values.  Blocks are summed with np.sum
    and the block sums reduced with math.fsum (real and imaginary parts
    apart for a complex integrand), so the result depends on the grid
    alone, not on the row plan of any ensemble or the sub-blocks.
    """
    n, h = trapezoid_step(lo, hi, band, whole_line)
    count = n + 1
    gens = [iter_grid_values(*e, lo, h, count) for e in ensembles]
    sums, ends = [], []
    for blocks in zip(*gens):
        start, nb = blocks[0][0], len(blocks[0][1])
        vals = [b for _, b in blocks]
        y = None
        for s in range(0, nb, _TRAPEZOID_SUB):
            cut = slice(s, min(s + _TRAPEZOID_SUB, nb))
            part = f(lo + np.arange(start + cut.start, start + cut.stop) * h,
                     *(v[cut] for v in vals))
            if y is None:
                y = np.empty(nb, dtype=part.dtype)
            y[cut] = part
        sums.append(np.sum(y))
        if start == 0:
            ends.append(y[0])
        if start + nb == count:
            ends.append(y[-1])
        del blocks, vals, y, part  # before the next block is drawn
    end = 0.5 * ends[0] + 0.5 * ends[1]
    if np.iscomplexobj(end):
        return complex((math.fsum(s.real for s in sums) - end.real) * h,
                       (math.fsum(s.imag for s in sums) - end.imag) * h)
    return float((math.fsum(sums) - end) * h)


def eval_points(fh, fl, weights, alphas: np.ndarray,
                alpha_lo: float = 0.0) -> np.ndarray:
    """Weighted exponential sum at arbitrary (non-grid) abscissas, each
    extended by the common low part `alpha_lo`.

    A value's last bits depend on the batch `alphas` it is computed in,
    because BLAS blocks the `weights @ exp(...)` product by batch shape:
    a caller that must repeat a decision made on these values has to
    repeat the batch too."""
    alphas = np.asarray(alphas, dtype=np.float64)
    out = np.empty(len(alphas), dtype=np.complex128)
    chunk = max(1, (1 << 22) // max(1, len(fh)))
    for s in range(0, len(alphas), chunk):
        a = alphas[s : s + chunk]
        ph = phase_frac(fh[:, None], fl[:, None], a[None, :], alpha_lo)
        out[s : s + len(a)] = weights @ np.exp(TWO_PI_I * ph)
    return out


def points_error_bound(fh, fl, weights, amax: float,
                       alpha_lo: float = 0.0) -> float:
    """Certified bound on |E - S| and on ||E| - |S|| for E = eval_points(fh,
    fl, weights, alphas, alpha_lo) at any |alphas| <= amax, where S is the
    exact sum at frequencies fh + fl (taken as exact) and abscissas
    alphas + alpha_lo:

        sum|w| * (u (2 pi (2 + 5 L) + 3) + sqrt(2) gamma_{n+2}),
        L = u max|fh| amax + max|fl| amax + max|fh| |alpha_lo|,

    with u = 2^-53 and gamma_m = m u / (1 - m u).  L bounds the low part
    phase_frac carries, u (1 + 5 L) its phase error, 2 pi u + 1.5 u the
    rounding of 2 pi i phase and of exp, and sqrt(2) gamma_{n+2} the
    n-term dot product in any summation order (Higham, Accuracy and
    Stability, 2nd ed., sec. 3.1); the last u covers np.abs.
    """
    n = len(fh)
    if n == 0:
        return 0.0
    w_abs = math.fsum(np.abs(weights))
    f_max = float(np.max(np.abs(fh)))
    lo = (U * f_max * amax + float(np.max(np.abs(fl))) * amax
          + f_max * abs(alpha_lo))
    return w_abs * (U * (2 * math.pi * (2 + 5 * lo) + 3)
                    + math.sqrt(2) * higham_gamma(n + 2))


# ---------------------------------------------------------------------------
# Gaussian gridding: uniform grids of any frequencies (type 1), scattered
# points of integer frequencies (type 2)

GAUSS_SIGMA = 4  # sigma: a power of two; deconvolution below e^(pi^2 b / 64)
GAUSS_B = 4.5  # b: aliasing sum|w| e^(-pi^2 b (1 - 1/sigma)) ~ 7e-15 sum|w|
GAUSS_SPREAD = 12  # m: the tail past m bins, deconvolved, ~ 1e-15 sum|w|
GAUSS_CHUNK = 1 << 9  # terms spread or points read at once: 512 x (2m+1)
# gauss_grid_plan takes the Gaussian path when terms * block >= GAUSS_COST *
# Mr log2(2 Mr), fitted from single-threaded timings over 2^18 nodes of step
# 1e-6 of sqrt(2) p (2-vCPU VM, numpy 2.4): 230 terms, recurrence 0.026 s vs
# Gaussian 0.063 s; 400: 0.035 vs 0.046 s; 500: 0.049 vs 0.039 s; 5,000:
# 0.52 vs 0.053 s.  On 4,096 nodes Gaussian wins from 100 terms (3.7/0.8 ms).
GAUSS_COST = 5.5


def _deconvolution(k: np.ndarray, Mr: int) -> np.ndarray:
    """e^(pi^2 b k^2 / Mr^2) / sqrt(pi b) at float integers k: the inverse
    of phi's transform at k / Mr, phi's norm folded in."""
    return np.exp((math.pi**2 * GAUSS_B / Mr**2) * np.square(k)) / math.sqrt(
        math.pi * GAUSS_B)


_KernelTerms = namedtuple("_KernelTerms", "A T D P1 P2 tap dec")


def _kernel_terms() -> _KernelTerms:
    """The analysis of phi(v) = (pi b)^(-1/2) e^(-v^2/b) on Mr = sigma N
    bins for frequencies |k| <= N/2, 2m+1 bins kept per term or point,
    that both Gaussian plans' bounds share.  By Poisson summation

        sum_q phi(Mr x - q) e(k q / Mr)
            = sum_s e((k - s Mr) x) e^(-pi^2 b (s - k/Mr)^2),

    whose s = 0 term is e(k x) e^(-pi^2 b k^2 / Mr^2).  With u = 2^-53,
    gamma_m = m u / (1 - m u) and sums over s >= 1:

        A = 2 sum e^(-pi^2 b (s^2 - s / sigma))   aliasing: the images
             s != 0 times the deconvolution e^(pi^2 b k^2 / Mr^2)
        T = 2 (pi b)^(-1/2) e^(-r^2/b) / (1 - e^(-(2m+1)/b)), r = m + 0.49
             phi over the bins left out, r + i or more from Mr x
        D = e^(pi^2 b / (4 sigma^2))   the deconvolution at |k| = N/2
        P1 = 1 + 2 sum e^(-pi^2 b s^2),
        P2 = ((2 pi b)^(-1/2) (1 + 2 sum e^(-pi^2 b s^2 / 2)))^(1/2)
             the largest sum and 2-norm of phi over the bins
        tap = e^a (1 + 2u) - 1   a computed weight e^(-v^2/b): offsets v
             <= m + 0.51 off by De = u (m + 1.02), a = (2 v De + De^2 +
             gamma_2 (v + De)^2) / b for v^2 / b, exp 2u
        dec = gamma_10 + u (1 + gamma_10)   _deconvolution and a product
    """
    m, b, sigma = GAUSS_SPREAD, GAUSS_B, GAUSS_SIGMA
    s, pb = np.arange(1.0, 9.0), math.pi**2 * b  # later terms are 0.0
    A, P1, P2 = (2 * float(np.sum(np.exp(-pb * c)))
                 for c in (s * s - s / sigma, s * s, s * s / 2))
    T = (2 / math.sqrt(math.pi * b) * math.exp(-(m + 0.49) ** 2 / b)
         / (1 - math.exp(-(2 * m + 1) / b)))
    v, de = m + 0.51, U * (m + 1.02)
    a = (2 * v * de + de * de + higham_gamma(2) * (v + de) ** 2) / b
    return _KernelTerms(A, T, math.exp(pb / (4 * sigma**2)), 1 + P1,
                        math.sqrt((1 + P2) / math.sqrt(2 * math.pi * b)),
                        math.exp(a) * (1 + 2 * U) - 1,
                        higham_gamma(10) + U * (1 + higham_gamma(10)))


@dataclass(frozen=True, eq=False)
class GaussGridPlan:
    """Gaussian gridding of sum w_n e(f_n alpha) on a grid of spacing d,
    for any real frequencies f_n = fh_n + fl_n: a type-1 nonuniform FFT
    (Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993; Greengard & Lee, SIAM
    Rev. 46, 2004).  With x_n = frac(f_n d) in double-double, N the power
    of two >= min(count, GRID_BLOCK) and >= 8, h = N/2 and k = j - h, a
    block of nodes alpha_s + j d, j < N, is

        S_j = sum_n c_n e(k x_n),   c_n = w_n e(f_n alpha_s + x_n h).

    Each c_n is spread onto the 2m+1 bins q (mod Mr = sigma N) nearest
    Mr x_n with weight phi(q - Mr x_n), phi(v) = (pi b)^(-1/2) e^(-v^2/b),
    and np.bincount sums the bins, GAUSS_CHUNK terms at a time in bin
    order, each chunk forming its weights from offset (_gauss_taps).  One
    inverse FFT gives G, and by Poisson summation S_j = G[k mod Mr]
    e^(pi^2 b k^2 / Mr^2), up to aliasing and the tail.  blocks() takes
    each FFT beside the spreading and deconvolution of the neighbouring
    blocks (in_parallel), in two bin buffers of Mr + 2m values."""

    step: float
    size: int  # N
    freq_hi: np.ndarray
    freq_lo: np.ndarray
    weights: np.ndarray
    shift: np.ndarray  # frac(x_n h)
    centre: np.ndarray  # rint(Mr x_n) mod Mr, int64, ascending
    offset: np.ndarray  # Mr x_n - rint(Mr x_n)
    bin_terms: int  # K: the most terms whose windows share a bin

    def blocks(self, alpha0: float, count: int):
        """Yield (start_index, values) blocks of the sum on alpha0 + j d,
        j < count, as iter_grid_values does.

        One schedule for every CPU count, over two bin buffers: block 0 is
        spread, and then, for each block b, in_parallel runs b's inverse
        FFT in one buffer beside the extraction of block b-1 from the
        other and the spreading of block b+1 into it.  With CPUS >= 2
        numpy's FFT, which releases the GIL, so runs beside the spreading;
        on one CPU the same steps run one after another, holding both
        buffers (4.2 MB each at Mr = 2^18) where one would do.  No thread
        outlives a block, and the values do not depend on CPUS."""
        m, Mr, h = GAUSS_SPREAD, GAUSS_SIGMA * self.size, self.size // 2
        deconv = _deconvolution(np.arange(-h, self.size - h, 1.0), Mr)
        todo = list(_grid_blocks(alpha0, self.step, count))
        bufs = [np.empty(Mr + 2 * m, dtype=np.complex128)  # bins -m .. Mr+m-1
                for _ in range(2)]
        grids = [buf[m : m + Mr] for buf in bufs]

        def transform(b):
            # norm="forward" leaves the inverse unscaled: sum_q g_q e(kq/Mr)
            np.fft.ifft(grids[b % 2], norm="forward", out=grids[b % 2])

        def extract(b, out):
            g, nb = grids[b % 2], todo[b][1]
            np.concatenate((g[Mr - h :][:nb], g[: max(0, nb - h)]), out=out)
            out *= deconv[:nb]  # k = j - h mod Mr
            return out

        def beside(b, out):  # the work done while the FFT of block b runs
            if b:
                extract(b - 1, out)
            if b + 1 < len(todo):
                self._spread(todo[b + 1][2], bufs[(b + 1) % 2])

        self._spread(todo[0][2], bufs[0])
        for b in range(len(todo)):
            # made on the thread that frees it: no helper's arena keeps 1 MB
            out = np.empty(todo[b - 1][1], np.complex128) if b else None
            in_parallel(partial(transform, b), partial(beside, b, out))
            if b:
                yield todo[b - 1][0], out
        yield todo[-1][0], extract(len(todo) - 1,
                                   np.empty(todo[-1][1], np.complex128))

    def _spread(self, base, ext: np.ndarray) -> None:
        """Spread the terms c_n of the block from node base (double-double)
        onto the bins -m .. Mr+m-1 of ext and fold the overhangs mod Mr,
        GAUSS_CHUNK terms at a time in bin order."""
        m, Mr = GAUSS_SPREAD, GAUSS_SIGMA * self.size
        span = np.arange(2 * m + 1)
        ph = phase_frac(self.freq_hi, self.freq_lo, *base) + self.shift
        c = self.weights * np.exp(TWO_PI_I * ph)
        ext[:] = 0
        for s in range(0, len(c), GAUSS_CHUNK):
            cut, first = slice(s, s + GAUSS_CHUNK), int(self.centre[s])
            bins = ((self.centre[cut, None] - first) + span).ravel()
            part = slice(first, int(self.centre[cut][-1]) + 2 * m + 1)
            taps = _gauss_taps(self.offset[cut])
            for z, cz in ((ext.real, c.real), (ext.imag, c.imag)):
                z[part] += np.bincount(
                    bins, (cz[cut, None] * taps).ravel(), part.stop - first)
        ext[Mr : Mr + m] += ext[:m]
        ext[m : 2 * m] += ext[Mr + m :]

    def error_bound(self, alpha0: float, count: int) -> float:
        """Certified bound on |G - S| and on ||G| - |S|| for every value G
        of blocks(alpha0, count), where S = sum w_n e(f_n alpha) at the exact
        node alpha = alpha0 + j d.

        With u = 2^-53, gamma_m = m u / (1 - m u), K = bin_terms, amax =
        |alpha0| + count d, f and f_lo the largest |fh| and |fl|, A, T, D,
        P1, P2, tap and dec from _kernel_terms, and

            e_c = 2 pi u (5 + 5 L) + 3 u,   L = (2.01 u f + f_lo) amax
                 c_n: phase_frac's u (1 + 5 L) (points_error_bound), x_n h
                 and the sum 2u, 2 pi i theta and exp 4 pi u + 2u, w_n u
            e_in = (1 + tap) (1 + u) (1 + sqrt(2) gamma_K) - 1   a bin:
                 its weights, their products with c_n, sums of <= K terms

        G[k] e^(pi^2 b k^2 / Mr^2) is within E = sum|w| (e_c + (1 + e_c) A)
        + D (1 + e_c) (sum|w| (T + e_in P1) + sqrt(Mr) phi sqrt(K) ||w||_2
        P2 (1 + e_in)) of S, the last term Higham's Thm 24.2 (phi =
        _fft_rounding(Mr)) on a grid of 2-norm <= sqrt(K) ||c||_2 P2 (1 +
        e_in) (Cauchy-Schwarz in each bin).  With p = dec for the
        deconvolution and its product, and u (1 + p) for np.abs, the bound
        is E + (sum|w| + E) (p + u (1 + p)) + 2 pi sum|w| ((f + f_lo) 5.01
        u^2 amax + N x_err): the block base in double-double, and x_n =
        two_prod(fh, d) + fl d off by x_err = 1.01 u^2 f d + 2.01 u f_lo d,
        times j < N."""
        N, d, K, w = self.size, self.step, self.bin_terms, self.weights
        Mr = GAUSS_SIGMA * N
        w_abs, w_l2 = math.fsum(np.abs(w)), math.sqrt(math.fsum(w * w))
        amax = abs(alpha0) + count * d
        f, f_lo = (float(np.max(np.abs(x)))
                   for x in (self.freq_hi, self.freq_lo))
        e_c = 2 * math.pi * U * (5 + 5 * (2.01 * U * f + f_lo) * amax) + 3 * U
        g = _kernel_terms()
        e_in = (1 + g.tap) * (1 + U) * (1 + math.sqrt(2) * higham_gamma(K)) - 1
        e = (w_abs * (e_c + (1 + e_c) * g.A) + g.D
             * (1 + e_c) * (w_abs * (g.T + e_in * g.P1) + math.sqrt(Mr * K)
                            * _fft_rounding(Mr) * w_l2 * g.P2 * (1 + e_in)))
        p, x_err = g.dec, 1.01 * U * U * f * d + 2.01 * U * f_lo * d
        return (e + (w_abs + e) * (p + U * (1 + p))
                + 2 * math.pi * w_abs * ((f + f_lo) * 5.01 * U * U * amax
                                         + N * x_err))


def gauss_grid_plan(fh, fl, weights, step: float,
                    count: int) -> GaussGridPlan | None:
    """The Gaussian-gridding plan of the grid sum of (fh, fl, weights) over
    count nodes of spacing `step`, or None where the row recurrence costs
    less (GAUSS_COST) or there are no terms.  The plan holds the terms
    sorted by centre bin with their shifts and offsets, no weight table:
    blocks() forms each chunk's weights as it spreads it."""
    m, J = GAUSS_SPREAD, min(count, GRID_BLOCK)
    N = 1 << max(3, (J - 1).bit_length())  # Mr >= 2m + 1: no bin taken twice
    Mr, h = GAUSS_SIGMA * N, N // 2
    if len(fh) == 0 or len(fh) * J < GAUSS_COST * Mr * math.log2(2 * Mr):
        return None
    p, e = two_prod(fh, step)
    xh, xl = two_sum(p - np.rint(p), e + fl * step)
    centre = np.rint(xh * Mr)  # xh Mr and xh h are exact: powers of two
    offset = (xh * Mr - centre) + xl * Mr
    shift = (xh * h - np.rint(xh * h)) + xl * h
    centre = centre.astype(np.int64) & (Mr - 1)
    order = np.argsort(centre, kind="stable")
    fh, fl, weights, shift, centre, offset = (
        v[order] for v in (fh, fl, weights, shift, centre, offset))
    # K: the most centres in the 2m+1 bins from one centre on, mod Mr
    K = np.searchsorted(np.append(centre, centre + Mr), centre + 2 * m, "right")
    return GaussGridPlan(step, N, fh, fl, weights, shift, centre, offset,
                         int(np.max(K - np.arange(len(K)))))


def _gauss_taps(offset: np.ndarray) -> np.ndarray:
    """phi's weights e^(-(q - Mr x_n)^2 / b) at the 2m+1 bins q of each
    term, from offset = Mr x_n - rint(Mr x_n), formed in place in one
    terms x (2m+1) array."""
    m = GAUSS_SPREAD
    taps = (np.arange(2 * m + 1) - m) - offset[:, None]
    taps *= taps
    taps /= -GAUSS_B
    return np.exp(taps, out=taps)


@dataclass(frozen=True, eq=False)
class GaussPointsPlan:
    """Gaussian interpolation of sum w_n e(n beta) at scattered beta, for
    distinct integer frequencies n: a type-2 nonuniform FFT, the adjoint of
    GaussGridPlan.  With the frequencies in a window of width W from n0, N
    the power of two >= W and >= 8, h = N/2, centre c = n0 + h, k_n = n - c
    in [-h, h) and Mr = sigma N, one inverse FFT gives

        G(q) = sum_n w_n e^(pi^2 b k_n^2 / Mr^2) e(k_n q / Mr),

    and by Poisson summation (_kernel_terms), for x = frac(beta),
    S(beta) = e(c x) sum_q phi(Mr x - q) G(q) up to aliasing.  values()
    keeps the 2m+1 bins nearest Mr x.  One plan serves every scale."""

    centre: int  # c
    grid: np.ndarray  # G(q) / sqrt(pi b), q = -m .. Mr + m - 1 (mod Mr)
    w_abs: float  # sum |w|
    w_l2: float  # ||w||_2

    def values(self, alphas: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """sum w_n e(n beta) at beta = scale * alphas, within
        error_bound(max|alphas|, scale).  x = frac(beta) is formed in
        double-double from two_prod(scale, alpha), both parts reduced mod
        1; with q0 = rint(Mr x_hi), the bins q0 + j, |j| <= m, take the
        weights e^(-(j - (Mr x - q0))^2 / b), GAUSS_CHUNK points at a time."""
        m, Mr = GAUSS_SPREAD, len(self.grid) - 2 * GAUSS_SPREAD
        alphas = np.asarray(alphas, dtype=np.float64)
        bh, bl = two_prod(scale, alphas)
        xh, xl = two_sum(bh - np.rint(bh), bl - np.rint(bl))
        q0 = np.rint(xh * Mr)  # xh Mr is exact: a power of two
        offset = (xh * Mr - q0) + xl * Mr
        first = q0.astype(np.int64) & (Mr - 1)  # the row of bins q0 - m ..
        rows = np.lib.stride_tricks.sliding_window_view(self.grid, 2 * m + 1)
        out = np.empty(len(alphas), dtype=np.complex128)
        for s in range(0, len(alphas), GAUSS_CHUNK):
            cut = slice(s, s + GAUSS_CHUNK)
            out[cut] = np.einsum("ij,ij->i", rows[first[cut]],
                                 _gauss_taps(offset[cut]))
        return out * np.exp(TWO_PI_I * phase_frac(float(self.centre), 0.0,
                                                  xh, xl))

    def error_bound(self, amax: float, scale: float = 1.0) -> float:
        """Certified bound on |V - S| and on ||V| - |S|| for V =
        values(alphas, scale) at any |alphas| <= amax, where S = sum w_n e(n
        beta), beta = scale alpha exactly.

        With A, T, D, P1, P2, tap and dec (p) of _kernel_terms, G's inputs
        lie within p of w_n times deconvolutions <= D, so the inverse FFT
        is off by E_F = sqrt(Mr) phi D (1 + p) ||w||_2 in 2-norm (Higham,
        Accuracy and Stability, 2nd ed., Thm 24.2; phi = _fft_rounding(Mr)),
        and with e_in = (1 + tap) (1 + sqrt(2) gamma_{2m+1}) - 1 for the taps
        and their dot product in any order, the sum over the 2m+1 bins is
        within E of sum w_n e(k_n x):

            E = sum|w| (p + (1 + p) (A + D (T + e_in P1)))
                 the rounded inputs, aliased; the bins left out, and e_in
                 on |G| <= D (1 + p) sum|w|
              + E_F (P2 + e_in P1)   the FFT's error, read over the 2m+1
                 bins by Cauchy-Schwarz

        e(c x) takes phase_frac's phase error u (1 + 10 u |c|) (|x_hi| <= 1,
        |x_lo| <= u), so with P = e_p + sqrt(2) gamma_2 (1 + e_p), e_p =
        2 pi (u (1 + 10 u |c|) + 2u) + 2u, for it and its product, the
        bound is (sum|w| + E) (P + u (1 + P)) + E + 2 pi sum|w| (|c| + N)
        u^2 |scale| amax: np.abs, and beta formed as two_prod(scale, alpha)."""
        m, Mr = GAUSS_SPREAD, len(self.grid) - 2 * GAUSS_SPREAD
        g, c, w_abs = _kernel_terms(), abs(self.centre), self.w_abs
        e_f = (math.sqrt(Mr) * _fft_rounding(Mr) * g.D * (1 + g.dec)
               * self.w_l2)
        e_in = (1 + g.tap) * (1 + math.sqrt(2) * higham_gamma(2 * m + 1)) - 1
        e = (w_abs * (g.dec + (1 + g.dec) * (g.A + g.D * (g.T + e_in * g.P1)))
             + e_f * (g.P2 + e_in * g.P1))
        e_p = _exp_err(U * (1 + 10 * U * c))
        pr = e_p + math.sqrt(2) * higham_gamma(2) * (1 + e_p)
        return ((w_abs + e) * (pr + U * (1 + pr)) + e + 2 * math.pi * w_abs
                * (c + Mr / GAUSS_SIGMA) * U * U * abs(scale) * amax)


def gauss_points_plan(freqs: np.ndarray, weights: np.ndarray
                      ) -> GaussPointsPlan:
    """The points plan of distinct ascending integer frequencies `freqs`
    (|n| < 2^53) with float weights.  A window whose grid would pass
    MAX_GRID_VALUES values is refused before the grid is allocated."""
    freqs = np.asarray(freqs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    m, n0 = GAUSS_SPREAD, (int(freqs[0]) if len(freqs) else 0)
    width = int(freqs[-1]) - n0 + 1 if len(freqs) else 0
    N = 1 << max(3, (width - 1).bit_length())  # Mr >= 2m + 1
    Mr, h = GAUSS_SIGMA * N, N // 2
    if Mr > MAX_GRID_VALUES:
        raise DomainError(f"points plan over {width} consecutive integers "
                          f"needs {Mr} grid values (> {MAX_GRID_VALUES})")
    ext = np.zeros(Mr + 2 * m, dtype=np.complex128)  # bins -m .. Mr+m-1
    grid = ext[m : m + Mr]
    k = freqs - (n0 + h)
    grid[k & (Mr - 1)] = weights * _deconvolution(k.astype(np.float64), Mr)
    # norm="forward" leaves the inverse unscaled: sum_k a_k e(kq/Mr)
    np.fft.ifft(grid, norm="forward", out=grid)
    ext[:m], ext[Mr + m :] = grid[Mr - m :], grid[:m]
    return GaussPointsPlan(n0 + h, ext, math.fsum(np.abs(weights)),
                           math.sqrt(math.fsum(weights * weights)))


def _exact_integers(fh, fl) -> bool:
    """Whether the hi/lo frequencies are integers below 2^53, held exactly
    in fh (fl == 0)."""
    return bool(not np.any(fl) and np.all(np.abs(fh) < 2.0**53)
                and np.all(fh == np.rint(fh)))


def prime_points_plan(rng: SumRange, table: PrimeTable) -> GaussPointsPlan:
    """The points plan of the prime window of `rng` (frequencies p^k,
    weights log p), cached on `table` next to its frequency ensembles.
    Needs integer frequencies below 2^53 (integer k, X < 2^53)."""
    key = ("points", rng)
    out = table.freq_cache.get(key)
    if out is None:
        fh, fl, weights = sum_freqs("prime", rng, table)
        if not _exact_integers(fh, fl):
            raise DomainError(f"the points plan needs integer frequencies "
                              f"below 2^53, got k = {rng.k}, X = {rng.X}")
        out = gauss_points_plan(fh, weights)
        table.freq_cache[key] = out
    return out


def eval_grid(kind: str, rng: SumRange, table: PrimeTable | None = None, *,
              alpha0: float, step: float, count: int,
              scale: float = 1.0) -> SpectrumGrid:
    """Evaluate the kind='prime'/'integer' sum on alpha0 + j*step, j < count.

    Values match the pointwise evaluators at the exact nodes alpha0 + j*step
    (see SpectrumGrid.alpha_dd) to well within 1e-9 relative.
    """
    require_phase(alpha0)
    if not (step > 0 and count >= 1):
        raise DomainError(f"grid needs step > 0 and count >= 1, got step "
                          f"{step}, count {count}")
    fh, fl, w = sum_freqs(kind, rng, table, scale)
    # refuse before the count values are allocated
    _check_budget(fh, alpha0, step, count)
    if count > MAX_GRID_VALUES:
        raise DomainError(f"grid needs count <= {MAX_GRID_VALUES} held "
                          f"values, got {count}")
    values = np.empty(count, dtype=np.complex128)
    for start, block in iter_grid_values(fh, fl, w, alpha0, step, count):
        values[start : start + len(block)] = block
    return SpectrumGrid(alpha0=alpha0, step=step, count=count, values=values)
