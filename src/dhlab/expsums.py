"""Weighted exponential sums over primes and integers, and the Fejer pair.

Central objects:

  prime_exp_sum(alpha)    sum of log(p) * e(p^k * alpha) over the window
  integer_exp_sum(alpha)  sum of       e(n^k * alpha) over the window
  integral_exp_sum(alpha) the continuous analogue, an incomplete gamma function
  fejer_kernel / _hat     the detection kernel (sin(pi a eta)/(pi a))^2 and
                          its transform max{0, eta - |a|}

plus evaluators of sum w_n e(n alpha), one per abscissa layout and class
of frequencies:

  layout     frequencies              evaluator       error bound
  ---------  -----------------------  --------------  --------------------------
  grid       dense integers, <= 2^17  ChirpPlan       ChirpPlan.error_bound
  grid       many, any                TaylorGridPlan  TaylorGridPlan.error_bound
  grid       all others               row recurrence  none (spot checks)
  scattered  integers                 eval_taylor     TaylorTables.error_bound
  scattered  any (the reference)      eval_points     points_error_bound

where chirp_plan's cost model decides what is dense, in windows of at
most CHIRP_SPAN = 2^17 integers, and taylor_grid_plan's what is many.

iter_grid_values serves the three grid rows on the fixed blocks of
_grid_blocks.  The row recurrence e(x*(a0+(j+1)d)) = e(x*(a0+j*d)) * e(x*d)
advances per term along rows of 1024 grid points, each restarted from the
phase of its exact double-double base a0 + r*d, so each value belongs to
the node a0 + j*d itself and rounding drift never accumulates past a row.
For integer frequencies dense enough that the FFTs cost less, the chirp-z
transform (Rabiner, Schafer & Rader, 1969; Bluestein, 1970) turns each
block of the grid into one convolution over the whole window.  For
ensembles of any frequencies large enough that FFTs cost less,
TaylorGridPlan expands each block in a Taylor series off FFT tables of
the frequencies rounded to the grid's dual lattice.

eval_taylor interpolates scattered points off FFT tables (band-limited
Taylor interpolation: Anderson & Dahleh, SIAM J. Sci. Comput. 17, 1996;
Odlyzko & Schonhage, 1988).  Callers that must decide a threshold as
eval_points would (the large-values sampler) decide on the Taylor value
where it clears both bounds and fall back to eval_points elsewhere.
eval_points, the direct evaluator, serves single points too and is the
reference the others are tested against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _fft_rounding(M: int) -> float:
    """Relative 2-norm error t eta / (1 - t eta) of a computed length-M
    power-of-two FFT, t = log2 M, eta = mu + gamma_4 (sqrt(2) + mu) with
    twiddle error mu = 4u (Higham, Accuracy and Stability, 2nd ed.,
    Thm 24.2)."""
    mu = 4 * U
    t = math.log2(M)
    eta = mu + higham_gamma(4) * (math.sqrt(2) + mu)
    return t * eta / (1 - t * eta)


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
    in double-double.  Every grid evaluator draws its blocks here, so
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
    same grid yield aligned blocks.  Integer frequencies within CHIRP_SPAN
    and dense enough for chirp_plan go through its chirp-z convolution;
    other ensembles large enough for taylor_grid_plan through its Taylor
    tables; all others through the row recurrence.  Summation order is
    fixed on every path, so results are reproducible.
    """
    _check_budget(fh, alpha0, step, count)
    plan = (chirp_plan(fh, fl, weights, step, count)
            or taylor_grid_plan(fh, fl, weights, step, count))
    if plan is not None:
        yield from plan.blocks(alpha0, count)
        return
    B = min(RESYNC, count)
    rot = np.exp(TWO_PI_I * phase_frac(fh, fl, step))
    V = np.empty((len(fh), B), dtype=np.complex128)
    V[:, 0] = 1.0
    for b in range(1, B):
        np.multiply(V[:, b - 1], rot, out=V[:, b])
    # taylor_grid_plan takes every ensemble of 4,488 terms or more, so V
    # holds at most 4,487 x RESYNC values (73 MB); rows start at the first
    # node of their block, every B nodes
    for start, nb, _ in _grid_blocks(alpha0, step, count):
        r = np.arange(start, start + nb, B, dtype=np.float64)
        bh, bl = _node(alpha0, step, r)
        phases = phase_frac(fh[:, None], fl[:, None], bh[None, :], bl[None, :])
        bases = weights[:, None] * np.exp(TWO_PI_I * phases)
        yield start, (bases.T @ V).ravel()[:nb]


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

    Blocks are summed with np.sum and the block sums reduced with math.fsum
    (real and imaginary parts apart for a complex integrand), so the result
    depends on the grid alone, not on the row plan of any ensemble.
    """
    n, h = trapezoid_step(lo, hi, band, whole_line)
    count = n + 1
    gens = [iter_grid_values(*e, lo, h, count) for e in ensembles]
    sums, ends = [], []
    for blocks in zip(*gens):
        start = blocks[0][0]
        vals = [b for _, b in blocks]
        y = f(lo + (start + np.arange(len(vals[0]))) * h, *vals)
        sums.append(np.sum(y))
        if start == 0:
            ends.append(y[0])
        if start + len(y) == count:
            ends.append(y[-1])
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
# scattered points of integer frequencies: Taylor series off FFT tables

TAYLOR_BLOCK = 1 << 14  # max consecutive integers one block's tables span
TAYLOR_TERMS = 18  # R: truncation <= sum|w| (pi/8)^R / R! e^(pi/8) ~ 1e-23 sum|w|


class _TaylorBlock(NamedTuple):
    n0: int  # first frequency; the block spans n0 .. n0 + width - 1
    width: int
    table: np.ndarray  # (R, M): F_r(j) / r!, M the power of two >= 4 width
    w_abs: float  # sum |w| over the block
    w_l2: float  # ||w||_2 over the block


@dataclass(frozen=True, eq=False)
class TaylorTables:
    """FFT tables of sum w_n e(n beta) over integer frequencies n.

    The frequencies are cut into blocks of at most TAYLOR_BLOCK consecutive
    integers, so table memory stays bounded by the block size however wide
    the window.  A block of width N starting at n0, centre c = (N-1)/2 and
    half-width h = N/2 keeps the R = TAYLOR_TERMS tables

        F_r(j) = sum_m w_m t_m^r e(m j / M) / r!,   t_m = (m - c) / h,

    over m = n - n0, for j < M, M the power of two >= 4N (numpy.fft).
    """

    blocks: tuple[_TaylorBlock, ...]

    def error_bound(self, amax: float, scale: float = 1.0) -> float:
        """Certified bound on |T - S| and on ||T| - |S|| for T =
        eval_taylor(self, alphas, scale) at any |alphas| <= amax, where
        S = sum w_n e(n beta), beta = scale alpha exactly.

        With u = 2^-53, gamma_m = m u / (1 - m u), B blocks, and per block
        rho = pi N (1/(2M) + u) <= pi/8 (1 + 2^-40), the bound of |z| =
        |2 pi delta h| below, t = log2 M and eta_F = mu + gamma_4 (sqrt(2)
        + mu), mu = 4 u, it is the sum over blocks of

            sum|w| e^rho rho^R / R!                Taylor truncation
          + sqrt(M) ||w||_2 e^rho t eta_F / (1 - t eta_F)
                                                   FFT rounding (Higham,
                                                   Accuracy and Stability,
                                                   2nd ed., Thm 24.2)
          + sum|w| e^rho gamma_{8R+64+B}           table entries (gamma_3R),
                                                   Horner in a rounded z
                                                   (gamma_4R + 2u), the
                                                   prefactor's phase and
                                                   exp (55u), its product
                                                   and np.abs (4u), the
                                                   block accumulation
          + 2 pi sum|w| (|n0| + N) x_err           frac(beta) off by x_err

        with x_err = u^2 |scale| amax, the error of beta formed as
        two_prod(scale, alpha).
        Theorem 24.2 is stated for radix-2 Cooley-Tukey; numpy's pocketfft
        runs radix-4 passes for powers of two, taken to obey it with t
        stages (the property tests check the bound against 50-digit sums).
        """
        R, B = TAYLOR_TERMS, len(self.blocks)
        x_err = U * U * abs(scale) * amax
        total = 0.0
        for b in self.blocks:
            M = b.table.shape[1]
            rho = math.pi * b.width * (0.5 / M + U)
            er = math.exp(rho)
            total += (b.w_abs * er * rho**R / math.factorial(R)
                      + math.sqrt(M) * b.w_l2 * er * _fft_rounding(M)
                      + b.w_abs * er * higham_gamma(8 * R + 64 + B)
                      + 2 * math.pi * b.w_abs * (abs(b.n0) + b.width) * x_err)
        return total


def _taylor_rows(first, t, R: int) -> np.ndarray:
    """The R rows first t^r / r!, r < R, each from the one before."""
    rows = np.empty((R, len(t)))
    rows[0] = first
    for r in range(1, R):
        rows[r] = rows[r - 1] * t / r
    return rows


def _cut_windows(n: np.ndarray, weights: np.ndarray, span: int):
    """Cut ascending integer frequencies n into windows of equal
    (n - n[0]) // span, each within span consecutive integers; yield
    (slice, n0, width, sum |w|, ||w||_2) of each window, in order."""
    if len(n) == 0:
        return
    firsts = np.flatnonzero(np.diff((n - n[0]) // span, prepend=-1))
    ends = np.append(firsts[1:], len(n))
    for s, e in zip(firsts.tolist(), ends.tolist()):
        w = weights[s:e]
        yield (slice(s, e), int(n[s]), int(n[e - 1] - n[s]) + 1,
               math.fsum(np.abs(w)), math.sqrt(math.fsum(w * w)))


def taylor_tables(freqs: np.ndarray, weights: np.ndarray) -> TaylorTables:
    """Tables of sum w_n e(n beta) for ascending integer frequencies
    `freqs` (|n| < 2^53) with float weights."""
    freqs = np.asarray(freqs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    blocks = []
    for cut, n0, width, w_abs, w_l2 in _cut_windows(freqs, weights,
                                                     TAYLOR_BLOCK):
        m = freqs[cut] - n0
        M = 1 << (4 * width - 1).bit_length()
        t = (m - (width - 1) / 2) / (width / 2)
        a = np.zeros((TAYLOR_TERMS, M))
        a[:, m] = _taylor_rows(weights[cut], t, TAYLOR_TERMS)
        # norm="forward" leaves the inverse unscaled: sum_m a_m e(mj/M)
        table = np.fft.ifft(a, axis=1, norm="forward")
        blocks.append(_TaylorBlock(n0, width, table, w_abs, w_l2))
    return TaylorTables(tuple(blocks))


def prime_taylor_tables(rng: SumRange, table: PrimeTable) -> TaylorTables:
    """Tables of the prime window of `rng` (frequencies p^k, weights log p),
    cached on `table` next to its frequency ensembles; any scale reuses
    them.  Needs integer frequencies below 2^53 (integer k, X < 2^53)."""
    key = ("taylor", rng)
    out = table.freq_cache.get(key)
    if out is None:
        fh, fl, weights = sum_freqs("prime", rng, table)
        if not _exact_integers(fh, fl):
            raise DomainError(f"Taylor tables need integer frequencies below "
                              f"2^53, got k = {rng.k}, X = {rng.X}")
        out = taylor_tables(fh, weights)
        table.freq_cache[key] = out
    return out


def eval_taylor(tables: TaylorTables, alphas: np.ndarray,
                scale: float = 1.0) -> np.ndarray:
    """sum w_n e(n beta) at beta = scale * alphas, within
    tables.error_bound(max|alphas|, scale).

    x = frac(beta) is formed in double-double from two_prod(scale, alpha),
    both parts reduced mod 1; per block j = rint(x M), delta = x - j/M
    (x_hi - j/M is exact), |delta| <= 1/(2M), and

        S_block = e(n0 x + c delta) sum_r F_r(j) z^r,   z = 2 pi i delta h,

    summed by Horner in z, with |z| <= pi/8.  Blocks are accumulated in
    ascending order.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    bh, bl = two_prod(scale, alphas)
    xh, xl = two_sum(bh - np.rint(bh), bl - np.rint(bl))
    out = np.zeros(len(alphas), dtype=np.complex128)
    for b in tables.blocks:
        M = b.table.shape[1]
        j = np.rint(xh * M)
        delta = (xh - j / M) + xl
        z = 1j * ((math.pi * b.width) * delta)
        F = b.table[:, j.astype(np.int64) % M]
        acc = F[-1]
        for r in range(TAYLOR_TERMS - 2, -1, -1):
            acc = acc * z + F[r]
        ph = phase_frac(float(b.n0), 0.0, xh, xl) + (b.width - 1) / 2 * delta
        out += np.exp(TWO_PI_I * ph) * acc
    return out


# ---------------------------------------------------------------------------
# uniform grids of integer frequencies: chirp-z convolution

CHIRP_SPAN = 1 << 17  # widest window of consecutive integers chirp_plan takes
# chirp_plan takes the FFT path when terms * block >= CHIRP_COST * L log2(2L),
# weighing the recurrence's complex multiply-adds per block against the FFT
# pair's butterflies.  Fitted from single-threaded timings of both paths
# over grids of 64 X + 1 points (2-vCPU VM, numpy 2.4): the FFT costs less
# from a ratio of about 17 on.  269 terms, span 1,722 (ratio 7.5):
# recurrence 0.009 s vs FFT 0.031 s; 550 terms, span 3,988 (15.3): 0.036 s
# vs 0.041 s; 862 terms, span 7,471 (23.9): 0.128 s vs 0.070 s; 1,229
# terms, span 9,972 (34.1): 0.182 s vs 0.068 s.
CHIRP_COST = 18.0


@dataclass(frozen=True, eq=False)
class ChirpPlan:
    """Chirp-z (Bluestein) evaluation of sum w_n e(n alpha) over integer
    frequencies n on a grid of spacing d (Rabiner, Schafer & Rader, IEEE
    Trans. Audio Electroacoust. 17, 1969; Bluestein, ibid. 18, 1970).

    The frequencies n = n0 + m lie in one window of width N <= CHIRP_SPAN
    consecutive integers.  For a block of nodes alpha_i = alpha_s + i d,
    i < block, m i = (m^2 + i^2 - (i - m)^2) / 2 gives

        S_i = e(n0 i d + i^2 d/2) sum_m a_m b_{i-m},
        a_m = w_m e(n alpha_s + m^2 d/2),   b_k = e(-k^2 d/2),

    a linear convolution computed as one FFT and one inverse FFT of length
    L, the power of two >= N + block - 1, in place.  The transform of b
    and the prefactor row depend on d alone and are kept here.  Arrays
    hold L, block or term count values.
    """

    step: float
    block: int  # most points of one block: min(count, GRID_BLOCK)
    n0: int  # first frequency; the window spans n0 .. n0 + width - 1
    width: int
    freqs: np.ndarray  # the frequencies n, ascending, float64 (exact)
    slots: np.ndarray  # their offsets m = n - n0, int64
    weights: np.ndarray
    m_chirp: np.ndarray  # frac(m^2 d / 2)
    row: np.ndarray  # e(n0 i d + i^2 d / 2), i < block
    chirp_hat: np.ndarray  # FFT of b_k, k = -(width-1) .. block-1 (mod L)

    def blocks(self, alpha0: float, count: int):
        """Yield (start_index, values) blocks of the sum on alpha0 + j d,
        j < count, as iter_grid_values does."""
        L = len(self.chirp_hat)
        for start, nb, (sh, sl) in _grid_blocks(alpha0, self.step, count):
            a = np.zeros(L, dtype=np.complex128)
            ph = phase_frac(self.freqs, 0.0, sh, sl) + self.m_chirp
            a[self.slots] = self.weights * np.exp(TWO_PI_I * ph)
            np.fft.fft(a, out=a)
            a *= self.chirp_hat
            np.fft.ifft(a, out=a)
            yield start, self.row[:nb] * a[:nb]

    def error_bound(self, alpha0: float, count: int) -> float:
        """Certified bound on |G - S| and on ||G| - |S|| for every value G
        of blocks(alpha0, count), where S = sum w_n e(n alpha) at the exact
        node alpha = alpha0 + j d.

        With u = 2^-53, gamma_m = m u / (1 - m u), g = sqrt(2) gamma_2,
        phi = _fft_rounding(L), amax = |alpha0| + count d, and a phase
        computed within delta turns giving e() within E(delta) = 2 pi
        (delta + 2u) + 2u (2 pi i theta and exp rounded),

            e_a = E(u (3 + 10 u (|n0| + N) amax + 2.5 u N^2 d)) + u
                                                     entries w_m e(.) of a
            e_b = E(u (1 + 2.5 u L^2 d))             entries of b
            e_p = E(u (3 + 10 u |n0| amax + 2.5 u block^2 d))
                                                     the prefactor

        (phase_frac's phase error u (1 + 5 lo), as in points_error_bound),
        and the convolution c_i is within

            E_c = sum|w| (e_a + e_b (1 + e_a))        entry roundings
                + ||w||_2 (1 + e_a) sqrt(L) (1 + e_b) phi
                                                      transform of b, taken
                                                      as exact for some b'
                + ||w||_2 (1 + e_a) beta (1 + phi) (1 + g) (2 phi + g)
                                                      FFT of a, product with
                                                      b-hat, inverse FFT

        (Higham, Thm 24.2, for all three), where beta = max|b-hat| of the
        computed chirp: a 2-norm error r in a's transform reaches c as at
        most beta r / sqrt(L).  With p = e_p + g (1 + e_p) for the prefactor
        and its product, the bound is

            (sum|w| + E_c) (p + u (1 + p)) + E_c
          + 2 pi sum|w| (|n0| + N) x_err,   x_err = 5.01 u^2 amax,

        where u (1 + p) covers np.abs and x_err the block base alpha_s
        formed in double-double.
        """
        d, L, N, n0 = self.step, len(self.chirp_hat), self.width, abs(self.n0)
        w = self.weights
        w_abs, w_l2 = math.fsum(np.abs(w)), math.sqrt(math.fsum(w * w))
        amax = abs(alpha0) + count * d
        x_err = 5.01 * U * U * amax
        phi = _fft_rounding(L)
        g = math.sqrt(2) * higham_gamma(2)
        beta = float(np.max(np.abs(self.chirp_hat))) * (1 + 2 * U)

        def exp_err(delta):
            return 2 * math.pi * (delta + 2 * U) + 2 * U

        e_a = exp_err(U * (3 + 10 * U * (n0 + N) * amax
                            + 2.5 * U * N * N * d)) + U
        e_b = exp_err(U * (1 + 2.5 * U * L * L * d))
        e_p = exp_err(U * (3 + 10 * U * n0 * amax
                            + 2.5 * U * self.block**2 * d))
        a_l2 = w_l2 * (1 + e_a)
        e_c = (w_abs * (e_a + e_b * (1 + e_a))
               + a_l2 * math.sqrt(L) * (1 + e_b) * phi
               + a_l2 * beta * (1 + phi) * (1 + g) * (2 * phi + g))
        p = e_p + g * (1 + e_p)
        return ((w_abs + e_c) * (p + U * (1 + p)) + e_c
                + 2 * math.pi * w_abs * (n0 + N) * x_err)


def _exact_integers(fh, fl) -> bool:
    """Whether the hi/lo frequencies are integers below 2^53, held exactly
    in fh (fl == 0)."""
    return bool(not np.any(fl) and np.all(np.abs(fh) < 2.0**53)
                and np.all(fh == np.rint(fh)))


def chirp_plan(fh, fl, weights, step: float, count: int) -> ChirpPlan | None:
    """The chirp-z plan of the grid sum of (fh, fl, weights) over count
    nodes of spacing `step`, or None where another path serves:
    frequencies that are not distinct integers below 2^53 (fl == 0, fh
    integral), that span more than CHIRP_SPAN consecutive integers, or that
    are too sparse for the FFTs to cost less (CHIRP_COST)."""
    if len(fh) == 0 or not _exact_integers(fh, fl):
        return None
    order = np.argsort(fh, kind="stable")
    n = fh[order]
    width = int(n[-1] - n[0]) + 1
    if width > CHIRP_SPAN or np.any(n[1:] == n[:-1]):
        return None
    block = min(count, GRID_BLOCK)
    L = 1 << (width + block - 2).bit_length()
    if len(n) * block < CHIRP_COST * L * math.log2(2 * L):
        return None
    n0 = int(n[0])
    m = n - n0
    d2 = 0.5 * step  # exact
    i = np.arange(block, dtype=np.float64)
    row = (phase_frac(float(n0), 0.0, *two_prod(i, step))
           + phase_frac(i * i, 0.0, d2))
    k = np.arange(L, dtype=np.float64)
    k = np.where(k < block, k, k - L)
    chirp_hat = np.fft.fft(np.exp(-TWO_PI_I * phase_frac(k * k, 0.0, d2)))
    return ChirpPlan(step, block, n0, width, n, m.astype(np.int64),
                     weights[order], phase_frac(m * m, 0.0, d2),
                     np.exp(TWO_PI_I * row), chirp_hat)


# ---------------------------------------------------------------------------
# uniform grids of any frequencies: Taylor series off FFT tables

TAYLOR_GRID_TERMS = 24  # R: truncation <= sum|w| (pi/2)^R / R! e^(pi/2) ~ 4e-19 sum|w|
# taylor_grid_plan takes the table path when terms * block >= TAYLOR_GRID_COST
# * R M log2(2M), weighing the recurrence's complex multiply-adds per block
# against R inverse FFTs of length M.  Fitted from single-threaded timings of
# both paths over 2^18 nodes of step 1e-6 of sqrt(2) p (2-vCPU VM, numpy
# 2.4), where the two meet near 2,250 terms: 1,229 terms, recurrence 0.129 s
# vs tables 0.240 s; 2,262: 0.246 s vs 0.246 s; 5,133: 0.479 s vs 0.201 s;
# 9,592: 0.749 s vs 0.206 s.  On grids of a few thousand nodes the tables
# win from about 100 terms on (1,024 nodes, 109 terms: 3.6 ms vs 1.3 ms),
# so there the model errs towards the recurrence, where both cost
# milliseconds.
TAYLOR_GRID_COST = 5.5


@dataclass(frozen=True, eq=False)
class TaylorGridPlan:
    """Taylor-series evaluation of sum w_n e(f_n alpha) on a grid of
    spacing d, for any real frequencies f_n = fh_n + fl_n (the type-1
    counterpart of eval_taylor: Anderson & Dahleh, SIAM J. Sci. Comput. 17,
    1996; cf. Dutt & Rokhlin, ibid. 14, 1993).

    With x_n = frac(f_n d) in double-double, m_n = rint(x_n M), delta_n =
    x_n - m_n/M and t_n = 2 M delta_n in [-1, 1], a block of J nodes
    alpha_s + j d, j < J, centre c = (J-1)/2, gives

        S_j = sum_r z_j^r F_r(j),   z_j = 2 pi i (j - c) / (2M),
        F_r(j) = sum_m e(m j / M) sum_{m_n = m} c_n t_n^r / r!,
        c_n = w_n e(f_n alpha_s + delta_n c),

    one inverse FFT of length M (the power of two >= block) per table row,
    summed by Horner one row at a time, |z_j t_n| <= pi/2.  The terms are
    held in ascending slot order m_n mod M with their R powers t_n^r / r!;
    no array grows with the grid or holds terms x nodes values.
    """

    step: float
    block: int  # most points of one block: min(count, GRID_BLOCK)
    size: int  # M
    freq_hi: np.ndarray
    freq_lo: np.ndarray
    weights: np.ndarray
    delta: np.ndarray  # delta_n
    powers: np.ndarray  # (R, terms): t_n^r / r!
    slots: np.ndarray  # the occupied slots m mod M, ascending
    firsts: np.ndarray  # each occupied slot's first term
    slot_terms: int  # most terms in one slot
    w_abs: float
    w_l2: float

    def blocks(self, alpha0: float, count: int):
        """Yield (start_index, values) blocks of the sum on alpha0 + j d,
        j < count, as iter_grid_values does."""
        M = self.size
        bins = np.zeros(M, dtype=np.complex128)
        for start, nb, (sh, sl) in _grid_blocks(alpha0, self.step, count):
            c = (nb - 1) / 2
            ph = phase_frac(self.freq_hi, self.freq_lo, sh, sl)
            coef = self.weights * np.exp(TWO_PI_I * (ph + self.delta * c))
            z = 1j * ((math.pi / M) * (np.arange(nb) - c))
            S = None
            for r in range(TAYLOR_GRID_TERMS - 1, -1, -1):
                a = coef * self.powers[r]
                bins[self.slots] = np.add.reduceat(a, self.firsts)
                # norm="forward" leaves the inverse unscaled: sum_m b_m e(mj/M)
                F = np.fft.ifft(bins, norm="forward")[:nb]
                if S is None:
                    S = F
                else:
                    S *= z
                    S += F
            yield start, S

    def error_bound(self, alpha0: float, count: int) -> float:
        """Certified bound on |G - S| and on ||G| - |S|| for every value G
        of blocks(alpha0, count), where S = sum w_n e(f_n alpha) at the exact
        node alpha = alpha0 + j d.

        With u = 2^-53, gamma_m = m u / (1 - m u), R = TAYLOR_GRID_TERMS,
        J = block, K the most terms in one slot, amax = |alpha0| + count d,
        f and f_lo the largest |fh| and |fl|, rho = pi (J-1)/(2M) (1 + (2M
        + 8) u) the bound of |z_j t_n| as computed, and per block

            e_c = 2 pi u (5 + 5 L) + 3 u,   L = 2.01 u f amax + f_lo amax,
                                   c_n to within |w_n| e_c (phase_frac's
                                   phase error u (1 + 5 L) as in
                                   points_error_bound, delta_n c and its
                                   sum 2 u, 2 pi i theta and exp 4 pi u +
                                   2 u, the product with w_n u)
            e_in = e_c + gamma_{2R+1} + sqrt(2) gamma_K
                                   a bin of row r to within e_in sum|w|
                                   t^r / r! (powers gamma_2R, product u,
                                   slot sums)
            E_F = sum|w| e_in + sqrt(M) phi (sqrt(K) ||w||_2
                  + e_in sum|w|) (1 + e_in)
                                   an entry of F_r to within E_F t^r / r!
                                   (Higham, Accuracy and Stability, 2nd ed.,
                                   Thm 24.2, phi = _fft_rounding(M), on
                                   bins of 2-norm <= sqrt(K) ||a_r||_2)

        the bound is

            e^rho (sum|w| rho^R / R!                Taylor truncation
                   + E_F                            table rows
                   + gamma_{6R+3} (sum|w| + E_F))   Horner in a rounded z
                                                    (gamma_4R + gamma_2R)
                                                    and np.abs
          + 2 pi sum|w| ((f + f_lo) 5.01 u^2 amax   block base in
                                                    double-double
                         + J (x_err + u (1/(2M) + 2u)))
                                                    x_n and delta_n, times j

        with x_err = 1.01 u^2 f d + 2.01 u f_lo d, the error of x_n formed
        as two_prod(fh, d) + fl d.
        """
        R, M, J, d = TAYLOR_GRID_TERMS, self.size, self.block, self.step
        amax = abs(alpha0) + count * d
        f = float(np.max(np.abs(self.freq_hi)))
        f_lo = float(np.max(np.abs(self.freq_lo)))
        K = self.slot_terms
        rho = math.pi * (J - 1) / (2 * M) * (1 + (2 * M + 8) * U)
        L = 2.01 * U * f * amax + f_lo * amax
        e_c = 2 * math.pi * U * (5 + 5 * L) + 3 * U
        e_in = e_c + higham_gamma(2 * R + 1) + math.sqrt(2) * higham_gamma(K)
        e_f = (self.w_abs * e_in
               + math.sqrt(M) * _fft_rounding(M)
               * (math.sqrt(K) * self.w_l2 + e_in * self.w_abs) * (1 + e_in))
        x_err = 1.01 * U * U * f * d + 2.01 * U * f_lo * d
        horner = higham_gamma(6 * R + 3) * (self.w_abs + e_f)
        return (math.exp(rho) * (self.w_abs * rho**R / math.factorial(R)
                                 + e_f + horner)
                + 2 * math.pi * self.w_abs
                * ((f + f_lo) * 5.01 * U * U * amax
                   + J * (x_err + U * (0.5 / M + 2 * U))))


def taylor_grid_plan(fh, fl, weights, step: float,
                     count: int) -> TaylorGridPlan | None:
    """The Taylor-table plan of the grid sum of (fh, fl, weights) over
    count nodes of spacing `step`, or None where the row recurrence costs
    less (TAYLOR_GRID_COST) or there are no terms."""
    n = len(fh)
    block = min(count, GRID_BLOCK)
    M = 1 << (block - 1).bit_length()
    R = TAYLOR_GRID_TERMS
    if n == 0 or n * block < TAYLOR_GRID_COST * R * M * math.log2(2 * M):
        return None
    p, e = two_prod(fh, step)
    xh, xl = two_sum(p - np.rint(p), e + fl * step)
    m = np.rint(xh * M)
    delta = (xh - m / M) + xl  # xh - m/M is exact
    slots = m.astype(np.int64) % M
    order = np.argsort(slots, kind="stable")
    slots, delta = slots[order], delta[order]
    firsts = np.flatnonzero(np.diff(slots, prepend=-1))
    powers = _taylor_rows(1.0, 2 * M * delta, R)
    w = weights[order]
    return TaylorGridPlan(
        step, block, M, fh[order], fl[order], w, delta, powers, slots[firsts],
        firsts, int(np.max(np.diff(firsts, append=n))), math.fsum(np.abs(w)),
        math.sqrt(math.fsum(w * w)))


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
