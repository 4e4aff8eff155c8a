"""Weighted exponential sums over primes and integers, and the Fejer pair.

Central objects:

  prime_exp_sum(alpha)    sum of log(p) * e(p^k * alpha) over the window
  integer_exp_sum(alpha)  sum of       e(n^k * alpha) over the window
  integral_exp_sum(alpha) the continuous analogue, an oscillatory integral
  fejer_kernel / _hat     the detection kernel (sin(pi a eta)/(pi a))^2 and
                          its transform max{0, eta - |a|}

plus a grid evaluator built for throughput: per term the rotation recurrence
e(x*(a0+(j+1)d)) = e(x*(a0+j*d)) * e(x*d) advances along a row of at most
1024 grid points, and every row restarts from an extended-precision phase,
so rounding drift never accumulates past the resync interval.  Rows are
batched into a complex matrix product, which is where the throughput
comes from.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridStepError, PhaseBudgetError, QuadratureError
from .precision import dd_add, dd_scale, phase_frac, pow_dd, two_prod
from .primes import PrimeTable, SumRange, integers_in_range, window_arrays

RESYNC = 1024  # max steps between extended-precision phase resyncs
GRID_BLOCK = 1 << 16  # points per block yielded by iter_grid_values
# rows per grid matrix product: as many as keep terms x rows within
# _PRODUCT_TERMS, and never fewer than _PRODUCT_ROWS (bounds its memory)
_PRODUCT_TERMS = 1 << 20
_PRODUCT_ROWS = 64
PHASE_BUDGET = float(1 << 46)  # max |freq * alpha| the grid machinery accepts

_TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class KernelParams:
    """Width parameter of the detection kernel; eta in (0,1)."""

    eta: float

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must be in (0,1), got {self.eta}")


def _eta_of(p) -> float:
    return p.eta if isinstance(p, KernelParams) else float(p)


def fejer_kernel(alpha, params) -> float | np.ndarray:
    """K_eta(alpha) = (sin(pi alpha eta) / (pi alpha))^2, K_eta(0) = eta^2."""
    eta = _eta_of(params)
    a = np.asarray(alpha, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (np.sin(np.pi * a * eta) / (np.pi * a)) ** 2
    v = np.where(np.abs(a) < 1e-12 * eta, eta * eta, v)
    return v if a.ndim else float(v)


def fejer_kernel_hat(alpha, params) -> float | np.ndarray:
    """The transform max{0, eta - |alpha|}: a tent supported on [-eta, eta]."""
    eta = _eta_of(params)
    a = np.asarray(alpha, dtype=np.float64)
    v = np.maximum(0.0, eta - np.abs(a))
    return v if a.ndim else float(v)


# ---------------------------------------------------------------------------
# frequency/weight assembly, cached per window: prime ensembles on their
# PrimeTable, so they live exactly as long as it does; integer ensembles,
# which need no table, on (window, scale)

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
        return _integer_freqs(rng, float(scale))
    raise ValueError(f"unknown kind {kind!r}")


@functools.lru_cache(maxsize=64)
def _integer_freqs(rng: SumRange, scale: float):
    ns = integers_in_range(rng)
    return _assemble_freqs(ns, np.ones(len(ns), dtype=np.float64), rng, scale)


def _assemble_freqs(ns, weights, rng: SumRange, scale: float):
    if float(rng.k).is_integer():
        powers = ns.astype(object) ** int(rng.k) if rng.X >= 2**53 else ns ** int(rng.k)
        fh = np.asarray(powers, dtype=np.float64)
        fl = np.zeros_like(fh)
    else:
        fh = np.empty(len(ns), dtype=np.float64)
        fl = np.empty(len(ns), dtype=np.float64)
        for i, n in enumerate(ns):
            fh[i], fl[i] = pow_dd(float(n), rng.k)
    if scale != 1.0:
        fh, fl = dd_scale(fh, fl, scale)
    return fh, fl, weights


def _eval_terms(fh, fl, weights, alpha: float, alpha_lo: float = 0.0) -> complex:
    if len(fh) == 0:
        return 0j
    f = phase_frac(fh, fl, alpha, alpha_lo)
    return complex(np.dot(weights, np.exp(_TWO_PI_I * f)))


def prime_exp_sum(alpha: float, rng: SumRange, table: PrimeTable,
                  scale: float = 1.0, alpha_lo: float = 0.0) -> complex:
    """Sum of log(p) e(scale * p^k * alpha) over the window of `rng`.

    The product p^k * alpha is reduced mod 1 through the hi/lo machinery, so
    phases far beyond 2^53 keep full fractional accuracy.  `alpha_lo` is an
    optional low-order part of the abscissa for exact two-term inputs.
    """
    fh, fl, w = sum_freqs("prime", rng, table, scale)
    return _eval_terms(fh, fl, w, float(alpha), alpha_lo)


def integer_exp_sum(alpha: float, rng: SumRange, scale: float = 1.0,
                    alpha_lo: float = 0.0) -> complex:
    """Sum of e(scale * n^k * alpha) over integers in the window of `rng`."""
    fh, fl, w = sum_freqs("integer", rng, scale=scale)
    return _eval_terms(fh, fl, w, float(alpha), alpha_lo)


# ---------------------------------------------------------------------------
# oscillatory integral of e(t^k alpha) over the window

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_pass(alpha: float, k: float, lo: float, hi: float, panels: int) -> complex:
    acc = 0j
    chunk = 1 << 14
    edges = np.linspace(lo, hi, panels + 1)
    for s in range(0, panels, chunk):
        e = min(panels, s + chunk)
        a = edges[s:e]
        b = edges[s + 1 : e + 1]
        c = 0.5 * (a + b)
        hw = 0.5 * (b - a)
        t = c[:, None] + hw[:, None] * _GL_NODES[None, :]
        f = phase_frac(t**k, 0.0, alpha)
        vals = np.exp(_TWO_PI_I * f) @ _GL_WEIGHTS
        acc += complex(np.dot(hw, vals))
    return acc


def integral_exp_sum(alpha: float, rng: SumRange, max_evals: int = 1 << 23) -> complex:
    """Integral of e(t^k alpha) over t in the window, to 1e-8 * width absolute.

    Gauss-Legendre panels of order 16.  The starting panel width follows
    min(1, 1/(8 k |alpha| X^((k-1)/k))) times the window width; panel counts
    then double until two passes agree within tolerance.
    """
    lo, hi = rng.lo, rng.hi
    width = hi - lo
    if width <= 0:
        return 0j
    alpha = float(alpha)
    if alpha == 0.0:
        return complex(width)
    k = rng.k
    fmax = 8.0 * k * abs(alpha) * rng.X ** ((k - 1.0) / k)
    frac = min(1.0, 1.0 / fmax) if fmax > 0 else 1.0
    panels = max(1, math.ceil(1.0 / frac))
    tol = 1e-8 * width
    prev = _gl_pass(alpha, k, lo, hi, panels)
    residual = math.inf
    while panels * 32 <= max_evals:
        panels *= 2
        cur = _gl_pass(alpha, k, lo, hi, panels)
        residual = abs(cur - prev)
        if residual <= tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"integral of e(t^{k} * {alpha}) did not converge with {panels} panels",
        residual,
    )


# ---------------------------------------------------------------------------
# grid evaluation

@dataclass
class SpectrumGrid:
    """Exponential-sum values on the uniform grid alpha0 + j*step."""

    alpha0: float
    step: float
    count: int
    values: np.ndarray
    resync: int = RESYNC
    kind: str = "prime"

    def alphas(self) -> np.ndarray:
        """Nominal float64 abscissas alpha0 + j*step."""
        return self.alpha0 + np.arange(self.count) * self.step

    def alpha_dd(self, j: int) -> tuple[float, float]:
        """Exact two-term abscissa of grid point j as evaluated by the kernel.

        Row bases are formed in float64 every `resync` points; within a row
        the offset b*step enters exactly.  The returned (hi, lo) pair is the
        point the stored value actually corresponds to, suitable for spot
        checks against the pointwise evaluators.
        """
        a, b = divmod(int(j), self.resync)
        base = self.alpha0 + (a * self.resync) * self.step
        bh, bl = two_prod(float(b), self.step)
        return dd_add(base, 0.0, bh, bl)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["alpha", "re", "im", "abs"])
            for a, v in zip(self.alphas(), self.values):
                out.writerow([repr(float(a)), repr(v.real), repr(v.imag),
                              repr(float(abs(v)))])


def _plan_block(count: int, n_terms: int) -> int:
    cap = max(128, (1 << 23) // max(1, n_terms))
    return max(1, min(RESYNC, count, cap))


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
    whatever the row size, so generators over different ensembles on the
    same grid yield aligned blocks; a row that straddles a block edge is
    evaluated for both blocks.  Summation order within a row is fixed
    (ascending term), so results are reproducible.
    """
    _check_budget(fh, alpha0, step, count)
    n_terms = len(fh)
    B = _plan_block(count, n_terms)
    rot = np.exp(_TWO_PI_I * phase_frac(fh, fl, step))
    V = np.empty((n_terms, B), dtype=np.complex128)
    V[:, 0] = 1.0
    for b in range(1, B):
        np.multiply(V[:, b - 1], rot, out=V[:, b])

    rows = max(_PRODUCT_ROWS, _PRODUCT_TERMS // max(1, n_terms))
    for start in range(0, count, GRID_BLOCK):
        stop = min(count, start + GRID_BLOCK)
        r_first, r_end = start // B, -(-stop // B)
        products = []
        for r0 in range(r_first, r_end, rows):
            bases = alpha0 + (np.arange(r0, min(r0 + rows, r_end)) * B) * step
            phases = phase_frac(fh[:, None], fl[:, None], bases[None, :])
            U = weights[:, None] * np.exp(_TWO_PI_I * phases)
            products.append((U.T @ V).ravel())
        S = products[0] if len(products) == 1 else np.concatenate(products)
        yield start, S[start - r_first * B : stop - r_first * B]


def trapezoid_step(lo: float, hi: float, max_step: float,
                   step: float | None = None) -> tuple[int, float]:
    """Panel count n and actual step (hi - lo) / n for a trapezoid over
    [lo, hi] whose step may not exceed `max_step` (its default)."""
    if hi <= lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    if step is None:
        step = max_step
    elif step > max_step * (1 + 1e-12):
        raise GridStepError(
            f"step {step:.3e} too coarse; the window requires <= {max_step:.3e}"
        )
    n = max(1, math.ceil((hi - lo) / step))
    return n, (hi - lo) / n


def trapezoid(ensembles, lo: float, h: float, count: int, f) -> float | complex:
    """Trapezoid rule with step h over the nodes lo + j*h, j < count, of
    f(alphas, *sums), where sums holds the grid values of each
    (freq_hi, freq_lo, weights) ensemble at those nodes.

    Blocks are summed with np.sum and the block sums reduced with math.fsum
    (real and imaginary parts apart for a complex integrand), so the result
    depends on the grid alone, not on the row plan of any ensemble.
    """
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


def eval_points(fh, fl, weights, alphas: np.ndarray) -> np.ndarray:
    """Weighted exponential sum at arbitrary (non-grid) abscissas."""
    alphas = np.asarray(alphas, dtype=np.float64)
    out = np.empty(len(alphas), dtype=np.complex128)
    if len(fh) == 0:
        out[:] = 0j
        return out
    chunk = max(1, (1 << 22) // len(fh))
    for s in range(0, len(alphas), chunk):
        a = alphas[s : s + chunk]
        ph = phase_frac(fh[:, None], fl[:, None], a[None, :])
        out[s : s + len(a)] = weights @ np.exp(_TWO_PI_I * ph)
    return out


def eval_grid(kind: str, rng: SumRange, table: PrimeTable | None = None, *,
              alpha0: float, step: float, count: int,
              scale: float = 1.0) -> SpectrumGrid:
    """Evaluate the kind='prime'/'integer' sum on alpha0 + j*step, j < count.

    Values match the pointwise evaluators at the grid's exact two-term
    abscissas (see SpectrumGrid.alpha_dd) to well within 1e-9 relative.
    """
    if step <= 0 or count < 1:
        raise ValueError("grid needs step > 0 and count >= 1")
    fh, fl, w = sum_freqs(kind, rng, table, scale)
    _check_budget(fh, alpha0, step, count)
    values = np.empty(count, dtype=np.complex128)
    B = _plan_block(count, len(fh))
    for start, block in iter_grid_values(fh, fl, w, alpha0, step, count):
        values[start : start + len(block)] = block
    return SpectrumGrid(alpha0=alpha0, step=step, count=count, values=values,
                        resync=B, kind=kind)
