"""Continued fractions, best rational approximation, and the cube sequence.

All expansions run on the exact rational represented by the float64 input,
in 50-digit arithmetic, with integer (arbitrary-precision) numerators and
denominators.  An expansion is cut off once its residual |q x - a| sinks to
the noise floor of the double input or q outgrows 2^63, and the cutoff is
flagged: convergents beyond that point would describe the rounding of the
input, not the number the caller had in mind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import DomainError
from .expsums import prime_exp_sum
from .primes import PrimeTable, SumRange

_MAX_DEPTH = 40
_Q_LIMIT = 1 << 63


@dataclass(frozen=True)
class Convergent:
    """One continued-fraction convergent a/q with its residual |q x - a|."""

    a: int
    q: int
    index: int
    residual: float


@dataclass(frozen=True)
class RationalWitness:
    """A rational approximation a/q of some x, with residual |q x - a|."""

    a: int
    q: int
    residual: float
    meets_dirichlet: bool


@dataclass
class Expansion:
    """Convergent list plus how the expansion ended."""

    convergents: list[Convergent]
    exact: bool  # input was hit exactly (rational input)
    truncated: bool  # cut at the double-precision noise floor or q cap

    def __iter__(self):
        return iter(self.convergents)

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "a", "q", "residual"])
            out.writerows((c.index, c.a, c.q, c.residual)
                          for c in self.convergents)


def _residual_exact(num: int, den: int, a: int, q: int) -> float:
    # |q * num/den - a| in integer arithmetic, rounded once at the end
    return float(Fraction(abs(q * num - a * den), den))


def convergents(x: float, n: int) -> Expansion:
    """First n convergents of x by integer Euclid on its exact rational.

    A float64 input IS a rational; its expansion is computed exactly, so
    termination (exact hit) is unambiguous.  The noise-floor flag fires
    once |q x - a| sinks below q * ulp(x): convergents beyond that describe
    the rounding of x, not the number the caller meant.
    """
    if not 1 <= n <= _MAX_DEPTH:
        raise DomainError(f"depth must be in [1, {_MAX_DEPTH}], got {n}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    num, den = x.as_integer_ratio()
    noise = abs(x) * 2.0**-50 if x != 0 else 2.0**-50

    out: list[Convergent] = []
    a0 = num // den
    r_num, r_den = num - a0 * den, den  # remainder x - a0 as a fraction
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    out.append(Convergent(a=a0, q=1, index=0,
                          residual=_residual_exact(num, den, a0, 1)))
    exact = r_num == 0
    truncated = False
    while len(out) < n and not exact:
        digit, rem = divmod(r_den, r_num)  # invert and split the remainder
        r_num, r_den = rem, r_num
        p_prev, p_cur = p_cur, digit * p_cur + p_prev
        q_prev, q_cur = q_cur, digit * q_cur + q_prev
        if q_cur >= _Q_LIMIT:
            truncated = True
            break
        res = _residual_exact(num, den, p_cur, q_cur)
        out.append(Convergent(a=p_cur, q=q_cur, index=len(out), residual=res))
        if r_num == 0:
            exact = True
        elif res < noise * q_cur:
            truncated = True
            break
    return Expansion(convergents=out, exact=exact, truncated=truncated)


def legendre_check(a: int, q: int, x: float) -> bool:
    """Legendre's criterion |q x - a| < 1/(2q) for gcd(a, q) = 1.

    When true, a/q is necessarily a convergent of x.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise DomainError(f"a/q must be reduced, got {a}/{q}")
    return abs(q * mp.mpf(float(x)) - a) < mp.mpf(1) / (2 * q)


def find_rational_witness(lambda_alpha: float, Q: float) -> RationalWitness:
    """Best rational a/q, q <= Q, for lambda_alpha, residual target 1/Q.

    This is the last convergent p_n/q_n with q_n <= Q: by Lagrange's
    best-approximation theorem |q x - a| >= |q_n x - p_n| for every q below
    q_(n+1), and q_0 = 1 <= Q.  By the pigeonhole argument it satisfies
    |q lambda_alpha - a| <= 1/Q whenever the expansion reaches that deep.
    A candidate is always returned; `meets_dirichlet` records whether the
    1/Q target was met.
    """
    if not Q >= 1:  # NaN fails too
        raise DomainError(f"Q must be >= 1, got {Q}")
    best = [c for c in convergents(lambda_alpha, _MAX_DEPTH) if c.q <= Q][-1]
    return RationalWitness(a=best.a, q=best.q, residual=best.residual,
                           meets_dirichlet=best.residual <= 1.0 / Q)


def cube_sequence(lambda1: float, lambda2: float,
                  cap: float) -> tuple[list[tuple[int, int]], bool]:
    """Denominators q of convergents of the coefficient ratio, cubed.

    Returns ([(q, q^3), ...] with q^3 <= cap, rational_flag).  The ratio is
    normalized to absolute value >= 1 (numerators and denominators of the
    convergents of x swap under x -> 1/x, so this only fixes which of the
    two plays the denominator).  The flag reports that the float64 ratio
    reconstructs exactly as a small rational (q <= 1e6), which violates the
    irrationality hypothesis.
    """
    if lambda2 == 0 or lambda1 == 0:
        raise DomainError("coefficients must be nonzero")
    ratio = abs(lambda1 / lambda2)
    if ratio < 1.0:
        ratio = 1.0 / ratio
    exp = convergents(ratio, _MAX_DEPTH)
    rational = exp.exact and exp.convergents[-1].q <= 10**6
    out: list[tuple[int, int]] = []
    last_q = 0
    for c in exp:
        if c.q <= last_q:
            continue
        x3 = c.q**3
        if x3 > cap:
            break
        out.append((c.q, x3))
        last_q = c.q
    return out, rational


def vaughan_ratio(alpha: float, a: int, q: int, rng: SumRange,
                  table: PrimeTable) -> float:
    """|S_1(alpha)| divided by the rational-approximation bound

        (X/sqrt(q) + sqrt(X q) + X^(4/5)) (log X)^4

    valid when gcd(a, q) = 1 and |alpha - a/q| < 1/q^2; the value estimates
    the implied constant at this point.
    """
    if q < 1 or math.gcd(a, q) != 1:
        raise DomainError(f"need reduced a/q with q >= 1, got {a}/{q}")
    if abs(alpha - a / q) >= 1.0 / (q * q):
        raise DomainError(
            f"alpha={alpha} is not within 1/q^2 of {a}/{q}"
        )
    lin = SumRange(1.0, rng.delta, rng.X)
    s = abs(prime_exp_sum(alpha, lin, table))
    X = rng.X
    bound = (X / math.sqrt(q) + math.sqrt(X * q) + X**0.8) * math.log(X) ** 4
    return s / bound
