"""Arc decomposition of the real line and the parameter choices behind it.

For a scale X the line splits into four symmetric regions by |alpha|:
major [0, P/X], intermediate (P/X, X^(-3/5)] (present only for k >= 5/2),
minor (up to R), and the trivial remainder.  The decay exponent eta_exponent
fixes how fast the detection width eta may shrink with X; P and R are the
classical truncation choices that keep the complementary regions negligible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import DomainError, ParameterError

INTERMEDIATE_MIN_K = 2.5  # intermediate region exists for k in [5/2, 3]


def _k_fraction(k: float) -> Fraction:
    # the shortest decimal repr carries the caller's intent, so breakpoint
    # and branch values come out exact for decimal inputs like 1.1
    if not math.isfinite(k):
        raise DomainError(f"k must be finite, got {k}")
    return Fraction(str(float(k)))


def eta_exponent(k: float) -> float:
    """The piecewise exponent psi with eta = X^(-psi + epsilon):

        (3-2k)/(6k) on (1, 6/5],  1/12 on (6/5, 2],
        (3-k)/(6k) on (2, 3),     1/24 at k = 3.

    Exact (rational) branch arithmetic; values like psi(1.1) = 4/33 are
    returned as the correctly rounded double of the exact fraction.
    """
    kf = _k_fraction(k)
    if not Fraction(1) < kf <= Fraction(3):
        raise DomainError(f"k must be in (1, 3], got {k}")
    if kf <= Fraction(6, 5):
        val = (3 - 2 * kf) / (6 * kf)
    elif kf <= 2:
        val = Fraction(1, 12)
    elif kf < 3:
        val = (3 - kf) / (6 * kf)
    else:
        val = Fraction(1, 24)
    return float(val)


def competitor_exponent(k: float) -> float:
    """The earlier exponent (4 - 3k)/(10k), defined on (1, 4/3)."""
    kf = _k_fraction(k)
    if not Fraction(1) < kf < Fraction(4, 3):
        raise DomainError(f"k must be in (1, 4/3), got {k}")
    return float((4 - 3 * kf) / (10 * kf))


@dataclass(frozen=True)
class ArcDecomposition:
    """Symmetric |alpha|-regions for one (k, X) with parameters eta, P, R."""

    k: float
    X: float
    eta: float
    P: float
    R: float
    major: tuple[float, float]  # [-P/X, P/X]
    intermediate: tuple[float, float] | None  # +/-[P/X, X^(-3/5)] or None
    minor: tuple[float, float]  # +/-[lower edge, R]
    window_feasible: bool = True

    @property
    def main_term_scale(self) -> float:
        """The main-term scale eta^2 X^(1+1/k)."""
        return self.eta * self.eta * self.X ** (1.0 + 1.0 / self.k)

    def to_json(self) -> dict:
        return {**asdict(self), "trivial": f"|alpha| > {self.R}"}


def choose_parameters(instance, X: float) -> ArcDecomposition:
    """Theoretical parameters and regions for `instance` at scale X:

        eta = X^(-psi(k) + eps),  P = X^(5/(6k) - eps),  R = (log X)^(3/2)/eta^2

    plus the feasibility flag of the main-term coefficient windows
    [2 delta |l3|/|lj| X, 3 delta |l3|/|lj| X] inside [delta X, (1-delta) X].
    Only eta < 1 can fail: finite X >= 100, k <= 3 and eps < 1/24 give
    P >= 100^(5/18 - 1/24) > 2.9, and R > 1/eta since (log X)^(3/2) > 1 > eta.
    """
    k = instance.k
    eps = instance.epsilon
    if not 100 <= X < math.inf:
        raise DomainError(f"X must be finite and >= 100, got {X}")
    if not 0 < eps < 1.0 / 24.0:
        raise DomainError(f"epsilon must be in (0, 1/24), got {eps}")
    psi = eta_exponent(k)
    eta = X ** (-psi + eps)
    if not eta < 1:
        raise ParameterError(
            f"eta = X^({-psi + eps:.6g}) >= 1: epsilon {eps} is not below "
            f"psi({k}) = {psi:.6g}; no X can repair this",
            failed="eta < 1",
        )
    P = X ** (5.0 / (6.0 * k) - eps)
    R = math.log(X) ** 1.5 / (eta * eta)

    cut = P / X
    inter = None
    if k >= INTERMEDIATE_MIN_K:
        inter_hi = X ** (-3.0 / 5.0)
        inter = (cut, inter_hi)
        minor = (inter_hi, R)
    else:
        minor = (cut, R)

    lam = (instance.lambda1, instance.lambda2, instance.lambda3)
    l3 = abs(lam[2])
    delta = instance.delta
    feasible = True
    for lj in lam[:2]:
        a_j = 2.0 * delta * l3 / abs(lj)
        if a_j < delta or 1.5 * a_j > 1.0 - delta:
            feasible = False

    return ArcDecomposition(
        k=k, X=float(X), eta=eta, P=P, R=R,
        major=(-cut, cut), intermediate=inter, minor=minor,
        window_feasible=feasible,
    )


def locate(alpha: float, d: ArcDecomposition) -> str:
    """Region of the decomposition containing alpha; boundaries go to the
    lower-|alpha| side."""
    a = abs(alpha)
    if a <= d.major[1]:
        return "major"
    if d.intermediate is not None and a <= d.intermediate[1]:
        return "intermediate"
    if a <= d.R:
        return "minor"
    return "trivial"
