import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from dhlab import precision
from dhlab.errors import DomainError
from dhlab.expsums import sum_freqs
from dhlab.precision import (dd_from_mpf, fixed_sum, fixed_to_float, pow_dd,
                             pow_mp)
from dhlab.primes import SumRange, integers_in_range

TINY = 5e-324  # 2^-1074, the smallest subnormal

# negatives, zeros and subnormals, from 2^-1074 up to 2^1000 in magnitude
_VALUES = st.lists(
    st.one_of(st.floats(-2.0**1000, 2.0**1000),
              st.floats(-1e-300, 1e-300),
              st.integers(-2**60, 2**60).map(lambda m: m * TINY),
              st.sampled_from([0.0, -0.0, TINY, -TINY, 2.0**1000, -2.0**1000])),
    max_size=80)


@settings(max_examples=400, deadline=None)
@given(values=_VALUES)
@example(values=[])
@example(values=[2.0**1000, TINY, -2.0**1000])
@example(values=[1.0, 2.0**-53, TINY])  # just above a tie: rounds up
@example(values=[1.0, 2.0**-53])  # a tie: rounds to even
@example(values=[-0.0, -0.0])
@example(values=[TINY] * 7 + [2.0**-1022, -2.0**-1022])
def test_exact_sum_is_fsum(values):
    arr = np.array(values, dtype=np.float64)
    assert fixed_to_float(fixed_sum(arr)) == math.fsum(values)


def test_exact_sum_empty():
    got = fixed_to_float(fixed_sum(np.empty(0)))
    assert got == 0.0 and math.copysign(1.0, got) == 1.0
    assert fixed_sum(np.empty(0)) == 0


@settings(max_examples=200, deadline=None)
@given(values=_VALUES.filter(len), data=st.data())
def test_exact_sum_order_and_split_invariant(values, data):
    arr = np.array(values, dtype=np.float64)
    want = fixed_sum(arr)
    perm = data.draw(st.permutations(range(len(arr))))
    assert fixed_sum(arr[list(perm)]) == want
    cuts = sorted(data.draw(st.lists(st.integers(0, len(arr)), max_size=6)))
    parts = np.split(arr, cuts)
    assert sum(fixed_sum(p) for p in parts) == want
    assert fixed_to_float(want) == math.fsum(values)


def test_exact_sum_blocks(monkeypatch):
    # the bin sums are exact only up to _FIXED_BLOCK values a block: the
    # block loop must give the same integer for any block size
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(1000) * np.exp2(rng.integers(-60, 60, 1000))
    want = fixed_sum(arr)
    for block in (1, 3, 7, 64):
        monkeypatch.setattr(precision, "_FIXED_BLOCK", block)
        assert fixed_sum(arr) == want
    assert fixed_to_float(want) == math.fsum(arr.tolist())


def test_exact_sum_refuses_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite"):
            fixed_to_float(fixed_sum(np.array([1.0, bad])))


# n^k for dyadic k from integer roots, against 60-digit powers

_DYADIC_K = st.sampled_from([1.5, 2.5, 1.25, 2.75])


def _ref_power(n: int, k: float):
    """dd_from_mpf of mp.power at 60 digits, and the power rounded to the
    package's 50."""
    with mp.workdps(60):
        x = mp.power(n, mp.mpf(k))
        dd = dd_from_mpf(x)
    return dd, +x


# any n up to 2^45, where n^k > 2^53 for each k; squares, exact at k = 1.5
# and 2.5; fourth powers, exact at k = 1.25 and 2.75
_BASES = st.one_of(st.integers(1, 2**45),
                   st.integers(1, 2**20).map(lambda a: a * a),
                   st.integers(1, 2**11).map(lambda a: a**4))


@settings(max_examples=200, deadline=None)
@given(ns=st.lists(_BASES, min_size=1, max_size=12), k=_DYADIC_K)
@example(ns=[1, 2, 3, 4, 16, 97, 10**5, 999983], k=1.5)
@example(ns=[1600**2, 1601**2, 208064**2, 2**21 + 1], k=2.5)  # n^k > 2^53
@example(ns=[208064**2, 208065**2, 2**36 - 5], k=1.5)
@example(ns=[29**4, 30**4, 2**20], k=2.75)
@example(ns=[1600**4, 1601**4, 2**43 + 1], k=1.25)
def test_pow_dyadic_against_60_digit_powers(ns, k):
    hi, lo = pow_dd(np.array(ns, dtype=np.int64), k)
    for n, h, l in zip(ns, hi.tolist(), lo.tolist()):
        dd, x = _ref_power(n, k)
        assert (h, l) == dd, (n, k)
        assert pow_mp(n, k) == x, (n, k)
        m, q = Fraction(k).numerator, Fraction(k).denominator
        a = round(n ** (1 / q))
        if a**q == n and a**m < 2**106:  # exact: hi + lo is the power
            assert Fraction(h) + Fraction(l) == a**m
            assert pow_mp(n, k) == a**m


def test_pow_at_k_6_5_against_60_digit_powers():
    # k = 6/5, the branch point of psi, is not dyadic: one mp.power per
    # base at the package's 50 digits, hi correctly rounded and hi + lo
    # far inside 1e-30 relative
    ns = [1, 2, 3, 97, 10**5, 999983, 2**40 + 1, 2**45 - 55]
    hi, lo = pow_dd(np.array(ns, dtype=np.int64), 1.2)
    for n, h, l in zip(ns, hi.tolist(), lo.tolist()):
        y = pow_mp(n, 1.2)
        with mp.workdps(60):
            x = mp.power(n, mp.mpf(1.2))
            assert h == float(x), n
            assert abs(mp.mpf(h) + l - x) <= 1e-30 * x, n
            assert abs(y - x) <= mp.mpf(2) ** -160 * x, n


@settings(max_examples=15, deadline=None)
@given(a=st.integers(1553, 4000), below=st.integers(1, 60),
       above=st.integers(1, 250))
def test_pow_dd_integer_window_at_k_2_5(a, below, above):
    # a window around the square a^2, where n^2.5 > 2^53 (a^5 > 2^53)
    lo_n, hi_n = a * a - below, a * a + above
    rng = SumRange(2.5, (lo_n / hi_n) ** 2.5, float(hi_n) ** 2.5)
    fh, fl, _ = sum_freqs("integer", rng)
    ns = integers_in_range(rng).tolist()
    assert len(ns) == len(fh) and a * a in ns
    for n, h, l in zip(ns, fh.tolist(), fl.tolist()):
        assert (h, l) == _ref_power(n, 2.5)[0], n
    i = ns.index(a * a)
    assert Fraction(fh[i]) + Fraction(fl[i]) == a**5 > 2**53


def _root_reference(n, m, e, F):
    # floor(v) of v = (n^m 2^(F 2^e))^(1/2^e) by bisection, and whether v
    # is that integer
    x, q = n**m << (F << e), 1 << e
    lo, hi = 0, 1 << (x.bit_length() // q + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**q <= x else (lo, mid)
    return 2 * lo + (lo**q != x)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10**6), m=st.integers(1, 13), e=st.integers(1, 4),
       F=st.integers(0, 130))
@example(n=2, m=1, e=1, F=0)  # floor(sqrt 2) = 1, inexact: 3
@example(n=4, m=1, e=1, F=0)  # sqrt 4 = 2 exactly: 4
@example(n=16, m=3, e=2, F=5)  # 16^(3/4) 2^5 = 256 exactly
@example(n=17, m=1, e=2, F=0)  # sqrt 17 inexact, then isqrt(4) = 2 exact: 5
def test_dyadic_root_floor_and_sticky_bit(n, m, e, F):
    assert precision._dyadic_root(n, m, e, F) == _root_reference(n, m, e, F)


def test_pow_refuses_bases_below_one():
    # non-integer k: n < 1 is refused, dyadic k or not, on either power
    for k in (1.5, 2.5, 1.3):
        for bad in ([0], [-4], [5, -1, 7]):
            with pytest.raises(DomainError, match="n >= 1"):
                pow_dd(np.array(bad), k)
        for n in (0, -4):
            with pytest.raises(DomainError, match="n >= 1"):
                pow_mp(n, k)
    # integer k keeps every integer base, and an empty window stays empty
    assert pow_dd(np.array([-2, 0]), 3.0)[0].tolist() == [-8.0, 0.0]
    assert pow_mp(-2, 3.0) == -8
    assert len(pow_dd(np.empty(0, dtype=np.int64), 1.5)[0]) == 0
    # an empty window forms no power, so k past any exponent is fine
    for k in (1e308, 2.0**70, 1e300 + 0.5):
        hi, lo = pow_dd(np.empty(0, dtype=np.int64), k)
        assert hi.dtype == lo.dtype == np.float64 and len(hi) == len(lo) == 0
