import math
from types import SimpleNamespace

import numpy as np
import pytest

from dhlab import primes
from dhlab.errors import DomainError, EmptyDomainError, InsufficientTableError
from dhlab.primes import (SumRange, _in_window, integers_in_range,
                          primes_in_range, sieve, theta, theta_many)


def trial_division_count(limit):
    """Independent pi(x) oracle."""
    count = 0
    for n in range(2, limit + 1):
        for d in range(2, int(math.isqrt(n)) + 1):
            if n % d == 0:
                break
        else:
            count += 1
    return count


def is_prime_miller_rabin(n):
    """Deterministic Miller-Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_sieve_small():
    assert list(sieve(10).primes) == [2, 3, 5, 7]
    assert list(sieve(2).primes) == [2]
    with pytest.raises(EmptyDomainError):
        sieve(1)


def test_sieve_refuses_limits_past_2_32(monkeypatch):
    # pi(2e10) int64 primes would take 7 GB and some 76k segments: limits
    # past 2^32 are refused before anything is allocated
    for limit in ((1 << 32) + 1, 2 * 10**10, 10**30):
        with pytest.raises(DomainError, match=r"sieve limit must be <= 2\^32"):
            sieve(limit)

    # 2^32 itself goes on to the sieve
    class Sieving(Exception):
        pass

    def sieving(n):
        raise Sieving

    monkeypatch.setattr(primes, "math", SimpleNamespace(isqrt=sieving))
    with pytest.raises(Sieving):
        sieve(1 << 32)


def test_sieve_pi_1e6(table_1e6):
    assert len(table_1e6) == 78498  # classical pi(1e6)
    assert trial_division_count(10**4) == int(
        np.searchsorted(table_1e6.primes, 10**4, side="right")
    )


def test_sieve_segment_boundaries(table_1e6):
    # segments are 2^18 wide; compare a window straddling a boundary against
    # the Miller-Rabin oracle
    lo, hi = (1 << 18) - 50, (1 << 18) + 50
    mine = [p for p in table_1e6.primes if lo <= p <= hi]
    oracle = [n for n in range(lo, hi + 1) if is_prime_miller_rabin(n)]
    assert mine == oracle


def test_table_invariants(table_1e6):
    ps = table_1e6.primes
    assert ps[0] == 2
    assert np.all(np.diff(ps) > 0)
    rng = np.random.default_rng(2)
    for p in rng.choice(ps, size=200, replace=False):
        assert is_prime_miller_rabin(int(p))


def test_theta_values(table_1e6):
    assert theta(1, table_1e6) == 0.0
    expect = math.fsum(math.log(p) for p in (2, 3, 5, 7))
    assert theta(10, table_1e6) == pytest.approx(expect, rel=1e-15)
    # direct-summation oracle at 1e5
    direct = math.fsum(
        math.log(int(p)) for p in table_1e6.primes[table_1e6.primes <= 10**5]
    )
    assert theta(10**5, table_1e6) == pytest.approx(direct, rel=1e-13)
    # the PNT deviation at 1e5 is 0.315%; keep a 0.5% sanity band
    assert abs(theta(10**5, table_1e6) - 10**5) < 0.005 * 10**5


def test_theta_envelope_and_monotone(table_1e6):
    # the 5% envelope genuinely fails just below x ~ 1430 (theta(1422) is
    # 5.38% low), so it is asserted from 1500 up, with 6% on [1000, 1500)
    xs = np.geomspace(1500, 10**6, 40)
    vals = theta_many(xs, table_1e6)
    assert np.all(np.abs(vals - xs) < 0.05 * xs)
    low = np.arange(1000.0, 1500.0, 7.0)
    assert np.all(np.abs(theta_many(low, table_1e6) - low) < 0.06 * low)
    assert np.all(np.diff(theta_many(np.sort(xs), table_1e6)) >= 0)


def test_theta_errors(table_1e6):
    with pytest.raises(InsufficientTableError):
        theta(10**6 + 1, table_1e6)


def test_theta_refuses_nan(table_1e6):
    with pytest.raises(InsufficientTableError):
        theta(math.nan, table_1e6)
    with pytest.raises(InsufficientTableError):
        theta_many([3.0, math.nan], table_1e6)


def test_primes_in_range_examples(table_1e6):
    got = primes_in_range(SumRange(2, 0.25, 100), table_1e6)
    assert [p for p, _ in got] == [5, 7]  # 25 <= p^2 <= 100, boundary in
    got = primes_in_range(SumRange(1, 0.25, 10), table_1e6)
    assert [p for p, _ in got] == [3, 5, 7]
    assert primes_in_range(SumRange(3, 0.9, 26), table_1e6) == []


def test_primes_in_range_boundary_non_integer_k(table_1e6):
    # k chosen so 3^k == 100 in exact arithmetic sits within double rounding
    k = math.log(100) / math.log(3)
    inside = primes_in_range(SumRange(k, 0.5, 100.0000001), table_1e6)
    assert 3 in [p for p, _ in inside]
    outside = primes_in_range(SumRange(k, 0.5, 99.9999999), table_1e6)
    assert 3 not in [p for p, _ in outside]



def test_dyadic_window_edges_are_exact():
    # 144^2.5 = 12^5 = 248832: an integer on either edge of a k = 2.5 window
    # is inside, and its neighbours are out
    assert _in_window(144, SumRange(2.5, 0.5, 248832.0))
    assert not _in_window(145, SumRange(2.5, 0.5, 248832.0))
    assert list(integers_in_range(SumRange(2.5, 0.5, 248832.0)))[-1] == 144
    # every square a^2 whose a^5 is exact in float64, on the upper edge of
    # one window and on the lower edge (delta X = a^5) of another
    squares = [a for a in range(2, 3000) if float(a**5) == a**5]
    assert len(squares) > 300
    for a in squares:
        top = SumRange(2.5, 0.5, float(a**5))
        assert _in_window(a * a, top) and not _in_window(a * a + 1, top)
        if float(2 * a**5) == 2 * a**5:
            bottom = SumRange(2.5, 0.5, float(2 * a**5))
            assert _in_window(a * a, bottom)
            assert not _in_window(a * a - 1, bottom)
    # and at k = 1.25 = 5/4: 16^1.25 = 32
    assert _in_window(16, SumRange(1.25, 0.5, 32.0))
    assert _in_window(16, SumRange(1.25, 0.5, 64.0))
    assert not _in_window(15, SumRange(1.25, 0.5, 64.0))
    # a k past any exponent: 2^k is refused by its bit length, unformed
    assert _in_window(2, SumRange(1e308, 0.1, 100)) is False


def test_theta_matches_window_sum(table_1e6):
    for x in (50, 1234, 99991):
        window = primes_in_range(SumRange(1, 1e-12, x), table_1e6)
        assert theta(x, table_1e6) == pytest.approx(
            math.fsum(lg for _, lg in window), rel=1e-13
        )


def test_integers_in_range():
    assert list(integers_in_range(SumRange(2, 0.25, 100))) == [5, 6, 7, 8, 9, 10]
    assert list(integers_in_range(SumRange(1, 0.5, 4))) == [2, 3, 4]
    assert len(integers_in_range(SumRange(3, 0.9, 26))) == 0
    # large window: interior fast path
    big = integers_in_range(SumRange(1, 0.001, 10**6))
    assert big[0] == 1000 and big[-1] == 10**6 and len(big) == 10**6 - 999
    # windows of 0..12 integers, short enough that the head and tail meet,
    # with edges on k-th powers and between them
    for k in (1, 1.5, 2, 2.5, 3):
        for m in (1, 2, 7, 50, 1000):
            edges = [(m + 0.3, m + c + 0.6) for c in range(13)]
            edges += [(m, m + c) for c in range(1, 12)]
            edges += [(m, m + c + 0.5) for c in range(12)]
            for lo, hi in edges:
                rng = SumRange(k, lo**k / hi**k, hi**k)
                want = [n for n in range(1, math.ceil(hi) + 3)
                        if _in_window(n, rng)]
                got = integers_in_range(rng)
                assert got.dtype == np.int64 and list(got) == want, (k, lo, hi)


def test_sum_range_validation():
    with pytest.raises(ValueError):
        SumRange(0, 0.5, 10)
    with pytest.raises(ValueError):
        SumRange(2, 1.5, 10)
    for X in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            SumRange(2, 0.5, X)
    # k must be finite too
    for k in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError, match="k must be positive and finite"):
            SumRange(k, 0.1, 100)
    # and the window edge X^(1/k) must be a float64
    with pytest.raises(DomainError, match="window edge .* passes float64"):
        SumRange(0.5, 0.1, 1e300)
    assert SumRange(0.5, 0.1, 2.0**511).hi == 2.0**1022


def test_integer_window_past_2_60_refused_before_any_array():
    # the int64 integers, and their byte count, must fit: windows reaching
    # 2^60 are refused, at k = 1 just past it and above int64
    for k, X in ((1, 1e19), (1, 9.2e18), (1, 2.0**60), (0.5, 1e30)):
        with pytest.raises(DomainError, match="pass 2\\^60"):
            integers_in_range(SumRange(k, 0.1, X))
    # a narrow window just below it is still built, and exactly
    n = 2**60 - 2**8  # a float, so hi + 1 stays below 2^60
    rng = SumRange(1, 1 - 2**-53, float(n))
    want = [m for m in range(n - 1000, n + 2) if _in_window(m, rng)]
    assert 0 < len(want) < 1000 and want[-1] == n
    assert list(integers_in_range(rng)) == want
