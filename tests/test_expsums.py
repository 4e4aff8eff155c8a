import cmath
import math

import numpy as np
import pytest

from dhlab.errors import InsufficientTableError, PhaseBudgetError
from dhlab.expsums import (GRID_BLOCK, KernelParams, SpectrumGrid, _plan_block,
                           eval_grid, eval_points, fejer_kernel,
                           fejer_kernel_hat, integer_exp_sum,
                           integral_exp_sum, iter_grid_values, prime_exp_sum,
                           sum_freqs, trapezoid)
from dhlab.primes import PrimeTable, SumRange, sieve, theta


def test_prime_sum_at_zero(table_1e6):
    rng = SumRange(2, 0.25, 100)
    v = prime_exp_sum(0.0, rng, table_1e6)
    assert v.imag == 0.0
    assert v.real == pytest.approx(math.log(5) + math.log(7), rel=1e-15)
    # at alpha = 0 the sum is a theta difference over the window
    rng = SumRange(1, 0.3, 5000)
    expect = theta(5000, table_1e6) - theta(1500 - 1e-9, table_1e6)
    assert prime_exp_sum(0.0, rng, table_1e6).real == pytest.approx(expect, rel=1e-12)


def test_conjugate_symmetry_point(table_1e6):
    rng = SumRange(2, 0.1, 3000)
    for a in (0.123, 1.7, 33.033):
        v1 = prime_exp_sum(a, rng, table_1e6)
        v2 = prime_exp_sum(-a, rng, table_1e6)
        assert v2 == pytest.approx(v1.conjugate(), rel=1e-12)


def test_integer_sum_examples():
    assert integer_exp_sum(0.0, SumRange(2, 0.25, 100)) == pytest.approx(6.0)
    # n in {2,3,4} at alpha = 1/2: e(1) + e(3/2) + e(2) = 1 - 1 + 1
    v = integer_exp_sum(0.5, SumRange(1, 0.5, 4))
    assert v == pytest.approx(1.0, abs=1e-14)
    # integer phases: period 1 for integral k
    rng = SumRange(3, 0.2, 500)
    assert integer_exp_sum(1.25, rng) == pytest.approx(integer_exp_sum(0.25, rng),
                                                       rel=1e-12)


def test_phase_reduction_against_mpmath(table_1e6):
    # huge raw phases: p^3 * alpha ~ 1e12; oracle is a term-by-term mpmath sum
    from mpmath import mp
    rng = SumRange(3, 0.1, 10**6)
    alpha = 1037.25
    got = prime_exp_sum(alpha, rng, table_1e6)
    ps = [p for p, _ in __import__("dhlab.primes", fromlist=["primes_in_range"])
          .primes_in_range(rng, table_1e6)]
    acc = mp.mpc(0)
    for p in ps:
        ph = mp.mpf(p) ** 3 * mp.mpf(alpha)
        acc += mp.log(p) * mp.e ** (2j * mp.pi * (ph - mp.floor(ph)))
    assert abs(got - complex(acc)) / abs(complex(acc)) < 1e-12


def test_integral_trivial_cases():
    assert integral_exp_sum(0.0, SumRange(2, 0.25, 100)) == 5.0 + 0j
    rng = SumRange(2, 0.5, 10)
    assert integral_exp_sum(0.0, rng).real == pytest.approx(
        math.sqrt(10) - math.sqrt(5)
    )


def test_integral_closed_form_linear():
    # k = 1 has the exact antiderivative (e(X a) - e(dX a)) / (2 pi i a)
    rng = SumRange(1, 0.25, 100)
    for a in (0.003, 0.41, 2.0, 17.5):
        exact = (cmath.exp(2j * cmath.pi * 100 * a)
                 - cmath.exp(2j * cmath.pi * 25 * a)) / (2j * cmath.pi * a)
        got = integral_exp_sum(a, rng)
        assert abs(got - exact) <= 2e-8 * 75


def test_integral_decay_envelope():
    # |T_k| <= C X^(1/k-1) min(X, 1/|alpha|) on a log-spaced sample
    rng = SumRange(2, 0.1, 10**4)
    X = rng.X
    cs = []
    for a in np.geomspace(1e-5, 2.0, 15):
        v = abs(integral_exp_sum(float(a), rng))
        cs.append(v / (X ** (1 / 2 - 1) * min(X, 1 / a)))
    assert max(cs) < 2.0  # modest uniform constant at desk scale


def test_integral_minus_integer_sum_bound():
    # |T_k - U_k| <= C (1 + |alpha| X), C stable under X doubling
    for X in (500.0, 1000.0, 2000.0):
        rng = SumRange(2, 0.1, X)
        worst = 0.0
        for a in np.linspace(0.0, 10.0 / X, 21):
            d = abs(integral_exp_sum(float(a), rng) - integer_exp_sum(float(a), rng))
            worst = max(worst, d / (1.0 + a * X))
        assert worst < 2.0


def test_kernel_values():
    p = KernelParams(0.3)
    assert fejer_kernel(0.0, p) == pytest.approx(0.09)
    assert fejer_kernel_hat(0.15, p) == pytest.approx(0.15)
    assert fejer_kernel_hat(0.31, p) == 0.0
    assert fejer_kernel_hat(-0.29, p) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        KernelParams(1.0)


def test_kernel_envelope():
    # K_eta(alpha) <= min(eta^2, alpha^-2) on random points
    rng = np.random.default_rng(5)
    eta = 0.37
    a = rng.uniform(-50, 50, size=10**4)
    v = fejer_kernel(a, eta)
    assert np.all(v <= np.minimum(eta**2, 1.0 / np.maximum(a**2, 1e-300)) + 1e-15)


def test_grid_single_point_matches_eval(table_1e6):
    rng = SumRange(2, 0.25, 2000)
    g = eval_grid("prime", rng, table_1e6, alpha0=0.371, step=1e-4, count=1)
    direct = prime_exp_sum(0.371, rng, table_1e6)
    assert abs(g.values[0] - direct) <= 1e-13 * max(1.0, abs(direct))


def test_grid_matches_pointwise(table_1e6):
    rng = SumRange(1, 0.1, 50000)
    g = eval_grid("prime", rng, table_1e6, alpha0=0.0, step=1e-5, count=40000)
    picks = np.random.default_rng(7).integers(0, 40000, size=100)
    worst = 0.0
    for j in picks:
        ah, al = g.alpha_dd(int(j))
        direct = prime_exp_sum(ah, rng, table_1e6, alpha_lo=al)
        worst = max(worst, abs(g.values[j] - direct) / max(abs(direct), 1.0))
    assert worst < 1e-9


def test_grid_blocks_fixed_for_any_row_size(table_1e5):
    # 9592 terms give rows of 874 points, which do not divide a block; the
    # blocks stay GRID_BLOCK long and the straddling row is evaluated twice
    rng = SumRange(1, 1e-9, 1e5)
    f = sum_freqs("prime", rng, table_1e5)
    count = 70000
    assert len(f[0]) == 9592 and _plan_block(count, 9592) == 874
    blocks = list(iter_grid_values(*f, 0.3, 1e-6, count))
    assert [start for start, _ in blocks] == [0, GRID_BLOCK]
    g = SpectrumGrid(alpha0=0.3, step=1e-6, count=count, resync=874,
                     values=np.concatenate([b for _, b in blocks]))
    for j in (65535, 65536, 65537, 74 * 874, 75 * 874):
        ah, al = g.alpha_dd(j)
        direct = prime_exp_sum(ah, rng, table_1e5, alpha_lo=al)
        assert abs(g.values[j] - direct) <= 1e-9 * max(abs(direct), 1.0)


def test_trapezoid_matches_numpy(table_1e6):
    # several blocks, real and complex integrands, one and two ensembles
    lo, h, count = -0.1, 1e-6, 3 * GRID_BLOCK + 123
    r1, r2 = SumRange(1, 0.25, 1000), SumRange(2, 0.1, 1000)
    f1 = sum_freqs("prime", r1, table_1e6)
    f2 = sum_freqs("prime", r2, table_1e6, scale=-math.sqrt(2))
    v1 = eval_grid("prime", r1, table_1e6, alpha0=lo, step=h, count=count).values
    v2 = eval_grid("prime", r2, table_1e6, alpha0=lo, step=h, count=count,
                   scale=-math.sqrt(2)).values
    got = trapezoid([f1], lo, h, count, lambda a, s: np.abs(s) ** 2)
    assert isinstance(got, float)
    assert got == pytest.approx(np.trapezoid(np.abs(v1) ** 2, dx=h), rel=1e-12)
    alphas = lo + np.arange(count) * h
    got = trapezoid([f1, f2], lo, h, count,
                    lambda a, s, t: s * t * fejer_kernel(a, 0.3))
    want = np.trapezoid(v1 * v2 * fejer_kernel(alphas, 0.3), dx=h)
    assert isinstance(got, complex)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_grid_conjugate_symmetry(table_1e6):
    rng = SumRange(2, 0.25, 100)
    n = 257
    g = eval_grid("prime", rng, table_1e6, alpha0=-0.5, step=1.0 / (n - 1), count=n)
    vals = g.values
    rel = np.abs(vals - np.conj(vals[::-1])) / np.maximum(np.abs(vals), 1e-30)
    assert float(np.max(rel)) < 1e-10


def test_grid_integer_kind():
    rng = SumRange(2, 0.25, 100)
    g = eval_grid("integer", rng, alpha0=0.1, step=0.01, count=11)
    for j in (0, 5, 10):
        ah, al = g.alpha_dd(j)
        assert g.values[j] == pytest.approx(
            integer_exp_sum(ah, rng, alpha_lo=al), abs=1e-12
        )


def test_grid_budget_refusal(table_1e6):
    rng = SumRange(1, 0.1, 10**6)
    with pytest.raises(PhaseBudgetError):
        eval_grid("prime", rng, table_1e6, alpha0=0.0, step=1.0, count=10**9)


def test_grid_csv_schema(tmp_path, table_1e6):
    rng = SumRange(2, 0.25, 100)
    g = eval_grid("prime", rng, table_1e6, alpha0=0.0, step=0.25, count=4)
    path = tmp_path / "g.csv"
    g.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,re,im,abs"
    assert len(lines) == 5


def test_triangle_inequality_on_grid(table_1e6):
    # |S(alpha)| never exceeds S(0), the total log mass
    rng = SumRange(2, 0.1, 2000)
    top = prime_exp_sum(0.0, rng, table_1e6).real
    g = eval_grid("prime", rng, table_1e6, alpha0=-3.0, step=1e-3, count=6001)
    assert float(np.max(np.abs(g.values))) <= top * (1 + 1e-12)


def test_orthogonality_small(table_1e6):
    # trapezoid of |S_1|^2 over one period equals the diagonal sum
    from dhlab.norms import moment_integral
    rng = SumRange(1, 0.25, 10)
    rep = moment_integral("Sk", 2, (0.0, 1.0), rng, table_1e6)
    expect = math.fsum(math.log(p) ** 2 for p in (3, 5, 7))  # 7.5838
    assert rep.value == pytest.approx(expect, rel=0.005)


def test_eval_points_matches_point_eval(table_1e6):
    rng = SumRange(2, 0.2, 1500)
    f = sum_freqs("prime", rng, table_1e6, scale=-math.sqrt(2))
    alphas = np.array([0.01, 0.37, 5.5])
    vals = eval_points(*f, alphas)
    for a, v in zip(alphas, vals):
        assert v == pytest.approx(
            prime_exp_sum(float(a), rng, table_1e6, scale=-math.sqrt(2)), rel=1e-12
        )


def test_freq_cache_dies_with_its_table():
    # a table built right after another is freed may reuse its id; cached
    # frequencies of the freed table must not answer for the new one
    rng = SumRange(1, 0.5, 10000)
    big = sieve(20000)
    prime_exp_sum(0.1, rng, big)
    small_primes = big.primes[big.primes <= 100].copy()
    del big
    small = PrimeTable(100, small_primes)
    with pytest.raises(InsufficientTableError):
        prime_exp_sum(0.1, rng, small)
