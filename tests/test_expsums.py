import cmath
import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from dhlab.errors import DomainError, InsufficientTableError, PhaseBudgetError
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from dhlab import expsums
from dhlab.expsums import (GAUSS_SIGMA, GAUSS_SPREAD, GRID_BLOCK,
                           GaussGridPlan, SpectrumGrid, eval_grid,
                           eval_points, fejer_kernel, fejer_kernel_hat,
                           gauss_grid_plan, gauss_points_plan,
                           integer_exp_sum, integral_exp_sum,
                           iter_grid_values, points_error_bound,
                           prime_exp_sum, prime_points_plan,
                           recurrence_error_bound, sum_freqs, trapezoid,
                           trapezoid_step)
from dhlab.precision import (TWO_PI_I, dd_add, dd_from_mpf, phase_frac,
                             pow_dd, two_prod)
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


def fresnel_integral(alpha, rng):
    """Integral of e(alpha t^2) over the window from mpmath's Fresnel
    integrals at 60 digits: C(x), S(x) integrate cos, sin of pi t^2 / 2."""
    with mp.workdps(60):
        a = mp.mpf(alpha)
        r = 2 * mp.sqrt(abs(a))
        lo, hi = r * mp.mpf(rng.lo), r * mp.mpf(rng.hi)
        c = (mp.fresnelc(hi) - mp.fresnelc(lo)) / r
        s = (mp.fresnels(hi) - mp.fresnels(lo)) / r
        return complex(c, mp.sign(a) * s)


def test_integral_matches_fresnel():
    # (12500, 100) spans 1.25e6 oscillations, too many for a quadrature
    # to serve as the oracle
    for alpha, X in ((12500.0, 100.0), (0.37, 1e4), (-3.1, 1e6),
                     (1e5, 1e8)):
        rng = SumRange(2, 0.1, X)
        exact = fresnel_integral(alpha, rng)
        got = integral_exp_sum(alpha, rng)
        assert abs(got - exact) <= 1e-15 * abs(exact), (alpha, X)


def test_integral_linear_large_alpha():
    # k = 1: the antiderivative (e(hi a) - e(lo a)) / (2 pi i a) at 60
    # digits, for frequencies far beyond a quadrature's reach
    rng = SumRange(1, 0.25, 100)
    for a in (12500.3, -770001.37, 1e9 + 0.5, 3.3e12 + 0.125):
        with mp.workdps(60):
            t = 2j * mp.pi * mp.mpf(a)
            exact = complex((mp.exp(t * rng.hi) - mp.exp(t * rng.lo)) / t)
        got = integral_exp_sum(a, rng)
        assert abs(got - exact) <= 1e-15 * abs(exact), a


@settings(max_examples=40, deadline=None)
@given(k=st.floats(1.0, 3.0, exclude_min=True), X=st.floats(100.0, 1e4),
       delta=st.floats(0.05, 0.9), cycles=st.floats(-30.0, 30.0))
def test_integral_against_piecewise_quadrature(k, X, delta, cycles):
    # at most 30 oscillations, and mp.quad on pieces of at most one each:
    # the piece edges are where alpha t^k crosses a multiple of 1/2
    rng = SumRange(k, delta, X)
    alpha = cycles / X
    with mp.workdps(30):
        kk, a = mp.mpf(k), mp.mpf(alpha)
        lo, hi = mp.mpf(rng.lo), mp.mpf(rng.hi)
        edges = [lo, hi]
        if alpha != 0.0:
            u0, u1 = sorted((a * lo**kk, a * hi**kk))
            edges += [(m / 2 / a) ** (1 / kk)
                      for m in range(int(mp.floor(2 * u0)) + 1,
                                     int(mp.ceil(2 * u1)))]
        ref = complex(mp.quad(lambda t: mp.expjpi(2 * a * t**kk),
                              sorted(edges)))
    got = integral_exp_sum(alpha, rng)
    assert abs(got - ref) <= 1e-13 * (rng.hi - rng.lo)


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
    assert fejer_kernel(0.0, 0.3) == pytest.approx(0.09)
    assert fejer_kernel_hat(0.15, 0.3) == pytest.approx(0.15)
    assert fejer_kernel_hat(0.31, 0.3) == 0.0
    assert fejer_kernel_hat(-0.29, 0.3) == pytest.approx(0.01)


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


def test_grid_values_at_exact_nodes(table_1e6):
    # phases near 1e13: a row base rounded to float64 would move the value
    # by ~1e-3; each value must belong to the node alpha0 + j*step itself,
    # computed here independently of SpectrumGrid.alpha_dd
    rng = SumRange(2, 0.1, 1e10)
    g = eval_grid("prime", rng, table_1e6, alpha0=1000.3, step=1e-9, count=5000)
    for j in (0, 1023, 1024, 1025, 4999):
        ah, al = dd_add(1000.3, 0.0, *two_prod(float(j), 1e-9))
        direct = prime_exp_sum(ah, rng, table_1e6, alpha_lo=al)
        assert abs(g.values[j] - direct) <= 1e-9 * max(abs(direct), 1.0)


def test_gauss_grid_plan_takes_large_ensembles(table_1e5):
    # the largest ensemble the row recurrence accepts is 417 terms on full
    # blocks and 835 on blocks of 32,769 nodes, so its rotation table holds
    # at most 835 x RESYNC values; from 1,056 terms on, the Gaussian plan
    # takes every block size
    f = sum_freqs("prime", SumRange(1, 1e-9, 1e5), table_1e5,
                  scale=math.sqrt(2.0))
    assert len(f[0]) >= 1056
    for n, count in ((417, GRID_BLOCK), (835, 32769), (1055, 1)):
        assert gauss_grid_plan(*(a[:n] for a in f), 1e-6, count) is None
        assert gauss_grid_plan(*(a[: n + 1] for a in f), 1e-6, count)
    counts = [1, 2, 3, 7, 8, 9, 100, 1024, 1025, 4097, 16385, 32768,
              *range(32769, 32776), 49153, 65535, 65536, 10**6]
    for count in counts:
        plan = gauss_grid_plan(*(a[:1056] for a in f), 1e-6, count)
        assert plan is not None, count
        assert plan.size == max(8, 1 << (min(count, GRID_BLOCK) - 1)
                                .bit_length())


def test_recurrence_block_edges_match_points(table_1e5):
    # 367 frequencies are too few for Gaussian gridding, so the row
    # recurrence serves the grid; its rows restart at every block edge
    rng, scale = SumRange(1, 1e-9, 2500), math.sqrt(2.0)
    f = sum_freqs("prime", rng, table_1e5, scale=scale)
    count = 70000
    assert len(f[0]) == 367
    assert gauss_grid_plan(*f, 1e-6, count) is None
    blocks = list(iter_grid_values(*f, 0.3, 1e-6, count))
    assert [start for start, _ in blocks] == [0, GRID_BLOCK]
    g = SpectrumGrid(alpha0=0.3, step=1e-6, count=count,
                     values=np.concatenate([b for _, b in blocks]))
    bound = recurrence_error_bound(*f, 0.3, 1e-6, count)
    for j in (0, 65535, 65536, 65537, count - 1):
        ah, al = g.alpha_dd(j)
        direct = prime_exp_sum(ah, rng, table_1e5, scale=scale, alpha_lo=al)
        assert abs(g.values[j] - direct) <= 1e-9 * max(abs(direct), 1.0)
        assert abs(g.values[j] - direct) <= bound + points_error_bound(
            *f, 0.3 + count * 1e-6, al)


def test_trapezoid_matches_numpy(table_1e6):
    # several blocks, real and complex integrands, one and two ensembles
    lo, h, count = -0.1, 1e-6, 3 * GRID_BLOCK + 123
    hi, band = lo + (count - 1) * h, 15625.0  # 1/(64 band) = h
    assert trapezoid_step(lo, hi, band) == (count - 1, h)
    r1, r2 = SumRange(1, 0.25, 1000), SumRange(2, 0.1, 1000)
    f1 = sum_freqs("prime", r1, table_1e6)
    f2 = sum_freqs("prime", r2, table_1e6, scale=-math.sqrt(2))
    v1 = eval_grid("prime", r1, table_1e6, alpha0=lo, step=h, count=count).values
    v2 = eval_grid("prime", r2, table_1e6, alpha0=lo, step=h, count=count,
                   scale=-math.sqrt(2)).values
    got = trapezoid([f1], lo, hi, band, lambda a, s: np.abs(s) ** 2)
    assert isinstance(got, float)
    assert got == pytest.approx(np.trapezoid(np.abs(v1) ** 2, dx=h), rel=1e-12)
    alphas = lo + np.arange(count) * h
    got = trapezoid([f1, f2], lo, hi, band,
                    lambda a, s, t: s * t * fejer_kernel(a, 0.3))
    want = np.trapezoid(v1 * v2 * fejer_kernel(alphas, 0.3), dx=h)
    assert isinstance(got, complex)
    assert abs(got - want) <= 1e-12 * abs(want)


def _trapezoid_whole_blocks(ensembles, lo, hi, band, f):
    # the reference: trapezoid as it was before sub-blocks, one f call on
    # each whole block of the grid
    n, h = trapezoid_step(lo, hi, band)
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


@settings(max_examples=20, deadline=None)
@given(count=st.one_of(st.integers(2, 3 * expsums._TRAPEZOID_SUB),
                       st.integers(GRID_BLOCK - 3, 3 * GRID_BLOCK + 300)),
       lo=st.floats(-0.5, 0.5), X=st.sampled_from([1000.0, 1e4]),
       p=st.sampled_from([1.0, 2.0, 2.5, 4.0]), omega=st.floats(-3.0, 3.0),
       eta=st.floats(0.1, 2.0))
def test_trapezoid_sub_blocks_match_whole_blocks(table_1e6, count, lo, X, p,
                                                 omega, eta):
    # counts below one sub-block, across several blocks and with ragged
    # remainders; 130 primes take the row recurrence and 862 Gaussian
    # gridding on full blocks
    band = 15625.0  # 1/(64 band) = 1e-6
    hi = lo + (count - 1) * 1e-6
    f1 = sum_freqs("prime", SumRange(1, 0.25, X), table_1e6)
    f2 = sum_freqs("prime", SumRange(2, 0.1, X), table_1e6,
                   scale=-math.sqrt(2))

    def detector(a, s, t):  # solution_integral's integrand, two factors
        om = phase_frac(np.float64(-omega), 0.0, a)
        return s * t * (fejer_kernel(a, eta) * np.exp(TWO_PI_I * om))

    def power(a, s):
        return np.abs(s) ** p

    for ens, f in (([f1, f2], detector), ([f1], power)):
        got = trapezoid(ens, lo, hi, band, f)
        want = _trapezoid_whole_blocks(ens, lo, hi, band, f)
        assert type(got) is type(want)
        assert repr(got) == repr(want)


def test_one_block_gauss_plan_forms_taps_per_chunk(table_1e5):
    # no plan, of one block or of several, keeps a table of spreading
    # weights: each chunk forms its own, bit for bit the rows a whole
    # table would hold
    f = sum_freqs("prime", SumRange(1.0, 1e-9, 1e5), table_1e5)
    for count in (GRID_BLOCK, GRID_BLOCK + 1):
        plan = gauss_grid_plan(*f, 1e-6, count)
        assert "taps" not in {x.name for x in dataclasses.fields(plan)}
    table = expsums._gauss_taps(plan.offset)
    assert table.shape == (len(f[0]), 2 * GAUSS_SPREAD + 1)
    for s in range(0, len(f[0]), expsums.GAUSS_CHUNK):
        cut = slice(s, s + expsums.GAUSS_CHUNK)
        assert np.array_equal(expsums._gauss_taps(plan.offset[cut]),
                              table[cut])


# three blocks (the last ragged) of 560 primes at k = 1 and 680 at k = 2.5,
# enough terms for the Gaussian plan
_PIPELINE_GRIDS = [(SumRange(1.0, 0.5, 1e4), 0.3, 1e-6),
                   (SumRange(2.5, 0.1, 1e10), 0.71, 1e-9)]


def _pipeline_plan(table, rng, step):
    count = 2 * GRID_BLOCK + 4321
    plan = gauss_grid_plan(*sum_freqs("prime", rng, table), step, count)
    assert plan is not None
    return plan, count


@pytest.mark.parametrize("rng, alpha0, step", _PIPELINE_GRIDS)
def test_gauss_grid_helper_values_match_one_cpu(table_1e5, monkeypatch, rng,
                                                alpha0, step):
    # the helper thread changes no bit: every block equals the one-CPU
    # one, also with the interpreter switching threads every microsecond
    plan, count = _pipeline_plan(table_1e5, rng, step)
    monkeypatch.setattr(expsums, "CPUS", 1)
    got = {1: list(plan.blocks(alpha0, count))}
    monkeypatch.setattr(expsums, "CPUS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got[2] = list(plan.blocks(alpha0, count))
    finally:
        sys.setswitchinterval(interval)
    assert [s for s, _ in got[1]] == [0, GRID_BLOCK, 2 * GRID_BLOCK]
    assert [s for s, _ in got[2]] == [s for s, _ in got[1]]
    for (_, a), (_, b) in zip(got[1], got[2]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("rng, alpha0, step", _PIPELINE_GRIDS)
def test_gauss_grid_helper_error_reaches_caller(table_1e5, monkeypatch, rng,
                                                alpha0, step):
    plan, count = _pipeline_plan(table_1e5, rng, step)
    spread = GaussGridPlan._spread

    def fail_off_main(self, base, ext):
        if threading.current_thread() is not threading.main_thread():
            raise DomainError("helper failed")
        return spread(self, base, ext)

    monkeypatch.setattr(expsums, "CPUS", 2)
    monkeypatch.setattr(GaussGridPlan, "_spread", fail_off_main)
    before = threading.active_count()
    with pytest.raises(DomainError, match="helper failed"):
        list(plan.blocks(alpha0, count))
    assert threading.active_count() == before


@pytest.mark.parametrize("rng, alpha0, step", _PIPELINE_GRIDS)
def test_gauss_grid_helper_joined_on_close(table_1e5, monkeypatch, rng,
                                           alpha0, step):
    # a consumer that stops after the first block leaves no thread behind
    plan, count = _pipeline_plan(table_1e5, rng, step)
    monkeypatch.setattr(expsums, "CPUS", 2)
    before = threading.active_count()
    blocks = plan.blocks(alpha0, count)
    start, _ = next(blocks)
    assert start == 0 and threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before


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


def test_grid_budget_refusal(table_1e6, no_grid_values):
    rng = SumRange(1, 0.1, 10**6)
    with pytest.raises(PhaseBudgetError):
        eval_grid("prime", rng, table_1e6, alpha0=0.0, step=1.0, count=10**9)
    # within the phase budget, but more values than a grid may hold
    with pytest.raises(DomainError, match=str(expsums.MAX_GRID_VALUES)):
        eval_grid("prime", rng, table_1e6, alpha0=0.0, step=1e-30,
                  count=expsums.MAX_GRID_VALUES + 1)


def test_non_finite_grid_and_interval_refused(table_1e6, no_grid_values):
    rng = SumRange(1, 0.1, 1000)
    for alpha0 in (math.nan, math.inf):
        with pytest.raises(DomainError, match="alpha must be finite"):
            eval_grid("prime", rng, table_1e6, alpha0=alpha0, step=1e-3,
                      count=10)
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                   (-math.inf, 0.0), (1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(DomainError, match="finite lo < hi"):
            trapezoid_step(lo, hi, 1000.0)


def test_grid_csv_schema(tmp_path, table_1e6):
    rng = SumRange(2, 0.25, 100)
    g = eval_grid("prime", rng, table_1e6, alpha0=0.0, step=0.25, count=4)
    path = tmp_path / "g.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "GRID_BLOCK", 3)  # rows written in two chunks
        g.write_csv(path)
    text = path.read_text()
    assert "np." not in text
    lines = text.splitlines()
    assert lines[0] == "alpha,re,im,abs"
    assert len(lines) == 5
    for j, line in enumerate(lines[1:]):
        a, re, im, mod = map(float, line.split(","))
        v = g.values[j]
        assert (a, re, im, mod) == (g.alphas()[j], v.real, v.imag, abs(v))


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


# ---------------------------------------------------------------------------
# Gaussian points plan against eval_points and 50-digit sums

def _points_ensemble(ns, weights, scale):
    # scale * n is exact as a two_prod pair
    fh, fl = two_prod(np.asarray(ns, dtype=np.float64), scale)
    return fh, fl, np.asarray(weights, dtype=np.float64)


def _mp_sum(ns, weights, scale, alpha, alpha_lo):
    beta = mp.mpf(scale) * (mp.mpf(alpha) + mp.mpf(alpha_lo))
    return complex(mp.fsum(mp.mpf(float(w)) * mp.expjpi(2 * int(n) * beta)
                           for n, w in zip(ns, weights)))


def test_points_plan_prime_window(table_1e5):
    rng = SumRange(1, 0.01, 5e4)  # primes 500 .. 5e4: N = 2^16
    plan = prime_points_plan(rng, table_1e5)
    assert len(plan.grid) == GAUSS_SIGMA * (1 << 16) + 2 * GAUSS_SPREAD
    assert prime_points_plan(rng, table_1e5) is plan  # cached on the table
    alphas = np.random.default_rng(4).uniform(-30.0, 30.0, 300)
    for scale in (1.0, math.sqrt(2.0)):
        f = sum_freqs("prime", rng, table_1e5, scale=scale)
        got = plan.values(alphas, scale)
        want = eval_points(*f, alphas)
        tol = plan.error_bound(30.0, scale) + points_error_bound(*f, 30.0)
        assert np.max(np.abs(got - want)) <= tol


def test_points_plan_empty_window():
    plan = gauss_points_plan(np.empty(0, dtype=np.int64), np.empty(0))
    assert plan.error_bound(10.0) == 0.0
    assert np.all(plan.values([0.1, 0.2]) == 0)
    assert len(plan.values([])) == 0


def test_points_plan_refuses_a_grid_past_the_cap():
    # width 16 takes Mr = 64 grid values, width 17 takes 128
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "MAX_GRID_VALUES", 64)
        gauss_points_plan(np.arange(16), np.ones(16))
        with pytest.raises(DomainError, match="needs 128 grid values"):
            gauss_points_plan(np.arange(17), np.ones(17))


_SCALES = st.sampled_from([1.0, math.sqrt(2.0), -math.sqrt(3.0), 0.5])


@st.composite
def _windows(draw):
    start = draw(st.integers(1, 5000))
    span = draw(st.integers(0, 400))
    ns = np.arange(start, start + span + 1)
    if draw(st.booleans()):  # the primes of the window
        ns = ns[[all(n % d for d in range(2, math.isqrt(n) + 1)) and n > 1
                 for n in ns]]
        weights = np.log(ns.astype(np.float64))
    else:
        weights = np.ones(len(ns))
    return ns, weights


@settings(max_examples=60, deadline=None)
@given(window=_windows(), scale=_SCALES,
       alphas=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
# abscissas whose product's low part is itself past 2^53, reduced mod 1 too
@example(window=(np.arange(2, 300), np.log(np.arange(3.0, 301.0))),
         scale=math.sqrt(2.0), alphas=[1e40, -1e290])
def test_points_plan_within_certified_bounds(window, scale, alphas):
    ns, weights = window
    alphas = np.asarray(alphas)
    plan = gauss_points_plan(ns, weights)
    amax = float(np.max(np.abs(alphas)))
    f = _points_ensemble(ns, weights, scale)
    got = plan.values(alphas, scale)
    want = eval_points(*f, alphas)
    assert np.all(np.abs(got - want) <= plan.error_bound(amax, scale)
                  + points_error_bound(*f, amax))


@pytest.mark.parametrize("start,span,scale,alpha,alpha_lo", [
    (2, 300, 1.0, 0.1371, 0.0),
    (900, 2500, math.sqrt(2.0), -17.25, 3e-19),
    (4000, 60, -math.sqrt(3.0), 999.9, -1e-15),
    (1, 40, 0.5, 0.5, 0.0),
])
def test_certified_bounds_against_50_digit_sums(start, span, scale, alpha,
                                                alpha_lo):
    ns = np.arange(start, start + span)
    weights = np.log(ns + 1.0)
    exact = _mp_sum(ns, weights, scale, alpha, 0)
    plan = gauss_points_plan(ns, weights)
    t = plan.values([alpha], scale)[0]
    assert abs(t - exact) <= plan.error_bound(abs(alpha), scale)
    assert abs(abs(t) - abs(exact)) <= plan.error_bound(abs(alpha), scale)
    # eval_points keeps alpha_lo: check its share of the bound exactly
    exact = _mp_sum(ns, weights, scale, alpha, alpha_lo)
    f = _points_ensemble(ns, weights, scale)
    e = eval_points(*f, [alpha], alpha_lo)[0]
    assert abs(e - exact) <= points_error_bound(*f, abs(alpha), alpha_lo)


@pytest.mark.parametrize("kind", ["prime", "integer"])
def test_cubes_past_2_53_against_50_digit_sums(kind):
    # 604 of the 608 prime cubes in the window are not doubles: their
    # frequencies must keep the low part, or each phase loses up to ulp/2
    rng = SumRange(3, 0.9, 1e16)
    alpha = 0.1
    if kind == "prime":
        table = sieve(math.ceil(rng.hi) + 1)
        v = prime_exp_sum(alpha, rng, table)
        f = sum_freqs("prime", rng, table)
        ns = [int(p) for p in table.primes if 0.9e16 <= int(p) ** 3 <= 1e16]
    else:
        v = integer_exp_sum(alpha, rng)
        f = sum_freqs("integer", rng)
        ns = [n for n in range(200_000, 220_000) if 0.9e16 <= n**3 <= 1e16]
    assert len(f[0]) == len(ns)
    # the weights are the ensemble's own: only the frequencies are on trial
    exact = complex(mp.fsum(mp.mpf(float(w)) * mp.expjpi(2 * n**3 * mp.mpf(alpha))
                            for n, w in zip(ns, f[2])))
    assert abs(v - exact) <= points_error_bound(*f, alpha)


def test_pow_dd_against_50_digit_powers():
    # non-integer k: the 50-digit power, split once
    ns = np.array([1, 2, 3, 97, 10**5, 123457, 999983])
    for k in (1.5, 2.5):
        hi, lo = pow_dd(ns, k)
        assert list(zip(hi.tolist(), lo.tolist())) == [
            dd_from_mpf(mp.power(int(n), mp.mpf(k))) for n in ns]
    # integer k: exact hi/lo splits of n^3, below 2^53 (lo = 0), in a window
    # that straddles it (208063^3 < 2^53 < 208064^3), past it near 2.1e5,
    # and past 2^62, where the int64 powers give way to Python integers
    for ns in (np.arange(1, 2000), np.arange(207_900, 208_200),
               np.arange(209_990, 210_010), np.arange(1_664_500, 1_664_530)):
        hi, lo = pow_dd(ns, 3.0)
        for n, h, l in zip(ns.tolist(), hi.tolist(), lo.tolist()):
            assert h == float(n**3) and int(h) + int(l) == n**3
            assert l == 0.0 or n**3 > 2**53
    assert len(pow_dd(np.empty(0, dtype=np.int64), 2.5)[0]) == 0


# ---------------------------------------------------------------------------
# Gaussian gridding against eval_points and 50-digit sums

def _grid_nodes(alpha0, step, js):
    return [dd_add(alpha0, 0.0, *two_prod(float(j), step)) for j in js]


@st.composite
def _any_grid_ensembles(draw):
    # non-integer k, a non-integer scale, integer cubes past 2^53 (whose
    # frequencies carry a low part), integer squares, and integers on a
    # dyadic step, whose x_n = frac(n step) cluster on few bins; each on a
    # grid inside the phase budget
    which = draw(st.sampled_from(["k2.5", "sqrt2", "cubes", "squares",
                                  "clustered"]))
    delta = draw(st.sampled_from([1e-9, 0.1, 0.5]))
    kind, scale = "prime", 1.0
    if which == "k2.5":
        scale = draw(st.sampled_from([1.0, -1.0]))
        rng = SumRange(2.5, delta, draw(st.floats(10.0, 1e12)))
    elif which == "sqrt2":
        scale = math.sqrt(2.0)
        rng = SumRange(1.0, delta, draw(st.floats(2.0, 9e4)))
    elif which == "cubes":
        kind = "integer"
        rng = SumRange(3.0, 0.999, draw(st.floats(9.1e15, 1e17)))
    elif which == "squares":
        rng = SumRange(2.0, delta, draw(st.floats(4.0, 1e10)))
    else:
        kind = "integer"
        rng = SumRange(1.0, delta, draw(st.floats(1.0, 3000.0)))
    reach = min(50.0, 2.0**45 / (rng.X * abs(scale)))
    alpha0 = draw(st.floats(-reach / 2, reach / 2))
    if which == "clustered":
        step = 2.0 ** -draw(st.integers(1, 8))
    else:
        step = draw(st.floats(1e-9, 1.0)) * reach / 400
    return kind, rng, scale, alpha0, step


def _check_gauss_grid(table, ensemble, count, block):
    kind, rng, scale, alpha0, step = ensemble
    f = sum_freqs(kind, rng, table if kind == "prime" else None, scale)
    with pytest.MonkeyPatch.context() as patch:
        # the Gaussian path for every ensemble, in blocks small enough for
        # the counts drawn here to cross them
        patch.setattr(expsums, "GAUSS_COST", 0.0)
        patch.setattr(expsums, "GRID_BLOCK", block)
        plan = gauss_grid_plan(*f, step, count)
        blocks = list(iter_grid_values(*f, alpha0, step, count))
    assert [s for s, _ in blocks] == list(range(0, count, block))
    got = np.concatenate([b for _, b in blocks])
    if len(f[0]) == 0:
        assert plan is None and np.all(got == 0)
        return
    assert np.all(np.diff(plan.centre) >= 0)
    assert 1 <= plan.bin_terms <= len(f[0])
    amax = abs(alpha0) + count * step
    bound = plan.error_bound(alpha0, count)
    for j, (ah, al) in enumerate(_grid_nodes(alpha0, step, range(count))):
        want = eval_points(*f, [ah], al)[0]
        assert abs(got[j] - want) <= bound + points_error_bound(*f, amax, al)


@settings(max_examples=80, deadline=None)
@given(ensemble=_any_grid_ensembles(), count=st.integers(1, 200),
       block=st.sampled_from([7, 48, GRID_BLOCK]))
@example(ensemble=("prime", SumRange(2.5, 0.1, 1e10), 1.0, 0.3, 1e-3),
         count=1, block=GRID_BLOCK)
@example(ensemble=("integer", SumRange(1.0, 1e-9, 3000.0), 1.0, 0.3,
                   1 / 8), count=200, block=48)
def test_gauss_grid_within_certified_bounds(table_1e5, ensemble, count,
                                            block):
    _check_gauss_grid(table_1e5, ensemble, count, block)


@st.composite
def _power_grid_ensembles(draw):
    # dense windows of integer powers (primes or all integers, k = 1, 2, 3,
    # either sign): the grids the chirp-z path served before Gaussian
    # gridding took them
    k = draw(st.sampled_from([1, 2, 3]))
    X = draw(st.floats(2.0, {1: 3000.0, 2: 1e5, 3: 1e6}[k]))
    rng = SumRange(k, draw(st.sampled_from([1e-9, 0.1, 0.5])), X)
    kind = draw(st.sampled_from(["prime", "integer"]))
    return (kind, rng, draw(st.sampled_from([1.0, -1.0])),
            draw(st.floats(-50.0, 50.0)), draw(st.floats(1e-7, 0.1)))


@settings(max_examples=60, deadline=None)
@given(ensemble=_power_grid_ensembles(), count=st.integers(1, 200),
       block=st.sampled_from([7, 48, GRID_BLOCK]))
@example(ensemble=("integer", SumRange(3, 0.1, 1e5), -1.0, 0.3, 1e-3),
         count=50, block=7)
def test_chirp_grid_within_certified_bounds(table_1e5, ensemble, count,
                                            block):
    _check_gauss_grid(table_1e5, ensemble, count, block)


def _mp_freq_sum(fh, fl, weights, alpha):
    # the frequencies fh + fl taken as exact, at 50 digits
    return complex(mp.fsum(mp.mpf(float(w)) * mp.expjpi(
        2 * (mp.mpf(float(h)) + mp.mpf(float(l))) * alpha)
        for h, l, w in zip(fh, fl, weights)))


_INTEGER_WINDOWS = {"ints": (2, 300, 1.0), "negints": (900, 2500, -1.0),
                    "highints": (4000, 60, 1.0), "fewnegints": (1, 40, -1.0)}


@pytest.mark.parametrize("freqs,alpha0,step,count,js", [
    ("sqrt2", 0.1371, 1e-3, 150, (0, 63, 64, 149)),
    ("k2.5", -17.25, 1e-6, 130, (0, 64, 127, 129)),
    ("cubes", 1e-3, 3e-9, 70, (0, 33, 69)),
    ("k2.5", 999.9, 0.01, 1, (0,)),
    ("sqrt2", 0.31, 1e-6, GRID_BLOCK + 5, (0, GRID_BLOCK - 1, GRID_BLOCK,
                                          GRID_BLOCK + 4)),
    ("k2.5", 0.31, 1e-6, GRID_BLOCK + 5, (GRID_BLOCK - 1, GRID_BLOCK + 4)),
    ("clustered", 0.3, 1 / 16, 100, (0, 1, 63, 64, 99)),
    # dense windows of consecutive integers (_INTEGER_WINDOWS)
    ("ints", 0.1371, 1e-3, 150, (0, 63, 64, 149)),
    ("negints", -17.25, 1e-6, 130, (0, 64, 127, 129)),
    ("highints", 999.9, 0.01, 5, (0, 4)),
    ("fewnegints", 0.5, 0.37, 70, (0, 33, 69)),
    ("ints", 0.31, 1e-6, GRID_BLOCK + 5, (0, GRID_BLOCK - 1, GRID_BLOCK,
                                         GRID_BLOCK + 4)),
    ("ints", 0.1371, 1e-3, 500, (0, 63, 64, 255, 256, 499)),
])
def test_gauss_grid_bound_against_50_digit_sums(freqs, alpha0, step, count,
                                                js):
    if freqs == "sqrt2":
        ns = np.arange(2, 302)
        fh, fl = two_prod(ns.astype(np.float64), math.sqrt(2.0))
    elif freqs == "k2.5":
        ns = np.arange(900, 3400)
        fh, fl = pow_dd(ns, 2.5)
    elif freqs == "cubes":  # past 2^53, with low parts
        ns = np.arange(215_000, 215_300)
        fh, fl = pow_dd(ns, 3.0)
        assert np.any(fl)
    elif freqs in _INTEGER_WINDOWS:  # sign * (start .. start + span - 1)
        start, span, sign = _INTEGER_WINDOWS[freqs]
        ns = np.arange(start, start + span)
        fh, fl = sign * ns.astype(np.float64), np.zeros(len(ns))
    else:  # integers on a step of 1/16: 25 terms at each of 16 x_n
        ns = np.arange(1, 401)
        fh, fl = ns.astype(np.float64), np.zeros(len(ns))
    weights = np.log(ns + 1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "GAUSS_COST", 0.0)
        if count < GRID_BLOCK:  # several blocks
            patch.setattr(expsums, "GRID_BLOCK", 64)
        plan = gauss_grid_plan(fh, fl, weights, step, count)
        got = np.concatenate([b for _, b in iter_grid_values(
            fh, fl, weights, alpha0, step, count)])
    if freqs == "clustered":  # x_n 16 bins apart: 2 x 25 terms reach a bin
        assert plan.bin_terms == 50
    bound = plan.error_bound(alpha0, count)
    for j in js:
        exact = _mp_freq_sum(fh, fl, weights,
                             mp.mpf(alpha0) + j * mp.mpf(step))
        assert abs(got[j] - exact) <= bound
        assert abs(abs(got[j]) - abs(exact)) <= bound


def _check_gauss_path(f, alpha0, step, count, K, rel):
    # one Gaussian plan serves every block of the grid, with K terms per bin
    # and a bound of rel sum|w|; spot checks against eval_points
    plans = []

    def record(*args):
        plans.append(gauss_grid_plan(*args))
        return plans[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "gauss_grid_plan", record)
        blocks = list(iter_grid_values(*f, alpha0, step, count))
    plan, = plans
    assert plan.size == GRID_BLOCK
    assert plan.bin_terms == K
    bound = plan.error_bound(alpha0, count)
    assert bound == pytest.approx(rel * math.fsum(f[2]), rel=0.02)
    assert [s for s, _ in blocks] == list(range(0, count, GRID_BLOCK))
    got = np.concatenate([b for _, b in blocks])
    amax = abs(alpha0) + count * step
    js = (0, GRID_BLOCK - 1, GRID_BLOCK, count - 1)
    for j, (ah, al) in zip(js, _grid_nodes(alpha0, step, js)):
        want = eval_points(*f, [ah], al)[0]
        assert abs(got[j] - want) <= bound + points_error_bound(*f, amax, al)
    return bound


def test_gauss_grid_path_selection():
    # the spectrum workload's k = 2.5 grid: 9592 primes on 2^18 nodes (the
    # window ends a hair past 1e5); 2.8e-13 sum|w|, most of it Higham's FFT
    # term (the ensembles that keep the row recurrence, and the integer
    # windows, are in test_chirp_path_selection)
    f = sum_freqs("prime", SumRange(2.5, 1e-13, 1e5**2.5), sieve(10**5 + 1))
    assert len(f[0]) == 9592
    _check_gauss_path(f, 0.9, 1e-6, 1 << 18, 7, 2.8e-13)


def test_chirp_path_selection(table_1e5, table_1e6):
    from dhlab.harness import ExperimentConfig
    # the integer windows the chirp-z path served go to Gaussian gridding.
    # Criterion 9's S1: 9592 primes on 10^6 nodes, whose integer
    # frequencies put 25 terms on one bin
    f = sum_freqs("prime", SumRange(1.0, 1e-9, 1e5), table_1e5)
    assert len(f[0]) == 9592
    bound = _check_gauss_path(f, 0.0, 1e-6, 10**6, 25, 4.9e-13)
    assert bound <= 1e-12 * math.fsum(f[2])
    # the second moment's grid at X = 1e4: 862 primes on 640,001 nodes
    moment = sum_freqs("prime", SumRange(1.0, 0.25, 1e4), table_1e5)
    n, h = trapezoid_step(0.0, 1.0, 1e4)
    assert len(moment[0]) == 862 and n + 1 == 640001
    _check_gauss_path(moment, 0.0, h, n + 1, 13, 1.1e-12)
    # a linear window of 25,567 primes over 297,000 integers
    wide = sum_freqs("prime", SumRange(1.0, 0.01, 3e5), table_1e6)
    assert len(wide[0]) == 25567
    assert isinstance(gauss_grid_plan(*wide, 1e-7, 1 << 20), GaussGridPlan)
    # a repeated frequency, which collided in the chirp-z input, shares a
    # bin: twice the terms per bin
    twice = (np.repeat(f[0], 2), np.repeat(f[1], 2), np.repeat(f[2], 2))
    _check_gauss_path(twice, 0.0, 1e-6, GRID_BLOCK + 1, 50, 5.0e-13)
    # the theorem detector's 230-term stream at X = 1728, and the lemma
    # suite's largest ensemble (44 integers), keep the row recurrence
    inst = ExperimentConfig().instance
    lin = sum_freqs("prime", inst.linear_range(1728.0), table_1e5,
                    scale=inst.lambda1)
    assert len(lin[0]) == 230 and gauss_grid_plan(*lin, 4e-6, 10**7) is None
    lemma = sum_freqs("integer", SumRange(2.0, 0.1, 4000.0))
    assert len(lemma[0]) == 44
    assert gauss_grid_plan(*lemma, 1e-4, 51201) is None


# row recurrence against 50-digit sums

@st.composite
def _recurrence_ensembles(draw):
    # integers, sqrt(2) multiples, k = 2.5 powers and cubes past 2^53 (with
    # low parts), on grids whose phases stay within PHASE_BUDGET
    kind = draw(st.sampled_from(["integer", "sqrt2", "k2.5", "cubes"]))
    n0 = draw(st.integers(*{"integer": (1, 10**6), "sqrt2": (1, 10**5),
                            "k2.5": (1, 3 * 10**5),
                            "cubes": (208_100, 215_000)}[kind]))
    ns = np.arange(n0, n0 + draw(st.integers(1, 40)))
    if kind == "integer":
        fh, fl = ns.astype(np.float64), np.zeros(len(ns))
    elif kind == "sqrt2":
        fh, fl = two_prod(ns.astype(np.float64), math.sqrt(2.0))
    else:
        fh, fl = pow_dd(ns, 2.5 if kind == "k2.5" else 3.0)
    weights = draw(st.sampled_from([np.log(ns + 1.0), -np.ones(len(ns))]))
    return fh, fl, weights


@settings(max_examples=40, deadline=None)
@given(ensemble=_recurrence_ensembles(), reach=st.floats(-1.0, 1.0),
       width=st.floats(1e-6, 1.0),
       count=st.integers(1, 2 * expsums.RESYNC + 9), data=st.data())
@example(ensemble=(np.arange(2.0, 42.0), np.zeros(40),
                   np.log(np.arange(3.0, 43.0))),
         reach=0.9, width=1.0, count=2 * expsums.RESYNC + 9, data=None)
def test_recurrence_bound_against_50_digit_sums(ensemble, reach, width,
                                                count, data):
    fh, fl, weights = ensemble
    # alpha0 and the grid's reach scaled so that |f| amax <= 2^40
    amax = 2.0**40 / float(np.max(np.abs(fh)))
    alpha0, step = 0.5 * reach * amax, 0.5 * width * amax / count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "gauss_grid_plan", lambda *args: None)
        got = np.concatenate([b for _, b in iter_grid_values(
            fh, fl, weights, alpha0, step, count)])
    bound = recurrence_error_bound(fh, fl, weights, alpha0, step, count)
    w_abs = math.fsum(np.abs(weights))
    assert bound <= 1e-11 * w_abs  # about RESYNC 24 u sum|w|
    js = {0, count - 1, min(count - 1, expsums.RESYNC - 1),
          min(count - 1, expsums.RESYNC)}
    if data is not None:
        js.add(data.draw(st.integers(0, count - 1)))
    for j in sorted(js):
        exact = _mp_freq_sum(fh, fl, weights,
                             mp.mpf(alpha0) + j * mp.mpf(step))
        assert abs(got[j] - exact) <= bound
        assert abs(abs(got[j]) - abs(exact)) <= bound
