import cmath
import math

import numpy as np
import pytest

from dhlab.errors import DomainError, InsufficientTableError, PhaseBudgetError
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from dhlab import expsums
from dhlab.expsums import (GRID_BLOCK, TAYLOR_BLOCK, SpectrumGrid,
                           TaylorGridPlan, _cut_windows, chirp_plan,
                           eval_grid, eval_points, eval_taylor, fejer_kernel,
                           fejer_kernel_hat, integer_exp_sum,
                           integral_exp_sum, iter_grid_values,
                           points_error_bound, prime_exp_sum,
                           prime_taylor_tables, sum_freqs, taylor_grid_plan,
                           taylor_tables, trapezoid, trapezoid_step)
from dhlab.precision import dd_add, dd_from_mpf, pow_dd, two_prod
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


def test_taylor_grid_plan_takes_large_ensembles(table_1e5):
    # the row recurrence never receives 4,488 terms or more, at any block
    # size, which bounds its rotation table; the bound is tightest for
    # blocks just past a power of two, 32,769 of them on 65,536 slots
    f = sum_freqs("prime", SumRange(1, 1e-9, 1e5), table_1e5,
                  scale=math.sqrt(2.0))
    f = tuple(a[:4488] for a in f)
    assert len(f[0]) == 4488
    counts = [1, 2, 3, 100, 1024, 1025, 4097, 16385, 32768,
              *range(32769, 32776), 49153, 65535, 65536]
    for count in counts:
        assert taylor_grid_plan(*f, 1e-6, count) is not None, count


def test_recurrence_block_edges_match_points(table_1e5):
    # 1,229 non-integral frequencies: the chirp-z path declines them and
    # they are too few for the Taylor tables, so the row recurrence serves
    # the grid; its rows restart at every block edge
    rng, scale = SumRange(1, 1e-9, 1e4), math.sqrt(2.0)
    f = sum_freqs("prime", rng, table_1e5, scale=scale)
    count = 70000
    assert len(f[0]) == 1229
    assert chirp_plan(*f, 1e-6, count) is None
    assert taylor_grid_plan(*f, 1e-6, count) is None
    blocks = list(iter_grid_values(*f, 0.3, 1e-6, count))
    assert [start for start, _ in blocks] == [0, GRID_BLOCK]
    g = SpectrumGrid(alpha0=0.3, step=1e-6, count=count,
                     values=np.concatenate([b for _, b in blocks]))
    for j in (0, 65535, 65536, 65537, count - 1):
        ah, al = g.alpha_dd(j)
        direct = prime_exp_sum(ah, rng, table_1e5, scale=scale, alpha_lo=al)
        assert abs(g.values[j] - direct) <= 1e-9 * max(abs(direct), 1.0)


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
# Taylor-off-FFT evaluator against eval_points and 50-digit sums

def _points_ensemble(ns, weights, scale):
    # scale * n is exact as a two_prod pair
    fh, fl = two_prod(np.asarray(ns, dtype=np.float64), scale)
    return fh, fl, np.asarray(weights, dtype=np.float64)


def _mp_sum(ns, weights, scale, alpha, alpha_lo):
    beta = mp.mpf(scale) * (mp.mpf(alpha) + mp.mpf(alpha_lo))
    return complex(mp.fsum(mp.mpf(float(w)) * mp.expjpi(2 * int(n) * beta)
                           for n, w in zip(ns, weights)))


def test_taylor_window_of_several_blocks(table_1e5):
    rng = SumRange(1, 0.01, 5e4)  # primes 500 .. 5e4: four blocks
    tabs = prime_taylor_tables(rng, table_1e5)
    assert len(tabs.blocks) == 4
    assert all(b.width <= TAYLOR_BLOCK for b in tabs.blocks)
    assert prime_taylor_tables(rng, table_1e5) is tabs  # cached on the table
    alphas = np.random.default_rng(4).uniform(-30.0, 30.0, 300)
    for scale in (1.0, math.sqrt(2.0)):
        f = sum_freqs("prime", rng, table_1e5, scale=scale)
        got = eval_taylor(tabs, alphas, scale)
        want = eval_points(*f, alphas)
        tol = tabs.error_bound(30.0, scale) + points_error_bound(*f, 30.0)
        assert np.max(np.abs(got - want)) <= tol


def test_taylor_empty_window():
    tabs = taylor_tables(np.empty(0, dtype=np.int64), np.empty(0))
    assert tabs.blocks == ()
    assert tabs.error_bound(10.0) == 0.0
    assert np.all(eval_taylor(tabs, [0.1, 0.2]) == 0)


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
       block=st.sampled_from([16, 100, 1 << 14]),
       alphas=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
# abscissas whose product's low part is itself past 2^53, reduced mod 1 too
@example(window=(np.arange(2, 300), np.log(np.arange(3.0, 301.0))),
         scale=math.sqrt(2.0), block=1 << 14, alphas=[1e40, -1e290])
def test_taylor_within_certified_bounds(window, scale, block, alphas):
    ns, weights = window
    alphas = np.asarray(alphas)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "TAYLOR_BLOCK", block)  # multi-block windows
        tabs = taylor_tables(ns, weights)
    assert all(b.width <= block for b in tabs.blocks)
    amax = float(np.max(np.abs(alphas)))
    f = _points_ensemble(ns, weights, scale)
    got = eval_taylor(tabs, alphas, scale)
    want = eval_points(*f, alphas)
    assert np.all(np.abs(got - want) <= tabs.error_bound(amax, scale)
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "TAYLOR_BLOCK", 1000)
        tabs = taylor_tables(ns, weights)
    t = eval_taylor(tabs, [alpha], scale)[0]
    assert abs(t - exact) <= tabs.error_bound(abs(alpha), scale)
    assert abs(abs(t) - abs(exact)) <= tabs.error_bound(abs(alpha), scale)
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
    hi, lo = pow_dd(ns, 2.5)
    assert list(zip(hi.tolist(), lo.tolist())) == [
        dd_from_mpf(mp.power(int(n), mp.mpf(2.5))) for n in ns]
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


@settings(max_examples=100, deadline=None)
@given(ns=st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=80,
                   unique=True),
       span=st.sampled_from([1, 7, 1 << 14, 1 << 16]), as_float=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cut_windows_against_grouping(ns, span, as_float, seed):
    # the window cut of the Taylor tables against grouping by
    # (n - n0) // span term by term
    ns = np.sort(np.array(ns, dtype=np.int64))
    w = np.random.default_rng(seed).standard_normal(len(ns))
    groups = {}
    for i, n in enumerate(ns.tolist()):
        groups.setdefault((n - int(ns[0])) // span, []).append(i)
    got = list(_cut_windows(ns.astype(np.float64) if as_float else ns, w,
                            span))
    assert len(got) == len(groups)
    for (cut, n0, width, w_abs, w_l2), idx in zip(got, groups.values()):
        assert (cut.start, cut.stop) == (idx[0], idx[-1] + 1)
        assert n0 == ns[idx[0]]
        assert width == ns[idx[-1]] - ns[idx[0]] + 1 <= span
        assert w_abs == math.fsum(abs(w[i]) for i in idx)
        assert w_l2 == math.sqrt(math.fsum(w[i] * w[i] for i in idx))


# ---------------------------------------------------------------------------
# chirp-z grid path against eval_points and 50-digit sums

def _grid_nodes(alpha0, step, js):
    return [dd_add(alpha0, 0.0, *two_prod(float(j), step)) for j in js]


@st.composite
def _grid_ensembles(draw):
    k = draw(st.sampled_from([1, 2, 3]))
    X = draw(st.floats(2.0, {1: 3000.0, 2: 1e5, 3: 1e6}[k]))
    rng = SumRange(k, draw(st.sampled_from([1e-9, 0.1, 0.5])), X)
    kind = draw(st.sampled_from(["prime", "integer"]))
    return kind, rng, draw(st.sampled_from([1.0, -1.0]))


@settings(max_examples=60, deadline=None)
@given(ensemble=_grid_ensembles(), alpha0=st.floats(-50.0, 50.0),
       step=st.floats(1e-7, 0.1), count=st.integers(1, 200),
       block=st.sampled_from([7, 48, GRID_BLOCK]),
       span=st.sampled_from([1, 40, 1 << 16]))
@example(ensemble=("integer", SumRange(3, 0.1, 1e5), -1.0), alpha0=0.3,
         step=1e-3, count=50, block=7, span=40)
def test_chirp_grid_within_certified_bounds(table_1e5, ensemble, alpha0, step,
                                            count, block, span):
    kind, rng, scale = ensemble
    f = sum_freqs(kind, rng, table_1e5 if kind == "prime" else None, scale)
    with pytest.MonkeyPatch.context() as patch:
        # the chirp-z path for every ensemble it takes, in blocks small
        # enough for the counts drawn here to cross them
        patch.setattr(expsums, "CHIRP_COST", 0.0)
        patch.setattr(expsums, "GRID_BLOCK", block)
        plan = chirp_plan(*f, step, count)
        blocks = list(iter_grid_values(*f, alpha0, step, count))
        patch.setattr(expsums, "CHIRP_SPAN", span)
        narrow = chirp_plan(*f, step, count)
    if len(f[0]) == 0:
        assert plan is None and narrow is None and np.all(np.concatenate(
            [b for _, b in blocks]) == 0)
        return
    # chirp declines a window wider than its span, which the Taylor tables
    # or the row recurrence then serve
    width = int(np.max(f[0]) - np.min(f[0])) + 1
    assert (narrow is None) == (width > span)
    assert (plan is None) == (width > expsums.CHIRP_SPAN)
    if plan is None:
        return
    assert (plan.n0, plan.width) == (int(np.min(f[0])), width)
    assert [s for s, _ in blocks] == list(range(0, count, block))
    got = np.concatenate([b for _, b in blocks])
    amax = abs(alpha0) + count * step
    bound = plan.error_bound(alpha0, count)
    for j, (ah, al) in enumerate(_grid_nodes(alpha0, step, range(count))):
        want = eval_points(*f, [ah], al)[0]
        assert abs(got[j] - want) <= bound + points_error_bound(*f, amax, al)


@pytest.mark.parametrize("start,span,scale,alpha0,step,count,js", [
    (2, 300, 1.0, 0.1371, 1e-3, 150, (0, 63, 64, 149)),
    (900, 2500, -1.0, -17.25, 1e-6, 130, (0, 64, 127, 129)),
    (4000, 60, 1.0, 999.9, 0.01, 5, (0, 4)),
    (1, 40, -1.0, 0.5, 0.37, 70, (0, 33, 69)),
    (2, 300, 1.0, 0.31, 1e-6, GRID_BLOCK + 5, (0, GRID_BLOCK - 1, GRID_BLOCK,
                                               GRID_BLOCK + 4)),
])
def test_chirp_bound_against_50_digit_sums(start, span, scale, alpha0, step,
                                           count, js):
    ns = scale * np.arange(start, start + span)
    weights = np.log(np.abs(ns) + 1.0)
    f = (ns.astype(np.float64), np.zeros(len(ns)), weights)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "CHIRP_COST", 0.0)
        if count < GRID_BLOCK:  # several blocks
            patch.setattr(expsums, "GRID_BLOCK", 64)
        plan = chirp_plan(*f, step, count)
        got = np.concatenate([b for _, b in iter_grid_values(*f, alpha0, step,
                                                             count)])
        # a span below the window's width sends it off the chirp-z path
        patch.setattr(expsums, "CHIRP_SPAN", 100)
        assert (chirp_plan(*f, step, count) is None) == (span > 100)
    assert plan.width == span and len(plan.chirp_hat) >= span + plan.block - 1
    bound = plan.error_bound(alpha0, count)
    for j in js:
        exact = _mp_sum(ns, weights, 1.0, mp.mpf(alpha0) + j * mp.mpf(step), 0)
        assert abs(got[j] - exact) <= bound
        assert abs(abs(got[j]) - abs(exact)) <= bound


def test_chirp_path_selection(table_1e5, table_1e6):
    from dhlab.harness import ExperimentConfig
    # criterion 9: 9592 primes over a span of 99,990, one window of 2^17
    f = sum_freqs("prime", SumRange(1.0, 1e-9, 1e5), table_1e5)
    plan = chirp_plan(*f, 1e-6, 10**6)
    assert plan is not None and plan.width == 99990
    assert len(plan.chirp_hat) == 1 << 18
    bound = plan.error_bound(0.0, 10**6)
    assert bound <= 1e-11 * math.fsum(f[2])
    g = eval_grid("prime", SumRange(1.0, 1e-9, 1e5), table_1e5, alpha0=0.0,
                  step=1e-6, count=GRID_BLOCK + 10)
    for j in (0, GRID_BLOCK - 1, GRID_BLOCK, GRID_BLOCK + 9):
        ah, al = g.alpha_dd(j)
        want = eval_points(*f, [ah], al)[0]
        assert abs(g.values[j] - want) <= bound + points_error_bound(*f, 0.1, al)
    # the grid takes the chirp-z path without asking for a Taylor-grid plan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "taylor_grid_plan", None)  # any call fails
        start, block = next(iter_grid_values(*f, 0.0, 1e-6, 10**6))
    assert start == 0 and len(block) == GRID_BLOCK
    # a linear window wider than CHIRP_SPAN (25,567 primes over 297,000
    # integers) goes to the Taylor tables
    wide = sum_freqs("prime", SumRange(1.0, 0.01, 3e5), table_1e6)
    assert len(wide[0]) == 25567 and chirp_plan(*wide, 1e-7, 1 << 20) is None
    assert isinstance(taylor_grid_plan(*wide, 1e-7, 1 << 20), TaylorGridPlan)
    # the theorem detector's 230-term stream at X = 1728, and the lemma
    # suite's largest ensemble (44 integers), keep the row recurrence
    inst = ExperimentConfig().instance
    lin = sum_freqs("prime", inst.linear_range(1728.0), table_1e5,
                    scale=inst.lambda1)
    assert len(lin[0]) == 230 and chirp_plan(*lin, 4e-6, 10**7) is None
    assert taylor_grid_plan(*lin, 4e-6, 10**7) is None
    lemma = sum_freqs("integer", SumRange(2.0, 0.1, 4000.0))
    assert len(lemma[0]) == 44 and chirp_plan(*lemma, 1e-4, 51201) is None
    assert taylor_grid_plan(*lemma, 1e-4, 51201) is None
    # a repeated frequency would collide in the convolution's input
    twice = (np.repeat(f[0], 2), np.repeat(f[1], 2), np.repeat(f[2], 2))
    assert chirp_plan(*twice, 1e-6, 10**6) is None


# ---------------------------------------------------------------------------
# Taylor-grid path against eval_points and 50-digit sums

@st.composite
def _any_grid_ensembles(draw):
    # non-integer k, a non-integer scale, and integer cubes past 2^53 (whose
    # frequencies carry a low part), each on a grid inside the phase budget
    which = draw(st.sampled_from(["k2.5", "sqrt2", "cubes"]))
    delta = draw(st.sampled_from([1e-9, 0.1, 0.5]))
    if which == "k2.5":
        kind, scale = "prime", draw(st.sampled_from([1.0, -1.0]))
        rng = SumRange(2.5, delta, draw(st.floats(10.0, 1e12)))
    elif which == "sqrt2":
        kind, scale = "prime", math.sqrt(2.0)
        rng = SumRange(1.0, delta, draw(st.floats(2.0, 9e4)))
    else:
        kind, scale = "integer", 1.0
        rng = SumRange(3.0, 0.999, draw(st.floats(9.1e15, 1e17)))
    reach = min(50.0, 2.0**45 / (rng.X * abs(scale)))
    alpha0 = draw(st.floats(-reach / 2, reach / 2))
    step = draw(st.floats(1e-9, 1.0)) * reach / 400
    return kind, rng, scale, alpha0, step


@settings(max_examples=60, deadline=None)
@given(ensemble=_any_grid_ensembles(), count=st.integers(1, 200),
       block=st.sampled_from([7, 48, GRID_BLOCK]))
@example(ensemble=("prime", SumRange(2.5, 0.1, 1e10), 1.0, 0.3, 1e-3),
         count=1, block=GRID_BLOCK)
def test_taylor_grid_within_certified_bounds(table_1e5, ensemble, count,
                                             block):
    kind, rng, scale, alpha0, step = ensemble
    f = sum_freqs(kind, rng, table_1e5 if kind == "prime" else None, scale)
    with pytest.MonkeyPatch.context() as patch:
        # the Taylor-grid path for every ensemble, in blocks small enough
        # for the counts drawn here to cross them
        patch.setattr(expsums, "CHIRP_COST", math.inf)
        patch.setattr(expsums, "TAYLOR_GRID_COST", 0.0)
        patch.setattr(expsums, "GRID_BLOCK", block)
        plan = taylor_grid_plan(*f, step, count)
        blocks = list(iter_grid_values(*f, alpha0, step, count))
    assert [s for s, _ in blocks] == list(range(0, count, block))
    got = np.concatenate([b for _, b in blocks])
    if len(f[0]) == 0:
        assert plan is None and np.all(got == 0)
        return
    assert plan.powers.shape == (expsums.TAYLOR_GRID_TERMS, len(f[0]))
    amax = abs(alpha0) + count * step
    bound = plan.error_bound(alpha0, count)
    for j, (ah, al) in enumerate(_grid_nodes(alpha0, step, range(count))):
        want = eval_points(*f, [ah], al)[0]
        assert abs(got[j] - want) <= bound + points_error_bound(*f, amax, al)


def _mp_freq_sum(fh, fl, weights, alpha):
    # the frequencies fh + fl taken as exact, at 50 digits
    return complex(mp.fsum(mp.mpf(float(w)) * mp.expjpi(
        2 * (mp.mpf(float(h)) + mp.mpf(float(l))) * alpha)
        for h, l, w in zip(fh, fl, weights)))


@pytest.mark.parametrize("freqs,alpha0,step,count,js", [
    ("sqrt2", 0.1371, 1e-3, 150, (0, 63, 64, 149)),
    ("k2.5", -17.25, 1e-6, 130, (0, 64, 127, 129)),
    ("cubes", 1e-3, 3e-9, 70, (0, 33, 69)),
    ("k2.5", 999.9, 0.01, 1, (0,)),
    ("sqrt2", 0.31, 1e-6, GRID_BLOCK + 5, (0, GRID_BLOCK - 1, GRID_BLOCK,
                                          GRID_BLOCK + 4)),
    ("k2.5", 0.31, 1e-6, GRID_BLOCK + 5, (GRID_BLOCK - 1, GRID_BLOCK + 4)),
])
def test_taylor_grid_bound_against_50_digit_sums(freqs, alpha0, step, count,
                                                 js):
    if freqs == "sqrt2":
        ns = np.arange(2, 302)
        fh, fl = two_prod(ns.astype(np.float64), math.sqrt(2.0))
    elif freqs == "k2.5":
        ns = np.arange(900, 3400)
        fh, fl = pow_dd(ns, 2.5)
    else:  # cubes past 2^53, with low parts
        ns = np.arange(215_000, 215_300)
        fh, fl = pow_dd(ns, 3.0)
        assert np.any(fl)
    weights = np.log(ns + 1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expsums, "TAYLOR_GRID_COST", 0.0)
        if count < GRID_BLOCK:  # several blocks
            patch.setattr(expsums, "GRID_BLOCK", 64)
        plan = taylor_grid_plan(fh, fl, weights, step, count)
        got = np.concatenate([b for _, b in iter_grid_values(
            fh, fl, weights, alpha0, step, count)])
    bound = plan.error_bound(alpha0, count)
    for j in js:
        exact = _mp_freq_sum(fh, fl, weights,
                             mp.mpf(alpha0) + j * mp.mpf(step))
        assert abs(got[j] - exact) <= bound
        assert abs(abs(got[j]) - abs(exact)) <= bound


def test_taylor_grid_path_selection():
    # the spectrum workload's k = 2.5 grid: 9592 primes on 2^18 nodes (the
    # ensembles that keep the other paths are in test_chirp_path_selection)
    table = sieve(10**5 + 1)  # the window ends a hair past 1e5
    count = 1 << 18
    f = sum_freqs("prime", SumRange(2.5, 1e-13, 1e5**2.5), table)
    assert len(f[0]) == 9592 and chirp_plan(*f, 1e-6, count) is None
    plan = taylor_grid_plan(*f, 1e-6, count)
    assert plan is not None and plan.size == GRID_BLOCK
    bound = plan.error_bound(0.9, count)
    assert bound <= 1e-11 * plan.w_abs
    for start, block in iter_grid_values(*f, 0.9, 1e-6, GRID_BLOCK + 3):
        j = start + len(block) - 1
        (ah, al), = _grid_nodes(0.9, 1e-6, [j])
        want = eval_points(*f, [ah], al)[0]
        assert abs(block[-1] - want) <= bound + points_error_bound(*f, 1.0, al)
