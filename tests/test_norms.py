import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from dhlab import expsums, harness, norms
from dhlab.arcs import choose_parameters
from dhlab.errors import DomainError
from dhlab.expsums import fejer_kernel, sum_freqs, trapezoid
from dhlab.harness import ExperimentConfig
from dhlab.norms import (count_quadruples, exp_sum_gap_l2, kernel_moment,
                         moment_integral, selberg_integral)
from dhlab.precision import pow_dd, two_sum
from dhlab.primes import (SumRange, integers_in_range, theta_many,
                          window_arrays)


def quadruple_oracle(N, k, gamma):
    """Exhaustive O(N^4) count via all pair-sum differences.

    Uses the same correctly-rounded power values as the library so the
    comparison semantics match term for term."""
    ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    if float(k).is_integer():
        v = ns ** int(k)
    else:
        v = np.array([float(mp.power(int(n), mp.mpf(k))) for n in ns])
    sums = (v[:, None] + v[None, :]).ravel()
    return int(np.count_nonzero(np.abs(sums[:, None] - sums[None, :]) < gamma))


def quadruple_loop_oracle(N, k, gamma):
    """Literal four-fold loop (cross-validates the matrix oracle)."""
    ns = range(N + 1, 2 * N + 1)
    if float(k).is_integer():
        pw = {n: n ** int(k) for n in ns}
    else:
        pw = {n: float(mp.power(n, mp.mpf(k))) for n in ns}
    count = 0
    for n1 in ns:
        for n2 in ns:
            for n3 in ns:
                for n4 in ns:
                    if abs((pw[n1] + pw[n2]) - (pw[n3] + pw[n4])) < gamma:
                        count += 1
    return count


def test_quadruples_hand_counts():
    # n in {3,4}: pair sums 18,25,25,32 -> 6 equal pairs; gamma=8 adds the
    # |18-25| and |25-32| combinations (8 ordered) for 14
    assert count_quadruples(2, 2.0, 0.5) == 6
    assert count_quadruples(2, 2.0, 8.0) == 14


def test_quadruples_diagonal_lower_bound():
    for N, k in ((5, 2.0), (8, 1.5)):
        assert count_quadruples(N, k, 1e-9) >= N * N


def test_quadruples_loop_oracle_agreement():
    assert quadruple_oracle(3, 2.5, 3.3) == quadruple_loop_oracle(3, 2.5, 3.3)
    assert quadruple_oracle(4, 2.0, 7.0) == quadruple_loop_oracle(4, 2.0, 7.0)


def test_quadruples_match_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        N = int(rng.integers(2, 28))
        k = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        gamma = float(rng.uniform(0.01, 4.0 * (2 * N) ** k / 8))
        assert count_quadruples(N, k, gamma) == quadruple_oracle(N, k, gamma)


def test_quadruples_boundary_integers():
    # integer data sits exactly on boundaries; strict < must exclude them
    for gamma in (1.0, 7.0, 8.0, 14.0):
        assert count_quadruples(2, 2.0, gamma) == quadruple_oracle(2, 2.0, gamma)


def test_quadruples_swap_symmetry():
    # swapping the (n1,n2) and (n3,n4) roles leaves the count fixed; recount
    # with the sum array reversed
    qc = count_quadruples(9, 2.5, 2.0)
    assert qc == quadruple_oracle(9, 2.5, 2.0)  # oracle is swap-symmetric


def test_quadruples_validation():
    with pytest.raises(DomainError):
        count_quadruples(0, 2.0, 1.0)
    for gamma in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            count_quadruples(3, 2.0, gamma)
    # k off its domain, and pair sums past 2^62 (int64) or near float64
    # overflow, refused before the pair sums are formed
    for N, k in ((100, -2.0), (100, 0.0), (100, math.nan), (100, math.inf),
                 (100, 10.0), (30, 14.0), (1, 61.0), (3, 1e20), (100, 200.5)):
        with pytest.raises(DomainError):
            count_quadruples(N, k, 1.0)
    # a window wider than every pair difference counts all N^4 quadruples
    assert count_quadruples(20, 3.0, 1e300) == 20**4
    assert count_quadruples(1, 60.0, 1.0) == 1


def test_quadruples_refuse_pair_sums_past_cap(monkeypatch):
    # more than MAX_GRID_VALUES pair sums are refused before the power
    # values are built; 4096^2 = MAX_GRID_VALUES reaches them
    class Built(Exception):
        pass

    def built(N, k):
        raise Built

    monkeypatch.setattr(norms, "_power_values", built)
    for N, k in ((4097, 2.0), (10**8, 2.0), (10**5, 1.5)):
        with pytest.raises(DomainError, match="needs .* pair sums"):
            count_quadruples(N, k, 1.0)
    with pytest.raises(Built):
        count_quadruples(4096, 2.0, 1.0)


def test_moment_orthogonality_diagonal(table_1e6):
    # integer k, full period: the integral collapses to sum of log^2 p
    for k, X in ((1, 1000.0), (2, 1000.0), (3, 1000.0)):
        rng = SumRange(float(k), 0.25, X)
        _, logs = window_arrays(rng, table_1e6)
        rep = moment_integral("Sk", 2, (0.0, 1.0), rng, table_1e6)
        assert rep.value == pytest.approx(math.fsum(logs**2), rel=0.005)


def gap_coefficients(rng, table):
    """The integers n of the window and the coefficients of the prime sum
    minus the integer sum: log n - 1 at the primes, -1 elsewhere."""
    ps, logs = window_arrays(rng, table)
    ns = integers_in_range(rng)
    c = -np.ones(len(ns))
    c[np.searchsorted(ns, ps)] += logs
    return ns, c


def test_whole_period_moments_need_no_grid(table_1e6, no_grid_values):
    # whole periods of integer frequencies: (hi - lo) sum c^2, however far
    # past MAX_TRAPEZOID_POINTS the trapezoid's grid would have been
    _, logs = window_arrays(SumRange(1, 0.1, 1000.0), table_1e6)
    rep = moment_integral("S1", 2, (-3000.0, 3000.0),
                          SumRange(1, 0.1, 1000.0), table_1e6)
    assert rep.value == pytest.approx(6000.0 * math.fsum(logs**2), rel=1e-15)
    # the gap over [-1/2, 1/2]
    rng = SumRange(2, 0.1, 1e7)
    _, c = gap_coefficients(rng, table_1e6)
    rep = exp_sum_gap_l2(0.5, rng, table_1e6)
    assert rep.value == pytest.approx(math.fsum(c**2), rel=1e-15)


def test_integrals_refuse_before_evaluating(table_1e6, no_grid_values):
    # grids of more than MAX_TRAPEZOID_POINTS nodes where the pair sums
    # pass MAX_GRID_VALUES too, and a bound that does not exist
    cap = str(expsums.MAX_TRAPEZOID_POINTS)
    calls = [
        # 68,906 frequencies (4.7e9 pairs) off whole periods
        (cap, lambda: moment_integral("S1", 2, (-3000.5, 3000.0),
                                      SumRange(1, 0.1, 1e6), table_1e6)),
        # 6,213 frequencies, whose square has too many pair sums
        (cap, lambda: moment_integral("Sk", 4, (0.0, 1.0),
                                      SumRange(2, 0.1, 1e10), table_1e6)),
        # the identity's head [0, lo] over the cap, for non-integer and
        # integer k
        (cap, lambda: kernel_moment(2, 1.0, 5000.0, 6000.0, 0.5,
                                    SumRange(2.5, 0.1, 1000.0), table_1e6)),
        (cap, lambda: kernel_moment(2, 1.0, 1.99, 10.0, 0.5,
                                    SumRange(2, 0.1, 1e7), table_1e6)),
        ("specific to k = 3", lambda: moment_integral(
            "Sk", 8, (0.0, 1.0), SumRange(2, 0.1, 1e6), table_1e6)),
        # non-finite ends
        ("finite lo < hi", lambda: moment_integral(
            "Sk", 2, (math.nan, 0.1), SumRange(2, 0.1, 1e3), table_1e6)),
        ("finite lo < hi", lambda: moment_integral(
            "Sk", 2, (0.0, math.inf), SumRange(2, 0.1, 1e3), table_1e6)),
    ]
    for message, call in calls:
        with pytest.raises(DomainError, match=message):
            call()


def pair_sum_oracle(p, ns, weights, k, lo, hi):
    """30-digit sum over pairs of terms of (sum w e(n^k a))^(p/2) of
    c_m c_n int_lo^hi e((t_m - t_n) a) da, the terms left ungrouped (p = 4:
    one per unordered pair of n), with the scale (sum |c|)^2 (hi - lo)."""
    with mp.workdps(30):
        f = [mp.power(int(n), mp.mpf(k)) for n in ns]
        w = [mp.mpf(float(x)) for x in weights]
        if p == 2:
            terms = list(zip(f, w))
        else:
            terms = [(f[a] + f[b], w[a] * w[b] * (1 if a == b else 2))
                     for a in range(len(f)) for b in range(a, len(f))]
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        total = mp.fsum(c * c for _, c in terms) * (hi - lo)
        for m, (tm, cm) in enumerate(terms):
            for tn, cn in terms[m + 1:]:
                xi = tn - tm
                E = (hi - lo if xi == 0 else
                     (mp.sin(2 * mp.pi * xi * hi) - mp.sin(2 * mp.pi * xi * lo))
                     / (2 * mp.pi * xi))
                total += 2 * cm * cn * E
        scale = mp.fsum(abs(c) for _, c in terms) ** 2 * (hi - lo)
        return float(total), float(scale)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 4]), k=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
       N=st.integers(12, 3000), span=st.integers(1, 40),
       lo=st.floats(-0.7, 0.6), width=st.floats(1e-3, 1.3),
       symmetric=st.booleans())
# frequencies near 1e8, whose low parts move the value by about 1e-14
# of the scale
@example(p=4, k=2.5, N=2000, span=30, lo=0.1, width=0.6, symmetric=False)
@example(p=2, k=1.5, N=2999, span=40, lo=-0.6, width=1.1, symmetric=False)
def test_moment_pair_sum_matches_mpmath(table_1e6, p, k, N, span, lo, width,
                                        symmetric):
    # the pair sum against 30-digit pairs over exact powers n^k, on a
    # window of the primes in [N - span, N] (pair sums up to 5.4e10)
    # and any interval, or its symmetric twin
    rng = SumRange(k, (1 - min(span, N // 2) / N) ** k, float(N) ** k)
    lo, hi = (-0.5 * width, 0.5 * width) if symmetric else (lo, lo + width)
    ps, logs = window_arrays(rng, table_1e6)
    oracle, scale = pair_sum_oracle(p, ps, logs, k, lo, hi)
    got = moment_integral("Sk", p, (lo, hi), rng, table_1e6).value
    assert abs(got - oracle) <= 1e-15 * scale


@settings(max_examples=25, deadline=None)
@given(k=st.sampled_from([1.5, 2.0, 2.5, 3.0]), N=st.integers(12, 3000),
       span=st.integers(1, 40), Y=st.floats(1e-3, 0.5))
@example(k=2.5, N=2999, span=40, Y=0.45)
def test_gap_pair_sum_matches_mpmath(table_1e6, k, N, span, Y):
    # the signed ensemble of the prime sum minus the integer sum
    rng = SumRange(k, (1 - min(span, N // 2) / N) ** k, float(N) ** k)
    ns, c = gap_coefficients(rng, table_1e6)
    oracle, scale = pair_sum_oracle(2, ns, c, k, -Y, Y)
    got = exp_sum_gap_l2(Y, rng, table_1e6).value
    assert abs(got - oracle) <= 1e-15 * scale


def test_moment_of_empty_window_is_zero(table_1e6):
    # no prime in [23.4, 26]
    rng = SumRange(1.0, 0.9, 26.0)
    assert len(window_arrays(rng, table_1e6)[0]) == 0
    for p in (2, 4):
        assert moment_integral("Sk", p, (-0.1, 0.2), rng, table_1e6).value == 0


# the spectrum workload's criterion-3 second moments and criterion-4
# eighth moments of cubes, each over one period
WHOLE_PERIODS = ([(2, SumRange(k, 0.25, X)) for k in (1.0, 2.0, 3.0)
                  for X in (1e3, 1e4)]
                 + [(8, SumRange(3.0, 0.1, X))
                    for X in (500.0, 1000.0, 2000.0, 4000.0)])


@pytest.mark.parametrize("p, rng", WHOLE_PERIODS)
def test_whole_period_moment_matches_trapezoid(table_1e6, p, rng):
    f = sum_freqs("prime", rng, table_1e6)
    trap = trapezoid([f], 0.0, 1.0, rng.X, lambda a, s: np.abs(s) ** p)
    got = moment_integral("Sk", p, (0.0, 1.0), rng, table_1e6).value
    assert got == pytest.approx(trap, rel=1e-12)


def test_moment_interval_shrinks_to_zero(table_1e6):
    rng = SumRange(2, 0.25, 500.0)
    vals = [moment_integral("Sk", 2, (-tau, tau), rng, table_1e6).value
            for tau in (0.2, 0.1, 0.05, 0.01)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.25 * vals[0]


def eighth_moment_oracle(rng, table):
    """Weighted count of p1^3+..+p4^3 = p5^3+..+p8^3 via exact-integer
    four-fold sums: the integral over one period equals sum of w(s)^2."""
    ps, logs = window_arrays(rng, table)
    ps = [int(p) for p in ps]
    acc = {}
    def build(depth, start_sum, weight):
        if depth == 4:
            acc[start_sum] = acc.get(start_sum, 0.0) + weight
            return
        for p, lg in zip(ps, logs):
            build(depth + 1, start_sum + p**3, weight * lg)
    build(0, 0, 1.0)
    return math.fsum(w * w for w in acc.values())


def test_moment_eighth_matches_combinatorial_oracle(table_1e6):
    rng = SumRange(3.0, 0.1, 500.0)
    rep = moment_integral("Sk", 8, (0.0, 1.0), rng, table_1e6)
    oracle = eighth_moment_oracle(rng, table_1e6)
    assert rep.value == pytest.approx(oracle, rel=0.01)


def test_moment_eighth_requires_cubes(table_1e6):
    with pytest.raises(DomainError):
        moment_integral("Sk", 8, (0.0, 1.0), SumRange(2.0, 0.1, 500.0), table_1e6)


def test_selberg_trivial_window(table_1e6):
    # cube roots of [389, 780] stay inside the prime gap (7, 11), so the
    # theta terms vanish on every window and only the smooth correction
    # survives
    rng = SumRange(3.0, 0.5, 389.0)
    h = 2.0
    val = selberg_integral(rng, h, table_1e6)
    xs = np.linspace(389.0, 778.0, 200001)
    g = (xs + h) ** (1.0 / 3.0) - xs ** (1.0 / 3.0)
    smooth = float(np.trapezoid(g * g, xs))
    assert val == pytest.approx(smooth, rel=1e-6)


def test_selberg_riemann_oracle(table_1e6):
    rng = SumRange(1.0, 0.5, 100.0)
    val = selberg_integral(rng, 10.0, table_1e6)
    xs = np.arange(100.0, 200.0, 1e-3) + 5e-4
    integrand = (theta_many(xs + 10.0, table_1e6) - theta_many(xs, table_1e6) - 10.0) ** 2
    oracle = float(np.sum(integrand) * 1e-3)
    assert val == pytest.approx(oracle, rel=0.001)


def test_selberg_riemann_oracle_fractional_k(table_1e6):
    rng = SumRange(2.0, 0.5, 400.0)
    h = 25.0
    val = selberg_integral(rng, h, table_1e6)
    xs = np.arange(400.0, 800.0, 1e-3) + 5e-4
    g = np.sqrt(xs + h) - np.sqrt(xs)
    integrand = (theta_many(np.sqrt(xs + h), table_1e6)
                 - theta_many(np.sqrt(xs), table_1e6) - g) ** 2
    oracle = float(np.sum(integrand) * 1e-3)
    assert val == pytest.approx(oracle, rel=0.002)


def test_selberg_envelope_trend_linear(table_1e6):
    ratios = []
    for X in (1e4, 2e4, 4e4, 8e4):
        h = X ** (1.0 - 5.0 / 6.0 + 0.05)
        v = selberg_integral(SumRange(1.0, 0.1, X), h, table_1e6)
        ratios.append(v / (h * h * X))
    assert all(b <= a * (1 + 1e-9) for a, b in zip(ratios, ratios[1:]))


def test_gap_l2_shrinks_to_zero(table_1e6):
    rng = SumRange(1.0, 0.25, 10.0)
    v1 = exp_sum_gap_l2(0.01, rng, table_1e6).value
    v2 = exp_sum_gap_l2(0.001, rng, table_1e6).value
    assert v2 < v1 < 0.5


def test_gap_l2_riemann_oracle(table_1e6):
    from dhlab.expsums import integer_exp_sum, prime_exp_sum
    rng = SumRange(1.0, 0.25, 10.0)
    rep = exp_sum_gap_l2(0.01, rng, table_1e6)
    alphas = np.linspace(-0.01, 0.01, 10**6)
    vals = [abs(prime_exp_sum(float(a), rng, table_1e6)
                - integer_exp_sum(float(a), rng)) ** 2
            for a in alphas[:: 10**4]]
    # dense oracle on the decimated grid via vectorized evaluation
    from dhlab.expsums import eval_points, sum_freqs
    fS = sum_freqs("prime", rng, table_1e6)
    fU = sum_freqs("integer", rng)
    dense = np.abs(eval_points(*fS, alphas) - eval_points(*fU, alphas)) ** 2
    oracle = float(np.trapezoid(dense, alphas))
    assert rep.value == pytest.approx(oracle, rel=0.005)
    assert vals[0] == pytest.approx(dense[0], rel=1e-9)


def test_gap_l2_bound_sweep(table_1e6):
    # one uniform constant across an X doubling sweep
    ratios = []
    for X in (500.0, 1000.0, 2000.0, 4000.0):
        rep = exp_sum_gap_l2(0.1, SumRange(2.0, 0.1, X), table_1e6)
        ratios.append(rep.ratio)
    assert max(ratios) < 1.0
    assert max(ratios) / min(ratios) < 4.0


def test_gap_l2_domain(table_1e6):
    with pytest.raises(DomainError):
        exp_sum_gap_l2(0.7, SumRange(2.0, 0.1, 500.0), table_1e6)


def test_kernel_moment_eta_sweep(table_1e6):
    # Lemma-9/10 analogues: one constant across eta in {0.1, 0.05, 0.02}
    rng = SumRange(2.0, 0.1, 1000.0)
    for p in (2, 4):
        ratios = []
        for eta in (0.1, 0.05, 0.02):
            R = math.log(1000.0) ** 1.5 / eta**2
            rep = kernel_moment(p, -1.0, 0.01, R, eta, rng, table_1e6)
            ratios.append(rep.ratio)
        assert all(math.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) / min(ratios) < 8.0


def test_moment_report_json(table_1e6):
    rng = SumRange(2.0, 0.25, 1000.0)
    rep = moment_integral("Sk", 2, (-0.1, 0.1), rng, table_1e6)
    blob = rep.to_json()
    assert set(blob) == {"exponent", "lo", "hi", "value", "bound", "ratio",
                         "X", "k", "eta", "tail_bound"}
    assert blob["exponent"] == 2 and blob["eta"] is None
    assert blob["tail_bound"] is None
    assert blob["ratio"] == pytest.approx(blob["value"] / blob["bound"])


def _direct(p, lam, lo, hi, eta, rng, table):
    """Trapezoid of |S(lam a)|^p K_eta(a) over all of [lo, hi]."""
    f = sum_freqs("prime", rng, table, scale=lam)
    return trapezoid([f], lo, hi, rng.X * max(1.0, abs(lam)),
                     lambda a, s: np.abs(s) ** p * fejer_kernel(a, eta))


def _float_tail_ceiling(rng, table, R):
    """1e-13 of the trivial size of a p = 2 tail past R: every |J| <= 1/R,
    so every |T| <= 1/(pi^2 R), and the pairs weigh (sum w)^2."""
    sw = float(np.sum(window_arrays(rng, table)[1]))
    return 1e-13 * sw**2 / (math.pi**2 * R)


def _trapezoid_gap(p, lam, lo, hi, eta, rng, table):
    """Bound on |identity - direct trapezoid| from the trapezoids' grids,
    set from the Euler-Maclaurin leading terms h^2/12 g'(a) of g = |S|^p
    K_eta, with |S| <= sum w, |dS(lam a)/da| <= 2 pi band sum w, K_eta(a)
    <= min(eta^2, (pi a)^-2) and |K_eta'(a)| <= min(pi eta^3, eta/(pi a^2)
    + 2/(pi^2 a^3)), the decaying forms taken from a = 1 on.  The head
    [0, |lo|] and the direct grid share the lo end up to their step
    mismatch; hi is the direct grid's alone.  Doubled for the higher-order
    terms."""
    band = rng.X * max(1.0, abs(lam))
    sw = float(np.sum(window_arrays(rng, table)[1]))

    def dg(a):
        K, dK = eta**2, math.pi * eta**3
        if a >= 1.0:
            K = min(K, 1.0 / (math.pi * a) ** 2)
            dK = min(dK, eta / (math.pi * a * a) + 2.0 / (math.pi**2 * a**3))
        return sw**p * (2.0 * math.pi * p * band * K + dK)

    h2 = expsums.trapezoid_step(lo, hi, band)[1]
    h1 = expsums.trapezoid_step(0.0, abs(lo), band)[1] if lo else h2
    return 2.0 * (abs(h1**2 - h2**2) * dg(abs(lo)) + h2**2 * dg(hi)) / 12.0


@settings(max_examples=50, deadline=None)
@given(p=st.sampled_from([2, 4]), k=st.sampled_from([2.0, 3.0]),
       X=st.floats(300.0, 1500.0), eta=st.floats(0.05, 0.9),
       lam_over_eta=st.floats(1.0, 4.0), sign=st.sampled_from([-1.0, 1.0]),
       lo=st.floats(-0.03, 0.03), hi=st.floats(2.0, 8.0))
def test_kernel_moment_identity_matches_direct_trapezoid(
        table_1e6, p, k, X, eta, lam_over_eta, sign, lo, hi):
    # the identity against one trapezoid over all of [lo, hi], within the
    # certified tail remainder plus the trapezoids' own grid error
    lam = sign * min(2.0, eta * lam_over_eta)
    rng = SumRange(k, 0.1, X)
    rep = kernel_moment(p, lam, lo, hi, eta, rng, table_1e6)
    want = _direct(p, lam, lo, hi, eta, rng, table_1e6)
    tol = (rep.tail_bound
           + _trapezoid_gap(p, lam, lo, hi, eta, rng, table_1e6)
           + 1e-12 * abs(want))
    assert abs(rep.value - want) <= tol
    assert rep.tail_bound > 0.0
    if p == 2:
        assert rep.tail_bound <= _float_tail_ceiling(rng, table_1e6, hi)


def test_kernel_moment_default_config_matches_direct_trapezoid(table_1e6):
    # the weighted checks' own interval [P/X, R] at X = 1000
    inst = ExperimentConfig().instance
    X = 1000.0
    d = choose_parameters(inst, X)
    rng = inst.power_range(X)
    args = (inst.lambda3, d.major[1], d.R, d.eta, rng, table_1e6)
    for p in (2, 4):
        rep = kernel_moment(p, *args)
        want = _direct(p, *args)
        slack = rep.tail_bound + 1e-9 * want
        assert abs(rep.value - want) <= slack, (p, rep.value, want)
        # p = 2 sums its tail pair by pair, in float under a certified
        # bound; p = 4 takes the mean term and adds its remainder
        assert rep.tail_bound > 0.0
        if p == 2:
            assert rep.tail_bound <= _float_tail_ceiling(rng, table_1e6, d.R)


def test_kernel_moment_fourth_whole_line_counts_equal_pair_sums(table_1e6):
    # [0, inf) is half the whole line: eta/2 times the weighted count of
    # p1^k + p2^k = p3^k + p4^k, enumerated over all quadruples
    for k, X, lam in ((2.0, 3000.0, -1.0), (3.0, 30000.0, 0.7)):
        rng = SumRange(k, 0.1, X)
        ps, logs = window_arrays(rng, table_1e6)
        pw = {int(q): int(q) ** int(k) for q in ps}
        w = dict(zip(pw, logs))
        count = math.fsum(w[a] * w[b] * w[c] * w[e]
                          for a, b, c, e in itertools.product(pw, repeat=4)
                          if pw[a] + pw[b] == pw[c] + pw[e])
        eta = 0.3
        got = kernel_moment(4, lam, 0.0, math.inf, eta, rng, table_1e6).value
        assert got == pytest.approx(0.5 * eta * count, rel=1e-12)


def test_kernel_moment_refuses_bad_input_first(table_1e6, no_grid_values,
                                                monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("frequencies assembled")
    monkeypatch.setattr(norms, "sum_freqs", refuse)
    rng = SumRange(2.0, 0.1, 1000.0)
    for p, lam, lo, hi in (
            (2, 0.0, 0.01, 10.0),          # zero frequency scale
            (2, math.nan, 0.01, 10.0),
            (2, 1.0, math.nan, 10.0),
            (2, 1.0, 0.01, math.nan),
            (2, 1.0, -math.inf, 10.0),
            (2, 1.0, 10.0, 10.0),          # empty interval
            (3, 1.0, 0.01, 10.0),          # no bound for p = 3
            (8, 1.0, 0.01, 10.0)):         # eighth moment needs k = 3
        with pytest.raises(DomainError):
            kernel_moment(p, lam, lo, hi, 0.5, rng, table_1e6)


def test_kernel_moment_trapezoid_fallback(table_1e6, monkeypatch):
    # sums past MAX_GRID_VALUES: [lo, hi] is one trapezoid, no tail is
    # estimated, and hi = inf is refused before any value is evaluated
    monkeypatch.setattr(norms, "MAX_GRID_VALUES", 10)
    args = (SumRange(2.0, 0.1, 1000.0), table_1e6)
    rep = kernel_moment(4, -1.0, 0.01, 6.0, 0.5, *args)
    assert rep.value == _direct(4, -1.0, 0.01, 6.0, 0.5, *args)
    assert rep.tail_bound == 0.0
    monkeypatch.setattr(expsums, "iter_grid_values", None)
    with pytest.raises(DomainError, match="finite hi"):
        kernel_moment(4, -1.0, 0.01, math.inf, 0.5, *args)


def test_kernel_moment_infinite_hi_is_exact(table_1e6):
    # no tail at hi = inf: [0, inf) is eta/2 sum w^2, and [-inf, inf) by
    # reflection of [lo, inf) adds the head back
    rng = SumRange(2.0, 0.1, 2000.0)
    _, logs = window_arrays(rng, table_1e6)
    eta = 0.4
    for p in (2, 4):
        rep = kernel_moment(p, -1.0, 0.0, math.inf, eta, rng, table_1e6)
        assert rep.tail_bound == 0.0
    half = kernel_moment(2, -1.0, 0.0, math.inf, eta, rng, table_1e6).value
    assert half == pytest.approx(0.5 * eta * math.fsum(logs**2), rel=1e-14)
    rep = kernel_moment(2, -1.0, 0.02, math.inf, eta, rng, table_1e6)
    assert rep.hi == math.inf and 0 < rep.value < half


def test_kernel_moment_reflection(table_1e6):
    # the integrand is even: [lo, hi] and [-hi, -lo] agree, and [-a, b]
    # exceeds [a, b] by twice the integral over [0, a]
    rng = SumRange(2.0, 0.1, 1000.0)
    args = (rng, table_1e6)
    for p in (2, 4):
        v = lambda lo, hi: kernel_moment(p, 1.3, lo, hi, 0.5, *args).value
        assert v(-6.0, -0.02) == v(0.02, 6.0)
        assert v(-0.02, 6.0) - v(0.02, 6.0) == pytest.approx(
            2.0 * _direct(p, 1.3, 0.0, 0.02, 0.5, *args), rel=1e-12)


def test_kernel_moment_head_only_grid(table_1e6, monkeypatch):
    # the weighted checks at X = 4000 evaluate the head [0, P/X] alone:
    # about 1.9k nodes each, where the 64x trapezoid over [P/X, R] ran to
    # millions
    seen = []
    grid = expsums.iter_grid_values

    def counting(fh, fl, weights, alpha0, step, count):
        seen.append(count)
        return grid(fh, fl, weights, alpha0, step, count)

    monkeypatch.setattr(expsums, "iter_grid_values", counting)
    inst = ExperimentConfig().instance
    X = 4000.0
    d = choose_parameters(inst, X)
    head = expsums.trapezoid_step(0.0, d.major[1], X)[0] + 1
    for p in (2, 4):
        kernel_moment(p, inst.lambda3, d.major[1], d.R, d.eta,
                      inst.power_range(X), table_1e6)
    assert seen == [head, head]
    assert head < 2000


# ---------------------------------------------------------------------------
# kernel tails in float64 against 50-digit sine integrals

def _J50(nu, R):
    """int_R^inf cos(2 pi nu a) a^-2 da at 50 digits, by parts through Si."""
    if nu == 0:
        return 1 / R
    c = 2 * mp.pi * abs(nu)
    return mp.cos(c * R) / R - c * (mp.pi / 2 - mp.si(c * R))


def _T50(xi, R, eta):
    return (2 * _J50(xi, R) - _J50(xi + eta, R) - _J50(xi - eta, R)) / (4 * mp.pi**2)


def _exact_freqs(t, t_lo):
    return [mp.mpf(int(a)) + mp.mpf(float(b)) if t.dtype.kind == "i"
            else mp.mpf(float(a)) + mp.mpf(float(b)) for a, b in zip(t, t_lo)]


def _tail50(t, t_lo, c, lam, eta, R, pairs):
    """The tail of norms._tail at 50 digits, from the frequencies t + t_lo."""
    with mp.workdps(50):
        R, eta, lam = mp.mpf(R), mp.mpf(eta), mp.mpf(lam)
        tm, cm = _exact_freqs(t, t_lo), [mp.mpf(float(a)) for a in c]
        total = mp.fsum(a * a for a in cm) * _T50(0, R, eta)
        if pairs:
            total += mp.fsum(2 * cm[i] * cm[j] * _T50(lam * (tm[j] - tm[i]), R, eta)
                             for i in range(len(tm)) for j in range(i + 1, len(tm)))
        return total


def _assert_tail_certified(p, lam, eta, R, rng, table):
    # the tail from _identity's output against 50 digits from the
    # frequencies and low parts _coefficients gives
    t, t_lo, c, _ = norms._identity(p, lam, eta, rng, table)
    pairs = p == 2
    tail, err = norms._tail(t, t_lo, c, lam, eta, R, pairs)
    coeffs = norms._coefficients(p, *sum_freqs("prime", rng, table),
                                 float(rng.k).is_integer())
    gap = abs(mp.mpf(tail) - _tail50(*coeffs, lam, eta, R, pairs))
    assert 0.0 < err and gap <= err, (p, tail, float(gap), err)
    assert err < 1e-13 * abs(tail)


def test_kernel_tail_certified_on_default_config(table_1e6):
    # the weighted checks' tails (p = 2 pair by pair, p = 4 its mean term)
    inst = ExperimentConfig().instance
    for X in (1000.0, 2000.0, 4000.0):
        d = choose_parameters(inst, X)
        for p in (2, 4):
            _assert_tail_certified(p, inst.lambda3, d.eta, d.R,
                                   inst.power_range(X), table_1e6)


def test_large_p2_tail_is_summed_pair_by_pair(table_1e6, monkeypatch):
    # at X = 4e7 the p = 2 tail has 134,940 pairs, more than two row blocks:
    # it is summed pair by pair, not by its mean term, and the exact block
    # sums round to math.fsum over all pairs at once
    def refuse(*args):
        raise AssertionError("mean term taken for a pair-summed tail")

    monkeypatch.setattr(norms, "_remainder_bound", refuse)
    inst = ExperimentConfig().instance
    X = 4e7
    d = choose_parameters(inst, X)
    lam, eta, R, rng = inst.lambda3, d.eta, d.R, inst.power_range(X)
    rep = kernel_moment(2, lam, d.major[1], R, eta, rng, table_1e6)
    assert rep.tail_bound < 1e-13 * abs(rep.value)  # 3.9e-7 by mean term
    t, t_lo, c, _ = norms._identity(2, lam, eta, rng, table_1e6)
    assert len(t) * (len(t) - 1) // 2 > 2 * norms._TAIL_BLOCK
    th, tl = norms._hi_lo(t, t_lo)
    i, j = np.triu_indices(len(t), 1)
    dh, de = two_sum(th[j], -th[i])
    T, _ = norms._cos_tails(lam, np.r_[0.0, dh], np.r_[0.0, de + (tl[j] - tl[i])],
                            R, eta, 2.0 * abs(lam) * float(np.max(np.abs(th))))
    want = math.fsum([math.fsum(c * c) * T[0]]
                     + (2.0 * c[i] * c[j] * T[1:]).tolist())
    assert norms._tail(t, t_lo, c, lam, eta, R, True)[0] == want


@pytest.mark.parametrize("k, X", [(1.5, 4000.0), (2.5, 1.024e6)])
def test_kernel_tail_carries_low_parts(table_1e6, monkeypatch, k, X):
    # non-integer k: every T of a pair-summed tail agrees with 50 digits
    # from the differences of t + t_lo within its bound (the high parts
    # alone put T off by 7e-11 relative at k = 1.5, 1.5e-8 at k = 2.5)
    seen = []
    cos_tails = norms._cos_tails

    def recording(*args):
        seen.append(cos_tails(*args))
        return seen[-1]

    monkeypatch.setattr(norms, "_cos_tails", recording)
    rng, lam, eta, R = SumRange(k, 0.1, X), -1.0, 0.55, 50.3
    kernel_moment(2, lam, 0.01, R, eta, rng, table_1e6)
    # T(0) of the diagonal, then the pairs row block by row block
    T, err = (np.concatenate(v) for v in zip(*seen))
    t, t_lo, _ = norms._coefficients(2, *sum_freqs("prime", rng, table_1e6),
                                     False)
    assert np.any(t_lo)
    tm = _exact_freqs(t, t_lo)
    with mp.workdps(50):
        want = [_T50(0, R, eta)] + [_T50(lam * (tm[b] - tm[a]), R, eta)
                                    for a, b in zip(*np.triu_indices(len(t), 1))]
    assert len(want) == len(T)
    for got, w, e in zip(T, want, err):
        assert abs(mp.mpf(got) - w) <= e, (got, float(w), e)


def test_default_suite_tails_never_reach_mpmath(table_1e6, monkeypatch):
    def refuse(*args):
        raise AssertionError("50-digit sine integral in a default tail")
    monkeypatch.setattr(norms.mp, "si", refuse)
    monkeypatch.setattr(harness, "SUITE", tuple(
        c for c in harness.SUITE if c.name.startswith("weighted_")))
    cfg = ExperimentConfig()
    assert cfg.x_values == (1000.0, 2000.0, 4000.0)
    rows = harness.run_lemma_suite(cfg, table_1e6).rows
    assert [r.check for r in rows] == ["weighted_second_moment"] * 3 + [
        "weighted_fourth_moment"] * 3
    assert all(r.status == "PASS" for r in rows), rows


def test_small_x_takes_the_50_digit_path(table_1e6, monkeypatch):
    # lam = 1e-3 puts x = 2 pi |nu| R below the threshold for the nearer
    # pairs: those alone are taken at 50 digits, within tail_bound
    calls, seen = [], []
    si, tail = norms.mp.si, norms._tail

    def counting(x):
        calls.append(x)
        return si(x)

    def recording(*args):
        seen.append((args, tail(*args)))
        return seen[-1][1]

    monkeypatch.setattr(norms.mp, "si", counting)
    monkeypatch.setattr(norms, "_tail", recording)
    rng = SumRange(2.0, 0.1, 1000.0)
    rep = kernel_moment(2, 1e-3, 0.01, 50.0, 0.6, rng, table_1e6)
    (args, (got, err)), = seen
    t = args[0]
    assert 0 < len(calls) < 3 * len(t) * (len(t) - 1) // 2
    assert err == rep.tail_bound
    monkeypatch.setattr(norms.mp, "si", si)
    assert abs(mp.mpf(got) - _tail50(*args)) <= err


@settings(max_examples=120, deadline=None)
@given(lam=st.floats(0.01, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       eta=st.floats(0.05, 0.95), R=st.floats(1.0, 1e6),
       k=st.sampled_from([2.0, 1.5, 2.5]),
       ns=st.lists(st.integers(2, 5000), min_size=2, max_size=6, unique=True))
@example(lam=1.0, sign=-1.0, eta=0.6, R=1e6, k=2.0, ns=[17, 4999])
@example(lam=2.7, sign=1.0, eta=0.3, R=9e5, k=2.5, ns=[2, 3, 4999])
@example(lam=1.0, sign=1.0, eta=0.5, R=300.0, k=1.5, ns=[10, 11])
def test_float_cos_tails_match_50_digits(lam, sign, eta, R, k, ns):
    # T in float against the 50-digit sine integrals, within its certified
    # bound: integer differences (k = 2) and differences of hi/lo
    # frequencies that carry a low part (k = 1.5, 2.5)
    lam *= sign
    t, t_lo = pow_dd(np.array(sorted(ns)), k)
    i, j = np.triu_indices(len(t), 1)
    dh, de = two_sum(t[j], -t[i])
    dl = de + (t_lo[j] - t_lo[i])
    size = 2.0 * abs(lam) * float(t[-1])
    T, err = norms._cos_tails(lam, dh, dl, R, eta, size)
    tm = _exact_freqs(t, t_lo)
    with mp.workdps(50):
        for a, b, got, e in zip(i, j, T, err):
            want = _T50(mp.mpf(lam) * (tm[b] - tm[a]), mp.mpf(R), mp.mpf(eta))
            assert abs(mp.mpf(got) - want) <= e, (a, b, got, float(want), e)
            assert e <= 1e-12 / (mp.pi**2 * R)
