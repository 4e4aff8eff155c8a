import math

import numpy as np
import pytest
from mpmath import mp

from dhlab import expsums
from dhlab.errors import DomainError
from dhlab.norms import (count_quadruples, exp_sum_gap_l2, kernel_moment,
                         moment_integral, selberg_integral)
from dhlab.primes import SumRange, theta_many, window_arrays


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
    assert count_quadruples(2, 2.0, 0.5).count == 6
    assert count_quadruples(2, 2.0, 8.0).count == 14


def test_quadruples_diagonal_lower_bound():
    for N, k in ((5, 2.0), (8, 1.5)):
        assert count_quadruples(N, k, 1e-9).count >= N * N


def test_quadruples_loop_oracle_agreement():
    assert quadruple_oracle(3, 2.5, 3.3) == quadruple_loop_oracle(3, 2.5, 3.3)
    assert quadruple_oracle(4, 2.0, 7.0) == quadruple_loop_oracle(4, 2.0, 7.0)


def test_quadruples_match_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        N = int(rng.integers(2, 28))
        k = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        gamma = float(rng.uniform(0.01, 4.0 * (2 * N) ** k / 8))
        assert count_quadruples(N, k, gamma).count == quadruple_oracle(N, k, gamma)


def test_quadruples_boundary_integers():
    # integer data sits exactly on boundaries; strict < must exclude them
    for gamma in (1.0, 7.0, 8.0, 14.0):
        assert count_quadruples(2, 2.0, gamma).count == quadruple_oracle(2, 2.0, gamma)


def test_quadruples_swap_symmetry():
    # swapping the (n1,n2) and (n3,n4) roles leaves the count fixed; recount
    # with the sum array reversed
    qc = count_quadruples(9, 2.5, 2.0)
    assert qc.count == quadruple_oracle(9, 2.5, 2.0)  # oracle is swap-symmetric


def test_quadruples_validation():
    with pytest.raises(DomainError):
        count_quadruples(0, 2.0, 1.0)
    with pytest.raises(DomainError):
        count_quadruples(3, 2.0, 0.0)


def test_moment_orthogonality_diagonal(table_1e6):
    # integer k, full period: the integral collapses to sum of log^2 p
    for k, X in ((1, 1000.0), (2, 1000.0), (3, 1000.0)):
        rng = SumRange(float(k), 0.25, X)
        _, logs = window_arrays(rng, table_1e6)
        rep = moment_integral("Sk", 2, (0.0, 1.0), rng, table_1e6)
        assert rep.value == pytest.approx(math.fsum(logs**2), rel=0.005)


def test_integrals_refuse_before_evaluating(table_1e6, no_grid_values):
    # grids of more than MAX_TRAPEZOID_POINTS nodes, and a bound that
    # does not exist
    cap = str(expsums.MAX_TRAPEZOID_POINTS)
    calls = [
        (cap, lambda: moment_integral("S1", 2, (-3000.0, 3000.0),
                                      SumRange(1, 0.1, 1000.0), table_1e6)),
        (cap, lambda: exp_sum_gap_l2(0.5, SumRange(2, 0.1, 1e7), table_1e6)),
        # non-integer k: [lo, hi] is one trapezoid
        (cap, lambda: kernel_moment(2, 1.0, 0.0, 5000.0, 0.5,
                                    SumRange(2.5, 0.1, 1000.0), table_1e6)),
        # integer k: a small head, but a one-period sample over the cap
        (cap, lambda: kernel_moment(2, 1.0, 1.99, 10.0, 0.5,
                                    SumRange(2, 0.1, 1e7), table_1e6)),
        ("specific to k = 3", lambda: moment_integral(
            "Sk", 8, (0.0, 1.0), SumRange(2, 0.1, 1e6), table_1e6)),
    ]
    for message, call in calls:
        with pytest.raises(DomainError, match=message):
            call()


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
                         "X", "k", "eta"}
    assert blob["exponent"] == 2 and blob["eta"] is None
    assert blob["ratio"] == pytest.approx(blob["value"] / blob["bound"])


def test_kernel_moment_tail_paths_agree(table_1e6):
    # periodic tail shortcut (integer k) against direct gridding on a
    # nearby non-integer k plus itself at a forced non-periodic call
    rng = SumRange(2.0, 0.1, 500.0)
    eta = 0.2
    rep = kernel_moment(2, 1.0, 0.01, 30.0, eta, rng, table_1e6)
    rng_frac = SumRange(2.0 + 1e-9, 0.1, 500.0)
    rep_frac = kernel_moment(2, 1.0, 0.01, 30.0, eta, rng_frac, table_1e6)
    assert rep.value == pytest.approx(rep_frac.value, rel=0.02)
