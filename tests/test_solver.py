import itertools
import json
import math
from fractions import Fraction
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from dhlab import expsums, solver
from dhlab.arcs import choose_parameters
from dhlab.errors import DomainError
from dhlab.harness import (INTERMEDIATE, ExperimentConfig,
                           run_theorem_experiment)
from dhlab.precision import dd_from_mpf, pow_mp, two_prod
from dhlab.primes import SumRange, primes_in_range, sieve, window_arrays
from dhlab.solver import (BOUNDARY_BAND, Lattice, ProblemInstance,
                          Solutions, _certify, _dd_residuals,
                          _rounds_alike, duality_tail_bound,
                          enumerate_solutions, level_sums, main_term_scan,
                          solution_integral, weighted_count)

INST = ProblemInstance(1.0, 1.0, -1.0, 2.0, 0.0, delta=0.01, epsilon=0.01)


def brute_force_solutions(instance, X, eta, table):
    """Exhaustive ordered-triple oracle with 50-digit residuals.

    Returns one (triple, residual, weight, boundary) per admitted triple."""
    lin = primes_in_range(instance.linear_range(X), table)
    pw = primes_in_range(instance.power_range(X), table)
    l1, l2, l3 = (mp.mpf(l) for l in instance.lambdas)
    om = mp.mpf(instance.omega)
    eta_mp = mp.mpf(eta)
    out = []
    for p3, lg3 in pw:
        l3p = l3 * mp.power(p3, instance.k)
        for p1, lg1 in lin:
            for p2, lg2 in lin:
                res = abs(mp.fsum((l1 * p1, l2 * p2, l3p, -om)))
                if res <= eta:
                    out.append(((p1, p2, p3), float(res), lg1 * lg2 * lg3,
                                abs(res - eta_mp) <= BOUNDARY_BAND * eta_mp))
    return out


def _by_output_order(items):
    # library emits records sorted by (p3, p1, p2)
    return sorted(items, key=lambda it: (it[0][2], it[0][0], it[0][1]))


def test_enumeration_matches_brute_force(table_1e6):
    sols = enumerate_solutions(INST, 100.0, 0.5, table_1e6)
    brute = brute_force_solutions(INST, 100.0, 0.5, table_1e6)
    assert [s.triple for s in sols] == [t for t, *_ in _by_output_order(brute)]
    assert [s.triple for s in sols] == [
        (2, 2, 2), (2, 7, 3), (7, 2, 3), (2, 23, 5), (23, 2, 5),
        (2, 47, 7), (47, 2, 7),
    ]
    assert all(s.residual == 0.0 for s in sols)
    assert not any(s.boundary for s in sols)


def test_enumeration_brute_force_random_instances(table_1e6):
    rng = np.random.default_rng(31)
    for _ in range(6):
        inst = ProblemInstance(
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1),
            -float(rng.uniform(0.5, 2.0)),
            float(rng.choice([1.5, 2.0, 2.5])),
            float(rng.uniform(-5.0, 5.0)),
            delta=0.05,
        )
        eta = float(rng.uniform(0.05, 0.8))
        sols = enumerate_solutions(inst, 60.0, eta, table_1e6)
        brute = _by_output_order(brute_force_solutions(inst, 60.0, eta, table_1e6))
        assert [s.triple for s in sols] == [t for t, *_ in brute]
        for s, (_, res, w, _) in zip(sols, brute):
            assert s.residual == pytest.approx(res, abs=1e-14)
            assert s.weight == pytest.approx(w, rel=1e-12)


def test_enumeration_empty_below_min_residual(table_1e6):
    brute = brute_force_solutions(INST, 40.0, 10.0, table_1e6)
    nonzero = [r for _, r, *_ in brute if r > 0]
    eta = 0.9 * min(nonzero)
    inst = ProblemInstance(1.0, 1.0, -1.0, 2.0, 0.25, delta=0.01)
    # shift omega so zero residuals are impossible, then pick eta below min
    brute = brute_force_solutions(inst, 40.0, 10.0, table_1e6)
    eta = 0.9 * min(r for _, r, *_ in brute)
    assert len(enumerate_solutions(inst, 40.0, eta, table_1e6)) == 0


def test_enumeration_swap_symmetry(table_1e6):
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0, delta=0.01)
    swapped = ProblemInstance(math.sqrt(2.0), 1.0, -1.0, 2.0, 0.0, delta=0.01)
    a = enumerate_solutions(inst, 150.0, 0.3, table_1e6)
    b = enumerate_solutions(swapped, 150.0, 0.3, table_1e6)
    assert sorted((s.p2, s.p1, s.p3) for s in a) == sorted(s.triple for s in b)


def test_count_monotone_in_eta(table_1e6):
    triples = {}
    for eta in (0.1, 0.2, 0.4, 0.8):
        triples[eta] = {s.triple for s in
                        enumerate_solutions(INST, 200.0, eta, table_1e6)}
    assert triples[0.1] <= triples[0.2] <= triples[0.4] <= triples[0.8]


def test_weighted_count_value(table_1e6):
    sols = enumerate_solutions(INST, 100.0, 0.5, table_1e6)
    w = weighted_count(sols, 0.5)
    # oracle recomputation: all residuals zero, so 0.5 * sum of weights
    expect = 0.5 * math.fsum(s.weight for s in sols)
    assert w == pytest.approx(expect, rel=1e-15)
    assert w == pytest.approx(10.34, abs=0.01)
    assert weighted_count(Solutions.empty(), 0.5) == 0.0
    # eta doubling doubles each term on a zero-residual set
    assert weighted_count(sols, 1.0) == pytest.approx(2 * w, rel=1e-14)


def test_solution_integral_hermitian(table_1e6):
    val = solution_integral(INST, 100.0, 0.5, (-40.0, 40.0), table_1e6)
    assert abs(val.imag) <= 1e-6 * max(abs(val.real), 1.0)


def test_duality_two_windows(table_1e6):
    # the central correctness identity at B = 10/eta and 50/eta
    eta = 0.5
    sols = enumerate_solutions(INST, 100.0, eta, table_1e6)
    w = weighted_count(sols, eta)
    for B in (10.0 / eta, 50.0 / eta):
        val = solution_integral(INST, 100.0, eta, (-B, B), table_1e6)
        tail = duality_tail_bound(INST, 100.0, B, table_1e6)
        assert abs(val.real - w) <= tail
        assert abs(val.real - w) <= 0.02 * w + tail


def test_solution_integral_refuses_over_cap_grid(table_1e6, no_grid_values):
    B = 1e7  # 2 B * 64 X nodes
    with pytest.raises(DomainError, match=str(expsums.MAX_TRAPEZOID_POINTS)):
        solution_integral(INST, 100.0, 0.5, (-B, B), table_1e6)


def test_eta_refused_before_any_work(table_1e6, no_grid_values):
    # eta = 0 still enumerates exact solutions; the detector needs eta > 0
    for eta in (math.nan, -1.0, math.inf):
        with pytest.raises(DomainError, match="eta must be"):
            enumerate_solutions(INST, 100.0, eta, table_1e6)
    # level_sums refuses every bad level, not only the top one, and no level
    for etas in ([1.0, math.nan], [1.0, -0.5], [math.inf], [math.nan, 1.0]):
        with pytest.raises(DomainError, match="eta must be"):
            level_sums(INST, 1728.0, etas, table_1e6)
    with pytest.raises(DomainError, match="at least one eta"):
        level_sums(INST, 1728.0, [], table_1e6)
    # a finite level whose W could pass float64, before the enumeration
    # is even set up
    def refuse(*args):
        raise AssertionError("enumeration set up")
    with mock.patch.object(solver, "Enumeration", refuse):
        for etas in ([0.5, 1e306], [1e308]):
            with pytest.raises(DomainError, match="past float64"):
                level_sums(INST, 1728.0, etas, table_1e6)
    for eta in (math.nan, -1.0, math.inf, 0.0):
        with pytest.raises(DomainError, match="eta must be"):
            solution_integral(INST, 100.0, eta, (-10.0, 10.0), table_1e6,
                              whole_line=True)
    with pytest.raises(DomainError, match="finite lo < hi"):
        solution_integral(INST, 100.0, 0.5, (-math.nan, math.nan), table_1e6,
                          whole_line=True)


def test_main_term_scan(table_1e6):
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    rows = main_term_scan(inst, [500.0, 1000.0, 2000.0], table_1e6)
    assert all(r.ratio > 0 for r in rows)
    assert not any(r.degenerate for r in rows)
    ratios = [r.ratio for r in rows]
    assert max(ratios) / min(ratios) < 10.0  # bounded below across the sweep


def test_main_term_scan_flags_same_sign(table_1e6):
    inst = ProblemInstance(1.0, 1.0, 1.0, 2.0, -1.0)
    rows = main_term_scan(inst, [500.0], table_1e6)
    assert rows[0].degenerate
    assert len(enumerate_solutions(inst, 500.0, 0.25, table_1e6)) == 0


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(0.0, 1.0, -1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        ProblemInstance(1.0, 1.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ProblemInstance(1.0, 1.0, -1.0, 3.5, 0.0)
    # non-finite coefficients and omega are refused by name
    for i, name in zip((0, 1, 2, 4), ("lambda1", "lambda2", "lambda3", "omega")):
        for bad in (math.nan, math.inf, -math.inf):
            args = [1.0, 1.0, -1.0, 2.0, 0.0]
            args[i] = bad
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                ProblemInstance(*args)
    assert ProblemInstance(1.0, 1.0, 1.0, 2.0, 0.0).same_sign


def test_boundary_band_flag(table_1e6):
    # place eta exactly on a residual: |2 + 2 - 4 - omega| with omega = 0.1
    inst = ProblemInstance(1.0, 1.0, -1.0, 2.0, 0.1, delta=0.01)
    sols = enumerate_solutions(inst, 30.0, 0.1, table_1e6)
    hits = [s for s in sols if s.triple == (2, 2, 2)]
    assert len(hits) == 1
    assert hits[0].boundary  # residual == eta within the guard band
    # every candidate of this instance is a tie on eta whose double-double
    # residual is exact, so the fast path decides all, as the oracle does
    assert sols.exact_fallbacks == 0 and sols.candidates >= 1
    brute = _by_output_order(brute_force_solutions(inst, 30.0, 0.1, table_1e6))
    assert [(r.triple, r.residual, r.boundary) for r in sols] == [
        (t, res, b) for t, res, _, b in brute]


def test_cancelling_residual_matches_plain_50_digit_sum(table_1e6):
    # 0.5 p1 - 0.5 p2 - 0.5 p3^2 vanishes on (7, 3, 2), (11, 2, 3), ...,
    # leaving |omega| = 3.57e-49; the fallback's single rounding of the
    # 50-digit sum must store exactly that residual, as the oracle does
    inst = ProblemInstance(0.5, -0.5, -0.5, 2.0, -3.572413501195576e-49,
                           delta=0.05)
    brute = _by_output_order(brute_force_solutions(inst, 20.0, 1e-40, table_1e6))
    sols = enumerate_solutions(inst, 20.0, 1e-40, table_1e6)
    assert len(brute) >= 3
    assert [(s.triple, s.residual) for s in sols] == [(t, r) for t, r, *_ in brute]
    assert all(s.residual == abs(inst.omega) for s in sols)


_COEF = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                  st.floats(0.25, 3.0))
_OMEGA = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.1, 0.25, 2.0]),
                   st.floats(-5.0, 5.0))


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
       coefs=st.tuples(_COEF, _COEF, _COEF),
       signs=st.tuples(st.booleans(), st.booleans()),
       omega=_OMEGA, X=st.floats(20.0, 80.0), pick=st.integers(0, 10**6))
def test_enumeration_matches_brute_force_property(table_1e6, k, coefs, signs,
                                                  omega, X, pick):
    # l3 has the sign opposite to l1; l2 takes either sign
    l1, l2, l3 = coefs
    inst = ProblemInstance(l1, l2 if signs[0] else -l2, -l3, k,
                           omega if signs[1] else -omega, delta=0.05)
    wide = brute_force_solutions(inst, X, 3.0, table_1e6)
    etas = [3.0]
    if wide:
        # eta exactly on an attainable residual, and one ulp either side
        r = wide[pick % len(wide)][1]
        etas = [r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)]
    for eta in etas:
        sols = enumerate_solutions(inst, X, float(eta), table_1e6)
        brute = _by_output_order(brute_force_solutions(inst, X, eta, table_1e6))
        assert [s.triple for s in sols] == [t for t, *_ in brute]
        for s, (_, res, w, boundary) in zip(sols, brute):
            assert s.residual == res
            assert s.weight == w
            assert s.boundary == boundary


@pytest.mark.parametrize("omega", [0.0, -0.43423172578768765])
def test_fast_path_decides_theorem_instance(table_1e6, omega):
    # the default experiment instance, and the theorem benchmark's seed-0
    # omega, at the largest scale of the default cube sequence (70^3)
    cfg = ExperimentConfig()
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, omega)
    X = 343000.0
    eta = choose_parameters(inst, X).eta * 2.0 ** max(cfg.eta_grid)
    sols = enumerate_solutions(inst, X, eta, table_1e6)
    assert len(sols) > 40000
    assert sols.candidates >= len(sols)
    assert sols.exact_fallbacks <= 0.01 * sols.candidates


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
       lambdas=st.tuples(st.floats(0.1, 10.0), st.floats(-10.0, 10.0),
                         st.floats(-10.0, -0.1)),
       omega=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_dd_residual_error_bound(table_1e6, k, lambdas, omega, seed):
    # the certified bound and the stored rounding hold against the 50-digit
    # residual on arbitrary (not only admitted) triples, up to p ~ 1e6
    l1, l2, l3 = lambdas
    if l2 == 0.0:
        return
    rng = np.random.default_rng(seed)
    primes = table_1e6.primes
    p1 = rng.choice(primes, 40)
    p2 = rng.choice(primes, 40)
    p3 = int(rng.choice(primes[:170]))
    a1, a1_lo = two_prod(l1, p1.astype(np.float64))
    a2, a2_lo = two_prod(l2, p2.astype(np.float64))
    base = mp.mpf(l3) * pow_mp(p3, k) - mp.mpf(omega)
    mag = (abs(l1) + abs(l2)) * float(primes[-1])
    split = dd_from_mpf(base)
    exact_base = float(k).is_integer() and (
        sum(map(Fraction, split))
        == Fraction(l3) * p3 ** int(k) - Fraction(omega))
    r_hi, err, rounded = _dd_residuals(a1, a1_lo, a2, a2_lo, split, mag,
                                       exact_base)
    assert np.all(err <= 1e-15 * (np.abs(r_hi) + 1.0) + 1e-20 * mag)
    for q1, q2, h, e, r in zip(p1.tolist(), p2.tolist(), r_hi, err, rounded):
        exact = (mp.mpf(l1) * q1 + base) + mp.mpf(l2) * q2
        assert abs(exact - mp.mpf(h)) <= e
        if r:
            assert abs(h) == float(abs(exact))


def _critical_points(r_hi, eta):
    """Where one of the three decisions flips near r_hi, in 50 digits."""
    eta_mp = mp.mpf(eta)
    band = mp.mpf(BOUNDARY_BAND) * eta_mp
    x = abs(r_hi)
    below = mp.mpf(x) - (mp.mpf(x) - mp.mpf(np.nextafter(x, 0.0))) / 2
    above = mp.mpf(x) + (mp.mpf(np.nextafter(x, np.inf)) - mp.mpf(x)) / 2
    pts = [eta_mp, eta_mp - band, below, above]
    return pts + [-q for q in pts]


@pytest.mark.parametrize("eta", [0.6469860558497588, 1.0, 0.1, 3.0, 0.75,
                                 1e-3 * math.pi])
def test_certified_decisions_are_exact(eta):
    # every decision taken on |R - r_hi| <= err must hold for each such R,
    # in particular on the points where a decision flips; r_hi runs over a
    # few ulps around eta, the band edge, an interior value and a power of
    # two, and err over fixed scales and the distances to each flip point
    cases = []
    for x0 in (eta, eta - BOUNDARY_BAND * eta, 0.37 * eta,
               2.0 ** math.floor(math.log2(eta))):
        for ulps in range(-3, 4):
            x = x0
            for _ in range(abs(ulps)):
                x = np.nextafter(x, np.inf if ulps > 0 else 0.0)
            for r_hi in (x, -x):
                critical = _critical_points(r_hi, eta)
                errs = [s * eta for s in (0.0, 2.0**-90, 2.0**-60, 2.0**-54,
                                          2.0**-53, 2.0**-52, 2.0**-46)]
                errs += [float(abs(q - mp.mpf(r_hi)) * (1 + 2.0**-20))
                         for q in critical]
                cases += [(r_hi, err, critical) for err in errs]
    band_hi, band_lo = two_prod(BOUNDARY_BAND, eta)
    r_hi = np.array([c[0] for c in cases])
    err = np.array([c[1] for c in cases])
    admit, boundary, decided = _certify(r_hi, err, _rounds_alike(r_hi, err),
                                        eta, band_hi, band_lo)
    assert decided.any() and not decided.all()
    # err == 0 says R == r_hi: every such nonzero residual is decided, the
    # ties |R| == eta among them too
    assert decided[(err == 0) & (r_hi != 0)].all()
    assert admit[(err == 0) & (np.abs(r_hi) == eta)].all()
    eta_mp = mp.mpf(eta)
    band = mp.mpf(BOUNDARY_BAND) * eta_mp
    for (r_hi, err, critical), a, b, d in zip(cases, admit, boundary, decided):
        if not d:
            continue
        points = [mp.mpf(r_hi) + t * mp.mpf(err) for t in (-1, -0.5, 0, 0.5, 1)]
        points += [q for q in critical if abs(q - mp.mpf(r_hi)) <= err]
        for exact in points:
            res = abs(exact)
            assert a == (res <= eta_mp)
            if a:
                assert b == (abs(res - eta_mp) <= band)
                assert abs(r_hi) == float(res)


@pytest.mark.parametrize("lambdas, omega, X, eta", [
    ((1.0, 1.0, -1.0), 0.0, 1e4, 3.0), ((-2.0, 0.5, 1.0), -1.0, 3e4, 1.5)])
def test_ties_on_eta_decided_on_the_fast_path(table_1e6, lambdas, omega, X,
                                              eta):
    # residuals on a lattice of 2^-1: a third of the candidates lie exactly
    # on eta, where the double-double residual is exact and decides them
    inst = ProblemInstance(*lambdas, 2.0, omega)
    sols = enumerate_solutions(inst, X, eta, table_1e6)
    ties = sols.residual == eta
    assert sols.exact_fallbacks == 0 and ties.sum() > 1500
    assert sols.boundary[ties].all() and not sols.boundary[~ties].any()
    # the same records as the 50-digit oracle, on a window it can afford
    small = enumerate_solutions(inst, 300.0, eta, table_1e6)
    brute = _by_output_order(brute_force_solutions(inst, 300.0, eta, table_1e6))
    assert small.exact_fallbacks == 0 and len(small) == len(brute) > 20
    assert [(r.triple, r.residual, r.boundary) for r in small] == [
        (t, res, b) for t, res, _, b in brute]


@settings(max_examples=200, deadline=None)
@given(l1=st.floats(0.1, 10.0), l2=st.floats(0.05, 10.0),
       signs=st.tuples(st.booleans(), st.booleans()),
       width=st.floats(0.0, 3.0), X=st.floats(3.0, 3000.0),
       delta=st.one_of(st.floats(0.0005, 0.01), st.floats(0.01, 0.9)),
       picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                                st.floats(-4.0, 4.0)), min_size=1, max_size=3),
       block=st.sampled_from([3, 50, 1 << 15]))
def test_lattice_matches_searchsorted(table_1e6, l1, l2, signs, width, X,
                                      delta, picks, block):
    # both signs; |l2| from 0.05 to 10 and eta up to 3 |l2|, so intervals
    # of up to 7 integers; windows down to [1, 3], which hold the even
    # prime 2; targets near attained values, on the window edges (where the
    # float test's rounding decides), off every value, and probes whose
    # interval misses the window
    l1 = l1 if signs[0] else -l1
    l2 = l2 if signs[1] else -l2
    p1s, _ = window_arrays(SumRange(1.0, delta, X), table_1e6)
    if len(p1s) == 0:
        return
    ps = p1s.astype(np.float64)
    a1, a2 = two_prod(l1, ps)[0], two_prod(l2, ps)[0]
    lo_shift = width * abs(l2) + 1e-12
    ts = []
    for a, b, off in picks:
        v = a1[a % len(ps)] + a2[b % len(ps)]
        ts += [v + off * abs(l2), v - lo_shift, v + lo_shift]
    _assert_lattice_is_searchsorted(p1s, l1, a1, a2, l2, lo_shift, ts, block)


def _assert_lattice_is_searchsorted(p1s, l1, a1, a2, l2, lo_shift, ts,
                                    block):
    # oracle: np.searchsorted over the sorted l2 p2, each window's p2 in
    # ascending order
    lattice = Lattice(p1s, l1, l2, lo_shift, max(map(abs, ts)))
    order = np.argsort(a2, kind="stable")
    sorted2 = a2[order]
    for t in ts:
        rel = t - a1
        lo = np.searchsorted(sorted2, rel - lo_shift, side="left")
        hi = np.searchsorted(sorted2, rel + lo_shift, side="right")
        want_i = np.repeat(np.arange(len(p1s)), hi - lo)
        start = np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)
        want_j = order[start + np.arange(len(want_i))]
        want_j = want_j[np.lexsort((want_j, want_i))]
        got = [lattice.candidates(t, b0, min(b0 + block, len(p1s)))
               for b0 in range(0, len(p1s), block)]
        assert np.array_equal(np.concatenate([g[0] for g in got]), want_i)
        assert np.array_equal(np.concatenate([g[1] for g in got]), want_j)


def test_lattice_interval_wider_than_the_table(table_1e6):
    # |l2| = 1e-3 at eta = 1: each interval is 2000 integers wide, more
    # than the table of the window [53, 97], which is then read whole
    p1s, _ = window_arrays(SumRange(1.0, 0.5, 100.0), table_1e6)
    ps = p1s.astype(np.float64)
    for l2 in (1e-3, -1e-3):
        a1, a2 = two_prod(1.5, ps)[0], two_prod(l2, ps)[0]
        lattice = Lattice(p1s, 1.5, l2, 1.0, 200.0)
        # nd is capped at the table's odd integers, not its padded words
        assert lattice.nd == len(lattice.slot) < 8 * len(lattice.words)
        ts = [a1[3] + a2[5], a1[0] + 0.9, a1[-1] - 0.95, a1[7] + 1.0 + a2[-1]]
        _assert_lattice_is_searchsorted(p1s, 1.5, a1, a2, l2, 1.0, ts, 5)
    # a finite l2 whose integer line overflows float64 is refused, not
    # misread
    for l2 in (1e-310, -1e-310):
        inst = ProblemInstance(1.0, l2, -1.0, 2.0, 0.0)
        with pytest.raises(DomainError, match="too small to probe"):
            enumerate_solutions(inst, 100.0, 1.0, table_1e6)


def test_lattice_probe_table_is_one_byte_per_odd_integer(table_1e6):
    # a 0/1 byte per odd integer and an int32 rank per 8 of them: at most
    # 1.5 bytes per odd integer together (the int32 slot table took 4)
    p1s, _ = window_arrays(SumRange(1.0, 0.1, 1e6), table_1e6)
    odd = (int(p1s[-1]) - int(p1s[0])) // 2
    tracemalloc.start()
    try:
        lattice = Lattice(p1s, 1.0, math.sqrt(2.0), 1.0, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lattice.slot.dtype == bool and lattice.rank.dtype == np.int32
    assert lattice.words.nbytes + lattice.rank.nbytes <= 1.5 * odd + 64
    # besides the table and rank, c1 and the int64 slot of each prime
    assert peak < 1.5 * odd + 16 * len(p1s) + 4096


def test_enumeration_memory_is_under_bytes_per_window_integer(table_1e6):
    # the set-up holds the Lattice and the rows, no product arrays of the
    # window: at most 1.5 bytes per integer of the linear window, and 3.0
    # at its peak (the int32 slot table and four double-double products
    # held 5.1)
    X = 1e6
    p1s, _ = window_arrays(INST.linear_range(X), table_1e6)
    span = int(p1s[-1] - p1s[0])
    tracemalloc.start()
    try:
        enum = solver.Enumeration(INST, X, 1.0, table_1e6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert enum.rows
    assert held <= 1.5 * span
    assert peak <= 3.0 * span


def test_tie_rounding_needs_exact_low_sums():
    # l1 p1 = 1 + 2^-52 and base 2, with 2^-110 more in l2 p2 or in the
    # base: the low parts sum to 2^-52 in float64, a tie that two_sum
    # rounds down to 3, but the exact residual lies above the midpoint and
    # rounds up.  Without the 2^-110 the tie is exact, and two_sum's
    # rounding half to even is float(R)
    one = np.array([1.0])
    tiny = 2.0**-110
    for a2_lo, b_lo in ((tiny, 0.0), (0.0, tiny), (0.0, 0.0)):
        r_hi, err, rounded = _dd_residuals(
            one, one * 2.0**-52, 0.0 * one, a2_lo * one, (2.0, b_lo), 4.0,
            exact_base=True)
        R = mp.fsum((1, mp.mpf(2)**-52, mp.mpf(a2_lo), 2, mp.mpf(b_lo)))
        exact = a2_lo == b_lo
        assert rounded[0] == exact
        assert (r_hi[0] == float(R)) == exact


@pytest.mark.parametrize("omega, eta", [(0.3, 0.9), (0.0, 3.14)])
def test_exact_ties_decided_on_the_fast_path(table_1e6, omega, eta):
    # (1, fl(sqrt 2), -1): the residuals are multiples of 2^-54, odd ones
    # among them at omega = 0, so many lie exactly half an ulp from two
    # floats (in [0.5, 1) and in [2, 4)).  The double-double pair is then
    # the exact residual and rounds half to even, as float(R) does
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, omega)
    sols = enumerate_solutions(inst, 343000.0, eta, table_1e6)
    assert sols.candidates > 45000
    assert sols.exact_fallbacks <= 1e-4 * sols.candidates
    l1, l2, l3 = (mp.mpf(l) for l in inst.lambdas)
    ties = 0
    for n in range(0, len(sols), 97):
        p1, p2, p3 = (int(c[n]) for c in (sols.p1, sols.p2, sols.p3))
        exact = abs(mp.fsum((l1 * p1, l2 * p2, l3 * p3**2, -mp.mpf(omega))))
        r = sols.residual[n]
        ties += exact - mp.mpf(r) in (mp.mpf(np.spacing(r)) / 2,
                                      -mp.mpf(np.spacing(r)) / 2)
        assert r == float(exact)
    assert ties > 50


def _level_oracle(full, etas):
    """Per-level counts and W, the smallest residual and its first triple,
    read off a whole enumeration."""
    counts = [int(np.count_nonzero(full.residual <= e)) for e in etas]
    weighted = [weighted_count(full, e) for e in etas]
    if not len(full):
        return counts, weighted, None, None
    b = int(np.argmin(full.residual))
    return (counts, weighted, float(full.residual[b]),
            (int(full.p1[b]), int(full.p2[b]), int(full.p3[b])))


def _assert_levels_match(inst, X, etas, table, chunk, block, shares):
    full = enumerate_solutions(inst, X, max(etas), table)
    counts, weighted, min_res, sample = _level_oracle(full, etas)
    with mock.patch.object(solver, "CHUNK_RECORDS", chunk), \
            mock.patch.object(solver, "PROBE_BLOCK", block), \
            mock.patch.object(expsums, "CPUS", shares):
        got = level_sums(inst, X, etas, table)
        blocked = enumerate_solutions(inst, X, max(etas), table)
    assert got.counts == tuple(counts)
    assert [repr(w) for w in got.weighted] == [repr(w) for w in weighted]
    assert got.min_residual == min_res
    assert got.sample == sample
    # probing in smaller blocks changes no column, count or fallback
    for name in ("p1", "p2", "p3", "residual", "weight", "boundary"):
        a, b = getattr(full, name), getattr(blocked, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (blocked.candidates, blocked.exact_fallbacks) == (
        full.candidates, full.exact_fallbacks)
    return full


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
       coefs=st.tuples(_COEF, _COEF, _COEF),
       signs=st.tuples(st.booleans(), st.booleans()),
       X=st.floats(40.0, 300.0), triple=st.tuples(*[st.integers(0, 10**6)] * 3),
       offset=st.floats(-0.5, 0.5),
       etas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
       chunk=st.integers(1, 7), block=st.integers(1, 7),
       shares=st.integers(1, 4))
def test_level_sums_match_enumeration(table_1e6, k, coefs, signs, X, triple,
                                      offset, etas, chunk, block, shares):
    # l1 and l2 of either sign (l3 opposite to l1), omega near the value of
    # one triple of the windows, chunk and probe blocks of 1 to 7, and 1 to
    # 4 shares, threads whatever the CPUs of the host
    l1 = coefs[0] if signs[0] else -coefs[0]
    l2 = coefs[1] if signs[1] else -coefs[1]
    l3 = -math.copysign(coefs[2], l1)
    base = ProblemInstance(l1, l2, l3, k, 0.0, delta=0.05)
    lin = [p for p, _ in primes_in_range(base.linear_range(X), table_1e6)]
    pw = [p for p, _ in primes_in_range(base.power_range(X), table_1e6)]
    if not lin or not pw:
        return
    q1, q2, q3 = (lin[triple[0] % len(lin)], lin[triple[1] % len(lin)],
                  pw[triple[2] % len(pw)])
    omega = l1 * q1 + l2 * q2 + l3 * float(q3) ** k + offset
    inst = ProblemInstance(l1, l2, l3, k, omega, delta=0.05)
    _assert_levels_match(inst, X, etas, table_1e6, chunk, block, shares)


def test_level_sums_first_of_tied_minima(table_1e6):
    # 1, 1, -1 at omega = 0: many triples have residual exactly 0, under
    # several p3, so the sample is the first of a tie, whatever the chunks
    # and however the p3 rows fall to the shares
    for chunk, shares in itertools.product(range(1, 8), range(1, 5)):
        full = _assert_levels_match(INST, 200.0, [0.0, 0.5, 1.5], table_1e6,
                                    chunk, chunk, shares)
        assert len(np.unique(full.p3[full.residual == 0.0])) > 1
    assert level_sums(INST, 200.0, [0.25, 0.5], table_1e6).sample == (2, 2, 2)
    # no solution at all
    none = level_sums(ProblemInstance(1.0, 1.0, 1.0, 2.0, -1.0), 500.0,
                      [0.25], table_1e6)
    assert none.counts == (0,) and none.weighted == (0.0,)
    assert none.min_residual is None and none.sample is None


def test_level_sums_shares_under_fast_thread_switching(table_1e6):
    # more shares than cores, the interpreter switching threads every
    # microsecond: the merge still gives the bits of one share
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.3)
    etas = (0.05, 0.5, 2.0)
    with mock.patch.object(expsums, "CPUS", 1):
        one = level_sums(inst, 3e4, etas, table_1e6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(expsums, "CPUS", 6), \
                mock.patch.object(solver, "CHUNK_RECORDS", 64):
            many = level_sums(inst, 3e4, etas, table_1e6)
    finally:
        sys.setswitchinterval(interval)
    assert one.counts[-1] > 1000
    assert many == one


def test_level_sums_raises_what_a_share_thread_raised(table_1e6):
    # an error off the calling thread reaches the caller, after every
    # share has ended
    real = solver.fixed_sum

    def fail_off_main(values):
        if threading.current_thread() is not threading.main_thread():
            raise DomainError("share failed")
        return real(values)

    before = threading.active_count()
    with mock.patch.object(expsums, "CPUS", 3), \
            mock.patch.object(solver, "fixed_sum", fail_off_main):
        with pytest.raises(DomainError, match="share failed"):
            level_sums(INST, 1728.0, [0.5, 1.5], table_1e6)
    assert threading.active_count() == before


def test_theorem_memory_does_not_grow_with_records():
    # raising the eta grid 4x admits about 4x the records at X = 70^3; the
    # theorem holds at most a chunk of them (here 2048), so its traced peak
    # stays that of the prime windows
    table = sieve(343001)
    peaks, counts = [], []
    with mock.patch.object(solver, "CHUNK_RECORDS", 2048):
        for grid in ((0,), (2,)):
            cfg = ExperimentConfig(eta_grid=grid, duality_max_x=0.0)
            tracemalloc.start()
            try:
                rep = run_theorem_experiment(cfg, table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            counts.append(rep.rows[-1].count)
    assert counts[1] > 3.5 * counts[0] > 70000
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=3)))
def test_enumeration_matches_brute_force_every_sign(table_1e6, signs):
    # every sign pattern of (l1, l2, l3), with omega placed near the value
    # of one triple so that each pattern has solutions
    l1, l2, l3 = (s * c for s, c in zip(signs, (1.25, math.sqrt(0.5), 0.8)))
    omega = l1 * 43 + l2 * 31 + l3 * 5**2 + 0.1
    inst = ProblemInstance(l1, l2, l3, 2.0, omega, delta=0.05)
    for eta in (0.3, 1.7):
        sols = enumerate_solutions(inst, 60.0, eta, table_1e6)
        brute = _by_output_order(brute_force_solutions(inst, 60.0, eta,
                                                       table_1e6))
        assert len(brute) >= 1
        assert [(s.triple, s.residual, s.weight, s.boundary) for s in sols] == [
            (t, r, w, b) for t, r, w, b in brute]


def test_enumeration_one_prime_window(table_1e6, tmp_path):
    # delta = 0.8 at X = 30 leaves p1 = p2 = 29 and p3 = 5 alone, so the
    # slot table holds one prime between two empty slots
    for omega, want in ((0.0, []), (33.0, [(29, 29, 5)])):
        inst = ProblemInstance(1.0, 1.0, -1.0, 2.0, omega, delta=0.8)
        sols = enumerate_solutions(inst, 30.0, 0.5, table_1e6)
        assert [s.triple for s in sols] == want
    res = subprocess.run(
        [sys.executable, "-m", "dhlab.cli", "--out", str(tmp_path), "solve",
         "--lambdas", "1,1,-1", "--k", "2", "--X", "30", "--delta", "0.8",
         "--eta", "0.5"], cwd=tmp_path, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["count"] == 0


def _detector_trapezoids(inst, X, eta, B, n, omegas, table):
    """Trapezoid sums with n panels over [-B, B] of the detector integrand,
    one per omega, built here from the grid values of its three factors."""
    h = 2.0 * B / n
    lin = inst.linear_range(X)
    ensembles = [expsums.sum_freqs("prime", lin, table, scale=inst.lambda1),
                 expsums.sum_freqs("prime", lin, table, scale=inst.lambda2),
                 expsums.sum_freqs("prime", inst.power_range(X), table,
                                   scale=inst.lambda3)]
    gens = [expsums.iter_grid_values(*e, -B, h, n + 1) for e in ensembles]
    acc = np.zeros(len(omegas), dtype=complex)
    for blocks in zip(*gens):
        start = blocks[0][0]
        s1, s2, s3 = (b for _, b in blocks)
        j = start + np.arange(len(s1))
        a = -B + j * h
        g = s1 * s2 * s3 * expsums.fejer_kernel(a, eta)
        g *= np.where((j == 0) | (j == n), 0.5 * h, h)
        for m, om in enumerate(omegas):
            acc[m] += np.sum(g * np.exp(-2j * np.pi * om * a))
    return acc


@pytest.mark.parametrize("X", [125.0, 1728.0])
def test_duality_integral_nyquist_step(table_1e6, X):
    # the theorem's instance and duality row (eta at t*2^0, B = 10/eta)
    omegas = (0.0, -0.43423172578768765, 3.7)
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    eta = choose_parameters(inst, X).eta
    B = 10.0 / eta
    new = [solution_integral(ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0,
                                             om), X, eta, (-B, B), table_1e6,
                             whole_line=True) for om in omegas]
    # against the previous rule, 64x oversampling of X max|l|
    n64 = math.ceil(2.0 * B * 64.0 * X * math.sqrt(2.0))
    old = _detector_trapezoids(inst, X, eta, B, n64, omegas, table_1e6)
    for a, b in zip(new, old):
        assert abs(a.real - b.real) <= 1e-9 * abs(b.real)
    # the band is tight: at half the Nyquist rate the value aliases
    lin = [p for p, _ in primes_in_range(inst.linear_range(X), table_1e6)]
    pw = [p for p, _ in primes_in_range(inst.power_range(X), table_1e6)]
    for om, a in zip(omegas, new):
        band = max(lin) * (1.0 + math.sqrt(2.0)) + max(pw) ** 2 + abs(om) + eta
        half = _detector_trapezoids(inst, X, eta, B,
                                    math.ceil(B * band), [om], table_1e6)[0]
        assert abs(half.real - a.real) > 0.1 * abs(a.real)


def test_arc_integrals_keep_their_step(table_1e6):
    # the major and intermediate arcs are finite, so Poisson summation does
    # not cover them: both keep 64x oversampling, and so these values
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    rows = main_term_scan(inst, [500.0, 1000.0, 2000.0], table_1e6)
    assert [r.major_integral for r in rows] == [
        316.08099866637014 + 7.402077136169061e-13j,
        1417.0888681734377 - 3.309296314326527e-13j,
        3359.5977302845927 - 3.290485470671035e-12j]
    # (at X = 8000 the 868-term grid takes the Gaussian gridding path, so
    # its last bits follow that evaluator's summation order)
    cfg = ExperimentConfig(instance=ProblemInstance(1.0, math.sqrt(2.0), -1.0,
                                                    3.0, 0.0))
    assert [INTERMEDIATE.row(cfg, table_1e6, X)["value"]
            for X in (1000.0, 8000.0)] == [0.8548055793364058, 14.390660992127943]
