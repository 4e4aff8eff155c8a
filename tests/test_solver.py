import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from dhlab.arcs import choose_parameters
from dhlab.errors import GridStepError
from dhlab.harness import ExperimentConfig
from dhlab.precision import two_prod
from dhlab.primes import primes_in_range
from dhlab.solver import (BOUNDARY_BAND, ProblemInstance, Solutions, _certify,
                          _dd_residuals, _p3_power_mp, duality_tail_bound,
                          enumerate_solutions, main_term_scan,
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
        base = l3 * mp.power(p3, instance.k) - om
        for p1, lg1 in lin:
            for p2, lg2 in lin:
                res = abs(l1 * p1 + l2 * p2 + base)
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


def test_solution_integral_step_refusal(table_1e6):
    with pytest.raises(GridStepError):
        solution_integral(INST, 100.0, 0.5, (-1.0, 1.0), table_1e6, step=1e-3)


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
    assert ProblemInstance(1.0, 1.0, 1.0, 2.0, 0.0).same_sign


def test_boundary_band_flag(table_1e6):
    # place eta exactly on a residual: |2 + 2 - 4 - omega| with omega = 0.1
    inst = ProblemInstance(1.0, 1.0, -1.0, 2.0, 0.1, delta=0.01)
    sols = enumerate_solutions(inst, 30.0, 0.1, table_1e6)
    hits = [s for s in sols if s.triple == (2, 2, 2)]
    assert len(hits) == 1
    assert hits[0].boundary  # residual == eta within the guard band
    # every candidate of this instance is a tie, so the fallback decides all
    assert sols.exact_fallbacks == sols.candidates >= 1


def test_cancelling_residual_matches_plain_50_digit_sum(table_1e6):
    # 0.5 p1 - 0.5 p2 - 0.5 p3^2 vanishes on (7, 3, 2), (11, 2, 3), ...,
    # leaving |omega| = 3.57e-49; the fallback must round that residual as
    # the plain 50-digit sum of the oracle does
    inst = ProblemInstance(0.5, -0.5, -0.5, 2.0, -3.572413501195576e-49,
                           delta=0.05)
    brute = _by_output_order(brute_force_solutions(inst, 20.0, 1e-40, table_1e6))
    sols = enumerate_solutions(inst, 20.0, 1e-40, table_1e6)
    assert len(brute) >= 3
    assert [(s.triple, s.residual) for s in sols] == [(t, r) for t, r, *_ in brute]


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
    # the certified bound holds against the 50-digit residual on arbitrary
    # (not only admitted) triples, up to p ~ 1e6
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
    base = mp.mpf(l3) * _p3_power_mp(p3, k) - mp.mpf(omega)
    mag = (abs(l1) + abs(l2)) * float(primes[-1])
    r_hi, err = _dd_residuals(a1, a1_lo, a2, a2_lo, base, mag)
    assert np.all(err <= 1e-15 * (np.abs(r_hi) + 1.0) + 1e-20 * mag)
    for q1, q2, h, e in zip(p1.tolist(), p2.tolist(), r_hi, err):
        exact = (mp.mpf(l1) * q1 + base) + mp.mpf(l2) * q2
        assert abs(exact - mp.mpf(h)) <= e


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
    admit, boundary, decided = _certify(np.array([c[0] for c in cases]),
                                        np.array([c[1] for c in cases]),
                                        eta, band_hi, band_lo)
    assert decided.any() and not decided.all()
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
