import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhlab.diophantine import (convergents, cube_sequence,
                               find_rational_witness, legendre_check,
                               vaughan_ratio)
from dhlab.errors import DomainError
from dhlab.primes import SumRange

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_sqrt2_classical_expansion():
    exp = convergents(SQRT2, 6)
    assert [(c.a, c.q) for c in exp] == [(1, 1), (3, 2), (7, 5), (17, 12),
                                         (41, 29), (99, 70)]
    assert not exp.exact


def test_golden_ratio_fibonacci():
    exp = convergents(GOLDEN, 5)
    assert [(c.a, c.q) for c in exp] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_convergent_quality():
    # every convergent satisfies |q x - a| < 1/q
    for x in (SQRT2, GOLDEN, math.pi, 0.123456789):
        for c in convergents(x, 12):
            assert abs(c.q * x - c.a) < 1.0 / c.q + 1e-15


def test_convergents_coprime_and_increasing():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-10, 10, size=50):
        exp = convergents(float(x), 20)
        qs = [c.q for c in exp]
        assert all(math.gcd(c.a, c.q) == 1 for c in exp)
        assert all(b >= a for a, b in zip(qs, qs[1:]))  # q1 may repeat q0 = 1
        res = [c.residual for c in exp]
        assert all(b < a or a == 0.0 for a, b in zip(res, res[1:]))


def test_convergents_rational_exact():
    exp = convergents(0.75, 10)
    assert exp.exact and not exp.truncated
    assert (exp.convergents[-1].a, exp.convergents[-1].q) == (3, 4)


def test_convergents_noise_truncation():
    exp = convergents(SQRT2, 40)
    assert exp.truncated
    assert exp.convergents[-1].q < 10**9  # cut near the double noise floor


def test_convergents_depth_validation():
    with pytest.raises(DomainError):
        convergents(SQRT2, 0)
    with pytest.raises(DomainError):
        convergents(SQRT2, 41)


def test_legendre_hand_cases():
    assert legendre_check(7, 5, SQRT2)   # |5 sqrt2 - 7| = 0.0711 < 0.1
    assert legendre_check(3, 2, SQRT2)   # 0.1716 < 0.25
    assert not legendre_check(4, 3, SQRT2)  # 0.2426 > 1/6
    with pytest.raises(DomainError):
        legendre_check(4, 2, SQRT2)


def test_legendre_implies_convergent():
    # zero counterexamples over 1e4 random trials
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(10**4):
        x = float(rng.uniform(0.0, 1.0))
        q = int(rng.integers(1, 1000))
        a = round(q * x)
        g = math.gcd(a, q) if a else q
        a, q = (a // g, q // g) if g else (a, q)
        if q < 1:
            continue
        if legendre_check(a, q, x):
            checked += 1
            cs = [(c.a, c.q) for c in convergents(x, 40)]
            assert (a, q) in cs, f"{a}/{q} passed the test but is not a convergent of {x}"
    assert checked > 500  # the trial scheme hits plenty of true cases


def test_witness_examples():
    w = find_rational_witness(0.41, 10.0)
    assert (w.a, w.q) == (2, 5)
    assert w.residual == pytest.approx(0.05, abs=1e-12)
    assert w.meets_dirichlet
    w = find_rational_witness(7.0, 100.0)
    assert (w.a, w.q, w.residual) == (7, 1, 0.0)
    w = find_rational_witness(SQRT2, 12.0)
    assert (w.a, w.q) in ((17, 12), (7, 5))
    assert w.residual <= 1.0 / 12.0
    # Q = inf takes the deepest convergent; a NaN or sub-1 Q is refused
    deepest = list(convergents(SQRT2, 40))[-1]
    w = find_rational_witness(SQRT2, math.inf)
    assert (w.a, w.q) == (deepest.a, deepest.q)
    for Q in (math.nan, 0.5, -math.inf):
        with pytest.raises(DomainError, match="Q must be >= 1"):
            find_rational_witness(SQRT2, Q)


@st.composite
def _witness_inputs(draw):
    kind = draw(st.sampled_from(["float", "rational", "half"]))
    if kind == "float":
        x = draw(st.floats(-50.0, 50.0))
    elif kind == "rational":
        x = draw(st.integers(-2000, 2000)) / draw(st.integers(1, 60))
    else:
        x = draw(st.integers(-50, 50)) + 0.5
    Q = draw(st.one_of(st.integers(1, 200).map(float), st.floats(1.0, 200.0)))
    return x, Q


@settings(max_examples=300, deadline=None)
@given(_witness_inputs())
def test_witness_is_best_approximation(inputs):
    # exact brute force over every q <= Q; ties go to the smaller q, then a
    x, Q = inputs
    fx = Fraction(x)
    best = min((abs(q * fx - a), q, a)
               for q in range(1, math.floor(Q) + 1)
               for a in (math.floor(q * fx), math.floor(q * fx) + 1))
    w = find_rational_witness(x, Q)
    assert (w.a, w.q, w.residual) == (best[2], best[1], float(best[0]))


def test_witness_dirichlet_guarantee():
    # residual <= 1/Q over 1e3 random (value, Q) pairs
    rng = np.random.default_rng(23)
    for _ in range(10**3):
        xi = float(rng.uniform(-100.0, 100.0))
        Q = float(rng.uniform(1.0, 10**4))
        w = find_rational_witness(xi, Q)
        assert w.q <= Q
        assert w.residual <= 1.0 / Q + 1e-15
        assert w.meets_dirichlet


def test_cube_sequence_sqrt2():
    seq, rational = cube_sequence(SQRT2, 1.0, 10**6)
    assert seq == [(1, 1), (2, 8), (5, 125), (12, 1728), (29, 24389),
                   (70, 343000)]
    assert not rational
    qs = [q for q, _ in seq]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_cube_sequence_orientation_normalized():
    # ratio below one is inverted, so (1, sqrt2) matches (sqrt2, 1)
    a, _ = cube_sequence(1.0, SQRT2, 10**6)
    b, _ = cube_sequence(SQRT2, 1.0, 10**6)
    assert a == b


def test_cube_sequence_edge_cases():
    seq, _ = cube_sequence(SQRT2, 1.0, 0.5)
    assert seq == []
    _, rational = cube_sequence(2.0, 1.0, 10**6)
    assert rational
    with pytest.raises(DomainError):
        cube_sequence(0.0, 1.0, 100.0)


def test_vaughan_ratio_rational_point(table_1e6):
    rng = SumRange(2.0, 0.1, 1000.0)
    r = vaughan_ratio(1.0 / 3.0, 1, 3, rng, table_1e6)
    assert 0 < r < 1.0


def test_vaughan_ratio_sweep_stable(table_1e6):
    ratios = []
    for X in (1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0, 64000.0):
        ratios.append(vaughan_ratio(1.0 / 3.0, 1, 3, SumRange(2.0, 0.1, X),
                                    table_1e6))
    # no growth beyond 2x across the doubling sweep
    assert all(b <= 2.0 * a for a, b in zip(ratios, ratios[1:]))


def test_vaughan_ratio_near_integer(table_1e6):
    rng = SumRange(2.0, 0.1, 1000.0)
    r = vaughan_ratio(1.0 + 1e-9, 1, 1, rng, table_1e6)
    assert 0 < r < 1.0  # |S_1| near S_1(0), trivial-bound regime


def test_small_alpha_bound_two_scales(table_1e6):
    # |S_1(alpha)| <= C sqrt(X / alpha) log^4 X on [1/X, X^(-3/5)] with one
    # C across X = 1e4 and 1e5
    from dhlab.expsums import prime_exp_sum
    cs = []
    for X in (1e4, 1e5):
        rng = SumRange(1.0, 0.1, X)
        for a in np.geomspace(1.0 / X, X ** (-0.6), 12):
            mag = abs(prime_exp_sum(float(a), rng, table_1e6))
            cs.append(mag / (X**0.5 * a**-0.5 * math.log(X) ** 4))
    assert max(cs) < 0.5


def test_expansion_csv_export(tmp_path):
    exp = convergents(SQRT2, 6)
    path = tmp_path / "cf.csv"
    exp.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,a,q,residual"
    assert len(lines) == 7
    assert lines[3].startswith("2,7,5,")


def test_vaughan_ratio_preconditions(table_1e6):
    rng = SumRange(2.0, 0.1, 1000.0)
    with pytest.raises(DomainError):
        vaughan_ratio(0.5, 2, 4, rng, table_1e6)  # not reduced
    with pytest.raises(DomainError):
        vaughan_ratio(0.9, 1, 3, rng, table_1e6)  # too far from 1/3
