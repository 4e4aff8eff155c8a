"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every expected value is either computed by an in-test oracle or asserted
against exact arithmetic; tolerances are fixed here, not tuned elsewhere.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from mpmath import mp

from dhlab.arcs import competitor_exponent, eta_exponent
from dhlab.diophantine import convergents, find_rational_witness, legendre_check
from dhlab.expsums import eval_grid, prime_exp_sum
from dhlab.harness import (ExperimentConfig, run_lemma_suite,
                           run_theorem_experiment)
from dhlab.norms import count_quadruples, moment_integral
from dhlab.primes import SumRange, sieve, window_arrays
from dhlab.solver import (ProblemInstance, duality_tail_bound,
                          enumerate_solutions, solution_integral,
                          weighted_count)


def _verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}", flush=True)
    assert ok, f"criterion {num}: {text}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_duality_identity(table_1e6):
    t0 = time.perf_counter()
    inst = ProblemInstance(1.0, 1.0, -1.0, 2.0, 0.0, delta=0.01, epsilon=0.01)
    eta, X, B = 0.5, 100.0, 100.0

    # brute-force oracle: exhaustive ordered triples in 50-digit arithmetic
    from dhlab.primes import primes_in_range
    lin = primes_in_range(inst.linear_range(X), table_1e6)
    pw = primes_in_range(inst.power_range(X), table_1e6)
    oracle = []
    for p3, lg3 in pw:
        for p1, lg1 in lin:
            for p2, lg2 in lin:
                res = abs(mp.mpf(p1) + p2 - mp.mpf(p3) ** 2)
                if res <= eta:
                    oracle.append(((p1, p2, p3), float(res), lg1 * lg2 * lg3))
    oracle.sort(key=lambda it: (it[0][2], it[0][0], it[0][1]))

    sols = enumerate_solutions(inst, X, eta, table_1e6)
    same = [s.triple for s in sols] == [t for t, _, _ in oracle]
    expected = [(2, 2, 2), (2, 7, 3), (7, 2, 3), (2, 23, 5), (23, 2, 5),
                (2, 47, 7), (47, 2, 7)]
    same = same and [s.triple for s in sols] == expected

    w = weighted_count(sols, eta)
    w_oracle = math.fsum(wt * max(0.0, eta - r) for _, r, wt in oracle)
    w_ok = abs(w - w_oracle) < 1e-9 and abs(w - 10.34) <= 0.01

    val = solution_integral(inst, X, eta, (-B, B), table_1e6)
    tail = duality_tail_bound(inst, X, B, table_1e6)
    d_ok = abs(val.real - w) <= 0.02 * w + tail
    elapsed = time.perf_counter() - t0
    _verdict(1, same and w_ok and d_ok and elapsed < 10.0,
             f"7 ordered triples exact, weighted {w:.4f} (oracle {w_oracle:.4f}), "
             f"|I-W| = {abs(val.real - w):.4f} <= 2% + {tail:.1f}, {elapsed:.1f}s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_quadruple_counter():
    t0 = time.perf_counter()
    ok = count_quadruples(2, 2.0, 0.5) == 6
    ok = ok and count_quadruples(2, 2.0, 8.0) == 14

    def oracle(N, k, gamma):
        ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
        if float(k).is_integer():
            v = ns ** int(k)
        else:
            v = np.array([float(mp.power(int(n), mp.mpf(k))) for n in ns])
        sums = (v[:, None] + v[None, :]).ravel()
        return int(np.count_nonzero(np.abs(sums[:, None] - sums[None, :]) < gamma))

    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(50):
        N = int(rng.integers(2, 51))
        k = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        gamma = float(rng.uniform(0.01, (2 * N) ** k / 4))
        if count_quadruples(N, k, gamma) != oracle(N, k, gamma):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, ok and mismatches == 0 and elapsed < 30.0,
             f"hand counts 6/14 exact, 50 random cases vs exhaustive oracle "
             f"({mismatches} mismatches), {elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_orthogonality(table_1e6):
    t0 = time.perf_counter()
    worst = 0.0
    for k in (1.0, 2.0, 3.0):
        for X in (1e3, 1e4):
            rng = SumRange(k, 0.25, X)
            _, logs = window_arrays(rng, table_1e6)
            rep = moment_integral("Sk", 2, (0.0, 1.0), rng, table_1e6)
            expect = math.fsum(logs**2)
            worst = max(worst, abs(rep.value - expect) / expect)
    elapsed = time.perf_counter() - t0
    _verdict(3, worst < 0.005 and elapsed < 60.0,
             f"six (k, X) pairs, worst deviation {worst:.2e} < 0.5%, {elapsed:.1f}s")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_eighth_moment_scaling(table_1e6):
    xs = (500.0, 1000.0, 2000.0, 4000.0)
    ratios = []
    for X in xs:
        rng = SumRange(3.0, 0.1, X)
        rep = moment_integral("Sk", 8, (0.0, 1.0), rng, table_1e6)
        ratios.append(rep.value / X ** (5.0 / 3.0))
    growth = (ratios[-1] / ratios[0]) ** (1.0 / (len(xs) - 1))

    # exact-integer oracle at X = 500: weighted count of equal four-cube sums
    rng = SumRange(3.0, 0.1, 500.0)
    ps, logs = window_arrays(rng, table_1e6)
    acc = {}
    from itertools import product
    for tup in product(range(len(ps)), repeat=4):
        s = sum(int(ps[i]) ** 3 for i in tup)
        w = math.prod(float(logs[i]) for i in tup)
        acc[s] = acc.get(s, 0.0) + w
    oracle = math.fsum(v * v for v in acc.values())
    rep500 = moment_integral("Sk", 8, (0.0, 1.0), rng, table_1e6)
    o_ok = abs(rep500.value - oracle) / oracle < 0.01
    _verdict(4, growth <= 2**0.25 and o_ok,
             f"per-doubling growth {growth:.3f} <= 2^0.25, X=500 integral "
             f"{rep500.value:.1f} vs oracle {oracle:.1f}")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_exponent_table():
    exact = (eta_exponent(1.1) == 4 / 33 and eta_exponent(2.0) == 1 / 12
             and eta_exponent(2.5) == 1 / 30 and eta_exponent(3.0) == 1 / 24)
    ks = np.arange(1.001, 4.0 / 3.0, 0.001)
    dominates = all(
        eta_exponent(round(float(k), 3)) > competitor_exponent(round(float(k), 3))
        for k in ks
    )
    _verdict(5, exact and dominates,
             "branch values 4/33, 1/12, 1/30, 1/24 exact; dominates the "
             f"earlier exponent on a dense grid ({len(ks)} points)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_continued_fractions():
    cs = [(c.a, c.q) for c in convergents(math.sqrt(2.0), 6)]
    cf_ok = cs == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]

    rng = np.random.default_rng(66)
    counterexamples = 0
    hits = 0
    for _ in range(10**4):
        x = float(rng.uniform(0.0, 1.0))
        q = int(rng.integers(1, 1000))
        a = round(q * x)
        g = math.gcd(a, q) if a else q
        if g:
            a, q = a // g, q // g
        if q >= 1 and legendre_check(a, q, x):
            hits += 1
            if (a, q) not in [(c.a, c.q) for c in convergents(x, 40)]:
                counterexamples += 1

    dirichlet_fail = 0
    for _ in range(10**3):
        xi = float(rng.uniform(-100.0, 100.0))
        Q = float(rng.uniform(1.0, 10**4))
        w = find_rational_witness(xi, Q)
        if w.residual > 1.0 / Q + 1e-15 or w.q > Q:
            dirichlet_fail += 1
    _verdict(6, cf_ok and counterexamples == 0 and dirichlet_fail == 0,
             f"sqrt(2) expansion exact; best-approximation membership "
             f"{hits} hits / 0 counterexamples; witness residual <= 1/Q in "
             f"1000/1000 trials")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_desk_scale_existence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(cap=343001.0)
    rep = run_theorem_experiment(cfg)
    X = 343000.0
    ceiling = X ** (-1.0 / 12.0 + 0.1)
    found = rep.min_eta.get(X)
    ok = found is not None and found <= ceiling

    # re-verify the reported solution at 60-digit precision
    sample_rows = [r for r in rep.rows if r.X == X and r.count > 0]
    reverified = False
    if sample_rows:
        r = min(sample_rows, key=lambda row: row.eta)
        p1, p2, p3 = r.sample
        with mp.workdps(60):
            res = abs(mp.mpf(1) * p1 + mp.sqrt(2) * p2 - mp.mpf(p3) ** 2)
        reverified = float(res) <= r.eta + 1e-12
    elapsed = time.perf_counter() - t0
    _verdict(7, ok and reverified and elapsed < 60.0,
             f"solution found at eta {found if found else float('nan'):.4g} <= "
             f"{ceiling:.4g}, 60-digit recheck ok, {elapsed:.1f}s")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_bound_suite():
    report = run_lemma_suite(ExperimentConfig())
    ratio_checks = ("gap_l2", "quadruple_count", "fourth_moment",
                    "second_moment", "rational_point_sum", "small_alpha_sum",
                    "weighted_second_moment", "weighted_fourth_moment")
    by_check = {}
    for row in report.rows:
        by_check.setdefault(row.check, []).append(row)
    ratio_ok = all(
        all(r.status == "PASS" for r in by_check[name]) for name in ratio_checks
    )
    envelope_ok = all(r.status == "PASS" for r in by_check["selberg_envelope"])
    measure_ok = all(r.status == "PASS" for r in by_check["large_values_measure"])
    _verdict(8, ratio_ok and envelope_ok and measure_ok and
             report.coverage_complete,
             f"8 ratio checks bounded across doublings, envelope trend "
             f"nonincreasing, sampler self-consistent; "
             f"{len(report.rows)} rows, coverage complete")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_grid_throughput(table_1e5):
    rng = SumRange(1.0, 1e-9, 1e5)
    n_primes = len(window_arrays(rng, table_1e5)[0])
    assert n_primes == 9592  # pi(1e5)
    t0 = time.perf_counter()
    g = eval_grid("prime", rng, table_1e5, alpha0=0.0, step=1e-6, count=10**6)
    elapsed = time.perf_counter() - t0

    picks = np.random.default_rng(99).integers(0, 10**6, size=100)
    worst = 0.0
    for j in picks:
        ah, al = g.alpha_dd(int(j))
        direct = prime_exp_sum(ah, rng, table_1e5, alpha_lo=al)
        worst = max(worst, abs(g.values[j] - direct) / max(abs(direct), 1.0))
    _verdict(9, elapsed <= 60.0 and worst < 1e-9,
             f"1e6-point grid over {n_primes} primes in {elapsed:.1f}s "
             f"(single-threaded), max spot deviation {worst:.2e} < 1e-9")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        x_values=(1000.0, 2000.0), hua_x=(500.0, 1000.0),
        envelope_x=(1e4, 2e4), cap=30000.0, measure_samples=4000,
        witness_trials=16, seed=17,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json()))
    blobs = {"lemmas": [], "theorem": []}
    for command, outfile in (("lemmas", "lemmas.csv"), ("theorem", "theorem.csv")):
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}"
            res = subprocess.run(
                [sys.executable, "-m", "dhlab.cli", "--config", str(cfg_path),
                 "--out", str(out), "--seed", "17", command],
                capture_output=True, text=True,
            )
            assert res.returncode == 0, res.stderr
            blobs[command].append((out / outfile).read_bytes())
    same = (blobs["lemmas"][0] == blobs["lemmas"][1]
            and blobs["theorem"][0] == blobs["theorem"][1])
    _verdict(10, same, "two seeded runs of lemmas and theorem are "
             "byte-identical CSVs")
