"""The benchmark's workloads: seeded inputs, the timed body, and the checks.

Every workload is a pure function of its seed.  The program receives only
what `inputs` draws (the lemmas config seed, the theorem `omega`, the
spectrum grid offsets and spot-check indices); everything else is fixed
here.  `body` is the timed region, from inputs ready through artifacts
written.  `check` runs after it, untimed, and returns the problems found per
operation, plus any diagnostics it measured.  An operation fails if it
raised or if its output disagrees with an oracle (at the acceptance suite's
tolerances) or with the exact values reference.json records for the seed.
`exact` extracts those exact values.

Functions of the program are looked up as module attributes at call time,
so the span wrappers of layers.py see every call.
"""

from __future__ import annotations

import math
from itertools import product
from pathlib import Path

import numpy as np
from mpmath import mp

from dhlab import diophantine, expsums, harness, norms, primes
from dhlab.primes import SumRange

SPOT_TOL = 1e-9          # criterion 9: grid value against prime_exp_sum
ORTHO_TOL = 0.005        # criterion 3: second moment against fsum(log^2 p)
EIGHTH_TOL = 0.01        # criterion 4: eighth moment against the exact oracle

# -- lemmas ------------------------------------------------------------------
# The default bound suite, through the same harness calls as `dhlab lemmas`.


def lemmas_inputs(seed: int) -> dict:
    return {"config": harness.ExperimentConfig.from_dict({}, seed=seed)}


def lemmas_table_limit(inp: dict) -> int:
    """Largest prime any check of the suite reads, from the float window
    edges: the power windows, the cube windows, the shifted Selberg windows
    of the envelope check and of the gap check (h = 1/(2 gap_y))."""
    cfg = inp["config"]
    k = cfg.instance.k
    delta = cfg.instance.delta
    edges = [cfg.instance.linear_range(x).hi for x in cfg.x_values]
    edges += [SumRange(3.0, delta, x).hi for x in cfg.hua_x]
    ek = cfg.envelope_k
    for x in cfg.envelope_x:
        h = x ** (1.0 - 5.0 / (6.0 * ek) + 0.05)
        edges.append((2.0 * x + h) ** (1.0 / ek))
    for x in cfg.x_values:
        edges.append((2.0 * x + 1.0 / (2.0 * cfg.gap_y)) ** (1.0 / k))
    return math.ceil(max(edges)) + 1


def lemmas_operations(inp: dict) -> list[str]:
    return list(harness.CHECKS)


def lemmas_body(inp: dict, table, out: Path):
    cfg = inp["config"]
    report = harness.run_lemma_suite(cfg, table)
    harness.write_suite_csv(out / "lemmas.csv", report)
    harness.write_summary(out / "summary.json",
                          harness.summary_dict(cfg, suite=report))
    return report


def lemmas_exact(inp: dict, table, report) -> dict:
    quads = {repr(r.X): int(r.value) for r in report.rows
             if r.check == "quadruple_count" and r.status == "PASS"}
    return {"primes": len(table), "quadruple_count": quads}


def lemmas_check(inp: dict, table, report, ref: dict | None) -> tuple[dict, dict]:
    verdicts = {}
    for name in harness.CHECKS:
        rows = [r for r in report.rows if r.check == name]
        problems = []
        if not rows:
            problems.append("no rows (coverage incomplete)")
        for r in rows:
            if r.status == "FAIL":
                problems.append(f"FAIL at X={r.X:g}: {r.note}")
            elif r.status == "SKIP" and r.X == 0.0:
                problems.append(f"raised: {r.note}")
        verdicts[name] = problems
    if ref is not None:
        got = lemmas_exact(inp, table, report)
        if got["primes"] != ref["primes"]:
            verdicts["gap_l2"].append(
                f"sieve count {got['primes']} != reference {ref['primes']}")
        if got["quadruple_count"] != ref["quadruple_count"]:
            verdicts["quadruple_count"].append(
                f"counts {got['quadruple_count']} != reference "
                f"{ref['quadruple_count']}")
    return verdicts, {}


# -- theorem -----------------------------------------------------------------
# The cube-sequence experiment for (1, sqrt 2, -1), k = 2, up to X = 169^3.

THEOREM_CAP = 4.9e6
OMEGA_RANGE = (-1.0, 6.0)


def theorem_inputs(seed: int) -> dict:
    omega = float(np.random.default_rng([seed, 2]).uniform(*OMEGA_RANGE))
    instance = {"lambda1": 1.0, "lambda2": math.sqrt(2.0), "lambda3": -1.0,
                "k": 2.0, "omega": omega}
    cfg = harness.ExperimentConfig.from_dict({"instance": instance,
                                              "cap": THEOREM_CAP})
    return {"config": cfg, "omega": omega}


def theorem_scales(inp: dict) -> list[tuple[int, int]]:
    inst = inp["config"].instance
    seq, _rational = diophantine.cube_sequence(inst.lambda1, inst.lambda2,
                                               inp["config"].cap)
    return seq


def theorem_table_limit(inp: dict) -> int:
    """The largest linear window edge of the sequence (X itself)."""
    inst = inp["config"].instance
    return max(math.ceil(inst.linear_range(float(x)).hi)
               for _q, x in theorem_scales(inp))


def theorem_operations(inp: dict) -> list[str]:
    return [f"X={x}" for _q, x in theorem_scales(inp)]


def theorem_body(inp: dict, table, out: Path):
    cfg = inp["config"]
    report = harness.run_theorem_experiment(cfg, table)
    harness.write_theorem_csv(out / "theorem.csv", report)
    harness.write_summary(out / "summary.json",
                          harness.summary_dict(cfg, theorem=report))
    return report


def theorem_exact(inp: dict, table, report) -> dict:
    return {
        "primes": len(table),
        "omega": repr(inp["omega"]),
        "rows": [[repr(r.X), r.eta_kind, r.count,
                  list(r.sample) if r.sample else None] for r in report.rows],
        "min_eta": {repr(x): repr(e) for x, e in sorted(report.min_eta.items())},
    }


def theorem_check(inp: dict, table, report, ref: dict | None) -> tuple[dict, dict]:
    inst = inp["config"].instance
    verdicts = {op: [] for op in theorem_operations(inp)}
    for r in report.rows:
        problems = verdicts.setdefault(f"X={int(r.X)}", [])
        if r.status == "FAIL":
            problems.append(f"{r.eta_kind}: {r.note}")
        if r.eta_kind == "t*2^0" and r.duality_gap is not None and r.status != "PASS":
            problems.append("duality row not PASS")
        if r.sample is not None:
            # the reported triple must satisfy the inequality at 60 digits
            p1, p2, p3 = r.sample
            with mp.workdps(60):
                res = abs(mp.mpf(inst.lambda1) * p1 + mp.mpf(inst.lambda2) * p2
                          + mp.mpf(inst.lambda3) * mp.mpf(p3) ** int(inst.k)
                          - mp.mpf(inst.omega))
                if res > mp.mpf(r.eta):
                    problems.append(f"{r.eta_kind}: sample {r.sample} residual "
                                    f"{float(res):.3e} > eta {r.eta:.3e}")
    if ref is not None:
        got = theorem_exact(inp, table, report)
        if got["omega"] != ref["omega"] or got["primes"] != ref["primes"]:
            for problems in verdicts.values():
                problems.append("inputs or sieve count differ from reference")
        want_rows = {(x, kind): (count, sample)
                     for x, kind, count, sample in ref["rows"]}
        for x, kind, count, sample in got["rows"]:
            want = want_rows.get((x, kind))
            if want != (count, sample):
                verdicts[f"X={int(float(x))}"].append(
                    f"{kind}: count/sample {count}/{sample} != reference {want}")
        if len(got["rows"]) != len(ref["rows"]):
            verdicts[next(iter(verdicts))].append("row count differs from reference")
        for x in set(got["min_eta"]) | set(ref["min_eta"]):
            if got["min_eta"].get(x) != ref["min_eta"].get(x):
                verdicts[f"X={int(float(x))}"].append(
                    f"min_eta {got['min_eta'].get(x)} != reference "
                    f"{ref['min_eta'].get(x)}")
    return verdicts, {}


# -- spectrum ----------------------------------------------------------------
# Uniform grids and trapezoid moments: the criterion-9 grid, the criterion-3
# second moments, the criterion-4 eighth moments of cubes, and one grid with
# non-integer k = 2.5 over the same 9592 primes (no integer-frequency
# shortcut applies to it).  The 1e6-row grid CSV is not written: its Python
# formatting would outweigh the evaluator.

GRID_K1 = SumRange(1.0, 1e-9, 1e5)
GRID_K1_STEP, GRID_K1_COUNT = 1e-6, 10**6
GRID_K25 = SumRange(2.5, 1e-13, 1e5**2.5)
GRID_K25_STEP, GRID_K25_COUNT = 1e-6, 1 << 18
SECOND = [SumRange(k, 0.25, x) for k in (1.0, 2.0, 3.0) for x in (1e3, 1e4)]
EIGHTH = [SumRange(3.0, 0.1, x) for x in (500.0, 1000.0, 2000.0, 4000.0)]
SPOTS = 100


def _grid_op(rng: SumRange) -> str:
    return f"grid_k{rng.k:g}"


def _moment_op(p: int, rng: SumRange) -> str:
    return f"moment{p}_k{rng.k:g}_X{rng.X:g}"


def spectrum_inputs(seed: int) -> dict:
    gen = np.random.default_rng([seed, 3])
    return {
        "alpha0_k1": float(gen.uniform(0.0, 1.0)),
        "alpha0_k25": float(gen.uniform(0.0, 1.0)),
        "spots_k1": gen.integers(0, GRID_K1_COUNT, size=SPOTS),
        "spots_k25": gen.integers(0, GRID_K25_COUNT, size=SPOTS),
    }


def spectrum_table_limit(inp: dict) -> int:
    return max(math.ceil(r.hi) for r in [GRID_K1, GRID_K25, *SECOND, *EIGHTH])


def spectrum_operations(inp: dict) -> list[str]:
    return ([_grid_op(GRID_K1)] + [_moment_op(2, r) for r in SECOND]
            + [_moment_op(8, r) for r in EIGHTH] + [_grid_op(GRID_K25)])


def spectrum_body(inp: dict, table, out: Path):
    results = {}

    def run(op, fn):
        try:
            results[op] = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            results[op] = exc

    run(_grid_op(GRID_K1), lambda: expsums.eval_grid(
        "prime", GRID_K1, table, alpha0=inp["alpha0_k1"], step=GRID_K1_STEP,
        count=GRID_K1_COUNT))
    for rng in SECOND:
        run(_moment_op(2, rng), lambda: norms.moment_integral(
            "Sk", 2, (0.0, 1.0), rng, table))
    for rng in EIGHTH:
        run(_moment_op(8, rng), lambda: norms.moment_integral(
            "Sk", 8, (0.0, 1.0), rng, table))
    run(_grid_op(GRID_K25), lambda: expsums.eval_grid(
        "prime", GRID_K25, table, alpha0=inp["alpha0_k25"], step=GRID_K25_STEP,
        count=GRID_K25_COUNT))

    summary = {}
    for op, res in results.items():
        if isinstance(res, Exception):
            summary[op] = {"error": repr(res)}
        elif isinstance(res, norms.MomentReport):
            summary[op] = res.to_json()
        else:
            peak = int(np.argmax(np.abs(res.values)))
            summary[op] = {"alpha0": res.alpha0, "step": res.step,
                           "count": res.count, "argmax": peak,
                           "max_abs": float(abs(res.values[peak]))}
    harness.write_summary(out / "spectrum.json", summary)
    return results


def _terms(rng: SumRange, table) -> int:
    return len(primes.window_arrays(rng, table)[0])


def spectrum_exact(inp: dict, table, results) -> dict:
    windows = {_grid_op(GRID_K1): GRID_K1, _grid_op(GRID_K25): GRID_K25}
    windows.update({_moment_op(2, r): r for r in SECOND})
    windows.update({_moment_op(8, r): r for r in EIGHTH})
    return {"primes": len(table),
            "terms": {op: _terms(rng, table) for op, rng in windows.items()}}


def _eighth_oracle(rng: SumRange, table) -> float:
    """Weighted count of equal sums of four cubes (exact integer keys)."""
    ps, logs = primes.window_arrays(rng, table)
    acc: dict[int, float] = {}
    for tup in product(range(len(ps)), repeat=4):
        s = sum(int(ps[i]) ** 3 for i in tup)
        acc[s] = acc.get(s, 0.0) + math.prod(float(logs[i]) for i in tup)
    return math.fsum(v * v for v in acc.values())


def spot_deviation(grid, rng: SumRange, table, picks) -> float:
    """Largest |grid value - prime_exp_sum at the grid's exact abscissa|,
    relative to max(|direct|, 1), over the picked indices."""
    worst = 0.0
    for j in picks:
        ah, al = grid.alpha_dd(int(j))
        direct = expsums.prime_exp_sum(ah, rng, table, alpha_lo=al)
        worst = max(worst, abs(grid.values[j] - direct) / max(abs(direct), 1.0))
    return worst


def spectrum_check(inp: dict, table, results, ref: dict | None) -> tuple[dict, dict]:
    verdicts = {op: [] for op in spectrum_operations(inp)}
    for op, res in results.items():
        if isinstance(res, Exception):
            verdicts[op].append(f"raised {res!r}")
    max_dev = 0.0
    for rng, key in ((GRID_K1, "spots_k1"), (GRID_K25, "spots_k25")):
        op = _grid_op(rng)
        if verdicts[op]:
            continue
        dev = spot_deviation(results[op], rng, table, inp[key])
        max_dev = max(max_dev, dev)
        if not dev < SPOT_TOL:
            verdicts[op].append(f"spot deviation {dev:.3e} >= {SPOT_TOL:g}")
    for rng in SECOND:
        op = _moment_op(2, rng)
        if verdicts[op]:
            continue
        expect = math.fsum(primes.window_arrays(rng, table)[1] ** 2)
        dev = abs(results[op].value - expect) / expect
        if not dev < ORTHO_TOL:
            verdicts[op].append(f"orthogonality deviation {dev:.3e}")
    for rng in EIGHTH:
        op = _moment_op(8, rng)
        if verdicts[op]:
            continue
        oracle = _eighth_oracle(rng, table)
        dev = abs(results[op].value - oracle) / oracle
        if not dev < EIGHTH_TOL:
            verdicts[op].append(f"eighth-moment deviation {dev:.3e}")
    if ref is not None:
        got = spectrum_exact(inp, table, results)
        if got["primes"] != ref["primes"]:
            verdicts[_grid_op(GRID_K1)].append(
                f"sieve count {got['primes']} != reference {ref['primes']}")
        for op, n in got["terms"].items():
            if n != ref["terms"].get(op):
                verdicts[op].append(f"{n} terms != reference {ref['terms'].get(op)}")
    return verdicts, {"max_spot_dev": max_dev}


WORKLOADS = {
    "lemmas": (lemmas_inputs, lemmas_table_limit, lemmas_operations,
               lemmas_body, lemmas_check, lemmas_exact),
    "theorem": (theorem_inputs, theorem_table_limit, theorem_operations,
                theorem_body, theorem_check, theorem_exact),
    "spectrum": (spectrum_inputs, spectrum_table_limit, spectrum_operations,
                 spectrum_body, spectrum_check, spectrum_exact),
}
