"""Experiment orchestration: the bound suite, measure sampling, scaling runs.

Every experiment is driven by an ExperimentConfig and a seed, and writes
CSV rows plus a JSON summary through deterministic formatters: two runs
with the same config and seed are byte-identical.

The bound suite evaluates one named check per supporting operation, each
over its scale sweep, and reports value / bound ratios.  A ratio row passes
when it stays bounded across doublings: growth between consecutive scales
at most X^0.1 (the same epsilon-slack the bounds themselves carry).  The
envelope and sampler checks carry their own pass rules (nonincreasing
trend, cross-seed agreement).
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .arcs import choose_parameters
from .diophantine import cube_sequence, find_rational_witness, vaughan_ratio
from .errors import DhlabError
from .expsums import eval_points, sum_freqs
from .norms import (count_quadruples, exp_sum_gap_l2, kernel_moment,
                    moment_integral, selberg_integral)
from .primes import PrimeTable, SumRange, sieve, window_arrays
from .solver import (ProblemInstance, duality_tail_bound, enumerate_solutions,
                     solution_integral)

GROWTH_SLACK_EXP = 0.1  # allowed ratio growth per step: X^0.1

CHECKS = (
    "gap_l2",
    "selberg_envelope",
    "quadruple_count",
    "fourth_moment",
    "second_moment",
    "rational_point_sum",
    "small_alpha_sum",
    "witness_residual",
    "weighted_second_moment",
    "weighted_fourth_moment",
    "eighth_moment_cubes",
    "large_values_measure",
)

LEMMA_COLUMNS = ["check", "X", "k", "eta", "value", "bound", "ratio",
                 "growth", "allowed_growth", "status", "note"]
THEOREM_COLUMNS = ["X", "q", "eta_kind", "eta", "count", "weighted_count",
                   "min_residual", "p1", "p2", "p3", "duality_gap",
                   "tail_bound", "status", "note"]


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run; flags override JSON fields."""

    instance: ProblemInstance = field(
        default_factory=lambda: ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    )
    x_values: tuple[float, ...] = (1000.0, 2000.0, 4000.0)
    hua_x: tuple[float, ...] = (500.0, 1000.0, 2000.0, 4000.0)
    envelope_x: tuple[float, ...] = (1e4, 2e4, 4e4, 8e4)
    envelope_k: float = 1.0
    cap: float = 350000.0
    gamma: float = 1.0
    gap_y: float = 0.1
    tau: float = 0.1
    measure_y: float = 0.1
    measure_samples: int = 20000
    measure_z_exp: float = 0.75
    eta_grid: tuple[int, ...] = (-6, -5, -4, -3, -2, -1, 0, 1)
    duality_max_x: float = 2000.0
    witness_trials: int = 64
    seed: int = 0
    threads: int = 1

    @staticmethod
    def from_json(path, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return ExperimentConfig.from_dict(raw, **overrides)

    @staticmethod
    def from_dict(raw: dict, **overrides) -> "ExperimentConfig":
        raw = dict(raw)
        inst = raw.pop("instance", None)
        cfg = ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in raw.items()})
        if inst is not None:
            cfg = replace(cfg, instance=ProblemInstance(**inst))
        clean = {k: v for k, v in overrides.items() if v is not None}
        if clean:
            cfg = replace(cfg, **clean)
        return cfg

    def to_json(self) -> dict:
        d = {
            "instance": {
                "lambda1": self.instance.lambda1,
                "lambda2": self.instance.lambda2,
                "lambda3": self.instance.lambda3,
                "k": self.instance.k,
                "omega": self.instance.omega,
                "delta": self.instance.delta,
                "epsilon": self.instance.epsilon,
            },
        }
        for name in ("x_values", "hua_x", "envelope_x", "envelope_k", "cap",
                     "gamma", "gap_y", "tau", "measure_y", "measure_samples",
                     "measure_z_exp", "eta_grid", "duality_max_x",
                     "witness_trials", "seed", "threads"):
            v = getattr(self, name)
            d[name] = list(v) if isinstance(v, tuple) else v
        return d


@dataclass
class CheckRow:
    """One (check, X) ratio row of the bound suite."""

    check: str
    X: float
    k: float
    eta: float | None
    value: float
    bound: float
    ratio: float
    growth: float | None = None
    allowed_growth: float | None = None
    status: str = "PASS"
    note: str = ""


@dataclass
class MeasureSample:
    """Monte-Carlo estimate of the large-values measure on +/-[y, 2y]."""

    Z1: float
    Z2: float
    y: float
    sampled_measure: float
    bound: float
    samples: int
    seed: int
    sigma: float  # one-sided MC standard error of the estimate

    def to_json(self) -> dict:
        return {"Z1": self.Z1, "Z2": self.Z2, "y": self.y,
                "sampled_measure": self.sampled_measure, "bound": self.bound,
                "samples": self.samples, "seed": self.seed, "sigma": self.sigma}


def sample_large_sum_measure(instance: ProblemInstance, X: float, Z1: float,
                             Z2: float, y: float, samples: int, seed: int,
                             table: PrimeTable) -> MeasureSample:
    """Stratified Monte-Carlo measure of the set

        {alpha in +/-[y, 2y] : |S1(l1 a)| > Z1 and |S1(l2 a)| > Z2}.

    One uniform draw per stratum on the positive band, doubled by symmetry
    (|S1(-a)| = |S1(a)|).  The bound is y X^(8/3 + 0.1) / (Z1 Z2)^2 with
    unit constant.
    """
    if not (y > 0 and Z1 > 0 and Z2 > 0 and samples > 0):
        raise DhlabError("y, Z1, Z2, samples must all be positive")
    rng = np.random.default_rng(seed)
    u = (np.arange(samples) + rng.random(samples)) / samples
    alphas = y * (1.0 + u)  # stratified over [y, 2y]
    lin = instance.linear_range(X)
    f1 = sum_freqs("prime", lin, table, scale=instance.lambda1)
    f2 = sum_freqs("prime", lin, table, scale=instance.lambda2)
    m1 = np.abs(eval_points(*f1, alphas))
    m2 = np.abs(eval_points(*f2, alphas))
    hits = (m1 > Z1) & (m2 > Z2)
    p_hat = float(np.count_nonzero(hits)) / samples
    measure = 2.0 * y * p_hat
    sigma = 2.0 * y * math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    bound = y * X ** (8.0 / 3.0 + 0.1) / (Z1 * Z1 * Z2 * Z2)
    return MeasureSample(Z1=Z1, Z2=Z2, y=y, sampled_measure=measure,
                         bound=bound, samples=samples, seed=seed, sigma=sigma)


# ---------------------------------------------------------------------------
# the bound suite

def _growth_status(rows: list[CheckRow]) -> None:
    """Annotate consecutive-scale growth and PASS/FAIL on ratio rows."""
    prev = None
    for row in rows:
        if row.status == "SKIP":
            prev = None
            continue
        if prev is not None and prev.ratio > 0 and math.isfinite(prev.ratio):
            row.growth = row.ratio / prev.ratio
            row.allowed_growth = row.X**GROWTH_SLACK_EXP
            if not row.growth <= row.allowed_growth:
                row.status = "FAIL"
        if not math.isfinite(row.ratio):
            row.status = "FAIL"
        prev = row


def _window_empty(rng, table) -> bool:
    return len(window_arrays(rng, table)[0]) == 0


def _suite_gap_l2(cfg, table) -> list[CheckRow]:
    rows = []
    inst = cfg.instance
    for X in cfg.x_values:
        rng = inst.power_range(X)
        if _window_empty(rng, table):
            rows.append(CheckRow("gap_l2", X, inst.k, None, 0.0, 0.0, math.nan,
                                 status="SKIP", note="empty prime window"))
            continue
        r = exp_sum_gap_l2(cfg.gap_y, rng, table)
        rows.append(CheckRow("gap_l2", X, inst.k, None, r.value, r.bound, r.ratio))
    _growth_status(rows)
    return rows


def _suite_selberg_envelope(cfg, table) -> list[CheckRow]:
    # the linear-window default (envelope_k = 1) averages over thousands of
    # prime gaps per scale; higher k is desk-scale noise
    rows = []
    k = cfg.envelope_k
    prev_ratio = None
    for X in cfg.envelope_x:
        h = X ** (1.0 - 5.0 / (6.0 * k) + 0.05)
        rng = SumRange(k, cfg.instance.delta, X)
        val = selberg_integral(rng, h, table)
        scale = h * h * X ** (2.0 / k - 1.0)
        ratio = val / scale
        row = CheckRow("selberg_envelope", X, k, None, val, scale, ratio)
        if prev_ratio is not None and ratio > prev_ratio * (1.0 + 1e-9):
            row.status = "FAIL"
            row.note = "envelope trend increased"
        row.growth = None if prev_ratio is None else ratio / prev_ratio
        prev_ratio = ratio
        rows.append(row)
    return rows


def _suite_quadruples(cfg, table) -> list[CheckRow]:
    rows = []
    k = cfg.instance.k
    for X in cfg.x_values:
        N = int(X ** (1.0 / k))
        if N < 2:
            rows.append(CheckRow("quadruple_count", X, k, None, 0.0, 0.0,
                                 math.nan, status="SKIP", note="window too small"))
            continue
        qc = count_quadruples(N, k, cfg.gamma)
        bound = (X ** (2.0 / k) + cfg.gamma * X ** (4.0 / k - 1.0)) * X**0.1
        rows.append(CheckRow("quadruple_count", X, k, None, float(qc.count),
                             bound, qc.count / bound))
    _growth_status(rows)
    return rows


def _suite_moment(cfg, table, p: int, name: str) -> list[CheckRow]:
    rows = []
    inst = cfg.instance
    for X in cfg.x_values:
        r = moment_integral("Sk", p, (-cfg.tau, cfg.tau), inst.power_range(X), table)
        rows.append(CheckRow(name, X, inst.k, None, r.value, r.bound, r.ratio))
    _growth_status(rows)
    return rows


def _suite_rational_point(cfg, table) -> list[CheckRow]:
    rows = []
    inst = cfg.instance
    alpha, a, q = 1.0 / 3.0, 1, 3
    for X in cfg.x_values:
        val = vaughan_ratio(alpha, a, q, inst.power_range(X), table)
        rows.append(CheckRow("rational_point_sum", X, 1.0, None, val, 1.0, val))
    _growth_status(rows)
    return rows


def _suite_small_alpha(cfg, table) -> list[CheckRow]:
    rows = []
    inst = cfg.instance
    for X in cfg.x_values:
        lin = inst.linear_range(X)
        f = sum_freqs("prime", lin, table)
        alphas = np.geomspace(1.0 / X, X ** (-3.0 / 5.0), 16)
        mags = np.abs(eval_points(*f, alphas))
        bounds = X**0.5 * alphas**-0.5 * math.log(X) ** 4
        ratio = float(np.max(mags / bounds))
        rows.append(CheckRow("small_alpha_sum", X, 1.0, None, ratio, 1.0, ratio))
    _growth_status(rows)
    return rows


def _suite_witness(cfg, table) -> list[CheckRow]:
    rows = []
    for X in cfg.x_values:
        rng = np.random.default_rng((cfg.seed, int(X), 8))
        worst = 0.0
        for _ in range(cfg.witness_trials):
            xi = float(rng.uniform(-50.0, 50.0))
            Q = float(rng.uniform(10.0, 1e4))
            w = find_rational_witness(xi, Q)
            worst = max(worst, w.residual * Q)
        status = "PASS" if worst <= 1.0 else "FAIL"
        rows.append(CheckRow("witness_residual", X, 1.0, None, worst, 1.0,
                             worst, status=status))
    return rows


def _suite_weighted(cfg, table, p: int, name: str) -> list[CheckRow]:
    rows = []
    inst = cfg.instance
    for X in cfg.x_values:
        d = choose_parameters(inst, X)
        r = kernel_moment(p, inst.lambda3, d.major[1], d.R, d.eta,
                          inst.power_range(X), table)
        rows.append(CheckRow(name, X, inst.k, d.eta, r.value, r.bound, r.ratio))
    _growth_status(rows)
    return rows


def _suite_eighth_moment(cfg, table) -> list[CheckRow]:
    rows = []
    delta = cfg.instance.delta
    for X in cfg.hua_x:
        rng = SumRange(3.0, delta, X)
        ps, _ = window_arrays(rng, table)
        if len(ps) == 0:
            rows.append(CheckRow("eighth_moment_cubes", X, 3.0, None, 0.0, 0.0,
                                 math.nan, status="SKIP", note="empty cube window"))
            continue
        r = moment_integral("Sk", 8, (0.0, 1.0), rng, table)
        rows.append(CheckRow("eighth_moment_cubes", X, 3.0, None, r.value,
                             r.bound, r.ratio))
    _growth_status(rows)
    return rows


def _suite_measure(cfg, table) -> list[CheckRow]:
    rows = []
    inst = cfg.instance
    for X in cfg.x_values:
        z = X**cfg.measure_z_exp
        seed_a = cfg.seed * 1000003 + int(X) * 101 + 12
        a = sample_large_sum_measure(inst, X, z, z, cfg.measure_y,
                                     cfg.measure_samples, seed_a, table)
        b = sample_large_sum_measure(inst, X, z, z, cfg.measure_y,
                                     cfg.measure_samples, seed_a + 1, table)
        gap = abs(a.sampled_measure - b.sampled_measure)
        tol = 3.0 * max(a.sigma, b.sigma)
        ok = gap <= tol and 0.0 <= a.sampled_measure <= 2.0 * cfg.measure_y
        rows.append(CheckRow(
            "large_values_measure", X, 1.0, None, a.sampled_measure, a.bound,
            a.sampled_measure / a.bound if a.bound > 0 else math.nan,
            status="PASS" if ok else "FAIL",
            note=f"cross-seed gap {gap:.3e} (3 sigma {tol:.3e})",
        ))
    return rows


def _suite_intermediate(cfg, table) -> list[CheckRow]:
    """Extra ratio row when the intermediate region exists (k >= 5/2):
    detector integral over it against eta^2 X^(1+1/k); PASS means the
    largest scale stays below 1."""
    rows = []
    inst = cfg.instance
    if inst.k < 2.5:
        return rows
    for X in cfg.x_values:
        d = choose_parameters(inst, X)
        lo, hi = d.intermediate
        val = solution_integral(inst, X, d.eta, (lo, hi), table)
        scale = d.eta**2 * X ** (1.0 + 1.0 / inst.k)
        ratio = abs(val) / scale
        rows.append(CheckRow("intermediate_region", X, inst.k, d.eta,
                             abs(val), scale, ratio))
    if rows:
        last = rows[-1]
        if not last.ratio < 1.0:
            last.status = "FAIL"
            last.note = "intermediate contribution not below main-term scale"
    return rows


@dataclass
class SuiteReport:
    rows: list[CheckRow]
    coverage_complete: bool
    failed: list[str]

    @property
    def ok(self) -> bool:
        return not self.failed


def _suite_table_limit(cfg) -> int:
    xmax = max(max(cfg.x_values), max(cfg.hua_x))
    need = [float(xmax)]
    k = cfg.instance.k
    ek = cfg.envelope_k
    ex = max(cfg.envelope_x)
    need.append((2.0 * ex + ex ** (1.0 - 5.0 / (6.0 * ek) + 0.05)) ** (1.0 / ek))
    need.append((2.0 * xmax + 1.0 / (2.0 * cfg.gap_y)) ** (1.0 / k))
    return int(max(need)) + 2


def run_lemma_suite(config: ExperimentConfig,
                    table: PrimeTable | None = None) -> SuiteReport:
    """Run every check of the bound suite; individual failures do not stop
    the run.  Returns all rows in fixed (check, X) order."""
    if table is None:
        table = sieve(_suite_table_limit(config))

    tasks = [
        _suite_gap_l2,
        _suite_selberg_envelope,
        _suite_quadruples,
        _suite_moment_p4,
        _suite_moment_p2,
        _suite_rational_point,
        _suite_small_alpha,
        _suite_witness,
        _suite_weighted_p2,
        _suite_weighted_p4,
        _suite_eighth_moment,
        _suite_measure,
        _suite_intermediate,
    ]
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            futures = [pool.submit(_run_one_suite_task, fn, config, table)
                       for fn in tasks]
            results = [f.result() for f in futures]
    else:
        results = [_run_one_suite_task(fn, config, table) for fn in tasks]

    rows = [row for chunk in results for row in chunk]
    seen = {c: 0 for c in CHECKS}
    for row in rows:
        if row.check in seen:
            seen[row.check] += 1
    coverage = all(n > 0 for n in seen.values())
    failed = sorted({r.check for r in rows if r.status == "FAIL"})
    return SuiteReport(rows=rows, coverage_complete=coverage, failed=failed)


def _run_one_suite_task(fn, config, table) -> list[CheckRow]:
    try:
        return fn(config, table)
    except DhlabError as exc:
        name = fn.__name__.replace("_suite_", "")
        return [CheckRow(name, 0.0, config.instance.k, None, math.nan,
                         math.nan, math.nan, status="SKIP", note=str(exc))]


def _suite_moment_p4(cfg, table):
    return _suite_moment(cfg, table, 4, "fourth_moment")


def _suite_moment_p2(cfg, table):
    return _suite_moment(cfg, table, 2, "second_moment")


def _suite_weighted_p2(cfg, table):
    return _suite_weighted(cfg, table, 2, "weighted_second_moment")


def _suite_weighted_p4(cfg, table):
    return _suite_weighted(cfg, table, 4, "weighted_fourth_moment")


# ---------------------------------------------------------------------------
# the scaling experiment along the cube sequence

@dataclass
class TheoremRow:
    X: float
    q: int
    eta_kind: str
    eta: float
    count: int
    weighted: float
    min_residual: float | None
    sample: tuple[int, int, int] | None
    duality_gap: float | None
    tail_bound: float | None
    status: str
    note: str = ""


@dataclass
class TheoremReport:
    rows: list[TheoremRow]
    min_eta: dict[float, float]  # X -> smallest grid eta with a solution
    rational_flag: bool
    sign_flag: bool

    @property
    def ok(self) -> bool:
        return all(r.status != "FAIL" for r in self.rows)


def run_theorem_experiment(config: ExperimentConfig,
                           table: PrimeTable | None = None) -> TheoremReport:
    """Solution counts along the scale sequence X = q^3.

    Per admissible X: theoretical parameters, one enumeration at the top of
    the eta grid eta_theory * 2^j, counts filtered down the grid, and a
    detector-integral duality check at small scales.
    """
    inst = config.instance
    seq, rational = cube_sequence(inst.lambda1, inst.lambda2, config.cap)
    sign_flag = inst.same_sign
    if table is None:
        xmax = max((x for _, x in seq), default=2)
        table = sieve(max(100, int(xmax) + 1))

    rows: list[TheoremRow] = []
    min_eta: dict[float, float] = {}
    note_flags = []
    if rational:
        note_flags.append("ratio is rational in double precision")
    if sign_flag:
        note_flags.append("coefficients all share a sign")
    base_note = "; ".join(note_flags)

    for q, X in seq:
        if X < 100:
            skip_note = "X below parameter floor (100)"
            if base_note:
                skip_note = base_note + "; " + skip_note
            rows.append(TheoremRow(X=float(X), q=q, eta_kind="-", eta=math.nan,
                                   count=0, weighted=0.0, min_residual=None,
                                   sample=None, duality_gap=None,
                                   tail_bound=None, status="SKIP",
                                   note=skip_note))
            continue
        d = choose_parameters(inst, float(X))
        etas = [(f"t*2^{j}", d.eta * 2.0**j) for j in config.eta_grid]
        eta_max = max(e for _, e in etas)
        sols = enumerate_solutions(inst, float(X), eta_max, table)
        residuals, weights = sols.residual, sols.weight

        duality_eta = d.eta
        duality_gap = tail = None
        if X <= config.duality_max_x:
            B = 10.0 / duality_eta
            inside = residuals <= duality_eta
            w_val = float(np.sum(weights[inside] *
                                 np.maximum(0.0, duality_eta - residuals[inside])))
            val = solution_integral(inst, float(X), duality_eta, (-B, B), table)
            duality_gap = abs(val.real - w_val)
            tail = duality_tail_bound(inst, float(X), B, table)

        for kind, eta in sorted(etas, key=lambda t: t[1]):
            inside = residuals <= eta
            count = int(np.count_nonzero(inside))
            wsum = float(np.sum(weights[inside] *
                                np.maximum(0.0, eta - residuals[inside])))
            min_res = float(np.min(residuals)) if len(residuals) else None
            sample = None
            if count:
                best = int(np.argmin(np.where(inside, residuals, np.inf)))
                sample = (int(sols.p1[best]), int(sols.p2[best]),
                          int(sols.p3[best]))
            status = "PASS"
            note = base_note
            if kind == "t*2^0" and duality_gap is not None:
                ok = duality_gap <= 0.02 * max(wsum, 1e-12) + tail
                if not ok:
                    status = "FAIL"
                    note = (note + "; " if note else "") + "duality gap above tolerance"
            rows.append(TheoremRow(X=float(X), q=q, eta_kind=kind, eta=eta,
                                   count=count, weighted=wsum,
                                   min_residual=min_res, sample=sample,
                                   duality_gap=duality_gap if kind == "t*2^0" else None,
                                   tail_bound=tail if kind == "t*2^0" else None,
                                   status=status, note=note))
        achieved = [eta for _, eta in etas
                    if int(np.count_nonzero(residuals <= eta)) >= 1]
        if achieved:
            min_eta[float(X)] = min(achieved)
    return TheoremReport(rows=rows, min_eta=min_eta, rational_flag=rational,
                         sign_flag=sign_flag)


# ---------------------------------------------------------------------------
# deterministic writers

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_suite_csv(path, report: SuiteReport) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(LEMMA_COLUMNS)
        for r in report.rows:
            out.writerow([r.check, _fmt(r.X), _fmt(r.k), _fmt(r.eta),
                          _fmt(r.value), _fmt(r.bound), _fmt(r.ratio),
                          _fmt(r.growth), _fmt(r.allowed_growth), r.status,
                          r.note])


def write_theorem_csv(path, report: TheoremReport) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(THEOREM_COLUMNS)
        for r in report.rows:
            p1, p2, p3 = r.sample if r.sample else ("", "", "")
            out.writerow([_fmt(r.X), r.q, r.eta_kind, _fmt(r.eta), r.count,
                          _fmt(r.weighted), _fmt(r.min_residual), p1, p2, p3,
                          _fmt(r.duality_gap), _fmt(r.tail_bound), r.status,
                          r.note])


def summary_dict(config: ExperimentConfig,
                 suite: SuiteReport | None = None,
                 theorem: TheoremReport | None = None) -> dict:
    out = {"config": config.to_json()}
    if suite is not None:
        out["suite"] = {
            "rows": len(suite.rows),
            "failed_checks": suite.failed,
            "coverage_complete": suite.coverage_complete,
        }
    if theorem is not None:
        out["theorem"] = {
            "rows": len(theorem.rows),
            "min_eta_with_solution": {repr(k): v for k, v in
                                      sorted(theorem.min_eta.items())},
            "rational_flag": theorem.rational_flag,
            "sign_flag": theorem.sign_flag,
            "ok": theorem.ok,
        }
    states = []
    if suite is not None:
        states.append(suite.ok)
    if theorem is not None:
        states.append(theorem.ok)
    out["overall"] = "PASS" if all(states) else "FAIL"
    return out


def write_summary(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
