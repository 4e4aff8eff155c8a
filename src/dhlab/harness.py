"""Experiment orchestration: the bound suite, measure sampling, scaling runs.

Every experiment is driven by an ExperimentConfig and a seed, and writes
CSV rows plus a JSON summary: two runs with the same config and seed are
byte-identical.  Each table's row dataclass is its schema (the header is
its field names, in order) and the csv module formats the cells: str(v),
which for a float (numpy float64 included) is its shortest round-trip repr,
and an empty cell for None.

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
from collections.abc import Callable
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .arcs import choose_parameters
from .diophantine import cube_sequence, vaughan_ratio
from .errors import DhlabError, DomainError
from .expsums import (eval_points, eval_taylor, points_error_bound,
                      prime_taylor_tables, require_phase, sum_freqs)
from .norms import (MomentReport, count_quadruples, exp_sum_gap_l2,
                    kernel_moment, moment_integral, selberg_integral)
from .primes import PrimeTable, SumRange, sieve, window_arrays
from .solver import (ProblemInstance, duality_tail_bound, level_sums,
                     solution_integral)

GROWTH_SLACK_EXP = 0.1  # allowed ratio growth per step: X^0.1


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
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text
            v = getattr(self, f.name)
            if f.type in ("int", "float") and not _is_number(v, f.type):
                raise DomainError(f"{f.name} must be {f.type}, got {v!r}")
            if f.type == "tuple[float, ...]" and not (  # the X sweeps
                    isinstance(v, (tuple, list)) and v
                    and all(_is_number(x) and 0 < x < math.inf for x in v)):
                raise DomainError(f"{f.name} must be a non-empty list of "
                                  f"finite positive numbers, got {v!r}")
        if not (math.isfinite(self.cap) and self.seed >= 0):
            raise DomainError(f"cap must be finite and seed non-negative, "
                              f"got cap {self.cap}, seed {self.seed}")
        # theorem levels are eta_theory * 2.0**j, which overflows past 1023
        grid = self.eta_grid
        if not isinstance(grid, (tuple, list)) or not grid:
            raise DomainError(f"eta_grid must be a non-empty list of "
                              f"integers, got {grid!r}")
        for j in grid:
            if not _is_number(j, "int") or j > 1023:
                raise DomainError(f"eta_grid entries must be integers j with "
                                  f"2.0**j finite, got {j!r}")

    @staticmethod
    def from_json(path, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return ExperimentConfig.from_dict(raw, **overrides)

    @staticmethod
    def from_dict(raw: dict, **overrides) -> "ExperimentConfig":
        """Config from a JSON object and the overrides that are not None
        (flags win); bad keys or values raise a DhlabError."""
        _check_keys(ExperimentConfig, raw, "config")
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
        if "instance" in raw:
            inst = raw["instance"]
            _check_keys(ProblemInstance, inst, "instance")
            for name, v in inst.items():
                if not _is_number(v):
                    raise DomainError(f"instance {name} must be float, got {v!r}")
            raw["instance"] = ProblemInstance(**inst)
        return ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in raw.items()})

    def to_json(self) -> dict:
        return asdict(self)


def _is_number(v, kind: str = "float") -> bool:
    types = int if kind == "int" else (int, float)
    return isinstance(v, types) and not isinstance(v, bool)


def _check_keys(cls, raw: dict, what: str) -> None:
    if not isinstance(raw, dict):
        raise DhlabError(f"{what} must be a JSON object, got {raw!r:.40}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise DhlabError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise DhlabError(f"missing {what} key(s): {', '.join(missing)}")


@dataclass
class CheckRow:
    """One (check, X) ratio row of the bound suite; the fields are the
    lemmas.csv columns."""

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
    # samples the Taylor values left undecided, decided by eval_points;
    # a diagnostic, kept out of to_json
    exact_fallbacks: int = 0

    def to_json(self) -> dict:
        out = asdict(self)
        del out["exact_fallbacks"]
        return out


def sample_large_sum_measure(instance: ProblemInstance, X: float, Z1: float,
                             Z2: float, y: float, samples: int, seed: int,
                             table: PrimeTable) -> MeasureSample:
    """Stratified Monte-Carlo measure of the set

        {alpha in +/-[y, 2y] : |S1(l1 a)| > Z1 and |S1(l2 a)| > Z2}.

    One uniform draw per stratum on the positive band, doubled by symmetry
    (|S1(-a)| = |S1(a)|).  The bound is y X^(8/3 + 0.1) / (Z1 Z2)^2 with
    unit constant.

    Each |S1(l a)| > Z is decided on the Taylor value (eval_taylor) wherever
    it lies farther from Z than its certified bound plus that of
    eval_points, so the decision is the one eval_points gives; the samples
    left undecided take eval_points' values and are counted in
    `exact_fallbacks`.
    """
    if not (all(0 < v < math.inf for v in (y, Z1, Z2)) and samples > 0):
        raise DhlabError(f"y, Z1, Z2 must be positive and finite and samples "
                         f"positive, got {y}, {Z1}, {Z2}, {samples}")
    rng = np.random.default_rng(seed)
    u = (np.arange(samples) + rng.random(samples)) / samples
    alphas = y * (1.0 + u)  # stratified over [y, 2y]
    lin = instance.linear_range(X)
    tables = prime_taylor_tables(lin, table)
    amax = float(np.max(alphas))
    hits = np.ones(samples, dtype=bool)
    fallbacks = 0
    for scale, Z in ((instance.lambda1, Z1), (instance.lambda2, Z2)):
        f = sum_freqs("prime", lin, table, scale=scale)
        require_phase(amax, fh=f[0])
        m = np.abs(eval_taylor(tables, alphas, scale))
        tol = tables.error_bound(amax, scale) + points_error_bound(*f, amax)
        near = np.abs(m - Z) <= tol
        if near.any():
            # the last bits of an eval_points value depend on the batch it
            # is computed in (BLAS blocking), so take them from the batch
            # of all samples
            m[near] = np.abs(eval_points(*f, alphas))[near]
            fallbacks += int(np.count_nonzero(near))
        hits &= m > Z
    p_hat = float(np.count_nonzero(hits)) / samples
    measure = 2.0 * y * p_hat
    sigma = 2.0 * y * math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    bound = y * X ** (8.0 / 3.0 + 0.1) / (Z1 * Z1 * Z2 * Z2)
    return MeasureSample(Z1=Z1, Z2=Z2, y=y, sampled_measure=measure,
                         bound=bound, samples=samples, seed=seed, sigma=sigma,
                         exact_fallbacks=fallbacks)


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


# Row functions: (cfg, table, X) -> the fields of one CheckRow besides the
# check name and X.  Pass rules annotate a check's rows in place.

def _skip(k: float, note: str) -> dict:
    return dict(k=k, eta=None, value=0.0, bound=0.0, ratio=math.nan,
                status="SKIP", note=note)


def _from_report(r: MomentReport) -> dict:
    return dict(k=r.k, eta=r.eta, value=r.value, bound=r.bound, ratio=r.ratio)


def _gap_l2(cfg, table, X) -> dict:
    inst = cfg.instance
    rng = inst.power_range(X)
    if _window_empty(rng, table):
        return _skip(inst.k, "empty prime window")
    return _from_report(exp_sum_gap_l2(cfg.gap_y, rng, table))


def _selberg_envelope(cfg, table, X) -> dict:
    # the linear-window default (envelope_k = 1) averages over thousands of
    # prime gaps per scale; higher k is desk-scale noise
    k = cfg.envelope_k
    h = X ** (1.0 - 5.0 / (6.0 * k) + 0.05)
    val = selberg_integral(SumRange(k, cfg.instance.delta, X), h, table)
    scale = h * h * X ** (2.0 / k - 1.0)
    return dict(k=k, eta=None, value=val, bound=scale, ratio=val / scale)


def _quadruples(cfg, table, X) -> dict:
    k = cfg.instance.k
    N = int(X ** (1.0 / k))
    if N < 2:
        return _skip(k, "window too small")
    count = count_quadruples(N, k, cfg.gamma)
    bound = (X ** (2.0 / k) + cfg.gamma * X ** (4.0 / k - 1.0)) * X**0.1
    return dict(k=k, eta=None, value=float(count), bound=bound,
                ratio=count / bound)


def _moment(p: int, cfg, table, X) -> dict:
    return _from_report(moment_integral("Sk", p, (-cfg.tau, cfg.tau),
                                        cfg.instance.power_range(X), table))


def _rational_point(cfg, table, X) -> dict:
    val = vaughan_ratio(1.0 / 3.0, 1, 3, cfg.instance.power_range(X), table)
    return dict(k=1.0, eta=None, value=val, bound=1.0, ratio=val)


def _small_alpha(cfg, table, X) -> dict:
    f = sum_freqs("prime", cfg.instance.linear_range(X), table)
    alphas = np.geomspace(1.0 / X, X ** (-3.0 / 5.0), 16)
    mags = np.abs(eval_points(*f, alphas))
    bounds = X**0.5 * alphas**-0.5 * math.log(X) ** 4
    ratio = float(np.max(mags / bounds))
    return dict(k=1.0, eta=None, value=ratio, bound=1.0, ratio=ratio)


def _weighted(p: int, cfg, table, X) -> dict:
    inst = cfg.instance
    d = choose_parameters(inst, X)
    return _from_report(kernel_moment(p, inst.lambda3, d.major[1], d.R, d.eta,
                                      inst.power_range(X), table))


def _eighth_moment(cfg, table, X) -> dict:
    rng = SumRange(3.0, cfg.instance.delta, X)
    if _window_empty(rng, table):
        return _skip(3.0, "empty cube window")
    return _from_report(moment_integral("Sk", 8, (0.0, 1.0), rng, table))


def _measure(cfg, table, X) -> dict:
    inst = cfg.instance
    z = X**cfg.measure_z_exp
    seed_a = cfg.seed * 1000003 + int(X) * 101 + 12
    a, b = (sample_large_sum_measure(inst, X, z, z, cfg.measure_y,
                                     cfg.measure_samples, seed, table)
            for seed in (seed_a, seed_a + 1))
    gap = abs(a.sampled_measure - b.sampled_measure)
    tol = 3.0 * max(a.sigma, b.sigma)
    return dict(k=1.0, eta=None, value=a.sampled_measure, bound=a.bound,
                ratio=a.sampled_measure / a.bound if a.bound > 0 else math.nan,
                status="PASS" if gap <= tol else "FAIL",
                note=f"cross-seed gap {gap:.3e} (3 sigma {tol:.3e})")


def _intermediate(cfg, table, X) -> dict:
    # detector integral over the intermediate region (k >= 5/2) against
    # the main-term scale eta^2 X^(1+1/k)
    inst = cfg.instance
    d = choose_parameters(inst, X)
    val = abs(solution_integral(inst, X, d.eta, d.intermediate, table))
    scale = d.main_term_scale
    return dict(k=inst.k, eta=d.eta, value=val, bound=scale, ratio=val / scale)


def _nonincreasing(rows: list[CheckRow]) -> None:
    """The envelope trend may not increase from one scale to the next."""
    for prev, row in zip(rows, rows[1:]):
        row.growth = row.ratio / prev.ratio
        if row.ratio > prev.ratio * (1.0 + 1e-9):
            row.status = "FAIL"
            row.note = "envelope trend increased"


def _last_below_one(rows: list[CheckRow]) -> None:
    """The largest scale's ratio must stay below 1."""
    if rows and not rows[-1].ratio < 1.0:
        rows[-1].status = "FAIL"
        rows[-1].note = "intermediate contribution not below main-term scale"


def _set_by_row(rows: list[CheckRow]) -> None:
    """The row function decided each status itself."""


class Check(NamedTuple):
    """One check of the bound suite: its name, the ExperimentConfig field
    holding its X sweep, its row function and its pass rule."""

    name: str
    sweep: str
    row: Callable[..., dict]
    rule: Callable[[list[CheckRow]], None]


SUITE = (
    Check("gap_l2", "x_values", _gap_l2, _growth_status),
    Check("selberg_envelope", "envelope_x", _selberg_envelope, _nonincreasing),
    Check("quadruple_count", "x_values", _quadruples, _growth_status),
    Check("fourth_moment", "x_values", partial(_moment, 4), _growth_status),
    Check("second_moment", "x_values", partial(_moment, 2), _growth_status),
    Check("rational_point_sum", "x_values", _rational_point, _growth_status),
    Check("small_alpha_sum", "x_values", _small_alpha, _growth_status),
    Check("weighted_second_moment", "x_values", partial(_weighted, 2), _growth_status),
    Check("weighted_fourth_moment", "x_values", partial(_weighted, 4), _growth_status),
    Check("eighth_moment_cubes", "hua_x", _eighth_moment, _growth_status),
    Check("large_values_measure", "x_values", _measure, _set_by_row),
)
# run after SUITE only where the intermediate region exists (k >= 5/2)
INTERMEDIATE = Check("intermediate_region", "x_values", _intermediate,
                     _last_below_one)
CHECKS = tuple(c.name for c in SUITE)


@dataclass
class SuiteReport:
    rows: list[CheckRow]
    coverage_complete: bool
    failed: list[str]

    @property
    def ok(self) -> bool:
        return not self.failed


def _lemma_table_limit(cfg) -> int:
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
    """Run every check of the bound suite; a check that raises a DhlabError
    yields one SKIP row carrying the message and does not stop the run.
    Returns all rows in fixed (check, X) order."""
    if table is None:
        table = sieve(_lemma_table_limit(config))
    checks = SUITE + ((INTERMEDIATE,) if config.instance.k >= 2.5 else ())
    rows = []
    for check in checks:
        try:
            chunk = [CheckRow(check.name, X, **check.row(config, table, X))
                     for X in getattr(config, check.sweep)]
        except DhlabError as exc:
            chunk = [CheckRow(check.name, 0.0, config.instance.k, None, math.nan,
                              math.nan, math.nan, status="SKIP", note=str(exc))]
        else:
            check.rule(chunk)
        rows += chunk
    covered = {r.check for r in rows}
    failed = sorted({r.check for r in rows if r.status == "FAIL"})
    return SuiteReport(rows=rows, coverage_complete=covered.issuperset(CHECKS),
                       failed=failed)


# ---------------------------------------------------------------------------
# the scaling experiment along the cube sequence

@dataclass
class TheoremRow:
    """One (X, eta) row of the cube-sequence experiment; the fields are the
    theorem.csv columns, and their defaults those of a SKIP row."""

    X: float
    q: int
    eta_kind: str = "-"
    eta: float = math.nan
    count: int = 0
    weighted_count: float = 0.0
    min_residual: float | None = None
    p1: int | None = None  # (p1, p2, p3): the sample solution, if any
    p2: int | None = None
    p3: int | None = None
    duality_gap: float | None = None
    tail_bound: float | None = None
    status: str = "PASS"
    note: str = ""

    @property
    def sample(self) -> tuple[int, int, int] | None:
        return None if self.p1 is None else (self.p1, self.p2, self.p3)


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
    flags = [note for flag, note in (
        (rational, "ratio is rational in double precision"),
        (sign_flag, "coefficients all share a sign")) if flag]

    for q, X in seq:
        if X < 100:
            rows.append(TheoremRow(float(X), q, status="SKIP", note="; ".join(
                flags + ["X below parameter floor (100)"])))
            continue
        d = choose_parameters(inst, float(X))
        etas = [(f"t*2^{j}", d.eta * 2.0**j) for j in config.eta_grid]
        sums = level_sums(inst, float(X), [e for _, e in etas], table)
        # the first smallest residual is the sample of every eta level that
        # has a solution
        min_res = sums.min_residual
        if min_res is not None:
            min_eta[float(X)] = min(e for _, e in etas if e >= min_res)

        for (kind, eta), count, wsum in sorted(
                zip(etas, sums.counts, sums.weighted), key=lambda t: t[0][1]):
            p1, p2, p3 = sums.sample if count else (None, None, None)
            row = TheoremRow(float(X), q, eta_kind=kind, eta=eta, count=count,
                             weighted_count=wsum, min_residual=min_res,
                             p1=p1, p2=p2, p3=p3, note="; ".join(flags))
            if kind == "t*2^0" and X <= config.duality_max_x:
                B = 10.0 / eta
                val = solution_integral(inst, float(X), eta, (-B, B), table,
                                         whole_line=True)
                gap = row.duality_gap = abs(val.real - wsum)
                tail = row.tail_bound = duality_tail_bound(inst, float(X), B,
                                                           table)
                if not gap <= 0.02 * max(wsum, 1e-12) + tail:
                    row.status = "FAIL"
                    row.note = "; ".join(flags + ["duality gap above tolerance"])
            rows.append(row)
    return TheoremReport(rows=rows, min_eta=min_eta, rational_flag=rational,
                         sign_flag=sign_flag)


# ---------------------------------------------------------------------------
# writers

def _write_rows(path, row_type, rows) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([f.name for f in fields(row_type)])
        out.writerows(map(astuple, rows))


def write_suite_csv(path, report: SuiteReport) -> None:
    _write_rows(path, CheckRow, report.rows)


def write_theorem_csv(path, report: TheoremReport) -> None:
    _write_rows(path, TheoremRow, report.rows)


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
