"""Command-line interface.

Subcommands mirror the library surface: sieve, expsum, moments, quadruples,
cf, arcs, solve, lemmas, theorem, measure.  Experiment commands read an
optional JSON config; flags win over config fields.  Exit code 0 means all
checks passed or were skipped, 1 means at least one FAIL, 2 a usage error.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from . import harness
from .arcs import choose_parameters
from .diophantine import convergents, find_rational_witness
from .errors import DhlabError
from .expsums import eval_grid, integer_exp_sum, integral_exp_sum, prime_exp_sum
from .norms import count_quadruples, moment_integral
from .primes import PrimeTable, SumRange, sieve, theta
from .solver import (ProblemInstance, duality_tail_bound, enumerate_solutions,
                     solution_integral, weighted_count, write_solutions_csv)

_CONSTANTS = {
    "sqrt2": math.sqrt(2.0),
    "sqrt3": math.sqrt(3.0),
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
    "pi": math.pi,
    "e": math.e,
}


def _real(text: str) -> float:
    """Parse a float, allowing a few named constants and a leading '-'. """
    t = text.strip().lower()
    neg = t.startswith("-")
    if neg:
        t = t[1:]
    if t in _CONSTANTS:
        v = _CONSTANTS[t]
        return -v if neg else v
    try:
        return float(text)
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a number") from None


def _lambdas(ctx, param, text: str) -> tuple[float, float, float]:
    """Option callback: l1,l2,l3 as three numbers."""
    parts = text.split(",")
    if len(parts) != 3:
        raise click.BadParameter(f"want l1,l2,l3, got {text!r}")
    return tuple(_real(s) for s in parts)


def _echo_json(obj) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="JSON config for experiment commands.")
@click.option("--out", "out_dir", type=click.Path(), default=".",
              help="Output directory for CSV/JSON artifacts.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override config seed.")
@click.pass_context
def main(ctx, config_path, out_dir, seed):
    """Numerical experiments around a three-prime Diophantine inequality."""
    ctx.ensure_object(dict)
    ctx.obj.update(config=config_path, out=out_dir, seed=seed)


def _load_config(ctx) -> harness.ExperimentConfig:
    seed = ctx.obj.get("seed")
    path = ctx.obj.get("config")
    if path:
        return harness.ExperimentConfig.from_json(path, seed=seed)
    return harness.ExperimentConfig.from_dict({}, seed=seed)


def _table(rng: SumRange) -> PrimeTable:
    """The primes through the window of `rng`, a validated SumRange."""
    return sieve(math.ceil(rng.hi) + 1)


def _out_path(ctx, name: str) -> str:
    out = ctx.obj.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


@main.command("sieve")
@click.option("--limit", type=int, required=True)
@click.option("--theta-at", "theta_at", type=float, default=None,
              help="Also report theta at this point.")
def sieve_cmd(limit, theta_at):
    """Sieve primes up to LIMIT and report pi(limit), theta(limit)."""
    table = sieve(limit)
    out = {"limit": limit, "pi": len(table), "theta": theta(limit, table)}
    if theta_at is not None:
        out["theta_at"] = theta(theta_at, table)
    _echo_json(out)


@main.command("expsum")
@click.option("--kind", type=click.Choice(["S", "U", "T"]), default="S")
@click.option("--k", type=float, required=True)
@click.option("--delta", type=float, default=0.1)
@click.option("--bigx", "--X", "X", type=float, required=True)
@click.option("--alpha", type=str, default=None, help="Point evaluation.")
@click.option("--grid", type=str, default=None,
              help="alpha0,step,count for a grid evaluation.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.pass_context
def expsum_cmd(ctx, kind, k, delta, X, alpha, grid, csv_path):
    """Evaluate an exponential sum at a point or on a grid."""
    rng = SumRange(k, delta, X)
    if (alpha is None) == (grid is None):
        raise click.UsageError("give exactly one of --alpha or --grid")
    table = _table(rng) if kind == "S" else None
    if alpha is not None:
        a = _real(alpha)
        if kind == "S":
            v = prime_exp_sum(a, rng, table)
        elif kind == "U":
            v = integer_exp_sum(a, rng)
        else:
            v = integral_exp_sum(a, rng)
        _echo_json({"kind": kind, "alpha": a, "re": v.real, "im": v.imag,
                    "abs": abs(v)})
        return
    parts = grid.split(",")
    if len(parts) != 3:
        raise click.UsageError("--grid wants alpha0,step,count")
    a0, step = _real(parts[0]), _real(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise click.UsageError(f"--grid count must be an integer, got "
                               f"{parts[2]!r}") from None
    if kind == "T":
        raise click.UsageError("grid evaluation supports kinds S and U")
    g = eval_grid("prime" if kind == "S" else "integer", rng, table,
                  alpha0=a0, step=step, count=count)
    path = csv_path or _out_path(ctx, "grid.csv")
    g.write_csv(path)
    click.echo(f"wrote {count} rows to {path}")


@main.command("moments")
@click.option("--kind", type=click.Choice(["S1", "Sk"]), default="Sk")
@click.option("--p", type=click.Choice(["2", "4", "8"]), default="2")
@click.option("--k", type=float, required=True)
@click.option("--delta", type=float, default=0.1)
@click.option("--bigx", "--X", "X", type=float, required=True)
@click.option("--lo", type=float, required=True)
@click.option("--hi", type=float, required=True)
def moments_cmd(kind, p, k, delta, X, lo, hi):
    """Moment integral of |sum|^p over [lo, hi] with its comparison bound."""
    rng = SumRange(k, delta, X)
    table = _table(rng)
    rep = moment_integral(kind, int(p), (lo, hi), rng, table)
    _echo_json(rep.to_json())


@main.command("quadruples")
@click.option("--n", "N", type=int, required=True)
@click.option("--k", type=float, required=True)
@click.option("--gamma", type=float, required=True)
def quadruples_cmd(N, k, gamma):
    """Exact count of |n1^k + n2^k - n3^k - n4^k| < gamma on (N, 2N]."""
    count = count_quadruples(N, k, gamma)
    _echo_json({"N": N, "k": k, "gamma": gamma, "count": count})


@main.command("cf")
@click.option("--x", type=str, required=True, help="Real number or name (sqrt2, golden, pi, e).")
@click.option("--n", type=int, default=12)
@click.option("--witness-q", "witness_q", type=float, default=None,
              help="Also find a rational witness with q <= this bound.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def cf_cmd(x, n, witness_q, csv_path):
    """Continued-fraction convergents (and optionally a Dirichlet witness)."""
    val = _real(x)
    exp = convergents(val, n)
    out = {
        "x": val,
        "convergents": [{"index": c.index, "a": c.a, "q": c.q,
                         "residual": c.residual} for c in exp],
        "exact": exp.exact,
        "truncated": exp.truncated,
    }
    if witness_q is not None:
        w = find_rational_witness(val, witness_q)
        out["witness"] = {"a": w.a, "q": w.q, "residual": w.residual,
                          "meets_dirichlet": w.meets_dirichlet}
    if csv_path:
        exp.write_csv(csv_path)
    _echo_json(out)


@main.command("arcs")
@click.option("--k", type=float, required=True)
@click.option("--bigx", "--X", "X", type=float, required=True)
@click.option("--epsilon", type=float, default=0.01)
@click.option("--delta", type=float, default=0.1)
@click.option("--lambdas", default="1,sqrt2,-1", callback=_lambdas,
              help="l1,l2,l3 for the feasibility check.")
def arcs_cmd(k, X, epsilon, delta, lambdas):
    """Arc decomposition and parameter choices at scale X."""
    inst = ProblemInstance(*lambdas, k, 0.0, delta=delta, epsilon=epsilon)
    d = choose_parameters(inst, X)
    _echo_json(d.to_json())


@main.command("solve")
@click.option("--lambdas", required=True, callback=_lambdas, help="l1,l2,l3")
@click.option("--k", type=float, required=True)
@click.option("--omega", type=str, default="0")
@click.option("--delta", type=float, default=0.1)
@click.option("--bigx", "--X", "X", type=float, required=True)
@click.option("--eta", type=float, required=True)
@click.option("--duality-b", "duality_b", type=float, default=None,
              help="Half-width B for the detector-integral cross-check.")
@click.pass_context
def solve_cmd(ctx, lambdas, k, omega, delta, X, eta, duality_b):
    """Enumerate prime solutions and summarize counts and integrals."""
    inst = ProblemInstance(*lambdas, k, _real(omega), delta=delta)
    table = _table(inst.linear_range(X))
    summary = {"X": X, "eta": eta, "sign_feasible": not inst.same_sign}
    if duality_b is not None:  # first: a bad B is refused before enumerating
        val = solution_integral(inst, X, eta, (-duality_b, duality_b), table,
                                 whole_line=True)
        summary.update(I_real=val.real, I_imag=val.imag,
                       tail_bound=duality_tail_bound(inst, X, duality_b, table))
    sols = enumerate_solutions(inst, X, eta, table)
    write_solutions_csv(_out_path(ctx, "solutions.csv"), sols)
    summary.update(count=len(sols), weighted_count=weighted_count(sols, eta))
    path = _out_path(ctx, "summary.json")
    harness.write_summary(path, summary)
    _echo_json(summary)


@main.command("lemmas")
@click.pass_context
def lemmas_cmd(ctx):
    """Run the bound-ratio suite; writes lemmas.csv and summary.json."""
    cfg = _load_config(ctx)
    report = harness.run_lemma_suite(cfg)
    harness.write_suite_csv(_out_path(ctx, "lemmas.csv"), report)
    summary = harness.summary_dict(cfg, suite=report)
    harness.write_summary(_out_path(ctx, "summary.json"), summary)
    for row in report.rows:
        if row.status != "PASS":
            click.echo(f"{row.status}: {row.check} X={row.X:g} {row.note}")
    click.echo(f"suite: {len(report.rows)} rows, "
               f"{'all PASS' if report.ok else 'FAILURES: ' + ', '.join(report.failed)}")
    if not report.ok:
        sys.exit(1)


@main.command("theorem")
@click.pass_context
def theorem_cmd(ctx):
    """Run the cube-sequence scaling experiment; writes theorem.csv."""
    cfg = _load_config(ctx)
    report = harness.run_theorem_experiment(cfg)
    harness.write_theorem_csv(_out_path(ctx, "theorem.csv"), report)
    summary = harness.summary_dict(cfg, theorem=report)
    harness.write_summary(_out_path(ctx, "summary.json"), summary)
    for x, eta in sorted(report.min_eta.items()):
        click.echo(f"X={x:g}: smallest eta with a solution {eta:.6g}")
    click.echo("experiment " + ("PASS" if report.ok else "FAIL"))
    if not report.ok:
        sys.exit(1)


@main.command("measure")
@click.option("--lambdas", default="1,sqrt2,-1", callback=_lambdas)
@click.option("--bigx", "--X", "X", type=float, required=True)
@click.option("--z1", type=float, required=True)
@click.option("--z2", type=float, required=True)
@click.option("--y", type=float, required=True)
@click.option("--samples", type=int, default=20000)
@click.pass_context
def measure_cmd(ctx, lambdas, X, z1, z2, y, samples):
    """Monte-Carlo measure of simultaneous large values of the linear sums
    S1(l1 a) and S1(l2 a) (l3 and k play no part)."""
    inst = ProblemInstance(*lambdas, 2.0, 0.0)  # the sampler reads no k
    table = _table(inst.linear_range(X))
    seed = ctx.obj.get("seed") or 0
    ms = harness.sample_large_sum_measure(inst, X, z1, z2, y, samples, seed,
                                          table)
    _echo_json(ms.to_json())


def run_main() -> None:
    try:
        main(obj={})
    except DhlabError as exc:  # library errors are user errors at the CLI
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    run_main()
