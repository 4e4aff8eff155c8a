"""Byte-for-byte regression against recorded artifacts.

tests/golden holds `lemmas.csv` of the default config at seed 0,
`theorem.csv` of the default config (cap 3.5e5), of the same instance at
k = 1.5 (cap 1e6) and k = 3 (cap 4.9e6), and of the sign-flagged
(1, sqrt 2, 1) at k = 2 (cap 2000), the `solutions.csv` and
`summary.json` of one `dhlab solve` run, and the JSON that `dhlab cf`
prints for sqrt 2, `dhlab arcs` for k = 3, X = 1e6 and `dhlab sieve` for
theta up to 1e5.  A change that moves any byte of them must say why and
re-record the file."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from dhlab import expsums, solver
from dhlab.harness import (ExperimentConfig, run_lemma_suite,
                           run_theorem_experiment, write_suite_csv,
                           write_theorem_csv)
from dhlab.primes import sieve
from dhlab.solver import ProblemInstance, enumerate_solutions, weighted_count

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_lemmas_csv_matches_golden(tmp_path):
    out = tmp_path / "lemmas.csv"
    write_suite_csv(out, run_lemma_suite(ExperimentConfig(seed=0)))
    assert out.read_bytes() == (GOLDEN / "lemmas_seed0.csv").read_bytes()


def test_theorem_csv_matches_golden(tmp_path):
    out = tmp_path / "theorem.csv"
    write_theorem_csv(out, run_theorem_experiment(ExperimentConfig(seed=0)))
    assert out.read_bytes() == (GOLDEN / "theorem_seed0.csv").read_bytes()


@pytest.mark.parametrize("shares", [1, 3])
def test_theorem_csv_matches_golden_in_any_shares(tmp_path, shares):
    # level_sums merges its shares exactly: one share, or more than this
    # host has CPUs, gives the same bytes
    out = tmp_path / "theorem.csv"
    with mock.patch.object(expsums, "CPUS", shares):
        report = run_theorem_experiment(ExperimentConfig(seed=0))
    write_theorem_csv(out, report)
    assert out.read_bytes() == (GOLDEN / "theorem_seed0.csv").read_bytes()


@pytest.mark.parametrize("k, cap, name", [
    (1.5, 1e6, "theorem_k1.5_cap1e6.csv"),
    (3.0, 4.9e6, "theorem_k3_cap4.9e6.csv")])
def test_theorem_csv_at_other_k_matches_golden(tmp_path, k, cap, name):
    # the ends of the paper's range 1 < k <= 3, for (1, sqrt 2, -1) at
    # omega = 0
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, k, 0.0)
    out = tmp_path / "theorem.csv"
    write_theorem_csv(out, run_theorem_experiment(
        ExperimentConfig(instance=inst, cap=cap)))
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_theorem_csv_with_flags_matches_golden(tmp_path):
    # (1, sqrt 2, 1): every row carries the sign flag, joined to the floor
    # note on the SKIP rows; X = 125 and 1728 have duality cells
    inst = ProblemInstance(1.0, math.sqrt(2.0), 1.0, 2.0, 0.0)
    out = tmp_path / "theorem.csv"
    write_theorem_csv(out, run_theorem_experiment(
        ExperimentConfig(instance=inst, cap=2000.0)))
    assert (out.read_bytes()
            == (GOLDEN / "theorem_flags_cap2000.csv").read_bytes())


def test_theorem_weighted_count_is_solver_weighted_count():
    # one definition of W: each weighted_count cell of theorem.csv is
    # weighted_count over an enumeration at that row's eta, bit for bit
    inst = ExperimentConfig().instance
    with open(GOLDEN / "theorem_seed0.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["eta_kind"] != "-"]
    assert len(rows) == 32
    table = sieve(int(max(float(r["X"]) for r in rows)) + 1)
    for r in rows:
        X, eta = float(r["X"]), float(r["eta"])
        w = weighted_count(enumerate_solutions(inst, X, eta, table), eta)
        assert repr(w) == r["weighted_count"], (X, eta)


def _cli(args, cwd, env=None):
    return subprocess.run([sys.executable, "-m", "dhlab.cli", *args],
                          cwd=cwd, capture_output=True, check=True, env=env)


def test_cli_theorem_pins_blas_threads(tmp_path):
    # the CLI pins BLAS to one thread itself, so theorem.csv does not depend
    # on the caller's environment.  Only a multi-core machine can catch a
    # regression: on one core every thread count gives the same bits.
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS")}
    _cli(["--out", str(tmp_path), "theorem"], tmp_path, env)
    assert ((tmp_path / "theorem.csv").read_bytes()
            == (GOLDEN / "theorem_seed0.csv").read_bytes())


def test_solve_outputs_match_golden(tmp_path):
    _cli(["--out", str(tmp_path), "solve", "--lambdas", "1,1,-1", "--k", "2",
          "--omega", "0", "--delta", "0.01", "--X", "100", "--eta", "0.5",
          "--duality-b", "100"], tmp_path)
    for name in ("solutions.csv", "summary.json"):
        assert ((tmp_path / name).read_bytes()
                == (GOLDEN / f"solve_{name}").read_bytes()), name


def test_cf_output_matches_golden(tmp_path):
    res = _cli(["cf", "--x", "sqrt2", "--n", "12", "--witness-q", "1000"],
               tmp_path)
    assert res.stdout == (GOLDEN / "cf_sqrt2.json").read_bytes()


def test_arcs_output_matches_golden(tmp_path):
    res = _cli(["arcs", "--k", "3", "--X", "1e6"], tmp_path)
    assert res.stdout == (GOLDEN / "arcs_k3_X1e6.json").read_bytes()


def test_sieve_output_matches_golden(tmp_path):
    res = _cli(["sieve", "--limit", "100000", "--theta-at", "54321.5"],
               tmp_path)
    assert res.stdout == (GOLDEN / "sieve_theta.json").read_bytes()
