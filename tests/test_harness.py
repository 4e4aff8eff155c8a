import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dhlab.harness import (CHECKS, ExperimentConfig, run_lemma_suite,
                           run_theorem_experiment, sample_large_sum_measure,
                           summary_dict, write_suite_csv, write_theorem_csv,
                           write_summary)
from dhlab.primes import sieve
from dhlab.solver import ProblemInstance

MINI = ExperimentConfig(
    x_values=(1000.0, 2000.0),
    hua_x=(500.0, 1000.0),
    envelope_x=(1e4, 2e4),
    cap=2000.0,
    measure_samples=4000,
    witness_trials=16,
    seed=3,
)


@pytest.fixture(scope="module")
def mini_suite():
    return run_lemma_suite(MINI)


def test_suite_coverage(mini_suite):
    names = {r.check for r in mini_suite.rows}
    assert set(CHECKS) <= names
    assert mini_suite.coverage_complete
    # each ratio check appears once per X of its sweep
    for check in ("gap_l2", "fourth_moment", "second_moment"):
        xs = [r.X for r in mini_suite.rows if r.check == check]
        assert xs == sorted(MINI.x_values)


def test_suite_statuses(mini_suite):
    assert all(r.status in ("PASS", "FAIL", "SKIP") for r in mini_suite.rows)
    for r in mini_suite.rows:
        if r.status == "PASS" and r.growth is not None and r.check != "selberg_envelope":
            assert r.growth <= r.allowed_growth


def test_suite_csv_deterministic(tmp_path, mini_suite):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_suite_csv(p1, mini_suite)
    rerun = run_lemma_suite(MINI)
    write_suite_csv(p2, rerun)
    assert p1.read_bytes() == p2.read_bytes()


def test_error_rows_carry_registered_names():
    # a table too small for most checks: each check that raises yields one
    # SKIP row at X = 0, under the name coverage and reports look up
    rep = run_lemma_suite(MINI, table=sieve(50))
    errors = [r for r in rep.rows if r.status == "SKIP" and r.X == 0.0]
    assert errors
    assert all(r.check in CHECKS for r in errors)
    assert rep.coverage_complete


def test_suite_csv_schema(tmp_path, mini_suite):
    path = tmp_path / "lemmas.csv"
    write_suite_csv(path, mini_suite)
    header = path.read_text().splitlines()[0]
    assert header == ("check,X,k,eta,value,bound,ratio,growth,"
                      "allowed_growth,status,note")


def test_summary_shape(mini_suite):
    s = summary_dict(MINI, suite=mini_suite)
    assert s["overall"] in ("PASS", "FAIL")
    assert s["suite"]["coverage_complete"]
    assert "config" in s and s["config"]["seed"] == 3


def test_measure_trivial_thresholds(table_1e5):
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    s0 = sample_large_sum_measure(inst, 10**4, 1e-9, 1e-9, 0.1, 2000, 0,
                                  table_1e5)
    assert s0.sampled_measure == pytest.approx(0.2)  # full band 2y
    big = 10**7
    s1 = sample_large_sum_measure(inst, 10**4, big, big, 0.1, 2000, 0,
                                  table_1e5)
    assert s1.sampled_measure == 0.0
    assert 0.0 <= s1.sampled_measure <= 2 * 0.1


def test_measure_seed_consistency(table_1e5):
    # nontrivial thresholds; two seeds agree within 3 sigma
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    z = 0.5 * 10**2  # well inside the fluctuation range at X = 1e4
    a = sample_large_sum_measure(inst, 10**4, z, z, 0.1, 3 * 10**4, 11, table_1e5)
    b = sample_large_sum_measure(inst, 10**4, z, z, 0.1, 3 * 10**4, 999, table_1e5)
    assert 0 < a.sampled_measure < 0.2
    assert abs(a.sampled_measure - b.sampled_measure) <= 3 * (a.sigma + b.sigma)
    # identical seeds reproduce exactly
    c = sample_large_sum_measure(inst, 10**4, z, z, 0.1, 3 * 10**4, 11, table_1e5)
    assert c.sampled_measure == a.sampled_measure


def test_theorem_experiment_mini():
    rep = run_theorem_experiment(MINI)
    assert not rep.rational_flag and not rep.sign_flag
    xs = sorted({r.X for r in rep.rows})
    assert xs == [1.0, 8.0, 125.0, 1728.0]
    skipped = [r for r in rep.rows if r.status == "SKIP"]
    assert {r.X for r in skipped} == {1.0, 8.0}
    big = [r for r in rep.rows if r.X == 1728.0 and r.eta_kind == "t*2^0"]
    assert len(big) == 1 and big[0].count > 0
    assert big[0].duality_gap is not None
    assert big[0].status == "PASS"
    assert 1728.0 in rep.min_eta


def test_theorem_flags_rational_and_sign():
    cfg = ExperimentConfig(
        instance=ProblemInstance(2.0, 1.0, 1.0, 2.0, -1.0),
        cap=2000.0,
    )
    rep = run_theorem_experiment(cfg)
    assert rep.rational_flag
    assert rep.sign_flag
    notes = " ".join(r.note for r in rep.rows)
    assert "rational" in notes


def test_theorem_csv_deterministic(tmp_path):
    r1 = run_theorem_experiment(MINI)
    r2 = run_theorem_experiment(MINI)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_theorem_csv(p1, r1)
    write_theorem_csv(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINI.to_json()))
    cfg = ExperimentConfig.from_json(path, seed=42)
    assert cfg.seed == 42
    assert cfg.x_values == MINI.x_values
    assert cfg.instance == MINI.instance


def _cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "dhlab.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_cli_lemmas_deterministic(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(MINI.to_json()))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = _cli(["--config", str(cfgp), "--out", str(out), "lemmas"], tmp_path)
        assert res.returncode == 0, res.stderr
        outs.append((out / "lemmas.csv").read_bytes())
    assert outs[0] == outs[1]


def test_solutions_csv_export(tmp_path, table_1e5):
    from dhlab.solver import enumerate_solutions, write_solutions_csv
    inst = ProblemInstance(1.0, 1.0, -1.0, 2.0, 0.0, delta=0.01)
    sols = enumerate_solutions(inst, 100.0, 0.5, table_1e5)
    path = tmp_path / "solutions.csv"
    write_solutions_csv(path, sols)
    lines = path.read_text().splitlines()
    assert lines[0] == "p1,p2,p3,residual,weight"
    assert len(lines) == 8


def test_cli_point_commands(tmp_path):
    res = _cli(["expsum", "--kind", "U", "--k", "2", "--delta", "0.25",
                "--X", "100", "--alpha", "0"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["re"] == pytest.approx(6.0)
    res = _cli(["measure", "--X", "2000", "--z1", "1e6", "--z2", "1e6",
                "--y", "0.1", "--samples", "500"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["sampled_measure"] == 0.0
    res = _cli(["--out", str(tmp_path / "s"), "solve", "--lambdas", "1,1,-1",
                "--k", "2", "--omega", "0", "--delta", "0.01", "--X", "100",
                "--eta", "0.5", "--duality-b", "20"], tmp_path)
    assert res.returncode == 0, res.stderr
    blob = json.loads(res.stdout)
    assert blob["count"] == 7
    assert abs(blob["I_real"] - blob["weighted_count"]) <= blob["tail_bound"]


def test_cli_theorem_and_exit_codes(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(MINI.to_json()))
    out = tmp_path / "th"
    res = _cli(["--config", str(cfgp), "--out", str(out), "theorem"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert (out / "theorem.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["overall"] == "PASS"
    # usage error -> exit code 2
    res = _cli(["no-such-command"], tmp_path)
    assert res.returncode == 2, res.stderr


def test_cli_config_errors_exit_2(tmp_path):
    cases = {
        "unknown": ({**MINI.to_json(), "threads": 2, "x_valuez": [1]},
                    "threads, x_valuez"),
        "bad_k": ({**MINI.to_json(), "instance": {**MINI.to_json()["instance"],
                                                  "k": 4.0}}, "k must be"),
    }
    for name, (blob, message) in cases.items():
        cfgp = tmp_path / f"{name}.json"
        cfgp.write_text(json.dumps(blob))
        res = _cli(["--config", str(cfgp), "--out", str(tmp_path / name),
                    "lemmas"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert message in res.stderr and "Traceback" not in res.stderr
    res = _cli(["--threads", "2", "lemmas"], tmp_path)
    assert res.returncode == 2, res.stderr