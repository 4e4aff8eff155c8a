import csv
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dhlab import cli, harness, norms, primes
from dhlab.expsums import GaussPointsPlan, eval_points, sum_freqs
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


def _ratio_rows(*rows):
    """CheckRows of one check from (X, ratio, status) triples."""
    return [harness.CheckRow("c", X, 2.0, None, ratio, 1.0, ratio,
                             status=status) for X, ratio, status in rows]


def test_growth_rule():
    rows = _ratio_rows((1000.0, 1.0, "PASS"), (2000.0, 2.0, "PASS"),
                       (4000.0, 5.0, "PASS"))
    harness._growth_status(rows)
    # 2.0 is within 2000^0.1 = 2.14; 2.5 passes 4000^0.1 = 2.29
    assert [r.growth for r in rows] == [None, 2.0, 2.5]
    assert rows[1].allowed_growth == 2000.0**harness.GROWTH_SLACK_EXP
    assert [r.status for r in rows] == ["PASS", "PASS", "FAIL"]
    # a SKIP row ends the chain: the row after it has no growth to check
    rows = _ratio_rows((1000.0, 1.0, "PASS"), (2000.0, math.nan, "SKIP"),
                       (4000.0, 100.0, "PASS"))
    harness._growth_status(rows)
    assert [r.status for r in rows] == ["PASS", "SKIP", "PASS"]
    assert rows[2].growth is None
    # a non-finite ratio fails, and the row after it is not compared with it
    rows = _ratio_rows((1000.0, 1.0, "PASS"), (2000.0, math.inf, "PASS"),
                       (4000.0, 1.0, "PASS"))
    harness._growth_status(rows)
    assert [r.status for r in rows] == ["PASS", "FAIL", "PASS"]
    assert rows[2].growth is None


def test_trend_and_last_scale_rules():
    rows = _ratio_rows((1e4, 1.0, "PASS"), (2e4, 1.0 + 1e-10, "PASS"),
                       (4e4, 1.5, "PASS"))
    harness._nonincreasing(rows)
    assert [r.status for r in rows] == ["PASS", "PASS", "FAIL"]
    assert rows[2].note == "envelope trend increased"
    assert rows[2].growth == pytest.approx(1.5)
    for last, status in ((0.99, "PASS"), (1.0, "FAIL"), (math.nan, "FAIL")):
        rows = _ratio_rows((1000.0, 5.0, "PASS"), (2000.0, last, "PASS"))
        harness._last_below_one(rows)
        assert [r.status for r in rows] == ["PASS", status]
        assert (rows[1].note == "intermediate contribution not below "
                "main-term scale") == (status == "FAIL")
    harness._last_below_one([])


def test_suite_at_k_3_checks_the_intermediate_region(mini_suite):
    # k >= 5/2 has an intermediate region: one row per X of its sweep
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 3.0, 0.0)
    report = run_lemma_suite(dataclasses.replace(MINI, instance=inst))
    rows = [r for r in report.rows if r.check == "intermediate_region"]
    assert [r.X for r in rows] == list(MINI.x_values)
    assert all(r.k == 3.0 and 0 < r.ratio < 1.0 and r.status == "PASS"
               for r in rows)
    assert report.coverage_complete
    # k = 2 has none
    assert not any(r.check == "intermediate_region" for r in mini_suite.rows)


def test_error_rows_carry_registered_names():
    # a table too small for most checks: each check that raises yields one
    # SKIP row at X = 0, under the name coverage and reports look up
    rep = run_lemma_suite(MINI, table=sieve(50))
    errors = [r for r in rep.rows if r.status == "SKIP" and r.X == 0.0]
    assert errors
    assert all(r.check in CHECKS for r in errors)
    assert rep.coverage_complete


def test_quadruples_past_pair_cap_skip(monkeypatch, table_1e5):
    # X = 1e8 at k = 2 needs 10^8 pair sums: the check's refusal becomes
    # one SKIP row carrying it, and no power value is built
    def built(N, k):
        raise AssertionError("power values built")

    check = next(c for c in harness.SUITE if c.name == "quadruple_count")
    monkeypatch.setattr(harness, "SUITE", (check,))
    monkeypatch.setattr(norms, "_power_values", built)
    rep = run_lemma_suite(ExperimentConfig(x_values=(1e8,)), table_1e5)
    row, = rep.rows
    assert (row.check, row.status) == ("quadruple_count", "SKIP")
    assert "needs 100000000 pair sums" in row.note


def test_suite_csv_schema(tmp_path, mini_suite):
    path = tmp_path / "lemmas.csv"
    write_suite_csv(path, mini_suite)
    header = path.read_text().splitlines()[0]
    assert header == ("check,X,k,eta,value,bound,ratio,growth,"
                      "allowed_growth,status,note")


def test_suite_csv_plain_floats(tmp_path, mini_suite):
    # numpy scalars (gap_l2's bound comes from one) print as plain floats
    path = tmp_path / "lemmas.csv"
    write_suite_csv(path, mini_suite)
    assert "np." not in path.read_text()


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


def test_measure_default_suite_needs_no_fallback(table_1e5):
    # the default suite's X = 4000 row: both seeds decided on the points
    # plan's values
    cfg = ExperimentConfig()
    X = 4000.0
    seed_a = cfg.seed * 1000003 + int(X) * 101 + 12  # as the suite draws it
    z = X**cfg.measure_z_exp
    for seed in (seed_a, seed_a + 1):
        s = sample_large_sum_measure(cfg.instance, X, z, z, cfg.measure_y,
                                     cfg.measure_samples, seed, table_1e5)
        assert s.exact_fallbacks == 0
        assert "exact_fallbacks" not in s.to_json()


def test_measure_tie_falls_back_to_eval_points(table_1e5):
    # Z1 equal to |S1(l1 a)| at one sample, as eval_points computes it over
    # all samples: that sample is undecided by the points plan's value, and
    # as a strict inequality it is no hit
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    X, y, n, seed = 4000.0, 0.1, 3000, 21
    rng = np.random.default_rng(seed)
    alphas = y * (1.0 + (np.arange(n) + rng.random(n)) / n)
    lin = inst.linear_range(X)
    m1 = np.abs(eval_points(*sum_freqs("prime", lin, table_1e5,
                                       scale=inst.lambda1), alphas))
    m2 = np.abs(eval_points(*sum_freqs("prime", lin, table_1e5,
                                       scale=inst.lambda2), alphas))
    i = int(np.argsort(m1)[n // 2])
    z1, z2 = float(m1[i]), 1e-9
    s = sample_large_sum_measure(inst, X, z1, z2, y, n, seed, table_1e5)
    assert s.exact_fallbacks >= 1
    hits = (m1 > z1) & (m2 > z2)
    assert not hits[i]
    assert s.sampled_measure == 2.0 * y * (np.count_nonzero(hits) / n)
    # both thresholds bind: Z2 equal to |S1(l2 a)| at a sample above Z1,
    # where the second sum is evaluated only at the samples above Z1; the
    # tie there is undecided too, and the count is eval_points' over all
    # samples
    above = np.flatnonzero(m1 > z1)
    j = int(above[np.argsort(m2[above])[len(above) // 2]])
    z2 = float(m2[j])
    s = sample_large_sum_measure(inst, X, z1, z2, y, n, seed, table_1e5)
    hits = (m1 > z1) & (m2 > z2)
    assert s.exact_fallbacks >= 2 and not hits[j]
    assert 0 < np.count_nonzero(hits) < np.count_nonzero(m1 > z1)
    assert s.sampled_measure == 2.0 * y * (np.count_nonzero(hits) / n)


def test_measure_fallback_takes_the_batch_of_all_samples(monkeypatch,
                                                         table_1e5):
    # with the points plan's bound infinite every sample is undecided, so
    # both thresholds are decided on eval_points' values, each taken from
    # the batch of all samples, whichever samples are still in the running
    inst = ProblemInstance(1.0, math.sqrt(2.0), -1.0, 2.0, 0.0)
    X, y, n, seed = 4000.0, 0.1, 3000, 5
    rng = np.random.default_rng(seed)
    alphas = y * (1.0 + (np.arange(n) + rng.random(n)) / n)
    lin = inst.linear_range(X)
    m1, m2 = (np.abs(eval_points(*sum_freqs("prime", lin, table_1e5,
                                            scale=scale), alphas))
              for scale in (inst.lambda1, inst.lambda2))
    z1, z2 = float(np.median(m1)), float(np.median(m2))  # half pass each
    batches = []

    def recorded(*args):
        batches.append(np.array(args[3]))
        return eval_points(*args)

    monkeypatch.setattr(GaussPointsPlan, "error_bound",
                        lambda *args: math.inf)
    monkeypatch.setattr(harness, "eval_points", recorded)
    s = sample_large_sum_measure(inst, X, z1, z2, y, n, seed, table_1e5)
    assert len(batches) == 2
    assert all(np.array_equal(b, alphas) for b in batches)
    hits = (m1 > z1) & (m2 > z2)
    assert 0.4 * n < np.count_nonzero(m1 > z1) < 0.6 * n
    assert 0 < np.count_nonzero(hits) < np.count_nonzero(m1 > z1)
    assert s.exact_fallbacks == n + np.count_nonzero(m1 > z1)
    assert s.sampled_measure == 2.0 * y * (np.count_nonzero(hits) / n)


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


def test_theorem_duality_failure_row(tmp_path, monkeypatch):
    # W is 0 on this sign-flagged instance; an integral of 1 with no tail
    # allowance fails each duality row, and its note joins both parts
    monkeypatch.setattr(harness, "duality_tail_bound", lambda *a: 0.0)
    monkeypatch.setattr(harness, "solution_integral", lambda *a, **kw: 1.0)
    cfg = ExperimentConfig(
        instance=ProblemInstance(1.0, math.sqrt(2.0), 1.0, 2.0, 0.0),
        cap=2000.0)
    rep = run_theorem_experiment(cfg)
    note = "coefficients all share a sign; duality gap above tolerance"
    fails = [r for r in rep.rows if r.status == "FAIL"]
    assert [(r.X, r.eta_kind, r.note) for r in fails] == [
        (125.0, "t*2^0", note), (1728.0, "t*2^0", note)]
    assert not rep.ok
    path = tmp_path / "theorem.csv"
    write_theorem_csv(path, rep)
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["status"] == "FAIL"]
    assert [(r["X"], r["eta_kind"], r["duality_gap"], r["tail_bound"],
             r["note"]) for r in rows] == [
        ("125.0", "t*2^0", "1.0", "0.0", note),
        ("1728.0", "t*2^0", "1.0", "0.0", note)]


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


def _cli(args, cwd, timeout=None):
    return subprocess.run([sys.executable, "-m", "dhlab.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)


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
    # an empty linear window: no primes in [0.15, 1.5]
    res = _cli(["measure", "--X", "1.5", "--z1", "1", "--z2", "1",
                "--y", "0.1"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["sampled_measure"] == 0.0
    res = _cli(["--out", str(tmp_path / "s"), "solve", "--lambdas", "1,1,-1",
                "--k", "2", "--omega", "0", "--delta", "0.01", "--X", "100",
                "--eta", "0.5", "--duality-b", "20"], tmp_path)
    assert res.returncode == 0, res.stderr
    blob = json.loads(res.stdout)
    assert blob["count"] == 7
    assert abs(blob["I_real"] - blob["weighted_count"]) <= blob["tail_bound"]


def test_cli_integral_closed_form(tmp_path):
    # 1.25e6 oscillations: the value is the Fresnel-integral one, 1.3765e-6 i
    res = _cli(["expsum", "--kind", "T", "--k", "2", "--X", "100",
                "--alpha", "12500"], tmp_path)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["re"] == pytest.approx(1.240903600501499e-12, rel=1e-12)
    assert out["im"] == pytest.approx(1.3765487118094601e-06, rel=1e-12)


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


def _cli_in_process(args, capsys, monkeypatch):
    """Exit code and stderr of `dhlab args`, run through the entry point
    in this process."""
    monkeypatch.setattr(sys, "argv", ["dhlab", *args])
    with pytest.raises(SystemExit) as exit_:
        cli.run_main()
    return exit_.value.code, capsys.readouterr().err


def test_lemma_suite_does_not_import_numpy_ma():
    # a bare np.unique imports numpy.ma (np.ma.is_masked), 11-18 ms inside
    # the suite's first run in a process
    code = ("import sys\n"
            "from dhlab.harness import ExperimentConfig, run_lemma_suite\n"
            "run_lemma_suite(ExperimentConfig(seed=0))\n"
            "print('numpy.ma' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    # the refusals run in process; `--threads 2 lemmas` runs as a real
    # subprocess, so the module entry point is exercised too
    instance = MINI.to_json()["instance"]
    cases = {
        "unknown": ({**MINI.to_json(), "threads": 2, "x_valuez": [1]},
                    "threads, x_valuez"),
        "bad_k": ({**MINI.to_json(), "instance": {**MINI.to_json()["instance"],
                                                  "k": 4.0}}, "k must be"),
        "missing": ({"instance": {"k": 2.0, "omega": 0.0}},
                    "missing instance key(s): lambda1, lambda2, lambda3"),
        "nan_lambda2": ({**MINI.to_json(),
                         "instance": {**MINI.to_json()["instance"],
                                      "lambda2": math.nan}},
                        "lambda2 must be finite, got nan"),
        # a removed option is refused, not silently ignored
        "removed": ({**MINI.to_json(), "witness_trials": 64},
                    "unknown config key(s): witness_trials"),
        "empty_sweep": ({**MINI.to_json(), "x_values": []},
                        "x_values must be a non-empty list of finite "
                        "positive numbers, got ()"),
        "nan_sweep": ({**MINI.to_json(), "hua_x": [500.0, math.nan]},
                      "hua_x must be a non-empty list of finite positive "
                      "numbers, got (500.0, nan)"),
        "zero_sweep": ({**MINI.to_json(), "envelope_x": [0]},
                       "envelope_x must be a non-empty list"),
        "word_sweep": ({**MINI.to_json(), "x_values": "1000"},
                       "x_values must be a non-empty list"),
        "nan_cap": ({**MINI.to_json(), "cap": math.nan},
                    "cap must be finite and seed non-negative, got cap nan"),
        "word_number": ({**MINI.to_json(), "gamma": "1"},
                        "gamma must be float, got '1'"),
        "bool_number": ({**MINI.to_json(), "measure_samples": True},
                        "measure_samples must be int, got True"),
        "word_k": ({**MINI.to_json(), "instance": {**instance, "k": "2"}},
                   "instance k must be float, got '2'"),
        "bool_lambda": ({**MINI.to_json(),
                         "instance": {**instance, "lambda1": True}},
                        "instance lambda1 must be float, got True"),
        "list_instance": ({**MINI.to_json(), "instance": [1, 2]},
                          "instance must be a JSON object, got [1, 2]"),
        "null_instance": ({**MINI.to_json(), "instance": None},
                          "instance must be a JSON object, got None"),
        "not_object": ([1, 2], "config must be a JSON object, got [1, 2]"),
        "negative_seed": ({**MINI.to_json(), "seed": -1},
                          "seed non-negative, got cap 2000.0, seed -1"),
        "float_seed": ({**MINI.to_json(), "seed": 1.5},
                       "seed must be int, got 1.5"),
    }
    with monkeypatch.context() as mp:
        # every refusal comes before any sieve
        def no_sieve(*args):
            raise AssertionError("sieved before the config was checked")
        for module in (primes, harness, cli):
            mp.setattr(module, "sieve", no_sieve)
        for name, (blob, message) in cases.items():
            cfgp = tmp_path / f"{name}.json"
            cfgp.write_text(json.dumps(blob))
            for command in ("lemmas", "theorem"):
                code, err = _cli_in_process(["--config", str(cfgp), "--out",
                                             str(tmp_path / name), command],
                                            capsys, monkeypatch)
                assert code == 2, err
                assert message in err and "Traceback" not in err
        # a negative seed flag, for the suite and for the sampler
        for args in (["lemmas"], ["measure", "--X", "100", "--z1", "1",
                                  "--z2", "1", "--y", "0.1"]):
            code, err = _cli_in_process(["--seed", "-1", "--out",
                                         str(tmp_path / "s"), *args],
                                        capsys, monkeypatch)
            assert code == 2, err
            assert "-1 is not in the range x>=0" in err
            assert "Traceback" not in err
    # eta grids the theorem cannot take: empty, entries that are not
    # integers, and a j whose 2.0**j overflows
    grids = {"empty": ([], "non-empty list of integers, got ()"),
             "huge": ([0, 2000], "2.0**j finite, got 2000"),
             "float": ([1.5], "2.0**j finite, got 1.5"),
             "word": (["a"], "2.0**j finite, got 'a'"),
             # finite levels, but W could pass float64
             "top": ([0, 1023], "can take W past float64"),
             "high": ([1010], "can take W past float64")}
    for name, (grid, message) in grids.items():
        cfgp = tmp_path / f"grid_{name}.json"
        cfgp.write_text(json.dumps({**MINI.to_json(), "eta_grid": grid}))
        code, err = _cli_in_process(["--config", str(cfgp), "--out",
                                     str(tmp_path / name), "theorem"],
                                    capsys, monkeypatch)
        assert code == 2, err
        assert message in err and "Traceback" not in err
    res = _cli(["--threads", "2", "lemmas"], tmp_path)
    assert res.returncode == 2, res.stderr
    # grid requests the evaluator cannot honour: a zero step, and more
    # values than one grid may hold (2^25 and 1e13, refused before
    # allocating them)
    for grid in ("0,0,10", "0,1e-30,33554432", "0,1e-30,10000000000000"):
        code, err = _cli_in_process(["--out", str(tmp_path / "g"), "expsum",
                                     "--kind", "S", "--k", "1", "--X", "100",
                                     "--grid", grid], capsys, monkeypatch)
        assert code == 2, err
        assert "grid needs" in err and "Traceback" not in err
    # an allocation numpy refuses (4.86 PiB of integers), and 10^16 pair
    # sums and a points plan past MAX_GRID_VALUES, both refused before
    # anything is allocated
    for args, message in (
            (["quadruples", "--n", "100000000", "--k", "2", "--gamma", "1"],
             "N = 100000000 needs 10000000000000000 pair sums (> 16777216)"),
            (["expsum", "--kind", "U", "--k", "2", "--X", "1e30", "--alpha",
              "0.1"], "Unable to allocate"),
            (["measure", "--X", "5e6", "--z1", "1", "--z2", "1", "--y", "0.1"],
             "points plan over 4499991 consecutive integers needs 33554432 "
             "grid values (> 16777216)")):
        code, err = _cli_in_process(["--out", str(tmp_path / "m"), *args],
                                    capsys, monkeypatch)
        assert code == 2, err
        assert f"error: {message}" in err and "Traceback" not in err
    # bad flags: a window outside the domain, a word for a number, two
    # coefficients for three, and a trapezoid past the node cap
    flags = {
        "delta must be": ["expsum", "--k", "2", "--delta", "1.5", "--X", "100",
                          "--alpha", "0"],
        "'foo' is not a number": ["expsum", "--k", "2", "--X", "100",
                                  "--alpha", "foo"],
        "want l1,l2,l3": ["solve", "--lambdas", "1,2", "--k", "2", "--X", "100",
                          "--eta", "0.5"],
        "'x' is not a number": ["arcs", "--k", "2", "--X", "1e6",
                                "--lambdas", "1,x,-1"],
        "got '1,2,3,4'": ["measure", "--lambdas", "1,2,3,4", "--X", "100",
                          "--z1", "1", "--z2", "1", "--y", "0.1"],
        # the sampler reads only the linear sums: it takes no k
        "No such option '--k'": ["measure", "--k", "2", "--X", "100",
                                "--z1", "1", "--z2", "1", "--y", "0.1"],
        # off whole periods, with pairs past MAX_GRID_VALUES
        "(> 268435456)": ["moments", "--kind", "S1", "--p", "2", "--k", "1",
                          "--X", "1e6", "--lo", "-3000.5", "--hi", "3000"],
        # a grid count that is not an integer
        "count must be an integer, got 'abc'": [
            "expsum", "--k", "1", "--X", "100", "--grid", "0,1e-3,abc"],
        "count must be an integer, got '1e3'": [
            "expsum", "--k", "1", "--X", "100", "--grid", "0,1e-3,1e3"],
    }
    for message, args in flags.items():
        code, err = _cli_in_process(["--out", str(tmp_path / "f"), *args],
                                    capsys, monkeypatch)
        assert code == 2, err
        assert message in err and "Traceback" not in err
    # non-finite and out-of-domain values, refused before any work
    solve = ["solve", "--lambdas", "1,sqrt2,-1", "--k", "2"]
    refusals = [
        ("alpha must be finite, got nan",
         ["expsum", "--k", "1", "--X", "1000", "--grid", "nan,1e-3,10"]),
        ("eta must be finite and >= 0, got nan",
         solve + ["--X", "100", "--eta", "nan"]),
        ("eta must be finite and >= 0, got inf",
         solve + ["--X", "100", "--eta", "inf"]),
        ("need finite lo < hi",
         solve + ["--X", "100", "--eta", "0.5", "--duality-b", "nan"]),
        ("X must be positive and finite, got nan",
         solve + ["--X", "nan", "--eta", "0.5"]),
        ("need finite lo < hi",
         ["moments", "--k", "2", "--X", "1000", "--lo", "nan", "--hi", "0.1"]),
        ("need finite lo < hi",
         ["moments", "--k", "2", "--X", "1000", "--lo", "0", "--hi", "inf"]),
        ("X must be positive and finite, got nan",
         ["measure", "--X", "nan", "--z1", "1", "--z2", "1", "--y", "0.1"]),
        ("gamma must be positive and finite, got inf",
         ["quadruples", "--n", "5", "--k", "2", "--gamma", "inf"]),
        ("lambda2 must be finite, got nan",
         ["arcs", "--k", "2", "--X", "1000", "--lambdas", "1,nan,-1"]),
        ("lambda2 must be finite, got inf",
         ["solve", "--lambdas", "1,inf,-1", "--k", "2", "--X", "100",
          "--eta", "0.5"]),
        ("omega must be finite, got nan",
         ["solve", "--lambdas", "1,1,-1", "--k", "2", "--omega", "nan",
          "--X", "100", "--eta", "0.5"]),
        ("l2 = 1e-310 too small to probe on the integers",
         ["solve", "--lambdas", "1,1e-310,-1", "--k", "2", "--X", "100",
          "--eta", "0.5"]),
        ("Q must be >= 1, got nan", ["cf", "--x", "1", "--witness-q", "nan"]),
        # abscissas whose phases overflow the error-free product
        ("alpha 1.5e+300 too large", ["expsum", "--kind", "S", "--k", "2",
                                      "--X", "1e6", "--alpha", "1.5e300"]),
        ("alpha -1.7e+308 too large", ["expsum", "--kind", "U", "--k", "1",
                                       "--X", "1e3", "--alpha", "-1.7e308"]),
        # the sampler's non-finite inputs, and a band whose phases overflow
        ("must be positive and finite and samples positive, got inf",
         ["measure", "--X", "1000", "--z1", "10", "--z2", "10", "--y", "inf",
          "--samples", "100"]),
        ("must be positive and finite and samples positive, got 0.1, inf",
         ["measure", "--X", "1000", "--z1", "inf", "--z2", "10", "--y", "0.1",
          "--samples", "100"]),
        ("too large for float64 phases",
         ["measure", "--X", "1000", "--z1", "10", "--z2", "10", "--y", "1e300",
          "--samples", "100"]),
        ("pair sums of 200^10 reach 2^62",
         ["quadruples", "--n", "100", "--k", "10", "--gamma", "1e18"]),
        ("pair sums of 60^14 reach 2^62",
         ["quadruples", "--n", "30", "--k", "14", "--gamma", "3e18"]),
        # integer windows no int64 array can hold: reaching 2^60
        ("integers up to 1e+19 pass 2^60",
         ["expsum", "--kind", "U", "--k", "1", "--X", "1e19", "--alpha",
          "0.1"]),
        ("integers up to 1e+60 pass 2^60",
         ["expsum", "--kind", "U", "--k", "0.5", "--X", "1e30", "--alpha",
          "0.1"]),
    ] + [(f"k must be positive and finite, got {k}",
          ["quadruples", "--n", "100", "--k", k, "--gamma", "1"])
         for k in ("-2.0", "nan", "inf")] + [
        # a window of infinite k, for each command that takes one
        ("k must be positive and finite, got inf", args) for args in (
            ["expsum", "--k", "inf", "--X", "100", "--alpha", "0.1"],
            ["expsum", "--kind", "U", "--k", "inf", "--X", "100", "--alpha",
             "0.1"],
            ["moments", "--k", "inf", "--X", "100", "--lo", "0", "--hi",
             "1"])]
    for message, args in refusals:
        code, err = _cli_in_process(["--out", str(tmp_path / "r"), *args],
                                    capsys, monkeypatch)
        assert code == 2, err
        assert message in err and "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ")
    # a non-finite abscissa, for each pointwise sum
    for kind in ("S", "U", "T"):
        for alpha in ("nan", "inf"):
            code, err = _cli_in_process(
                ["--out", str(tmp_path / "a"), "expsum", "--kind", kind,
                 "--k", "2", "--X", "100", "--alpha", alpha],
                capsys, monkeypatch)
            assert code == 2, err
            assert (f"alpha must be finite, got {alpha}" in err
                    and "Traceback" not in err)
    # k past any exponent on an empty prime window forms no power: the
    # sum is empty, and the command succeeds
    monkeypatch.setattr(sys, "argv", ["dhlab", "--out", str(tmp_path / "e"),
                                      "expsum", "--k", "1e308", "--X", "100",
                                      "--alpha", "0.1"])
    with pytest.raises(SystemExit) as exit_:
        cli.run_main()
    assert exit_.value.code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["re"] == out["im"] == 0.0
    # the same k on the integer window too, in a subprocess under a
    # timeout, so that forming a power of a candidate fails, not stalls
    for kind in ("U", "S"):
        res = _cli(["expsum", "--kind", kind, "--k", "1e308", "--X", "100",
                    "--alpha", "0.1"], tmp_path, timeout=10)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["re"] == out["im"] == 0.0
    # a window edge X^(1/k) past float64, for each command that forms it
    for args in (["expsum", "--k", "0.5", "--X", "1e300", "--alpha", "0.1"],
                 ["moments", "--k", "0.5", "--X", "1e300", "--lo", "0",
                  "--hi", "1"]):
        res = _cli(args, tmp_path, timeout=10)
        assert res.returncode == 2, res.stderr
        assert res.stderr == ("error: window edge X^(1/k) = 1e+300^(1/0.5) "
                              "passes float64\n")
    # a sieve limit past 2^32, refused before the sieve allocates
    res = _cli(["sieve", "--limit", "20000000000"], tmp_path, timeout=10)
    assert res.returncode == 2, res.stderr
    assert res.stderr == "error: sieve limit must be <= 2^32, got 20000000000\n"
