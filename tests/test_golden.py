"""Byte-for-byte regression against recorded artifacts.

tests/golden holds `lemmas.csv` of the default config at seed 0 and
`theorem.csv` of the default config (cap 3.5e5).  A change that moves any
byte of either must say why and re-record the file."""

from pathlib import Path

from dhlab.harness import (ExperimentConfig, run_lemma_suite,
                           run_theorem_experiment, write_suite_csv,
                           write_theorem_csv)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_lemmas_csv_matches_golden(tmp_path):
    out = tmp_path / "lemmas.csv"
    write_suite_csv(out, run_lemma_suite(ExperimentConfig(seed=0)))
    assert out.read_bytes() == (GOLDEN / "lemmas_seed0.csv").read_bytes()


def test_theorem_csv_matches_golden(tmp_path):
    out = tmp_path / "theorem.csv"
    write_theorem_csv(out, run_theorem_experiment(ExperimentConfig(seed=0)))
    assert out.read_bytes() == (GOLDEN / "theorem_seed0.csv").read_bytes()
