"""Shared fixtures.  Importing `dhlab` pins BLAS to one thread before
numpy loads: the performance acceptance criterion is stated
single-threaded, and the pin is what keeps the grid products' reductions,
and so the seeded CSVs, bit-reproducible.  The threads `solver.level_sums`
runs its enumeration shares on do not move a bit: each share's sums are
exact integers, merged exactly.

The absolute ``src`` directory is prepended to ``PYTHONPATH`` so that CLI
subprocesses import the same ``dhlab`` as the test process, whatever their
working directory; a relative ``PYTHONPATH=src`` resolves against the
child's cwd and an uninstalled package would not be found there."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

import pytest

from dhlab import expsums
from dhlab.primes import sieve


@pytest.fixture(scope="session")
def table_1e6():
    return sieve(10**6)


@pytest.fixture(scope="session")
def table_1e5():
    return sieve(10**5)


@pytest.fixture
def no_grid_values(monkeypatch):
    """Fail any grid evaluation, so that a refusal is seen to come first."""
    def refuse(*args):
        raise AssertionError("grid values evaluated")
    monkeypatch.setattr(expsums, "iter_grid_values", refuse)
