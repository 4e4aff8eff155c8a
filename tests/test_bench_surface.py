"""The benchmark records per-layer metrics by wrapping the functions that
bench/layers.py names.  A function it names but cannot find is skipped
silently and its metrics read 0, so these tests pin the surface it needs."""

import importlib
import inspect
from pathlib import Path

from dhlab import expsums, harness

_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _boundary() -> dict:
    # executed from its source, so no bytecode cache is written under bench/
    namespace = {"__name__": "bench_layers"}
    exec(compile(_LAYERS.read_text(), str(_LAYERS), "exec"), namespace)
    return namespace["BOUNDARY"]


def test_boundary_functions_exist():
    missing = [f"{mod}.{name}" for mod, name in _boundary()
               if not inspect.isfunction(
                   getattr(importlib.import_module(f"dhlab.{mod}"), name, None))]
    assert missing == []


def test_grid_generator_signature():
    # the span wrapper times each next() and reads the term count from fh
    assert inspect.isgeneratorfunction(expsums.iter_grid_values)
    assert next(iter(inspect.signature(expsums.iter_grid_values).parameters)) == "fh"


def test_check_names():
    assert harness.CHECKS == (
        "gap_l2", "selberg_envelope", "quadruple_count", "fourth_moment",
        "second_moment", "rational_point_sum", "small_alpha_sum",
        "weighted_second_moment", "weighted_fourth_moment",
        "eighth_moment_cubes", "large_values_measure",
    )
