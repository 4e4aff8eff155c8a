import json
import math

import numpy as np
import pytest

from dhlab.arcs import (choose_parameters, competitor_exponent, eta_exponent,
                        locate)
from dhlab.errors import DomainError, ParameterError
from dhlab.solver import ProblemInstance


def test_exponent_exact_values():
    assert eta_exponent(1.1) == 4 / 33
    assert eta_exponent(2.0) == 1 / 12
    assert eta_exponent(2.5) == 1 / 30
    assert eta_exponent(3.0) == 1 / 24


def test_exponent_branch_continuity():
    # both branch formulas agree at the 6/5 breakpoint
    assert eta_exponent(1.2) == 1 / 12
    assert (3 - 2 * 1.2) / (6 * 1.2) == pytest.approx(1 / 12, rel=1e-12)
    # continuity at k = 2 from the right
    assert eta_exponent(2.0 + 1e-9) == pytest.approx(1 / 12, rel=1e-6)


def test_exponent_domain():
    for bad in (1.0, 0.5, 3.01, -2.0):
        with pytest.raises(DomainError):
            eta_exponent(bad)


def test_exponent_positive_and_jump_at_three():
    ks = np.arange(1.001, 3.0, 0.001)
    vals = [eta_exponent(round(float(k), 3)) for k in ks]
    assert all(v > 0 for v in vals)
    # the third branch sinks to 0 at k -> 3-, then jumps to 1/24 at k = 3
    assert eta_exponent(2.999) < 1e-4
    assert eta_exponent(3.0) == 1 / 24
    assert eta_exponent(3.0) > 100 * eta_exponent(2.999)


def test_exponent_beats_competitor():
    # on (1, 4/3) the new exponent strictly dominates (4-3k)/(10k)
    ks = np.arange(1.001, 4.0 / 3.0, 0.001)
    for k in ks:
        k = round(float(k), 3)
        assert eta_exponent(k) > competitor_exponent(k)


@pytest.mark.parametrize("k", [1.0, 1.3334, 2.0, 0.5, math.nan, math.inf])
def test_competitor_exponent_domain(k):
    # defined on (1, 4/3) only; at k = 2 it would quietly give -0.1
    with pytest.raises(DomainError, match="k must be"):
        competitor_exponent(k)
    if not math.isfinite(k):  # no Fraction to take
        with pytest.raises(DomainError, match="k must be finite"):
            eta_exponent(k)


def _instance(k, eps=0.01, delta=0.1):
    return ProblemInstance(1.0, math.sqrt(2.0), -1.0, k, 0.0, delta=delta,
                           epsilon=eps)


def test_choose_parameters_k2_values():
    inst = _instance(2.0)
    d = choose_parameters(inst, 10**6)
    assert d.eta == pytest.approx(10 ** (6 * (-1 / 12 + 0.01)), rel=1e-12)
    assert d.P == pytest.approx(10 ** (6 * (5 / 12 - 0.01)), rel=1e-12)
    assert d.R == pytest.approx(math.log(10**6) ** 1.5 / d.eta**2, rel=1e-12)
    assert d.intermediate is None
    assert d.major[1] == pytest.approx(d.P / 10**6)
    assert d.window_feasible


def test_choose_parameters_intermediate_region():
    d = choose_parameters(_instance(3.0), 10**6)
    assert d.intermediate is not None
    lo, hi = d.intermediate
    assert lo == pytest.approx(d.P / 10**6)
    assert hi == pytest.approx(10 ** (6 * -0.6))
    assert lo < hi
    assert choose_parameters(_instance(2.4), 10**6).intermediate is None
    assert choose_parameters(_instance(2.5), 10**6).intermediate is not None


def test_choose_parameters_validation():
    for X in (50.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            choose_parameters(_instance(2.0), X)
    with pytest.raises(DomainError):
        choose_parameters(_instance(2.0, eps=0.2), 1000.0)
    # epsilon >= psi(k) makes eta >= 1: identified as infeasible
    with pytest.raises(ParameterError) as err:
        choose_parameters(_instance(2.99, eps=0.04), 10**4)
    assert err.value.failed == "eta < 1"


def test_locate_regions_and_boundaries():
    d = choose_parameters(_instance(3.0), 10**6)
    assert locate(0.0, d) == "major"
    assert locate(d.major[1], d) == "major"  # boundary to lower region
    assert locate(d.intermediate[1], d) == "intermediate"
    assert locate(-d.intermediate[1], d) == "intermediate"
    assert locate(d.R, d) == "minor"
    assert locate(2 * d.R, d) == "trivial"
    assert locate(-3 * d.R, d) == "trivial"


def test_locate_partition():
    d = choose_parameters(_instance(2.0), 10**4)
    rng = np.random.default_rng(9)
    for a in rng.uniform(-2 * d.R, 2 * d.R, size=1000):
        assert locate(float(a), d) in ("major", "intermediate", "minor", "trivial")


def test_window_feasibility_flag():
    # |l3| large relative to delta pushes the coefficient windows outside
    bad = ProblemInstance(1.0, math.sqrt(2.0), -9.0, 2.0, 0.0, delta=0.1)
    assert not choose_parameters(bad, 10**4).window_feasible
    assert choose_parameters(_instance(2.0), 10**4).window_feasible


def test_json_export_roundtrip():
    d = choose_parameters(_instance(3.0), 10**4)
    back = json.loads(json.dumps(d.to_json()))
    assert back["k"] == 3.0
    assert back["major"][1] == pytest.approx(d.P / 10**4)
    assert back["intermediate"] is not None
