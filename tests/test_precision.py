import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhlab import precision
from dhlab.errors import DomainError
from dhlab.precision import fixed_sum, fixed_to_float

TINY = 5e-324  # 2^-1074, the smallest subnormal

# negatives, zeros and subnormals, from 2^-1074 up to 2^1000 in magnitude
_VALUES = st.lists(
    st.one_of(st.floats(-2.0**1000, 2.0**1000),
              st.floats(-1e-300, 1e-300),
              st.integers(-2**60, 2**60).map(lambda m: m * TINY),
              st.sampled_from([0.0, -0.0, TINY, -TINY, 2.0**1000, -2.0**1000])),
    max_size=80)


@settings(max_examples=400, deadline=None)
@given(values=_VALUES)
@example(values=[])
@example(values=[2.0**1000, TINY, -2.0**1000])
@example(values=[1.0, 2.0**-53, TINY])  # just above a tie: rounds up
@example(values=[1.0, 2.0**-53])  # a tie: rounds to even
@example(values=[-0.0, -0.0])
@example(values=[TINY] * 7 + [2.0**-1022, -2.0**-1022])
def test_exact_sum_is_fsum(values):
    arr = np.array(values, dtype=np.float64)
    assert fixed_to_float(fixed_sum(arr)) == math.fsum(values)


def test_exact_sum_empty():
    got = fixed_to_float(fixed_sum(np.empty(0)))
    assert got == 0.0 and math.copysign(1.0, got) == 1.0
    assert fixed_sum(np.empty(0)) == 0


@settings(max_examples=200, deadline=None)
@given(values=_VALUES.filter(len), data=st.data())
def test_exact_sum_order_and_split_invariant(values, data):
    arr = np.array(values, dtype=np.float64)
    want = fixed_sum(arr)
    perm = data.draw(st.permutations(range(len(arr))))
    assert fixed_sum(arr[list(perm)]) == want
    cuts = sorted(data.draw(st.lists(st.integers(0, len(arr)), max_size=6)))
    parts = np.split(arr, cuts)
    assert sum(fixed_sum(p) for p in parts) == want
    assert fixed_to_float(want) == math.fsum(values)


def test_exact_sum_blocks(monkeypatch):
    # the bin sums are exact only up to _FIXED_BLOCK values a block: the
    # block loop must give the same integer for any block size
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(1000) * np.exp2(rng.integers(-60, 60, 1000))
    want = fixed_sum(arr)
    for block in (1, 3, 7, 64):
        monkeypatch.setattr(precision, "_FIXED_BLOCK", block)
        assert fixed_sum(arr) == want
    assert fixed_to_float(want) == math.fsum(arr.tolist())


def test_exact_sum_refuses_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite"):
            fixed_to_float(fixed_sum(np.array([1.0, bad])))
