"""core._fsum is math.fsum, bit for bit, at array speed."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctensor.core import _FSUM_CHUNK, _FSUM_CUTOFF, _fsum

# on both sides of the math.fsum cutoff and of the bincount chunk boundaries
SIZES = [
    1,
    2,
    _FSUM_CUTOFF - 1,
    _FSUM_CUTOFF,
    _FSUM_CUTOFF + 1,
    _FSUM_CHUNK - 1,
    _FSUM_CHUNK,
    _FSUM_CHUNK + 1,
    2 * _FSUM_CHUNK + 7,
]

magnitudes = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.0, max_value=2.0**-1022, exclude_max=True),  # subnormals, 0.0
    st.floats(min_value=0.5, max_value=2.0),
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, 2.0**53 + 2.0, 1e300]),
)
values = st.builds(lambda v, neg: -v if neg else v, magnitudes, st.booleans())


def same(a: float, b: float) -> bool:
    return a.hex() == b.hex()  # tells -0.0 from 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(values, min_size=1, max_size=24),
    st.one_of(st.sampled_from(SIZES), st.integers(1, 3 * _FSUM_CHUNK)),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_matches_math_fsum(base, size, seed, cancel):
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(base), size=size)
    if cancel:
        # heavy cancellation: each entry meets its negative, a few survive
        x = np.concatenate([x, -x[rng.permutation(size)][: max(0, size - 3)]])
        rng.shuffle(x)
    assert same(_fsum(x), math.fsum(x))


@pytest.mark.parametrize("size", SIZES)
def test_signed_zeros(size):
    for x in (np.zeros(size), -np.zeros(size), np.resize([0.0, -0.0], size)):
        assert same(_fsum(x), math.fsum(x))


@pytest.mark.parametrize("size", [_FSUM_CUTOFF + 1, 2 * _FSUM_CHUNK + 7])
def test_cancellation_to_zero_and_to_one_ulp(size):
    rng = np.random.default_rng(size)
    y = rng.normal(size=size) * 10.0 ** rng.integers(-200, 200, size=size)
    x = np.concatenate([y, -y, [5e-324]])
    rng.shuffle(x)
    assert same(_fsum(x), math.fsum(x)) and _fsum(x) == 5e-324
    assert same(_fsum(x[x != 5e-324]), 0.0)


def test_no_intermediate_overflow():
    x = [1e308, 1e308, -1e308] + [0.0] * _FSUM_CUTOFF
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(x)
    assert _fsum(x) == 1e308
    # an exact sum beyond the float range does overflow
    with pytest.raises(OverflowError):
        _fsum([1e308, 1e308] + [0.0] * _FSUM_CUTOFF)


@pytest.mark.parametrize(
    "special", [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf]]
)
def test_nonfinite_as_math_fsum(special):
    x = special + [1.0] * _FSUM_CUTOFF
    try:
        expected = math.fsum(x)
    except ValueError:
        with pytest.raises(ValueError):
            _fsum(x)
        return
    got = _fsum(x)
    assert same(got, expected) or (math.isnan(got) and math.isnan(expected))
