"""exactsum._fsum is math.fsum, bit for bit, at array speed."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctensor import exactsum
from ctensor.exactsum import _FSUM_CHUNK, _FSUM_CUTOFF, _FSUM_MAX_EXP, _fsum

# on both sides of the math.fsum cutoff and of the chunk boundaries, and
# chunks of 2^11 - 2 and 2^11 - 1 entries, whose extraction bound 2^b >= N + 2
# is tight and just loose
SIZES = [
    1,
    2,
    _FSUM_CUTOFF - 1,
    _FSUM_CUTOFF,
    _FSUM_CUTOFF + 1,
    2**11 - 2,
    2**11 - 1,
    _FSUM_CHUNK - 1,
    _FSUM_CHUNK,
    _FSUM_CHUNK + 1,
    2 * _FSUM_CHUNK + 7,
]

magnitudes = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.0, max_value=2.0**-1022, exclude_max=True),  # subnormals, 0.0
    st.floats(min_value=0.5, max_value=2.0),
    # the largest double below a power of two has the most leading bits
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, np.nextafter(2.0, 0), 2.0**53 + 2.0, 1e300]),
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
    # on both sides of the math.fsum cutoff: 3, _FSUM_CUTOFF and 3 + _FSUM_CUTOFF entries
    for pad in (0, _FSUM_CUTOFF - 3, _FSUM_CUTOFF):
        x = [1e308, 1e308, -1e308] + [0.0] * pad
        with pytest.raises(OverflowError, match="intermediate overflow"):
            math.fsum(x)
        assert _fsum(x) == 1e308
        assert same(_fsum([1e308, 1e308, -1e308, -1e308] + [0.0] * pad), 0.0)
        # an exact sum beyond the float range does overflow, and says so
        with pytest.raises(OverflowError, match="beyond the float range"):
            _fsum([1e308, 1e308] + [0.0] * pad)


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


@pytest.fixture
def bucket_calls(monkeypatch):
    """Counts the inputs that go to the integer-bucket path."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return buckets(x)

    buckets = exactsum._fsum_ints
    monkeypatch.setattr(exactsum, "_fsum_ints", counted)
    return calls


@pytest.mark.parametrize("size", [_FSUM_CUTOFF + 1, 2**11 - 2, _FSUM_CHUNK + 1, 2 * _FSUM_CHUNK + 7])
def test_overflow_guard_edges(bucket_calls, size):
    """max|x| just below the guard is extracted, at the guard it takes the
    bucket path; both are math.fsum's value."""
    rng = np.random.default_rng(size)
    edge = 2.0 ** (_FSUM_MAX_EXP - (size + 1).bit_length())
    for top, path in ((np.nextafter(edge, 0), []), (edge, [size])):
        x = rng.uniform(-1.0, 1.0, size=size) * top
        x[rng.integers(size)] = -top
        bucket_calls.clear()
        assert same(_fsum(x), math.fsum(x))
        assert bucket_calls == path


@pytest.mark.parametrize("size", [_FSUM_CUTOFF + 1, _FSUM_CHUNK, 2 * _FSUM_CHUNK + 7])
def test_spread_and_pass_bound(bucket_calls, size):
    """Passes skip empty exponent ranges, so only a spread without gaps needs
    many: magnitudes at every exponent over 2^150 fit in the extraction
    passes, over 2^700 they take the bucket path."""
    rng = np.random.default_rng(size)
    for spread, path in ((150, []), (700, [size])):
        x = rng.normal(size=size) * 2.0 ** -rng.integers(0, spread, size=size)
        bucket_calls.clear()
        assert same(_fsum(x), math.fsum(x))
        assert bucket_calls == path


@pytest.mark.parametrize("size", [_FSUM_CUTOFF + 1, _FSUM_CHUNK, 2 * _FSUM_CHUNK + 7])
def test_subnormal_chunks(bucket_calls, size):
    rng = np.random.default_rng(size)
    tiny = rng.normal(size=size) * 2.0**-1060  # subnormal or zero throughout
    mixed = tiny.copy()
    mixed[_FSUM_CHUNK:] *= 2.0**600  # a subnormal chunk next to normal ones
    for x in (tiny, -tiny, mixed):
        assert same(_fsum(x), math.fsum(x))
    assert bucket_calls == []


@pytest.mark.parametrize("tail", [2**11 - 2, 2**11 - 1, 2**12 - 2])
def test_one_sign_one_binade(tail):
    """A last chunk of negative entries near the top of one binade makes the
    extracted parts as long as the bound 2^b >= N + 2 allows (sigma + p lies
    just below sigma, on the finer grid), and the first chunk holds their
    negatives: the exact sum is zero, and a looser sigma would round a part
    and leave a nonzero result."""
    rng = np.random.default_rng(tail)
    y = rng.uniform(1.5, 2.0, size=tail)
    x = np.concatenate([y, np.zeros(_FSUM_CHUNK - tail), -y])
    for scale in (1.0, 2.0**600, 2.0**-1000):
        assert same(_fsum(x * scale), 0.0)
