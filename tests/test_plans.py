"""Shape plans: the plan-based root kernels give the bits of the per-call
index formulas they replaced, plans are read-only, and the cache keeps to
its entry cap."""

import math

import numpy as np
import pytest

from ctensor import plans
from ctensor.core import _rotations, circulant_from_root, symmetrize
from ctensor.diag_root import _hyperplane_directions
from ctensor.spectral import associated_coeffs

from oracles import roll_associated_coeffs

SHAPES = [(3, 2), (3, 7), (4, 2), (4, 5), (5, 3), (6, 4), (7, 3), (8, 2)]


def reference_symmetrize_root(root: np.ndarray) -> np.ndarray:
    """The circulant coset sum with one fancy-index gather per coset, each
    from m-1 broadcast index arrays, then the trailing-axis insertion sum."""
    m, n = root.ndim + 1, root.shape[0]
    grid = np.indices((n,) * (m - 1), sparse=True)
    acc = root.copy()
    for k in range(1, m):
        idx = list(grid)
        idx.insert(k, 0)
        acc += root[tuple((j - idx[0]) % n for j in idx[1:])]
    for i in range(1, acc.ndim):
        prev = acc
        acc = prev.copy()
        for j in range(i):
            acc += np.swapaxes(prev, j, i)
    return acc / math.factorial(m)


def signed_zero_root(rng, m: int, n: int) -> np.ndarray:
    root = rng.uniform(-1.0, 1.0, size=(n,) * (m - 1))
    root[rng.random(root.shape) < 0.25] = 0.0
    root[rng.random(root.shape) < 0.25] = -0.0
    return root


@pytest.mark.parametrize("m,n", SHAPES)
def test_symmetrize_matches_fancy_index_formula(m, n):
    rng = np.random.default_rng(100 * m + n)
    for root in (signed_zero_root(rng, m, n), -np.zeros((n,) * (m - 1))):
        got = symmetrize(circulant_from_root(root)).root.array
        assert got.tobytes() == reference_symmetrize_root(root).tobytes()


@pytest.mark.parametrize("m,n", [(2, 2), (2, 5)] + SHAPES)
def test_associated_coeffs_match_per_row_bincount(m, n):
    rng = np.random.default_rng(100 * m + n)
    for root in (signed_zero_root(rng, m, n), -np.zeros((n,) * (m - 1))):
        got = associated_coeffs(circulant_from_root(root))
        assert got.tobytes() == roll_associated_coeffs(root).tobytes()


def test_rotations_match_index_formula():
    x = np.array([0.5, -0.0, 3.0, 0.0, -2.5])
    ar = np.arange(5)
    assert _rotations(x).tobytes() == x[(ar[:, None] + ar) % 5].tobytes()


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(plans, "_plans", {})
    monkeypatch.setattr(plans, "_retained", 0)


@pytest.mark.usefixtures("empty_cache")
@pytest.mark.parametrize("plan", [
    lambda: plans.coset_gather(4, 3),
    lambda: plans.exponent_bins(4, 3)[0],
    lambda: plans.exponent_bins(4, 3)[1],
    lambda: plans.rotations(3),
    lambda: _hyperplane_directions(3)[0],
    lambda: _hyperplane_directions(3)[1],
], ids=["coset", "exponent-keys", "exponent-skew", "rotations", "hyperplane", "hyperplane-mask"])
def test_plans_are_read_only(plan):
    arr = plan()
    assert plan() is arr  # retained, not rebuilt
    with pytest.raises(ValueError):
        arr[0] = 1


def test_shape_above_the_cap_is_not_retained():
    n = math.isqrt(plans.CAP_ENTRIES) + 1  # (3, n) plans exceed the cap alone
    retained = set(plans._plans)
    rng = np.random.default_rng(3)
    root = rng.uniform(-1.0, 1.0, size=(n, n))
    a = circulant_from_root(root)
    assert symmetrize(a).root.array.tobytes() == reference_symmetrize_root(root).tobytes()
    assert associated_coeffs(a).tobytes() == roll_associated_coeffs(root).tobytes()
    assert set(plans._plans) == retained
    assert not any(n in key[1:] for key in plans._plans)


@pytest.mark.usefixtures("empty_cache")
def test_retained_entries_stay_under_the_cap(monkeypatch):
    monkeypatch.setattr(plans, "CAP_ENTRIES", 2000)
    for m, n in SHAPES:
        root = np.ones((n,) * (m - 1))
        symmetrize(circulant_from_root(root))
        associated_coeffs(circulant_from_root(root))
    # 1649 entries are retained when the (6, 4) exponent plan (1040) comes:
    # it is dropped, and the later (8, 2) gather (128) still fits
    assert ("coset", 6, 4) in plans._plans
    assert ("exponents", 6, 4) not in plans._plans
    assert ("coset", 8, 2) in plans._plans
    sizes = sum(arr.size for plan in plans._plans.values() for arr in plan)
    assert sizes == plans._retained <= plans.CAP_ENTRIES
