import itertools
import tracemalloc

import numpy as np
import pytest

from ctensor.core import BudgetError, apply_full, is_circulant, matrix_product, perm_matrix
from ctensor.moments import (
    ProcessSample,
    fold_trajectories,
    moment_tensor,
)
from ctensor.psd import brute_force_min


def naive_moment(x, m):
    t, n = x.shape
    out = np.zeros((n,) * m)
    for idx in itertools.product(range(n), repeat=m):
        prod = np.ones(t)
        for i in idx:
            prod = prod * x[:, i]
        out[idx] = prod.mean()
    return out


class TestConstruction:
    def test_constant_process_all_ones(self):
        sample = ProcessSample(np.ones((10, 3)))
        mt = moment_tensor(sample, 3)
        assert np.all(mt.array == 1.0)
        assert is_circulant(mt, 0.0)

    def test_single_alternating_trajectory(self):
        sample = ProcessSample(np.array([[1.0, -1.0]]))
        mt = moment_tensor(sample, 2)
        assert np.array_equal(mt.array, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        # rank-one covariance is semi-definite
        assert np.all(np.linalg.eigvalsh(mt.array) >= -1e-12)

    def test_matches_naive_loops(self, rng):
        x = rng.normal(size=(50, 3))
        mt = moment_tensor(ProcessSample(x), 3)
        assert np.allclose(mt.array, naive_moment(x, 3), atol=1e-12)

    def test_symmetric_by_construction(self, rng):
        x = rng.normal(size=(30, 3))
        arr = moment_tensor(ProcessSample(x), 4).array
        for p in itertools.permutations(range(4)):
            assert np.allclose(arr, np.transpose(arr, p), atol=1e-12)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_orders_two_to_nine(self, rng, m):
        x = rng.normal(size=(9, 2))
        got = moment_tensor(ProcessSample(x), m).array
        assert np.allclose(got, naive_moment(x, m), atol=1e-12)
        if m <= 8:  # the bytes of the letter-subscript einsum
            letters = "ijklpqrs"[:m]
            want = np.einsum(",".join("t" + c for c in letters) + "->" + letters, *[x] * m)
            assert got.tobytes() == (want / len(x)).tobytes()

    def test_budget_checked_before_allocation(self, monkeypatch, rng):
        monkeypatch.setenv("CTENSOR_BUDGET", str(40**3))  # 40^4 entries would take 20 MB
        sample = ProcessSample(rng.normal(size=(5, 40)))
        assert moment_tensor(sample, 3).array.size == 40**3
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="40\\^4"):
                moment_tensor(sample, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_folding_truncates(self):
        sample = fold_trajectories([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0]], period=2)
        assert sample.values.shape == (2, 2)
        assert np.array_equal(sample.values, [[1.0, 2.0], [5.0, 6.0]])

    def test_short_trajectory_rejected(self):
        with pytest.raises(ValueError):
            fold_trajectories([[1.0]], period=2)

    @pytest.mark.parametrize("period", [0, -1])
    def test_nonpositive_period_rejected(self, period):
        # t[:-1] would silently drop the last column instead
        with pytest.raises(ValueError, match="period"):
            fold_trajectories([[1.0, 2.0, 3.0, 4.0]], period=period)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ProcessSample(np.zeros((0, 2)))


class TestEvenOrderSemidefiniteness:
    def test_sign_process_near_delta_pattern(self, rng):
        # i.i.d. +-1 signs: fourth moments are 1 exactly when index counts
        # are all even, 0 otherwise
        t = 10**5
        x = rng.choice([-1.0, 1.0], size=(t, 2))
        mt = moment_tensor(ProcessSample(x), 4)
        sigma = 3.0 / np.sqrt(t)
        for idx in itertools.product(range(2), repeat=4):
            ones = sum(idx)
            expected = 1.0 if ones % 2 == 0 else 0.0
            assert abs(mt.array[idx] - expected) <= 3 * sigma

    def test_empirical_even_moment_nonnegative_form(self, rng):
        # any empirical even-order moment tensor has a nonnegative form:
        # it is an average of m-th powers
        x = rng.normal(size=(200, 3))
        mt = moment_tensor(ProcessSample(x), 4)
        for _ in range(20):
            alpha = rng.normal(size=3)
            assert apply_full(mt, alpha) >= -1e-10
        assert brute_force_min(mt).value >= -1e-9

    def test_numeric_route_confirms_nonnegative(self, rng):
        from ctensor.admm import AdmmParams, multi_start

        x = rng.normal(size=(500, 2))
        mt = moment_tensor(ProcessSample(x), 4)
        rep = multi_start(mt, AdmmParams(seed=0), restarts=6)
        assert rep.best.value >= -1e-8


class TestPushforward:
    def test_identity(self, rng):
        mt = moment_tensor(ProcessSample(rng.normal(size=(40, 3))), 3)
        out = matrix_product(mt, np.eye(3))
        assert np.allclose(out.array, mt.array, atol=1e-12)

    def test_shift_invariance_of_circulant_moment(self, rng):
        # rotating a shift-stationary sample leaves its moment tensor fixed
        base = rng.normal(size=(500, 1))
        x = np.concatenate([base, base, base], axis=1)  # constant process
        mt = moment_tensor(ProcessSample(x), 3)
        out = matrix_product(mt, perm_matrix(3))
        assert np.allclose(out.array, mt.array, atol=1e-12)

    def test_sample_level_oracle(self, rng):
        # transform trajectories, recompute, compare
        x = rng.normal(size=(4000, 2))
        b = rng.normal(size=(2, 3))
        mt_x = moment_tensor(ProcessSample(x), 3)
        pushed = matrix_product(mt_x, b)
        y = x @ b
        mt_y = moment_tensor(ProcessSample(y), 3)
        assert np.allclose(pushed.array, mt_y.array, atol=1e-10)

    def test_shape_mismatch(self, rng):
        mt = moment_tensor(ProcessSample(rng.normal(size=(10, 3))), 2)
        with pytest.raises(ValueError):
            matrix_product(mt, np.ones((4, 2)))
