import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctensor.core import (
    CirculantTensor,
    DenseTensor,
    _normalized,
    apply_full,
    apply_partial,
    as_circulant,
    circulant_from_root,
    entry,
    is_circulant,
    is_toeplitz,
    materialize,
    matrix_product,
    perm_matrix,
    row_tensor,
    symmetrize,
)
from ctensor import presets
from ctensor.diag_root import DiagRootSpec, expand

from oracles import naive_form, naive_partial, naive_symmetrize, random_circulant, shift_materialize

EX1_ROOT = np.array(
    [
        [5.91395, 2.47255, 2.92646],
        [2.47255, 2.92646, 8.49514],
        [2.92646, 8.49514, 2.47255],
    ]
)


class TestConstruction:
    def test_from_root_shapes(self):
        a = circulant_from_root(EX1_ROOT)
        assert a.order == 3 and a.dim == 3
        assert a.root.order == 2

    def test_order1_root_gives_matrix(self):
        a = circulant_from_root(np.zeros(4))
        assert a.order == 2 and a.dim == 4
        assert np.array_equal(materialize(a).array, np.zeros((4, 4)))

    def test_diag_order3_root(self):
        # order-3 diagonal root with coefficients (1, 1) generates m=4, n=2
        root = np.zeros((2, 2, 2))
        root[0, 0, 0] = 1.0
        root[1, 1, 1] = 1.0
        a = circulant_from_root(root)
        assert a.order == 4 and a.dim == 2

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                circulant_from_root(np.array([1.0, bad]))

    def test_max_abs(self):
        assert DenseTensor(np.array([[1.0, -3.0], [2.0, 0.0]])).max_abs == 3.0
        assert circulant_from_root(np.array([-0.5, 0.25])).max_abs == 0.5

    def test_rejects_dim1(self):
        with pytest.raises(ValueError):
            circulant_from_root(np.array([1.0]))


class TestEntry:
    def test_showcase_entries(self):
        a = presets.by_name("example1")
        # (1,2,3) reduces to root position (2,3); shifting the whole tuple
        # cannot change the value
        assert entry(a, (1, 2, 3)) == pytest.approx(8.49514)
        assert entry(a, (2, 3, 1)) == pytest.approx(8.49514)
        assert entry(a, (1, 2, 2)) == pytest.approx(2.92646)

    def test_row2_entry_against_shift_oracle(self):
        a = presets.by_name("example1")
        full = shift_materialize(EX1_ROOT, 3)
        assert entry(a, (2, 3, 1)) == pytest.approx(full[1, 2, 0], abs=1e-12)

    def test_diagonal_constant(self, rng):
        a = random_circulant(rng, 3, 4)
        vals = {entry(a, (j, j, j)) for j in range(1, 5)}
        assert vals == {a.diagonal_entry}

    def test_out_of_range(self):
        a = presets.by_name("example1")
        with pytest.raises(ValueError):
            entry(a, (0, 1, 1))
        with pytest.raises(ValueError):
            entry(a, (1, 1, 4))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 4), st.data())
    def test_shift_invariance_exact(self, n, m, data):
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        a = random_circulant(rng, m, n)
        idx = tuple(data.draw(st.integers(1, n)) for _ in range(m))
        shifted = tuple(j % n + 1 for j in idx)
        assert entry(a, idx) == entry(a, shifted)  # exact


class TestRows:
    def test_row1_is_root(self):
        a = presets.by_name("example1")
        assert np.array_equal(row_tensor(a, 1).array, EX1_ROOT)

    def test_example2_row2(self):
        a = presets.by_name("example2")
        assert np.array_equal(row_tensor(a, 2).array, np.array([[3.0, -1.0], [-1.0, 1.0]]))

    def test_row_recursion(self, rng):
        # row k+1 equals row k with the shift matrix applied to every mode
        for m, n in [(3, 3), (4, 2), (3, 5), (2, 4)]:
            a = random_circulant(rng, m, n)
            p = perm_matrix(n)
            for k in range(1, n):
                lhs = row_tensor(a, k + 1).array
                rhs = matrix_product(row_tensor(a, k), p).array
                scale = max(1.0, np.abs(lhs).max())
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_materialize_matches_entry(self, rng):
        a = random_circulant(rng, 3, 3)
        dense = materialize(a)
        for idx in itertools.product(range(1, 4), repeat=3):
            assert dense.entry(idx) == entry(a, idx)

    def test_budget_env_override(self, monkeypatch):
        a = random_circulant(np.random.default_rng(0), 3, 4)
        monkeypatch.setenv("CTENSOR_BUDGET", "10")
        with pytest.raises(ValueError):
            materialize(a)
        monkeypatch.setenv("CTENSOR_BUDGET", "1000")
        assert materialize(a).order == 3


class TestCirculantPredicate:
    def test_materialized_is_circulant(self, rng):
        a = random_circulant(rng, 3, 4)
        assert is_circulant(materialize(a), 0.0)

    def test_identity_tensor(self):
        for m, n in [(3, 4), (4, 2)]:
            assert is_circulant(materialize(expand(DiagRootSpec(m, np.eye(1, n)[0]))), 0.0)

    def test_perturbed_entry_breaks_it(self):
        arr = materialize(presets.by_name("example1")).array.copy()
        arr[0, 1, 2] += 1.0
        assert not is_circulant(DenseTensor(arr), 1e-9)

    def test_matches_shift_matrix_identity(self, rng):
        # circulant <=> applying the shift matrix to every mode is a no-op
        a = random_circulant(rng, 3, 4)
        dense = materialize(a)
        p = perm_matrix(4)
        assert np.allclose(matrix_product(dense, p).array, dense.array, atol=1e-12)

    def test_as_circulant_roundtrip(self, rng):
        a = random_circulant(rng, 3, 4)
        b = as_circulant(materialize(a))
        assert np.array_equal(b.root.array, a.root.array)

    def test_toeplitz_predicate(self):
        assert is_toeplitz(materialize(presets.by_name("example1")))
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert not is_toeplitz(DenseTensor(arr))


class TestForms:
    def test_boundary_diag_at_ones(self):
        a = presets.by_name("example3")
        from ctensor.diag_root import expand

        assert apply_full(expand(a), np.ones(2)) == pytest.approx(4.0)

    def test_zero_vector(self, rng):
        a = random_circulant(rng, 3, 3)
        assert apply_full(a, np.zeros(3)) == 0.0

    def test_ones_gives_n_lambda0(self):
        a = presets.by_name("example1")
        v = apply_full(a, np.ones(3))
        assert v == pytest.approx(3 * 39.10126, abs=1e-9)
        assert v == pytest.approx(naive_form(materialize(a).array, np.ones(3)), abs=1e-9)

    def test_circulant_form_matches_dense(self, rng):
        for m, n in [(3, 3), (4, 2), (2, 5)]:
            a = random_circulant(rng, m, n)
            dense = materialize(a).array
            for _ in range(5):
                x = rng.normal(size=n)
                assert apply_full(a, x) == pytest.approx(
                    naive_form(dense, x), rel=1e-10, abs=1e-8
                )

    def test_value_beyond_float_range_raises(self):
        # (1e308, 1e308, -1e308, 0, ...) at (1, 1): the form value is 2e308
        root = np.zeros((2, 2, 2))
        root.flat[:3] = [1e308, 1e308, -1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float range"):
                apply_full(circulant_from_root(root), np.ones(2))

    def test_partial_matches_naive(self, rng):
        a = random_circulant(rng, 3, 4)
        dense = materialize(a).array
        x = rng.normal(size=4)
        assert np.allclose(apply_partial(a, x), naive_partial(dense, x), atol=1e-9)
        assert np.allclose(
            apply_partial(materialize(a), x), naive_partial(dense, x), atol=1e-9
        )

    def test_partial_at_showcase(self):
        a = presets.by_name("example1")
        out = apply_partial(a, np.ones(3))
        assert np.allclose(out, 39.1013, atol=1e-3)

    def test_partial_unit_vector_picks_column(self, rng):
        a = random_circulant(rng, 3, 3)
        e2 = np.array([0.0, 1.0, 0.0])
        expected = [entry(a, (k, 2, 2)) for k in (1, 2, 3)]
        assert np.allclose(apply_partial(a, e2), expected, atol=1e-12)

    def test_complex_input(self):
        a = presets.by_name("example2")
        x = np.array([1.0, -1.0])
        out = apply_partial(a, x.astype(complex))
        assert np.allclose(out.imag, 0.0)
        assert np.allclose(out.real, apply_partial(a, x))


class TestMatrixProduct:
    def test_identity(self, rng):
        a = random_circulant(rng, 3, 3)
        dense = materialize(a)
        assert np.allclose(matrix_product(dense, np.eye(3)).array, dense.array)

    def test_form_compatibility(self, rng):
        # (A Q^m) x^m = A (Qx)^m
        a = materialize(random_circulant(rng, 3, 3))
        q = rng.normal(size=(3, 3))
        for _ in range(5):
            x = rng.normal(size=3)
            lhs = apply_full(matrix_product(a, q), x)
            rhs = apply_full(a, q @ x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_circulant_closure_under_circulant_matrix(self, rng):
        # multiplying by a circulant matrix keeps the class
        a = random_circulant(rng, 3, 4)
        c = materialize(random_circulant(rng, 2, 4)).array
        out = matrix_product(a, c)
        assert is_circulant(out, 1e-9)

    def test_rectangular_extension(self, rng):
        a = materialize(random_circulant(rng, 2, 3))
        b = rng.normal(size=(3, 5))
        out = matrix_product(a, b)
        assert out.dim == 5
        assert np.allclose(out.array, b.T @ a.array @ b)


class TestSymmetrize:
    def test_example2_sym_root(self):
        s = symmetrize(presets.by_name("example2"))
        assert isinstance(s, CirculantTensor)
        expected = np.array([[1.0, 1 / 3], [1 / 3, 1 / 3]])
        assert np.max(np.abs(s.root.array - expected)) <= 1e-12

    def test_matches_distinct_permutation_average(self, rng):
        arr = rng.normal(size=(3, 3, 3))
        sym = symmetrize(DenseTensor(arr))
        assert np.allclose(sym.array, naive_symmetrize(arr), atol=1e-12)

    def test_fixed_point(self, rng):
        arr = naive_symmetrize(rng.normal(size=(3, 3, 3)))
        again = symmetrize(DenseTensor(arr))
        assert np.allclose(again.array, arr, atol=1e-12)

    def test_form_equality(self, rng):
        for _ in range(20):
            a = random_circulant(rng, 3, 3)
            s = symmetrize(a)
            scale = np.abs(a.root.array).sum() * 3
            for _ in range(5):
                x = rng.normal(size=3)
                bound = 1e-10 * max(1.0, scale * np.abs(x).max() ** 3)
                assert abs(apply_full(a, x) - apply_full(s, x)) <= bound

    def test_circulant_stays_circulant(self, rng):
        a = random_circulant(rng, 3, 4)
        s = symmetrize(a)
        assert isinstance(s, CirculantTensor)
        assert is_circulant(materialize(s), 1e-12)

    def test_toeplitz_stays_toeplitz(self, rng):
        a = random_circulant(rng, 3, 4)  # circulant is Toeplitz
        assert is_toeplitz(materialize(symmetrize(a)), 1e-12)

    def test_entries_near_float_range(self):
        # a partial sum overflows, no average does: the result is the
        # root times 2^-1023 symmetrized and scaled back, dense or circulant
        root = np.zeros((2, 2, 2))
        root.flat[:3] = [1e308, 1e308, -1e308]
        small = symmetrize(circulant_from_root(np.ldexp(root, -1023)))
        a = circulant_from_root(root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, d = symmetrize(a), symmetrize(materialize(a))
        assert np.array_equal(s.root.array, np.ldexp(small.root.array, 1023))
        assert np.array_equal(materialize(s).array, d.array)

    @pytest.mark.parametrize("scale", [1.0, 1e306])
    def test_ordinary_entries_unscaled(self, rng, monkeypatch, scale):
        # below m! max|a| = 2^1023 the entries are summed unscaled
        from ctensor import core

        monkeypatch.setattr(core, "_scaled", None)
        arr = rng.normal(size=(2, 2, 2, 2)) * scale
        sym = symmetrize(DenseTensor(arr)).array
        assert np.allclose(sym, naive_symmetrize(arr), rtol=1e-12, atol=0)
        root = rng.normal(size=(3, 3, 3)) * scale
        s = symmetrize(circulant_from_root(root))
        assert np.array_equal(
            materialize(s).array, symmetrize(materialize(circulant_from_root(root))).array
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31))
    def test_sym_of_sym_is_sym(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(2, 2, 2, 2))
        once = symmetrize(DenseTensor(arr)).array
        twice = symmetrize(DenseTensor(once)).array
        assert np.allclose(once, twice, atol=1e-12)


class TestNormalized:
    """``core._normalized``: the power of two that brings the largest row
    1-norm into [8, 16)."""

    @staticmethod
    def _root_with_norm(rng, m, n, target, ulps):
        # dyadic entries whose 1-norm is exactly ``target``, then the largest
        # moved so the norm lies ``ulps`` floats away from it
        ints = rng.integers(-9, 10, size=(n,) * (m - 1)).astype(float)
        ints.flat[0] = 9.0
        total = np.abs(ints).sum()
        p = int(total - 1).bit_length()
        ints.flat[0] += 2.0**p - total
        root = np.ldexp(ints, int(np.log2(target)) - p)
        norm = target
        for _ in range(abs(ulps)):
            norm = np.nextafter(norm, np.inf if ulps > 0 else 0.0)
        root.flat[0] += norm - target
        assert math.fsum(np.abs(root).ravel().tolist()) == norm
        return root

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (4, 3), (6, 2)])
    def test_shift_at_the_binade_edges(self, m, n):
        rng = np.random.default_rng([m, n])
        for target, ulps, shift in [
            (8.0, -1, -1), (8.0, 0, 0), (8.0, 1, 0),
            (16.0, -1, 0), (16.0, 0, 1), (16.0, 1, 1),
        ]:
            a = circulant_from_root(self._root_with_norm(rng, m, n, target, ulps))
            for k in (-1000, 0, 1000):
                b = circulant_from_root(np.ldexp(a.root.array, k))
                assert _normalized(b)[1] == shift + k
                assert _normalized(materialize(b))[1] == shift + k

    def test_circulant_and_dense_agree(self, rng):
        for _ in range(40):
            m, n = int(rng.integers(3, 6)), int(rng.integers(2, 5))
            a = random_circulant(rng, m, n)
            b, shift = _normalized(a)
            d, dense_shift = _normalized(materialize(a))
            assert shift == dense_shift
            assert 8.0 <= np.abs(b.root.array).sum() < 16.0
            assert np.array_equal(materialize(b).array, d.array)

    def test_dense_takes_the_largest_row(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0], arr[1] = 10.0, 5.0  # row 1-norms 10 and 20
        a, shift = _normalized(DenseTensor(arr))
        assert shift == 1
        assert np.array_equal(a.array, arr / 2)


class TestDiagonalPart:
    def test_sym_preserves_diagonal(self, rng):
        arr = rng.normal(size=(3, 3, 3))
        diag = (np.arange(3),) * 3
        rhs = symmetrize(DenseTensor(arr)).array[diag]
        assert np.allclose(arr[diag], rhs, atol=1e-12)


class TestPermMatrix:
    def test_unit_vector_shift(self):
        p = perm_matrix(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            out = p @ e
            expected = np.zeros(4)
            expected[(j - 1) % 4] = 1.0
            assert np.array_equal(out, expected)

    def test_orthogonal(self):
        p = perm_matrix(5)
        assert np.array_equal(p @ p.T, np.eye(5))
