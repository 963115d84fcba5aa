import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctensor import presets
from ctensor.core import (
    DenseTensor,
    apply_full,
    circulant_from_root,
    materialize,
    symmetrize,
)
from ctensor.diag_root import DiagRootSpec, expand
from ctensor.structure import (
    SignClass,
    _parity_signed,
    b_class,
    classify_sign,
    classify_sign_array,
    hat_one_k,
    is_doubly_circulant,
    is_k_alternative,
)

from oracles import diag_root_form, parity_signs, random_circulant


def alternative_root(rng, m, n):
    """Random root with the alternating sign pattern baked in."""
    return np.abs(rng.normal(size=(n,) * (m - 1))) * parity_signs((n,) * (m - 1))


def row_sign_decomposition(a) -> bool:
    """The row-parity theorem on the materialized tensor: it is alternative
    (sign 1) or negatively alternative (sign -1) iff its odd rows (1-based)
    have that sign class and its even rows the other one; for even m and n
    also iff its root has it.  The root equivalence fails for odd m."""
    full = materialize(a).array

    def alt(arr, sign):
        return bool((sign * _parity_signed(arr) >= 0).all())

    ok = all(
        alt(full, s) == all(alt(row, s if k % 2 == 0 else -s) for k, row in enumerate(full))
        for s in (1, -1)
    )
    if a.order % 2 == 0 and a.dim % 2 == 0:
        ok &= all(alt(full, s) == alt(a.root.array, s) for s in (1, -1))
    return ok


def off_diagonal(t) -> np.ndarray:
    """The dense array with its diagonal (j, ..., j) zeroed."""
    arr = np.array(materialize(t).array)
    np.fill_diagonal(arr, 0.0)
    return arr


class TestClassifySign:
    def test_example2_root_alternative(self):
        root = np.array([[1.0, -1.0], [-1.0, 3.0]])
        assert classify_sign_array(root) == SignClass.ALTERNATIVE

    def test_example2_full_not_alternative(self):
        a = presets.by_name("example2")
        assert classify_sign(a) == SignClass.NONE

    def test_negated_adjacency_nonpositive(self):
        from ctensor.hypergraph import adjacency_tensor, orbit_closure

        g = orbit_closure([(1, 2)], n=4)
        arr = -materialize(adjacency_tensor(g)).array
        assert classify_sign(DenseTensor(arr)) == SignClass.NONPOSITIVE

    def test_zero_reports_nonnegative(self):
        assert classify_sign_array(np.zeros((2, 2))) == SignClass.NONNEGATIVE

    def test_negatively_alternative(self):
        root = -np.abs(np.random.default_rng(0).normal(size=(3, 3)))
        root *= parity_signs((3, 3)) ** 1
        arr = np.abs(root) * -parity_signs((3, 3))
        assert classify_sign_array(arr) == SignClass.NEGATIVELY_ALTERNATIVE


class TestRowSignDecomposition:
    def test_even_m_even_n_equivalence(self, rng):
        root = alternative_root(rng, 4, 2)
        a = circulant_from_root(root)
        assert classify_sign(a) == SignClass.ALTERNATIVE  # root pattern lifts
        assert row_sign_decomposition(a)

    def test_odd_m_counterexample_pinned(self):
        # root alternative but the full tensor is not; the row-parity
        # identity itself still holds
        a = presets.by_name("example2")
        assert classify_sign_array(a.root.array) == SignClass.ALTERNATIVE
        assert classify_sign(a) == SignClass.NONE
        assert row_sign_decomposition(a)

    def test_zero_tensor(self):
        a = circulant_from_root(np.zeros((2, 2, 2)))
        assert row_sign_decomposition(a)

    def test_random_tensors_satisfy_identity(self, rng):
        for m, n in [(3, 2), (3, 4), (4, 2), (4, 4)]:
            for _ in range(5):
                assert row_sign_decomposition(random_circulant(rng, m, n))
                a = circulant_from_root(alternative_root(rng, m, n))
                assert row_sign_decomposition(a)


class TestBClass:
    def test_classic_counterexample_matrix_is_b0(self):
        report = b_class(DenseTensor(np.array([[10.0, 10.0], [1.0, 1.0]])))
        assert report.is_b0
        assert not report.is_b

    def test_b0_alone_insufficient_for_psd(self):
        # the same matrix has a negative quadratic form value
        a = np.array([[10.0, 10.0], [1.0, 1.0]])
        x = np.array([1.0, -9.0])
        assert x @ a @ x == pytest.approx(-8.0)

    def test_identity_is_b(self):
        report = b_class(materialize(expand(DiagRootSpec(4, np.eye(1, 3)[0]))))
        assert report.is_b and report.is_b0

    def test_identity_circulant_fast_path(self):
        # the identity tensor's circulant root is 1 at (1,...,1), zero elsewhere
        root = np.zeros((2, 2, 2))
        root[0, 0, 0] = 1.0
        a = circulant_from_root(root)
        eye = np.zeros((2,) * 4)
        np.fill_diagonal(eye, 1.0)
        assert np.array_equal(materialize(a).array, eye)
        report = b_class(a)
        assert report.is_b

    def test_dual_path_agreement(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            a = random_circulant(rng, m, n)
            fast = b_class(a)
            slow = b_class(materialize(a))
            assert fast.is_b0 == slow.is_b0
            assert fast.is_b == slow.is_b
            assert fast.max_offdiag == pytest.approx(slow.max_offdiag, abs=1e-12)
            assert np.allclose(fast.row_sums, slow.row_sums, atol=1e-9)

    def test_b0_closed_under_symmetrization(self, rng):
        # construct circulant B0/B instances: strong diagonal, small off-diagonal
        made = 0
        while made < 20:
            root = rng.uniform(-1, 1, size=(3, 3))
            root[0, 0] = rng.uniform(8, 12)
            a = circulant_from_root(root)
            report = b_class(a)
            if not report.is_b0:
                continue
            made += 1
            s = symmetrize(a)
            assert b_class(s).is_b0
            if report.is_b:
                assert b_class(s).is_b


class TestKAlternative:
    def test_reference_cases(self):
        assert is_k_alternative([1.0, -2.0, 3.0], 1)  # n=4
        assert not is_k_alternative([-1.0, 0.0, 0.0], 1)
        assert is_k_alternative([0.0, 1.0, 0.0, -1.0, 0.0], 2)  # n=6

    def test_zero_vector_is_k_alternative(self):
        assert is_k_alternative(np.zeros(3), 1)
        assert is_k_alternative(np.zeros(5), 2)

    def test_nonzero_off_stride_rejected(self):
        assert not is_k_alternative([0.5, 1.0, 0.0, -1.0, 0.0], 2)

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            is_k_alternative([1.0, -1.0, 1.0], 4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4))
    def test_signed_blocks_accepted(self, k, p):
        n = 2 * p * k
        c = np.zeros(n - 1)
        for q in range(1, 2 * p):
            pos = q * k
            if pos <= n - 1:
                c[pos - 1] = 1.0 if q % 2 == 1 else -1.0
        assert is_k_alternative(c, k)


class TestHatOneK:
    def test_k1_is_alternating(self):
        assert np.array_equal(hat_one_k(4, 1), [1, -1, 1, -1])

    def test_blocks_of_two(self):
        assert np.array_equal(hat_one_k(4, 2), [1, 1, -1, -1])

    def test_single_period(self):
        assert np.array_equal(hat_one_k(6, 3), [1, 1, 1, -1, -1, -1])

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            hat_one_k(6, 2)

    def test_block_witness_exposes_failed_dominance(self, rng):
        # a stride-k alternating coefficient vector violating dominance makes
        # the form negative at the matching block vector
        n, k = 8, 2
        c = np.zeros(n)
        c[0] = 1.0
        c[k] = 2.0
        c[2 * k] = -1.5
        c[3 * k] = 1.0  # sum |tail| = 4.5 > c0
        spec = DiagRootSpec(4, c)
        assert diag_root_form(spec, hat_one_k(n, k)) == pytest.approx(
            n * (c[0] - 4.5), abs=1e-9
        )


class TestDoublyCirculant:
    def test_circulant_matrix_root(self):
        c = np.array([1.0, 2.0, 3.0])
        root = np.empty((3, 3))
        for j in range(3):
            for l in range(3):
                root[j, l] = c[(j - l) % 3]
        a = circulant_from_root(root)
        assert is_doubly_circulant(a)
        from ctensor.core import row_tensor

        for k in (1, 2, 3):
            assert np.array_equal(row_tensor(a, k).array, root)

    def test_showcase_root_not_doubly(self):
        assert not is_doubly_circulant(presets.by_name("example1"))

    def test_zero_root(self):
        assert is_doubly_circulant(circulant_from_root(np.zeros((2, 2))))

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            is_doubly_circulant(circulant_from_root(np.zeros(3)))


class TestSignClassPreservation:
    def test_offdiagonal_class_survives_symmetrization(self, rng):
        # nonnegative / non-positive off-diagonal parts keep their class
        for sign in (1.0, -1.0):
            root = sign * np.abs(rng.normal(size=(3, 3)))
            root[0, 0] = rng.normal()  # diagonal may be anything
            a = circulant_from_root(root)
            arr = off_diagonal(a)
            tag = classify_sign_array(arr)
            s = symmetrize(a)
            arr_s = off_diagonal(s)
            assert classify_sign_array(arr_s) == tag

    def test_alternative_class_survives_even_even(self, rng):
        root = alternative_root(rng, 4, 2)
        root[0, 0, 0] = abs(root[0, 0, 0])
        a = circulant_from_root(root)
        arr = off_diagonal(a)
        assert classify_sign_array(arr) == SignClass.ALTERNATIVE
        s = symmetrize(a)
        arr_s = off_diagonal(s)
        assert classify_sign_array(arr_s) == SignClass.ALTERNATIVE

    def test_form_is_preserved_with_class(self, rng):
        root = alternative_root(rng, 4, 2)
        a = circulant_from_root(root)
        s = symmetrize(a)
        for _ in range(5):
            x = rng.normal(size=2)
            assert apply_full(a, x) == pytest.approx(apply_full(s, x), rel=1e-9, abs=1e-9)
