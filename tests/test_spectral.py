import math
import warnings

import numpy as np
import pytest

from ctensor import presets
from ctensor.core import circulant_from_root, materialize, symmetrize
from ctensor.hypergraph import adjacency_tensor, laplacian, orbit_closure, signless_laplacian
from ctensor.spectral import (
    alternative_native,
    associated_coeffs,
    eigen_residual,
    extreme_h_eigenvalue,
    first_native,
    gershgorin,
    native_eigenvalues,
    native_eigenvector,
)

from oracles import naive_form, random_circulant


def direct_lambda(a, k):
    """Evaluate the defining polynomial at w_k without exponent reduction."""
    root = a.root.array
    n = a.dim
    w = np.exp(2j * np.pi * k / n)
    total = 0.0 + 0.0j
    for idx in np.ndindex(root.shape):
        total += root[idx] * w ** sum(idx)
    return total


class TestAssociatedCoeffs:
    def test_example2_coeffs(self):
        a = presets.by_name("example2")
        assert np.allclose(associated_coeffs(a), [4.0, -2.0], atol=1e-12)

    def test_zero_root(self):
        a = circulant_from_root(np.zeros((3, 3)))
        assert np.all(associated_coeffs(a) == 0)

    def test_diag_root_exponent_pattern(self):
        # only diagonal entries contribute, at exponent j*(m-1) mod n
        from ctensor.diag_root import DiagRootSpec, expand

        c = np.array([1.0, 2.0, 3.0, 4.0])
        m = 3
        a = expand(DiagRootSpec(m, c))
        coeffs = associated_coeffs(a)
        expected = np.zeros(4)
        for j in range(4):
            expected[(j * (m - 1)) % 4] += c[j]
        assert np.allclose(coeffs, expected, atol=1e-12)

    def test_reduction_matches_unreduced_evaluation(self, rng):
        for m, n in [(2, 5), (3, 4), (4, 3), (4, 6)]:
            a = random_circulant(rng, m, n)
            spec = native_eigenvalues(a)
            for k in range(n):
                ref = direct_lambda(a, k)
                assert abs(spec.lambdas[k] - ref) <= 1e-10 * max(1.0, abs(ref))


class TestNativeEigenvalues:
    def test_showcase_order3(self):
        spec = native_eigenvalues(presets.by_name("example1"))
        lam = spec.lambdas
        assert lam[0].real == pytest.approx(39.1013, abs=1e-3)
        assert abs(lam[0].imag) < 1e-12
        pair = sorted([lam[1], lam[2]], key=lambda z: z.imag)
        assert pair[1].real == pytest.approx(14.8057, abs=1e-3)
        assert pair[1].imag == pytest.approx(1.1793, abs=1e-3)
        assert pair[0].imag == pytest.approx(-1.1793, abs=1e-3)

    def test_example2_values(self):
        a = presets.by_name("example2")
        lam = native_eigenvalues(a).lambdas
        assert lam[0] == pytest.approx(2.0)
        assert lam[1] == pytest.approx(6.0)
        s = symmetrize(a)
        lam_s = native_eigenvalues(s).lambdas
        assert lam_s[0] == pytest.approx(2.0)
        assert lam_s[1] == pytest.approx(2 / 3)

    def test_negative_control_odd_order(self):
        # for odd order the non-real-eigenvector values need not survive
        # symmetrization: 6 vs 2/3 here
        a = presets.by_name("example2")
        lam1 = native_eigenvalues(a).lambdas[1]
        lam1_sym = native_eigenvalues(symmetrize(a)).lambdas[1]
        assert abs(lam1 - lam1_sym) > 1.0

    def test_residuals_all_native_pairs(self, rng):
        for m, n in [(2, 4), (3, 3), (4, 2), (3, 5)]:
            a = random_circulant(rng, m, n)
            spec = native_eigenvalues(a)
            for k in range(n):
                v = native_eigenvector(n, k)
                assert eigen_residual(a, spec.lambdas[k], v) <= 1e-8

    def test_conjugate_symmetry(self, rng):
        a = random_circulant(rng, 3, 5)
        lam = native_eigenvalues(a).lambdas
        for k in range(1, 5):
            assert lam[k] == pytest.approx(np.conj(lam[5 - k]), abs=1e-10)

    def test_first_native_is_root_sum(self, rng):
        a = random_circulant(rng, 3, 4)
        assert first_native(a) == pytest.approx(a.root.array.sum(), abs=1e-9)
        lam0 = native_eigenvalues(a).lambdas[0]
        assert first_native(a) == pytest.approx(lam0.real, abs=1e-9)

    def test_showcase_first_native_value(self):
        assert first_native(presets.by_name("example1")) == pytest.approx(
            39.10126, abs=1e-5
        )

    def test_alternative_native(self, rng):
        a = random_circulant(rng, 3, 4)
        lam = native_eigenvalues(a).lambdas
        assert alternative_native(a) == pytest.approx(lam[2].real, abs=1e-9)
        # match the signed-sum definition directly
        root = a.root.array
        acc = 0.0
        for idx in np.ndindex(root.shape):
            acc += root[idx] * (-1.0) ** sum(idx)
        assert alternative_native(a) == pytest.approx(acc, abs=1e-9)

    def test_alternative_native_odd_n_rejected(self, rng):
        with pytest.raises(ValueError):
            alternative_native(random_circulant(rng, 3, 3))

    @pytest.mark.parametrize(
        "root", [[[1e308, 1e308], [0.0, 0.0]], [[0.0, 1.5e308], [1.5e308, 0.0]]]
    )
    def test_beyond_float_range_raises(self, root):
        # an eigenvalue sum, then a coefficient sum, overflows
        a = circulant_from_root(np.array(root))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                native_eigenvalues(a)

    def test_coefficient_sum_beyond_float_range_raises(self):
        a = circulant_from_root(np.array([[0.0, 1.5e308], [1.5e308, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                associated_coeffs(a)

    def test_near_float_range_finite(self):
        # the two large entries share a coefficient and cancel
        a = circulant_from_root(np.array([[1e308, 1e308], [-1e308, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = native_eigenvalues(a).lambdas
        assert np.array_equal(lam, [1e308, 1e308])

    def test_even_m_even_n_diag_pattern(self):
        from ctensor.diag_root import DiagRootSpec, expand

        c = np.array([2.0, -1.0, 0.5, 3.0])
        a = expand(DiagRootSpec(4, c))
        expected = sum(c[j] * (-1) ** j for j in range(4))
        assert alternative_native(a) == pytest.approx(expected, abs=1e-12)


class TestSymmetrizationSpectrum:
    def test_lambda0_always_preserved(self, rng):
        for m, n in [(3, 2), (3, 4), (4, 3), (4, 4)]:
            a = random_circulant(rng, m, n)
            assert first_native(a) == pytest.approx(first_native(symmetrize(a)), rel=1e-10, abs=1e-9)

    def test_alternative_preserved_for_even_m_even_n(self, rng):
        a = random_circulant(rng, 4, 4)
        assert alternative_native(a) == pytest.approx(
            alternative_native(symmetrize(a)), rel=1e-10, abs=1e-9
        )

    def test_all_lambda_k_with_unit_power(self, rng):
        # lambda_k survives symmetrization whenever w_k^m = 1
        for m, n in [(3, 6), (4, 4), (4, 6)]:
            a = random_circulant(rng, m, n)
            lam = native_eigenvalues(a).lambdas
            lam_s = native_eigenvalues(symmetrize(a)).lambdas
            for k in range(n):
                w = np.exp(2j * np.pi * k / n)
                if abs(w**m - 1) < 1e-12:
                    assert abs(lam[k] - lam_s[k]) <= 1e-9 * max(1.0, abs(lam[k]))


class TestGershgorin:
    def test_example2_disc(self):
        d = gershgorin(presets.by_name("example2"))
        assert d.center == 1.0
        assert d.radius == pytest.approx(5.0)

    def test_zero_tensor(self):
        d = gershgorin(circulant_from_root(np.zeros((2, 2))))
        assert d.center == 0.0 and d.radius == 0.0

    def test_containment_of_native_eigenvalues(self, rng):
        for m, n in [(2, 4), (3, 3), (4, 2), (3, 6)]:
            for _ in range(10):
                a = random_circulant(rng, m, n)
                disc = gershgorin(a)
                for lam in native_eigenvalues(a).lambdas:
                    assert disc.contains(lam, tol=1e-9)

    def test_showcase_containment(self):
        a = presets.by_name("example1")
        disc = gershgorin(a)
        assert disc.center == pytest.approx(5.91395)
        for lam in native_eigenvalues(a).lambdas:
            assert disc.contains(lam, tol=1e-9)

    def test_radius_rounds_once(self):
        # sum(|root|) - |c0| would round 2^53 + 1 to 2^53 and report radius 0
        a = circulant_from_root(np.array([2.0**53, 1.0, 0.0]))
        assert gershgorin(a).radius == 1.0
        rng = np.random.default_rng(5)
        for shape in [(3, 3, 3), (30, 30, 30)]:  # both sides of the fsum cutoff
            root = rng.uniform(-10.0, 10.0, size=shape)
            root[0, 0, 0] = -1e4
            a = circulant_from_root(root)
            assert gershgorin(a).radius == math.fsum(np.abs(root).reshape(-1)[1:])


class TestEigenResidual:
    def test_first_pair_exact(self, rng):
        a = random_circulant(rng, 3, 4)
        assert eigen_residual(a, first_native(a), np.ones(4)) <= 1e-10

    def test_alternating_pair(self, rng):
        a = random_circulant(rng, 4, 4)
        hat = np.array([1.0, -1.0, 1.0, -1.0])
        assert eigen_residual(a, alternative_native(a), hat) <= 1e-10

    def test_showcase_complex_pair(self):
        a = presets.by_name("example1")
        lam = native_eigenvalues(a).lambdas[1]
        assert eigen_residual(a, lam, native_eigenvector(3, 1)) <= 1e-8

    def test_alternating_h_eigenpair_order3(self):
        # n = 2: the middle native eigenvalue (6) pairs with (1, -1) as a
        # real H-eigenpair even though the order is odd
        a = presets.by_name("example2")
        assert eigen_residual(a, 6.0, np.array([1.0, -1.0])) <= 1e-10

    def test_zero_vector_rejected(self):
        a = presets.by_name("example2")
        with pytest.raises(ValueError):
            eigen_residual(a, 1.0, np.zeros(2))

    def test_non_eigenpair_has_large_residual(self):
        a = presets.by_name("example2")
        assert eigen_residual(a, 100.0, np.ones(2)) > 1.0


class TestExtremeHEigenvalue:
    def test_directed_regular_adjacency(self):
        g = orbit_closure([(1, 2, 4)], n=6, directed=True)
        ext = extreme_h_eigenvalue(adjacency_tensor(g))
        assert ext is not None
        assert ext.kind == "largest"
        assert ext.value == pytest.approx(g.degree)
        ext_q = extreme_h_eigenvalue(signless_laplacian(g))
        assert ext_q.kind == "largest"
        assert ext_q.value == pytest.approx(2 * g.degree)

    def test_laplacian_smallest_zero(self):
        g = orbit_closure([(1, 2, 4)], n=6, directed=True)
        ext = extreme_h_eigenvalue(laplacian(g))
        assert ext.kind == "smallest"
        assert ext.value == pytest.approx(0.0, abs=1e-12)

    def test_alternative_route(self):
        # alternative associated tensor, even n: the middle eigenvalue is the
        # largest H-eigenvalue (value 6 for this instance)
        a = presets.by_name("example2")
        ext = extreme_h_eigenvalue(a)
        assert ext is not None
        assert ext.kind == "largest"
        assert ext.value == pytest.approx(6.0)
        assert ext.basis == "alternative-associated"

    def test_no_structure_gives_none(self, rng):
        while True:
            a = random_circulant(rng, 3, 3)
            from ctensor.core import associated_array

            assoc = associated_array(a)
            if (assoc > 0).any() and (assoc < 0).any():
                break
        assert extreme_h_eigenvalue(a) is None

    def test_extreme_is_h_eigenpair(self):
        g = orbit_closure([(1, 2, 4)], n=6, directed=True)
        for build in (adjacency_tensor, laplacian, signless_laplacian):
            t = build(g)
            ext = extreme_h_eigenvalue(t)
            vec = np.ones(6)
            assert eigen_residual(t, ext.value, vec) <= 1e-10


class TestFormConsistency:
    def test_form_at_ones_equals_n_lambda0(self, rng):
        from ctensor.core import apply_full

        a = random_circulant(rng, 3, 4)
        assert apply_full(a, np.ones(4)) == pytest.approx(4 * first_native(a), rel=1e-10)

    def test_lambda0_against_naive_form(self, rng):
        a = random_circulant(rng, 3, 3)
        dense = materialize(a).array
        assert naive_form(dense, np.ones(3)) == pytest.approx(3 * first_native(a), rel=1e-9)
