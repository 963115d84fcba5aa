import numpy as np
import pytest

from ctensor import presets
from ctensor.core import (
    DenseTensor,
    apply_full,
    circulant_from_root,
    identity_tensor,
    materialize,
)
from ctensor.diag_root import DiagRootSpec, expand
from ctensor.hypergraph import laplacian, orbit_closure, signless_laplacian
from ctensor.psd import (
    brute_force_min,
    check_psd,
    exact_special_cases,
    necessary_checks,
    sufficient_b_class,
    sufficient_diag_dominance,
)

from ctensor.verdict import not_psd_verdict

from oracles import random_circulant


class TestNecessaryChecks:
    def test_negative_diagonal(self):
        a = expand(DiagRootSpec(4, np.array([-1.0, 0.5])))
        checks, verdict = necessary_checks(a)
        assert verdict is not None and verdict.decision == "not_psd"
        assert apply_full(a, verdict.witness) < 0
        assert verdict.witness[0] == 1.0 and verdict.witness[1] == 0.0

    def test_negative_lambda0(self):
        a = expand(DiagRootSpec(4, np.array([1.0, -3.0])))
        checks, verdict = necessary_checks(a)
        assert verdict is not None
        assert np.allclose(verdict.witness, 1.0)
        assert apply_full(a, verdict.witness) == pytest.approx(2 * (-2.0))

    def test_negative_alternating_eigenvalue(self):
        # lambda0 fine but the alternating sum is negative
        a = expand(DiagRootSpec(4, np.array([1.0, 3.0])))
        checks, verdict = necessary_checks(a)
        assert verdict is not None
        assert np.allclose(verdict.witness, [1.0, -1.0])

    def test_hypergraph_laplacian_passes(self):
        g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
        checks, verdict = necessary_checks(laplacian(g))
        assert verdict is None
        assert all(c.passed for c in checks)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            necessary_checks(presets.by_name("example1"))

    def test_dense_input_rejected(self):
        with pytest.raises(TypeError):
            necessary_checks(identity_tensor(4, 2))


class TestRefutationEmitter:
    def test_only_negative_values_refute(self):
        a = expand(DiagRootSpec(4, np.array([1.0, -3.0])))
        assert not_psd_verdict(a, np.zeros(2), None, {}) is None
        assert not_psd_verdict(a, np.array([1.0, 0.0]), None, {}) is None  # value 1
        v = not_psd_verdict(a, np.ones(2), "tag", {"k": 1})
        assert v.decision == "not_psd" and v.certificate == "tag"
        assert v.details == {"k": 1, "witness_value": apply_full(a, np.ones(2))}

    def test_exact_value_overrides_rounding(self):
        from fractions import Fraction

        a = expand(DiagRootSpec(4, np.array([1.0, 1.0])))
        assert not_psd_verdict(a, np.ones(2), None, {}, exact=Fraction(1)) is None
        v = not_psd_verdict(a, np.ones(2), None, {}, exact=Fraction(-1, 2**70))
        assert v.details["witness_value"] > 0 > v.details["witness_value_exact"]


class TestDiagDominance:
    def test_boundary_equality_certifies(self):
        v = sufficient_diag_dominance(expand(presets.by_name("example3")))
        assert v is not None and v.decision == "psd"

    def test_diag_spec_case(self):
        v = sufficient_diag_dominance(expand(DiagRootSpec(4, np.array([5.0, 1.0, -2.0, 1.0]))))
        assert v is not None

    def test_zero_diagonal_no_certificate(self):
        v = sufficient_diag_dominance(expand(DiagRootSpec(4, np.array([0.0, 1.0]))))
        assert v is None

    def test_certified_implies_nonnegative_minimum(self, rng):
        found = 0
        while found < 25:
            a = random_circulant(rng, 4, 2, scale=2.0)
            root = a.root.array.copy()
            root[0, 0, 0] = np.abs(root).sum() + rng.uniform(0, 2)
            a = circulant_from_root(root)
            v = sufficient_diag_dominance(a)
            assert v is not None
            found += 1
            assert brute_force_min(a).value >= -1e-6


class TestBClassCertificate:
    def test_hypergraph_laplacian_is_b0(self):
        # row sums are 2**-54 rather than 0 (1/6 rounds down), so under the
        # exact-float-entry semantics the strict class fires as well
        g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
        v = sufficient_b_class(laplacian(g))
        assert v is not None and v.is_psd

    def test_identity_is_strict(self):
        root = np.zeros((2, 2, 2))
        root[0, 0, 0] = 1.0
        v = sufficient_b_class(circulant_from_root(root))
        assert v is not None and v.decision == "psd_strict"

    def test_dense_b0_matrix_rejected_by_route(self):
        # the B0 matrix [[10,10],[1,1]] is not circulant; the circulant-only
        # route must refuse it (its form is indefinite: -8 at (1,-9))
        a = DenseTensor(np.array([[10.0, 10.0], [1.0, 1.0]]))
        with pytest.raises(TypeError):
            sufficient_b_class(a)
        x = np.array([1.0, -9.0])
        assert apply_full(a, x) == pytest.approx(-8.0)


class TestExactSpecialCases:
    def test_nonpositive_associated_psd(self):
        v = exact_special_cases(expand(DiagRootSpec(4, np.array([3.0, -1.0, -1.0, -1.0]))))
        assert v is not None and v.decision == "psd"
        assert v.certificate == "nonpos_associated"

    def test_nonpositive_associated_refuted(self):
        a = expand(DiagRootSpec(4, np.array([2.0, -2.0, -2.0, -2.0])))
        v = exact_special_cases(a)
        assert v is not None and v.decision == "not_psd"
        assert apply_full(a, v.witness) == pytest.approx(4 * (-4.0))

    def test_cor4_matches_lambda0_sign_exactly(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            c = np.concatenate([[rng.uniform(0, 5)], -np.abs(rng.normal(size=n - 1))])
            a = expand(DiagRootSpec(4, c))
            v = exact_special_cases(a)
            assert v is not None
            lam0 = c.sum()
            if lam0 >= 1e-12:
                assert v.decision == "psd"
            elif lam0 <= -1e-12:
                assert v.decision == "not_psd"

    def test_negatively_alternative_boundary(self):
        # negatively alternative associated tensor with alternating sum zero
        c = np.array([1.0, -0.5, 0.0, -0.5])  # tail strictly nonpos & alt signs
        a = expand(DiagRootSpec(4, c))
        from ctensor.core import associated_array
        from ctensor.structure import is_negatively_alternative

        if is_negatively_alternative(associated_array(a)):
            v = exact_special_cases(a)
            assert v is not None


class TestCheckPsdChain:
    def test_boundary_diag_via_dominance(self):
        v = check_psd(expand(presets.by_name("example3")), mode="certificates_only")
        assert v.decision == "psd"
        assert v.certificate == "diag_root"  # the diag-root route fires first

    def test_benchmark_c43_refuted_immediately(self):
        v = check_psd(expand(presets.by_name("example5")), mode="certificates_only")
        assert v.decision == "not_psd"
        a = expand(presets.by_name("example5"))
        assert apply_full(a, v.witness) < 0

    def test_doubly_route_case2(self):
        v = check_psd(presets.by_name("example4_case2"), mode="certificates_only")
        assert v.decision == "psd"
        assert v.certificate == "doubly_circulant_reduction"

    def test_doubly_route_case1(self):
        v = check_psd(presets.by_name("example4_case1"), mode="certificates_only")
        assert v.decision == "not_psd"

    def test_numeric_fallback_refutes(self, rng):
        # generic indefinite tensor none of the certificates touch
        while True:
            a = random_circulant(rng, 4, 2)
            if check_psd(a, mode="certificates_only").decision == "inconclusive":
                break
        bf = brute_force_min(a)
        if bf.value < -1e-3:
            v = check_psd(a, mode="with_numeric", restarts=8)
            assert v.decision == "not_psd"
            assert apply_full(a, v.witness) < 0

    def test_numeric_never_claims_psd(self):
        # semi-definite but not certificate-decidable: numeric evidence stays
        # inconclusive
        c = np.array([1.0, 0.7, 0.7])  # positive tail, dominance fails
        a = expand(DiagRootSpec(4, c))
        if brute_force_min(a).value >= 0:
            v = check_psd(a, mode="with_numeric", restarts=8)
            assert v.decision == "inconclusive"
            assert v.certificate == "numeric_evidence"
            assert v.details["numeric_best"] >= -1e-6

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            check_psd(presets.by_name("example1"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            check_psd(presets.by_name("example4_case2"), mode="fast")


class TestBruteForce:
    def test_boundary_diag_min_zero(self):
        res = brute_force_min(expand(presets.by_name("example3")))
        assert res.value == pytest.approx(0.0, abs=1e-8)
        x = res.argmin
        assert abs(x[0] + x[1]) < 1e-3  # minimizer near the x1 = -x2 line

    def test_benchmark_c44_value(self):
        res = brute_force_min(expand(presets.by_name("example6")))
        assert res.value == pytest.approx(-1.79658, abs=1e-3)

    def test_identity_min_half(self):
        root = np.zeros((2, 2, 2))
        root[0, 0, 0] = 1.0
        res = brute_force_min(circulant_from_root(root))
        assert res.value == pytest.approx(0.5, abs=1e-6)
        assert np.allclose(np.abs(res.argmin), np.sqrt(0.5), atol=1e-3)

    def test_value_is_upper_bound_with_reported_gap(self, rng):
        a = random_circulant(rng, 4, 3)
        res = brute_force_min(a)
        assert np.linalg.norm(res.argmin) == pytest.approx(1.0, abs=1e-9)
        assert apply_full(a, res.argmin) == pytest.approx(res.value, rel=1e-9, abs=1e-9)
        assert res.details["lower_bound"] <= res.value
        assert res.details["lipschitz"] > 0

    def test_unsupported_dim(self, rng):
        with pytest.raises(ValueError):
            brute_force_min(random_circulant(rng, 4, 5))


class TestSoundness:
    def test_every_not_psd_witness_verifies(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            a = random_circulant(rng, 4, n)
            v = check_psd(a, mode="with_numeric", restarts=6, seed=3)
            if v.decision == "not_psd":
                assert v.witness is not None
                assert apply_full(a, v.witness) < 0

    def test_certified_psd_has_nonnegative_minimum(self, rng):
        # certificates are sound: cross-check against the grid oracle
        tested = 0
        for _ in range(300):
            n = int(rng.integers(2, 4))
            a = random_circulant(rng, 4, n, scale=3.0)
            root = a.root.array.copy()
            root[(0,) * 3] = np.abs(root).sum() * rng.uniform(0.9, 1.6)
            a = circulant_from_root(root)
            v = check_psd(a, mode="certificates_only")
            if v.is_psd:
                tested += 1
                assert brute_force_min(a).value >= -1e-6
            if tested >= 40:
                break
        assert tested >= 20

    def test_two_sufficient_routes_are_incomparable(self):
        # one tensor certified by dominance but not B0, and one B0-certified
        # tensor failing dominance
        dom_not_b0 = expand(DiagRootSpec(4, np.array([1.0, 0.5, -0.5])))
        assert sufficient_diag_dominance(dom_not_b0) is not None
        from ctensor.structure import b_class

        # entry average 3/81 falls below the off-diagonal maximum 0.5
        assert not b_class(dom_not_b0).is_b0

        g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
        lap = laplacian(g)
        assert b_class(lap).is_b0
        # Laplacian *is* dominance-certified (equality), so build a B0 tensor
        # that dominance misses: big positive off-diagonal mass
        root = np.full((3, 3, 3), 1.0)
        root[0, 0, 0] = 4.0
        b0_not_dom = circulant_from_root(root)
        assert b_class(b0_not_dom).is_b0
        assert sufficient_diag_dominance(b0_not_dom) is None
        v = check_psd(b0_not_dom, mode="certificates_only")
        assert v.is_psd
