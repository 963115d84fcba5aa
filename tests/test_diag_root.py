import math
from fractions import Fraction

import numpy as np
import pytest

from ctensor import presets
from ctensor.core import apply_full, circulant_from_root, entry, materialize
from ctensor.diag_root import DiagRootSpec, diag_root_vector, doubly_psd, expand
from ctensor.psd import check_psd
from ctensor.spectral import (
    alternative_native,
    eigen_residual,
    first_native,
    native_eigenvalues,
)
from ctensor.structure import is_doubly_circulant

from oracles import (
    circulant_eigenvalues,
    circulant_matrix,
    diag_root_eigenpairs,
    diag_root_form,
    diag_root_psd,
    exact_dense_form,
    naive_form,
)


def random_spec(rng, m, n, scale=10.0):
    return DiagRootSpec(m, rng.uniform(-scale, scale, size=n))


class TestExpand:
    def test_boundary_case_form(self):
        a = expand(presets.by_name("example3"))
        assert a.order == 4 and a.dim == 2
        # x1^4 + x1^3 x2 + x1 x2^3 + x2^4
        x = np.array([1.0, 1.0])
        assert apply_full(a, x) == pytest.approx(4.0)

    def test_benchmark_structure(self):
        a = expand(presets.by_name("example5"))
        assert a.order == 4 and a.dim == 3
        assert entry(a, (1, 1, 1, 1)) == pytest.approx(-4.75046)
        assert entry(a, (1, 2, 2, 2)) == pytest.approx(3.58365)

    def test_scaled_identity(self):
        a = expand(DiagRootSpec(4, np.array([2.5, 0.0])))
        eye = np.zeros((2,) * 4)
        np.fill_diagonal(eye, 2.5)
        assert np.allclose(materialize(a).array, eye)

    def test_detector_roundtrip(self, rng):
        spec = random_spec(rng, 4, 3)
        c = diag_root_vector(expand(spec))
        assert np.array_equal(c, spec.c)

    def test_detector_rejects_general_root(self):
        assert diag_root_vector(presets.by_name("example1")) is None


class TestCirculantMatrix:
    def test_layout_first_column(self):
        expected = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=float)
        assert np.array_equal(circulant_matrix(np.array([1.0, 2.0, 3.0])), expected)

    def test_eigja_n2(self):
        mu = circulant_eigenvalues(DiagRootSpec(4, np.array([1.0, 1.0])).c)
        assert sorted(mu.real) == pytest.approx([0.0, 2.0])

    def test_constant_c0(self):
        mu = circulant_eigenvalues(DiagRootSpec(3, np.array([2.0, 0.0, 0.0])).c)
        assert np.allclose(mu, 2.0)

    def test_benchmark_dft(self):
        spec = presets.by_name("example6")
        mu = circulant_eigenvalues(spec.c)
        n = 4
        for k in range(n):
            w = np.exp(2j * np.pi * k / n)
            ref = sum(spec.c[j] * w**j for j in range(n))
            assert mu[k] == pytest.approx(ref, abs=1e-9)

    def test_dense_layout_of_order2_circulant(self):
        # a root vector materializes to the constant-wrapped-diagonal matrix:
        # with root = first row (c0, c3, c2, c1) this is the first-column-c
        # matrix layout
        import numpy as np
        from ctensor.core import circulant_from_root, materialize

        c = np.array([1.0, 2.0, 3.0, 4.0])
        first_row = np.array([c[0], c[3], c[2], c[1]])
        dense = materialize(circulant_from_root(first_row)).array
        assert np.array_equal(dense, circulant_matrix(c))

    def test_matrix_eigenvalue_set_matches(self):
        spec = presets.by_name("example6")
        mu = np.sort_complex(circulant_eigenvalues(spec.c))
        ev = np.sort_complex(np.linalg.eigvals(circulant_matrix(spec.c)))
        assert np.allclose(mu, ev, atol=1e-8)


class TestEigenpairs:
    def test_boundary_case_example_pair(self):
        pairs = diag_root_eigenpairs(presets.by_name("example3"))
        # k=1 (w=-1), l=0: eta = exp(i*pi/3)
        eta = np.exp(1j * np.pi / 3)
        found = [y for _, y in pairs if abs(y[1] - eta) < 1e-12]
        assert found

    def test_first_pair_real(self, rng):
        spec = random_spec(rng, 4, 3)
        pairs = diag_root_eigenpairs(spec)
        lam0, y0 = pairs[0]
        assert abs(lam0.imag) < 1e-10
        assert np.allclose(y0, 1.0)

    def test_all_lambdas_from_matrix(self, rng):
        spec = random_spec(rng, 4, 3)
        mus = circulant_eigenvalues(spec.c)
        for lam, _ in diag_root_eigenpairs(spec):
            assert min(abs(lam - mu) for mu in mus) <= 1e-10 * max(1.0, abs(lam))

    def test_residuals_gate(self, rng):
        for m, n in [(3, 2), (4, 3), (5, 2), (4, 4)]:
            spec = random_spec(rng, m, n)
            a = expand(spec)
            for lam, y in diag_root_eigenpairs(spec):
                assert eigen_residual(a, lam, y) <= 1e-8

    def test_native_contained_in_matrix_eigenvalues(self, rng):
        for m, n in [(3, 2), (4, 3), (4, 4), (3, 6)]:
            spec = random_spec(rng, m, n)
            native = native_eigenvalues(expand(spec)).lambdas
            mus = circulant_eigenvalues(spec.c)
            for lam in native:
                assert min(abs(lam - mu) for mu in mus) <= 1e-9 * max(1.0, abs(lam))

    def test_full_equality_when_coprime(self, rng):
        # the native list is a permutation of the matrix list when
        # gcd(m-1, n) = 1
        for m, n in [(4, 2), (4, 4), (3, 3), (4, 5)]:
            if math.gcd(m - 1, n) != 1:
                continue
            spec = random_spec(rng, m, n)
            native = np.sort_complex(native_eigenvalues(expand(spec)).lambdas)
            mus = np.sort_complex(circulant_eigenvalues(spec.c))
            assert np.allclose(native, mus, atol=1e-8)

    def test_non_coprime_multisets_can_differ(self):
        # gcd(2, 4) = 2: the exponent map collapses, so containment holds but
        # the multisets genuinely differ for generic coefficients
        spec = DiagRootSpec(3, np.array([1.0, 2.0, -3.0, 0.5]))
        native = native_eigenvalues(expand(spec)).lambdas
        mus = circulant_eigenvalues(spec.c)
        assert not np.allclose(np.sort_complex(native), np.sort_complex(mus), atol=1e-6)
        for lam in native:
            assert min(abs(lam - mu) for mu in mus) <= 1e-9


class TestDiagRootForm:
    def test_boundary_case_factored_zero(self):
        spec = presets.by_name("example3")
        assert diag_root_form(spec, np.array([1.0, -1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_unit_vector_gives_c0(self, rng):
        spec = random_spec(rng, 4, 3)
        for j in range(3):
            x = np.zeros(3)
            x[j] = 1.0
            assert diag_root_form(spec, x) == pytest.approx(spec.c[0], abs=1e-12)

    def test_matches_apply_full(self, rng):
        for _ in range(1000):
            m = int(rng.integers(1, 4)) * 2
            m = max(m, 2)
            n = int(rng.integers(2, 5))
            spec = random_spec(rng, m, n)
            a = expand(spec)
            x = rng.normal(size=n)
            lhs = diag_root_form(spec, x)
            rhs = apply_full(a, x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)

    def test_matches_naive_form(self, rng):
        spec = random_spec(rng, 4, 3)
        dense = materialize(expand(spec)).array
        x = rng.normal(size=3)
        assert diag_root_form(spec, x) == pytest.approx(naive_form(dense, x), rel=1e-9)

    def test_eigenvalue_sums_match_spectral(self, rng):
        spec = random_spec(rng, 4, 4)
        a = expand(spec)
        assert first_native(a) == math.fsum(spec.c)
        assert alternative_native(a) == math.fsum(
            v * (-1.0) ** j for j, v in enumerate(spec.c)
        )


class TestDiagRootPsd:
    """``check_psd`` on diagonal roots, against the paper's decision
    (``oracles.diag_root_psd``): the necessary checks and dominance decide
    it, bar the block-alternating refutation."""

    def test_boundary_dominance(self):
        spec = presets.by_name("example3")
        v = check_psd(expand(spec))
        assert (v.decision, v.certificate) == ("psd", "diag_dominance")
        assert diag_root_psd(spec).details["route"] == "dominance"

    def test_nonpositive_tail_refuted(self):
        v = check_psd(expand(DiagRootSpec(4, np.array([1.0, -2.0]))))
        assert v.decision == "not_psd"
        assert np.allclose(v.witness, 1.0)
        assert v.details["witness_value"] < 0

    def test_nonpositive_tail_accepted_at_zero_margin(self):
        v = check_psd(expand(DiagRootSpec(4, np.array([3.0, -1.0, -1.0, -1.0]))))
        assert v.decision == "psd"

    def test_strictly_negative_lambda0(self):
        a = expand(DiagRootSpec(4, np.array([2.0, -2.0, -2.0, -2.0])))
        v = check_psd(a)
        assert v.decision == "not_psd"
        assert apply_full(a, v.witness) < 0

    def test_one_alternative_tail_refuted_by_alternating_check(self):
        # 1-alternative tail with failed dominance: lambda_{n/2} =
        # 1 - 2 - 2 - 1 = -4 < 0, so the necessary check on the alternating
        # eigenvector refutes before any block route is tried
        spec = DiagRootSpec(4, np.array([1.0, 2.0, -2.0, 1.0]))
        v = check_psd(expand(spec))
        assert v.decision == "not_psd"
        assert v.details["failed"] == "alternative_native"
        assert ("alternative_native", -4.0, False) in v.details["necessary"]
        assert apply_full(expand(spec), v.witness) < 0
        ref = diag_root_psd(spec)
        assert ref.details["route"] == "necessary-alternating"
        assert np.array_equal(ref.witness, v.witness)

    @pytest.mark.parametrize(
        "c, k", [((1.0, 0.0, 2.0, 0.0), 2), ((1.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0), 4)]
    )
    def test_block_alternating_routes(self, c, k):
        # a k-alternative tail (k >= 2) with c_0 >= 0, both real native
        # eigenvalues positive and a negative dominance margin: only the
        # stride-k block route decides it
        spec = DiagRootSpec(4, np.array(c))
        a = expand(spec)
        v, ref = check_psd(a, mode="certificates_only"), diag_root_psd(spec)
        assert (v.decision, v.certificate) == ("not_psd", "diag_root")
        assert v.details["route"] == ref.details["route"] == f"block-alternating-k{k}"
        assert ref.details["dominance_margin"] < 0
        assert np.array_equal(v.witness, ref.witness)
        assert exact_dense_form(a, v.witness) < 0

    def test_sign_structured_tails_refuted_by_necessary_checks(self):
        # with c_j <= 0 (j >= 1) lambda_0, and with a 1-alternative tail
        # lambda_{n/2}, is the rounded sum of c_0 and the -|c_j|: the
        # dominance margin itself, so no later route sees a negative margin
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(60):
            n = int(rng.integers(2, 9))
            mags = np.abs(rng.normal(size=n - 1)) * (rng.random(n - 1) < 0.8)
            mags[0] += 0.25
            alternating = n % 2 == 0 and trial % 2
            signs = -((-1.0) ** np.arange(1, n)) if alternating else -np.ones(n - 1)
            edge = np.nextafter(math.fsum(mags), 0)  # below the exact sum
            c0 = edge if trial % 3 == 0 else edge * rng.uniform(0, 0.99)
            spec = DiagRootSpec(4, np.concatenate([[c0], signs * mags]))
            assert Fraction(c0) < sum(map(Fraction, mags))
            v = check_psd(expand(spec), mode="certificates_only")
            assert v.decision == "not_psd"
            assert diag_root_psd(spec).details["route"].startswith("necessary-")
            assert exact_dense_form(expand(spec), v.witness) < 0
            seen.add(v.details["failed"])
        assert seen == {"first_native", "alternative_native"}

    def test_inconclusive_routes_to_general_chain(self):
        spec = DiagRootSpec(4, np.array([1.0, 2.0, -2.0, 0.0]))
        v = check_psd(expand(spec), mode="certificates_only")
        assert v.decision in ("inconclusive", "not_psd")
        if v.decision == "inconclusive":
            assert v.details["diag_root"] == "undecided"
            assert diag_root_psd(spec) is None

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            check_psd(expand(DiagRootSpec(3, np.array([1.0, 1.0]))))

    def test_exactness_on_hairline_margin(self):
        # decisions track the exact sum of the given floats: 0.1+0.2 rounds
        # up, so against a non-positive tail (-0.1, -0.2) it is (just barely)
        # dominant, while the float 0.3 falls short by one rounding gap
        v = check_psd(expand(DiagRootSpec(4, np.array([0.1 + 0.2, -0.1, -0.2]))))
        assert v.decision == "psd"
        v2 = check_psd(expand(DiagRootSpec(4, np.array([0.3, -0.1, -0.2]))))
        assert v2.decision == "not_psd"
        assert v2.details["witness_value_exact"] < 0

    def test_exact_sign_decides_where_float_rounds(self):
        # lambda0 = -2^-60 exactly, but the float form at the all-ones
        # witness rounds to 0: the rational value carries the refutation
        v = check_psd(expand(DiagRootSpec(4, np.array([1.0, -(2.0**-60), -1.0]))))
        assert v.decision == "not_psd"
        assert v.details["witness_value"] == 0.0
        assert v.details["witness_value_exact"] < 0

    @staticmethod
    def _specs(rng, m):
        """Seeded diagonal roots: random tails, and dyadic tails (so the
        dominance tie is a float) with c_0 at the exact margin and one ulp
        to each side, and at half of it: mixed-sign, sign-structured and
        k-alternative tails (k >= 1, n in {4, 6, 8} for those)."""
        for trial in range(80):
            kind = trial % 4
            n = int(rng.integers(2, 5)) * 2 if kind == 3 else int(rng.integers(2, 9))
            if kind == 0:
                yield DiagRootSpec(m, rng.uniform(-10, 10, size=n))
                continue
            mags = rng.integers(0, 2**10, size=n - 1) * 2.0 ** int(rng.integers(-20, 5))
            mags *= rng.random(n - 1) < 0.8
            j = np.arange(1, n)
            if kind == 1:
                tail = mags * rng.choice([-1.0, 1.0], size=n - 1)
            elif kind == 2:
                tail = -mags if n % 2 or trial % 8 == 2 else mags * (-1.0) ** (j + 1)
            else:
                ks = [k for k in range(1, n // 2 + 1) if n % (2 * k) == 0]
                k = ks[int(rng.integers(len(ks)))]
                tail = mags * np.where(j % k, 0.0, np.where((j // k) % 2, 1.0, -1.0))
            edge = math.fsum(np.abs(tail).tolist())
            for c0 in (edge / 2, np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf)):
                yield DiagRootSpec(m, np.concatenate([[c0], tail]))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_same_decision_as_the_theorem(self, m):
        # wherever the theorem decides, the chain reaches its decision, and
        # a block-alternating refutation has the same witness
        rng = np.random.default_rng([m, 15])
        decided = block = 0
        for spec in self._specs(rng, m):
            a = expand(spec)
            ref, v = diag_root_psd(spec), check_psd(a, mode="certificates_only")
            if v.decision == "not_psd" and a.dim**m <= 4096:
                assert exact_dense_form(a, v.witness) < 0
            if ref is None:
                continue
            decided += 1
            assert v.decision == ref.decision
            if ref.details["route"].startswith("block-alternating"):
                block += 1
                assert (v.certificate, v.details["route"]) == ("diag_root", ref.details["route"])
                assert np.array_equal(v.witness, ref.witness)
        assert decided >= 200 and block >= 5


class TestDoubly:
    def test_factored_identity(self, rng):
        c = rng.normal(size=3)
        root = circulant_matrix(c)
        a = circulant_from_root(root)  # m=3 doubly circulant
        assert is_doubly_circulant(a)
        for _ in range(10):
            x = rng.normal(size=3)
            lhs = x.sum() * apply_full(a.root, x)
            rhs = apply_full(a, x)
            scale = max(1.0, abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_deep_factored_identity(self, rng):
        spec = presets.by_name("example4_case2")
        for _ in range(10):
            x = rng.normal(size=2)
            s = x.sum()
            q = x[0] ** 2 - 1.5 * x[0] * x[1] + x[1] ** 2
            assert apply_full(spec, x) == pytest.approx(s * s * q, rel=1e-9, abs=1e-12)

    def test_case1_refuted_and_probe_vector_negative(self):
        a = presets.by_name("example4_case1")
        assert apply_full(a, np.array([1.0, -2.0])) == pytest.approx(-3.0)
        v = doubly_psd(a)
        assert v.decision == "not_psd"
        assert apply_full(a, v.witness) < 0

    def test_case2_certified(self):
        v = doubly_psd(presets.by_name("example4_case2"))
        assert v.decision == "psd"
        assert v.certificate == "doubly_circulant_reduction"

    def test_case1_inner_matrix_psd_is_not_enough(self):
        # diag(1, 5) is positive semi-definite as a matrix, yet the order-4
        # tensor is refuted: the deep reduction needs a circulant inner root,
        # which diag(1, 5) is not
        from ctensor.core import DenseTensor, is_circulant

        a = presets.by_name("example4_case1")
        inner = a.root.array[0]
        assert np.array_equal(inner, np.diag([1.0, 5.0]))
        assert np.all(np.linalg.eigvalsh((inner + inner.T) / 2) >= 0)
        assert not is_circulant(DenseTensor(inner))
        assert doubly_psd(a).decision == "not_psd"

    def test_non_doubly_rejected(self):
        with pytest.raises(ValueError):
            doubly_psd(presets.by_name("example1"))

    def test_sign_flip_route(self):
        # root form that does not vanish on the sum-zero hyperplane
        root = np.zeros((2, 2, 2))
        root[0, 0, 0] = 1.0
        root[1, 1, 1] = 1.0  # inner root = identity, circulant? no: diag(1,1) is circulant
        # use an asymmetric circulant root instead
        c = np.array([0.0, 1.0])
        root = circulant_matrix(c)  # [[0,1],[1,0]]
        a1 = circulant_from_root(root)  # order 3, circulant
        a = circulant_from_root(materialize(a1).array)  # order 4 doubly circulant
        v = doubly_psd(a)
        # g(x) = A1 x^3 with root [[0,1],[1,0]]: evaluate on (1,-1):
        g_val = apply_full(a1, np.array([1.0, -1.0]))
        if abs(g_val) > 1e-12:
            assert v.decision == "not_psd"
            assert apply_full(a, v.witness) < 0
        else:
            assert v.decision in ("psd", "not_psd", "inconclusive")

    def test_deep_recursion_order6(self, rng):
        # order-6 doubly circulant with doubly circulant root: reduction
        # recurses to an order-4 certificate
        c = np.abs(rng.normal(size=2)) + np.array([3.0, 0.0])
        inner_root = np.zeros((2, 2, 2))
        for j in range(2):
            inner_root[(j,) * 3] = c[j] if j == 0 else -0.5
        inner_root[0, 0, 0] = 5.0
        inner_root[1, 1, 1] = 1.0
        inner = circulant_from_root(inner_root)  # order 4 circulant, diag root
        mid = circulant_from_root(materialize(inner).array)  # order 5
        outer = circulant_from_root(materialize(mid).array)  # order 6 doubly
        assert is_doubly_circulant(outer)
        v = doubly_psd(outer)
        # inner diag root (5, 1) is dominance-certified, so the reduction
        # should certify the outer tensor
        assert v.decision == "psd"

    @pytest.mark.parametrize("which", ["quadratic", "recursion"])
    def test_nonnegative_witness_not_emitted(self, monkeypatch, which):
        import ctensor.diag_root as dr

        if which == "quadratic":
            a = presets.by_name("example4_case1")
        else:
            inner = expand(DiagRootSpec(4, np.array([1.0, -2.0])))
            a = circulant_from_root(materialize(circulant_from_root(materialize(inner).array)).array)
        assert doubly_psd(a).decision == "not_psd"
        # hand the route a witness whose form value is 0, not negative
        monkeypatch.setattr(dr, "_perturbed_witness", lambda a, d: np.zeros(a.dim))
        v = doubly_psd(a)
        assert v.decision != "not_psd" or (
            np.any(v.witness) and apply_full(a, v.witness) < 0
        )
        if which == "quadratic":
            assert v.details["route"] == "quadratic-residual-unresolved"
