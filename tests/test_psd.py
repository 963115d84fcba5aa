import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ctensor.verdict as verdict_mod
from ctensor import presets
from ctensor.admm import AdmmParams, multi_start
from ctensor.core import (
    DenseTensor,
    _exact_form,
    _normalized,
    apply_full,
    circulant_from_root,
    materialize,
)
from ctensor.diag_root import DiagRootSpec, expand
from ctensor.hypergraph import laplacian, orbit_closure
from ctensor.psd import (
    brute_force_min,
    check_psd,
    necessary_checks,
    sufficient_b_class,
    sufficient_diag_dominance,
)

from ctensor.structure import b_class
from ctensor.verdict import _coarse_band, _rounding_band, not_psd_verdict

from oracles import exact_dense_form, exact_special_cases, random_circulant


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
        assert all(passed for _, _, passed in checks)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            necessary_checks(presets.by_name("example1"))

    def test_dense_input_rejected(self):
        with pytest.raises(TypeError):
            necessary_checks(materialize(expand(DiagRootSpec(4, np.eye(1, 2)[0]))))


class TestRefutationEmitter:
    def test_only_negative_values_refute(self):
        a = expand(DiagRootSpec(4, np.array([1.0, -3.0])))
        assert not_psd_verdict(a, np.zeros(2), None, {}) is None
        assert not_psd_verdict(a, np.array([1.0, 0.0]), None, {}) is None  # value 1
        v = not_psd_verdict(a, np.ones(2), "tag", {"k": 1})
        assert v.decision == "not_psd" and v.certificate == "tag"
        assert v.details == {"k": 1, "witness_value": apply_full(a, np.ones(2))}

    # lambda0 = -2^-60 exactly, and the float form at 1 rounds to 0
    HAIRLINE = DiagRootSpec(4, [1.0, -(2.0**-60), -1.0])

    def test_exact_value_overrides_rounding(self):
        v = not_psd_verdict(expand(self.HAIRLINE), np.ones(3), "tag", {})
        assert v.decision == "not_psd" and v.certificate == "tag"
        assert v.details["witness_value"] == 0.0
        assert v.details["witness_value_exact"] == -3 * 2.0**-60

    def test_exact_value_decides(self, monkeypatch):
        # the same in-band witness with an exact value of 0 is not emitted
        monkeypatch.setattr(verdict_mod, "_exact_form", lambda a, w: Fraction(0))
        assert not_psd_verdict(expand(self.HAIRLINE), np.ones(3), "tag", {}) is None

    def test_exact_value_only_in_band(self, monkeypatch):
        def fail(a, w):
            raise AssertionError("exact evaluation outside the rounding band")

        monkeypatch.setattr(verdict_mod, "_exact_form", fail)
        a = expand(DiagRootSpec(4, np.array([1.0, -3.0])))
        v = not_psd_verdict(a, np.ones(2), None, {})
        assert "witness_value_exact" not in v.details
        assert not_psd_verdict(a, np.array([1.0, 0.0]), None, {}) is None

    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000, 2.0**-1060, 2.0**900],
                             ids=["1", "2^-1000", "2^-1060", "2^900"])
    def test_rounding_band_bounds_the_error(self, rng, scale):
        # random roots and witnesses, down into gradual underflow
        for _ in range(20):
            m, n = int(rng.choice([2, 4, 6])), int(rng.integers(2, 5))
            a = circulant_from_root(rng.uniform(-1.0, 1.0, size=(n,) * (m - 1)) * scale)
            for t in (a, materialize(a)):
                w = rng.normal(size=n) * 2.0 ** rng.integers(-3, 3, size=n)
                err = Fraction(apply_full(t, w)) - exact_dense_form(t, w)
                assert abs(err) <= Fraction(_rounding_band(t, w, np.max(np.abs(w))))

    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000, 2.0**-1060, 2.0**900],
                             ids=["1", "2^-1000", "2^-1060", "2^900"])
    def test_coarse_band_bounds_the_band(self, rng, scale):
        # constant magnitudes make M = max|w|^m sum|A| exactly, where the
        # float M' may round above it
        for trial in range(40):
            m, n = int(rng.choice([2, 4, 6])), int(rng.integers(2, 5))
            root = rng.uniform(-1.0, 1.0, size=(n,) * (m - 1)) * scale
            w = rng.normal(size=n) * 2.0 ** rng.integers(-8, 8, size=n)
            if trial % 2:
                root = np.sign(root) * scale
                w = np.sign(w) * 2.0 ** int(rng.integers(-8, 8))
            a = circulant_from_root(root)
            top = np.max(np.abs(w))
            for t in (a, materialize(a)):
                assert _coarse_band(t, top) >= _rounding_band(t, w, top)

    def test_band_contraction_only_within_coarse_band(self, monkeypatch):
        def fail(a, w, top):
            raise AssertionError("band contraction for a value outside the coarse band")

        monkeypatch.setattr(verdict_mod, "_rounding_band", fail)
        a = expand(DiagRootSpec(4, np.array([1.0, -3.0])))
        v = not_psd_verdict(a, np.ones(2), None, {})
        assert v.decision == "not_psd" and "witness_value_exact" not in v.details
        assert not_psd_verdict(a, np.array([1.0, 0.0]), None, {}) is None


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

    def test_radius_beyond_float_range(self):
        # c_0 = 1e308 against off-diagonal magnitudes summing to 2e308: no
        # certificate, and the chain (lambda_0 = 1e308, an intermediate
        # overflow for math.fsum) runs to its end
        root = np.zeros(8)
        root[:3] = [1e308, 1e308, -1e308]
        a = circulant_from_root(root.reshape(2, 2, 2))
        assert sufficient_diag_dominance(a) is None
        v = check_psd(a, mode="certificates_only")
        assert v.decision == "inconclusive"
        assert v.details["necessary"][1] == ("first_native", 1e308, True)

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
        # c0 drawn at random, cancelling a dyadic tail exactly, or cancelling
        # a random tail up to the rounding of its sum (either sign)
        zeros = 0
        for i in range(60):
            n = int(rng.integers(2, 5))
            if i % 3 == 1:
                tail = -rng.integers(0, 9, size=n - 1) / 8.0
            else:
                tail = -np.abs(rng.normal(size=n - 1))
            c0 = rng.uniform(0, 5) if i % 3 == 0 else -math.fsum(tail)
            c = np.concatenate([[c0], tail])
            v = exact_special_cases(expand(DiagRootSpec(4, c)))
            lam0 = sum(map(Fraction, c))
            zeros += lam0 == 0
            assert v is not None
            assert v.decision == ("psd" if lam0 >= 0 else "not_psd")
        assert zeros >= 20

    def test_negatively_alternative_boundary(self):
        # the associated tensor is negatively alternative (odd offsets >= 0
        # at even m) and its alternating sum is exactly zero
        a = expand(DiagRootSpec(4, np.array([1.0, 0.5, 0.0, 0.5])))
        v = exact_special_cases(a)
        assert (v.decision, v.certificate) == ("psd", "negatively_alternative")
        assert v.details["lambda_n_half"] == 0.0
        assert check_psd(a, mode="certificates_only").certificate == "diag_dominance"


class TestSignStructuredSubsumed:
    """check_psd runs no sign-structured stage: after the necessary checks a
    non-positive associated tensor has c0 - sum|off| = lambda_0 >= 0 and a
    negatively alternative one c0 - sum|off| = lambda_{n/2} >= 0, so
    diagonal dominance decides first.  Checked with c0 at the exact
    boundary and one ulp on each side."""

    @staticmethod
    def _roots(m, n, seed):
        rng = np.random.default_rng([m, n, seed])
        shape = (n,) * (m - 1)
        # dyadic entries: the boundary sum|off| is a float, exactly
        mags = rng.integers(0, 2**20, size=shape) * 2.0 ** int(rng.integers(-40, 10))
        for signs in (-np.ones(shape), -((-1.0) ** np.indices(shape).sum(axis=0))):
            off = signs * mags
            off[(0,) * (m - 1)] = 0.0
            edge = math.fsum(np.abs(off).ravel().tolist())
            for c0 in (np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf)):
                root = off.copy()
                root[(0,) * (m - 1)] = c0
                yield circulant_from_root(root), c0 >= edge

    @pytest.mark.parametrize("m,n", [(2, 6), (4, 2), (4, 4), (6, 2)])
    def test_same_decision_as_exact_special_cases(self, m, n):
        for seed in range(5):
            for a, psd in self._roots(m, n, seed):
                special = exact_special_cases(a)
                v = check_psd(a, mode="certificates_only")
                assert special.decision == v.decision == ("psd" if psd else "not_psd")
                if psd:
                    assert sufficient_diag_dominance(a) is not None
                    assert v.certificate == "diag_dominance"


def _signed_ones(sign_pattern: bool) -> np.ndarray:
    root = -np.ones((2, 2, 2))
    if sign_pattern:
        root = -((-1.0) ** np.indices((2, 2, 2)).sum(axis=0))
    return root


def _dominance_root(offs) -> np.ndarray:
    root = np.zeros((4, 4, 4))
    root[0, 0, 0] = 1.0
    root[0, 0, 2], root[0, 2, 2] = offs
    return root


def _b_root(c0: float) -> np.ndarray:
    root = np.ones((3, 3, 3))
    root[0, 0, 0] = c0
    return root


# roots certified psd through a rounded comparison, though not PSD: the
# exact form is negative at the given point
NOT_PSD_HAIRLINE = {
    # lambda0 = -2^-44: A 1^4 = -2^-43
    "nonpos_associated": (_signed_ones(False), 7 - 2.0**-44, np.ones(2)),
    # lambda_{n/2} = -2^-44
    "negatively_alternative": (_signed_ones(True), 7 - 2.0**-44, np.array([1.0, -1.0])),
    # c0 = 1 against off-diagonal magnitudes 1 + 2^-60: A s^4 = -2^-58
    "diag_dominance": (_dominance_root((1.0, -(2.0**-60))), 1.0, np.array([1.0, 1.0, -1.0, -1.0])),
    # row sum 27 - 2^-52 against 27 * max_off = 27: A w^4 = -2^-51
    "b0": (_b_root(1 - 2.0**-52), 1 - 2.0**-52, np.array([1.0, -1.0, 0.0])),
}


def _hairline_tensor(name):
    root, c0, point = NOT_PSD_HAIRLINE[name]
    root = root.copy()
    root[0, 0, 0] = c0
    return circulant_from_root(root), point


class TestHairlineCertificates:
    """Certificate inequalities decided exactly, on both sides of zero."""

    @pytest.mark.parametrize("name", list(NOT_PSD_HAIRLINE))
    def test_point_is_negative(self, name):
        a, point = _hairline_tensor(name)
        assert exact_dense_form(a, point) < 0

    @pytest.mark.parametrize("mode", ["certificates_only", "with_numeric"])
    @pytest.mark.parametrize("name", list(NOT_PSD_HAIRLINE))
    def test_not_certified(self, name, mode):
        a, _ = _hairline_tensor(name)
        v = check_psd(a, mode=mode, restarts=6)
        assert not v.is_psd
        if v.decision == "not_psd":
            assert exact_dense_form(a, v.witness) < 0

    @pytest.mark.parametrize("sign_pattern,cert", [(False, "nonpos_associated"),
                                                   (True, "negatively_alternative")])
    def test_sign_structured(self, sign_pattern, cert):
        for c0, decision in [(7 - 2.0**-44, "not_psd"), (7.0, "psd"), (7 + 2.0**-44, "psd")]:
            root = _signed_ones(sign_pattern)
            root[0, 0, 0] = c0
            a = circulant_from_root(root)
            v = exact_special_cases(a)
            assert (v.decision, v.certificate) == (decision, cert)
            if decision == "not_psd":
                assert exact_dense_form(a, v.witness) < 0
                _, refuted = necessary_checks(a)
                assert refuted is not None and exact_dense_form(a, refuted.witness) < 0

    @pytest.mark.parametrize("offs,certified", [
        ((1.0, -(2.0**-60)), False),  # radius 1 + 2^-60 rounds to c0 = 1
        ((1 - 2.0**-53, -(2.0**-54 + 2.0**-60)), True),  # 1 - 2^-54 + 2^-60 rounds to 1
        ((0.5, 0.5), True),  # exact equality
    ], ids=["over", "under", "equal"])
    def test_dominance_tie(self, offs, certified):
        v = sufficient_diag_dominance(circulant_from_root(_dominance_root(offs)))
        assert (v is not None) is certified

    @pytest.mark.parametrize("c0,b0,b", [
        (1 - 2.0**-52, False, False),  # row sum 27 - 2^-52 rounds to 27
        (1.0, True, False),  # row sum equals 27 * max_off
        (1 + 2.0**-52, True, True),  # row sum 27 + 2^-52 rounds to 27
    ], ids=["below", "equal", "above"])
    def test_b_class_tie(self, c0, b0, b):
        a = circulant_from_root(_b_root(c0))
        for t in (a, materialize(a)):
            report = b_class(t)
            assert (report.is_b0, report.is_b) == (b0, b)
        v = sufficient_b_class(a)
        assert (v and v.certificate) == (("b" if b else "b0") if b0 else None)

    def test_b_class_matches_rational_oracle(self, rng):
        # diagonal entries at N * max_off - (off-diagonal sum), rounded and
        # moved by a few ulps: the rounded comparison ties often
        ties = 0
        for _ in range(300):
            n, k = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            row = rng.uniform(-1.0, 1.0, size=n**k) * 2.0 ** rng.integers(-3, 3)
            row[0] = 0.0
            top = float(row[1:].max())
            exact = row.size * Fraction(top) - sum(map(Fraction, row[1:]))
            row[0] = float(exact)
            for _ in range(int(rng.integers(-2, 3))):
                row[0] = np.nextafter(row[0], np.sign(rng.normal()) * np.inf)
            a = circulant_from_root(row.reshape((n,) * k))
            total = sum(map(Fraction, row))
            margin = total - row.size * Fraction(top)
            ties += math.fsum(row) == row.size * top
            for t in (a, materialize(a)):
                report = b_class(t)
                assert report.is_b0 == (total >= 0 and margin >= 0)
                assert report.is_b == (total > 0 and margin > 0)
        assert ties >= 50

    def test_in_band_refutations_carry_exact_value(self, rng):
        # hairline refutations from the chain: the exact value is recorded
        # exactly when the float value lies in the rounding band
        tensors = [_hairline_tensor(name)[0] for name in NOT_PSD_HAIRLINE]
        tensors.append(expand(TestRefutationEmitter.HAIRLINE))
        for _ in range(40):
            n = int(rng.integers(2, 5))
            root = rng.normal(size=(n,) * 3)
            root[0, 0, 0] = 0.0
            root *= -np.sign(root.sum())
            root[0, 0, 0] = -math.fsum(root.reshape(-1))  # lambda0 within an ulp of 0
            tensors.append(circulant_from_root(root))
        in_band = 0
        for a in tensors:
            v = check_psd(a, mode="certificates_only")
            if v.decision != "not_psd":
                continue
            inside = abs(v.details["witness_value"]) <= _rounding_band(
                a, v.witness, np.max(np.abs(v.witness))
            )
            in_band += inside
            assert ("witness_value_exact" in v.details) == inside
            assert exact_dense_form(a, v.witness) < 0
            if inside:
                assert v.details["witness_value_exact"] < 0
        assert in_band >= 10


class TestCheckPsdChain:
    def test_boundary_diag_via_dominance(self):
        v = check_psd(expand(presets.by_name("example3")), mode="certificates_only")
        assert v.decision == "psd"
        assert v.certificate == "diag_dominance"

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

    def test_numeric_refutes_hairline_minimum(self):
        # an indefinite draw lifted by t |x|^4 until its sphere minimum is
        # about -1e-9 sum|root|: any negative multi-start value whose sign
        # verifies refutes, however small against the root
        root = np.random.default_rng(42).uniform(-10.0, 10.0, size=(3, 3, 3))
        norm4 = np.zeros((3, 3, 3))  # the root of the form |x|^4
        norm4[0, 0, 0] = 1.0
        norm4[[0, 1, 1, 0, 2, 2], [1, 0, 1, 2, 0, 2], [1, 1, 0, 2, 2, 0]] = 1 / 3
        t = -brute_force_min(circulant_from_root(root)).value
        t -= 1e-9 * np.abs(root + t * norm4).sum()
        a = circulant_from_root(root + t * norm4)
        assert check_psd(a, mode="certificates_only").decision == "inconclusive"
        v = check_psd(a)
        assert (v.decision, v.certificate) == ("not_psd", "numeric_evidence")
        assert -1e-6 * np.abs(a.root.array).sum() < v.details["witness_value"] < 0
        assert exact_dense_form(a, v.witness) < 0

    def test_numeric_stage_near_float_range(self):
        # finite entries whose symmetrization and gradients would overflow:
        # the stage runs on the root scaled by a power of two, warning-free
        root = np.zeros((2, 2, 2))
        root.flat[:3] = [1e308, 1e308, -1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = check_psd(circulant_from_root(root))
        assert v.decision == "inconclusive" and v.certificate == "numeric_evidence"
        assert 0 < v.details["numeric_best"] < math.inf

    def test_numeric_refutation_near_float_range(self, rng):
        # an indefinite root moved near the float range is still refuted,
        # its witness re-verified on the unscaled tensor
        while True:
            root = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
            a = circulant_from_root(root)
            if check_psd(a, mode="certificates_only").decision == "inconclusive":
                if brute_force_min(a).value < -1e-2:
                    break
        big = circulant_from_root(np.ldexp(root, 1020))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = check_psd(big)
            value = apply_full(big, v.witness)
        assert v.decision == "not_psd"
        assert value == v.details["witness_value"] < 0

    @pytest.mark.parametrize("draw", [0, 5])
    def test_numeric_stage_at_every_scale(self, draw):
        # draws of default_rng(1)'s order-4, n = 3 loop that the numeric
        # stage refutes at scale 1: it runs at one scale, so 2^k A is
        # refuted across the float range, each witness verified exactly
        rng = np.random.default_rng(1)
        for _ in range(draw + 1):
            root = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
        for k in (-1060, -1000, -400, -40, 0, 40, 400, 900, 1020):
            a = circulant_from_root(np.ldexp(root, k))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = check_psd(a)
            assert (v.decision, v.certificate) == ("not_psd", "numeric_evidence"), k
            band = _rounding_band(a, v.witness, np.max(np.abs(v.witness)))
            assert ("witness_value_exact" in v.details) == (abs(v.details["witness_value"]) <= band)
            assert _exact_form(a, v.witness) < 0

    def test_unit_scale_draws_run_near_their_own_scale(self):
        # the first 10 draws of default_rng(1)'s order-4, n = 3 loop that the
        # certificates leave open have 1-norms 11.2-16.8: nine run unscaled
        # and the last at half scale, where the numeric stage's ADMM takes
        # 63.05 iterations a restart (1468.2 when these ran at 16x scale)
        rng = np.random.default_rng(1)
        shifts, iterations = [], 0
        params = AdmmParams(seed=0)
        while len(shifts) < 10:
            a = circulant_from_root(rng.uniform(-1.0, 1.0, size=(3, 3, 3)))
            if check_psd(a, mode="certificates_only").decided:
                continue
            shifts.append(_normalized(a)[1])
            iterations += sum(r.iterations for r in multi_start(a, params, 24).results)
        assert shifts == [0] * 9 + [1]
        assert iterations == 15133

    def test_entries_near_float_range_decide_or_overflow(self):
        # roots with entries up to 1.7e308: each draw is decided, with a
        # witness that verifies exactly, or fails with the documented
        # OverflowError of a sum beyond the float range; numpy never warns
        rng = np.random.default_rng(16)
        decided = 0
        for trial in range(60):
            n = 2 + trial % 2
            a = circulant_from_root(1.7e308 * rng.uniform(-1.0, 1.0, size=(n,) * 3))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    v = check_psd(a, restarts=6)
                except OverflowError as exc:
                    assert str(exc) == "the exact sum lies beyond the float range"
                    continue
            decided += v.decided
            if v.decision == "not_psd":
                assert _exact_form(a, v.witness) < 0
        assert decided >= 10

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
