"""Acceptance gate: every numbered criterion below must pass at its stated
tolerance and print one PASS line (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from ctensor import presets
from ctensor.admm import AdmmParams, multi_start
from ctensor.core import (
    apply_full,
    entry,
    is_circulant,
    materialize,
    matrix_product,
    perm_matrix,
    row_tensor,
    symmetrize,
)
from ctensor.diag_root import DiagRootSpec, expand
from ctensor.hypergraph import (
    adjacency_tensor,
    laplacian,
    orbit_closure,
    signless_laplacian,
)
from ctensor.moments import ProcessSample, moment_tensor
from ctensor.psd import brute_force_min, check_psd, sufficient_diag_dominance
from ctensor.spectral import (
    alternative_native,
    eigen_residual,
    extreme_h_eigenvalue,
    first_native,
    gershgorin,
    native_eigenvalues,
    native_eigenvector,
)

from oracles import (
    block_gradient,
    diag_root_eigenpairs,
    diag_root_form,
    fd_block_gradient,
    random_circulant,
)


def report(num: int, label: str, started: float, limit: float):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s)")


def test_criterion_1_order3_spectrum():
    t0 = time.monotonic()
    a = presets.by_name("example1")
    lam = native_eigenvalues(a).lambdas
    assert abs(lam[0] - 39.1013) <= 1e-3
    pair = sorted(lam[1:], key=lambda z: z.imag)
    assert abs(pair[1] - (14.8057 + 1.1793j)) <= 1e-3
    assert abs(pair[0] - (14.8057 - 1.1793j)) <= 1e-3
    for k in range(3):
        assert eigen_residual(a, lam[k], native_eigenvector(3, k)) <= 1e-8
    report(1, "order-3 showcase spectrum and residuals", t0, 1.0)


def test_criterion_2_symmetrization_spectrum():
    t0 = time.monotonic()
    a = presets.by_name("example2")
    s = symmetrize(a)
    expected_root = np.array([[1.0, 1 / 3], [1 / 3, 1 / 3]])
    assert np.max(np.abs(s.root.array - expected_root)) <= 1e-12
    lam_a = native_eigenvalues(a).lambdas
    lam_s = native_eigenvalues(s).lambdas
    assert abs(lam_a[0] - 2.0) <= 1e-12
    assert abs(lam_s[0] - 2.0) <= 1e-12
    assert abs(lam_a[1] - 6.0) <= 1e-12
    assert abs(lam_s[1] - 2 / 3) <= 1e-12
    assert abs(lam_a[1] - lam_s[1]) > 1e-6  # the inequality, not equality
    report(2, "alternative-root symmetrization spectrum", t0, 1.0)


def test_criterion_3_benchmark_reproduction():
    t0 = time.monotonic()
    params = AdmmParams(beta=1.2, epsilon=1e-6, seed=0)
    for name, ref in (("example5", -6.39448), ("example6", -1.79658)):
        rep = multi_start(expand(presets.by_name(name)), params, restarts=100, reference=ref)
        assert abs(rep.best.value - ref) <= 1e-4, (name, rep.best.value)
        assert rep.success_rate >= 0.9, (name, rep.success_rate)
    report(3, "multi-start benchmarks reach known minima", t0, 60.0)


def test_criterion_4_psd_showcases():
    t0 = time.monotonic()
    ex3 = expand(presets.by_name("example3"))
    assert sufficient_diag_dominance(ex3) is not None
    v3 = check_psd(ex3, mode="certificates_only")
    assert v3.is_psd and v3.certificate == "diag_dominance"

    case1 = presets.by_name("example4_case1")
    v1 = check_psd(case1, mode="certificates_only")
    assert v1.decision == "not_psd"
    assert v1.witness is not None and apply_full(case1, v1.witness) < 0
    assert apply_full(case1, np.array([1.0, -2.0])) == pytest.approx(-3.0)

    v2 = check_psd(presets.by_name("example4_case2"), mode="certificates_only")
    assert v2.is_psd
    report(4, "dominance certificate and doubly circulant cases", t0, 1.0)


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    agree = 0
    total = 200
    for trial in range(total):
        n = 2 + trial % 2
        a = random_circulant(rng, 4, n, scale=10.0)
        verdict = check_psd(a, mode="with_numeric", restarts=12, seed=trial)
        bf = brute_force_min(a)
        oracle_negative = bf.value < -1e-4
        chain_negative = verdict.decision == "not_psd"
        if oracle_negative == chain_negative:
            agree += 1
        if verdict.is_psd and verdict.certificate != "numeric_evidence":
            assert bf.value >= -1e-6, (trial, bf.value, verdict.certificate)
    assert agree / total >= 0.98, f"agreement {agree}/{total}"
    report(5, f"oracle agreement {agree}/{total}", t0, 300.0)


def test_criterion_6_property_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    # shift invariance, exact
    for _ in range(20):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        a = random_circulant(rng, m, n)
        idx = tuple(int(rng.integers(1, n + 1)) for _ in range(m))
        shifted = tuple(j % n + 1 for j in idx)
        assert entry(a, idx) == entry(a, shifted)

    # row recursion within 1e-12 relative
    for m, n in [(3, 3), (4, 2), (2, 5)]:
        a = random_circulant(rng, m, n)
        p = perm_matrix(n)
        for k in range(1, n):
            lhs = row_tensor(a, k + 1).array
            rhs = matrix_product(row_tensor(a, k), p).array
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(lhs).max())

    # shift-matrix fixed point and closure under circulant matrix products
    a = random_circulant(rng, 3, 4)
    dense = materialize(a)
    assert np.allclose(matrix_product(dense, perm_matrix(4)).array, dense.array, atol=1e-12)
    c = materialize(random_circulant(rng, 2, 4)).array
    assert is_circulant(matrix_product(a, c), 1e-9)

    # symmetrization form equality on 100 random (A, x)
    for _ in range(100):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = random_circulant(rng, m, n)
        s = symmetrize(a)
        x = rng.normal(size=n)
        scale = math.fsum(np.abs(a.root.array).reshape(-1)) * n
        bound = 1e-10 * max(1.0, scale * max(1.0, np.abs(x).max()) ** m)
        assert abs(apply_full(a, x) - apply_full(s, x)) <= bound

    # first native eigenvalue always survives symmetrization; the
    # alternating one does for even order and even dimension
    for m, n in [(3, 2), (3, 4), (4, 3), (4, 4), (2, 6)]:
        a = random_circulant(rng, m, n)
        assert first_native(a) == pytest.approx(first_native(symmetrize(a)), rel=1e-10, abs=1e-8)
        if m % 2 == 0 and n % 2 == 0:
            assert alternative_native(a) == pytest.approx(
                alternative_native(symmetrize(a)), rel=1e-10, abs=1e-8
            )

    # every native eigenvalue lies in the radius disc
    for m, n in [(2, 4), (3, 3), (4, 2), (3, 6)]:
        a = random_circulant(rng, m, n)
        disc = gershgorin(a)
        for lam in native_eigenvalues(a).lambdas:
            assert disc.contains(lam, tol=1e-9)

    # block gradients match central finite differences
    for m, n in [(3, 2), (4, 3), (4, 4)]:
        arr = materialize(random_circulant(rng, m, n, scale=3.0)).array
        blocks = rng.normal(size=(m, n))
        for slot in range(m):
            g = block_gradient(arr, blocks, slot)
            assert np.max(np.abs(g - fd_block_gradient(arr, blocks, slot))) <= 1e-5

    # diagonal-root quadratic-like form equals the tensor form
    for _ in range(50):
        n = int(rng.integers(2, 5))
        spec = DiagRootSpec(4, rng.uniform(-10, 10, size=n))
        x = rng.normal(size=n)
        lhs = diag_root_form(spec, x)
        rhs = apply_full(expand(spec), x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    # every emitted eigenpair passes the residual gate
    for m, n in [(3, 2), (4, 3), (4, 4)]:
        spec = DiagRootSpec(m, rng.uniform(-5, 5, size=n))
        a = expand(spec)
        for lam, y in diag_root_eigenpairs(spec):
            assert eigen_residual(a, lam, y) <= 1e-8
        for k in range(n):
            lam = native_eigenvalues(a).lambdas[k]
            assert eigen_residual(a, lam, native_eigenvector(n, k)) <= 1e-8

    report(6, "property suites", t0, 120.0)


def test_criterion_7_hypergraph_claims():
    t0 = time.monotonic()
    g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
    d = g.degree
    lap = laplacian(g)
    assert abs(first_native(lap)) <= 1e-10
    assert eigen_residual(lap, 0.0, np.ones(6)) <= 1e-10

    ext_a = extreme_h_eigenvalue(adjacency_tensor(g))
    assert ext_a.kind == "largest" and ext_a.value == pytest.approx(d, abs=1e-10)
    ext_q = extreme_h_eigenvalue(signless_laplacian(g))
    assert ext_q.kind == "largest" and ext_q.value == pytest.approx(2 * d, abs=1e-10)

    for build in (laplacian, signless_laplacian):
        v = check_psd(build(g), mode="certificates_only")
        assert v.is_psd
        assert v.certificate in ("diag_dominance", "b0", "b")
    report(7, "directed 4-uniform hypergraph claims", t0, 10.0)


def test_criterion_8_moment_tensor_scale():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    trials = 10**5
    x = rng.choice([-1.0, 1.0], size=(trials, 2))
    mt = moment_tensor(ProcessSample(x), 4)
    tol = 3.0 * math.sqrt(2.0 / trials)  # 3 sigma for entry differences
    assert is_circulant(mt, tol)
    assert brute_force_min(mt).value >= -1e-2
    report(8, "empirical moment tensor at scale", t0, 30.0)
