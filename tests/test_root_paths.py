"""Circulant analysis paths compute from the root; the dense path is the reference."""

import itertools
import json

import numpy as np
import pytest

from ctensor.cli import dispatch
from ctensor.core import (
    BudgetError,
    DenseTensor,
    _contract,
    _diagonal,
    apply_full,
    apply_partial,
    circulant_from_root,
    is_circulant,
    is_toeplitz,
    materialize,
    perm_matrix,
    row_tensor,
    symmetrize,
)
from ctensor.diag_root import DiagRootSpec, diag_root_vector, expand
from ctensor.io import tensor_to_dict
from ctensor.psd import check_psd
from ctensor.spectral import (
    associated_coeffs,
    extreme_h_eigenvalue,
    gershgorin,
    native_eigenvalues,
)
from ctensor.structure import (
    SignClass,
    b_class,
    classify_sign,
    classify_sign_array,
    hat_one_k,
    _parity_signed,
    is_doubly_circulant,
)

from oracles import (
    circulant_matrix,
    naive_symmetrize,
    parity_signs,
    random_circulant,
    roll_associated_coeffs,
    roll_is_circulant,
    shift_materialize,
)


def starved_tensor(kind: str):
    """Order 4, n = 10: 10^4 dense entries against a budget of 10."""
    rng = np.random.default_rng(3)
    root = rng.uniform(-1.0, 1.0, size=(10, 10, 10))
    if kind == "nonnegative":
        root = np.abs(root)
    root[0, 0, 0] = 50.0  # passes the necessary checks, so the chain runs on
    return circulant_from_root(root)


@pytest.mark.parametrize("kind", ["signed", "nonnegative"])
def test_budget_starved_analysis(monkeypatch, kind):
    a = starved_tensor(kind)
    dense = materialize(a)
    x = np.random.default_rng(4).normal(size=a.dim)
    ref_b = b_class(dense)
    ref_sign = classify_sign(dense)
    ref_sym = symmetrize(dense).array[0]
    ref_full, ref_partial = apply_full(dense, x), apply_partial(dense, x)

    monkeypatch.setenv("CTENSOR_BUDGET", "10")
    with pytest.raises(ValueError, match="budget"):
        materialize(a)
    spec = native_eigenvalues(a)
    assert len(spec.lambdas) == a.dim
    assert gershgorin(a).contains(spec.lambdas[0], 1e-9)
    ext = extreme_h_eigenvalue(a)
    assert (ext is not None) == (kind == "nonnegative")
    assert classify_sign(a) == ref_sign
    assert is_toeplitz(a) and is_toeplitz(dense)
    report = b_class(a)
    assert (report.is_b0, report.is_b) == (ref_b.is_b0, ref_b.is_b)
    assert not is_doubly_circulant(a)
    assert np.array_equal(symmetrize(a).root.array, ref_sym)
    assert apply_full(a, x) == pytest.approx(ref_full, rel=1e-12)
    assert np.allclose(apply_partial(a, x), ref_partial, rtol=1e-12, atol=1e-12)
    assert check_psd(a, mode="certificates_only").decision in ("psd", "inconclusive")


def test_budget_starved_cli_classify(monkeypatch, tmp_path, capsys):
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(tensor_to_dict(starved_tensor("signed"))))
    assert dispatch(["classify", str(path)]) == 0
    reference = capsys.readouterr().out
    monkeypatch.setenv("CTENSOR_BUDGET", "10")
    assert dispatch(["classify", str(path)]) == 0
    assert capsys.readouterr().out == reference


def test_budget_cli_exit_status(monkeypatch, tmp_path, capsys):
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(tensor_to_dict(starved_tensor("signed"))))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    monkeypatch.setenv("CTENSOR_BUDGET", "10")
    with pytest.raises(BudgetError):
        materialize(starved_tensor("signed"))
    # ADMM iterates on the dense symmetrized array: a budget failure, not bad input
    assert dispatch(["minimize", str(path), "--restarts", "2"]) == 3
    assert capsys.readouterr().err.startswith("ctensor: budget: dense materialization")
    assert dispatch(["minimize", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ctensor: ") and "budget" not in err


@pytest.mark.parametrize(
    "m,n", [(2, 5), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (6, 3), (7, 3)]
)
def test_symmetrize_root_is_dense_first_row(rng, m, n):
    for _ in range(3):
        a = random_circulant(rng, m, n)
        assert np.array_equal(symmetrize(a).root.array, symmetrize(materialize(a)).array[0])


@pytest.mark.parametrize("m,n", [(7, 3), (8, 2)])
def test_symmetrize_matches_naive_high_order(rng, m, n):
    a = random_circulant(rng, m, n)
    dense = materialize(a)
    ref = naive_symmetrize(dense.array)
    assert np.allclose(symmetrize(dense).array, ref, rtol=1e-13, atol=1e-13)
    assert np.allclose(materialize(symmetrize(a)).array, ref, rtol=1e-13, atol=1e-13)


def sign_structured_roots(rng, m, n):
    """Roots with every sign pattern the classes look at, some entries zeroed."""
    shape = (n,) * (m - 1)
    mag = rng.uniform(0.1, 1.0, size=shape) * (rng.uniform(size=shape) < 0.8)
    parity = (-1.0) ** np.indices(shape).sum(axis=0)
    # entries whose shift orbit keeps one full-tensor parity: the full tensor
    # is then alternative (or negatively so) even where n is odd
    orbit = np.zeros(shape)
    for s in itertools.product(range(n), repeat=m - 1):
        parities = {(k + sum((j + k) % n for j in s)) % 2 for k in range(n)}
        if len(parities) == 1:
            orbit[s] = (-1.0) ** parities.pop()
    yield rng.uniform(-1.0, 1.0, size=shape)
    for pattern in (1.0, parity, orbit):
        yield mag * pattern
        yield -mag * pattern
    yield mag * orbit * rng.choice([-1.0, 1.0], size=shape)


@pytest.mark.parametrize(
    "m,n",
    [
        (2, 3),
        (2, 4),
        (3, 3),
        (3, 4),
        (3, 5),
        (3, 6),
        (4, 3),
        (4, 4),
        (4, 5),
        (4, 6),
        (5, 2),
        (5, 3),
        (5, 4),
        (6, 3),
    ],
)
def test_classify_sign_root_matches_dense(rng, m, n):
    for root in sign_structured_roots(rng, m, n):
        a = circulant_from_root(root)
        assert classify_sign(a) == classify_sign_array(materialize(a).array)


def kernel_roots(rng, m, n):
    """A random root, the same with signed zeros in place of about a third of
    its entries, and circulant roots (all row tensors equal) with zeros, one
    of them circulant only within a tolerance and one drifting along the
    shift orbits."""
    shape = (n,) * (m - 1)
    root = rng.uniform(-1.0, 1.0, size=shape)
    yield root
    zeros = rng.uniform(size=shape) < 0.35
    yield np.where(zeros, np.where(rng.uniform(size=shape) < 0.5, -0.0, 0.0), root)
    if m >= 3:
        inner = shift_materialize(rng.uniform(-1.0, 1.0, size=shape[1:]), n)
        inner[rng.uniform(size=shape) < 0.2] = 0.0
        yield inner
        yield -inner
        near = inner.copy()
        near[(0,) * (m - 1)] += 1e-12  # circulant only within a tolerance
        yield near
        # every shift step moves 0.4 except the one back from row 1 to row n,
        # which moves 0.4 (n - 1)
        yield inner + 0.4 * np.arange(n).reshape((n,) + (1,) * (m - 2))


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in range(2, 7) for n in range(2, 6) if n**m <= 5000]
)
def test_root_kernels_match_roll_references(rng, m, n):
    for root in kernel_roots(rng, m, n):
        a = circulant_from_root(root)
        assert np.array_equal(associated_coeffs(a), roll_associated_coeffs(root))
        for arr in (root, materialize(a).array):
            if arr.ndim >= 2:
                for tol in (0.0, 1e-13, 1e-11, 0.5):
                    assert is_circulant(DenseTensor(arr), tol) == roll_is_circulant(arr, tol)


@pytest.mark.parametrize(
    "shape",
    [(2,), (3,), (7,), (8,), (3, 3), (4, 4), (3, 4), (4, 3), (5, 5, 5), (4, 4, 4),
     (2, 3, 5), (5, 2, 3), (3, 3, 3, 3), (2, 2, 2, 2, 2)],
)
def test_parity_signed_matches_sign_table(rng, shape):
    """Bitwise equal to the product with the float sign table, signed zeros
    included, for odd and even axes and 1-D arrays."""
    arr = rng.uniform(-1.0, 1.0, size=shape)
    picks = rng.uniform(size=shape)
    arr[picks < 0.2] = 0.0
    arr[picks > 0.8] = -0.0
    before = arr.copy()
    got = _parity_signed(arr)
    want = arr * parity_signs(shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(arr.view(np.uint64), before.view(np.uint64))  # input untouched


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 3), (4, 2), (4, 5), (5, 3)])
def test_materialize_matches_rows_and_shift_oracle(rng, m, n):
    a = random_circulant(rng, m, n)
    dense = materialize(a).array
    assert not dense.flags.writeable
    assert np.array_equal(dense, shift_materialize(a.root.array, n))
    for k in range(n):
        assert np.array_equal(dense[k], row_tensor(a, k + 1).array)


def test_classify_sign_cases_cover_every_class(rng):
    seen = {
        classify_sign(circulant_from_root(root))
        for m, n in [(3, 3), (4, 4), (5, 3)]
        for root in sign_structured_roots(rng, m, n)
    }
    assert seen == set(SignClass)


def loop_diagonal(values, m):
    out = np.zeros((len(values),) * m)
    for j, v in enumerate(values):
        out[(j,) * m] = v
    return out


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 2)])
def test_diagonal_builders_match_loops(rng, m, n):
    arr = rng.normal(size=(n,) * m)
    diag = [arr[(j,) * m] for j in range(n)]
    assert np.array_equal(_diagonal(arr), diag)
    identity = materialize(expand(DiagRootSpec(m, np.eye(1, n)[0])))
    assert np.array_equal(identity.array, loop_diagonal(np.ones(n), m))
    c = rng.normal(size=n)
    assert np.array_equal(expand(DiagRootSpec(m + 1, c)).root.array, loop_diagonal(c, m))
    assert np.array_equal(diag_root_vector(expand(DiagRootSpec(m + 1, c))), c)
    assert diag_root_vector(circulant_from_root(arr)) is None
    shift = np.zeros((n, n))
    for j in range(n):
        shift[j, (j + 1) % n] = 1.0
    assert np.array_equal(perm_matrix(n), shift)
    wrapped = np.array([[c[(j - l) % n] for l in range(n)] for j in range(n)])
    assert np.array_equal(circulant_matrix(c), wrapped)
    blocks = np.array([-1.0 if (j // 2) % 2 else 1.0 for j in range(4 * n)])
    assert np.array_equal(hat_one_k(4 * n, 2), blocks)


@pytest.mark.parametrize("m,n", [(2, 7), (3, 30), (4, 10), (6, 5)])
def test_complex_partial_matches_complex_root(m, n):
    # the real root is contracted with the parts of x apart; casting the root
    # to complex first is the reference
    rng = np.random.default_rng(m * n)
    a = circulant_from_root(rng.uniform(-1.0, 1.0, size=(n,) * (m - 1)))
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    ar = np.arange(n)
    rotations = x[(ar[:, None] + ar) % n]
    ref = _contract(a.root.array.astype(complex), [rotations] * (m - 1))
    out = apply_partial(a, x)
    assert np.iscomplexobj(out)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
