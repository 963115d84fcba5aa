"""Independent brute-force oracles the tests check the library against.

Everything here is written with explicit loops / explicit shift products so
it shares no code path with the implementations under test.
"""

import itertools
from fractions import Fraction

import numpy as np


def shift_materialize(root: np.ndarray, n: int) -> np.ndarray:
    """Full tensor from the row recursion: each row is the previous one with
    the cyclic shift matrix applied to every mode."""
    from ctensor.core import perm_matrix

    p = perm_matrix(n)
    rows = [np.asarray(root, dtype=float)]
    for _ in range(n - 1):
        out = rows[-1]
        for _ in range(out.ndim):
            out = np.tensordot(out, p, axes=([0], [0]))
        rows.append(out)
    return np.stack(rows)


def roll_associated_coeffs(root: np.ndarray) -> np.ndarray:
    """Associated polynomial coefficients by one bincount per leading index,
    rotated into place with np.roll: the same additions in the same order as
    ``spectral.associated_coeffs``, so the results agree bit for bit."""
    n = root.shape[0]
    rest = (np.indices(root.shape[1:]).sum(axis=0) % n).reshape(-1)
    out = np.zeros(n)
    for i in range(n):
        out += np.roll(np.bincount(rest, weights=root[i].reshape(-1), minlength=n), i)
    return out


def parity_signs(shape) -> np.ndarray:
    """(-1)^(sum of 0-based indices), which equals (-1)^(sum of 1-based - order)."""
    return (-1.0) ** np.indices(shape).sum(axis=0)


def exact_special_cases(a):
    """Exact decisions from the associated tensor's sign structure: a
    non-positive one is PSD iff lambda_0 >= 0, a negatively alternative one
    (m, n even) iff lambda_{n/2} >= 0, both exactly rounded sums.  The
    reference for the subsumption argued in the ``ctensor.psd`` docstring."""
    from ctensor.core import associated_array
    from ctensor.spectral import alternative_native, first_native
    from ctensor.structure import _parity_signed, hat_one_k
    from ctensor.verdict import not_psd_verdict, psd_verdict

    assoc = associated_array(a)
    if np.all(assoc <= 0):
        lam0 = first_native(a)
        if lam0 >= 0:
            return psd_verdict("nonpos_associated", lambda0=lam0)
        return not_psd_verdict(a, np.ones(a.dim), "nonpos_associated", {"lambda0": lam0})
    if a.dim % 2 == 0 and (_parity_signed(assoc) <= 0).all():
        lam_half = alternative_native(a)
        if lam_half >= 0:
            return psd_verdict("negatively_alternative", lambda_n_half=lam_half)
        return not_psd_verdict(a, hat_one_k(a.dim, 1), "negatively_alternative",
                               {"lambda_n_half": lam_half})
    return None


def circulant_matrix(c) -> np.ndarray:
    """The n x n matrix with first column c: entry (j, l) is c[(j - l) mod n]."""
    ar = np.arange(len(c))
    return np.asarray(c)[(ar[:, None] - ar) % len(c)]


def circulant_eigenvalues(c) -> np.ndarray:
    """mu_k = sum_j c_j w_k^j for w_k = exp(2 pi i k / n), that is n * ifft(c)."""
    return np.fft.ifft(c) * len(c)


def diag_root_eigenpairs(spec) -> list:
    """The paper's eigenpairs of a diagonal root c: (mu_k, y) with y_j =
    eta^j, one per (m-1)-th root eta = exp(2 pi i (k + l n) / (n (m-1))) of
    w_k, l = 0..m-2."""
    m, n = spec.order, spec.dim
    mus = circulant_eigenvalues(spec.c)
    return [(complex(mus[k]), np.exp(2j * np.pi * (k + l * n) / (n * (m - 1))) ** np.arange(n))
            for k in range(n) for l in range(m - 1)]


def diag_root_form(spec, x) -> float:
    """A x^m = sum_{j,l} c_{(l-j) mod n} x_j x_l^{m-1}, that is x . (C^T x^{m-1})."""
    x = np.asarray(x, dtype=float)
    return float(x @ (circulant_matrix(spec.c).T @ x ** (spec.order - 1)))


def diag_root_psd(spec):
    """Exact semi-definiteness decision for a diagonal root c, in the order
    of the paper's theorem: the necessary signs of c_0, lambda_0 and
    lambda_{n/2}, the dominance condition c_0 >= sum |c_j|, and the
    block-alternating regimes (k >= 2) where dominance is also necessary.
    All sums are exactly rounded.  The reference ``ctensor.psd.check_psd``
    is checked against on diagonal roots; None where the theorem does not
    decide."""
    import math

    from ctensor.diag_root import expand
    from ctensor.exactsum import _fsum
    from ctensor.structure import _parity_signed, hat_one_k, is_k_alternative
    from ctensor.verdict import not_psd_verdict, psd_verdict

    if spec.order % 2:
        raise ValueError("semi-definiteness needs even order")
    n, c = spec.dim, spec.c
    a = expand(spec)
    trail = {"c0": float(c[0]), "lambda0": _fsum(c)}

    def refute(route, witness):
        return not_psd_verdict(a, witness, "diag_root", {"route": route, **trail})

    if c[0] < 0:
        return refute("necessary-c0", np.eye(1, n)[0])
    if trail["lambda0"] < 0:
        return refute("necessary-lambda0", np.ones(n))
    if n % 2 == 0:
        trail["lambda_n_half"] = _fsum(_parity_signed(c))
        if trail["lambda_n_half"] < 0:
            return refute("necessary-alternating", hat_one_k(n, 1))
    trail["dominance_margin"] = _fsum(np.append(c[0], -np.abs(c[1:])))
    if trail["dominance_margin"] >= 0:
        return psd_verdict("diag_root", route="dominance", **trail)
    for k in range(2, n // 2 + 1):
        if n % (2 * k) == 0 and is_k_alternative(c[1:], k):
            # form value at the block witness is n * margin < 0
            return refute(f"block-alternating-k{k}", hat_one_k(n, k) / math.sqrt(n))
    return None


def roll_is_circulant(arr: np.ndarray, tol: float) -> bool:
    """Dense circulant test against the array rolled by one on every axis."""
    shifted = np.roll(arr, (1,) * arr.ndim, axis=tuple(range(arr.ndim)))
    return bool(np.max(np.abs(arr - shifted)) <= tol)


def naive_form(arr: np.ndarray, x) -> complex:
    total = 0.0
    for idx in itertools.product(range(arr.shape[0]), repeat=arr.ndim):
        prod = arr[idx]
        for i in idx:
            prod = prod * x[i]
        total += prod
    return total


def exact_dense_form(a, w) -> Fraction:
    """A w^m in rational arithmetic over every index tuple of the full tensor
    (float entries are dyadic rationals); circulant entries by the index
    shift a_{j1..jm} = root[j2 - j1, ..., jm - j1 (mod n)]."""
    n, m = a.dim, a.order
    wf = [Fraction(float(v)) for v in w]
    total = Fraction(0)
    for idx in itertools.product(range(n), repeat=m):
        if hasattr(a, "root"):
            v = a.root.array[tuple((j - idx[0]) % n for j in idx[1:])]
        else:
            v = a.array[idx]
        if v:
            term = Fraction(float(v))
            for j in idx:
                term *= wf[j]
            total += term
    return total


def naive_partial(arr: np.ndarray, x) -> np.ndarray:
    n = arr.shape[0]
    out = []
    for j in range(n):
        total = 0.0
        for idx in itertools.product(range(n), repeat=arr.ndim - 1):
            prod = arr[(j,) + idx]
            for i in idx:
                prod = prod * x[i]
            total += prod
        out.append(total)
    return np.array(out)


def naive_symmetrize(arr: np.ndarray) -> np.ndarray:
    """Distinct-permutation average, entry by entry."""
    out = np.zeros_like(arr)
    for idx in itertools.product(range(arr.shape[0]), repeat=arr.ndim):
        perms = set(itertools.permutations(idx))
        out[idx] = sum(arr[p] for p in perms) / len(perms)
    return out


def naive_multi_form(arr: np.ndarray, blocks: np.ndarray) -> float:
    """f(x^1, ..., x^m) with one vector per mode."""
    total = 0.0
    for idx in itertools.product(range(arr.shape[0]), repeat=arr.ndim):
        prod = arr[idx]
        for slot, i in enumerate(idx):
            prod = prod * blocks[slot][i]
        total += prod
    return total


def block_gradient(arr: np.ndarray, blocks: np.ndarray, slot: int) -> np.ndarray:
    """Gradient of the multilinear form in block ``slot`` (0-based): ``arr``
    contracted with every other block."""
    from ctensor.core import _contract

    others = [blocks[None, k] for k in range(arr.ndim) if k != slot]
    return _contract(np.moveaxis(arr, slot, -1), others)[0]


def fd_block_gradient(arr: np.ndarray, blocks: np.ndarray, slot: int, h=1e-6):
    """Central finite differences of the multilinear form in one block."""
    n = arr.shape[0]
    g = np.zeros(n)
    for i in range(n):
        bp = blocks.copy()
        bm = blocks.copy()
        bp[slot, i] += h
        bm[slot, i] -= h
        g[i] = (naive_multi_form(arr, bp) - naive_multi_form(arr, bm)) / (2 * h)
    return g


def random_circulant(rng, m: int, n: int, scale: float = 10.0):
    from ctensor.core import circulant_from_root

    return circulant_from_root(rng.uniform(-scale, scale, size=(n,) * (m - 1)))


def where_subproblem(b: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """-b/||b|| row by row, prev where ||b|| <= 1e-14, as one np.where."""
    norm = np.sqrt((b * b).sum(axis=-1, keepdims=True))
    small = norm <= 1e-14
    return np.where(small, prev, -b / np.where(small, 1.0, norm))


def reference_iterate(arr: np.ndarray, starts: np.ndarray, params):
    """The batched ADMM iteration on an (R, m, n) block array, restarts on
    the first axis, each block update divided once more by its computed
    norm.  Same stopping rule and penalty schedule as ``admm._iterate``: a
    restart that does not stop within ``params.max_iters`` iterations is
    rerun from its start at 4 and then 16 times the penalty.  Returns
    blocks (R, m, n), iteration counts and converged flags."""
    from ctensor.core import _contract

    def norms(v):
        return np.sqrt((v * v).sum(axis=-1, keepdims=True))

    num, n = starts.shape
    m = arr.ndim
    moved = [np.ascontiguousarray(np.moveaxis(arr, j, -1)) for j in range(m)]
    others = [[k for k in range(m) if k != j] for j in range(m)]
    nxt = np.roll(np.arange(m), -1)
    blocks = np.empty((num, m, n))
    iterations = np.zeros(num, dtype=int)
    converged = np.zeros(num, dtype=bool)
    live = np.arange(num)
    for factor in (1.0, 4.0, 16.0):
        if live.size == 0:
            break
        beta = params.beta * factor
        x = np.repeat(starts[live, None, :], m, axis=1)
        lam = np.zeros_like(x)
        for it in range(1, params.max_iters + 1):
            x_old, lam_old = x.copy(), lam
            for j in range(m):
                g = _contract(moved[j], [x[:, k] for k in others[j]])
                b = g - (lam[:, j] - lam[:, j - 1]) - beta * (x[:, j - 1] + x[:, nxt[j]])
                xj = where_subproblem(b, x[:, j])
                x[:, j] = xj / norms(xj)
            lam = lam - beta * (x - x[:, nxt])
            dx, dlam = x - x_old, lam - lam_old
            step = np.sqrt((dx * dx).sum(axis=(1, 2)) + (dlam * dlam).sum(axis=(1, 2)))
            done = step < params.epsilon
            if done.any():
                idx = live[done]
                blocks[idx] = x[done]
                iterations[idx] += it
                converged[idx] = True
                live, x, lam = live[~done], x[~done], lam[~done]
                if live.size == 0:
                    break
        iterations[live] += params.max_iters
        blocks[live] = x
    return blocks, iterations, converged
