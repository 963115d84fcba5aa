"""Circulant tensors with diagonal root tensors, and doubly circulant tensors.

A diagonal root places c_0, ..., c_{n-1} on the root's diagonal and zeros
elsewhere.  Such tensors have a fully explicit eigenstructure (that of an
n x n circulant matrix built from c), which ``tests/oracles.py`` states as
the reference the tests check spectra and forms against.  Their
semi-definiteness needs no decision of its own: the necessary checks and
diagonal dominance in ``psd.check_psd`` decide it exactly wherever the
paper's theorem does, except in the block-alternating regimes (a
k-alternative tail, k >= 2), where dominance is also necessary and the
chain's diagonal-root stage refutes with the block sign vector.

A doubly circulant tensor has a circulant root, so all of its row tensors
coincide and its form factors through sum(x).  Its exact route works on the
root form as a polynomial with integer coefficients: float entries are dyadic
rationals, so the root scaled by one power of two is an integer array, and
the reduction carries no rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import plans
from .core import (
    CirculantTensor,
    DenseTensor,
    _contract,
    _diagonal,
    _diagonal_array,
    apply_full,
    circulant_from_root,
    is_circulant,
)
from .exactsum import _scaled_ints
from .structure import is_doubly_circulant
from .verdict import (
    DOUBLY_CIRCULANT,
    NOT_PSD,
    PsdVerdict,
    inconclusive,
    not_psd_verdict,
    psd_verdict,
)

_EXACT_ROOT_CAP = 4096  # root entries; beyond this skip the exact reduction


@dataclass(frozen=True)
class DiagRootSpec:
    """Order m >= 2 and the diagonal coefficient vector (c_0, ..., c_{n-1})."""

    order: int
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if len(self.c) < 2:
            raise ValueError("need at least 2 coefficients")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("coefficients must be finite")

    @property
    def dim(self) -> int:
        return len(self.c)


def expand(spec: DiagRootSpec) -> CirculantTensor:
    """The circulant tensor whose root has c on its diagonal."""
    return circulant_from_root(_diagonal_array(spec.c, spec.order - 1))


def diag_root_vector(a: CirculantTensor) -> np.ndarray | None:
    """The diagonal coefficients if the root is exactly diagonal, else None."""
    arr = a.root.array
    diag = _diagonal(arr).copy()
    return diag if np.count_nonzero(arr) == np.count_nonzero(diag) else None


def _root_form(root: np.ndarray) -> dict:
    """g(x) = sum root[idx] x_idx as {exponent tuple: coefficient}, zero
    terms dropped.  The coefficients are sums of the entries themselves, so
    they are exact for Python ints (``exactsum._scaled_ints``)."""
    idx = np.nonzero(root)
    exps = np.zeros((len(idx[0]), root.shape[0]), dtype=int)
    rows = np.arange(len(idx[0]))
    for axis in idx:
        exps[rows, axis] += 1
    g: dict = {}
    for key, c in zip(map(tuple, exps.tolist()), root[idx].tolist()):
        g[key] = g.get(key, 0) + c
    return {k: v for k, v in g.items() if v}


def _divide_by_sum(g: dict) -> tuple[dict, dict]:
    """q, r with g = (x_1 + ... + x_n) q + r and r free of x_1.

    Synthetic division: each term c x^e with e_1 > 0 moves c x^(e - e_1) into
    q and leaves -c x^(e - e_1 + e_j), j > 1, of one lower x_1 degree, so
    processing degrees downward clears x_1.  The remainder of a single divisor
    with leading term x_1 is unique: this is the lexicographic division.  The
    divisor's coefficients are 1, so integer coefficients stay integers.
    """
    g, q = dict(g), {}
    for d in range(max((e[0] for e in g), default=0), 0, -1):
        for e in [e for e in g if e[0] == d]:
            c = g.pop(e)
            if not c:
                continue
            base = (d - 1,) + e[1:]
            q[base] = c
            for j in range(1, len(e)):
                t = base[:j] + (base[j] + 1,) + base[j + 1:]
                g[t] = g.get(t, 0) - c
    return q, {e: c for e, c in g.items() if c}


def _quadratic_gram(q: dict, n: int) -> list:
    """Symmetric G with x^T G x = 2 q(x) for a quadratic form q: integer
    entries for integer coefficients."""
    gram = [[0] * n for _ in range(n)]
    for e, c in q.items():
        i, j = [k for k in range(n) for _ in range(e[k])]
        if i == j:
            gram[i][i] = 2 * c
        else:
            gram[i][j] = gram[j][i] = c
    return gram


def _is_psd_exact(gram: list) -> bool:
    """Exact semi-definiteness of a symmetric rational matrix by LDL^T,
    pivoting on the largest remaining diagonal entry."""
    a = [[Fraction(v) for v in row] for row in gram]
    while a:
        k = max(range(len(a)), key=lambda i: a[i][i])
        p = a[k][k]
        if p < 0:
            return False
        if p == 0:
            return not any(any(row) for row in a)
        rest = [i for i in range(len(a)) if i != k]
        a = [[a[i][j] - a[i][k] * a[k][j] / p for j in rest] for i in rest]
    return True


def _hyperplane_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """256 seeded directions in the hyperplane sum(x) = 0, normalized where
    their norm is at least 1e-12, and the mask of those rows; a read-only
    plan per n."""

    def build():
        z = np.random.default_rng(7).normal(size=(256, n))
        z -= z.mean(axis=1, keepdims=True)
        # row by row: a batched norm sums in another order and moves ulps
        norms = np.array([np.linalg.norm(row) for row in z])
        keep = norms >= 1e-12
        z[keep] /= norms[keep, None]
        return z, keep

    return plans.cached(("hyperplane", n), build)


def _perturbed_witness(a, direction: np.ndarray) -> np.ndarray:
    """Nudge a negative direction off the sum(x)=0 hyperplane: the candidate
    with the least form value of the full tensor, the first of any tie."""
    steps = [0.0, 1e-3, 1e-2, 0.1, 0.25, 0.5, -1e-3, -1e-2, -0.1, -0.25, -0.5]
    candidates = [w for w in (direction + t for t in steps) if abs(w.sum()) >= 1e-12]
    return min(candidates, key=lambda w: float(apply_full(a, w)))


def doubly_psd(a: CirculantTensor) -> PsdVerdict:
    """Semi-definiteness of a doubly circulant tensor via its factored form.

    With g(x) = A_1 x^{m-1}, the form is sum(x) * g(x).  For deeper circulant
    roots the decision first recurses on the root of the root.  Then g, with
    integer coefficients (the root scaled by a power of two), is divided by
    sum(x).  A nonzero remainder means g does not vanish on the hyperplane
    sum(x) = 0, and a sign flip across it refutes.  Otherwise
    A x^m = sum(x)^2 * q(x); for m = 4 the quadratic q is decided by an exact
    LDL^T of its Gram matrix.  Anything else is left to the general chain.
    """
    if a.order % 2:
        raise ValueError("semi-definiteness needs even order")
    if not is_doubly_circulant(a):
        raise ValueError("tensor is not doubly circulant")
    m, n = a.order, a.dim
    root = a.root.array
    trail: dict = {}

    # structured recursion when the root is doubly circulant itself
    if m >= 6 and is_circulant(DenseTensor(root[0])):
        from .psd import check_psd  # deferred: psd builds on this module

        inner = CirculantTensor(DenseTensor(root[0][0]))
        sub = check_psd(inner, mode="certificates_only")
        trail["reduced_order"] = m - 2
        if sub.is_psd:
            return psd_verdict(DOUBLY_CIRCULANT, **trail)
        if sub.decision == NOT_PSD and sub.witness is not None:
            w = _perturbed_witness(a, sub.witness)
            v = not_psd_verdict(a, w, DOUBLY_CIRCULANT, trail)
            if v is not None:
                return v
        # fall through

    if root.size > _EXACT_ROOT_CAP:
        return inconclusive(route="root-too-large", **trail)

    # root == ints * 2^e exactly; the division and the Gram matrix stay in ints
    ints, e = _scaled_ints(root)
    q, r = _divide_by_sum(_root_form(ints))

    if r:
        # g is nonzero somewhere on the hyperplane: the form changes sign
        trail["route"] = "hyperplane-sign-flip"
        z, keep = _hyperplane_directions(n)
        vals = np.where(keep, _contract(root, [z] * (m - 1)), 0.0)
        i = int(np.argmax(np.abs(vals)))  # the first of the largest
        if vals[i] != 0.0:
            for t in [1e-4, 1e-3, 1e-2, 0.1]:
                w = z[i] - math.copysign(t, vals[i]) * np.ones(n)
                v = not_psd_verdict(a, w, DOUBLY_CIRCULANT, trail)
                if v is not None:
                    return v
        trail["route"] = "hyperplane-witness-not-found"
        return inconclusive(**trail)

    if max(map(sum, q), default=0) == 2:
        gram = _quadratic_gram(q, n)
        trail["route"] = "quadratic-residual"
        if _is_psd_exact(gram):
            return psd_verdict(DOUBLY_CIRCULANT, **trail)
        # the Gram matrix of q in the root's units: gram * 2^(e - 1)
        unit = 2 << -e
        evecs = np.linalg.eigh(np.array([[Fraction(v, unit) for v in row] for row in gram],
                                        dtype=float))[1]
        w = _perturbed_witness(a, evecs[:, 0])
        v = not_psd_verdict(a, w, DOUBLY_CIRCULANT, trail)
        if v is not None:
            return v
        trail["route"] = "quadratic-residual-unresolved"
        return inconclusive(**trail)

    return inconclusive(route="residual-degree-too-high", **trail)
