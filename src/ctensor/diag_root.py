"""Circulant tensors with diagonal root tensors, and doubly circulant tensors.

A diagonal root places c_0, ..., c_{n-1} on the root's diagonal and zeros
elsewhere.  Such tensors have a fully explicit eigenstructure (that of an
n x n circulant matrix built from c) and an exact semi-definiteness decision
in several regimes.  A doubly circulant tensor has a circulant root, so all
of its row tensors coincide and its form factors through sum(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy as sp

from .core import (
    CirculantTensor,
    DenseTensor,
    _diagonal,
    _diagonal_array,
    apply_full,
    circulant_from_root,
    is_circulant,
)
from .spectral import eigen_residual
from .structure import hat_one_k, is_doubly_circulant, is_k_alternative
from .verdict import (
    DIAG_ROOT,
    DOUBLY_CIRCULANT,
    NOT_PSD,
    PsdVerdict,
    inconclusive,
    not_psd_verdict,
    psd_verdict,
)

_SYMBOLIC_ROOT_CAP = 4096  # root entries; beyond this skip the exact reduction


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


@dataclass(frozen=True)
class CirculantMatrix:
    """n x n matrix with first column c (constant wrapped diagonals)."""

    c: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        ar = np.arange(len(self.c))
        return self.c[(ar[:, None] - ar) % len(self.c)]

    def eigenvalues(self) -> np.ndarray:
        """mu_k = sum_j c_j w_k^j for w_k = exp(2*pi*i*k/n)."""
        n = len(self.c)
        return np.fft.ifft(self.c) * n


def circulant_matrix(spec: DiagRootSpec) -> CirculantMatrix:
    return CirculantMatrix(c=spec.c.copy())


def diag_root_eigenpairs(spec: DiagRootSpec, residual_tol: float = 1e-8):
    """All eigenpairs (mu_k, y_kl): y_j = eta^{j-1} with eta^{m-1} = w_k.

    For each k there are m-1 eigenvectors, one per (m-1)-th root
    eta = exp(2*pi*i*(k + l*n) / (n*(m-1))), l = 0..m-2.  Every pair is
    gated by the eigen-residual check before being returned.
    """
    m, n = spec.order, spec.dim
    if m < 3:
        raise ValueError("eigenpair enumeration needs order >= 3")
    a = expand(spec)
    mus = circulant_matrix(spec).eigenvalues()
    pairs = []
    for k in range(n):
        for l in range(m - 1):
            eta = np.exp(2j * np.pi * (k + l * n) / (n * (m - 1)))
            y = eta ** np.arange(n)
            lam = mus[k]
            res = eigen_residual(a, lam, y)
            if res > residual_tol:
                raise AssertionError(
                    f"eigenpair (k={k}, l={l}) failed residual check: {res}"
                )
            pairs.append((complex(lam), y))
    return pairs


def diag_root_form(spec: DiagRootSpec, x) -> float:
    """A x^m = sum_{j,l} c_{(l-j) mod n} x_j x_l^{m-1} (quadratic-like shape)."""
    x = np.asarray(x, dtype=float)
    n = spec.dim
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}")
    ct = CirculantMatrix(spec.c).matrix.T
    return float(x @ (ct @ x ** (spec.order - 1)))


def _exact_sign_form(spec: DiagRootSpec, x: np.ndarray) -> Fraction:
    """Exact rational value of the form (float entries are dyadic rationals)."""
    n = spec.dim
    total = Fraction(0)
    xv = [Fraction(float(v)) for v in x]
    for j in range(n):
        for l in range(n):
            total += Fraction(spec.c[(l - j) % n]) * xv[j] * xv[l] ** (spec.order - 1)
    return total


def _exact_not_psd(spec: DiagRootSpec, a, witness, details) -> PsdVerdict:
    """Emit a refutation whose witness value is certified by exact arithmetic.

    The float form value can round to zero on hairline margins; the rational
    evaluation cannot, and the emitting conditions are exact sums, so a
    nonnegative exact value indicates an internal logic error.
    """
    exact = _exact_sign_form(spec, np.asarray(witness, dtype=float))
    if exact >= 0:
        raise AssertionError("refutation witness has nonnegative exact value")
    return not_psd_verdict(a, witness, DIAG_ROOT, details, exact=exact)


def diag_root_psd(spec: DiagRootSpec) -> PsdVerdict:
    """Exact semi-definiteness decision for diagonal-root circulant tensors.

    Order of attack: the necessary sign checks on c_0 and the two real
    native eigenvalues; the dominance condition c_0 >= sum |c_j|; the
    non-positive-tail and block-alternating regimes where dominance is also
    necessary.  All sums are exact (fsum), so the comparisons carry no
    floating tolerance.  Inconclusive results defer to the general chain.
    """
    m, n = spec.order, spec.dim
    if m % 2:
        raise ValueError("semi-definiteness needs even order")
    c = spec.c
    a = expand(spec)
    trail: dict = {"route": None}

    c0 = float(c[0])
    lam0 = math.fsum(c)
    trail["c0"] = c0
    trail["lambda0"] = lam0
    if c0 < 0:
        e1 = np.zeros(n)
        e1[0] = 1.0
        trail["route"] = "necessary-c0"
        return _exact_not_psd(spec, a, e1, trail)
    if lam0 < 0:
        trail["route"] = "necessary-lambda0"
        return _exact_not_psd(spec, a, np.ones(n), trail)
    if n % 2 == 0:
        lam_half = math.fsum(v * (-1.0) ** j for j, v in enumerate(c))
        trail["lambda_n_half"] = lam_half
        if lam_half < 0:
            trail["route"] = "necessary-alternating"
            return _exact_not_psd(spec, a, hat_one_k(n, 1), trail)

    margin = math.fsum([c0] + [-abs(v) for v in c[1:]])
    trail["dominance_margin"] = margin
    if margin >= 0:
        trail["route"] = "dominance"
        return psd_verdict(DIAG_ROOT, **trail)

    if np.all(c[1:] <= 0):
        # dominance is necessary here and it just failed
        trail["route"] = "nonpositive-tail"
        return _exact_not_psd(spec, a, np.ones(n), trail)

    if n % 2 == 0:
        half = n // 2
        for k in range(1, half + 1):
            if half % k:
                continue
            if is_k_alternative(c[1:], k):
                # form value at the block witness is n * margin < 0
                trail["route"] = f"block-alternating-k{k}"
                witness = hat_one_k(n, k) / math.sqrt(n)
                return _exact_not_psd(spec, a, witness, trail)

    trail["route"] = "undecided"
    return inconclusive(**trail)


def doubly_reduce(a: CirculantTensor, x) -> float:
    """Evaluate A x^m through the factored identity of doubly circulant tensors.

    A x^m = sum(x) * (A_1 x^{m-1}); when the root is itself doubly circulant
    this deepens to sum(x)^2 * (A_11 x^{m-2}).
    """
    if not is_doubly_circulant(a):
        raise ValueError("tensor is not doubly circulant")
    x = np.asarray(x, dtype=float)
    root = a.root
    s = math.fsum(x)
    if root.order >= 3 and is_circulant(DenseTensor(root.array[0])):
        inner = DenseTensor(root.array[0])
        return s * s * float(apply_full(inner, x))
    return s * float(apply_full(root, x))


def _sum_vector_poly(n: int):
    xs = sp.symbols(f"x1:{n + 1}")
    return xs, sum(xs)


def _root_form_poly(arr: np.ndarray, xs) -> sp.Expr:
    expr = sp.Integer(0)
    for idx in np.ndindex(arr.shape):
        v = arr[idx]
        if v != 0:
            term = sp.Rational(float(v))
            for i in idx:
                term *= xs[i]
            expr += term
    return expr


def _quadratic_gram(q_expr: sp.Expr, xs) -> sp.Matrix:
    return sp.hessian(q_expr, xs) / 2


def _perturbed_witness(a, direction: np.ndarray) -> np.ndarray:
    """Nudge a negative direction off the sum(x)=0 hyperplane: the candidate
    with the least form value of the full tensor, the first of any tie."""
    steps = [0.0, 1e-3, 1e-2, 0.1, 0.25, 0.5, -1e-3, -1e-2, -0.1, -0.25, -0.5]
    candidates = [w for w in (direction + t for t in steps) if abs(w.sum()) >= 1e-12]
    return min(candidates, key=lambda w: float(apply_full(a, w)))


def doubly_psd(a: CirculantTensor) -> PsdVerdict:
    """Semi-definiteness of a doubly circulant tensor via its factored form.

    With g(x) = A_1 x^{m-1}, the form is sum(x) * g(x).  If g does not vanish
    on the hyperplane sum(x) = 0, a sign flip across it refutes.  Otherwise
    sum(x) divides g exactly and A x^m = sum(x)^2 * q(x); for m = 4 the
    residual quadratic q is decided exactly, and for deeper circulant roots
    the decision recurses on the root of the root.  Anything else is left to
    the general chain.
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

    if root.size > _SYMBOLIC_ROOT_CAP:
        return inconclusive(route="root-too-large", **trail)

    xs, s_expr = _sum_vector_poly(n)
    g = sp.Poly(_root_form_poly(root, xs), *xs, domain="QQ")
    s_poly = sp.Poly(s_expr, *xs, domain="QQ")
    q, r = sp.div(g, s_poly)

    if not r.is_zero:
        # g is nonzero somewhere on the hyperplane: the form changes sign
        trail["route"] = "hyperplane-sign-flip"
        g_fn = sp.lambdify(xs, g.as_expr(), "numpy")
        rng = np.random.default_rng(7)
        best, best_val = None, 0.0
        for _ in range(256):
            z = rng.normal(size=n)
            z -= z.mean()
            norm = np.linalg.norm(z)
            if norm < 1e-12:
                continue
            z /= norm
            gv = float(g_fn(*z))
            if abs(gv) > abs(best_val):
                best, best_val = z, gv
        if best is not None and best_val != 0.0:
            for t in [1e-4, 1e-3, 1e-2, 0.1]:
                w = best - math.copysign(t, best_val) * np.ones(n)
                v = not_psd_verdict(a, w, DOUBLY_CIRCULANT, trail)
                if v is not None:
                    return v
        trail["route"] = "hyperplane-witness-not-found"
        return inconclusive(**trail)

    q_expr = q.as_expr()
    if q.total_degree() == 2:
        gram = _quadratic_gram(q_expr, xs)
        verdict = gram.is_positive_semidefinite
        trail["route"] = "quadratic-residual"
        if verdict is True:
            return psd_verdict(DOUBLY_CIRCULANT, **trail)
        if verdict is False:
            gf = np.array(gram.evalf(), dtype=float)
            evals, evecs = np.linalg.eigh(gf)
            w = _perturbed_witness(a, evecs[:, 0])
            v = not_psd_verdict(a, w, DOUBLY_CIRCULANT, trail)
            if v is not None:
                return v
        trail["route"] = "quadratic-residual-unresolved"
        return inconclusive(**trail)

    return inconclusive(route="residual-degree-too-high", **trail)
