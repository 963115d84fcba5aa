"""Native eigenvalues of circulant tensors via the associated polynomial.

Every circulant tensor of dimension n shares the n eigenvectors
v_k = (1, w_k, ..., w_k^{n-1}) with w_k = exp(2*pi*i*k/n); the corresponding
eigenvalues are the values of the associated polynomial at the w_k.  The
first one (k = 0) and, for even n, the middle one (k = n/2) are real
H-eigenvalues with H-eigenvectors 1 and (1, -1, 1, -1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import plans
from .core import CirculantTensor, apply_partial, associated_array
from .exactsum import _fsum
from .structure import SignClass, _parity_signed, classify_sign_array


@dataclass(frozen=True)
class NativeSpectrum:
    """The n shared eigenvalues and the reduced polynomial coefficients."""

    lambdas: np.ndarray  # complex, length n; lambdas[k] = f(w_k)
    coeffs: np.ndarray  # real, length n; exponent-reduced mod n


@dataclass(frozen=True)
class GershgorinDisc:
    center: float
    radius: float

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius + tol


@dataclass(frozen=True)
class ExtremeEigenvalue:
    """Certified largest/smallest H-eigenvalue with the structural basis."""

    value: float
    kind: str  # "largest" | "smallest"
    basis: str  # which sign structure of the associated tensor applied


# 2^123 below the float range: room for the FFT's growth, a small multiple
# of n^2 at most, at any n
_NEAR_RANGE = 2.0**900


def _root_sums(a: CirculantTensor, compute, what: str) -> np.ndarray:
    """``compute()``, sums of root entries, or OverflowError when one of
    them overflows.

    Each sum is at most sum|root| <= size * max|root| times a factor
    polynomial in n, so while size * max|root| stays below _NEAR_RANGE none
    can.  Above it the sums run with numpy's overflow reports off; the
    entries are finite, so only an overflow makes the result non-finite,
    and one check decides it.
    """
    if a.root.array.size * a.max_abs < _NEAR_RANGE:
        return compute()
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute()
    if not np.isfinite(out).all():
        raise OverflowError(f"{what} overflows the float range")
    return out


def associated_coeffs(a: CirculantTensor) -> np.ndarray:
    """Coefficients of the associated polynomial, exponents reduced mod n.

    The exponent of a root entry at (1-based) indices (j1..j_{m-1}) is
    j1+...+j_{m-1}-m+1 = sum of the 0-based indices; reduction mod n is valid
    because the polynomial is only ever evaluated at n-th roots of unity.
    Raises OverflowError when a coefficient's sum overflows.
    """
    root, n = a.root.array, a.dim
    # bins[i, r]: the root entries with leading index i whose other indices
    # sum to r mod n, each bin added in flat order (np.add.at adds in index
    # order; numpy >= 1.25 runs it at array speed); exponent s collects
    # bins[i, s - i] for i = 0, 1, ..., n-1 in turn, starting from +0.0
    keys, skew = plans.exponent_bins(a.order, n)

    def fold():
        bins = np.zeros(n * n)
        np.add.at(bins, keys, root.reshape(-1))
        return np.add.reduce(bins[skew], axis=0, initial=0.0)

    return _root_sums(a, fold, "an associated coefficient sum")


def native_eigenvalues(a: CirculantTensor) -> NativeSpectrum:
    """All n native eigenvalues lambda_k = sum_s coeffs[s] * w_k^s.

    Raises OverflowError when a sum forming a coefficient or an eigenvalue
    overflows (``_root_sums``).
    """
    coeffs = associated_coeffs(a)
    # ifft uses the +2*pi*i*k*s/n kernel, so n * ifft is exactly this sum
    lambdas = _root_sums(a, lambda: np.fft.ifft(coeffs) * a.dim, "a native eigenvalue sum")
    return NativeSpectrum(lambdas=lambdas, coeffs=coeffs)


def native_eigenvector(n: int, k: int) -> np.ndarray:
    """v_k = (1, w_k, ..., w_k^{n-1})."""
    w = np.exp(2j * np.pi * k / n)
    return w ** np.arange(n)


def first_native(a: CirculantTensor) -> float:
    """lambda_0: the sum of all root entries (an H-eigenvalue, eigenvector 1)."""
    return _fsum(a.root.array)


def alternative_native(a: CirculantTensor) -> float:
    """lambda_{n/2} for even n: the parity-alternating root sum (eigenvector 1^)."""
    n = a.dim
    if n % 2:
        raise ValueError("alternative native eigenvalue needs even n")
    return _fsum(_parity_signed(a.root.array))


def gershgorin(a: CirculantTensor) -> GershgorinDisc:
    """Disc centered at the diagonal entry with the associated-tensor 1-norm radius.

    Every eigenvalue of the tensor lies inside it.  The radius is one exact
    sum of the off-diagonal magnitudes, rounded once.
    """
    radius = _fsum(np.abs(a.off_diagonal))
    return GershgorinDisc(center=a.diagonal_entry, radius=radius)


def eigen_residual(a, lam: complex, x) -> float:
    """sup-norm residual of A x^{m-1} = lambda * x^[m-1], scale-normalized."""
    x = np.asarray(x, dtype=complex)
    if not np.any(x):
        raise ValueError("eigenvector must be nonzero")
    lhs = apply_partial(a, x)
    rhs = lam * x ** (a.order - 1)
    scale = max(1.0, float(np.max(np.abs(x))) ** (a.order - 1))
    return float(np.max(np.abs(lhs - rhs))) / scale


def extreme_h_eigenvalue(a: CirculantTensor) -> ExtremeEigenvalue | None:
    """Largest/smallest H-eigenvalue when the associated tensor's sign
    structure identifies it; None otherwise.

    Nonnegative associated tensor -> lambda_0 is the largest H-eigenvalue;
    non-positive -> smallest.  For even n, alternative -> lambda_{n/2}
    largest; negatively alternative -> smallest.
    """
    assoc = associated_array(a)
    tag = classify_sign_array(assoc)
    if tag == SignClass.NONNEGATIVE:
        return ExtremeEigenvalue(first_native(a), "largest", "nonneg-associated")
    if tag == SignClass.NONPOSITIVE:
        return ExtremeEigenvalue(first_native(a), "smallest", "nonpos-associated")
    if a.dim % 2 == 0:
        if tag == SignClass.ALTERNATIVE:
            return ExtremeEigenvalue(alternative_native(a), "largest", "alternative-associated")
        if tag == SignClass.NEGATIVELY_ALTERNATIVE:
            return ExtremeEigenvalue(alternative_native(a), "smallest", "neg-alternative-associated")
    return None
