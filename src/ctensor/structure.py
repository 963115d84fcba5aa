"""Structural classifiers: sign patterns, B/B0 tensors, k-alternative vectors.

Sign comparisons here are exact (no epsilon): the classified entries are user
data, not computed quantities.  Row sums are exactly rounded sums, so that
decisions are order-independent: ``exactsum._fsum`` returns math.fsum's value
bit for bit, extracting the entries' leading bits into exact partial sums and
rounding their total once.  The B0/B inequalities between a row sum and its
off-diagonal maximum are decided exactly.  Circulant sign classes are
decided from the root alone, with no rotated copies (``classify_sign``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import CirculantTensor, DenseTensor, Tensor, is_circulant
from .exactsum import _fsum


class SignClass(str, Enum):
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    ALTERNATIVE = "alternative"
    NEGATIVELY_ALTERNATIVE = "negatively_alternative"
    NONE = "none"


def _parity_signed(arr) -> np.ndarray:
    """``arr`` times (-1)^(sum of its 0-based indices), by negating the
    odd-index half of each axis of a copy in turn."""
    out = np.array(arr, dtype=float)
    for axis in range(out.ndim):
        half = np.swapaxes(out, 0, axis)[1::2]
        np.negative(half, out=half)
    return out


def _alternative_class(arr: np.ndarray) -> SignClass:
    """Alternative, negatively alternative or none: the sign of the
    parity-signed array, for an array that is neither >= 0 nor <= 0."""
    signed = _parity_signed(arr)
    if (signed >= 0).all():
        return SignClass.ALTERNATIVE
    if (signed <= 0).all():
        return SignClass.NEGATIVELY_ALTERNATIVE
    return SignClass.NONE


def classify_sign_array(arr: np.ndarray) -> SignClass:
    """Sign class of a raw array; the zero array reports nonnegative."""
    arr = np.asarray(arr, dtype=float)
    if (arr >= 0).all():
        return SignClass.NONNEGATIVE
    if (arr <= 0).all():
        return SignClass.NONPOSITIVE
    return _alternative_class(arr)


def classify_sign(t: Tensor) -> SignClass:
    """Sign class of the full tensor, from the root alone for circulant input.

    The full tensor holds exactly the root's entries: root[sigma] sits in row
    k (0-based) at indices sigma_l + k mod n, of parity P(k) = k + sum over l
    of (sigma_l + k mod n), and an alternative tensor needs every nonzero
    entry to keep one parity over all rows.  For even n, P(k) = sum(sigma) +
    m k mod 2: with m even every row repeats the root's own parities, with m
    odd every entry meets both.  For odd n, P(k + 1) - P(k) = m + #{l: sigma_l
    = n - 1 - k} mod 2, so P stays constant only where each v in 1..n-1
    occurs among sigma's coordinates a number of times of m's parity.  All
    such sigma share P(0) = sum(sigma) mod 2 (0 for even m, (n - 1) / 2 for
    odd m), so an alternative root would be >= 0 or <= 0 throughout.  Hence
    a root of mixed sign gives none unless n and m are both even.
    """
    if isinstance(t, DenseTensor):
        return classify_sign_array(t.array)
    root = t.root.array
    if (root >= 0).all():
        return SignClass.NONNEGATIVE
    if (root <= 0).all():
        return SignClass.NONPOSITIVE
    if t.dim % 2 or t.order % 2:
        return SignClass.NONE
    return _alternative_class(root)


@dataclass(frozen=True)
class BClassReport:
    is_b0: bool
    is_b: bool
    row_sums: np.ndarray
    max_offdiag: float


def _b_row(row: np.ndarray, diag: int) -> tuple[float, float, bool, bool]:
    """Row sum S, off-diagonal maximum and the B0 and B tests of one flat row
    tensor with its diagonal entry at ``diag``: S >= 0 and S >= N * max_off
    (N = row.size), or both strict.  S and N * max_off are rounded once each
    and rounding is monotone, so only a tie needs the exact S - N * max_off,
    where N * max_off = hi + lo exactly (a product's error is a float)."""
    total = _fsum(row)
    max_off = float(max(row[:diag].max(initial=-math.inf), row[diag + 1:].max(initial=-math.inf)))
    hi = row.size * max_off
    margin = total - hi  # unless 0, of the sign of S - N * max_off
    if total == hi:
        lo = Fraction(max_off) * row.size - Fraction(hi)
        margin = _fsum(np.append(row, (-hi, -float(lo))))
    return total, max_off, total >= 0 and margin >= 0, total > 0 and margin > 0


def b_class(t: Tensor) -> BClassReport:
    """B0/B classification, decided exactly (see ``_b_row``).

    General tensors are tested row by row.  A circulant's row tensors all
    hold the root's entries, so its root alone is tested, with the diagonal
    entry at flat index 0.
    """
    if isinstance(t, CirculantTensor):
        total, max_off, b0, b = _b_row(t.root.array.reshape(-1), 0)
        return BClassReport(b0, b, np.full(t.dim, total), max_off)
    n, m = t.dim, t.order
    step = sum(n**k for k in range(m - 1))  # row j's diagonal: flat j * step
    sums, maxes, b0s, bs = zip(*(_b_row(t.array[j].reshape(-1), j * step) for j in range(n)))
    return BClassReport(all(b0s), all(bs), np.array(sums), max(maxes))


def is_k_alternative(c, k: int) -> bool:
    """Whether the length-(n-1) coefficient vector alternates in stride-k blocks.

    Positions that are odd multiples of k must be >= 0, even multiples <= 0,
    everything else must be 0.  Positions at or beyond n are absent and count
    as satisfied (the definition's index range reaches n but the vector stops
    at n - 1).
    """
    c = np.asarray(c, dtype=float)
    n = len(c) + 1
    if not 1 <= k <= n // 2:
        raise ValueError(f"stride k={k} out of range [1, {n // 2}]")
    for j in range(1, n):  # c[j - 1] holds position j of the 1-based vector
        v = c[j - 1]
        if j % k:
            if v != 0:
                return False
        elif (j // k) % 2 == 1:
            if v < 0:
                return False
        else:
            if v > 0:
                return False
    return True


def hat_one_k(n: int, k: int) -> np.ndarray:
    """Blocks of k ones then k minus-ones, repeated; needs 2k | n."""
    if n % (2 * k):
        raise ValueError(f"n={n} is not divisible by 2k={2 * k}")
    return np.where((np.arange(n) // k) % 2 == 1, -1.0, 1.0)


def is_doubly_circulant(a: CirculantTensor, tol: float = 0.0) -> bool:
    """True iff the root tensor is itself circulant (all row tensors coincide)."""
    if a.order < 3:
        raise ValueError("doubly circulant needs order >= 3")
    return is_circulant(a.root, tol)
