"""Dense and circulant tensor representations and multilinear algebra.

A circulant tensor of order m and dimension n is stored by its root tensor
(order m-1): every entry is obtained by cyclically shifting all indices so
the first one becomes 1.  All index tuples in the public API are 1-based.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import plans
from .exactsum import _fsum, _scaled_ints

DEFAULT_BUDGET = 10**7
# entries per gathered block in symmetrize: the block stays in cache and no
# root-sized temporary is allocated
_GATHER_CHUNK = 2**14


class BudgetError(ValueError):
    """A dense materialization would exceed the entry budget."""


def materialization_budget() -> int:
    """Entry-count cap for dense materialization (CTENSOR_BUDGET overrides)."""
    env = os.environ.get("CTENSOR_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class DenseTensor:
    """Explicit order-m, dimension-n multi-array, row-major, 1-based indices."""

    array: np.ndarray
    # max |entry|, found by the finiteness check when the tensor is built
    max_abs: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=float)
        if arr.ndim < 1:
            raise ValueError("tensor order must be >= 1")
        n = arr.shape[0]
        if n < 2:
            raise ValueError("tensor dimension must be >= 2")
        if arr.shape != (n,) * arr.ndim:
            raise ValueError(f"all modes must have equal length, got {arr.shape}")
        top = float(max(arr.max(), -arr.min()))  # nan or inf if an entry is
        if not math.isfinite(top):
            raise ValueError("tensor entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "max_abs", top)

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Row-major flattening."""
        return self.array.reshape(-1)

    def entry(self, idx) -> float:
        return float(self.array[_to0(idx, self.dim, self.order)])


@dataclass(frozen=True)
class CirculantTensor:
    """Order-m circulant tensor generated from its order-(m-1) root tensor."""

    root: DenseTensor
    order: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "order", self.root.order + 1)
        object.__setattr__(self, "dim", self.root.dim)

    @property
    def diagonal_entry(self) -> float:
        """The common diagonal entry (first entry of the root)."""
        return float(self.root.array[(0,) * self.root.order])

    @property
    def max_abs(self) -> float:
        """max |entry|, the root's."""
        return self.root.max_abs

    @property
    def off_diagonal(self) -> np.ndarray:
        """Flat view of the root's entries after the first: the off-diagonal
        entries of row 1 (flat index 0 is the diagonal entry)."""
        return self.root.array.reshape(-1)[1:]

    def entry(self, idx) -> float:
        return entry(self, idx)


Tensor = DenseTensor | CirculantTensor


def _to0(idx, n: int, order: int) -> tuple:
    idx = tuple(int(i) for i in idx)
    if len(idx) != order:
        raise ValueError(f"expected {order} indices, got {len(idx)}")
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range [1, {n}]")
    return tuple(i - 1 for i in idx)


def _integer(value, name: str) -> int:
    """``value`` as an int: integers (numpy ones too), not floats or bools."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def circulant_from_root(root: DenseTensor | np.ndarray) -> CirculantTensor:
    """Circulant tensor whose first row tensor is ``root``."""
    if not isinstance(root, DenseTensor):
        root = DenseTensor(np.asarray(root, dtype=float))
    return CirculantTensor(root)


def entry(a: CirculantTensor, idx) -> float:
    """Entry a_{j1...jm}: shift all indices so the first becomes 1, read root.

    The reduction is sigma_l = ((j_l - j_1) mod n) + 1 for l = 2..m, which is
    the row-recursion identity applied j_1 - 1 times.
    """
    j = _to0(idx, a.dim, a.order)
    sigma = tuple((jl - j[0]) % a.dim for jl in j[1:])
    return float(a.root.array[sigma])


def _row(root: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row k (0-based) of the circulant with this root: every index shifted
    back by k, one wrapping take per axis, the last one into ``out``."""
    n = root.shape[0]
    back = np.arange(-k, n - k)
    row = root
    for axis in range(root.ndim - 1):
        row = row.take(back, axis=axis, mode="wrap")
    return row.take(back, axis=root.ndim - 1, out=out, mode="wrap")


def row_tensor(a: CirculantTensor, k: int) -> DenseTensor:
    """k-th row tensor (entries a_{k j2...jm}); k=1 returns the root."""
    if not 1 <= k <= a.dim:
        raise ValueError(f"row index {k} out of range [1, {a.dim}]")
    return DenseTensor(_row(a.root.array, k - 1))


def materialize(a: Tensor) -> DenseTensor:
    """Dense tensor agreeing with entry() everywhere (budget-capped)."""
    if isinstance(a, DenseTensor):
        return a
    cap = materialization_budget()
    if a.dim**a.order > cap:
        raise BudgetError(
            f"dense materialization of {a.dim}^{a.order} entries exceeds budget {cap}"
        )
    out = np.empty((a.dim,) * a.order)
    for k in range(a.dim):
        _row(a.root.array, k, out[k])
    return DenseTensor(out)


def is_circulant(t: Tensor, tol: float = 0.0) -> bool:
    """True iff entries are invariant under the simultaneous cyclic index
    shift: |a(j) - a(j - 1)| <= tol everywhere, where j - 1 steps every index
    back cyclically.  Rows 1..n-1 meet rows 0..n-2, and row 0 meets row n-1,
    each with a wrapping take on the other axes; row 0 goes first, so most
    non-circulant tensors fail on 1/n of the array."""
    if isinstance(t, CirculantTensor):
        return True
    arr = t.array
    if arr.ndim < 2:
        raise ValueError("circulant test needs order >= 2")
    back = np.arange(-1, arr.shape[0] - 1)
    with np.errstate(over="ignore"):  # an infinite gap exceeds every tol
        for here, prev in ((arr[:1], arr[-1:]), (arr[1:], arr[:-1])):
            for axis in range(1, arr.ndim):
                prev = prev.take(back, axis=axis, mode="wrap")
            gap = np.subtract(here, prev, out=prev)
            if not np.max(np.abs(gap, out=gap)) <= tol:
                return False
    return True


def is_toeplitz(t: Tensor, tol: float = 0.0) -> bool:
    """True iff a_{j1..jm} = a_{j1+1..jm+1} for all indices in [n-1]
    (always, for a circulant tensor)."""
    if isinstance(t, CirculantTensor):
        return True
    arr = t.array
    if arr.ndim < 2:
        raise ValueError("Toeplitz test needs order >= 2")
    lo = arr[(slice(0, -1),) * arr.ndim]
    hi = arr[(slice(1, None),) * arr.ndim]
    return bool(np.max(np.abs(lo - hi)) <= tol) if lo.size else True


def as_circulant(t: Tensor, tol: float = 0.0) -> CirculantTensor:
    """View a (numerically) circulant dense tensor through its first row."""
    if isinstance(t, CirculantTensor):
        return t
    if not is_circulant(t, tol):
        raise ValueError("tensor is not circulant within tolerance")
    return CirculantTensor(DenseTensor(t.array[0]))


def _contract(arr: np.ndarray, vecs: list[np.ndarray]) -> np.ndarray:
    """Contract the leading len(vecs) modes of ``arr`` with one batch of
    vectors each (every entry of ``vecs`` is (R, n)): a matmul chain over the
    batch axis, returning (R,) + arr.shape[len(vecs):]."""
    num, n = vecs[0].shape
    flat = arr.reshape(n, -1)
    if np.iscomplexobj(vecs[0]) and not np.iscomplexobj(arr):
        # complex @ real would cast a complex copy of arr: contract the parts
        out = np.empty((num, flat.shape[1]), complex)
        out.real = vecs[0].real @ flat
        out.imag = vecs[0].imag @ flat
    else:
        out = vecs[0] @ flat
    for v in vecs[1:]:
        out = (v[:, None, :] @ out.reshape(num, n, -1))[:, 0]
    return out.reshape((num,) + arr.shape[len(vecs):])


def _rotations(x: np.ndarray) -> np.ndarray:
    """Row k holds x rotated left by k positions."""
    return x[plans.rotations(len(x))]


def _stored(a: Tensor) -> np.ndarray:
    return a.root.array if isinstance(a, CirculantTensor) else a.array


def _form(a: Tensor, x: np.ndarray, arr: np.ndarray | None = None):
    """A x^m with ``arr`` of any dtype (Python ints in object arrays too) in
    place of the stored array: a circulant's root contracts with the n
    rotations of x, A x^m = sum_k x_k * rootform(x rotated left by k)."""
    arr = _stored(a) if arr is None else arr
    if isinstance(a, CirculantTensor):
        return np.dot(x, _contract(arr, [_rotations(x)] * arr.ndim))
    return _contract(arr, [x[None]] * arr.ndim)[0]


def _exact_form(a: Tensor, w) -> Fraction:
    """A w^m as an exact Fraction: the stored array and w scale to Python
    ints (floats are dyadic) and run through ``_form`` in object arrays.
    Random roots take about 2 ms at (m, n) = (4, 10), 0.12 s at (4, 30) and
    1.6 s at (4, 60) on one core of a 2-core x86 machine."""
    ints, e_a = _scaled_ints(_stored(a))
    z, e_w = _scaled_ints(w)
    return Fraction(int(_form(a, z, ints)), 1 << -(e_a + a.order * e_w))


def apply_full(a: Tensor, x) -> float | complex:
    """Homogeneous form A x^m = sum a_{j1..jm} x_{j1}...x_{jm}.

    Circulant input is evaluated from the root without materializing:
    A x^m = sum_k x_k * rootform(x rotated by k-1).  Raises OverflowError
    when a sum or product forming the value overflows: the entries are
    finite, so for finite x only an overflow makes the value non-finite.
    """
    x = np.asarray(x)
    if x.shape != (a.dim,):
        raise ValueError(f"expected vector of length {a.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        val = _form(a, x)
    if not np.isfinite(val) and np.isfinite(x).all():
        raise OverflowError("the form value overflows the float range")
    return complex(val) if np.iscomplexobj(x) else float(val)


def apply_partial(a: Tensor, x) -> np.ndarray:
    """The vector A x^{m-1} with components sum a_{j j2..jm} x_{j2}...x_{jm}."""
    x = np.asarray(x)
    n = a.dim
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}")
    if isinstance(a, DenseTensor):
        if a.order == 1:
            return a.array
        # the free mode moves last, the others contract as leading modes
        return _contract(np.moveaxis(a.array, 0, -1), [x[None]] * (a.order - 1))[0]
    # row k sees x rotated left by k-1 positions: one batched contraction
    return _contract(a.root.array, [_rotations(x)] * (a.order - 1))


def matrix_product(a: Tensor, q: np.ndarray) -> DenseTensor:
    """Mode-uniform product A Q^m: contract every mode of A with Q.

    Satisfies (A Q^m) x^m = A (Qx)^m.  Q may be rectangular (n x N), in which
    case the output dimension is N.
    """
    q = np.asarray(q, dtype=float)
    arr = materialize(a).array if isinstance(a, CirculantTensor) else a.array
    if q.ndim != 2 or q.shape[0] != arr.shape[0]:
        raise ValueError(f"matrix must have {arr.shape[0]} rows, got {q.shape}")
    out = arr
    for _ in range(arr.ndim):
        out = np.tensordot(out, q, axes=([0], [0]))
    return DenseTensor(out)


def symmetrize(a: Tensor):
    """The unique symmetric tensor with the same homogeneous form.

    Averages the dense array over all mode permutations (uniform multiplicity
    makes this equal to the distinct-permutation average) as a coset sum:
    S_m is the union over k of the permutations that move axis k to the
    front, so the sum first adds the m arrays ``np.moveaxis(arr, k, 0)`` and
    then sums that over S_{m-1} on the trailing axes by insertion,
    S_i = sum_{j <= i} (j i) S_{i-1}: m + (m-1)(m-2)/2 array passes instead
    of m!.  Circulant input yields circulant output in root form, from the
    root alone: the first row of each moved array is the slice with axis k
    at index 0, one flat gather (the shape's ``plans.coset_gather``) from a
    copy of the root with its axis k-1 moved first, and the trailing-axis
    sum runs on the root in the same order, so the result is the dense
    one's first row bit for bit.  Besides the gather, at most two
    root-sized arrays are live at a time.

    Every entry is an average of finite entries, but a partial sum of up
    to m! of them can overflow when m! max|a| nears the float range.  From
    2^1023 on (half the range, a margin for rounding) the sum runs on the
    ``_normalized`` entries and the averages are scaled back: exact, bar
    entries that underflow, far below the largest.  Below it the entries
    are summed as they are.
    """
    if math.factorial(a.order) * a.max_abs < 2.0**1023:
        return _coset_average(a)
    b, shift = _normalized(a)
    return _scaled(_coset_average(b), shift)


def _scaled(a: Tensor, shift: int) -> Tensor:
    """``a`` times 2^shift, a tensor of the same kind."""
    scaled = np.ldexp(_stored(a), shift)
    if isinstance(a, DenseTensor):
        return DenseTensor(scaled)
    return circulant_from_root(scaled)


def _normalized(a: Tensor) -> tuple[Tensor, int]:
    """``a`` times 2^-shift with its largest row 1-norm in [8, 16), and the
    shift; ``a`` itself, shift 0, when that norm lies there already.
    That norm, max_i sum |a[i, ...]| (sum |root| for a circulant), bounds
    the gradient A x^(m-1) entrywise on the unit sphere, so every numeric
    solve runs with the same penalty relative to its data.  It is an exact
    sum of the entries times 2^-e, max|a| < 2^e: it cannot overflow, and it
    gives 2^k A the shift of A plus k and a circulant the shift of its dense
    form.  A power of two scales exactly, bar entries that underflow, far
    below the largest, and moves neither the sphere minimizer nor any
    sign."""
    e = math.frexp(a.max_abs)[1]
    rows = np.ldexp(np.abs(_stored(a)), -e)
    rows = rows.reshape(1 if isinstance(a, CirculantTensor) else a.dim, -1)
    shift = e + math.frexp(max(_fsum(row) for row in rows))[1] - 4
    if shift == 0:
        return a, 0
    return _scaled(a, -shift), shift


def _coset_average(a: Tensor) -> Tensor:
    """``symmetrize``'s coset sum, divided by m!."""
    m = a.order
    if isinstance(a, DenseTensor):
        arr = a.array
        acc = arr.copy()
        for k in range(1, m):
            acc += np.moveaxis(arr, k, 0)
        first = 1
    else:
        root = a.root.array
        gather = plans.coset_gather(m, a.dim)
        acc = root.copy()  # the slice with axis 1 at index 0 is the root
        moved = np.empty_like(root)
        out, src = acc.reshape(-1), moved.reshape(-1)
        axes = list(range(m - 1))
        for k in range(1, m):
            moved[...] = root.transpose([axes[k - 1]] + axes[: k - 1] + axes[k:])
            for lo in range(0, out.size, _GATHER_CHUNK):
                out[lo : lo + _GATHER_CHUNK] += src[gather[lo : lo + _GATHER_CHUNK]]
        del moved, src
        first = 0
    for i in range(first + 1, acc.ndim):
        prev = acc
        acc = prev.copy()
        for j in range(first, i):
            acc += prev.swapaxes(j, i)
        del prev
    acc /= math.factorial(m)
    if isinstance(a, DenseTensor):
        return DenseTensor(acc)
    return CirculantTensor(DenseTensor(acc))


def _diagonal(arr: np.ndarray) -> np.ndarray:
    """View of the main diagonal (j, ..., j) of a C-contiguous (n,)*m array:
    every (1 + n + ... + n^(m-1))-th entry of the flat array."""
    n = arr.shape[0]
    return arr.reshape(-1)[:: sum(n**k for k in range(arr.ndim))]


def _diagonal_array(values, m: int) -> np.ndarray:
    """Order-m array with ``values`` on its main diagonal, zeros elsewhere."""
    out = np.zeros((len(values),) * m)
    _diagonal(out)[:] = values
    return out


def perm_matrix(n: int) -> np.ndarray:
    """Cyclic shift matrix P: ones on the superdiagonal and at (n, 1)."""
    return np.roll(np.eye(n), 1, axis=1)


def associated_array(a: CirculantTensor) -> np.ndarray:
    """Root tensor with its (1,...,1) entry zeroed (the off-diagonal carrier)."""
    arr = a.root.array.copy()
    arr[(0,) * arr.ndim] = 0.0
    return arr
