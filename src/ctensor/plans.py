"""Read-only index plans shared by every circulant tensor of one shape.

All circulant tensors of order m and dimension n have the same index
geometry: the same cyclic-shift orbits, the same rotations and the same
exponent classes mod n of the associated polynomial.  The gather and
exponent tables of the root kernels therefore depend on (m, n) only.  Each
is built on first use and kept, read-only, for later calls (the plan idea of
Frigo and Johnson, The Design and Implementation of FFTW3, Proc. IEEE 93(2),
2005).  Nothing is built at import.

Retained plans hold at most ``CAP_ENTRIES`` array entries in total, first
come first kept.  A plan that does not fit under the cap is built for its
one call and dropped.  Kernels read plans through fancy indexing and
``np.add.at``: ``np.take`` and ``np.bincount`` copy a read-only index array
on every call.
"""

from __future__ import annotations

import threading

import numpy as np

CAP_ENTRIES = 1 << 18  # 2 MiB of int64 indices

_plans: dict = {}
_retained = 0
_lock = threading.Lock()


def cached(key, build) -> tuple:
    """The plan under ``key``: a tuple of read-only arrays, built by
    ``build()`` on a miss and retained if it fits under the cap."""
    global _retained
    plan = _plans.get(key)
    if plan is not None:
        return plan
    plan = build()
    for arr in plan:
        arr.flags.writeable = False
    size = sum(arr.size for arr in plan)
    with _lock:
        if key not in _plans and _retained + size <= CAP_ENTRIES:
            _plans[key] = plan
            _retained += size
    return plan


def coset_gather(m: int, n: int) -> np.ndarray:
    """Flat gather G with G[j1, r] = X[-j1, r - j1] over (n,)*(m-1) (indices
    mod n, r a multi-index).  For X = ``np.moveaxis(root, k-1, 0)`` it gives
    the slice of the order-m circulant tensor with j_{k+1} = 1, ``k >= 1``.
    The flat index is summed axis by axis, so only the last sum has the
    plan's full size."""

    def build():
        d = m - 1
        j1 = np.arange(n).reshape((n,) + (1,) * (d - 1))
        flat = (-j1 % n) * n ** (d - 1)
        for axis in range(1, d):
            r = np.arange(n).reshape((1,) * axis + (n,) + (1,) * (d - 1 - axis))
            flat = flat + (r - j1) % n * n ** (d - 1 - axis)
        return (flat.reshape(-1),)

    return cached(("coset", m, n), build)[0]


def exponent_bins(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, skew) for the associated polynomial of an order-m root.

    keys[p] = i n + (sum of the other indices mod n) for the root entry at
    flat position p with leading index i, so one scatter-add fills the n x n
    bins of every leading index.  skew[i, s] = i n + (s - i) mod n is the
    flat position of leading index i's contribution to exponent s."""

    def build():
        rest = (np.indices((n,) * (m - 2)).sum(axis=0) % n).reshape(-1)
        lead = np.arange(n)[:, None] * n
        skew = lead + (np.arange(n) - np.arange(n)[:, None]) % n
        return (lead + rest).reshape(-1), skew

    return cached(("exponents", m, n), build)


def rotations(n: int) -> np.ndarray:
    """n x n gather whose row k rotates a length-n vector left by k."""

    def build():
        ar = np.arange(n)
        return ((ar[:, None] + ar) % n,)

    return cached(("rotations", n), build)[0]
