"""Exactly rounded summation of float arrays: math.fsum's value at array speed.

Kept apart from the tensor code: the analysis layers round their root sums,
row sums and radii through ``_fsum`` so that every decision is independent of
the summation order.
"""

from __future__ import annotations

import math

import numpy as np

# _fsum: up to this many entries math.fsum over a list is faster (the
# measured crossover lies at 700 to 1000 entries, later for wider spreads)
_FSUM_CUTOFF = 1024
# entries per extraction chunk: its two work arrays stay in cache
_FSUM_CHUNK = 2**14
# extraction passes per chunk before ``_fsum_ints`` takes over: each pass
# takes about 38 bits of the chunk's exponent range
_FSUM_PASSES = 8
# extraction runs while e + bit length of (N + 1) stays at most this, with
# max|x| < 2^e: sigma stays finite and the partials' sum far from overflow
_FSUM_MAX_EXP = 1020


def _fsum(values) -> float:
    """math.fsum(values), bit for bit, at array speed, but finite wherever
    the exactly rounded sum is.

    Error-free vector extraction (Rump, Ogita and Oishi, Accurate
    floating-point summation part I, SIAM J. Sci. Comput. 31(1), 2008): for a
    chunk p of N entries and sigma = 2^k >= 2^b * max|p| with 2^b >= N + 2,
    q = (sigma + p) - sigma takes p's leading bits, p - q is exact, and every
    q is a multiple of 2^-53 * sigma with sum(|q|) < sigma, so sum(q) is
    exact in any order.  Passes repeat on the remainder until it is zero, and
    math.fsum rounds the few exact partials once.  Inputs the passes cannot
    take (inf or nan, max|x| near the float range, or a spread wider than
    the pass bound) go to ``_fsum_ints``, and so do short inputs where
    math.fsum meets an intermediate overflow: at every size, only an exact
    sum beyond the float range raises OverflowError, and says so.
    """
    x = np.asarray(values, dtype=float).reshape(-1)
    if x.size <= _FSUM_CUTOFF:
        try:
            return math.fsum(x.tolist())
        except OverflowError:
            return _fsum_ints(x)
    size_bits = (x.size + 1).bit_length()
    parts = []
    for start in range(0, x.size, _FSUM_CHUNK):
        p = x[start : start + _FSUM_CHUNK].copy()
        q = np.empty_like(p)
        bits = (p.size + 1).bit_length()
        for _ in range(_FSUM_PASSES):
            top = max(p.max(), -p.min())
            if top == 0:
                break
            exp = math.frexp(top)[1]
            if not math.isfinite(top) or exp + size_bits > _FSUM_MAX_EXP:
                return _fsum_ints(x)
            sigma = math.ldexp(1.0, exp + bits)
            np.add(p, sigma, out=q)
            q -= sigma
            p -= q
            parts.append(float(q.sum()))
        else:
            if p.any():
                return _fsum_ints(x)
    if not parts:  # all zeros: the sign of the zero is math.fsum's
        return math.fsum([-0.0] if np.signbit(x).all() else [0.0])
    return math.fsum(parts)


def _fsum_ints(x: np.ndarray) -> float:
    """``_fsum`` of a flat float array with a nonzero entry, from its
    integer form x == z * 2^e: the exact sum of z, one correctly rounded int
    division, so math.fsum's value.  An inf or nan decides the sum by
    math.fsum's rules, which look at those entries only."""
    special = ~np.isfinite(x)
    if special.any():
        return math.fsum(x[special].tolist())
    ints, e = _scaled_ints(x)
    try:
        return int(ints.sum()) / (1 << -e)
    except OverflowError:
        raise OverflowError("the exact sum lies beyond the float range") from None


def _scaled_ints(x) -> tuple[np.ndarray, int]:
    """Python ints z (object array) and e <= 0 with x == z * 2^e exactly."""
    sig, exp = np.frexp(np.asarray(x, dtype=float))
    mant = (sig * 2.0**53).astype(np.int64)  # x == mant * 2^(exp - 53)
    low = int(exp.min(where=mant != 0, initial=53)) - 53
    return mant.astype(object) << np.where(mant != 0, exp - 53 - low, 0).astype(object), low
