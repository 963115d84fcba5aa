"""Alternating direction method of multipliers on the unit sphere.

Minimizes the multilinear form A x^1 ... x^m over m unit-sphere blocks tied
together by cyclic consensus constraints x^j = x^{j+1}.  Each block update is
a linear objective on the sphere (the quadratic penalty term is constant
there), so it has the closed-form solution -b/||b||.  Multi-start from random
unit vectors recovers the global sphere minimum of A x^m with high
probability on small instances.

All restarts iterate together on one (2, m, n, R) array of blocks and
multipliers, the restarts on the last, contiguous axis.  A block update is
one GEMM of the symmetrized tensor against the outer product of the other
blocks, plus elementwise steps along rows of R, all written in place; a
restart leaves the batch as soon as it meets the stopping rule.  A single
solve is the R = 1 case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import Tensor, _contract, _integer, _normalized, materialize, symmetrize

# the penalty multiples a restart runs at, each from its own start, until it stops
_PENALTIES = (1.0, 4.0, 16.0)


@dataclass(frozen=True)
class AdmmParams:
    # the penalty acts on the normalized tensor (``core._normalized``), whose
    # largest row 1-norm lies in [8, 16): the Table 1 instances at half scale
    beta: float = 1.2
    epsilon: float = 1e-6
    # iterations per penalty in ``_PENALTIES``
    max_iters: int = 1200
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if _integer(self.max_iters, "max_iters") < 1:
            raise ValueError("max_iters must be >= 1")
        _integer(self.seed, "seed")


@dataclass
class AdmmResult:
    value: float
    point: np.ndarray
    iterations: int
    converged: bool
    consensus_gap: float
    time_s: float = 0.0


@dataclass
class MultiStartReport:
    best: AdmmResult
    values: np.ndarray
    results: list[AdmmResult]  # one per restart, in restart order
    iterations_mean: float
    time_mean_s: float
    success_rate: float | None = None


def _norms(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Euclidean norms over ``axis``, kept as a length-1 axis."""
    return np.sqrt((v * v).sum(axis=axis, keepdims=True))


def subproblem(
    b: np.ndarray, prev: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """argmin of b^T x over the unit sphere: -b/||b||, or prev when b ~ 0.

    Works on a stack of vectors, the norms taken over ``axis``.  The result
    goes to ``out`` when given, which may be ``prev`` itself.
    """
    norm = _norms(b, axis)
    if not norm.min() <= 1e-14:
        # b/(-norm) is -b/norm to the bit: the sign of a quotient is exact
        return np.divide(b, np.negative(norm, out=norm), out=out)
    small = norm <= 1e-14
    x = np.where(small, prev, -b / np.where(small, 1.0, norm))
    if out is None:
        return x
    np.copyto(out, x)
    return out


class _Batch:
    """The live restarts of one attempt and the scratch arrays an iteration
    writes into.

    ``state`` is (2, m, n, R): blocks x = state[0] and multipliers
    lam = state[1], the restarts on the last, contiguous axis.  Block j's
    gradient reads the outer product of the other blocks, (n,)*(m-1) + (R,),
    built by m-2 multiplies of broadcast views into ``levels``; its
    (n^(m-1), R) view is the GEMM operand (the other block itself when
    m = 2).  Every view is taken once here, so a batch is built again, at
    its new width, only when restarts leave it.
    """

    def __init__(self, state: np.ndarray):
        _, m, n, num = state.shape
        x, lam = self.x, self.lam = state
        self.flat = state.reshape(-1, num)
        self.old = np.empty_like(self.flat)
        dlam = self.dlam = np.empty_like(x)
        # the cyclic differences lam[j] - lam[j-1] and x[j] - x[j+1], each
        # as the bulk of the rows plus the one that wraps around
        self.lam_diffs = ((lam[1:], lam[:-1], dlam[1:]), (lam[0], lam[-1], dlam[0]))
        self.x_diffs = ((x[:-1], x[1:], dlam[:-1]), (x[-1], x[0], dlam[-1]))
        self.g = np.empty((n, num))
        self.t = np.empty((n, num))
        levels = [np.empty((n,) * k + (num,)) for k in range(2, m)]
        # per block j: outer-product steps, GEMM operand, lam[j] - lam[j-1],
        # its two consensus neighbours and the block itself
        self.updates = []
        for j in range(m):
            others = [x[k] for k in range(m) if k != j]
            prod, steps = others[0], []
            for level, right in zip(levels, others[1:]):
                steps.append((prod[..., None, :], right, level))
                prod = level
            operand = prod.reshape(-1, num)
            self.updates.append((steps, operand, dlam[j], x[j - 1], x[(j + 1) % m], x[j]))


def _iterate(arr: np.ndarray, starts: np.ndarray, params: AdmmParams):
    """The block-update / multiplier-update iteration for every start at once.

    Within a restart the blocks update in Gauss-Seidel order.  A restart
    stops when its full iterate (all blocks and the multiplier) moves less
    than epsilon; the rest rerun from their own start at the next penalty
    in ``_PENALTIES`` (beta, 4 beta, 16 beta), ``params.max_iters``
    iterations each.

    ``arr`` is the symmetrized tensor, so any block's gradient is one GEMM,
    ``arr.reshape(n, -1) @ outer``, against the outer product of the other
    blocks (see ``_Batch``): one array serves every block.  Blocks and
    multipliers are one (2, m, n, R) array updated in place, so the saved
    iterate, its step and the step norm take one call each, and every
    elementwise update and norm runs along rows of R.  A block is -b/||b||,
    not divided again by its computed norm, which would only move it in its
    last bits.  Returns the final blocks (m, n, R), the iteration counts
    summed over attempts and the converged flags.
    """
    num, n = starts.shape
    m = arr.ndim
    flat = arr.reshape(n, -1)
    blocks = np.empty((m, n, num))
    iterations = np.zeros(num, dtype=int)
    converged = np.zeros(num, dtype=bool)
    live = np.arange(num)
    for factor in _PENALTIES:
        if live.size == 0:
            break
        beta = params.beta * factor
        state = np.zeros((2, m, n, live.size))
        state[0] = starts[live].T
        batch = _Batch(state)
        for it in range(1, params.max_iters + 1):
            x, lam, dlam, g, t = batch.x, batch.lam, batch.dlam, batch.g, batch.t
            np.copyto(batch.old, batch.flat)
            # block j pairs with lam[j] - lam[j-1]
            for left, right, out in batch.lam_diffs:
                np.subtract(left, right, out=out)
            for steps, outer, dlam_j, x_prev, x_next, x_j in batch.updates:
                for left, right, level in steps:
                    np.multiply(left, right, out=level)
                np.subtract(np.dot(flat, outer, out=g), dlam_j, out=g)
                np.multiply(np.add(x_prev, x_next, out=t), beta, out=t)
                subproblem(np.subtract(g, t, out=g), x_j, axis=0, out=x_j)
            # lam -= beta (x - x[j+1]), the difference formed in dlam
            for left, right, out in batch.x_diffs:
                np.subtract(left, right, out=out)
            np.subtract(lam, np.multiply(dlam, beta, out=dlam), out=lam)
            d = np.subtract(batch.flat, batch.old, out=batch.old)
            step = np.sqrt(np.multiply(d, d, out=d).sum(axis=0))
            if not step.min() < params.epsilon:
                continue
            done = step < params.epsilon
            idx = live[done]
            blocks[..., idx] = x[..., done]
            iterations[idx] += it
            converged[idx] = True
            live = live[~done]
            if live.size == 0:
                break
            state = np.ascontiguousarray(state[..., ~done])
            batch = _Batch(state)
        else:  # max_iters ran out with restarts still live
            iterations[live] += params.max_iters
            blocks[..., live] = batch.x
    return blocks, iterations, converged


def _solve(
    a: Tensor, params: AdmmParams, starts: np.ndarray
) -> tuple[list[AdmmResult], np.ndarray]:
    """One result per row of ``starts`` (R, n), in row order, and the values
    at the solve's scale.

    The iteration runs on the symmetrized tensor: the objective A x^m is
    unchanged, and exchangeable blocks keep the consensus coupling stable
    (the raw multilinear form of a one-sided tensor can cycle forever).
    It runs at one scale for every input, on ``a`` times the power of two
    that brings its largest row 1-norm into [8, 16) (``core._normalized``),
    and the values are scaled back exactly: 2^k A gives the points,
    iterations and solve-scale values of A and its values times 2^k.  A
    value beyond the float range is reported as an infinity of its sign.
    """
    a, shift = _normalized(a)
    arr = materialize(symmetrize(a)).array
    m, n = arr.ndim, arr.shape[0]
    starts = np.asarray(starts, dtype=float)
    if starts.shape[1:] != (n,):
        raise ValueError(f"expected start vectors of length {n}")
    norms = _norms(starts)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ValueError("start vector must be finite and nonzero")

    t0 = time.perf_counter()
    blocks, iterations, converged = _iterate(arr, starts / norms, params)
    points = np.ascontiguousarray(blocks[0].T)
    solved = (_contract(arr, [points] * (m - 1)) * points).sum(axis=1)
    with np.errstate(over="ignore"):
        values = np.ldexp(solved, shift)
    diffs = blocks[:, None] - blocks[None, :]
    gaps = np.sqrt((diffs * diffs).sum(axis=2)).max(axis=(0, 1))
    time_s = (time.perf_counter() - t0) / len(starts)
    return [
        AdmmResult(
            value=float(values[i]),
            point=points[i],
            iterations=int(iterations[i]),
            converged=bool(converged[i]),
            consensus_gap=float(gaps[i]),
            time_s=time_s,
        )
        for i in range(len(starts))
    ], solved


def _starts(seed: int, count: int, n: int) -> np.ndarray:
    """``count`` standard-normal start vectors (count, n) from one generator
    seeded by ``seed``.  Rows fill in order, so row i depends only on
    (seed, i)."""
    return np.random.default_rng(seed).normal(size=(count, n))


def minimize(
    a: Tensor,
    params: AdmmParams | None = None,
    x0: np.ndarray | None = None,
) -> AdmmResult:
    """Run the block-update / multiplier-update iteration from one start
    until the full iterate moves less than epsilon, rerun at 4 and 16 times
    the penalty while ``params.max_iters`` iterations do not meet that rule.

    The start is ``x0`` or, by default, row 0 of ``_starts``: the start of
    restart 0 in ``multi_start`` with the same seed, so the two agree."""
    params = params or AdmmParams()
    x0 = _starts(params.seed, 1, a.dim) if x0 is None else np.asarray(x0, dtype=float)[None]
    return _solve(a, params, x0)[0][0]


def multi_start(
    a: Tensor,
    params: AdmmParams | None = None,
    restarts: int = 100,
    reference: float | None = None,
) -> MultiStartReport:
    """Run ``restarts`` seeded solves together and keep the best.

    The starts are the rows of one draw seeded by ``params.seed``
    (``_starts``).  Rows fill in order, so restart i's start depends only
    on (seed, i), not on ``restarts``: a run's first k results are those of
    the same run with k restarts, and restart 0 starts where ``minimize``
    does.  Restart i's result is that of ``minimize`` from its start: the
    same iterations and convergence, the value equal up to rounding (the
    batch width moves the GEMM's last bits).  All restarts iterate together
    as one batch, so every ``AdmmResult.time_s`` is the batch wall time
    shared evenly across the restarts.  ``best`` is the lowest-index restart
    within 1e-12 max(|low|, 1) of the minimum low, both taken at the scale
    the solve ran at.  When a reference optimum is given, a run counts as a
    success if its value is within 1e-5 of it.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    params = params or AdmmParams()
    results, solved = _solve(a, params, _starts(params.seed, restarts, a.dim))
    values = np.array([r.value for r in results])
    # minima come in families (x and -x, cyclic shifts) whose values tie up
    # to rounding; a tolerance keeps the chosen point from hinging on ulps.
    # It is taken on the solve-scale values, which are finite and the same
    # for 2^k A as for A, so 2^k A picks the restart A does; its floor ties
    # the noise of either sign at a minimum of 0
    low = solved.min()
    best = results[int(np.argmax(solved <= low + 1e-12 * max(abs(low), 1.0)))]
    success = None
    if reference is not None:
        success = float(np.mean(np.abs(values - reference) <= 1e-5))
    return MultiStartReport(
        best=best,
        values=values,
        results=results,
        iterations_mean=float(np.mean([r.iterations for r in results])),
        time_mean_s=float(np.mean([r.time_s for r in results])),
        success_rate=success,
    )
