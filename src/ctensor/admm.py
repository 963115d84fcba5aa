"""Alternating direction method of multipliers on the unit sphere.

Minimizes the multilinear form A x^1 ... x^m over m unit-sphere blocks tied
together by cyclic consensus constraints x^j = x^{j+1}.  Each block update is
a linear objective on the sphere (the quadratic penalty term is constant
there), so it has the closed-form solution -b/||b||.  Multi-start from random
unit vectors recovers the global sphere minimum of A x^m with high
probability on small instances.

All restarts iterate together on an (m, n, R) block array, the restarts on
the last, contiguous axis: every block update is one contraction over the
restart axis plus elementwise steps along rows of R, and a restart leaves
the batch as soon as it meets the stopping rule.  A single solve is the
R = 1 case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import Tensor, _contract, materialize, symmetrize


@dataclass(frozen=True)
class AdmmParams:
    beta: float = 1.2
    epsilon: float = 1e-6
    max_iters: int = 5000
    seed: int = 0
    # if the stopping rule is never met, rerun from the same start with the
    # penalty scaled by 4, up to this many attempts; 1 disables escalation
    escalations: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.escalations < 1:
            raise ValueError("escalations must be >= 1")


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


def consensus_residual(blocks: np.ndarray) -> np.ndarray:
    """Stacked cyclic differences (x^1-x^2, ..., x^m-x^1) of the (m, n) block
    array, zero iff consensus."""
    blocks = np.asarray(blocks)
    return (blocks - np.roll(blocks, -1, axis=0)).reshape(-1)


def block_gradient(a: Tensor | np.ndarray, blocks: np.ndarray, j: int) -> np.ndarray:
    """Gradient of f(x^1,...,x^m) = A x^1...x^m in block j (1-based) at the
    (m, n) block array.

    f is linear in each block, so the gradient is the contraction of A with
    every block except the j-th.
    """
    arr = a if isinstance(a, np.ndarray) else materialize(a).array
    blocks = np.asarray(blocks)
    if not 1 <= j <= arr.ndim:
        raise ValueError(f"block index {j} out of range [1, {arr.ndim}]")
    others = [blocks[None, k] for k in range(arr.ndim) if k != j - 1]
    return _contract(np.moveaxis(arr, j - 1, -1), others)[0]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, kept as a length-1 axis."""
    return np.sqrt((v * v).sum(axis=-1, keepdims=True))


def subproblem(b: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """argmin of b^T x over the unit sphere: -b/||b||, or prev when b ~ 0.

    Works row by row on a stack of vectors (norms over the last axis).
    """
    norm = _norms(b)
    small = norm <= 1e-14
    if not small.any():
        return -b / norm
    return np.where(small, prev, -b / np.where(small, 1.0, norm))


def _iterate(arr: np.ndarray, starts: np.ndarray, params: AdmmParams):
    """The block-update / multiplier-update iteration for every start at once.

    Within a restart the blocks update in Gauss-Seidel order.  A restart
    stops when its full iterate (all blocks and the multiplier) moves less
    than epsilon; the rest rerun from their own start with the penalty
    scaled by 4, up to ``params.escalations`` attempts.  ``arr`` is the
    symmetrized tensor, so contracting its leading m-1 modes with the other
    blocks gives the gradient of any block: one array serves them all.

    Blocks and multipliers are (m, n, R) arrays with the restarts on the
    last, contiguous axis, so every elementwise update, norm and stopping
    test runs along rows of R.  ``_contract`` takes the other blocks as
    (R, n) stacks: a contiguous copy of every block in that layout is kept
    beside the iterate and refreshed when the block updates.  A block is
    -b/||b||, not divided again by its computed norm, which would only move
    it in its last bits.  Returns the final blocks (m, n, R), the iteration
    counts summed over attempts and the converged flags.
    """
    num, n = starts.shape
    m = arr.ndim
    others = [[k for k in range(m) if k != j] for j in range(m)]
    nxt = np.roll(np.arange(m), -1)
    prv = np.roll(np.arange(m), 1)
    blocks = np.empty((m, n, num))
    iterations = np.zeros(num, dtype=int)
    converged = np.zeros(num, dtype=bool)
    live = np.arange(num)
    for attempt in range(params.escalations):
        if live.size == 0:
            break
        beta = params.beta * 4.0**attempt
        rows = np.repeat(starts[None, live], m, axis=0)  # (m, R, n), for _contract
        x = rows.transpose(0, 2, 1).copy()
        lam = np.zeros_like(x)
        for it in range(1, params.max_iters + 1):
            x_old, lam_old = x.copy(), lam
            dlam = lam - lam[prv]  # block j pairs with lam[j] - lam[j-1]
            for j in range(m):
                g = _contract(arr, [rows[k] for k in others[j]]).T
                b = g - dlam[j] - beta * (x[j - 1] + x[nxt[j]])
                rows[j] = subproblem(b.T, rows[j])
                x[j] = rows[j].T
            lam = lam - beta * (x - x[nxt])
            dx, dl = x - x_old, lam - lam_old
            step = np.sqrt((dx * dx).sum(axis=(0, 1)) + (dl * dl).sum(axis=(0, 1)))
            done = step < params.epsilon
            if done.any():
                idx = live[done]
                blocks[..., idx] = x[..., done]
                iterations[idx] += it
                converged[idx] = True
                keep = ~done
                live, x, lam, rows = live[keep], x[..., keep], lam[..., keep], rows[:, keep]
                if live.size == 0:
                    break
        iterations[live] += params.max_iters
        blocks[..., live] = x
    return blocks, iterations, converged


def _solve(a: Tensor, params: AdmmParams, starts: np.ndarray) -> list[AdmmResult]:
    """One result per row of ``starts`` (R, n), in row order.

    The iteration runs on the symmetrized tensor: the objective A x^m is
    unchanged, and exchangeable blocks keep the consensus coupling stable
    (the raw multilinear form of a one-sided tensor can cycle forever).
    """
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
    values = (_contract(arr, [points] * (m - 1)) * points).sum(axis=1)
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
    ]


def minimize(
    a: Tensor,
    params: AdmmParams | None = None,
    x0: np.ndarray | None = None,
) -> AdmmResult:
    """Run the block-update / multiplier-update iteration from one start
    (``x0``, or a draw seeded by ``params.seed``) until the full iterate
    moves less than epsilon, escalating the penalty when it does not."""
    params = params or AdmmParams()
    if x0 is None:
        x0 = np.random.default_rng(params.seed).normal(size=a.dim)
    return _solve(a, params, np.asarray(x0, dtype=float)[None])[0]


def multi_start(
    a: Tensor,
    params: AdmmParams | None = None,
    restarts: int = 100,
    reference: float | None = None,
) -> MultiStartReport:
    """Run ``restarts`` seeded solves together and keep the best.

    Restart i draws its start from a generator seeded by (seed, i), and its
    result is that of ``minimize`` from that start: the same iterations and
    convergence, the value equal up to rounding.  All restarts iterate
    together as one batch, so every ``AdmmResult.time_s`` is the batch wall
    time shared evenly across the restarts.  ``best`` is the lowest-index
    restart whose value is within a relative 1e-12 of the minimum.  When a
    reference optimum is given, a run counts as a success if its value is
    within 1e-5 of it.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    params = params or AdmmParams()
    starts = np.stack(
        [np.random.default_rng([params.seed, i]).normal(size=a.dim) for i in range(restarts)]
    )
    results = _solve(a, params, starts)
    values = np.array([r.value for r in results])
    # minima come in families (x and -x, cyclic shifts) whose values tie up
    # to rounding; a tolerance keeps the chosen point from hinging on ulps
    low = values.min()
    best = results[int(np.argmax(values <= low + 1e-12 * max(1.0, abs(low))))]
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
