"""Empirical moment tensors of periodic processes.

A period-n process is represented by realizations of one period
(x_1, ..., x_n); the order-m moment tensor averages the index products
x_{i_1}...x_{i_m} over realizations.  It is symmetric by construction and
circulant exactly when the underlying process is shift-stationary (checked,
not enforced).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BudgetError, DenseTensor, materialization_budget


@dataclass(frozen=True)
class ProcessSample:
    """Realizations of a period-n process, one row per trajectory."""

    values: np.ndarray  # shape (trajectories, period)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("need a (trajectories, period) array")
        object.__setattr__(self, "values", arr)

    @property
    def period(self) -> int:
        return self.values.shape[1]


def fold_trajectories(raw, period: int) -> ProcessSample:
    """Truncate raw trajectories (length >= period) to one period each."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    rows = []
    for t in raw:
        t = np.asarray(t, dtype=float)
        if len(t) < period:
            raise ValueError(f"trajectory shorter than period {period}")
        rows.append(t[:period])
    return ProcessSample(np.array(rows))


def moment_tensor(sample: ProcessSample, m: int) -> DenseTensor:
    """Entrywise sample means of x_{i_1}...x_{i_m}; symmetric by construction.

    The result is dense, so period^m is held to the materialization budget
    before anything is allocated.
    """
    if m < 2:
        raise ValueError("moment order must be >= 2")
    x = sample.values
    cap = materialization_budget()
    if sample.period**m > cap:
        raise BudgetError(f"moment tensor of {sample.period}^{m} entries exceeds budget {cap}")
    # sublist form: label m runs over realizations, labels 0..m-1 are modes
    operands = [v for i in range(m) for v in (x, [m, i])]
    acc = np.einsum(*operands, list(range(m))) / x.shape[0]
    return DenseTensor(acc)
