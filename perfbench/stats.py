"""Order statistics shared by the worker and the reports."""

from __future__ import annotations

import math

TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; +inf entries (failed calls) sort last.

    Returns 0.0 for an empty sample.
    """
    xs = sorted(values)
    if not xs:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return float(xs[rank - 1])


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least 10 samples beyond it
    in a sample of n; p50 when even that has fewer."""
    best = TAIL_CANDIDATES[0]
    for p in TAIL_CANDIDATES:
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            best = p
    return best
