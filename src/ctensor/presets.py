"""Bundled showcase tensors used by the ``reproduce`` command and the tests.

These are the small worked instances the regression harness re-checks:
two order-3 circulant tensors with known native spectra, the boundary
diagonal-root case, the two doubly circulant semi-definiteness cases, and
the two multi-start benchmark instances with known sphere minima.
"""

from __future__ import annotations

import numpy as np

from .core import CirculantTensor, circulant_from_root, materialize
from .diag_root import DiagRootSpec


def showcase_order3() -> CirculantTensor:
    """Order 3, dimension 3; native spectrum 39.1013, 14.8057 -+ 1.1793i."""
    a, b, c, d = 5.91395, 2.47255, 2.92646, 8.49514
    return circulant_from_root(np.array([[a, b, c], [b, c, d], [c, d, b]]))


def showcase_alternative_root() -> CirculantTensor:
    """Order 3, dimension 2, alternative root; sym root is [[1,1/3],[1/3,1/3]]."""
    return circulant_from_root(np.array([[1.0, -1.0], [-1.0, 3.0]]))


def showcase_boundary_diag() -> DiagRootSpec:
    """m=4, n=2, c=(1,1): semi-definite exactly on the dominance boundary."""
    return DiagRootSpec(4, np.array([1.0, 1.0]))


def showcase_doubly(d1: float, d2: float) -> CirculantTensor:
    """Order-4 doubly circulant tensor whose root has root diag(d1, d2).

    The form factors as (x1+x2)^2 (d1 x1^2 + (d2-d1) x1 x2 + d1 x2^2);
    (1, 5) is refuted by x = (1, -2), (1, -0.5) is semi-definite.
    """
    inner = circulant_from_root(np.diag([float(d1), float(d2)]))
    return circulant_from_root(materialize(inner).array)


def benchmark_c43() -> DiagRootSpec:
    """Multi-start benchmark, n=3: sphere minimum -6.39448."""
    return DiagRootSpec(4, np.array([-4.75046, 3.58365, 8.252]))


def benchmark_c44() -> DiagRootSpec:
    """Multi-start benchmark, n=4: sphere minimum -1.79658."""
    return DiagRootSpec(4, np.array([3.30134, -9.68746, 2.31954, 7.60276]))


# reproduce-target registry: names match the CLI interface
BENCHMARK_REFERENCES = {"example5": -6.39448, "example6": -1.79658}


def by_name(name: str):
    registry = {
        "example1": showcase_order3,
        "example2": showcase_alternative_root,
        "example3": showcase_boundary_diag,
        "example4_case1": lambda: showcase_doubly(1.0, 5.0),
        "example4_case2": lambda: showcase_doubly(1.0, -0.5),
        "example5": benchmark_c43,
        "example6": benchmark_c44,
    }
    if name not in registry:
        raise KeyError(f"unknown preset {name!r}")
    return registry[name]()
