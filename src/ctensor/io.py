"""JSON tensor exchange format.

Documents look like one of

    {"kind": "circulant", "order": m, "dim": n, "root": [...]}
    {"kind": "dense", "order": m, "dim": n, "entries": [...]}
    {"kind": "diag_root", "order": m, "c": [...]}

with row-major flattening.  Numbers may be given as JSON numbers or as
decimal strings (for exact float round-trips).
"""

from __future__ import annotations

import json

import numpy as np

from .core import CirculantTensor, DenseTensor, Tensor, _integer, circulant_from_root
from .diag_root import DiagRootSpec, expand


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values], dtype=float)


def _shaped(values, n: int, k: int, what: str) -> np.ndarray:
    """``values`` as floats in k modes of length n.  n ** k is at least
    2 ** (k * (bitlen(n) - 1)), so a declared shape far beyond the entry
    count is rejected before its power is computed."""
    arr = _floats(values)
    if n < 2:
        raise ValueError("tensor dimension must be >= 2")
    if k * (n.bit_length() - 1) > arr.size.bit_length():
        raise ValueError(f"{what} needs {n}**{k} entries, got {arr.size}")
    if arr.size != n**k:
        raise ValueError(f"{what} needs {n ** k} entries, got {arr.size}")
    return arr.reshape((n,) * k)


def tensor_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError(f"a tensor document is a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "circulant":
        m, n = _integer(doc["order"], "order"), _integer(doc["dim"], "dim")
        return circulant_from_root(_shaped(doc["root"], n, m - 1, "root"))
    if kind == "dense":
        m, n = _integer(doc["order"], "order"), _integer(doc["dim"], "dim")
        return DenseTensor(_shaped(doc["entries"], n, m, "dense tensor"))
    if kind == "diag_root":
        return DiagRootSpec(_integer(doc["order"], "order"), _floats(doc["c"]))
    raise ValueError(f"unknown tensor kind {kind!r}")


def tensor_to_dict(t) -> dict:
    if isinstance(t, DiagRootSpec):
        return {"kind": "diag_root", "order": t.order, "c": list(t.c)}
    if isinstance(t, CirculantTensor):
        return {
            "kind": "circulant",
            "order": t.order,
            "dim": t.dim,
            "root": list(t.root.entries),
        }
    if isinstance(t, DenseTensor):
        return {
            "kind": "dense",
            "order": t.order,
            "dim": t.dim,
            "entries": list(t.entries),
        }
    raise TypeError(f"cannot serialize {type(t).__name__}")


def load_tensor(path: str):
    """Read a tensor document; diag_root kinds keep their spec form."""
    with open(path) as fh:
        return tensor_from_dict(json.load(fh))


def as_tensor(obj) -> Tensor:
    """Expand a diag-root spec; pass tensors through."""
    if isinstance(obj, DiagRootSpec):
        return expand(obj)
    return obj
