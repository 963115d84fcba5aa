"""Rotation-closed uniform hypergraphs and their adjacency-type tensors.

The vertex set is [n]; closing an edge/arc set under the rotation
j -> j+1 (mod n) makes every derived tensor circulant.  Undirected edges are
vertex sets; directed arcs have a distinguished tail and an unordered head
set.  Adjacency entries are 1/(m-1)! on every index tuple realizing an
edge/arc, so row sums equal vertex degrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CirculantTensor, _integer, circulant_from_root


@dataclass(frozen=True)
class Hypergraph:
    n: int
    m: int
    edges: frozenset
    directed: bool

    @property
    def degree(self) -> int:
        """Common vertex degree (rotation closure forces regularity)."""
        return len(_incident(self, 1))


def _canonical(tup, directed: bool):
    if directed:
        return (tup[0], tuple(sorted(tup[1:])))
    return tuple(sorted(tup))


def _rotate(edge, n: int, directed: bool):
    if directed:
        tail, heads = edge
        return (tail % n + 1, tuple(sorted(h % n + 1 for h in heads)))
    return tuple(sorted(v % n + 1 for v in edge))


def _incident(g: Hypergraph, j: int):
    if g.directed:
        return [e for e in g.edges if e[0] == j]
    return [e for e in g.edges if j in e]


def orbit_closure(generators, n: int, directed: bool = False) -> Hypergraph:
    """Smallest rotation-closed edge/arc set containing the generators."""
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    m = None
    edges = set()
    for gen in generators:
        tup = tuple(_integer(v, "vertex") for v in gen)
        if m is None:
            m = len(tup)
        elif len(tup) != m:
            raise ValueError("generators must share one uniformity")
        if len(set(tup)) != len(tup):
            raise ValueError(f"repeated vertex in generator {tup}")
        for v in tup:
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} out of range [1, {n}]")
        e = _canonical(tup, directed)
        while e not in edges:
            edges.add(e)
            e = _rotate(e, n, directed)
    if m is None:
        raise ValueError("need at least one generator")
    if m > n:
        raise ValueError("uniformity cannot exceed the vertex count")
    return Hypergraph(n=n, m=m, edges=frozenset(edges), directed=directed)


def _circulant(g: Hypergraph, sign: float, diagonal: float) -> CirculantTensor:
    """The circulant tensor built from its first row in one pass.

    Row 1 has sign/(m-1)! at every arrangement (1, j_2, ..., j_m) realizing
    an edge through vertex 1 (for arcs, with tail 1), and ``diagonal`` at
    (1, ..., 1), which no edge reaches; every other entry stays +0.0.
    """
    n, m = g.n, g.m
    w = sign / math.factorial(m - 1)
    root = np.zeros((n,) * (m - 1))
    for e in _incident(g, 1):
        rest = e[1] if g.directed else tuple(v for v in e if v != 1)
        for perm in itertools.permutations(rest):
            root[tuple(v - 1 for v in perm)] = w
    root[(0,) * (m - 1)] = diagonal
    ends = [e[0] for e in g.edges] if g.directed else [v for e in g.edges for v in e]
    degs = np.bincount(np.array(ends, dtype=int), minlength=n + 1)[1 : n + 1]
    if not np.all(degs == degs[0]):
        raise AssertionError("rotation-closed edge set must be regular")
    return circulant_from_root(root)


def adjacency_tensor(g: Hypergraph) -> CirculantTensor:
    """Circulant adjacency tensor: 1/(m-1)! on every arrangement of an edge."""
    return _circulant(g, 1.0, 0.0)


def degree_tensor(g: Hypergraph) -> CirculantTensor:
    """Diagonal tensor of the common vertex degree."""
    return _circulant(g, 0.0, g.degree)


def laplacian(g: Hypergraph) -> CirculantTensor:
    """Degree tensor minus adjacency tensor."""
    return _circulant(g, -1.0, g.degree)


def signless_laplacian(g: Hypergraph) -> CirculantTensor:
    """Degree tensor plus adjacency tensor."""
    return _circulant(g, 1.0, g.degree)


def hypergraph_from_dict(doc: dict) -> Hypergraph:
    """The closure of ``{"n", "generators"[, "directed"][, "m"]}``."""
    directed = doc.get("directed", False)
    if not isinstance(directed, bool):
        raise ValueError(f"directed must be true or false, got {directed!r}")
    g = orbit_closure(doc["generators"], doc["n"], directed)
    if "m" in doc and _integer(doc["m"], "m") != g.m:
        raise ValueError(f"m = {doc['m']} but the generators have {g.m} vertices")
    return g
