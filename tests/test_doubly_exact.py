"""The exact doubly-circulant route on a pinned seeded sweep, and its helpers.

``EXPECTED`` holds the (decision, certificate, route) of ``doubly_psd`` on
every tensor of the sweep, as the symbolic (sympy) implementation decided
them; the rational implementation must reproduce every one.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctensor.verdict as verdict_mod
from ctensor import presets
from ctensor.core import _exact_form, apply_full, circulant_from_root, materialize
from ctensor.diag_root import (
    DiagRootSpec,
    _divide_by_sum,
    _is_psd_exact,
    _root_form,
    doubly_psd,
    expand,
)
from ctensor.verdict import DOUBLY_CIRCULANT as CERT
from ctensor.verdict import INCONCLUSIVE, NOT_PSD, PSD
from oracles import exact_dense_form


def _circulant_of(c: np.ndarray) -> np.ndarray:
    """Order-(k+1) circulant array whose first row is the order-k array c."""
    n = c.shape[0]
    idx = np.indices((n,) * (c.ndim + 1))
    return c[tuple((j - idx[0]) % n for j in idx[1:])]


def _lift(rng, b: np.ndarray) -> np.ndarray:
    b = b.copy()
    b[0, 0] = 0.0
    b[0, 0] = rng.uniform(0.3, 1.0) * np.abs(b).sum()
    return b


def _sweep_inner(rng, kind: str, n: int) -> np.ndarray:
    """The order-2 inner root B of an order-4 doubly circulant tensor."""
    if kind == "random":
        return rng.uniform(-10.0, 10.0, size=(n, n))
    if kind == "lifted":
        return _lift(rng, rng.uniform(-10.0, 10.0, size=(n, n)))
    if kind == "integer":
        return rng.integers(-3, 4, size=(n, n)).astype(float)
    if kind == "circulant":
        # sum(x) divides the root form: the quadratic residual decides
        c = rng.uniform(-10.0, 10.0, size=n)
        c[0] = rng.uniform(0.3, 1.2) * np.abs(c[1:]).sum()
        return _circulant_of(c)
    if kind == "circulant-rank":
        # adding 1 v^T keeps sum(x) a divisor, with a non-circulant quotient
        c = rng.uniform(-5.0, 5.0, size=n)
        c[0] = rng.uniform(0.5, 1.5) * np.abs(c[1:]).sum()
        return _circulant_of(c) + np.outer(np.ones(n), rng.uniform(-2.0, 2.0, size=n))
    if kind == "integer-circulant":
        c = rng.integers(-2, 3, size=n).astype(float)
        c[0] = float(np.abs(c[1:]).sum()) + rng.integers(-1, 2)
        return _circulant_of(c)
    if kind == "laplacian":
        # a singular positive semi-definite quotient
        c = np.zeros(n)
        c[0], c[1], c[-1] = 2.0, -1.0, -1.0
        if n == 2:
            c = np.array([1.0, -1.0])
        return _circulant_of(c * rng.integers(1, 4))
    raise ValueError(kind)


KINDS = ("random", "lifted", "integer", "circulant", "circulant-rank",
         "integer-circulant", "laplacian")


def sweep_cases() -> list:
    """(name, tensor): about 100 doubly circulant tensors, n = 2..8."""
    rng = np.random.default_rng(2024)
    cases = [(name, presets.by_name(name)) for name in ("example4_case1", "example4_case2")]
    for n in range(2, 9):
        for kind in KINDS:
            for rep in range(2):
                b = _sweep_inner(rng, kind, n)
                cases.append((f"{kind}-n{n}-{rep}", circulant_from_root(_circulant_of(b))))
    # order 6: a random order-4 inner root (division route) and a circulant
    # one over a lifted order-3 root (recursion route)
    for n in (2, 3):
        for rep in range(2):
            c = rng.uniform(-10.0, 10.0, size=(n,) * 4)
            cases.append((f"order6-random-n{n}-{rep}", circulant_from_root(_circulant_of(c))))
            d = rng.uniform(-10.0, 10.0, size=(n,) * 3)
            d[0, 0, 0] = rng.uniform(0.3, 1.5) * np.abs(d).sum()
            deep = _circulant_of(_circulant_of(d))
            cases.append((f"order6-deep-n{n}-{rep}", circulant_from_root(deep)))
    return cases


EXPECTED = {
    "example4_case1": (NOT_PSD, CERT, "quadratic-residual"),
    "example4_case2": (PSD, CERT, "quadratic-residual"),
    "random-n2-0": (NOT_PSD, CERT, "quadratic-residual"),
    "random-n2-1": (NOT_PSD, CERT, "quadratic-residual"),
    "lifted-n2-0": (PSD, CERT, "quadratic-residual"),
    "lifted-n2-1": (PSD, CERT, "quadratic-residual"),
    "integer-n2-0": (NOT_PSD, CERT, "quadratic-residual"),
    "integer-n2-1": (NOT_PSD, CERT, "quadratic-residual"),
    "circulant-n2-0": (NOT_PSD, CERT, "quadratic-residual"),
    "circulant-n2-1": (NOT_PSD, CERT, "quadratic-residual"),
    "circulant-rank-n2-0": (PSD, CERT, "quadratic-residual"),
    "circulant-rank-n2-1": (NOT_PSD, CERT, "quadratic-residual"),
    "integer-circulant-n2-0": (NOT_PSD, CERT, "quadratic-residual"),
    "integer-circulant-n2-1": (NOT_PSD, CERT, "quadratic-residual"),
    "laplacian-n2-0": (PSD, CERT, "quadratic-residual"),
    "laplacian-n2-1": (PSD, CERT, "quadratic-residual"),
    "random-n3-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "random-n3-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n3-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n3-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n3-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n3-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "circulant-n3-0": (NOT_PSD, CERT, "quadratic-residual"),
    "circulant-n3-1": (PSD, CERT, "quadratic-residual"),
    "circulant-rank-n3-0": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "circulant-rank-n3-1": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "integer-circulant-n3-0": (PSD, CERT, "quadratic-residual"),
    "integer-circulant-n3-1": (PSD, CERT, "quadratic-residual"),
    "laplacian-n3-0": (PSD, CERT, "quadratic-residual"),
    "laplacian-n3-1": (PSD, CERT, "quadratic-residual"),
    "random-n4-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "random-n4-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n4-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n4-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n4-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n4-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "circulant-n4-0": (PSD, CERT, "quadratic-residual"),
    "circulant-n4-1": (NOT_PSD, CERT, "quadratic-residual"),
    "circulant-rank-n4-0": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "circulant-rank-n4-1": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "integer-circulant-n4-0": (PSD, CERT, "quadratic-residual"),
    "integer-circulant-n4-1": (PSD, CERT, "quadratic-residual"),
    "laplacian-n4-0": (PSD, CERT, "quadratic-residual"),
    "laplacian-n4-1": (PSD, CERT, "quadratic-residual"),
    "random-n5-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "random-n5-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n5-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n5-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n5-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n5-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "circulant-n5-0": (NOT_PSD, CERT, "quadratic-residual"),
    "circulant-n5-1": (PSD, CERT, "quadratic-residual"),
    "circulant-rank-n5-0": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "circulant-rank-n5-1": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "integer-circulant-n5-0": (PSD, CERT, "quadratic-residual"),
    "integer-circulant-n5-1": (PSD, CERT, "quadratic-residual"),
    "laplacian-n5-0": (PSD, CERT, "quadratic-residual"),
    "laplacian-n5-1": (PSD, CERT, "quadratic-residual"),
    "random-n6-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "random-n6-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n6-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n6-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n6-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n6-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "circulant-n6-0": (PSD, CERT, "quadratic-residual"),
    "circulant-n6-1": (PSD, CERT, "quadratic-residual"),
    "circulant-rank-n6-0": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "circulant-rank-n6-1": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "integer-circulant-n6-0": (PSD, CERT, "quadratic-residual"),
    "integer-circulant-n6-1": (PSD, CERT, "quadratic-residual"),
    "laplacian-n6-0": (PSD, CERT, "quadratic-residual"),
    "laplacian-n6-1": (PSD, CERT, "quadratic-residual"),
    "random-n7-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "random-n7-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n7-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n7-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n7-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n7-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "circulant-n7-0": (PSD, CERT, "quadratic-residual"),
    "circulant-n7-1": (PSD, CERT, "quadratic-residual"),
    "circulant-rank-n7-0": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "circulant-rank-n7-1": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "integer-circulant-n7-0": (PSD, CERT, "quadratic-residual"),
    "integer-circulant-n7-1": (PSD, CERT, "quadratic-residual"),
    "laplacian-n7-0": (PSD, CERT, "quadratic-residual"),
    "laplacian-n7-1": (PSD, CERT, "quadratic-residual"),
    "random-n8-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "random-n8-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n8-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "lifted-n8-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n8-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "integer-n8-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "circulant-n8-0": (PSD, CERT, "quadratic-residual"),
    "circulant-n8-1": (PSD, CERT, "quadratic-residual"),
    "circulant-rank-n8-0": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "circulant-rank-n8-1": (INCONCLUSIVE, None, "hyperplane-witness-not-found"),
    "integer-circulant-n8-0": (PSD, CERT, "quadratic-residual"),
    "integer-circulant-n8-1": (PSD, CERT, "quadratic-residual"),
    "laplacian-n8-0": (PSD, CERT, "quadratic-residual"),
    "laplacian-n8-1": (PSD, CERT, "quadratic-residual"),
    "order6-random-n2-0": (INCONCLUSIVE, None, "residual-degree-too-high"),
    "order6-deep-n2-0": (INCONCLUSIVE, None, "residual-degree-too-high"),
    "order6-random-n2-1": (INCONCLUSIVE, None, "residual-degree-too-high"),
    "order6-deep-n2-1": (PSD, CERT, None),
    "order6-random-n3-0": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "order6-deep-n3-0": (INCONCLUSIVE, None, "residual-degree-too-high"),
    "order6-random-n3-1": (NOT_PSD, CERT, "hyperplane-sign-flip"),
    "order6-deep-n3-1": (INCONCLUSIVE, None, "residual-degree-too-high"),
}


CASES = sweep_cases()


def test_sweep_is_pinned():
    assert [name for name, _ in CASES] == list(EXPECTED)


@pytest.mark.parametrize("name,a", CASES, ids=[name for name, _ in CASES])
def test_pinned_verdict(name, a):
    v = doubly_psd(a)
    assert (v.decision, v.certificate, v.details.get("route")) == EXPECTED[name]
    if v.decision == NOT_PSD:
        # every refutation, the order-(m-2) recursion's included
        assert apply_full(a, v.witness) < 0
        assert exact_dense_form(a, v.witness) < 0


def _spread_root(rng, shape) -> np.ndarray:
    # magnitudes over 2^-600..2^600, a few exact zeros
    root = rng.uniform(-1.0, 1.0, size=shape) * 2.0 ** rng.integers(-600, 600, size=shape)
    root[rng.random(shape) < 0.2] = 0.0
    return root


def _exact_form_cases():
    rng = np.random.default_rng(5)
    cases = {name: dict(CASES)[name] for name in ("example4_case1", "random-n3-0", "circulant-n4-1")}
    cases["diag-root-4-5"] = expand(DiagRootSpec(4, rng.uniform(-10.0, 10.0, size=5)))
    cases["random-4-3"] = circulant_from_root(rng.uniform(-10.0, 10.0, size=(3, 3, 3)))
    cases["random-6-3"] = circulant_from_root(rng.uniform(-10.0, 10.0, size=(3,) * 5))
    cases["spread-4-3"] = circulant_from_root(_spread_root(rng, (3, 3, 3)))
    return cases


EXACT_CASES = _exact_form_cases()


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_exact_value_is_the_dense_form(name, rng):
    # circulant and materialized input, witnesses with widely spread
    # magnitudes and an exact zero
    a = EXACT_CASES[name]
    for _ in range(3):
        w = rng.normal(size=a.dim) * 2.0 ** rng.integers(-300, 300, size=a.dim)
        w[rng.integers(a.dim)] = 0.0
        expected = exact_dense_form(a, w)
        assert _exact_form(a, w) == expected
        assert _exact_form(materialize(a), w) == expected


@pytest.mark.parametrize("name", ["example4_case1", "random-n3-0"])
def test_exact_value_decides(monkeypatch, name):
    # a witness whose exact value is 0 is not emitted, whatever the float
    # says: every witness is put inside the rounding band, so the exact
    # value decides each one (the coarse bound is the band's upper bound, so
    # it is widened with it)
    a = dict(CASES)[name]
    monkeypatch.setattr(verdict_mod, "_coarse_band", lambda a, top: float("inf"))
    monkeypatch.setattr(verdict_mod, "_rounding_band", lambda a, w, top: float("inf"))
    monkeypatch.setattr(verdict_mod, "_exact_form", lambda a, w: Fraction(0))
    v = doubly_psd(a)
    assert v.decision == INCONCLUSIVE
    assert v.details["route"] in ("quadratic-residual-unresolved", "hyperplane-witness-not-found")


def _poly_mul_sum(q: dict, n: int) -> dict:
    out: dict = {}
    for e, c in q.items():
        for j in range(n):
            t = e[:j] + (e[j] + 1,) + e[j + 1:]
            out[t] = out.get(t, 0) + c
    return out


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_division_by_sum(n, k, data):
    # dyadic entries, some exactly zero, in a non-circulant root of order k
    vals = data.draw(st.lists(st.integers(-8, 8), min_size=n**k, max_size=n**k))
    root = np.array(vals, dtype=float).reshape((n,) * k) / 4.0
    g = _root_form(root)
    q, r = _divide_by_sum(g)
    assert all(e[0] == 0 for e in r)
    total = _poly_mul_sum(q, n)
    for e, c in r.items():
        total[e] = total.get(e, 0) + c
    assert {e: c for e, c in total.items() if c} == g


def _fr(rows):
    return [[Fraction(v) for v in row] for row in rows]


@pytest.mark.parametrize("rows,psd", [
    ([[1, 1], [1, 1]], True),  # singular PSD
    ([[1, 1, 0], [1, 1, 0], [0, 0, 2]], True),  # singular after the first pivot
    ([[0, 0], [0, 0]], True),
    ([[0, 1], [1, 0]], False),  # zero diagonal, nonzero off-diagonal
    ([[2, 0, 0], [0, 0, 1], [0, 1, 0]], False),
    ([[4, 2, 0], [2, 1, 1], [0, 1, 1]], False),  # positive first pivot, then indefinite
    ([[1, 0], [0, -1]], False),
    ([[5]], True),
])
def test_ldl_hand_matrices(rows, psd):
    assert _is_psd_exact(_fr(rows)) is psd


def test_ldl_matches_eigvalsh():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 8))
        m = rng.integers(-3, 4, size=(n, n))
        # a Gram matrix or a plain symmetric one, shifted either way
        sym = m @ m.T if rng.random() < 0.5 else m + m.T
        sym = sym + int(rng.integers(-3, 6)) * np.eye(n, dtype=int)
        low = np.linalg.eigvalsh(sym.astype(float))[0]
        if abs(low) < 0.5:
            continue
        gram = [[Fraction(int(v), 7) for v in row] for row in sym]
        assert _is_psd_exact(gram) is bool(low > 0)
        checked += 1


@pytest.mark.parametrize("module", ["ctensor", "ctensor.cli"])
def test_import_does_not_load_sympy(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, {module}; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
