#!/usr/bin/env python3
"""The certificates-only decision ledger: ``tests/data/decisions.json``.

Runs ``check_psd(a, mode="certificates_only")`` over a fixed, seeded corpus
and records each decision, certificate tag, route and details.  Witness
bytes are pinned for the necessary checks and the diagonal-root route,
whose witnesses are closed-form vectors.  Other refuting witnesses (the
doubly circulant route's come from ``eigh``) are not pinned, and neither
are the form values recorded for them; ``test_decision_ledger`` only
requires that they verify.

A change that moves an entry regenerates the file, from the repository
root, with

    PYTHONPATH=src python tests/decision_ledger.py

and lists the entries that changed, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from ctensor import presets
from ctensor.core import circulant_from_root
from ctensor.diag_root import DiagRootSpec, expand
from ctensor.hypergraph import adjacency_tensor, laplacian, orbit_closure, signless_laplacian
from ctensor.psd import check_psd
from ctensor.verdict import DIAG_ROOT

LEDGER = Path(__file__).resolve().parent / "data" / "decisions.json"
# details that hold the form value at an unpinned witness
_WITNESS_VALUES = ("witness_value", "witness_value_exact")


def _circulant_of(c: np.ndarray) -> np.ndarray:
    """Order-(k+1) circulant array whose first row is the order-k array c."""
    n = c.shape[0]
    idx = np.indices((n,) * (c.ndim + 1))
    return c[tuple((j - idx[0]) % n for j in idx[1:])]


def _diag_tails(rng, m: int):
    """Diagonal roots of order m: random ones, and dyadic tails (mixed-sign,
    sign-structured and k-alternative) with c_0 at half the dominance
    margin, one ulp below it, at it and one ulp above it."""
    for trial in range(8):
        kind = trial % 4
        n = int(rng.integers(2, 5)) * 2 if kind == 3 else int(rng.integers(2, 9))
        if kind == 0:
            yield f"{trial}", DiagRootSpec(m, rng.uniform(-10, 10, size=n))
            continue
        mags = rng.integers(0, 2**10, size=n - 1) * 2.0 ** int(rng.integers(-20, 5))
        mags *= rng.random(n - 1) < 0.8
        j = np.arange(1, n)
        if kind == 1:
            tail = mags * rng.choice([-1.0, 1.0], size=n - 1)
        elif kind == 2:
            tail = -mags if n % 2 or trial % 8 == 2 else mags * (-1.0) ** (j + 1)
        else:
            ks = [k for k in range(1, n // 2 + 1) if n % (2 * k) == 0]
            k = ks[int(rng.integers(len(ks)))]
            tail = mags * np.where(j % k, 0.0, np.where((j // k) % 2, 1.0, -1.0))
        edge = math.fsum(np.abs(tail).tolist())
        for s, c0 in enumerate((edge / 2, np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf))):
            yield f"{trial}-{s}", DiagRootSpec(m, np.concatenate([[c0], tail]))


def corpus() -> list:
    """(name, circulant tensor) pairs, every one of even order."""
    cases = []
    # acceptance criterion 5's draws
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = 2 + trial % 2
        cases.append((f"crit5-{trial}", circulant_from_root(rng.uniform(-10.0, 10.0, (n,) * 3))))
    # unit-scale order-4 draws at n = 3
    rng = np.random.default_rng(1)
    for trial in range(80):
        cases.append((f"unit-{trial}", circulant_from_root(rng.uniform(-1.0, 1.0, (3, 3, 3)))))
    for m in (2, 4, 6):
        rng = np.random.default_rng([m, 15])
        cases += [(f"diag-m{m}-{tag}", expand(spec)) for tag, spec in _diag_tails(rng, m)]
    # k-alternative tails with k >= 2 and a negative dominance margin
    blocks = ((1.0, 0.0, 2.0, 0.0), (1.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0),
              (1.0, 0.0, -2.0, 0.0, 2.0, 0.0, -2.0, 0.0), (2.0, 0.0, 0.0, 3.0, 0.0, 0.0))
    for i, c in enumerate(blocks):
        for m in (4, 6):
            cases.append((f"block-m{m}-{i}", expand(DiagRootSpec(m, np.array(c)))))
    # doubly circulant roots: order 4 from an order-2 inner root, order 6
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4):
        for rep in range(3):
            b = rng.uniform(-10.0, 10.0, size=(n, n))
            cases.append((f"doubly-random-n{n}-{rep}", circulant_from_root(_circulant_of(b))))
            c = rng.uniform(-10.0, 10.0, size=n)
            c[0] = rng.uniform(0.3, 1.2) * np.abs(c[1:]).sum()
            cases.append((f"doubly-circulant-n{n}-{rep}",
                          circulant_from_root(_circulant_of(_circulant_of(c)))))
    for n in (2, 3):
        d = rng.uniform(-10.0, 10.0, size=(n,) * 3)
        d[0, 0, 0] = rng.uniform(0.3, 1.5) * np.abs(d).sum()
        cases.append((f"doubly-deep-n{n}", circulant_from_root(_circulant_of(_circulant_of(d)))))
    # B0/B roots that are not diagonally dominant: dyadic off-diagonal
    # entries at or below 1 and c_0 at or above the B0 margin, so the first
    # (a B0 root that is not B) ties exactly
    rng = np.random.default_rng(5)
    for rep in range(8):
        n = 2 + rep % 3
        dips = rng.integers(0, 8, size=n**3) / 64 * (rng.random(n**3) < 0.7)
        root = (1.0 - dips).reshape((n,) * 3)
        root.flat[0] = 1.0 + dips[1:].sum() + (0 if rep == 0 else int(rng.integers(1, 8))) / 64
        cases.append((f"b-class-n{n}-{rep}", circulant_from_root(root)))
    for gens, n in (([(1, 2, 3, 4)], 8), ([(1, 2, 3, 5)], 6), ([(1, 2, 3, 5)], 10),
                    ([(1, 3, 6, 10)], 10)):
        for directed in (False, True):
            g = orbit_closure(gens, n, directed)
            tag = f"{''.join(map(str, gens[0]))}-n{n}-{'directed' if directed else 'undirected'}"
            for kind, build in (("adjacency", adjacency_tensor), ("laplacian", laplacian),
                                ("signless", signless_laplacian)):
                cases.append((f"hypergraph-{tag}-{kind}", build(g)))
    for name in ("example3", "example4_case1", "example4_case2", "example5", "example6"):
        t = presets.by_name(name)
        cases.append((name, expand(t) if isinstance(t, DiagRootSpec) else t))
    return cases


def _pinned(v) -> bool:
    """Whether the witness is a closed-form vector, pinned byte for byte."""
    return "failed" in v.details or v.certificate == DIAG_ROOT


def record(v) -> dict:
    """The ledger entry of verdict ``v``, as it reads back from JSON."""
    details = dict(v.details)
    witness = None
    if v.witness is not None and _pinned(v):
        witness = np.asarray(v.witness, dtype="<f8").tobytes().hex()
    elif v.witness is not None:
        for key in _WITNESS_VALUES:
            details.pop(key, None)
    entry = {
        "decision": v.decision,
        "certificate": v.certificate,
        "route": details.get("route"),
        "details": details,
        "witness": witness,
    }
    return json.loads(json.dumps(entry, default=lambda x: x.item()))


def ledger() -> dict:
    return {name: record(check_psd(a, mode="certificates_only")) for name, a in corpus()}


def main() -> int:
    entries = ledger()
    LEDGER.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {LEDGER}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
