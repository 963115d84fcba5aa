"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed.  A workload is written as a
JSON-lines file: a header with the operations, then one tensor document per
line in the ``ctensor.io`` exchange format.  The worker process turns the
documents into tensors with ``ctensor.io.tensor_from_dict``, so the library
only ever sees these generated inputs.

An operation is one library call: ``{"call", "input", "args", "tag"}``.  The
header lists the ``round``: the complete, fixed-composition list of
operations; the timed loop repeats whole rounds, so every run sees the same
mix whatever its length.  ``reference_ops`` run once, untimed for the gated
metrics (see ``table1``).
"""

from __future__ import annotations

import numpy as np

DIMS = (2, 3, 4)
LIFTED_DIM = 4

# the paper's two multi-start instances (order 4, diagonal roots) and their
# known sphere minima
TABLE1 = {
    "example5": ([-4.75046, 3.58365, 8.252], -6.39448),
    "example6": ([3.30134, -9.68746, 2.31954, 7.60276], -1.79658),
}

# analyze_ladder: tensors per round by (m, n) and family.  The small shapes
# carry most calls so that the budget failures at (4,60) and (3,300) stay
# under 1% of a round and the p99 tail stays finite; the eleven (4,30)
# tensors put that p99 inside their symmetrize calls rather than on the
# border between two kinds of call.
LADDER = {
    (4, 3): {"random": 40, "lifted": 30, "diag_root": 30},  # no 4-uniform edge on 3 vertices
    (4, 10): {"random": 20, "lifted": 10, "diag_root": 10, "laplacian": 10, "signless": 10},
    (4, 30): {"random": 3, "lifted": 2, "diag_root": 2, "laplacian": 2, "signless": 2},
    (4, 60): {"random": 1},
    (6, 8): {"random": 1, "signless": 1},
    (3, 300): {"random": 1},
}
DOUBLY_DIMS = range(2, 9)
# ladder shapes whose dense form exceeds the default materialization budget:
# their classify_sign, is_toeplitz and symmetrize calls raise a ValueError
BUDGET_SHAPES = ((4, 60), (3, 300))
BUDGET_CALLS = ("classify_sign", "is_toeplitz", "symmetrize")
# restarts of the numeric check_psd decisions that run once in table1
TABLE1_PSD_RESTARTS = 4


def circulant_doc(root: np.ndarray) -> dict:
    root = np.asarray(root, dtype=float)
    return {
        "kind": "circulant",
        "order": root.ndim + 1,
        "dim": root.shape[0],
        "root": root.reshape(-1).tolist(),
    }


def failed_condition(root: np.ndarray) -> str | None:
    """The first necessary sign condition of even-order PSD circulant
    tensors that the root violates, in the library's order: diagonal entry
    >= 0, root sum >= 0 and, for even n, parity-signed root sum >= 0.
    Computed here, independently of the library."""
    if root[(0,) * root.ndim] < 0:
        return "diagonal_entry"
    if root.sum() < 0:
        return "first_native"
    if root.shape[0] % 2 == 0:
        signs = (-1.0) ** np.indices(root.shape).sum(axis=0)
        if float((root * signs).sum()) < 0:
            return "alternative_native"
    return None


def passes_necessary(root: np.ndarray) -> bool:
    return failed_condition(root) is None


def lift(rng, root: np.ndarray) -> np.ndarray:
    """Raise the diagonal entry to a seeded fraction in [0.3, 1) of the
    off-diagonal 1-norm."""
    root = root.copy()
    diag = (0,) * root.ndim
    root[diag] = 0.0
    root[diag] = rng.uniform(0.3, 1.0) * np.abs(root).sum()
    return root


def _op(call, index, tag, **args):
    return {"call": call, "input": index, "args": args, "tag": tag}


def table1(seed: int, oracle_min) -> dict:
    """100-restart multi-start on the paper's two instances.

    example6 stalls on a seed-dependent 2-7% of its restarts (5000 iterations
    each against about 90), so one 100-restart call costs between 6 and 13 s
    depending on the seed.  It runs once per run, checked and reported, but
    only the example5 calls, repeated, make the gated metrics.

    Two numeric PSD decisions also run once, so that the traced run measures
    the numeric stage and ADMM in its stalling regime next to the converging
    one: a lifted n = 4 draw, on which every restart escalates through all
    penalties and the verdict is inconclusive (about 3 s), and the first
    refutable criterion-5 draw with n = 4 (0.4 to 2 s).  Four restarts each
    keep the run short.
    """
    docs = [
        {"kind": "diag_root", "order": 4, "c": c, "name": name, "reference": ref}
        for name, (c, ref) in TABLE1.items()
    ]
    ms = lambda i: _op("multi_start", i, docs[i]["name"], restarts=100, seed=seed)
    numeric = []
    for family, trial, root in (("lifted", 100000, lifted_draw(np.random.default_rng([seed, 1]))),
                                ("c5_refute", *first_refutable(seed, oracle_min))):
        docs.append(dict(circulant_doc(root), family=family, trial=trial))
        numeric.append(_op("check_psd", len(docs) - 1, family, mode="with_numeric",
                           restarts=TABLE1_PSD_RESTARTS, seed=trial))
    return {"docs": docs, "reference_ops": [ms(1), *numeric], "round": [ms(0)]}


def c5_stream(seed: int):
    """Order-4 random circulant tensors exactly as the oracle sweep draws
    them: trial t has n = DIMS[t % 3] and root entries uniform in
    [-10, 10]; the decision for trial t uses ADMM seed t."""
    rng = np.random.default_rng(seed)
    t = 0
    while True:
        n = DIMS[t % len(DIMS)]
        yield t, rng.uniform(-10.0, 10.0, size=(n,) * 3)
        t += 1


def lifted_draw(rng) -> np.ndarray:
    """A lifted order-4 root with n = LIFTED_DIM that passes the necessary
    conditions."""
    while True:
        root = lift(rng, rng.uniform(-10.0, 10.0, size=(LIFTED_DIM,) * 3))
        if passes_necessary(root):
            return root


def first_refutable(seed: int, oracle_min):
    """The first criterion-5 draw with n = LIFTED_DIM that passes the
    necessary conditions but has a negative sphere minimum, as (trial, root)."""
    for t, root in c5_stream(seed):
        if root.shape[0] == LIFTED_DIM and passes_necessary(root) and oracle_min(root) < -1e-4:
            return t, root


def psd_sweep(seed: int, oracle_min) -> dict:
    """check_psd(with_numeric, restarts=12) on a fixed-composition mix.

    One round holds, per n in {2, 3, 4}:
      - 14 criterion-5 draws failing each necessary sign condition (two
        conditions for odd n, three for even n), refuted in well under a
        millisecond by the necessary checks;
      - 1 lifted draw with n = 4 that passes them: mostly PSD, every restart
        stalls through all penalty escalations (3600 iterations) and the
        verdict is inconclusive.  At n = 2 and 3 some restarts converge
        after 2500-3000 iterations instead, which would make the cost of a
        round depend on the seed.
    One criterion-5 draw with n = 4 that passes the conditions but has a
    negative sphere minimum runs once per run as a reference operation
    (checked, traced, not in the gated metrics): the numeric stage refutes
    such draws after 0.1 to 10 s, a cost too seed-dependent to compare
    across seeds.
    Draws are taken in stream order within each stratum.  A free
    criterion-5 mix would let the count of 8-second PSD draws (about 1 in
    10) decide decisions_per_s.  ``oracle_min`` (the library's brute-force
    grid minimum) is only used to find the refutable draws.
    """
    per_condition = 14
    fast = {n: {} for n in DIMS}
    wanted = {n: 3 if n % 2 == 0 else 2 for n in DIMS}
    for t, root in c5_stream(seed):
        n = root.shape[0]
        cond = failed_condition(root)
        if cond is not None:
            drawn = fast[n].setdefault(cond, [])
            if len(drawn) < per_condition:
                drawn.append((t, root))
        if all(len(fast[d]) == wanted[d] and all(len(v) == per_condition for v in fast[d].values())
               for d in DIMS):
            break

    rng = np.random.default_rng([seed, 1])
    docs, ops = [], []

    def add(family, trial, root):
        docs.append(dict(circulant_doc(root), family=family, trial=trial))
        return _op("check_psd", len(docs) - 1, family, mode="with_numeric", restarts=12, seed=trial)

    for k, n in enumerate(DIMS):
        ops.append(add("lifted", 100000 + k, lifted_draw(rng)))
        for cond, drawn in sorted(fast[n].items()):
            ops += [add("c5_fast", t, r) for t, r in drawn]
    reference = [add("c5_refute", *first_refutable(seed, oracle_min))]
    return {"docs": docs, "reference_ops": reference, "round": ops}


def _hypergraph_root(rng, m: int, n: int, signless: bool, builders) -> np.ndarray:
    orbit_closure, laplacian, signless_laplacian = builders
    gens = [sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False).tolist())
            for _ in range(2)]
    g = orbit_closure(gens, n)
    t = signless_laplacian(g) if signless else laplacian(g)
    return t.root.array


def _doubly_root(rng, n: int) -> np.ndarray:
    """Order-3 circulant root R[i,j,k] = B[(j-i)%n, (k-i)%n] of a random B,
    lifted until the order-4 tensor passes the necessary conditions so the
    decision reaches the exact doubly-circulant route."""
    while True:
        b = lift(rng, rng.uniform(-10.0, 10.0, size=(n, n)))
        i, j, k = np.indices((n, n, n))
        root = b[(j - i) % n, (k - i) % n]
        if passes_necessary(root):
            return root


def analyze_ladder(seed: int, builders) -> dict:
    """The calls behind ``ctensor eig``, ``classify`` and ``psd`` (plus
    ``symmetrize``) on every tensor of a seeded ladder corpus.

    ``builders`` are the library's hypergraph constructors (orbit_closure,
    laplacian, signless_laplacian), used to make the hypergraph tensors.
    """
    rng = np.random.default_rng(seed)
    docs, ops = [], []
    items = []
    for (m, n), fams in LADDER.items():
        for family, count in fams.items():
            items += [(family, m, n)] * count
    items += [("doubly", 4, n) for n in DOUBLY_DIMS]

    for family, m, n in items:
        shape = (n,) * (m - 1)
        if family == "diag_root":
            doc = {"kind": "diag_root", "order": m, "c": rng.uniform(-10.0, 10.0, size=n).tolist()}
        else:
            if family == "random":
                root = rng.uniform(-10.0, 10.0, size=shape)
            elif family == "lifted":
                root = lift(rng, rng.uniform(-10.0, 10.0, size=shape))
            elif family == "doubly":
                root = _doubly_root(rng, n)
            else:
                root = _hypergraph_root(rng, m, n, family == "signless", builders)
            doc = circulant_doc(root)
        doc["family"] = family
        docs.append(doc)
        i = len(docs) - 1
        tag = f"{family}:{m},{n}"
        if family == "diag_root":
            ops.append(_op("expand", i, tag))
        ks = sorted({int(k) for k in rng.integers(0, n, size=2)})
        ops += [
            _op("native_eigenvalues", i, tag, check_k=ks),
            _op("gershgorin", i, tag),
            _op("extreme_h_eigenvalue", i, tag),
            _op("classify_sign", i, tag),
            _op("b_class", i, tag),
            _op("is_doubly_circulant", i, tag),
            _op("is_toeplitz", i, tag),
        ]
        if m % 2 == 0:
            ops.append(_op("check_psd", i, tag, mode="certificates_only"))
        ops.append(_op("symmetrize", i, tag, check_x=rng.normal(size=n).tolist()))
    return {"docs": docs, "reference_ops": [], "round": ops}


WORKLOADS = ("table1", "psd_sweep", "analyze_ladder")
