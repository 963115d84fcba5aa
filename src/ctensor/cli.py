"""Command-line interface: eig, classify, psd, minimize, hypergraph, moments,
reproduce.

Output is deterministic JSON: keys appear in construction order and floats
carry 17 significant digits, so identical inputs and seeds give byte-identical
bytes.  Malformed or out-of-range input (a sum beyond the float range too)
exits with status 2, a dense materialization beyond the entry budget
(``CTENSOR_BUDGET``) with status 3; analysis verdicts never change the exit
status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import presets
from .admm import AdmmParams, multi_start
from .core import (
    BudgetError,
    CirculantTensor,
    apply_full,
    as_circulant,
    is_toeplitz,
    symmetrize,
)
from .diag_root import expand
from .hypergraph import hypergraph_from_dict, laplacian, adjacency_tensor, signless_laplacian
from .io import as_tensor, load_tensor, tensor_to_dict
from .moments import fold_trajectories, moment_tensor
from .psd import check_psd
from .spectral import (
    eigen_residual,
    extreme_h_eigenvalue,
    gershgorin,
    native_eigenvalues,
    native_eigenvector,
)
from .structure import b_class, classify_sign, is_doubly_circulant


def _fmt(value) -> str:
    """Render a JSON value with fixed key order and 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if bool(value) else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return '"%s"' % v
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, complex):
        return _fmt({"re": value.real, "im": value.imag})
    if isinstance(value, np.ndarray):
        return _fmt(list(value))
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    return json.dumps(str(value))


def _csv_rows(rows: list[dict]) -> None:
    """One CSV line per row under a header of the first row's keys."""
    header = list(rows[0])
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(row[k]).strip('"') for k in header) + "\n")


def _load_circulant(path: str) -> CirculantTensor:
    return as_circulant(as_tensor(load_tensor(path)))


def cmd_eig(args) -> dict:
    a = _load_circulant(args.tensor)
    # every output raises OverflowError on a sum beyond the float range; the
    # exact sums (the disc radius, an extreme eigenvalue) go first, so where
    # one of them overflows it is the one reported
    disc = gershgorin(a)
    ext = extreme_h_eigenvalue(a)
    spec = native_eigenvalues(a)
    return {
        "lambdas": spec.lambdas,
        "gershgorin": {"center": disc.center, "radius": disc.radius},
        "extreme": None
        if ext is None
        else {"value": ext.value, "kind": ext.kind, "basis": ext.basis},
    }


def cmd_classify(args) -> dict:
    obj = as_tensor(load_tensor(args.tensor))
    doubly = False
    if isinstance(obj, CirculantTensor) and obj.order >= 3:
        doubly = is_doubly_circulant(obj)
    report = b_class(obj)
    return {
        "sign": classify_sign(obj).value,
        "b0": report.is_b0,
        "b": report.is_b,
        "doubly_circulant": doubly,
        "toeplitz": is_toeplitz(obj),
    }


def cmd_psd(args) -> dict:
    a = _load_circulant(args.tensor)
    mode = "with_numeric" if args.numeric else "certificates_only"
    verdict = check_psd(a, mode=mode, seed=args.seed)
    return {
        "decision": verdict.decision,
        "certificate": verdict.certificate,
        "witness": verdict.witness,
        "evidence": dict(sorted(verdict.details.items())),
    }


def _converged_share(report) -> float:
    return float(np.mean([r.converged for r in report.results]))


def cmd_minimize(args) -> dict:
    a = _load_circulant(args.tensor)
    params = AdmmParams(beta=args.beta, epsilon=args.eps, seed=args.seed)
    report = multi_start(a, params, restarts=args.restarts, reference=args.reference)
    return {
        "best_value": report.best.value,
        "point": list(report.best.point),
        "iterations_mean": report.iterations_mean,
        "time_mean_ms": report.time_mean_s * 1000.0,
        "success_rate": report.success_rate,
        # a restart that never met the stopping rule reports where it
        # stalled, which is no evidence of the minimum
        "best_converged": report.best.converged,
        "converged_share": _converged_share(report),
    }


def cmd_hypergraph(args) -> dict:
    with open(args.graph) as fh:
        g = hypergraph_from_dict(json.load(fh))
    builder = {
        "adjacency": adjacency_tensor,
        "laplacian": laplacian,
        "signless": signless_laplacian,
    }[args.tensor]
    return tensor_to_dict(builder(g))


def cmd_moments(args) -> dict:
    with warnings.catch_warnings():
        # an empty file fails below, with the one-line message
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        raw = np.loadtxt(args.samples, delimiter=",", ndmin=2)
    sample = fold_trajectories(raw, args.period)
    return tensor_to_dict(moment_tensor(sample, args.order))


def _assertions_doc(rows) -> dict:
    return {
        "assertions": [
            {"name": name, "passed": bool(ok), "value": value} for name, ok, value in rows
        ],
        "passed": all(ok for _, ok, _ in rows),
    }


def _reproduce_example1() -> dict:
    a = presets.by_name("example1")
    spec = native_eigenvalues(a)
    lam = spec.lambdas
    pair = sorted(lam[1:], key=lambda z: z.imag)
    rows = [
        ("lambda0", abs(lam[0] - 39.1013) <= 1e-3, lam[0].real),
        ("conjugate_pair_re", abs(pair[0].real - 14.8057) <= 1e-3, pair[0].real),
        ("conjugate_pair_im", abs(abs(pair[0].imag) - 1.1793) <= 1e-3, abs(pair[0].imag)),
    ]
    for k in range(3):
        res = eigen_residual(a, lam[k], native_eigenvector(3, k))
        rows.append((f"residual_k{k}", res <= 1e-8, res))
    return _assertions_doc(rows)


def _reproduce_example2() -> dict:
    a = presets.by_name("example2")
    s = symmetrize(a)
    sym_root = s.root.array
    lam_a = native_eigenvalues(a).lambdas
    lam_s = native_eigenvalues(s).lambdas
    expected = np.array([[1.0, 1 / 3], [1 / 3, 1 / 3]])
    rows = [
        ("sym_root", np.max(np.abs(sym_root - expected)) <= 1e-12, sym_root.tolist()),
        ("lambda0", abs(lam_a[0] - 2) <= 1e-12, lam_a[0].real),
        ("lambda0_sym", abs(lam_s[0] - 2) <= 1e-12, lam_s[0].real),
        ("lambda1", abs(lam_a[1] - 6) <= 1e-12, lam_a[1].real),
        ("lambda1_sym", abs(lam_s[1] - 2 / 3) <= 1e-12, lam_s[1].real),
        ("lambda1_differs", abs(lam_a[1] - lam_s[1]) > 1e-6, abs(lam_a[1] - lam_s[1])),
    ]
    return _assertions_doc(rows)


def _reproduce_example3() -> dict:
    verdict = check_psd(expand(presets.by_name("example3")), mode="certificates_only")
    rows = [
        ("decision_psd", verdict.is_psd, verdict.decision),
        ("certificate", verdict.certificate is not None, verdict.certificate),
    ]
    return _assertions_doc(rows)


def _reproduce_example4() -> dict:
    a1 = presets.by_name("example4_case1")
    a2 = presets.by_name("example4_case2")
    v1 = check_psd(a1, mode="certificates_only")
    v2 = check_psd(a2, mode="certificates_only")
    probe = float(apply_full(a1, np.array([1.0, -2.0])))
    w_ok = v1.witness is not None and float(apply_full(a1, v1.witness)) < 0
    rows = [
        ("case1_not_psd", v1.decision == "not_psd", v1.decision),
        ("case1_witness_negative", w_ok, None if v1.witness is None else list(v1.witness)),
        ("case1_probe_value", probe < 0, probe),
        ("case2_psd", v2.is_psd, v2.decision),
    ]
    return _assertions_doc(rows)


def _reproduce_table1(restarts: int, seed: int) -> dict:
    rows = []
    table = []
    for name in ("example5", "example6"):
        spec = presets.by_name(name)
        ref = presets.BENCHMARK_REFERENCES[name]
        report = multi_start(
            expand(spec),
            AdmmParams(beta=1.2, epsilon=1e-6, seed=seed),
            restarts=restarts,
            reference=ref,
        )
        rows.append((f"{name}_best", abs(report.best.value - ref) <= 1e-4, report.best.value))
        rows.append((f"{name}_success", report.success_rate >= 0.9, report.success_rate))
        table.append(
            {
                "target": name,
                "iterations_mean": report.iterations_mean,
                "time_mean_ms": report.time_mean_s * 1000.0,
                "best_value": report.best.value,
                "reference": ref,
                "success_rate": report.success_rate,
                "converged_share": _converged_share(report),
            }
        )
    doc = _assertions_doc(rows)
    doc["rows"] = table
    return doc


def cmd_reproduce(args) -> dict:
    return {
        "example1": _reproduce_example1,
        "example2": _reproduce_example2,
        "example3": _reproduce_example3,
        "example4": _reproduce_example4,
        "table1": lambda: _reproduce_table1(args.restarts, args.seed),
    }[args.target]()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ctensor")
    # each command's handler, and the CSV rows of its document (None: JSON only)
    p.set_defaults(csv=None)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("eig", help="native eigenvalues of a circulant tensor")
    s.set_defaults(run=cmd_eig)
    s.add_argument("tensor")

    s = sub.add_parser("classify", help="structural classification")
    s.set_defaults(run=cmd_classify)
    s.add_argument("tensor")

    s = sub.add_parser("psd", help="positive semi-definiteness decision")
    s.set_defaults(run=cmd_psd)
    s.add_argument("tensor")
    s.add_argument("--numeric", action="store_true")
    s.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("minimize", help="multi-start sphere minimization")
    s.set_defaults(run=cmd_minimize, csv=lambda d: [{k: v for k, v in d.items() if k != "point"}])
    s.add_argument("tensor")
    s.add_argument("--restarts", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--beta", type=float, default=1.2)
    s.add_argument("--eps", type=float, default=1e-6)
    s.add_argument("--reference", type=float, default=None)
    s.add_argument("--format", choices=("json", "csv"), default="json")

    s = sub.add_parser("hypergraph", help="tensors of a rotation-closed hypergraph")
    s.set_defaults(run=cmd_hypergraph)
    s.add_argument("graph")
    s.add_argument(
        "--tensor", choices=("adjacency", "laplacian", "signless"), default="adjacency"
    )

    s = sub.add_parser("moments", help="empirical moment tensor from CSV trajectories")
    s.set_defaults(run=cmd_moments)
    s.add_argument("samples")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--period", type=int, required=True)

    s = sub.add_parser("reproduce", help="re-run the bundled regression targets")
    s.set_defaults(run=cmd_reproduce, csv=lambda doc: doc.get("rows"))
    s.add_argument(
        "target", choices=("example1", "example2", "example3", "example4", "table1")
    )
    s.add_argument("--restarts", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--format", choices=("json", "csv"), default="json")

    return p


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        doc = args.run(args)
        rows = args.csv(doc) if args.csv and args.format == "csv" else None
        if rows:
            _csv_rows(rows)
        else:
            sys.stdout.write(_fmt(doc) + "\n")
    except BudgetError as exc:
        print(f"ctensor: budget: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"ctensor: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
