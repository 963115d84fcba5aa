"""One workload process: import ctensor, load the inputs, run the closed loop.

    python3 perfbench/worker.py INPUTS.jsonl setup
    python3 perfbench/worker.py INPUTS.jsonl run SECONDS TRACE PAUSES

``setup`` stops after printing ``ready`` (the parent times interpreter start
through input loading).  ``run`` then runs the operations in whole rounds,
one caller, each call starting when the previous one returned, until
SECONDS have passed (the first round always completes), checks every output
and prints one JSON line with the records.  Up to PAUSES times, evenly over
the run, it prints ``pause`` after a round and waits for a line on standard
input (the parent times a setup process meanwhile).  Before, during (every
REF_EVERY_S, between calls) and after each round it times a fixed reference
kernel, which gives the host's speed during the round.  Neither pauses nor
reference timings count as run time.  With TRACE=1 the public
functions of the library layers are wrapped first (see tracing.py).
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import ctensor  # noqa: E402

if not Path(ctensor.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"ctensor imported from {ctensor.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

from ctensor import admm, core, diag_root, psd, spectral, structure  # noqa: E402
from ctensor import io as ctio  # noqa: E402

CALLS = {
    "multi_start": admm,
    "check_psd": psd,
    "expand": diag_root,
    "native_eigenvalues": spectral,
    "gershgorin": spectral,
    "extreme_h_eigenvalue": spectral,
    "classify_sign": structure,
    "b_class": structure,
    "is_doubly_circulant": structure,
    "is_toeplitz": core,
    "symmetrize": core,
}


def load(path: str):
    with open(path) as fh:
        header = json.loads(fh.readline())
        docs = [json.loads(line) for line in fh]
    tensors = [ctio.tensor_from_dict(doc) for doc in docs]
    if header["workload"] == "table1":
        tensors = [ctio.as_tensor(t) for t in tensors]
    return header, docs, tensors


def call(op, docs, tensors, expanded):
    """Make the library call of one operation (resolved at call time, so a
    traced run goes through the wrappers)."""
    name, args, i = op["call"], op["args"], op["input"]
    fn = getattr(CALLS[name], name)
    if name == "expand":
        expanded[i] = fn(tensors[i])
        return expanded[i]
    a = expanded.get(i, tensors[i])
    if name == "multi_start":
        params = admm.AdmmParams(seed=args["seed"])
        return fn(a, params, restarts=args["restarts"], reference=docs[i]["reference"])
    if name == "check_psd":
        extra = {k: args[k] for k in ("restarts", "seed") if k in args}
        return fn(a, mode=args["mode"], **extra)
    return fn(a)


def fingerprint(name, result):
    """A small exact summary, compared across rounds (the code is
    deterministic, so repeats must match bit for bit)."""
    if name == "multi_start":
        return [result.best.value, result.iterations_mean, result.success_rate]
    if name == "check_psd":
        return [result.decision, result.certificate]
    if name == "native_eigenvalues":
        return [float(np.sum(result.lambdas.real)), float(np.sum(result.lambdas.imag))]
    if name in ("expand", "symmetrize"):
        return float(np.sum(result.root.array))
    if name == "gershgorin":
        return [result.center, result.radius]
    if name == "extreme_h_eigenvalue":
        return None if result is None else [result.value, result.kind]
    if name == "classify_sign":
        return result.value
    if name == "b_class":
        return [result.is_b0, result.is_b]
    return bool(result)


def scale(a) -> float:
    return max(1.0, float(np.abs(a.root.array).sum()))


def exact_form(a, x) -> Fraction:
    """A x^m in rational arithmetic (float entries are dyadic rationals)."""
    n, m = a.dim, a.order
    root = a.root.array
    xs = [Fraction(float(v)) for v in x]
    total = Fraction(0)
    for idx in itertools.product(range(n), repeat=m):
        v = root[tuple((j - idx[0]) % n for j in idx[1:])]
        if v:
            term = Fraction(float(v))
            for j in idx:
                term *= xs[j]
            total += term
    return total


def witness_negative(a, w) -> bool:
    """The refuting witness re-evaluates negative; exactly when the float
    value is within rounding of zero."""
    w = np.asarray(w, dtype=float)
    value = float(core.apply_full(a, w))
    if abs(value) > 1e-9 * scale(a) * max(1.0, float(np.max(np.abs(w)))) ** a.order:
        return value < 0
    if a.dim**a.order > 10**6:
        return False
    return exact_form(a, w) < 0


class Checker:
    """Per-operation correctness checks, run after the timed call."""

    def __init__(self, docs, tensors, expanded, tracer):
        self.docs, self.tensors, self.expanded = docs, tensors, expanded
        self.tracer = tracer
        self.oracle = {}

    def oracle_min(self, i, a) -> float:
        if i not in self.oracle:
            if self.tracer:
                self.tracer.active = True
            self.oracle[i] = psd.brute_force_min(a).value
            if self.tracer:
                self.tracer.active = False
        return self.oracle[i]

    def check(self, op, result) -> str | None:
        """None when the output is correct, else a short reason."""
        name, args, i = op["call"], op["args"], op["input"]
        a = self.expanded.get(i, self.tensors[i])
        doc = self.docs[i]
        if name == "multi_start":
            if abs(result.best.value - doc["reference"]) > 1e-4:
                return f"best {result.best.value} far from {doc['reference']}"
            if result.success_rate < 0.9:
                return f"success rate {result.success_rate}"
        elif name == "check_psd":
            if result.decision == "not_psd" and not witness_negative(a, result.witness):
                return "witness does not re-evaluate negative"
            if result.is_psd and a.dim <= 4 and self.oracle_min(i, a) < -1e-6:
                return f"psd verdict but oracle minimum {self.oracle_min(i, a)}"
        elif name == "native_eigenvalues":
            tol = 1e-9 * scale(a)
            for k in args["check_k"]:
                v = spectral.native_eigenvector(a.dim, k)
                if spectral.eigen_residual(a, result.lambdas[k], v) > tol:
                    return f"eigenpair k={k} residual"
            if abs(spectral.first_native(a) - result.lambdas[0].real) > tol:
                return "first_native differs from lambda_0"
        elif name == "symmetrize":
            x = np.asarray(args["check_x"])
            bound = 1e-9 * scale(a) * a.dim * max(1.0, float(np.max(np.abs(x)))) ** a.order
            if abs(core.apply_full(result, x) - core.apply_full(a, x)) > bound:
                return "symmetrized form differs"
        elif name == "is_toeplitz" and not result:
            return "circulant tensor reported non-Toeplitz"
        elif name == "is_doubly_circulant" and doc.get("family") == "doubly" and not result:
            return "doubly circulant input not detected"
        elif name == "classify_sign" and doc.get("family") == "signless" and result.value != "nonnegative":
            return "signless Laplacian not nonnegative"
        return None


# the host-speed reference: fixed small numpy work driven from Python, the
# kind of code the workloads spend their time in, and no library code
REF_ARRAY = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 4, 4, 4))
REF_REPS = 1000
REF_EVERY_S = 0.5


def reference_s() -> float:
    """Seconds REF_REPS small tensordots take now."""
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        np.tensordot(REF_ARRAY, REF_ARRAY, axes=2)
    return time.perf_counter() - t0


def run(header, docs, tensors, seconds, tracer, pauses):
    expanded = {}
    checker = Checker(docs, tensors, expanded, tracer)
    records, first_round_ops = [], set()
    reference = {}
    seen = {}
    op_id = 0

    def execute(op, round_no, timed):
        nonlocal op_id
        op_id += 1
        if tracer:
            tracer.op_id = op_id
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result, error = call(op, docs, tensors, expanded), None
        except Exception as exc:  # a failed call is a measured outcome
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        key = (op["call"], op["input"], json.dumps(op["args"], sort_keys=True))
        problem = error
        if error is None:
            fp = fingerprint(op["call"], result)
            if key not in seen:
                seen[key] = fp
                problem = checker.check(op, result)
                reference[key] = result
            elif fp != seen[key]:
                problem = "output differs from the first round"
        if round_no == 0:
            first_round_ops.add(op_id)
        records.append({
            "call": op["call"], "tag": op["tag"], "input": op["input"], "round": round_no,
            "timed": timed, "s": elapsed, "error": error, "failed": problem is not None,
            "problem": problem if error is None else None,
        })

    for op in header["reference_ops"]:
        execute(op, 0, False)
    start = time.perf_counter()
    paused = 0.0  # pauses and reference timings, which are not run time
    every = seconds / (pauses + 1)
    next_pause = every
    round_ref = []
    refs = [reference_s()]

    def sample_ref():
        nonlocal paused, last_ref
        t0 = time.perf_counter()
        refs.append(reference_s())
        last_ref = time.perf_counter()
        paused += last_ref - t0

    last_ref = time.perf_counter()
    for round_no in itertools.count():
        for k, op in enumerate(header["round"]):
            if k and time.perf_counter() - last_ref >= REF_EVERY_S:
                sample_ref()
            execute(op, round_no, True)
        if round_no == 0:
            # later rounds repeat the same calls; taking the peak here keeps it
            # independent of how many rounds fit in the time
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sample_ref()
        # the host's speed during the round: seconds per 10^6 reference
        # iterations, from the timings taken before, during and after it
        round_ref.append(sum(refs) / len(refs) / REF_REPS * 1e6)
        refs = refs[-1:]
        active = time.perf_counter() - start - paused
        if active >= seconds:
            break
        if active >= next_pause:
            t0 = time.perf_counter()
            print("pause", flush=True)
            sys.stdin.readline()
            refs = [reference_s()]
            last_ref = time.perf_counter()
            paused += last_ref - t0
            next_pause += every
    wall = time.perf_counter() - start - paused
    return records, first_round_ops, reference, checker, wall, peak_kb / 1024.0, round_ref


def route(v) -> str:
    return f"{v.decision}:{v.certificate or v.details.get('failed') or 'none'}"


def summaries(header, docs, records, reference, checker):
    """Seed-only outputs: they depend on the inputs, never on timing."""
    verdicts = {i: v for (name, i, _), v in reference.items() if name == "check_psd"}
    out = {"routes": dict(sorted(Counter(route(v) for v in verdicts.values()).items()))}
    if header["workload"] == "table1":
        runs = {docs[i]["name"]: {"best": r.best.value, "iterations_mean": r.iterations_mean,
                                  "success_rate": r.success_rate}
                for (name, i, _), r in reference.items() if name == "multi_start"}
        out.update(runs, success_rate=min(v["success_rate"] for v in runs.values()))
    elif header["workload"] == "psd_sweep":
        agree = {i: (v.decision == "not_psd") == (checker.oracle_min(i, checker.tensors[i]) < -1e-4)
                 for i, v in verdicts.items()}
        c5 = [i for i in verdicts if docs[i]["family"].startswith("c5")]
        out.update(
            decided_share=sum(v.decided for v in verdicts.values()) / len(verdicts),
            oracle_agreement=sum(agree.values()) / len(agree),
            c5_oracle_agreement=sum(agree[i] for i in c5) / len(c5),
            c5_decisions={docs[i]["trial"]: verdicts[i].decision
                          for i in sorted(c5, key=lambda i: docs[i]["trial"])},
        )
    else:
        out["errors"] = sorted({f"{r['error'].split(':')[0]} in {r['call']} at {r['tag'].split(':')[1]}"
                                for r in records if r["error"] and r["round"] == 0})
    return out


def main(argv) -> int:
    path, mode = argv[0], argv[1]
    tracer = None
    if mode == "run" and argv[3] == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    header, docs, tensors = load(path)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    if tracer:
        tracer.active = False
    seconds, pauses = float(argv[2]), int(argv[4])
    records, first_round_ops, reference, checker, wall, peak_mb, round_ref = run(
        header, docs, tensors, seconds, tracer, pauses)
    doc = {
        "records": records,
        "wall_s": wall,
        "round_mref_s": round_ref,
        "round_ops": len(header["round"]),
        "peak_rss_mb": peak_mb,
        "summary": summaries(header, docs, records, reference, checker),
    }
    if tracer:
        from tracing import layer_metrics

        doc["layers"] = layer_metrics(tracer.spans, first_round_ops)
        tracer.write(HERE / "out" / f"spans_{header['workload']}_seed{header['seed']}.jsonl")
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
