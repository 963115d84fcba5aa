"""Span tracing around the public functions of the ctensor layers.

The wrappers live only in the benchmark: ``install`` replaces each public
function of the traced modules with a recording wrapper, in every ctensor
module namespace that holds it.  Modules bind imported names locally
(``ctensor.psd.multi_start``, ``ctensor.admm.symmetrize``, ...), so patching
the defining module alone would miss most calls.

A span is ``[name, start, end, parent, op_id, info]``; spans stay in memory,
and when the run ends they are reduced to per-layer metrics and written to
perfbench/out/spans_<workload>_seed<N>.jsonl.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

from stats import percentile, tail_percentile

LAYERS = ("core", "spectral", "structure", "diag_root", "psd", "admm", "io")
PSD_STAGES = (
    "psd.necessary_checks",
    "diag_root.diag_root_psd",
    "diag_root.doubly_psd",
    "psd.sufficient_diag_dominance",
    "psd.sufficient_b_class",
    "psd.exact_special_cases",
)
# called four times per ADMM iteration: wrapping it would record millions of
# spans per run; its cost is inside admm.us_per_iter
UNTRACED = {"admm.subproblem"}
NAME, START, END, PARENT, OP, INFO = range(6)


def _decided(name, args, kwargs, result):
    """Whether a decision-chain stage settled the question."""
    if name == "psd.necessary_checks":
        return result[1] is not None
    if name in ("diag_root.diag_root_psd", "diag_root.doubly_psd"):
        return result.decision != "inconclusive"
    return result is not None


def _minimize_info(name, args, kwargs, result):
    params = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("params")
    max_iters = params.max_iters if params is not None else 5000
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "escalated": result.iterations > max_iters,
    }


def _materialize_info(name, args, kwargs, result):
    a = args[0]
    dense_input = type(a).__name__ == "DenseTensor"
    return {"mb": 0.0 if dense_input else result.array.size * 8 / 1e6}


def _check_psd_info(name, args, kwargs, result):
    return {"decision": result.decision, "certificate": result.certificate}


INFO_HOOKS = {
    "admm.minimize": _minimize_info,
    "core.materialize": _materialize_info,
    "psd.check_psd": _check_psd_info,
    **{stage: lambda *a: {"decided": _decided(*a)} for stage in PSD_STAGES},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.active = True

    def wrap(self, name: str, fn):
        hook = INFO_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                    self.op_id, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[INFO] = {"error": type(exc).__name__, "budget": "budget" in str(exc)}
                raise
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                span[INFO] = hook(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in the traced modules."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ctensor" or name.startswith("ctensor.")}
        originals = {}
        for layer in LAYERS:
            mod = mods[f"ctensor.{layer}"]
            for fname, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not fname.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{fname}" not in UNTRACED):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{fname}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, op, info."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, first_round_ops: set) -> dict:
    """Reduce spans to the per-layer metrics.

    ``.s`` metrics are self time (span minus its child spans), summed over
    the run.  Distributions that depend only on the seed (iterations per
    restart, escalated and converged shares) are taken over the first round.
    """
    child_time = np.zeros(len(spans))
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        self_s[s[NAME]] += s[END] - s[START] - child_time[i]
        calls[s[NAME]] += 1

    def info(name):
        return [s for s in spans if s[NAME] == name and s[INFO] is not None]

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    # admm
    mins = [s for s in spans if s[NAME] == "admm.minimize"]
    restart_ms = [(s[END] - s[START]) * 1e3 for s in mins]
    first = [s[INFO] for s in mins if s[OP] in first_round_ops and s[INFO] and "iterations" in s[INFO]]
    iters = [r["iterations"] for r in first]
    total_iters = sum(s[INFO]["iterations"] for s in mins if s[INFO] and "iterations" in s[INFO])
    min_idx = {i for i, s in enumerate(spans) if s[NAME] == "admm.minimize"}
    setup = sum(s[END] - s[START] for s in spans
                if s[PARENT] in min_idx and s[NAME] in ("core.symmetrize", "core.materialize"))
    min_total = sum(restart_ms) / 1e3
    put("admm.minimize.calls", len(mins), "count")
    put("admm.restart_ms.p50", percentile(restart_ms, 50), "ms")
    put("admm.restart_ms.tail", percentile(restart_ms, tail_percentile(len(restart_ms))), "ms")
    put("admm.iters_per_restart.p50", percentile(iters, 50), "count")
    put("admm.iters_per_restart.p90", percentile(iters, 90), "count")
    put("admm.iters_per_restart.max", max(iters, default=0), "count")
    put("admm.escalated_share", _share(sum(r["escalated"] for r in first), len(first)), "ratio")
    put("admm.converged_share", _share(sum(r["converged"] for r in first), len(first)), "ratio")
    put("admm.us_per_iter", _share(self_s["admm.minimize"] * 1e6, total_iters), "us")
    put("admm.setup_share", _share(setup, min_total), "ratio")

    # psd decision chain
    for stage in PSD_STAGES:
        short = "psd." + stage.split(".", 1)[1]
        put(f"{short}.s", self_s[stage], "s")
        put(f"{short}.decided", sum(1 for s in info(stage) if s[INFO].get("decided")), "count")
    checks = {i: s for i, s in enumerate(spans) if s[NAME] == "psd.check_psd"}
    numeric = [s for s in spans if s[NAME] == "admm.multi_start" and s[PARENT] in checks]
    entered = {s[PARENT] for s in numeric}
    decided = sum(1 for i in entered if (checks[i][INFO] or {}).get("certificate") == "numeric_evidence"
                  and checks[i][INFO].get("decision") == "not_psd")
    put("psd.numeric.entered", len(entered), "count")
    put("psd.numeric.decided", decided, "count")
    put("psd.numeric.useful_ratio", _share(decided, len(entered)), "ratio")
    put("psd.numeric.s", sum(s[END] - s[START] for s in numeric), "s")
    put("psd.brute_force_min.s", self_s["psd.brute_force_min"], "s")

    # core
    put("core.symmetrize.calls", calls["core.symmetrize"], "count")
    put("core.symmetrize.s", self_s["core.symmetrize"], "s")
    put("core.materialize.calls", calls["core.materialize"], "count")
    put("core.materialize.s", self_s["core.materialize"], "s")
    put("core.materialize.mb_computed",
        sum(s[INFO].get("mb", 0.0) for s in info("core.materialize")), "MB")
    put("core.apply_full.calls", calls["core.apply_full"], "count")
    put("core.apply_full.s", self_s["core.apply_full"], "s")
    put("core.apply_partial.s", self_s["core.apply_partial"], "s")
    put("core.is_toeplitz.s", self_s["core.is_toeplitz"], "s")
    put("core.budget_errors",
        sum(1 for s in info("core.materialize") if s[INFO].get("budget")), "count")

    for name in ("spectral.native_eigenvalues", "spectral.associated_coeffs",
                 "spectral.extreme_h_eigenvalue", "structure.classify_sign",
                 "structure.classify_sign_array", "structure.b_class",
                 "structure.is_doubly_circulant", "diag_root.doubly_psd",
                 "diag_root.expand", "io.tensor_from_dict"):
        put(f"{name}.s", self_s[name], "s")

    put("trace.spans", len(spans), "count")
    return out


def _share(num, den) -> float:
    return num / den if den else 0.0
