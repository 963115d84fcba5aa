#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed 0] [--held-out 7]

1. Repeatable counts: two traced runs per workload with one seed must give
   identical seed-only outputs (success rates, iteration means, per-route
   decision counts, decided share, oracle agreement) and identical
   first-round ADMM iteration statistics.
2. Held-out seed: one run per workload on an unseen seed must pass every
   correctness check; the only failed calls allowed are the budget
   ValueErrors of analyze_ladder.
3. Cross-checks against the experiment scripts: table1 must print the same
   best values, iteration means and success rates as
   scripts/benchmark_sphere_min.py, and the criterion-5 stream the
   psd_sweep corpus draws from must give the same oracle agreement as
   scripts/oracle_sweep.py on its first --c5-count trials, with the same
   verdict on every one of those trials the corpus uses.

Exits 1 when any check fails; the details go to perfbench/out/selftest.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
from run import generate  # noqa: E402

C5_COUNT = 30
REPEATABLE_LAYERS = (
    "admm.iters_per_restart.p50", "admm.iters_per_restart.p90", "admm.iters_per_restart.max",
    "admm.escalated_share", "admm.converged_share",
)


def bench(workload, seed, trace, seconds=1):
    """One run of the shortest length (a single round) and its result file."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=400,
    )
    with open(HERE / "out" / f"{workload}_seed{seed}_trace{trace}.json") as fh:
        return json.load(fh)


def script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          check=True, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=900).stdout


def c5_agreement(seed, count):
    """The oracle-sweep statistic computed on corpus.c5_stream."""
    from ctensor.core import circulant_from_root
    from ctensor.psd import brute_force_min, check_psd

    agree, decisions = 0, {}
    stream = corpus.c5_stream(seed)
    for _ in range(count):
        t, root = next(stream)
        a = circulant_from_root(root)
        v = check_psd(a, mode="with_numeric", restarts=12, seed=t)
        agree += (v.decision == "not_psd") == (brute_force_min(a).value < -1e-4)
        decisions[t] = v.decision
    return agree, decisions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--held-out", type=int, default=7)
    args = ap.parse_args()
    results = {}

    def record(name, ok, detail):
        results[name] = {"ok": bool(ok), "detail": detail}
        print(("PASS " if ok else "FAIL ") + name + ("" if ok else f": {detail}"), flush=True)

    first = {}
    for w in corpus.WORKLOADS:
        a, b = bench(w, args.seed, 1), bench(w, args.seed, 1)
        first[w] = a
        layers = lambda r: {k: r["per_layer"][k]["value"] for k in REPEATABLE_LAYERS}
        traced = a["per_layer"]["trace.spans"]["value"] > 0
        same = traced and a["seed_only"] == b["seed_only"] and layers(a) == layers(b)
        record(f"repeatable counts: {w}", same,
               {"first": [a["seed_only"], layers(a)], "second": [b["seed_only"], layers(b)]})

    for w in corpus.WORKLOADS:
        r = bench(w, args.held_out, 0)
        record(f"held-out seed {args.held_out}: {w}", r["correct"],
               {"problems": r["problems"], "failed": r["samples"]["failed_calls"],
                "errors": r["seed_only"].get("errors", [])})

    out = script("benchmark_sphere_min.py", "--seed", args.seed, "--restarts", 100)
    rows = {m.group(1): m.groups()[1:] for m in re.finditer(
        r"^(example\d)\s+(\S+)\s+\S+\s+(\S+)\s+\S+\s+(\d+)%$", out, re.M)}
    mine = {name: (f"{v['best']:.5f}", f"{v['iterations_mean']:.1f}", f"{v['success_rate']:.0%}"[:-1])
            for name, v in first["table1"]["seed_only"].items() if name.startswith("example")}
    record("table1 matches scripts/benchmark_sphere_min.py", rows == mine,
           {"script": rows, "benchmark": mine})

    count = C5_COUNT
    spec = generate("psd_sweep", args.seed)
    trials = {d["trial"] for d in spec["docs"] if d["family"].startswith("c5") and d["trial"] < count}
    out = script("oracle_sweep.py", "--seed", args.seed, "--count", count, "--dims", 2, 3, 4,
                 "--restarts", 12)
    script_agree = int(re.search(r"agreement\s+(\d+)/", out).group(1))
    agree, decisions = c5_agreement(args.seed, count)
    sweep = first["psd_sweep"]["seed_only"]["c5_decisions"]
    same_verdicts = all(sweep[str(t)] == decisions[t] for t in trials)
    record("criterion-5 stream matches scripts/oracle_sweep.py",
           agree == script_agree and same_verdicts,
           {"count": count, "script_agreement": script_agree, "benchmark_agreement": agree,
            "corpus_trials_same_verdict": same_verdicts})

    with open(HERE / "out" / "selftest.json", "w") as fh:
        json.dump(results, fh, indent=1)
    return 0 if all(r["ok"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
