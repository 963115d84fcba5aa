#!/usr/bin/env python3
"""Run workloads over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads table1 psd_sweep analyze_ladder \
        --seeds 0 1 2 3 4 5 6 7 8 9 [--trace 0|1] --out perfbench/out/collect.json

For every metric it reports the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median; for end-to-end metrics it also marks whether that spread is
below a third of the metric's bound in BENCHMARK.json.  Each run's
metrics, sample counts and seed-only outputs are kept under ``runs``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_KEYS = ("end_to_end", "reported", "per_layer", "samples", "named_metrics", "seed_only",
            "correct", "problems")


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=400, check=True,
    ).stdout
    summary = json.loads(out.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}_seed{seed}_trace{trace}.json") as fh:
        return summary, json.load(fh)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else None,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in args.workloads:
        runs = [run_once(w, s, seconds, args.trace) for s in args.seeds]
        names = runs[0][0]["metrics"].keys()
        metrics = {}
        for name in names:
            vals = [r[0]["metrics"][name]["value"] for r in runs]
            metrics[name] = spread(vals) if len(vals) > 1 else {"values": vals}
            if name in bounds and metrics[name].get("iqr_share") is not None:
                metrics[name]["bound"] = bounds[name]
                metrics[name]["steady"] = metrics[name]["iqr_share"] < bounds[name] / 3
            print(w, name, {k: v for k, v in metrics[name].items() if k != "values"}, flush=True)
        report["workloads"][w] = {
            "seeds": args.seeds,
            "correct": [r[0]["correct"] for r in runs],
            "failed": [r[0]["failed"] for r in runs],
            "metrics": metrics,
            "named_metrics": {k: spread([r[1]["named_metrics"][k]["value"] for r in runs])
                              for k in runs[0][1]["named_metrics"]} if len(runs) > 1 else None,
            "runs": [{k: r[1][k] for k in RUN_KEYS if k in r[1]} for r in runs],
            "by_call_first_seed": runs[0][1]["by_call"],
        }
        report["provenance"] = runs[0][1]["provenance"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
