#!/usr/bin/env python3
"""Tracing overhead: traced against untraced runs of one seed.

    python3 perfbench/overhead.py --workloads table1 analyze_ladder \
        --pairs 6 --seed 0 --seconds 20 --out perfbench/out/overhead.json

Each pair is one untraced and one traced run of the same inputs, and the pairs
alternate which side runs first.  The overhead of a pair is
1 - traced calls_per_mref / untraced calls_per_mref: throughput in units of
the host's speed, which drifts between the two runs of a pair.  The report
gives every pair, and the median and quartiles over the pairs
(``statistics.quantiles``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from collect import run_once  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in args.workloads:
        pairs = []
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            rate = {t: run_once(w, args.seed, args.seconds, t)[1]["end_to_end"]["calls_per_mref"]["value"]
                    for t in order}
            pairs.append({"first": "traced" if order[0] else "untraced",
                          "untraced_calls_per_mref": rate[0], "traced_calls_per_mref": rate[1],
                          "overhead_share": 1.0 - rate[1] / rate[0]})
        shares = [p["overhead_share"] for p in pairs]
        q1, med, q3 = statistics.quantiles(shares, n=4) if len(shares) > 1 else (shares * 3)
        report["workloads"][w] = {"median": med, "q1": q1, "q3": q3, "pairs": pairs}
        print(w, {"median": med, "q1": q1, "q3": q3}, flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
