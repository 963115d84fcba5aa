#!/usr/bin/env python3
"""Multi-start sphere-minimization benchmark on the two bundled instances.

Reports, per instance: best value found, the known reference minimum, mean
iteration count, mean wall time per run (the restarts run as one batch, so
this is the batch time over the number of runs), and the fraction of runs
that land within 1e-5 of the reference.  Exits 1 when a best value is more
than 1e-4 from its reference or a success rate is below 0.9, the checks of
``ctensor reproduce table1``.
"""

import argparse
import sys

from ctensor import presets
from ctensor.admm import AdmmParams, multi_start
from ctensor.diag_root import expand


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--restarts", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--beta", type=float, default=1.2)
    ap.add_argument("--eps", type=float, default=1e-6)
    args = ap.parse_args()

    params = AdmmParams(beta=args.beta, epsilon=args.eps, seed=args.seed)
    header = f"{'instance':<10} {'best':>12} {'reference':>12} {'iters':>8} {'ms/run':>8} {'success':>8}"
    print(header)
    print("-" * len(header))
    ok = True
    for name in ("example5", "example6"):
        ref = presets.BENCHMARK_REFERENCES[name]
        rep = multi_start(
            expand(presets.by_name(name)),
            params,
            restarts=args.restarts,
            reference=ref,
        )
        print(
            f"{name:<10} {rep.best.value:>12.5f} {ref:>12.5f} "
            f"{rep.iterations_mean:>8.1f} {rep.time_mean_s * 1e3:>8.2f} "
            f"{rep.success_rate:>8.0%}"
        )
        ok &= abs(rep.best.value - ref) <= 1e-4 and rep.success_rate >= 0.9
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
