#!/usr/bin/env python3
"""Multi-start sphere-minimization benchmark on the two bundled instances.

Prints the table of ``ctensor reproduce table1``, per instance: best value
found, the known reference minimum, mean iteration count, mean wall time per
run (the restarts run as one batch, so this is the batch time over the number
of runs), and the fraction of runs that land within 1e-5 of the reference.
Exits 1 unless that document passes its checks (best value within 1e-4 of
the reference, success rate at least 0.9).
"""

import argparse
import sys

from ctensor.cli import cmd_reproduce


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--restarts", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    doc = cmd_reproduce(argparse.Namespace(target="table1", **vars(args)))
    header = f"{'instance':<10} {'best':>12} {'reference':>12} {'iters':>8} {'ms/run':>8} {'success':>8}"
    print(header)
    print("-" * len(header))
    for row in doc["rows"]:
        print(
            f"{row['target']:<10} {row['best_value']:>12.5f} {row['reference']:>12.5f} "
            f"{row['iterations_mean']:>8.1f} {row['time_mean_ms']:>8.2f} "
            f"{row['success_rate']:>8.0%}"
        )
    sys.exit(0 if doc["passed"] else 1)


if __name__ == "__main__":
    main()
