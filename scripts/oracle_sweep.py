#!/usr/bin/env python3
"""Cross-check the semi-definiteness chain against the grid oracle.

Draws random order-4 circulant tensors (root entries uniform in
[-scale, scale]), runs the full decision chain with the numeric fallback,
and compares the refute/accept outcome against brute-force sphere
minimization.  Also re-verifies that every certificate-based acceptance has
a nonnegative oracle minimum, and exits with status 1 when one does not.
"""

import argparse
import sys
import time

import numpy as np

from ctensor.core import circulant_from_root
from ctensor.psd import brute_force_min, check_psd


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scale", type=float, default=10.0)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--restarts", type=int, default=12)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    agree = 0
    refuted = accepted = inconclusive = 0
    cert_violations = 0
    t0 = time.monotonic()
    for trial in range(args.count):
        n = args.dims[trial % len(args.dims)]
        root = rng.uniform(-args.scale, args.scale, size=(n,) * 3)
        a = circulant_from_root(root)
        verdict = check_psd(a, mode="with_numeric", restarts=args.restarts, seed=trial)
        bf = brute_force_min(a)
        chain_neg = verdict.decision == "not_psd"
        oracle_neg = bf.value < -1e-4
        agree += chain_neg == oracle_neg
        refuted += chain_neg
        accepted += verdict.is_psd
        inconclusive += verdict.decision == "inconclusive"
        if verdict.is_psd and bf.value < -1e-6:
            cert_violations += 1
            print(f"  CERTIFICATE VIOLATION at trial {trial}: oracle {bf.value}")
    elapsed = time.monotonic() - t0
    print(f"trials            {args.count}")
    print(f"agreement         {agree}/{args.count} ({agree / args.count:.1%})")
    print(f"refuted           {refuted}")
    print(f"certified psd     {accepted}")
    print(f"inconclusive      {inconclusive}")
    print(f"cert violations   {cert_violations}")
    print(f"elapsed           {elapsed:.1f}s")
    return 1 if cert_violations else 0


if __name__ == "__main__":
    sys.exit(main())
