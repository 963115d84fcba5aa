#!/usr/bin/env python3
"""The ctensor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload table1|psd_sweep|analyze_ladder \
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The
inputs are generated from the seed (corpus.py) and written to
perfbench/out/.  Each run starts one single-threaded workload process that
runs the closed loop for S seconds and checks every output (worker.py), and
up to nine fresh interpreters that only import ctensor and load the inputs:
two before the workload, up to five while it pauses between rounds and two
after it.  Their median start-to-ready time is setup_s.  With --trace 1 the
workload process wraps the library's public functions and the run reports
per-layer metrics instead of the end-to-end ones.

The full record (samples, per-call times, seed-only outputs, provenance) goes
to perfbench/out/<workload>_seed<N>_trace<T>.json; the last line of standard
output is the summary: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402

# setup processes timed before and after the workload each, and the most
# pauses of the workload for one more: spread over the run, they sample the
# speed of a shared host that changes from one half minute to the next
SETUP_PROBES_AROUND = 2
SETUP_PAUSES = 5
WORKER_TIMEOUT_S = 150
# one thread per process, BLAS included
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def generate(workload: str, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    from ctensor.core import circulant_from_root
    from ctensor.psd import brute_force_min

    oracle_min = lambda r: brute_force_min(circulant_from_root(r)).value
    if workload == "table1":
        return corpus.table1(seed, oracle_min)
    if workload == "psd_sweep":
        return corpus.psd_sweep(seed, oracle_min)
    from ctensor.hypergraph import laplacian, orbit_closure, signless_laplacian

    return corpus.analyze_ladder(seed, (orbit_closure, laplacian, signless_laplacian))


def write_inputs(path: Path, workload: str, seed: int, spec: dict) -> None:
    header = {"workload": workload, "seed": seed, "round": spec["round"],
              "reference_ops": spec["reference_ops"]}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for doc in spec["docs"]:
            fh.write(json.dumps(doc) + "\n")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, importtime=False, stdin=None, stderr=subprocess.PIPE):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "worker.py")] + [str(a) for a in args]
    return subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr,
                            text=True, env=child_env(), cwd=ROOT)


def wait(proc, timeout):
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return out, err


def setup_probe(inputs: Path, importtime=False):
    """Seconds from process start until the worker has imported ctensor and
    loaded the inputs; with importtime, also the -X importtime report."""
    t0 = time.perf_counter()
    proc = spawn([inputs, "setup"], importtime)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = wait(proc, 60)
    if line.strip() != "ready":
        raise SystemExit(f"setup probe did not get ready: {err.strip()[-2000:]}")
    return elapsed, err


def run_workload(inputs: Path, seconds: float, trace: int, setup: list) -> list:
    """Run the workload process and return its output lines; at each of its
    pauses, time one setup process and append it to ``setup``."""
    err_path = inputs.with_suffix(".err")
    with open(err_path, "w+") as err:
        proc = spawn([inputs, "run", seconds, trace, SETUP_PAUSES],
                     stdin=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        lines = []
        try:
            for line in proc.stdout:
                if line.strip() == "pause":
                    setup.append(setup_probe(inputs)[0])
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    lines.append(line.rstrip("\n"))
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        message = err.read().strip()[-2000:]
    err_path.unlink()
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}, limit {WORKER_TIMEOUT_S} s): {message}")
    return lines


def import_times(report: str) -> dict:
    """Cumulative seconds of the top-level ctensor and sympy imports."""
    out = {}
    for line in report.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("ctensor", "sympy"):
            try:
                out[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                pass
    return out


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    loc = {p.stem: sum(1 for _ in open(p)) for p in sorted((SRC / "ctensor").glob("*.py"))}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "loc": dict(loc, total=sum(loc.values())),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(res: dict, setup: list) -> tuple[dict, dict, dict]:
    """The gated metrics, the reported latencies and the sample counts.

    Latency percentiles of these sub-millisecond calls swing with the load
    of the machine's other tenants far beyond any usable bound, so they are
    reported but not gated.  Throughput is the median over the run's rounds
    (identical call lists) of each round's rate.  The gated throughput
    scales each round's rate by the host's speed during that round, taken
    from the reference timings (worker.reference_s): calls per the time the
    host needs for 10^6 reference iterations (1/Mref).  The speed of a
    shared host drifts by up to 2x over minutes, which moves calls per
    second across runs far more than any usable bound.
    """
    recs = res["records"]
    timed = [r for r in recs if r["timed"]]
    busy = sum(r["s"] for r in timed)
    rounds = {}
    for r in timed:
        # a call that fails, however fast, adds its time but no completed call
        ok_s = rounds.setdefault(r["round"], [0, 0.0])
        ok_s[0] += not r["failed"]
        ok_s[1] += r["s"]
    round_rates = [ok / s for ok, s in rounds.values()]
    mref_rates = [rate * mref_s for rate, mref_s in zip(round_rates, res["round_mref_s"])]
    ms = [float("inf") if r["failed"] else r["s"] * 1e3 for r in timed]
    tail_p = tail_percentile(res["round_ops"])
    failed = sum(r["failed"] for r in recs)
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "calls_per_mref": (statistics.median(mref_rates), "1/Mref"),
        "ok_share": (1.0 - failed / len(recs), "ratio"),
    }
    reported = {
        "calls_per_s": (statistics.median(round_rates), "1/s"),
        "call_p50_ms": (percentile(ms, 50), "ms"),
        "call_tail_ms": (percentile(ms, tail_p), "ms"),
        "failed_share": (failed / len(recs), "ratio"),
    }
    samples = {"calls": len(timed), "rounds": len(rounds), "round_rates": round_rates,
               "round_mref_s": res["round_mref_s"],
               "round_calls": res["round_ops"], "tail_percentile": tail_p,
               "setup_probes": len(setup), "busy_s": busy, "wall_s": res["wall_s"],
               "failed_calls": failed, "attempted_calls": len(recs)}
    as_metrics = lambda d: {k: {"value": v, "unit": u} for k, (v, u) in d.items()}
    return as_metrics(gated), as_metrics(reported), samples


def named_metrics(workload: str, gated: dict, reported: dict, res: dict) -> dict:
    """Every end-to-end number under the workload's own name, with units."""
    v = {k: m["value"] for k, m in {**gated, **reported}.items()}
    s = res["summary"]
    if workload == "table1":
        ex6 = [r for r in res["records"] if not r["timed"] and r["call"] == "multi_start"]
        out = {"restarts_per_s": (100 * v["calls_per_s"], "1/s"),
               "example6_restarts_per_s": (100 / ex6[0]["s"], "1/s"),
               "success_rate": (s["success_rate"], "ratio"),
               "call_p50_ms": (v["call_p50_ms"], "ms"), "call_tail_ms": (v["call_tail_ms"], "ms")}
    elif workload == "psd_sweep":
        out = {"decisions_per_s": (v["calls_per_s"], "1/s"),
               "decision_p50_ms": (v["call_p50_ms"], "ms"),
               "decision_tail_ms": (v["call_tail_ms"], "ms"),
               "decided_share": (s["decided_share"], "ratio"),
               "oracle_agreement": (s["oracle_agreement"], "ratio")}
    else:
        out = {"calls_per_s": (v["calls_per_s"], "1/s"), "call_p50_ms": (v["call_p50_ms"], "ms"),
               "call_tail_ms": (v["call_tail_ms"], "ms")}
    out["failed_share"] = (v["failed_share"], "ratio")
    out["setup_s"] = (v["setup_s"], "s")
    out["peak_rss_mb"] = (v["peak_rss_mb"], "MB")
    return {k: {"value": val, "unit": unit} for k, (val, unit) in out.items()}


def budget_error(r) -> bool:
    """The known failure: the budget ValueError of a call that needs the
    dense form of a ladder shape beyond the default materialization budget.
    Any other exception makes the run incorrect."""
    shapes = {f"{m},{n}" for m, n in corpus.BUDGET_SHAPES}
    return (r["error"].startswith("ValueError: dense materialization")
            and r["call"] in corpus.BUDGET_CALLS and r["tag"].rpartition(":")[2] in shapes)


def by_call(records) -> dict:
    """Median milliseconds per (call, family:shape) over the timed calls."""
    groups = {}
    for r in records:
        if r["timed"] and not r["error"]:
            groups.setdefault(f"{r['call']} {r['tag']}", []).append(r["s"] * 1e3)
    return {k: {"p50_ms": statistics.median(v), "n": len(v)} for k, v in sorted(groups.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ctensor" / "__init__.py").is_file():
        print(f"run.py: no ctensor sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    inputs = OUT / f"inputs_{tag}_{os.getpid()}.jsonl"
    t_gen = time.perf_counter()
    write_inputs(inputs, args.workload, args.seed, generate(args.workload, args.seed))
    gen_s = time.perf_counter() - t_gen
    try:
        setup = [setup_probe(inputs)[0] for _ in range(SETUP_PROBES_AROUND)]
        imports = import_times(setup_probe(inputs, importtime=True)[1]) if args.trace else {}
        lines = run_workload(inputs, args.seconds, args.trace, setup)
        setup += [setup_probe(inputs)[0] for _ in range(SETUP_PROBES_AROUND)]
    finally:
        inputs.unlink(missing_ok=True)
    if len(lines) < 2 or lines[0] != "ready":
        raise SystemExit("worker produced no result")
    res = json.loads(lines[-1])

    e2e, reported, samples = end_to_end(res, setup)
    problems = [f"{r['call']} {r['tag']}: {r['problem'] or r['error']}" for r in res["records"]
                if r["problem"] or (r["error"] and not budget_error(r))]
    correct = not problems
    layers = None
    if args.trace:
        layers = dict(res["layers"])
        layers["import.ctensor_s"] = {"value": imports.get("ctensor", 0.0), "unit": "s"}
        layers["import.sympy_s"] = {"value": imports.get("sympy", 0.0), "unit": "s"}
    metrics = layers if args.trace else e2e
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "problems": problems[:20],
        "end_to_end": e2e, "reported": reported, "samples": samples,
        "setup_samples_s": setup, "named_metrics": named_metrics(args.workload, e2e, reported, res),
        "seed_only": res["summary"], "per_layer": layers,
        "by_call": by_call(res["records"]), "input_generation_s": gen_s,
        "provenance": provenance(args.seed),
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"named_metrics": record["named_metrics"], "seed_only": res["summary"],
                      "samples": samples, "problems": problems[:5]}))
    print(json.dumps({"correct": correct, "attempted": samples["attempted_calls"],
                      "failed": samples["failed_calls"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
