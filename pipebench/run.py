#!/usr/bin/env python3
"""Pipeline benchmark for hplab: time to a verified result, per workload.

    python3 pipebench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload runs in its own
single-threaded Python process (pipebench/worker.py) against ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  With ``--workload
all`` each workload's object is printed on its own line first, and the last
line sums them, with metric names prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    workloads = tuple(w["name"] for w in manifest["workloads"])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=workloads + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                   help="length of the measured run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hplab", "__init__.py")):
        print("run from the root of an hplab checkout: src/hplab is missing", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for n, r in results.items():
        print(f"{n}: {json.dumps(r)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
