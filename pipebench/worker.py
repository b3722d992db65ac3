"""One workload in one single-threaded process (started by run.py).

Runs whole rounds of the workload until their summed wall time is within
half a round of ``--seconds``, checks the first round's outputs and that
every later round gave the same outputs, and prints the result as one JSON
line.

Without tracing, a speed probe runs every 0.2 s; ``wall_s`` is the median
over rounds of the round's time, probes left out, scaled to the reference
speed by the probes of that round (see ``speed.py``).  ``setup_s`` is scaled
in the same way, by three probes made right after set-up.

With ``--trace 1`` nothing is probed or scaled, and the rounds alternate
untraced and traced.  The traced rounds give the per-layer metrics, the
median traced round minus the median warm untraced round gives
``trace_overhead_s``, and the spans go to a trace file.
"""

from __future__ import annotations

import time

# set-up is timed from here: before numpy, hplab and the workload's inputs
SETUP_START = time.perf_counter()

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys

import numpy as np


def same(a, b) -> bool:
    """Exact equality of two round outputs."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from spans import CallFailed, Recorder
    from speed import PROBE_REF_S, Prober, probe
    from workloads import WORKLOADS

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}

    wl = WORKLOADS[args.workload](args.seed)
    setup_raw_s = time.perf_counter() - SETUP_START
    setup_probes = [probe() for _ in range(3)]
    setup_s = setup_raw_s * PROBE_REF_S / statistics.median(setup_probes)

    rec = Recorder()
    prober = Prober()
    if not args.trace:
        prober.start()
    rounds = []  # (index, traced, wall seconds, round span id)
    scaled = []  # untraced round times at the reference speed
    first = None
    identical = True
    errors = []
    measured = 0.0
    while True:
        i = len(rounds)
        traced = bool(args.trace) and i % 2 == 1
        rec.tracing = traced
        sid = rec.open("round", index=i)
        t = time.perf_counter()
        try:
            out = wl.run(rec)
        except CallFailed as exc:
            out = None
            errors.append(str(exc))
        t_end = time.perf_counter()
        elapsed = t_end - t
        probes = prober.between(t, t_end)
        wall = elapsed - sum(probes)
        rec.close(sid)
        measured += elapsed
        rounds.append((i, traced, wall, sid))
        if probes:
            scaled.append(wall * PROBE_REF_S / statistics.mean(probes))
        if i == 0:
            first = out
        elif out is not None and not same(out, first):
            identical = False
        # stop within half a round of --seconds; a traced run also needs a
        # warm untraced round (not the first) to compare with
        if measured + elapsed / 2 >= args.seconds and (not args.trace or len(rounds) >= 3):
            break
    prober.stop()
    rec.tracing = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, measured_errors = ([], {}) if first is None else wl.check(first)
    correct = first is not None and identical and all(c.ok for c in checks)

    untraced = [w for _, traced, w, _ in rounds if not traced]
    traced_walls = [w for _, traced, w, _ in rounds if traced]
    if args.trace:
        per_round = [rec.metric_seconds(sid) for _, traced, _, sid in rounds if traced]
        names = {k for r in per_round for k in r}
        seconds = {k: statistics.median(r.get(k, 0.0) for r in per_round) for k in names}
        # a layer the workload does not call reads 0
        metrics = {m["name"]: 0.0 for m in manifest["per_layer"]}
        metrics.update(seconds)
        if first is not None:
            metrics.update(measured_errors)
            metrics.update(wl.layer_metrics(first, seconds))
        warm = [w for i, traced, w, _ in rounds if not traced and i > 0]
        metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(warm)
    else:
        metrics = {"wall_s": statistics.median(scaled), "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}

    result = {
        "correct": bool(correct),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(here, "results"), exist_ok=True)
    with open(os.path.join(here, "results", tag + ".json"), "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "rounds": {"untraced": untraced, "traced": traced_walls},
                   "setup_raw_s": setup_raw_s, "setup_probes": setup_probes,
                   "probes": prober.times,
                   "identical_rounds": identical, "errors": errors,
                   "checks": [dataclasses.asdict(c) for c in checks]}, fh, indent=1)
        fh.write("\n")
    if args.trace:
        os.makedirs(os.path.join(here, "traces"), exist_ok=True)
        rec.write(os.path.join(here, "traces", tag + ".json"),
                  {"workload": args.workload, "seed": args.seed})
    for c in checks:
        if not c.ok:
            print(f"check failed: {c.name}: {c.value!r} against {c.limit!r}", file=sys.stderr)
    for e in errors:
        print(f"call failed: {e}", file=sys.stderr)
    if not identical:
        print("rounds gave different outputs", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
