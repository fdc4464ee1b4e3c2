#!/usr/bin/env python3
"""Per-layer self time from the benchmark's traced runs (standard library only).

    python3 bench_e2e/trace_summary.py [TRACE.json ...]

Without arguments it reads every trace under .bench_build/state/traces/.
A traced run (`run.py ... --trace 1`) writes one Chrome trace-event file per
workload and seed. For each workload this prints the self time of every
layer per operation and per set-up: a span's duration minus the part of it
that its child spans cover, summed over the layer's spans. The layer is the
span name up to the first dot (io.read -> io); the benchmark's own "op",
"setup" and "serve.pass" bookkeeping is the harness row. serve.request spans
overlap (requests in flight), so the serve row sums request latencies rather
than wall time.

It also prints the tracing overhead: the traced run's median operation time
minus the untraced op_s of the same workload and seed, when that result is
under .bench_build/state/results/.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(os.path.dirname(HERE), ".bench_build", "state")
HARNESS = {"op", "setup", "serve.pass"}


def layer_of(name):
    return "harness" if name in HARNESS else name.split(".", 1)[0]


def union_length(intervals):
    total, end = 0.0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(events):
    """Maps (is_setup, layer) to summed self time in ms."""
    children = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            children.setdefault(parent, []).append(e)
    out = {}
    for e in events:
        start, stop = e["ts"], e["ts"] + e["dur"]
        covered = union_length(
            (max(c["ts"], start), min(c["ts"] + c["dur"], stop))
            for c in children.get(e["args"]["id"], [])
            if c["ts"] < stop and c["ts"] + c["dur"] > start
        )
        key = (e["args"]["op"] < 0, layer_of(e["name"]))
        out[key] = out.get(key, 0.0) + (e["dur"] - covered) / 1e3
    return out


def untraced_op_s(workload, seed):
    name = "%s-seed%d-trace0.json" % (workload, seed)
    path = os.path.join(STATE, "results", name)
    try:
        with open(path) as f:
            return json.load(f)["metrics"]["op_s"]["value"]
    except (OSError, ValueError, KeyError):
        return None


def summarize(path):
    with open(path) as f:
        doc = json.load(f)
    meta = doc["metadata"]
    events = doc["traceEvents"]
    ops = {e["args"]["op"] for e in events if e["args"]["op"] >= 0}
    setups = {e["args"]["op"] for e in events if e["args"]["op"] < 0}
    times = self_times(events)
    print("%s seed %d: %d operations, %d set-ups (%s)" % (
        meta["workload"], meta["seed"], len(ops), len(setups),
        os.path.basename(path)))
    print("  %-10s %14s %14s" % ("layer", "ms/operation", "ms/set-up"))
    for layer in sorted({layer for _, layer in times}):
        per_op = times.get((False, layer), 0.0) / max(len(ops), 1)
        per_setup = times.get((True, layer), 0.0) / max(len(setups), 1)
        print("  %-10s %14.3f %14.3f" % (layer, per_op, per_setup))
    traced = statistics.median(meta["op_seconds"]) if meta["op_seconds"] else None
    untraced = untraced_op_s(meta["workload"], meta["seed"])
    if traced is not None and untraced is not None:
        print("  tracing overhead: %.4f s per operation (traced %.4f s, "
              "untraced %.4f s)" % (traced - untraced, traced, untraced))
    else:
        print("  tracing overhead: no untraced run of this seed to compare")
    print()


def main():
    paths = sys.argv[1:] or sorted(
        glob.glob(os.path.join(STATE, "traces", "*.json")))
    if not paths:
        print("no trace files; run bench_e2e/run.py with --trace 1 first",
              file=sys.stderr)
        return 1
    for path in paths:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
