"""One workload run in a fresh interpreter: set up, signal, measure, report.

Started by ``run.py``; not meant to be run by hand.  It prints exactly two
JSON lines on standard output: ``{"ready": ...}`` as soon as set-up is done
(import, inputs built, partition and character caches filled), so the
parent can time interpreter start to first instance on its own clock, and
then, unless ``--role setup``, the measurement.

The loop is closed and single-threaded: one caller, and each instance
starts only after the previous one has been checked.  A pass runs every
instance of the pool once, with a run of ``reference_kernel`` before each
instance and after the last, so every instance is timed next to the
host's current speed.  The first pass fixes the number of passes,
``round(seconds / first pass)`` but at least 100 instances, so a run lasts
about ``--seconds`` and every instance is timed equally often; no pass
starts after ``2 * seconds``, so a much slower program still reports.
With ``--trace 1`` untraced and traced passes alternate over the same
pool: the traced passes give the per-layer spans and the untraced ones the
base of the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_SAMPLES = 100


def _import_program():
    sys.path.insert(0, SRC)
    import functorcalc

    where = os.path.dirname(os.path.abspath(functorcalc.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"functorcalc imported from {where}, not from this checkout's src/")


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """In-memory spans: (name, start, end, parent, instance id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.instance = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, perf_counter(), "instance", self.instance))


def reference_kernel() -> Fraction:
    """A fixed stdlib workload shaped like the program's inner loops
    (``Fraction`` products summed into a dict).  Its time, taken next to
    every instance, is how fast this host runs Python at that moment."""
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, Fraction(0)) + Fraction(1, i)
    return acc


def _timed_ref() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def _run_pass(workloads, pool, call, tracer, pass_no, counts):
    """One pass over the pool; returns (instance seconds, instance cost in
    reference-kernel times, failures, digest)."""
    times, refs, failures = [], [], []
    digest = hashlib.sha256()
    for i, inst in enumerate(pool):
        refs.append(_timed_ref())
        if tracer is not None:
            tracer.instance = pass_no * len(pool) + i
        start = perf_counter()
        try:
            ok, result, inst_counts = workloads.run(inst, call)
        except Exception as exc:  # an instance that raises is a failed instance
            ok, result, inst_counts = False, None, {}
            print(f"instance {i} raised {exc!r}", file=sys.stderr)
        end = perf_counter()
        times.append(end - start)
        if tracer is not None:
            tracer.spans.append(("instance", start, end, None, tracer.instance))
        if not ok:
            failures.append(i)
        if counts is not None:
            for key, value in inst_counts.items():
                counts[key] = counts.get(key, 0) + value
        doc = workloads.result_doc(inst, result)
        digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
    refs.append(_timed_ref())
    # each instance against the mean of the reference runs just before and after it
    costs = [t / ((before + after) / 2) for t, before, after in zip(times, refs, refs[1:])]
    return times, costs, failures, digest.hexdigest()


def _self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the time its child spans cover."""
    child_time: dict = {}
    for name, start, end, parent, inst in spans:
        if parent is not None:
            child_time[inst] = child_time.get(inst, 0.0) + (end - start)
    out: dict[str, float] = {}
    for name, start, end, parent, inst in spans:
        own = end - start - (child_time.get(inst, 0.0) if parent is None else 0.0)
        out[name] = out.get(name, 0.0) + own
    return out


def measure(workloads, pool, seconds: float, trace: bool, out_dir: str, tag: str) -> dict:
    counts: dict = {}
    tracer = Tracer() if trace else None
    busy = {False: 0.0, True: 0.0}  # instance time of untraced and traced passes
    busy_ref = {False: 0.0, True: 0.0}  # the same in reference-kernel times
    per_pass, per_pass_costs, digests, failures = [], [], set(), 0
    pass_no, passes = 0, 1
    deadline = perf_counter() + 2 * seconds
    while pass_no < passes and (pass_no < 2 or perf_counter() < deadline):
        traced = trace and pass_no % 2 == 1
        times, costs, pass_failures, digest = _run_pass(
            workloads, pool, tracer.call if traced else _direct, tracer if traced else None,
            pass_no, counts if pass_no == 0 else None)
        busy[traced] += sum(times)
        busy_ref[traced] += sum(costs)
        if not traced:
            per_pass.append(times)
            per_pass_costs.append(costs)
        digests.add(digest)
        failures += len(pass_failures)
        if pass_no == 0:
            # whole passes only, so every instance is timed equally often, and
            # at least MIN_SAMPLES, so that ten lie beyond the 90th percentile
            passes = max(round(seconds / sum(times)), -(-MIN_SAMPLES // len(pool)))
            if trace:
                passes = max(2, passes + passes % 2)
        pass_no += 1
    out = {
        "attempted": pass_no * len(pool),
        "failed": failures,
        "digest": digests.pop() if len(digests) == 1 else None,
        "passes": pass_no,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
    }
    if not trace:
        samples = [t for times in per_pass for t in times]
        costs = [c for pass_costs in per_pass_costs for c in pass_costs]
        medians = [statistics.median(cs) for cs in zip(*per_pass_costs)]
        passed = len(pool) * (1 - failures / out["attempted"])
        out["samples"] = len(costs)
        out["instances_per_ref"] = passed / sum(medians)
        out["instance_ref_p50"] = statistics.median(costs)
        out["instance_ref_p90"] = statistics.quantiles(costs, n=10)[8]
        out["instances_per_s"] = passed / sum(statistics.median(ts) for ts in zip(*per_pass))
        out["instance_ms_p50"] = statistics.median(samples) * 1000.0
        out["instance_ms_p90"] = statistics.quantiles(samples, n=10)[8] * 1000.0
        return out
    traced_passes = pass_no // 2
    self_s = _self_times(tracer.spans)
    calls: dict = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    out["layers"] = {
        name: {"calls": calls.get(name, 0) / traced_passes,
               "self_s": self_s.get(name, 0.0) / traced_passes,
               "share": self_s.get(name, 0.0) / busy[True]}
        for name in workloads.CALLS
    }
    out["bench_self_s"] = self_s.get("instance", 0.0) / traced_passes
    out["trace_overhead_frac"] = (busy_ref[True] / traced_passes) / (busy_ref[False] / (pass_no - traced_passes)) - 1.0
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{tag}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "instance"], "spans": tracer.spans}, fh)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    pool = workloads.build(args.workload, args.seed)
    workloads.warm(args.workload)
    print(json.dumps({"ready": True, "fingerprint": workloads.fingerprint(pool)}), flush=True)
    if args.role == "setup":
        return 0
    result = measure(workloads, pool, args.seconds, bool(args.trace), args.out,
                     f"{args.workload}-seed{args.seed}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
