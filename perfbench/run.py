"""Benchmark of functorcalc's chain-rule, product and excisive-oracle workloads.

Run from the root of a checkout (Python 3.10+, standard library only):

    python3 perfbench/run.py --workload chainrule-zero --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload run starts fresh interpreters (``worker.py``), one thread
each, one after another: eight that only set up, then one that sets up
and measures.  ``setup_s`` is the median, over the nine, of the time from
starting the interpreter to its first timed instance (import, building the
seeded inputs, filling the ``lru_cache`` tables of ``partitions`` and
``characters``), read on this process's clock.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  The
timings are in units of a reference kernel (``worker.reference_kernel``, a
fixed loop of ``Fraction`` products into a dict, standard library only),
timed right before and right after every instance: an instance's cost is
its wall time over the mean of those two.  On a shared 2-core x86 VM the
host's speed changed by up to 1.9x from one second to the next, which moved
raw times by 30-50% between runs; the cost in reference units moved by 2-8%.
Reported are verified instances per reference time (``instances_per_ref``),
the median and 90th percentile of one verified instance's cost
(``instance_ref_p50``/``_p90``), set-up time in seconds and the peak RSS
of the measuring process.  The raw wall-clock figures (instances per
second, instance ms at the median and 90th percentile) are printed and
recorded alongside, but left out of the result line.  ``--trace 1`` is a separate run
that reports the per-layer metrics: per layer call, calls, self time per
pass and share of the traced instance time, plus the oracle's exact
per-pass counts, the instance spans' own time (``bench.self_s``) and the
tracing overhead.  Each run also writes its metrics with the Python
version, ``nproc`` and seed, and a traced run its spans, to
``perfbench/out/``.

Correctness: every instance compares two routes exactly, and an instance
fails when they disagree, when it raises, when a character fails the Schur
check, or when the oracle finds no stable window or exceeds its budget.
The canonical JSON of every result of a pass is hashed; all passes must
give the same digest, and where ``perfbench/digests.json`` records one for
the workload and seed the run must reproduce it (route agreement alone
misses a change that shifts both routes together).  The cell lists are
built once in this process and once in every worker, and must match.

Exit status: 0 when every instance passed and the digest matched, 1 when
the run finished but a check failed (the result line still printed), 2 when
the benchmark could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_RUNS = 9

END_TO_END_UNITS = {
    "instances_per_ref": "1/ref",
    "instance_ref_p50": "ref",
    "instance_ref_p90": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Raw wall-clock figures: printed and recorded, not in the result line (see above).
WALL_CLOCK_UNITS = {"instances_per_s": "1/s", "instance_ms_p50": "ms", "instance_ms_p90": "ms"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def _spawn(workload: str, seed: int, seconds: float, trace: int, role: str) -> tuple[float, dict, dict | None]:
    """Run one worker; returns (seconds to ready, ready record, result or None)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--role", role, "--out", OUT_DIR]
    # the worker stops starting passes at 2 * seconds; one more pass may
    # still be running then, so allow for a program several times slower
    timeout = max(170.0, 6 * seconds)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(cmd, timeout)
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout - ready_s)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker for {workload} ran past {timeout:g} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError(f"{role} worker for {workload} exited with status {proc.returncode}")
    ready = json.loads(line)
    result = json.loads(rest.strip().splitlines()[-1]) if role == "measure" else None
    return ready_s, ready, result


def _load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _digest_key(workload: str, seed: int) -> str:
    return "*" if workload == "oracle" else str(seed)  # oracle inputs ignore the seed


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import workloads

    expected_fp = workloads.fingerprint(workloads.build_cells(workload, seed))

    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            ready_s, ready, _ = _spawn(workload, seed, seconds, trace, "setup")
            setups.append(ready_s)
            if ready["fingerprint"] != expected_fp:
                raise BenchError(f"{workload}: a worker built different inputs")
    ready_s, ready, res = _spawn(workload, seed, seconds, trace, "measure")
    setups.append(ready_s)
    if ready["fingerprint"] != expected_fp:
        raise BenchError(f"{workload}: a worker built different inputs")

    notes = []
    digest_ok = res["digest"] is not None
    if not digest_ok:
        notes.append("passes over the same inputs gave different digests")
    recorded_all = _load_digests()
    key = _digest_key(workload, seed)
    recorded = recorded_all.get(workload, {}).get(key)
    if recorded is None:
        notes.append(f"digest {res['digest']} (none recorded for seed {key})")
    elif recorded != res["digest"]:
        digest_ok = False
        notes.append(f"digest {res['digest']} differs from the recorded {recorded}")
    else:
        notes.append(f"digest {res['digest']} matches the recorded one")
    correct = digest_ok and res["failed"] == 0

    if not trace:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
                   if name != "setup_s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        wall_clock = {name: {"value": res[name], "unit": unit} for name, unit in WALL_CLOCK_UNITS.items()}
        samples = {"setup_s": len(setups), "peak_rss_mb": 1}
        default_n = res["samples"]
    else:
        metrics = {}
        for name, layer in res["layers"].items():
            metrics[f"{name}.calls"] = {"value": layer["calls"], "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": layer["self_s"], "unit": "s"}
            metrics[f"{name}.share"] = {"value": layer["share"], "unit": "ratio"}
        for name in workloads.COUNTS:
            metrics[name] = {"value": res["counts"].get(name, 0), "unit": "count"}
        metrics["bench.self_s"] = {"value": res["bench_self_s"], "unit": "s"}
        metrics["trace_overhead_frac"] = {"value": res["trace_overhead_frac"], "unit": "ratio"}
        wall_clock = {}
        samples = {}
        default_n = res["passes"] // 2
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(record_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "python": platform.python_version(), "nproc": os.cpu_count(), "digest": res["digest"],
                   "passes": res["passes"], "correct": correct, "attempted": res["attempted"],
                   "failed": res["failed"], "metrics": metrics, "wall_clock": wall_clock}, fh, indent=1)
    for name, m in metrics.items():
        print(f"  {workload:15s} {name:38s} {m['value']:14.6g} {m['unit']:6s} (n={samples.get(name, default_n)})")
    for name, m in wall_clock.items():
        print(f"  {workload:15s} {name:38s} {m['value']:14.6g} {m['unit']:6s} (n={default_n}, wall clock)")
    for note in notes:
        print(f"  {workload:15s} {note}")
    if res["failed"]:
        print(f"  {workload:15s} {res['failed']} of {res['attempted']} instances FAILED")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "functorcalc", "__init__.py")):
        print(f"perfbench: no functorcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [w for w in names if w not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    print(f"perfbench: python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, "
          f"{args.seconds:g} s per run, trace {args.trace}")
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
