"""Run one vargram benchmark workload and print its metrics as JSON.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; vargram is imported from its src/.
The run measures set-up in fresh interpreters, then repeats identical
rounds of the workload for about S seconds (always at least one round),
checks every round's outputs against computations made apart from the
program, and prints one JSON line last:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the wrappers of spans.py are installed and the per-layer
metrics are printed instead, and the spans are written to
.bench_runs/traces/.  Times of the timed part are read at a fixed host
speed (speed.py).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, work_dir: Path) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters, each read
    at reference speed through the reference time measured right after it."""
    from speed import REFERENCE_S

    plan = work_dir / "setup_plan.json"
    plan.write_text(json.dumps(workload.probe_plan()), encoding="utf-8")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(plan)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"] * REFERENCE_S / probe["reference_s"])
    return statistics.median(times)


def same(a, b) -> bool:
    """Exact equality of two collected outputs (nested containers, arrays)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def import_program():
    sys.path.insert(0, str(SRC))
    import vargram

    if Path(vargram.__file__).resolve().parent != (SRC / "vargram").resolve():
        raise RuntimeError(f"imported vargram from {vargram.__file__}, not from {SRC}")


def run(args, work_dir: Path) -> dict:
    import spans
    from speed import HostSpeed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    setup_s = measure_setup(workload, work_dir)

    import_program()
    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        spans.install(tracer)
    workload.setup()
    if tracer is None:
        workload.time_calls()

    # whole rounds only: another starts while one more median round fits.
    # Rounds repeat one deterministic computation, so an output equal to an
    # earlier one is only counted, which keeps memory flat across rounds.
    rounds, round_calls, distinct = [], [], []
    host = HostSpeed(None if tracer is None else tracer.exclude)
    host.start()
    try:
        while True:
            start = spans.clock()
            result = workload.run_round()
            rounds.append((start, spans.clock()))
            if workload.calls is not None:
                round_calls.append(list(workload.calls))
                workload.calls.clear()
            output = workload.collect(result)
            match = next((entry for entry in distinct if same(entry[0], output)), None)
            if match is None:
                distinct.append([output, 1])
            else:
                match[1] += 1
            del output, result, match
            wall = [end - begin for begin, end in rounds]
            if sum(wall) + statistics.median(wall) > args.seconds:
                break
    finally:
        host.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        workload.untime_calls()
    else:
        tracer.uninstall()

    workload.prepare_checks(distinct[0][0])
    failed, rejected = 0, False
    for output, count in distinct:
        r_raised, r_rejected = workload.failed(output)
        failed += count * len(r_raised | r_rejected)
        rejected = rejected or bool(r_rejected)

    run_s = statistics.median(host.normalized(*r) for r in rounds)
    if tracer is None:
        latencies = [latency for calls in round_calls
                     for latency in workload.call_groups([host.normalized(*c) for c in calls])]
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "call_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
        }
    else:
        wall = sum(end - begin for begin, end in rounds)
        layer = tracer.metrics(len(rounds), sum(host.normalized(*r) for r in rounds) / wall)
        layer["trace.run_s"] = run_s
        misses = sum(count * workload.estimate_misses(out) for out, count in distinct) / len(rounds)
        layer["energy.estimate_misses"] = int(misses) if misses.is_integer() else misses
        metrics = {name: {"value": value, "unit": spans.UNITS[name]}
                   for name, value in layer.items()}
        traces = RUNS / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{tracer.run_id}.jsonl")

    print(f"{args.workload}: {len(rounds)} round(s) of "
          f"{', '.join(f'{end - begin:.3f}' for begin, end in rounds)} s wall; "
          f"host {host.slowdown():.2f}x slower than the reference speed", file=sys.stderr)
    return {"correct": not rejected,
            "attempted": workload.ops_per_round * len(rounds),
            "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vargram" / "__init__.py").is_file():
        print(f"bench: no vargram sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = RUNS / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
