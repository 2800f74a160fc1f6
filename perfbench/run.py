"""ybuskit benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics, units and bounds are listed in ``BENCHMARK.json``;
``perfbench/NOTES.md`` explains them.  Every workload runs in fresh
worker processes (``worker.py``), which import ybuskit from ``src/`` of
this checkout; nothing is installed.

``--trace 0`` starts the worker ``SETUP_REPEATS`` times.  Every start
times set-up (process start, ``import ybuskit``, input building, one
warm-up operation) and records peak RSS; the last one then gates its
warm-up output and runs timed operations for S seconds.  ``--trace 1``
starts one worker that also runs S seconds traced and reports per-layer
metrics.  Lines before the last describe the run (environment, input
digests, details); the last line is the JSON result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is timed this many times per untraced run; the median is reported.
SETUP_REPEATS = 3
#: Every worker must finish within this many seconds of the run's start.
RUN_BUDGET_S = 170


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker in its own process group and return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: {mode} worker for {args.workload} ran out of time")
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr)
        raise SystemExit(f"error: {mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "ybuskit" / "__init__.py").is_file():
        print(f"error: no ybuskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    deadline = time.perf_counter() + RUN_BUDGET_S

    if args.trace:
        run = spawn("trace", args, deadline)
        values = run["per_layer"]
        wanted = spec["per_layer"]
        attempted = len(run["op_times"]) + len(run["traced_op_times"])
    else:
        setups = [spawn("setup", args, deadline) for _ in range(SETUP_REPEATS - 1)]
        run = spawn("measure", args, deadline)
        setups.append(run)
        times = run["op_times"]
        attempted = len(times)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "op_p50_s": statistics.median(run["block_means"]),
            "ops_per_s": (attempted - run["failed"]) / sum(times),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setups),
        }
        wanted = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        print(f"error: measured {sorted(values)}, BENCHMARK.json lists "
              f"{sorted(m['name'] for m in wanted)}", file=sys.stderr)
        return 1

    times = run["op_times"]
    detail = {
        "workload": args.workload,
        "ops": attempted,
        "failed_ops_ratio": run["failed"] / attempted,
        "reference_failures": run["reference_failures"],
        "messages": run["messages"],
        "untraced_op_samples": len(times),
        "untraced_op_p50_s": statistics.median(times),
        "untraced_op_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 2 else times[0],
    }
    if "output_bytes" in run:
        detail["output_mb"] = run["output_bytes"] / 1e6
    if args.trace:
        detail["trace_file"] = run["trace_file"]
    else:
        detail["setup_s_samples"] = [s["setup_s"] for s in setups]
        detail["peak_rss_mb_samples"] = [s["peak_rss_mb"] for s in setups]
    print("env " + json.dumps(run["env"]))
    print("inputs " + json.dumps(run["inputs"]))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not run["reference_failures"] and run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
