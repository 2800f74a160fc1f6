"""Run every workload and print each end-to-end metric by name with its unit.

Usage, from the root of a checkout::

    python3 perfbench/summary.py [--seeds 1,2,3]

Each (workload, seed) is one ``run.py --trace 0`` run in a fresh process,
measuring ``run_seconds`` from ``BENCHMARK.json``.
Per workload and metric it prints the median over the seeds and the
spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, beside the metric's bound.  It also
prints figures from the ``detail`` line of ``run.py``: ``failed_ops_ratio``;
the median of every operation sample, with its spread; the p90 operation
time with its sample count; and ``output_mb`` on ``cli_pipeline``.  Exits 1 if any run was incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]

    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        print(f"{workload} (seeds {args.seeds}, {seconds} s per run)", flush=True)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            print(f"  {m['name']:<18} {statistics.median(values):12.6g} {m['unit']:<6}"
                  f" spread {spread(values):6.3f}  bound {m['bound']}")
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        print(f"  {'failed_ops_ratio':<18} {failed / attempted:12.6g} ratio  ({failed} of {attempted})")
        values = [d["untraced_op_p50_s"] for _, d in runs]
        print(f"  {'untraced_op_p50_s':<18} {statistics.median(values):12.6g} s     "
              f" spread {spread(values):6.3f}  (median of every sample, not of blocks)")
        p90 = [d["untraced_op_p90_s"] for _, d in runs]
        samples = [d["untraced_op_samples"] for _, d in runs]
        print(f"  {'op_p90_s':<18} {statistics.median(p90):12.6g} s      "
              f"({min(samples)}..{max(samples)} samples per run)")
        if "output_mb" in runs[0][1]:
            out = [d["output_mb"] for _, d in runs]
            print(f"  {'output_mb':<18} {statistics.median(out):12.6g} MB")
        all_correct &= all(r["correct"] for r, _ in runs)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
