"""Run one workload in a fresh process and print what it measured as JSON.

Usage::

    python worker.py --workload NAME --seed N --seconds S \\
        --mode setup|measure|trace --spawned-at T

``T`` is the parent's ``time.perf_counter()`` just before it started this
process, so set-up time counts from process start.  Every mode sets up
(import, input building, one warm-up operation) and reports the set-up
time and peak RSS.  ``measure`` then gates the warm-up output and times
operations with tracing off for S seconds; ``trace`` times S seconds
untraced and S seconds traced, and reports per-layer metrics.  The last
stdout line is one JSON object.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every CLI child
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

#: Bare interpreter starts timed for ``cli.import_s``.
IMPORT_REPEATS = 3
#: Alternating untraced/traced rounds in a traced run.
TRACE_ROUNDS = 3
#: Messages kept per run, so one bad input cannot flood the output.
MAX_MESSAGES = 5


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_ops(workload, seconds: float, tracer, first_op: int) -> dict:
    """Closed loop: operations back to back until S seconds of operation time.

    Each output is gated after its timer stops.  An operation that raises
    or fails the gate counts as failed.
    """
    times: list[float] = []
    ids: list[int] = []
    failed = 0
    messages: list[str] = []
    op = first_op
    while sum(times) < seconds:
        if tracer is not None:
            tracer.op = op
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(op, None)
            else:
                with tracer.span("bench.op"):
                    out = workload.run(op, tracer)
            error = None
        except Exception as exc:  # an operation failure is a result, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        ids.append(op)
        if tracer is not None:
            tracer.merge_pending()
        try:
            fails = [error] if error else workload.check(out)
        except Exception as exc:  # e.g. an unreadable output file
            fails = [f"gate raised {type(exc).__name__}: {exc}"]
        del out
        if fails:
            failed += 1
            messages.extend(fails[: MAX_MESSAGES - len(messages)])
        op += 1
    return {"op_times": times, "op_ids": ids, "failed": failed, "messages": messages}


def block_means(timed: dict, block_ops: int) -> list[float]:
    """Mean operation time of each complete block of ``block_ops`` operations.

    Operations ``b * block_ops`` to ``(b + 1) * block_ops - 1`` form block
    ``b``.  Blocks cut off by the start or end of the timed loop are
    skipped; with no complete block, all operations form one.
    """
    blocks: dict[int, list[float]] = {}
    for op, t in zip(timed["op_ids"], timed["op_times"]):
        blocks.setdefault(op // block_ops, []).append(t)
    complete = [ts for ts in blocks.values() if len(ts) == block_ops]
    return [statistics.fmean(ts) for ts in complete or [timed["op_times"]]]


def traced_run(workload, args) -> dict:
    """S seconds untraced and S seconds traced, alternating over TRACE_ROUNDS rounds.

    Alternating keeps a drift in machine speed from reading as tracing
    overhead.
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    untraced = {"op_times": [], "op_ids": [], "failed": 0, "messages": []}
    traced = {"op_times": [], "op_ids": [], "failed": 0, "messages": []}
    means = {"untraced": [], "traced": []}
    op = 1
    for _ in range(TRACE_ROUNDS):
        for totals, use in ((untraced, None), (traced, tracer)):
            if use is not None:
                tracer.install()
            try:
                got = timed_ops(workload, args.seconds / TRACE_ROUNDS, use, first_op=op)
            finally:
                tracer.uninstall()
            op += len(got["op_times"])
            for key in totals:
                totals[key] += got[key]
            means["untraced" if use is None else "traced"] += block_means(got, workload.block_ops)
    metrics = layer_metrics(tracer.spans, len(traced["op_times"]))
    metrics["trace.overhead"] = (statistics.median(means["traced"])
                                 / statistics.median(means["untraced"]))
    metrics["cli.import_s"] = cli_import_s()
    trace_file = OUT / f"trace-{args.workload}.jsonl"
    tracer.write(str(trace_file))
    return {
        "op_times": untraced["op_times"],
        "block_means": means["untraced"],
        "traced_op_times": traced["op_times"],
        "failed": untraced["failed"] + traced["failed"],
        "messages": (untraced["messages"] + traced["messages"])[:MAX_MESSAGES],
        "per_layer": metrics,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        pass
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache.is_dir():
        levels = []
        for index in cache.glob("index*"):
            try:
                levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
            except (OSError, ValueError):
                continue
        if levels:
            llc = max(levels)[1]
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "llc_size": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("blas"),
        "lapack": blas.get("lapack"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def cli_import_s() -> float:
    """Median wall time of a bare interpreter start plus ``import ybuskit.cli``."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ybuskit.cli"], check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import ybuskit

    if Path(ybuskit.__file__).resolve().parent != SRC / "ybuskit":
        print(f"error: imported ybuskit from {ybuskit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        warm = workload.run(0, None)
        setup_done = time.perf_counter()
        result = {
            "setup_s": setup_done - args.spawned_at,
            "peak_rss_mb": peak_rss_mb(children=args.workload == "cli_pipeline"),
        }
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        result["reference_failures"] = workload.check_reference(warm)[:MAX_MESSAGES]
        if hasattr(workload, "output_bytes"):
            result["output_bytes"] = workload.output_bytes()
        del warm
        if args.mode == "measure":
            result.update(timed_ops(workload, args.seconds, None, first_op=1))
            result["block_means"] = block_means(result, workload.block_ops)
        else:
            result.update(traced_run(workload, args))
        result["inputs"] = workload.inputs()
        result["env"] = environment()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
