"""Benchmark driver for the delaylq CLI.

Usage (from the repository root):

    python3 bench/run.py --workload solve-full --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

One operation is one fresh Python process (``bench/child.py``) running one
CLI command, because that is what a CLI user pays for: interpreter start,
``import delaylq`` and the command.  Operations run one at a time in a
closed loop until ``--seconds`` would be exceeded.  All inputs are drawn
from ``--seed`` before the first operation.

``--trace 0`` reports the end-to-end metrics.  There every operation is
flanked by the same command run by a frozen copy of the solver
(``bench/baseline``), and times are reported as the frozen copy's time on
the defining machine times the median ratio of each operation to its
flanks, so that the host's drift in speed cancels.  ``--trace 1`` cycles
through untraced operations, span-traced ones and span-traced ones that
also run ``tracemalloc`` over the Riccati sweep.  It reports the per-layer
metrics of the span-traced operations, the allocation peak of the others,
and the operation time of each kind, so the tracing overhead shows.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

#: An operation whose estimated Riccati storage exceeds this share of
#: MemAvailable is refused.  Peak RSS measured about twice the estimate
#: (714 MB against 324 MB at N = 240, n = 1), so 0.4 leaves headroom.
MEMORY_SHARE = 0.4
OP_TIMEOUT_S = 150
_MB = 1024.0 * 1024.0

#: Each measured operation is flanked by the same command run by a frozen
#: copy of the solver as it stood when the benchmark was defined
#: (``bench/baseline``).  On a shared host the speed of the same work
#: drifts by tens of percent over minutes; the flanks see the same drift,
#: so the ratio to them does not.  ``setup_s`` and ``op_s`` are that ratio
#: times the frozen copy's own median time on the machine where the benchmark
#: was defined (2-vCPU VM, OpenBLAS 0.3.31, numpy 2.4.6, Python 3.11).
BASELINE = os.path.join(HERE, "baseline")
BASELINE_SETUP_S = 0.40
BASELINE_OP_S = {"solve-full": 2.50, "simulate-full": 1.80,
                 "verify-input-delay": 3.08, "solve-planar": 1.75}


def unit_of(name: str) -> str:
    if name.endswith("_calls") or name in ("simulate.path_steps", "trace.spans"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("share", "_ratio", "_frac")):
        return "ratio"
    return "s"


def _meminfo(key: str) -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(key)


def env_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_version": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": _meminfo("MemTotal") / _MB,
    }


def child_env(src: str = SRC) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


#: Operation kinds of a traced run, in the order they cycle.
TRACE_CYCLE = (None, "spans", "alloc")


def run_op(workload: str, op, traced, run_dir: str, ref: dict,
           src: str = SRC) -> dict:
    """Launch one operation, wait for it, check its outputs.

    With ``src=BASELINE`` the frozen copy runs the command; only its exit
    code is checked, since its outputs are not the program's.
    """
    out_dir = os.path.join(run_dir, "out")
    result_path = os.path.join(run_dir, "op.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = ([sys.executable, CHILD, "--result", result_path]
           + (["--trace", traced] if traced else [])
           + ["--", *op.argv, "--out", out_dir])
    record = {"argv": list(op.argv), "traced": traced}
    try:
        proc = subprocess.run(cmd, env=child_env(src), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["failures"] = [f"timed out after {OP_TIMEOUT_S} s"]
        return record
    if os.path.exists(result_path):
        with open(result_path) as fh:
            record.update(json.load(fh))
    if proc.returncode != 0 or "op_s" not in record:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        record["failures"] = [f"exit code {proc.returncode}: {tail[0]}"]
    elif src == BASELINE:
        record["failures"] = []
    else:
        record["failures"] = workloads.check(workload, op, out_dir, ref)
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> tuple:
    """Run one workload; returns (result line, operation records)."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)[scale][workload]
    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ops = workloads.make_ops(workload, scale, seed,
                             os.path.join(run_dir, "inputs"))

    records: list = []
    walls: list = []
    before = None  # the frozen copy's operation before the next one
    min_ops = len(TRACE_CYCLE) if trace else 1
    start = time.perf_counter()
    while len(records) < min_ops or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        op = ops[len(records) % len(ops)]
        estimate, available = workloads.riccati_bytes(op), _meminfo("MemAvailable")
        if estimate > MEMORY_SHARE * available:
            print(f"memory guard: refused {workload} operation: estimated "
                  f"Riccati storage {estimate / _MB:.0f} MB exceeds "
                  f"{MEMORY_SHARE:.0%} of MemAvailable {available / _MB:.0f} MB",
                  file=sys.stderr)
            records.append({"argv": list(op.argv), "failures": ["refused"]})
            break
        t0 = time.perf_counter()
        if trace:
            kind = TRACE_CYCLE[len(records) % len(TRACE_CYCLE)]
            record = run_op(workload, op, kind, run_dir, ref)
        else:
            flanks = []
            if before is None:
                before = run_op(workload, op, None, run_dir, ref, BASELINE)
                flanks.append(before)
            record = run_op(workload, op, None, run_dir, ref)
            after = run_op(workload, op, None, run_dir, ref, BASELINE)
            flanks.append(after)
            record["baseline"] = [before, after]
            record["failures"] = record["failures"] + [
                "frozen copy: " + failure
                for flank in flanks for failure in flank["failures"]]
            before = after
        walls.append(time.perf_counter() - t0)
        records.append(record)
        for failure in record["failures"]:
            print(f"{workload} op {len(records) - 1} failed: {failure}",
                  file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)

    done = [r for r in records if "op_s" in r
            and (trace or all("op_s" in b for b in r["baseline"]))]
    failed = sum(1 for r in records if r["failures"])
    kinds = {r["traced"] for r in done}
    if not done or (trace and kinds != set(TRACE_CYCLE)):
        raise SystemExit(f"{workload}: too few operations completed")
    if trace:
        metrics = _layer_metrics(done)
    else:
        metrics = {
            "setup_s": BASELINE_SETUP_S * _median_ratio(done, "setup_s"),
            "op_s": BASELINE_OP_S[workload] * _median_ratio(done, "op_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "ok_frac": 1.0 - failed / len(records),
        }
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, records


def _median_ratio(done: list, key: str) -> float:
    """Median over operations of their time over the frozen copy's mean
    time in the operations just before and just after."""
    return statistics.median(
        r[key] / statistics.fmean(b[key] for b in r["baseline"])
        for r in done)


def _layer_metrics(done: list) -> dict:
    by_kind = {kind: [r for r in done if r["traced"] == kind]
               for kind in TRACE_CYCLE}
    spans = by_kind["spans"]
    metrics = {name: statistics.median(r["layers"][name] for r in spans)
               for name in spans[0]["layers"]}
    metrics["riccati.peak_alloc_mb"] = statistics.median(
        r["layers"]["riccati.peak_alloc_mb"] for r in by_kind["alloc"])
    for kind, name in ((None, "untraced_op_s"), ("spans", "op_s"),
                       ("alloc", "alloc_op_s")):
        metrics["trace." + name] = statistics.median(
            r["op_s"] for r in by_kind[kind])
    metrics["trace.overhead_frac"] = (metrics["trace.op_s"]
                                      / metrics["trace.untraced_op_s"] - 1.0)
    return metrics


def tail_note(records: list) -> str:
    """Highest op_s percentile with at least ten operations beyond it."""
    times = sorted(r["op_s"] for r in records if "op_s" in r)
    for q in (99, 95, 90, 75):
        beyond = len(times) - math.ceil(q / 100 * len(times))
        if beyond >= 10:
            return f"p{q} {times[-beyond - 1]:.4f} s ({beyond} beyond)"
    return "no percentile has ten operations beyond it"


def as_measured(records: list) -> str:
    """Median wall times of the program and of the frozen copy."""
    done = [r for r in records if "op_s" in r
            and all("op_s" in b for b in r["baseline"])]
    parts = []
    for key in ("setup_s", "op_s"):
        prog = statistics.median(r[key] for r in done)
        base = statistics.median(b[key] for r in done for b in r["baseline"])
        parts.append(f"{key} {prog:.4f} s (frozen copy {base:.4f} s)")
    return ", ".join(parts)


def save(workload: str, seed: int, trace: bool, env: dict, result: dict,
         records: list) -> None:
    """Keep the result, the operation records and all spans of the run."""
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    spans = [(i, r.pop("spans")) for i, r in enumerate(records) if "spans" in r]
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "result": result, "ops": records}, fh, indent=1)
    if spans:
        with open(stem + "-spans.jsonl", "w") as fh:
            for op_index, op_spans in spans:
                for span_id, span in enumerate(op_spans):
                    fh.write(json.dumps({"op": op_index, "id": span_id, **span})
                             + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES),
                        default="full",
                        help="problem sizes; 'tiny' is for the self-test")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(SRC, "delaylq", "__init__.py")):
        print(f"delaylq sources not found under {SRC}", file=sys.stderr)
        return 2
    for src in (SRC, BASELINE):
        warm = subprocess.run([sys.executable, "-c", "import delaylq.cli"],
                              env=child_env(src), cwd=ROOT,
                              stderr=subprocess.PIPE, text=True,
                              timeout=OP_TIMEOUT_S)
        if warm.returncode != 0:
            print(f"cannot import delaylq from {src}: {warm.stderr.strip()}",
                  file=sys.stderr)
            return 2

    env = env_record()
    print("env " + json.dumps(env, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, records = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace), args.scale)
        save(name, args.seed, bool(args.trace), env, result, records)
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name:20s} {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:20s} operations {result['attempted']}, failed "
              f"{result['failed']}; op_s tail: {tail_note(records)}")
        if not args.trace:
            print(f"{name:20s} as measured: {as_measured(records)}")

    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
