"""Self-test of the benchmark harness: every workload at a tiny size.

Run from the repository root:  python3 -m pytest bench/test_bench.py

No timing is bounded.  The tests check that each workload emits exactly
the metrics ``BENCHMARK.json`` names, with their units, that every output
check passes, that the checks do reject a wrong output, that the
harness fails cleanly where the sources are missing, and that the frozen
copy the end-to-end times are measured against is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric_and_passes_checks(workload, trace,
                                                       tmp_path):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, proc.stderr
    assert line["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == want
    if trace:
        metrics = line["metrics"]
        stored = metrics["riccati.result_mb"]["value"] * 1024 * 1024
        op = workloads.make_ops(workload, "tiny", 5, str(tmp_path))[0]
        assert workloads.riccati_bytes(op) >= 0.95 * stored


def test_checks_reject_a_wrong_output(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import delaylq.cli

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)["tiny"]["solve-full"]
    (op,) = workloads.make_ops("solve-full", "tiny", 0, str(tmp_path))
    out = str(tmp_path / "out")
    assert delaylq.cli.main([*op.argv, "--out", out]) == 0
    assert workloads.check("solve-full", op, out, ref) == []

    ref["tables"]["feedback_k1"][3][2] += 1e-6
    assert workloads.check("solve-full", op, out, ref) == [
        "feedback_k1: row 3 differs from reference"]
    os.remove(os.path.join(out, "summary.json"))
    assert workloads.check("solve-full", op, out, ref)[0].startswith(
        "unreadable output")


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("solve-full", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_memory_guard_refuses_an_operation(monkeypatch, capsys):
    import run

    monkeypatch.setattr(run, "MEMORY_SHARE", 0.0)
    with pytest.raises(SystemExit, match="too few operations"):
        run.run_workload("solve-full", 5, 1.0, False, "tiny")
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("memory guard: refused")


#: Digest of the frozen copy's sources; ``op_s`` and ``setup_s`` are
#: measured against it, so editing it would move every reported time.
BASELINE_SHA256 = (
    "8b324cfa145fcb3f26d70f8b552e8c08ed646ae01a9ab33fe04503bdabda2472")


def test_frozen_copy_is_unchanged():
    digest = hashlib.sha256()
    base = os.path.join(HERE, "baseline", "delaylq")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    assert digest.hexdigest() == BASELINE_SHA256
