"""Write bench/reference.json: the outputs the benchmark checks against.

Usage (from the repository root): python3 bench/make_reference.py

Run it on the code the references should pin; the committed file was made
from the solver as it stood when the benchmark was added.  It runs the
CLI in-process on the benchmark's own fixed inputs, at every scale.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import workloads
from run import REFERENCE, SRC, WORK

sys.path.insert(0, SRC)
import delaylq.cli  # noqa: E402


def run_cli(argv: tuple, out_dir: str) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = delaylq.cli.main([*argv, "--out", out_dir])
    if code != 0:
        raise SystemExit(f"reference run failed ({code}): {argv}")


def references(scale: str, out_dir: str) -> dict:
    refs = {}
    (op,) = workloads.make_ops("solve-full", scale, 0, out_dir)
    run_cli(op.argv, out_dir)
    refs["solve-full"] = {
        "summary": workloads.read_summary(out_dir),
        "tables": {name: workloads.read_table(os.path.join(out_dir, name + ".csv"))
                   for name in workloads.REFERENCE_TABLES},
    }

    (op,) = workloads.make_ops("verify-input-delay", scale, 0, out_dir)
    run_cli(op.argv, out_dir)
    refs["verify-input-delay"] = {"summary": workloads.read_summary(out_dir)}

    canary = workloads.make_ops("simulate-full", scale, 0, out_dir)[0]
    run_cli(canary.argv, out_dir)
    with open(os.path.join(out_dir, "summary.json")) as fh:
        canary_summary = fh.read()
    with open(os.path.join(out_dir, "paths_x.csv"), "rb") as fh:
        canary_paths = hashlib.sha256(fh.read()).hexdigest()
    size = workloads.SCALES[scale]
    run_cli(("simulate", "--preset", "full", "--n-steps", str(size["sim_steps"]),
             "--n-paths", str(size["ref_paths"]),
             "--seed", str(workloads.REFERENCE_SEED)), out_dir)
    big = workloads.read_summary(out_dir)
    refs["simulate-full"] = {
        "mean": big["cost_mean"], "stderr": big["cost_stderr"],
        "n_paths": size["ref_paths"], "seed": workloads.REFERENCE_SEED,
        "canary_summary": canary_summary,
        "canary_paths_x_sha256": canary_paths,
    }
    refs["solve-planar"] = {}
    return refs


def main() -> None:
    out_dir = os.path.join(WORK, "reference-out")
    doc = {scale: references(scale, out_dir) for scale in workloads.SCALES}
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
