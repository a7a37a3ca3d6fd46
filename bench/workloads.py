"""Workloads of the delaylq benchmark: seeded inputs and output checks.

Each workload is one CLI command line.  ``make_ops`` turns a workload
seed into the list of operations a run cycles through; ``check`` reads
what one operation wrote and returns the checks that failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("solve-full", "simulate-full", "verify-input-delay",
             "solve-planar")

#: Problem sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: every code path and check but runs in well under a second per operation.
#: ``ref_paths`` is the path count of the stored reference cost mean.
SCALES = {
    "full": {"solve_steps": 240, "sim_steps": 120, "sim_paths": 20000,
             "ref_paths": 100000, "verify_steps": 120, "planar_steps": 120},
    "tiny": {"solve_steps": 8, "sim_steps": 8, "sim_paths": 16,
             "ref_paths": 20000, "verify_steps": 8, "planar_steps": 8},
}

#: Operations prepared per run; a run that needs more cycles through them.
POOL = 64
#: Distinct planar problems per run (each is a JSON file of about 1 MB).
PLANAR_POOL = 4
#: Seed of the simulate operation whose outputs must match byte for byte.
CANARY_SEED = 20251002
#: Seed of the large run behind the reference cost mean.
REFERENCE_SEED = 777
#: Absolute-or-relative tolerance against stored reference values.
TOL = 1e-9
PLANAR_LAM = 1.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``--out`` is added by the driver."""

    argv: tuple
    n_steps: int
    n: int
    m: int
    canary: bool = False


def riccati_bytes(op: Op) -> int:
    """Stored two-time Riccati kernel plus ``pb``, from N and n alone.

    Sum over base nodes l of (N+1-l)^2 (3n)^2 doubles, plus (N+1)^2 3n m.
    """
    nn, d = op.n_steps + 1, 3 * op.n
    slices = nn * (nn + 1) * (2 * nn + 1) // 6 * d * d
    return 8 * (slices + nn * nn * d * op.m)


def _planar_doc(n_steps: int, rng: np.random.Generator) -> dict:
    """The n = m = 2 test problem with bounded seeded perturbations.

    Every coefficient moves by at most 10 % of its size (or of 0.05 for
    small entries); Q1 gets a symmetric shift of norm at most 0.1 against
    its smallest eigenvalue 0.68, and R1 only grows, so the problem stays
    admissible with lam = 1.
    """
    nn, k, dt = n_steps + 1, n_steps // 4, 1.0 / n_steps

    def pert(base):
        base = np.asarray(base, dtype=float)
        return base + 0.1 * np.maximum(np.abs(base), 0.05) * rng.uniform(
            -1.0, 1.0, base.shape)

    def table(mat):
        return np.broadcast_to(mat, (nn,) + mat.shape).tolist()

    shift = rng.uniform(-0.05, 0.05, (2, 2))
    eye = np.eye(2)
    mats = {
        "A1": pert([[-0.4, 0.2], [0.1, -0.5]]),
        "A2": pert([[0.2, 0.0], [0.1, 0.1]]),
        "A3": pert([[0.1, 0.05], [0.0, 0.2]]),
        "B1": pert(np.full((2, 2), 0.8)),
        "B2": pert(np.full((2, 2), 0.3)),
        "B3": pert([[0.2, 0.0], [0.1, 0.1]]),
        "C1": pert([[0.2, 0.05], [0.0, 0.15]]),
        "C2": pert([[0.1, 0.0], [0.05, 0.1]]),
        "C3": pert([[0.05, 0.0], [0.0, 0.05]]),
        "D1": pert(np.full((2, 2), 0.15)),
        "Q1": np.array([[1.0, 0.2], [0.2, 0.8]]) + 0.5 * (shift + shift.T),
        "Q2": 0.3 * (1.0 + rng.uniform(-0.1, 0.1)) * eye,
        "Q3": 0.2 * (1.0 + rng.uniform(-0.1, 0.1)) * eye,
        "R1": (1.0 + rng.uniform(0.0, 0.2)) * eye,
        "R2": 0.2 * (1.0 + rng.uniform(-0.1, 0.1)) * eye,
    }
    doc = {"t0": 0.0, "T": 1.0, "N": n_steps, "delay_steps": k,
           "n": 2, "m": 2, "lambda": PLANAR_LAM}
    doc.update({name: table(mat) for name, mat in mats.items()})
    doc["b"] = table(pert([0.1, 0.0]))
    doc["sigma"] = table(pert([0.2, 0.1]))
    fmat = pert([[1.0, 0.1], [0.0, 0.8]])
    ftilde = pert(np.full((2, 2), 0.3)).tolist()
    doc["F"] = [[(0.4 * math.exp(-(i - j) * dt) * fmat).tolist()
                 for j in range(i)] for i in range(nn)]
    doc["Ftilde"] = [[ftilde] * i for i in range(nn)]
    doc["xi"] = [pert([1.0, -0.5]).tolist()] * (k + 1)
    doc["varsigma"] = [pert(np.full(2, 0.1)).tolist()] * k
    return doc


def make_ops(workload: str, scale: str, seed: int, input_dir: str) -> list:
    """Every operation of a run, drawn from ``seed`` before any runs."""
    size = SCALES[scale]
    rng = np.random.default_rng(seed)
    if workload == "solve-full":
        n = size["solve_steps"]
        return [Op(("solve", "--preset", "full", "--n-steps", str(n)), n, 1, 1)]
    if workload == "verify-input-delay":
        n = size["verify_steps"]
        return [Op(("verify", "--preset", "input-delay", "--n-steps", str(n),
                    "--verify", "residuals,cases,qp-oracle"), n, 1, 1)]
    if workload == "simulate-full":
        n, paths = size["sim_steps"], size["sim_paths"]
        seeds = [CANARY_SEED] + [int(s) for s in
                                 rng.integers(1, 2 ** 31, POOL - 1)]
        return [Op(("simulate", "--preset", "full", "--n-steps", str(n),
                    "--n-paths", str(paths), "--seed", str(s)), n, 1, 1,
                   canary=s == CANARY_SEED) for s in seeds]
    if workload == "solve-planar":
        n = size["planar_steps"]
        os.makedirs(input_dir, exist_ok=True)
        ops = []
        for i in range(PLANAR_POOL):
            path = os.path.join(input_dir, f"planar-{i}.json")
            with open(path, "w") as fh:
                json.dump(_planar_doc(n, rng), fh)
            ops.append(Op(("solve", "--problem", path), n, 2, 2))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def read_table(path: str) -> list:
    with open(path) as fh:
        return [[float(v) for v in line.split(",")]
                for line in fh.read().splitlines()]


def _close(got, want) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def _compare_summary(got: dict, want: dict, failures: list) -> None:
    for key, value in want.items():
        if key not in got:
            failures.append(f"summary.{key} missing")
        elif isinstance(value, (bool, str)) or isinstance(got[key], (bool, str)):
            if got[key] != value:
                failures.append(f"summary.{key} = {got[key]!r}, want {value!r}")
        elif not _close(got[key], value):
            failures.append(f"summary.{key} = {got[key]!r}, want {value!r}")


def _compare_table(name: str, got: list, want: list, failures: list) -> None:
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        failures.append(f"{name}: shape differs from reference")
        return
    for r, (grow, wrow) in enumerate(zip(got, want)):
        if not all(_close(g, w) for g, w in zip(grow, wrow)):
            failures.append(f"{name}: row {r} differs from reference")
            return


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


REFERENCE_TABLES = ("feedback_k1", "feedback_v", "riccati_p1")


def check(workload: str, op: Op, out_dir: str, ref: dict) -> list:
    """Names of the output checks the operation failed (empty if none)."""
    failures: list = []
    try:
        summary = read_summary(out_dir)
        if workload == "solve-full":
            _compare_summary(summary, ref["summary"], failures)
            for name in REFERENCE_TABLES:
                got = read_table(os.path.join(out_dir, name + ".csv"))
                _compare_table(name, got, ref["tables"][name], failures)
        elif workload == "verify-input-delay":
            _compare_summary(summary, ref["summary"], failures)
            if summary.get("qp_gap_within_5dt") is not True:
                failures.append("qp_gap_within_5dt is not true")
        elif workload == "simulate-full":
            _check_simulate(op, out_dir, summary, ref, failures)
        elif workload == "solve-planar":
            _check_planar(out_dir, summary, failures)
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"unreadable output: {exc}")
    return failures


def _check_simulate(op: Op, out_dir: str, summary: dict, ref: dict,
                    failures: list) -> None:
    if summary["flagged_paths"] != 0:
        failures.append(f"flagged_paths = {summary['flagged_paths']}")
    spread = 4.0 * math.hypot(summary["cost_stderr"], ref["stderr"])
    if not abs(summary["cost_mean"] - ref["mean"]) <= spread:
        failures.append(f"cost_mean {summary['cost_mean']!r} is not within "
                        f"{spread:.3g} of reference {ref['mean']!r}")
    if op.canary:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            if fh.read() != ref["canary_summary"]:
                failures.append("canary summary.json differs from reference")
        paths_x = _sha256(os.path.join(out_dir, "paths_x.csv"))
        if paths_x != ref["canary_paths_x_sha256"]:
            failures.append("canary paths_x.csv differs from reference")


def _check_planar(out_dir: str, summary: dict, failures: list) -> None:
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            rows = read_table(os.path.join(out_dir, name))
            if not all(math.isfinite(v) for row in rows for v in row):
                failures.append(f"{name}: non-finite entries")
    if not summary["rcal_min_eigenvalue"] >= PLANAR_LAM / 2:
        failures.append(f"rcal_min_eigenvalue {summary['rcal_min_eigenvalue']!r}"
                        f" < lam/2")
    p1 = np.array(read_table(os.path.join(out_dir, "riccati_p1.csv")))[:, 2:]
    d = math.isqrt(p1.shape[1])
    p1 = p1.reshape(-1, d, d)
    asym = np.abs(p1 - p1.transpose(0, 2, 1)).max()
    if not asym <= 1e-12 * max(1.0, np.abs(p1).max()):
        failures.append(f"riccati_p1 not symmetric (defect {asym:.3e})")
