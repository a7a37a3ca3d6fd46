"""Command-line front end: solve, simulate, verify.

Exit codes: 0 success, 1 validation failure (usage errors included),
2 numerical failure, 3 I/O failure.  A run that cannot allocate its
tables (a grid too fine for the machine's memory) counts as a numerical
failure: it ends with exit 2 and one "out of memory" line on stderr, not
a traceback.  The run summary is a flat JSON document with sorted keys
and floats printed to 17 significant digits (null where a float is not
finite, say the cost of a batch whose every path was flagged), so
identical configs and seeds produce byte-identical summaries.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from . import oracles
from .adjoint import synthesize_feedback, value_function
from .exceptions import NumericalError, ProblemValidationError
from .presets import PRESET_NAMES, STEP_MULTIPLE, preset_problem
from .problem import load_problem
from .riccati import RiccatiSolution, riccati_residual, solve_riccati
from .simulate import (BrownianBatch, estimate_cost, gen_brownian,
                       simulate_closed_loop, stationarity_test)
from .volterra import build_volterra, lifted_kernel

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}" if np.isfinite(value) else "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return '"' + str(value) + '"'


def write_summary(path: str, summary: dict) -> None:
    lines = [f'  "{key}": {_fmt(summary[key])}' for key in sorted(summary)]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def _row_format(lead: str, width: int) -> str:
    """One CSV row: the ``lead`` fields, then ``width`` floats at 17 digits."""
    return lead + ",".join(["%.17g"] * width) + "\n"


def _write_node_table(path: str, grid, table: np.ndarray) -> None:
    rows = table.reshape(table.shape[0], -1)
    fmt = _row_format("%d,%.17g,", rows.shape[1])
    with open(path, "w") as fh:
        fh.writelines(fmt % (j, grid.time(j), *row)
                      for j, row in enumerate(rows.tolist()))


def _leads(nn: int) -> list:
    """The "i," lead of each node of a grid, built once and shared by every
    pair table written on it."""
    return [f"{i}," for i in range(nn)]


def _pair_block(lead: str, tails: list) -> str:
    """One row block's format: ``lead`` before each of ``tails``."""
    return lead + lead.join(tails)


def _write_pair_table(path: str, table: np.ndarray, leads: list) -> None:
    """Rows "i,j,<floats>" for j < i.  Each row block i is formatted in one
    step from the grid's ``leads`` and written at once, so the transient
    strings stay one block long."""
    rows = table.reshape(table.shape[:2] + (-1,))
    fields = ",".join(["%.17g"] * rows.shape[2]) + "\n"
    tails = [lead + fields for lead in leads]
    with open(path, "w") as fh:
        for i in range(1, rows.shape[0]):
            fh.write(_pair_block(leads[i], tails[:i])
                     % tuple(rows[i, :i].ravel().tolist()))


def replay(P: RiccatiSolution):
    """Yield (l, slice_l) for l = N, N-1, ..., 0: the whole slices of the
    two-time kernel, which only the dump writes out.

    ``slice_l`` covers grid pairs (i, j) with i, j >= l (local index 0 is
    global l): its interior is slice l+1 advanced by one Euler step of the
    rank-m drift, its border column, row and corner come from
    ``P.border(l)``.  Each slice is an (M, M, d, d) view into one flat
    buffer that the next step updates in place: copy it to keep it past
    the step, and do not modify it.  Time is O(N^3 d^2 m); the slice and
    its scratch are two buffers of about (N+1)^2 d^2 numbers.  The step
    runs on every block: a dead one is 0.0 and stays so, and the dump's
    cost is its text formatting, not the step.
    """
    N, d = P.N, 3 * P.n
    # slice and scratch are allocated once: arrays grown per node left
    # the peak RSS to the heap's fragmentation
    buf = np.empty(((N + 1) * d,) * 2)
    work = np.empty(N * N * d * d)
    for l in range(N, -1, -1):
        X, Md = buf[l * d:, l * d:], (N - l) * d
        if l < N:
            _euler(X[d:, d:], P.pb[l + 1:, l + 1], P.rcal_inv[l + 1], P.dt,
                   work[:Md * Md].reshape(Md, Md))
        X[:, :d] = P.border(l)
        X[:d, d:] = X[d:, :d].T
        yield l, _blocks(X, N + 1 - l)


def _blocks(X: np.ndarray, M: int) -> np.ndarray:
    """The flat slice X over M nodes as an (M, M, d, d) view."""
    d = X.shape[0] // M
    return X.reshape(M, d, M, d).transpose(0, 2, 1, 3)


def _euler(X: np.ndarray, pb_next: np.ndarray, rinv_next: np.ndarray,
           dt: float, work: np.ndarray) -> None:
    """Slice l+1 becomes the interior of slice l, in place: X less dt
    pb_next rinv_next pb_next^T, symmetrized.  ``work`` is contiguous
    scratch of X's shape."""
    pbf = pb_next.reshape(X.shape[0], -1)
    np.matmul((pb_next @ rinv_next).reshape(pbf.shape), pbf.T, out=work)
    work *= dt
    np.subtract(X, work, out=work)
    # averaging with the transpose keeps the swap-transpose symmetry exact
    np.add(work, work.T, out=X)
    X *= 0.5


def _write_riccati_dump(path: str, P, leads: list) -> None:
    """Every slice of the two-time kernel, base nodes in ascending order.

    One replay yields the slices from the last node back to the first;
    each is formatted once into a spool file, one row block i at a time,
    and the spooled slices are then copied out in ascending order, so only
    one slice is held.
    """
    chunks = []
    with tempfile.TemporaryFile(dir=os.path.dirname(path) or None) as spool:
        for l, sl in replay(P):
            fields = ",".join(["%.17g"] * sl[0, 0].size) + "\n"
            tails = [lead + leads[l] + fields for lead in leads[l:]]
            start = spool.tell()
            for i, lead in enumerate(leads[l:]):
                spool.write((_pair_block(lead, tails)
                             % tuple(sl[i].ravel().tolist())).encode())
            chunks.append((start, spool.tell() - start))
        with open(path, "wb") as fh:
            for offset, size in reversed(chunks):
                spool.seek(offset)
                fh.write(spool.read(size))


def _argument_violations(args) -> list:
    """Flag values the commands cannot run with, before any work."""
    out = []
    if args.problem is not None:
        given = [flag for flag, value in (("--preset", args.preset),
                                          ("--n-steps", args.n_steps))
                 if value is not None]
        if given:
            out.append(f"--problem fixes the problem and its grid; drop "
                       f"{' and '.join(given)}")
    elif args.n_steps is not None:
        if args.n_steps < 1:
            out.append(f"--n-steps must be a positive integer, "
                       f"got {args.n_steps}")
        elif args.n_steps % STEP_MULTIPLE != 0:
            out.append(f"--n-steps must be divisible by {STEP_MULTIPLE} for "
                       f"a preset (delay 0.25 on [0, 1]), got {args.n_steps}")
    if args.command in ("simulate", "verify") and args.n_paths < 1:
        out.append(f"--n-paths must be at least 1, got {args.n_paths}")
    return out


def _load_problem_from_args(args):
    if args.problem is not None:
        if not os.path.exists(args.problem):
            print(f"problem file not found: {args.problem}", file=sys.stderr)
            raise SystemExit(EXIT_IO)
        try:
            return load_problem(args.problem), None
        except (ValueError, KeyError, TypeError) as exc:
            print(f"failed to parse problem JSON: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_VALIDATION)
    name = args.preset or "tanh"
    return preset_problem(name, args.n_steps), name


def _solve_pipeline(problem):
    vp = build_volterra(problem)          # validates; main reports violations
    P = solve_riccati(vp)                 # the adjoint's eta1 and omega too
    strategy = synthesize_feedback(P, vp)
    return vp, P, strategy


def cmd_solve(args) -> int:
    problem, preset = _load_problem_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    vp, P, strategy = _solve_pipeline(problem)
    g = problem.grid

    summary = {
        "preset": preset or "custom",
        "n_steps": g.N,
        "delay_steps": g.delay_steps,
        "dt": g.dt,
        "rcal_min_eigenvalue": P.lambda_floor,
        "seed": args.seed,
    }
    if problem.homogeneous:
        summary["value_function"] = value_function(P, vp)

    _write_node_table(os.path.join(args.out, "feedback_k1.csv"), g, strategy.k1)
    _write_node_table(os.path.join(args.out, "feedback_k3.csv"), g, strategy.k3)
    _write_node_table(os.path.join(args.out, "feedback_v.csv"), g, strategy.v)
    leads = _leads(g.N + 1)
    _write_pair_table(os.path.join(args.out, "feedback_k2.csv"), strategy.k2,
                      leads)
    _write_pair_table(os.path.join(args.out, "feedback_k4.csv"), strategy.k4,
                      leads)
    _write_node_table(os.path.join(args.out, "riccati_p1.csv"), g, P.p1)
    if args.dump_kernels:
        columns = vp.lifted_columns()       # [U | B], formed once
        kernels = {"A": lifted_kernel(vp, vp.Acal, columns),
                   "B": columns[..., vp.n:],
                   "C": lifted_kernel(vp, vp.Ccal, columns),
                   "D": lifted_kernel(vp, problem.D1, columns)}
        for name, table in kernels.items():
            _write_pair_table(os.path.join(args.out, f"kernel_{name}.csv"),
                              table, leads)
    if args.dump_riccati:
        _write_riccati_dump(os.path.join(args.out, "riccati_p2.csv"), P,
                            leads)
    write_summary(os.path.join(args.out, "summary.json"), summary)
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem, preset = _load_problem_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    vp, P, strategy = _solve_pipeline(problem)
    g = problem.grid
    batch = gen_brownian(g, args.n_paths, args.seed)
    sim = simulate_closed_loop(problem, strategy, batch)
    est = estimate_cost(sim)

    n_show = min(args.n_paths, 5)
    for name, paths in (("paths_x.csv", sim.x), ("paths_u.csv", sim.u)):
        rows = paths[:n_show].transpose(1, 0, 2).reshape(g.N + 1, -1)
        fmt = _row_format("%.17g,", rows.shape[1])
        with open(os.path.join(args.out, name), "w") as fh:
            fh.writelines(fmt % (g.time(j), *row)
                          for j, row in enumerate(rows.tolist()))

    summary = {
        "preset": preset or "custom",
        "n_steps": g.N,
        "n_paths": args.n_paths,
        "seed": args.seed,
        "cost_mean": est.mean,
        "cost_stderr": est.stderr,
        "flagged_paths": est.n_flagged,
        "rcal_min_eigenvalue": P.lambda_floor,
    }
    write_summary(os.path.join(args.out, "summary.json"), summary)
    return EXIT_OK


def _verify_residuals(vp, P, summary, out_dir) -> None:
    res = riccati_residual(P, vp)
    for line in ("pointwise", "evolution", "boundary", "rcal_identity"):
        summary[f"residual_{line}"] = getattr(res, line)
    rows = np.stack([res.pointwise_profile,
                     np.append(res.evolution_profile, 0.0),
                     np.append(res.boundary_profile, 0.0)], axis=1)
    fmt = _row_format("%d,", 3)
    with open(os.path.join(out_dir, "residuals.csv"), "w") as fh:
        fh.write("node,pointwise,evolution,boundary\n")
        fh.writelines(fmt % (l, *row) for l, row in enumerate(rows.tolist()))


def _verify_cases(problem, vp, P, strategy, summary) -> None:
    case = oracles.reduced_case(problem)
    if case == "V":
        oracle = oracles.classical_riccati(problem)
        rep = oracles.casev_consistency(P, strategy, oracle, vp)
        summary.update({f"casev_{k}": v for k, v in vars(rep).items()})
    elif case == "I":
        ext = oracles.casei_extract(P, vp)
        res = oracles.casei_residual(ext, problem)
        summary.update({f"casei_{k}_residual": v for k, v in vars(res).items()})
    elif case == "II":
        ext = oracles.caseii_extract(P, vp)
        res = oracles.caseii_residual(ext, problem)
        summary.update({f"caseii_{k}": v for k, v in vars(res).items()})
    else:
        print("case reductions: the problem meets none of cases V, I, II; "
              "skipping", file=sys.stderr)


def _verify_stationarity(problem, strategy, args, summary) -> None:
    g = problem.grid
    batch = gen_brownian(g, args.n_paths, args.seed)
    rng = np.random.Generator(np.random.Philox(
        key=[args.seed & (2 ** 64 - 1), 2 ** 32]))
    n_dirs = 20
    dirs = rng.standard_normal((n_dirs, g.N + 1, problem.m))
    dirs[:, g.N] = 0.0
    dirs /= np.sqrt((dirs[:, :g.N] ** 2).sum(axis=(1, 2)) * g.dt)[:, None, None]
    ders = stationarity_test(problem, strategy, dirs, batch)
    slack = 10.0 * g.dt
    n_pass = sum(der.passes(slack) for der in ders)
    # np.max, not max: a NaN estimate must show in the summary, not lose
    # every comparison
    worst = float(np.max([0.0] + [abs(der.estimate) - 3.0 * der.stderr
                                  for der in ders]))
    summary["stationarity_pass_fraction"] = n_pass / n_dirs
    summary["stationarity_worst_excess"] = worst


def cmd_verify(args) -> int:
    problem, preset = _load_problem_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    checks = [c.strip() for c in args.verify.split(",") if c.strip()]
    known = {"residuals", "cases", "stationarity", "qp-oracle"}
    unknown = set(checks) - known
    if unknown:
        print(f"unknown verification toggles: {sorted(unknown)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    if "qp-oracle" in checks:
        oracles.QP_ORACLE.enforce(problem)

    vp, P, strategy = _solve_pipeline(problem)
    g = problem.grid
    summary = {"preset": preset or "custom", "n_steps": g.N, "seed": args.seed}

    if "residuals" in checks:
        _verify_residuals(vp, P, summary, args.out)
    if "cases" in checks:
        _verify_cases(problem, vp, P, strategy, summary)
    if "qp-oracle" in checks:
        oracle = oracles.deterministic_qp_oracle(problem)
        # the oracle's problems carry no diffusion: the noise never
        # reaches the state, so the closed loop runs on zero increments
        batch = BrownianBatch(seed=args.seed, n_paths=1,
                              increments=np.zeros((1, g.N)))
        sim = simulate_closed_loop(problem, strategy, batch)
        cost_cl = estimate_cost(sim).mean
        gap = abs(cost_cl - oracle.cost_opt) / max(abs(oracle.cost_opt), 1e-30)
        summary["qp_cost"] = oracle.cost_opt
        summary["qp_closed_loop_cost"] = cost_cl
        summary["qp_relative_gap"] = gap
        summary["qp_kkt_residual"] = oracle.kkt_residual
        verdict = "PASS" if gap <= 5.0 * g.dt else "FAIL"
        summary["qp_gap_within_5dt"] = verdict == "PASS"
        print(f"qp-oracle: gap <= 5*dt: {verdict}")
    if "stationarity" in checks:
        _verify_stationarity(problem, strategy, args, summary)
        frac = summary["stationarity_pass_fraction"]
        print(f"stationarity: pass fraction {frac:.2f}"
              f" ({'PASS' if frac >= 0.9 else 'FAIL'})")

    write_summary(os.path.join(args.out, "summary.json"), summary)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """One-line usage errors with the validation exit code (subparsers too)."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delaylq",
        description="Stochastic LQ control with delays: solve the lifted "
                    "Riccati system, synthesize feedback, simulate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("simulate", cmd_simulate),
                     ("verify", cmd_verify)):
        sp = sub.add_parser(name)
        sp.add_argument("--problem", help="path to a problem JSON document")
        sp.add_argument("--preset", choices=PRESET_NAMES,
                        help="built-in problem instance")
        sp.add_argument("--n-steps", type=int, default=None)
        sp.add_argument("--seed", type=int, default=12345)
        sp.add_argument("--out", default="out")
        if name == "solve":
            sp.add_argument("--dump-kernels", action="store_true")
            sp.add_argument("--dump-riccati", action="store_true",
                            help="write the full two-time kernel (large)")
        else:
            sp.add_argument("--n-paths", type=int, default=1000)
        if name == "verify":
            sp.add_argument("--verify", default="residuals",
                            help="comma list: residuals,cases,stationarity,"
                                 "qp-oracle")
        sp.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        violations = _argument_violations(args)
        if violations:
            for violation in violations:
                print(f"validation: {violation}", file=sys.stderr)
            return EXIT_VALIDATION
        # overflow and NaN end in a NumericalError's one line or show as
        # null in the summary, not as a stream of numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except ProblemValidationError as exc:
        for violation in exc.violations:
            print(f"validation: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print("out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
