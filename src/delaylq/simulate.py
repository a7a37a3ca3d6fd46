"""Euler-Maruyama simulation, Monte-Carlo cost, stationarity testing.

One scheme everywhere: explicit Euler with left-point (Ito) evaluation
of every integrand, matching the left-rectangle quadrature used by the
lifting and cost modules.  Paths are vectorized, and one stepping loop
serves the open and the closed loop.  Each step fills one row v = [x y z
u nu mu] per path and forms drift and diffusion as one product against
the coefficients stacked once per call, and the running cost as one
quadratic form.  The memory kernels depend on both time arguments, so z
and mu are one product each of the whole history against a kernel row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adjoint import FeedbackStrategy
from .problem import DelayLQProblem

#: Paths whose state norm exceeds this are flagged and excluded.
BLOWUP_THRESHOLD = 1e12


@dataclass(frozen=True)
class BrownianBatch:
    """Reproducible per-path increment streams, dW_j ~ Normal(0, dt).

    Each path's stream comes from a counter-based generator keyed by
    (seed, path index), so the batch is bitwise reproducible and path
    streams are independent of scheduling.
    """

    seed: int
    n_paths: int
    increments: np.ndarray   # (n_paths, N)


def gen_brownian(grid, n_paths: int, seed: int) -> BrownianBatch:
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    scale = np.sqrt(grid.dt)
    increments = np.empty((n_paths, grid.N))
    for p in range(n_paths):
        gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), p]))
        increments[p] = gen.standard_normal(grid.N) * scale
    return BrownianBatch(seed=seed, n_paths=n_paths, increments=increments)


@dataclass(frozen=True)
class SimulationBatch:
    """Realized paths on the grid plus per-path costs and blow-up flags."""

    x: np.ndarray            # (n_paths, N+1, n)
    u: np.ndarray            # (n_paths, N+1, m)
    cost_samples: np.ndarray  # (n_paths,)
    flagged: np.ndarray      # (n_paths,) bool


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    stderr: float
    n_paths: int
    n_flagged: int = 0


def _history_rows(kernel: np.ndarray) -> np.ndarray:
    """A two-time kernel (N+1, N+1, a, b) as (N+1, (N+1)*b, a): row j
    against a path-major history h, (P, (N+1)*b), gives the sum over l of
    kernel(j, l) h_l, and its first j*b rows the sum over l < j."""
    rows, cols, a, b = kernel.shape
    return kernel.transpose(0, 1, 3, 2).reshape(rows, cols * b, a)


def _cost_weight(problem: DelayLQProblem) -> np.ndarray:
    """diag(Q1, Q2, Q3, R1, R2) at every node, against [x y z u nu]."""
    blocks = [problem.Q1, problem.Q2, problem.Q3, problem.R1, problem.R2]
    edges = np.cumsum([0] + [blk.shape[-1] for blk in blocks])
    weight = np.zeros((problem.grid.N + 1, edges[-1], edges[-1]))
    for blk, lo, hi in zip(blocks, edges, edges[1:]):
        weight[:, lo:hi, lo:hi] = blk
    return weight


def _step_tables(problem: DelayLQProblem) -> tuple:
    """Row j of the first table maps v = [x y z u nu mu] to [drift,
    diffusion]: it is the transpose of [A1 A2 A3 B1 B2 B3; C1 C2 C3 D1 0 0]
    at t_j, beside the free row [b; sigma].  Then the cost weight, and F
    and Ftilde as ``_history_rows``."""
    p = problem
    rows = np.block([[p.A1, p.A2, p.A3, p.B1, p.B2, p.B3],
                     [p.C1, p.C2, p.C3, p.D1, np.zeros_like(p.B1),
                      np.zeros_like(p.A1)]])
    return (rows.transpose(0, 2, 1), np.concatenate([p.b, p.sigma], axis=1),
            _cost_weight(p), _history_rows(p.F), _history_rows(p.Ftilde))


def _simulate(problem: DelayLQProblem, tables: tuple, batch: BrownianBatch,
              control: Callable[..., np.ndarray]) -> SimulationBatch:
    """The Euler-Maruyama loop shared by the open and closed loops.

    ``control(j, v, xh, uh)`` returns u(t_j) for every path from the row
    v, whose first 2n entries hold [x(t_j) y(t_j)], and the path-major
    histories ``xh`` (P, (N+1)n) and ``uh`` (P, (N+1)m), filled up to
    node j and j-1.  The running cost is the left-rectangle quadrature of
    the quadratic integrand at nodes 0..N-1, formed from the step's row.
    """
    g = problem.grid
    N, n, m, k, P, dt = (g.N, problem.n, problem.m, g.delay_steps,
                         batch.n_paths, g.dt)
    coef, free, weight, F, Ftilde = tables
    x = np.zeros((P, N + 1, n))
    u = np.zeros((P, N + 1, m))
    xh, uh = x.reshape(P, -1), u.reshape(P, -1)
    v = np.zeros((P, 4 * n + 2 * m))
    xv, yv, zv, uv, nuv, muv = np.split(v, np.cumsum([n, n, n, m, m]), axis=1)
    w = v[:, :3 * n + 2 * m]                  # the cost's [x y z u nu]
    dw = batch.increments[:, :, None]
    costs = np.zeros(P)
    x[:, 0] = problem.xi[k]
    for j in range(N + 1):
        xv[:] = x[:, j]
        yv[:] = problem.xi[j] if j <= k else x[:, j - k]
        u[:, j] = uv[:] = control(j, v, xh, uh)
        if j == N:
            break
        nuv[:] = problem.varsigma[j] if j < k else u[:, j - k]
        np.multiply(xh[:, :j * n] @ F[j, :j * n], dt, out=zv)
        np.multiply(uh[:, :j * m] @ Ftilde[j, :j * m], dt, out=muv)
        costs += np.einsum("pa,pa->p", w @ weight[j], w) * dt
        step = v @ coef[j]
        step += free[j]
        x[:, j + 1] = x[:, j] + step[:, :n] * dt + step[:, n:] * dw[:, j]

    flagged = (np.abs(x).max(axis=(1, 2)) > BLOWUP_THRESHOLD) | ~np.isfinite(
        x.reshape(P, -1)).all(axis=1)
    return SimulationBatch(x=x, u=u, cost_samples=costs, flagged=flagged)


def _replay(u_paths: np.ndarray) -> Callable[..., np.ndarray]:
    """The open loop's control: node j of the given paths."""
    return lambda j, v, xh, uh: u_paths[:, j]


def simulate_open_loop(problem: DelayLQProblem, u_paths: np.ndarray,
                       batch: BrownianBatch) -> SimulationBatch:
    """Drive the state equation with externally supplied adapted controls.

    ``u_paths`` is (n_paths, N+1, m) or (N+1, m) broadcast to all paths.
    """
    N, m, P = problem.grid.N, problem.m, batch.n_paths
    u_paths = np.asarray(u_paths, dtype=float)
    if u_paths.ndim == 2:
        u_paths = np.broadcast_to(u_paths, (P, N + 1, m))
    if u_paths.shape != (P, N + 1, m):
        raise ValueError(f"u_paths must be ({P},{N + 1},{m}), got {u_paths.shape}")
    return _simulate(problem, _step_tables(problem), batch, _replay(u_paths))


def simulate_closed_loop(problem: DelayLQProblem, strategy: FeedbackStrategy,
                         batch: BrownianBatch) -> SimulationBatch:
    """Run the feedback loop; u(t_j) uses only information up to t_j.

    [k1 k3](t_j) acts on [x(t_j) y(t_j)], and the k2 and k4 history
    integrals are one product each, as ``_history_rows``."""
    dt, n, m = problem.grid.dt, problem.n, problem.m
    k13 = np.concatenate([strategy.k1, strategy.k3], axis=2).transpose(0, 2, 1)
    k2, k4 = _history_rows(strategy.k2), _history_rows(strategy.k4)

    def feedback(j, v, xh, uh):
        u_j = v[:, :2 * n] @ k13[j] + strategy.v[j]
        if j > 0:
            u_j += (xh[:, :j * n] @ k2[j, :j * n]) * dt
            u_j += (uh[:, :j * m] @ k4[j, :j * m]) * dt
        return u_j

    return _simulate(problem, _step_tables(problem), batch, feedback)


def estimate_cost(sim: SimulationBatch) -> CostEstimate:
    """Mean and standard error over unflagged paths."""
    good = ~sim.flagged
    samples = sim.cost_samples[good]
    n_good = int(good.sum())
    if n_good == 0:
        return CostEstimate(mean=float("nan"), stderr=float("nan"),
                            n_paths=0, n_flagged=int(sim.flagged.sum()))
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(n_good)) if n_good > 1 else 0.0
    return CostEstimate(mean=mean, stderr=stderr, n_paths=n_good,
                        n_flagged=int(sim.flagged.sum()))


@dataclass(frozen=True)
class DerivativeEstimate:
    """Central-difference directional derivative with paired-path stderr."""

    estimate: float
    stderr: float
    eps: float
    n_paths: int

    def passes(self, slack: float) -> bool:
        return abs(self.estimate) <= 3.0 * self.stderr + slack


def default_direction_scale(u: np.ndarray) -> float:
    """Control scale for the finite-difference step size: the RMS of u,
    at least 1, and 1 when u is empty."""
    rms = float(np.sqrt(np.mean(u ** 2))) if u.size else 0.0
    return max(rms, 1.0)


def stationarity_test(problem: DelayLQProblem, strategy: FeedbackStrategy,
                      directions: np.ndarray,
                      batch: BrownianBatch) -> list[DerivativeEstimate]:
    """First-order optimality certificates along deterministic directions.

    Records the closed-loop control path per realization once, then for
    each direction in the stack ``directions`` (D, N+1, m) re-simulates
    open loop with u* +/- eps*direction on the same noise, and returns
    the pathwise central-difference derivative estimates, one per
    direction.

    For fixed noise the sample cost is exactly quadratic in the control,
    so the central difference has no step bias; eps, 1e-3 times the
    control scale of the unflagged base paths, only sets the rounding.
    The open-loop runs share one set of step tables.
    """
    g = problem.grid
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 3 or directions.shape[1:] != (g.N + 1, problem.m):
        raise ValueError(
            f"directions must be (D,{g.N + 1},{problem.m}), "
            f"got {directions.shape}")
    base = simulate_closed_loop(problem, strategy, batch)
    eps = 1e-3 * default_direction_scale(base.u[~base.flagged])
    tables = _step_tables(problem)
    out = []
    for direction in directions:
        up, dn = (_simulate(problem, tables, batch, _replay(u)) for u in
                  (base.u + eps * direction, base.u - eps * direction))
        good = ~(base.flagged | up.flagged | dn.flagged)
        diffs = (up.cost_samples[good] - dn.cost_samples[good]) / (2.0 * eps)
        n_good = int(good.sum())
        est = float(diffs.mean()) if n_good else float("nan")
        stderr = float(diffs.std(ddof=1) / np.sqrt(n_good)) if n_good > 1 else 0.0
        out.append(DerivativeEstimate(estimate=est, stderr=stderr,
                                      eps=float(eps), n_paths=n_good))
    return out
