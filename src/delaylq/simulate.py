"""Euler-Maruyama simulation, Monte-Carlo cost, stationarity testing.

One scheme everywhere: explicit Euler with left-point (Ito) evaluation
of every integrand, matching the left-rectangle quadrature used by the
lifting and cost modules.  Paths are vectorized, and one stepping loop
serves the open and the closed loop.  Each step forms its history
quadratures once, in full, because the memory kernels depend on both
time arguments; the running cost reuses them.
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


def _delayed_state(problem: DelayLQProblem, x: np.ndarray, j: int) -> np.ndarray:
    k = problem.grid.delay_steps
    if j <= k:
        return np.broadcast_to(problem.xi[j], x.shape[0:1] + (problem.n,))
    return x[:, j - k]


def _delayed_control(problem: DelayLQProblem, u: np.ndarray, j: int) -> np.ndarray:
    k = problem.grid.delay_steps
    if j < k:
        return np.broadcast_to(problem.varsigma[j], u.shape[0:1] + (problem.m,))
    return u[:, j - k]


def _memory_integral(kernel: np.ndarray, history: np.ndarray, j: int,
                     dt: float) -> np.ndarray:
    """Distributed-delay integral of ``history`` (paths, nodes, dim) against
    the kernel row j, by left-rectangle quadrature: z_j for the state and
    F, mu_j for the control and Ftilde.

    At j = 0 the sum is empty and the integral an exact zero.
    """
    return np.einsum("lab,plb->pa", kernel[j, :j], history[:, :j]) * dt


def _euler_step(problem: DelayLQProblem, j: int, x: np.ndarray,
                y: np.ndarray, z: np.ndarray, u_j: np.ndarray,
                nu: np.ndarray, mu: np.ndarray, dw: np.ndarray) -> np.ndarray:
    p = problem
    drift = (np.einsum("ab,pb->pa", p.A1[j], x)
             + np.einsum("ab,pb->pa", p.A2[j], y)
             + np.einsum("ab,pb->pa", p.A3[j], z)
             + np.einsum("am,pm->pa", p.B1[j], u_j)
             + np.einsum("am,pm->pa", p.B2[j], nu)
             + np.einsum("ab,pb->pa", p.B3[j], mu)
             + p.b[j])
    diff = (np.einsum("ab,pb->pa", p.C1[j], x)
            + np.einsum("ab,pb->pa", p.C2[j], y)
            + np.einsum("ab,pb->pa", p.C3[j], z)
            + np.einsum("am,pm->pa", p.D1[j], u_j)
            + p.sigma[j])
    return x + drift * problem.grid.dt + diff * dw[:, None]


def _simulate(problem: DelayLQProblem, batch: BrownianBatch,
              control: Callable[..., np.ndarray]) -> SimulationBatch:
    """The Euler-Maruyama loop shared by the open and closed loops.

    ``control(j, x, u, y)`` returns u(t_j) for every path from the state
    history ``x``, the control history ``u`` (filled up to node j-1) and
    the delayed state ``y``.  The running cost is the left-rectangle
    quadrature of the quadratic integrand at nodes 0..N-1, accumulated
    from the same terms the step uses.
    """
    g = problem.grid
    N, n, m, P, dt = g.N, problem.n, problem.m, batch.n_paths, g.dt
    x = np.zeros((P, N + 1, n))
    u = np.zeros((P, N + 1, m))
    costs = np.zeros(P)
    x[:, 0] = problem.xi[g.delay_steps]
    for j in range(N + 1):
        y = _delayed_state(problem, x, j)
        u[:, j] = u_j = control(j, x, u, y)
        if j == N:
            break
        nu = _delayed_control(problem, u, j)
        z = _memory_integral(problem.F, x, j, dt)
        mu = _memory_integral(problem.Ftilde, u, j, dt)
        costs += (np.einsum("pa,ab,pb->p", x[:, j], problem.Q1[j], x[:, j])
                  + np.einsum("pa,ab,pb->p", y, problem.Q2[j], y)
                  + np.einsum("pa,ab,pb->p", z, problem.Q3[j], z)
                  + np.einsum("pa,ab,pb->p", u[:, j], problem.R1[j], u[:, j])
                  + np.einsum("pa,ab,pb->p", nu, problem.R2[j], nu)) * dt
        x[:, j + 1] = _euler_step(problem, j, x[:, j], y, z, u_j, nu, mu,
                                  batch.increments[:, j])

    flagged = (np.abs(x).max(axis=(1, 2)) > BLOWUP_THRESHOLD) | ~np.isfinite(
        x.reshape(P, -1)).all(axis=1)
    return SimulationBatch(x=x, u=u, cost_samples=costs, flagged=flagged)


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
    return _simulate(problem, batch, lambda j, x, u, y: u_paths[:, j])


def simulate_closed_loop(problem: DelayLQProblem, strategy: FeedbackStrategy,
                         batch: BrownianBatch) -> SimulationBatch:
    """Run the feedback loop; u(t_j) uses only information up to t_j."""
    dt = problem.grid.dt

    def feedback(j, x, u, y):
        u_j = (np.einsum("ma,pa->pm", strategy.k1[j], x[:, j])
               + np.einsum("ma,pa->pm", strategy.k3[j], y)
               + strategy.v[j])
        if j > 0:
            u_j += np.einsum("sma,psa->pm", strategy.k2[j, :j], x[:, :j]) * dt
            u_j += np.einsum("smq,psq->pm", strategy.k4[j, :j], u[:, :j]) * dt
        return u_j

    return _simulate(problem, batch, feedback)


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
    """Control scale for the finite-difference step size."""
    rms = float(np.sqrt(np.mean(u ** 2)))
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
    control scale, only sets the rounding.
    """
    g = problem.grid
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 3 or directions.shape[1:] != (g.N + 1, problem.m):
        raise ValueError(
            f"directions must be (D,{g.N + 1},{problem.m}), "
            f"got {directions.shape}")
    base = simulate_closed_loop(problem, strategy, batch)
    eps = 1e-3 * default_direction_scale(base.u)
    out = []
    for direction in directions:
        up = simulate_open_loop(problem, base.u + eps * direction, batch)
        dn = simulate_open_loop(problem, base.u - eps * direction, batch)
        good = ~(base.flagged | up.flagged | dn.flagged)
        diffs = (up.cost_samples[good] - dn.cost_samples[good]) / (2.0 * eps)
        n_good = int(good.sum())
        est = float(diffs.mean()) if n_good else float("nan")
        stderr = float(diffs.std(ddof=1) / np.sqrt(n_good)) if n_good > 1 else 0.0
        out.append(DerivativeEstimate(estimate=est, stderr=stderr,
                                      eps=float(eps), n_paths=n_good))
    return out
