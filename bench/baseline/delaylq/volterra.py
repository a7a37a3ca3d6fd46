"""Delay-free stochastic Volterra lifting of the delayed LQ problem.

The lifted state stacks (current state, pointwise-delayed state,
distributed-delay integral) into a 3n vector driven by two-time kernels.
All time quadratures here are left-rectangle, matching the Ito (left
point) evaluation used by the simulator.  The one exception is the
reconstruction integrals of past control through the kernels (the B3
terms in the control kernel), which use right-endpoint nodes because
two-time kernels carry no diagonal values; pairing those with the
solver's quadratures keeps the kernel-reconstruction identities exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .problem import DelayLQProblem, validate


def script_e(F: np.ndarray, grid: TimeGrid, i: int, j: int) -> np.ndarray:
    """Running integral of the kernel row: int_{t_j}^{t_i} F(t_i, r) dr.

    Left-rectangle rule; zero matrix when j >= i.
    """
    d1, d2 = F.shape[2], F.shape[3]
    if j >= i:
        return np.zeros((d1, d2))
    return F[i, j:i].sum(axis=0) * grid.dt


def _running_integral_table(F: np.ndarray, dt: float) -> np.ndarray:
    """E[i, j] = sum_{l=j..i-1} F[i, l] dt for j < i, else zero."""
    nn = F.shape[0]
    E = np.zeros_like(F)
    # suffix sums along the second index: E[i, j] = row_total[i] - prefix[i, j]
    prefix = np.concatenate(
        [np.zeros_like(F[:, :1]), np.cumsum(F, axis=1)], axis=1
    )
    for i in range(1, nn):
        E[i, :i] = (prefix[i, i] - prefix[i, :i]) * dt
    return E


@dataclass(frozen=True)
class VolterraProblem:
    """Kernels, free term, and reduced weights of the lifted problem.

    Kernel arrays are (N+1, N+1, ...) with entries for second index <=
    first; the diagonal holds the limiting values used by the backward
    solver's corner handling (indicators off, running integrals empty).
    """

    grid: TimeGrid
    n: int
    m: int
    A: np.ndarray        # (N+1, N+1, 3n, 3n)
    B: np.ndarray        # (N+1, N+1, 3n, m)
    C: np.ndarray        # (N+1, N+1, 3n, 3n)
    D: np.ndarray        # (N+1, N+1, 3n, m)
    btilde: np.ndarray   # (N+1, N+1, 3n)
    sigtilde: np.ndarray  # (N+1, N+1, 3n)
    phi: np.ndarray      # (N+1, 3n)
    Q: np.ndarray        # (N+1, 3n, 3n)
    R: np.ndarray        # (N+1, m, m)
    legacy_cost: float
    E: np.ndarray        # (N+1, N+1, n, n) running integral of F
    U: np.ndarray        # (N+1, N+1, 3n, n) stacked selector
    Acal: np.ndarray     # (N+1, n, 3n) row (A1, A2, A3)
    Ccal: np.ndarray     # (N+1, n, 3n) row (C1, C2, C3)
    source: DelayLQProblem

    def bcal(self, theta: int, t: int) -> np.ndarray:
        """Stacked control column (B1(t); B2(t+delta); B3(theta)Ftilde(theta,t))."""
        p, g = self.source, self.grid
        n, m, k = self.n, self.m, g.delay_steps
        out = np.zeros((3 * n, m))
        out[:n] = p.B1[t]
        if t + k <= g.N:
            out[n:2 * n] = p.B2[t + k]
        if theta > t:
            out[2 * n:] = p.B3[theta] @ p.Ftilde[theta, t]
        return out


def build_volterra(problem: DelayLQProblem) -> VolterraProblem:
    """Assemble the lifted kernels, free term, and reduced cost weights."""
    report = validate(problem)
    report.raise_if_invalid()

    g = problem.grid
    n, m = problem.n, problem.m
    nn, k, dt, N = g.N + 1, g.delay_steps, g.dt, g.N

    E = _running_integral_table(problem.F, dt)

    # stacked selector U[i, j] = (I; 1_{i-j>k} I; E[i, j])
    eye = np.eye(n)
    U = np.zeros((nn, nn, 3 * n, n))
    U[:, :, :n, :] = eye
    idx_i, idx_j = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    delayed = (idx_i - idx_j) > k
    U[:, :, n:2 * n, :] = delayed[:, :, None, None] * eye
    U[:, :, 2 * n:, :] = E

    Acal = np.concatenate([problem.A1, problem.A2, problem.A3], axis=2)
    Ccal = np.concatenate([problem.C1, problem.C2, problem.C3], axis=2)

    # selector-factored kernels; only second index <= first is meaningful
    A = np.einsum("ijab,jbc->ijac", U, Acal)
    C = np.einsum("ijab,jbc->ijac", U, Ccal)
    D = np.einsum("ijab,jbc->ijac", U, problem.D1)
    btilde = np.einsum("ijab,jb->ija", U, problem.b)
    sigtilde = np.einsum("ijab,jb->ija", U, problem.sigma)
    tri = idx_j <= idx_i
    for arr in (A, C, D):
        arr[~tri] = 0.0
    btilde[~tri] = 0.0
    sigtilde[~tri] = 0.0

    # control kernel rows; B2 shifted by the delay, B3 routed through Ftilde
    B = np.zeros((nn, nn, 3 * n, m))
    ind1 = (idx_i - idx_j) > k
    ind2 = (idx_i - idx_j) > 2 * k
    B2s = np.zeros((nn, n, m))
    B2s[: max(nn - k, 0)] = problem.B2[k:]
    B[:, :, :n, :] = problem.B1[None, :, :, :] + ind1[:, :, None, None] * B2s[None]
    B[:, :, n:2 * n, :] = (
        ind1[:, :, None, None] * problem.B1[None]
        + ind2[:, :, None, None] * B2s[None]
    )
    E2 = np.zeros((nn, nn, n, n))
    if k < nn:
        E2[:, : nn - k] = E[:, k:]
    B[:, :, 2 * n:, :] = (
        np.einsum("ijab,jbm->ijam", E, problem.B1)
        + np.einsum("ijab,jbm->ijam", E2, B2s)
    )
    has_b3 = np.abs(problem.B3).max() > 0 and np.abs(problem.Ftilde).max() > 0
    if has_b3:
        for j in range(nn - 1):
            W = np.einsum("tab,tbm->tam", problem.B3[j + 1:], problem.Ftilde[j + 1:, j])
            CW = np.cumsum(W, axis=0) * dt  # CW[p] = sum over theta = j+1 .. j+1+p
            B[j + 1:, j, :n, :] += CW
            # second row stops one delay short of the evaluation time
            if j + k + 2 < nn:
                B[j + k + 2:, j, n:2 * n, :] += CW[: nn - (j + k + 2)]
            B[j + 1:, j, 2 * n:, :] += np.einsum(
                "itab,tbm->iam", E[j + 1:, j + 1:], W
            ) * dt
    B[~tri] = 0.0

    # free term: initial trajectories pushed through the lifting
    x0 = problem.xi[k]
    bw = np.einsum("jam,jm->ja", problem.B2[: min(k, nn)],
                   problem.varsigma[: min(k, nn)]) * dt
    cum_bw = np.concatenate([np.zeros((1, n)), np.cumsum(bw, axis=0)])
    phi = np.zeros((nn, 3 * n))
    for i in range(nn):
        comp1 = x0 + cum_bw[min(i, k, len(cum_bw) - 1)]
        if i <= k:
            comp2 = problem.xi[i]
        else:
            comp2 = x0 + cum_bw[min(k, i - k, len(cum_bw) - 1)]
        inner = x0[None, :] + cum_bw[np.minimum(np.arange(i), k)]
        comp3 = np.einsum("jab,jb->a", problem.F[i, :i], inner) * dt
        phi[i, :n] = comp1
        phi[i, n:2 * n] = comp2
        phi[i, 2 * n:] = comp3

    Q = np.zeros((nn, 3 * n, 3 * n))
    Q[:, :n, :n] = problem.Q1
    Q[:, n:2 * n, n:2 * n] = problem.Q2
    Q[:, 2 * n:, 2 * n:] = problem.Q3
    R = problem.R1.copy()
    if k < N:
        R[: N - k] += problem.R2[k:N]

    legacy = 0.0
    for j in range(min(k, N)):
        legacy += float(problem.varsigma[j] @ problem.R2[j] @ problem.varsigma[j]) * dt

    return VolterraProblem(
        grid=g, n=n, m=m, A=A, B=B, C=C, D=D,
        btilde=btilde, sigtilde=sigtilde, phi=phi, Q=Q, R=R,
        legacy_cost=legacy, E=E, U=U, Acal=Acal, Ccal=Ccal,
        source=problem,
    )


def lift_state(x_path: np.ndarray, u_path: np.ndarray,
               problem: DelayLQProblem) -> np.ndarray:
    """Stack (state, delayed state, distributed-delay integral) per node.

    ``x_path`` has shape (N+1, n); the initial window comes from the
    problem's xi samples.  ``u_path`` is accepted for interface symmetry
    and only shape-checked.
    """
    g = problem.grid
    n, nn, k, dt = problem.n, g.N + 1, g.delay_steps, g.dt
    x_path = np.asarray(x_path, dtype=float)
    if x_path.shape != (nn, n):
        raise ValueError(f"x_path must be ({nn},{n}), got {x_path.shape}")
    if u_path is not None and np.asarray(u_path).shape[0] != nn:
        raise ValueError("u_path length does not match the grid")

    X = np.zeros((nn, 3 * n))
    X[:, :n] = x_path
    for j in range(nn):
        X[j, n:2 * n] = problem.xi[j] if j <= k else x_path[j - k]
        if j > 0:
            X[j, 2 * n:] = np.einsum(
                "jab,jb->a", problem.F[j, :j], x_path[:j]) * dt
    return X


def cost_volterra(X_path: np.ndarray, u_path: np.ndarray,
                  vp: VolterraProblem) -> float:
    """Left-rectangle quadrature of the lifted quadratic cost."""
    N = vp.grid.N
    dt = vp.grid.dt
    X = np.asarray(X_path, dtype=float)[:N]
    u = np.asarray(u_path, dtype=float)[:N]
    qx = np.einsum("ja,jab,jb->", X, vp.Q[:N], X)
    ru = np.einsum("ja,jab,jb->", u, vp.R[:N], u)
    return float((qx + ru) * dt + vp.legacy_cost)
