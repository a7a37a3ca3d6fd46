"""Delay-free stochastic Volterra lifting of the delayed LQ problem.

The lifted state stacks (current state, pointwise-delayed state,
distributed-delay integral) into a 3n vector driven by two-time kernels.
All time quadratures here are left-rectangle, matching the Ito (left
point) evaluation used by the simulator.  The one exception is the
reconstruction integrals of past control through the kernels (the B3
terms in the control kernel), which use right-endpoint nodes because
two-time kernels carry no diagonal values; pairing those with the
solver's quadratures keeps the kernel-reconstruction identities exact.

No two-time kernel is stored whole.  Each is the selector U(t, s) =
(I; 1{t-s>delay} I; E(t, s)) times node data: A = U Acal, C = U Ccal,
D = U D1, btilde and sigtilde likewise from b and sigma, and the control
kernel B places B1(s), B2(s+delay) and running sums of the memory column
B3 Ftilde by the same indicators.  ``VolterraProblem.lifted_columns``
writes [U | B] for a block of base nodes; it is the one place that
knows the layout of a lifted column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .problem import DelayLQProblem, validate


#: multiply-adds per BLAS call in ``_by_node_rows``; OpenBLAS runs a GEMM
#: of up to 2^18 of them on one thread
_CALL_MACS = 2 ** 17


def _by_node_rows(A: np.ndarray, B: np.ndarray, w: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """A @ B for A (R, K) with rows in node blocks of w, as BLAS calls over
    whole node blocks of at most _CALL_MACS multiply-adds each (one block
    if B alone exceeds that).  Where one block against all of B would pass
    the one-thread limit 2 _CALL_MACS, B's columns are split as well, into
    chunks of at most 32: calls of a few node blocks against 32 columns
    run 2.5x faster than one block against as many columns as fit.  A
    split moves sums by an ulp, so it is made only there.  A single product
    over a matrix of side ~500 or more is split across threads, and its
    sums then change with the thread count; these calls run on one.  The
    product goes to ``out`` (R, k) if given."""
    R, K = A.shape
    M, k = R // w, B.shape[1]
    kc = (k if w * K * k <= 2 * _CALL_MACS      # columns per call
          else max(1, min(32, _CALL_MACS // (w * K))))
    g = max(1, _CALL_MACS // (w * K * kc))       # node blocks per call
    full = M - M % g
    if not full and kc == k:                     # one call, as below
        return np.matmul(A, B, out=out)
    out = np.empty((R, k)) if out is None else out
    for c in range(0, k, kc):
        Bc, cols = B[:, c:c + kc], slice(c, c + kc)
        if full:
            np.matmul(A[:full * w].reshape(full // g, g * w, K), Bc,
                      out=out[:full * w, cols].reshape(full // g, g * w, -1))
        if full < M:
            np.matmul(A[full * w:], Bc, out=out[full * w:, cols])
    return out


def _node_product(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """scale sum_{r, x} a[t, i, r, x] b[r, x, s, j] as (t, s, i, j), in
    the bounded BLAS calls of ``_by_node_rows``: one product over every
    node is split across threads from N ~ 480 on, and its sums then change
    with the thread count.  A strided operand is copied contiguous first;
    a caller that applies one b to many blocks of rows of a passes it
    contiguous, so that it is copied once."""
    nt, i, nr, x = a.shape
    ns, j = b.shape[2:]
    # contiguous operands: a strided view (reshape returns one where it
    # can) falls back to numpy's loop in place of BLAS, ~6x slower
    out = _by_node_rows(np.ascontiguousarray(a.reshape(nt * i, nr * x)),
                        np.ascontiguousarray(b.reshape(nr * x, ns * j)), i)
    out *= scale
    return out.reshape(nt, i, ns, j).transpose(0, 2, 1, 3)


def _running_integral_table(F: np.ndarray, dt: float) -> np.ndarray:
    """E[i, j] = sum_{l=j..i-1} F[i, l] dt for j < i, else zero."""
    nn = F.shape[0]
    # suffix sums along the second index: E[i, j] = prefix[i, i] - prefix[i, j]
    prefix = np.concatenate(
        [np.zeros_like(F[:, :1]), np.cumsum(F, axis=1)], axis=1
    )
    nodes = np.arange(nn)
    E = (prefix[nodes, nodes][:, None] - prefix[:, :nn]) * dt
    for i in range(nn):
        E[i, i:] = 0.0
    return E


def memory_kernel(problem: DelayLQProblem, lo: int = 0,
                  hi: int | None = None) -> np.ndarray:
    """B3(theta) Ftilde(theta, s), the memory channel's control column, as
    [theta - lo, s - lo] blocks for theta >= lo, lo <= s < hi: +0.0 where
    theta <= s, so its running sums over theta hold only theta > s."""
    W = np.einsum("tab,tsbm->tsam", problem.B3[lo:],
                  problem.Ftilde[lo:, lo:hi])
    for s in range(W.shape[1]):
        W[:s + 1, s] = 0.0
    return W


@dataclass(frozen=True)
class VolterraProblem:
    """Kernels, free term, and reduced weights of the lifted problem.

    Kernel entries at (t_i, t_j) exist for j <= i; the diagonal holds the
    limiting values used by the backward solver's corner handling
    (indicators off, running integrals empty).  ``lifted_columns`` writes
    the columns from ``E`` and the source's data; of B only the memory
    rows' sums over E, ``memory_sums``, are stored: a block's columns read
    them over every later node, so they are formed once.
    """

    grid: TimeGrid
    n: int
    m: int
    phi: np.ndarray      # (N+1, 3n)
    Q: np.ndarray        # (N+1, 3n, 3n)
    R: np.ndarray        # (N+1, m, m)
    legacy_cost: float
    E: np.ndarray        # (N+1, N+1, n, n) running integral of F
    # (N+1, N+1, n, m): [i, j] = sum_theta E(i, theta) B3(theta)
    # Ftilde(theta, j) dt; None without the memory channel
    memory_sums: np.ndarray | None
    Acal: np.ndarray     # (N+1, n, 3n) row (A1, A2, A3)
    Ccal: np.ndarray     # (N+1, n, 3n) row (C1, C2, C3)
    source: DelayLQProblem

    def lifted_columns(self, a: int = 0, c: int | None = None) -> np.ndarray:
        """[U | B](t_i, t_l) for the base nodes l = a..c-1 (c = N+1 by
        default) on the rows i = a..N, as [i - a, l - a] blocks (3n, n + m),
        zero for i < l.  The indicators come from the offsets i - l, so a
        block costs O((N - a)(c - a)), and each block is the dense table's
        bit for bit."""
        g, src, n, m = self.grid, self.source, self.n, self.m
        nn, k, dt = g.N + 1, g.delay_steps, g.dt
        c = nn if c is None else c
        M, w = nn - a, c - a
        out = np.zeros((M, w, 3 * n, n + m))
        lag = np.arange(M)[:, None] - np.arange(w)      # i - l
        out[lag >= 0, :n, :n] = np.eye(n)
        out[lag > k, n:2 * n, :n] = np.eye(n)
        out[:, :, 2 * n:, :n] = self.E[a:, a:c]

        # control kernel rows; B2 shifted by the delay, B3 routed through
        # Ftilde
        delayed = (lag > k)[:, :, None, None]
        B, B1 = out[..., n:], src.B1[a:c]
        shift = max(nn - k - a, 0)            # columns with l + delay <= N
        B2s = np.zeros((w, n, m))
        B2s[:shift] = src.B2[a + k:c + k]
        B[:, :, :n] = B1[None] + delayed * B2s[None]
        B[:, :, n:2 * n] = (delayed * B1[None]
                            + (lag > 2 * k)[:, :, None, None] * B2s[None])
        E2 = np.zeros((M, w, n, n))
        E2[:, :shift] = self.E[a:, a + k:c + k]
        B[:, :, 2 * n:] = (np.einsum("ijab,jbm->ijam", self.E[a:, a:c], B1)
                           + np.einsum("ijab,jbm->ijam", E2, B2s))
        if self.memory_sums is not None:
            # running sums CW[i, l] = sum_{theta=l+1}^{i} W[theta, l] dt of
            # the memory column, added where i > l
            later = (lag > 0)[:, :, None, None]
            CW = np.cumsum(memory_kernel(src, a, c), axis=0) * dt
            blk = B[:, :, :n]
            np.add(blk, CW, out=blk, where=later)
            # second row stops one delay short of the evaluation time
            if k + 1 < M:
                blk = B[k + 1:, :, n:2 * n]
                np.add(blk, CW[:M - k - 1], out=blk, where=later[:M - k - 1])
            blk = B[:, :, 2 * n:]
            np.add(blk, self.memory_sums[a:, a:c], out=blk, where=later)
        B[lag < 0] = 0.0
        return out


def lifted_kernel(vp: VolterraProblem, row: np.ndarray,
                  columns: np.ndarray | None = None) -> np.ndarray:
    """Dense table U(t_i, t_j) row(t_j) for j <= i, zero above the diagonal.

    ``row`` is a coefficient row (N+1, n, c), giving a kernel such as
    A from Acal, or a free-term row (N+1, n), giving btilde from b.
    ``columns`` is ``vp.lifted_columns()``, formed here if not given.
    """
    columns = vp.lifted_columns() if columns is None else columns
    sub = "ijab,jb->ija" if row.ndim == 2 else "ijab,jbc->ijac"
    return np.einsum(sub, columns[..., :vp.n], row)


def build_volterra(problem: DelayLQProblem) -> VolterraProblem:
    """Assemble the running integrals, free term, and reduced cost weights."""
    report = validate(problem)
    report.raise_if_invalid()

    g = problem.grid
    n, m = problem.n, problem.m
    nn, k, dt, N = g.N + 1, g.delay_steps, g.dt, g.N

    E = _running_integral_table(problem.F, dt)
    Acal = np.concatenate([problem.A1, problem.A2, problem.A3], axis=2)
    Ccal = np.concatenate([problem.C1, problem.C2, problem.C3], axis=2)

    # the control kernel's third row sums the memory column against E,
    # sum_{theta>j} E[i, theta] W[theta, j] dt, over every node at once
    memory_sums = None
    if problem.has_memory:
        W = memory_kernel(problem)
        memory_sums = _node_product(E.transpose(0, 2, 1, 3),
                                    W.transpose(0, 2, 1, 3), dt)

    # free term: the lifted state of the initial trajectory, x0 plus the
    # running integral of B2 varsigma over the initial window
    x0 = problem.xi[k]
    bw = np.einsum("jam,jm->ja", problem.B2[: min(k, nn)],
                   problem.varsigma[: min(k, nn)]) * dt
    cum_bw = np.concatenate([np.zeros((1, n)), np.cumsum(bw, axis=0)])
    phi = lift_state(x0 + cum_bw[np.minimum(np.arange(nn), len(cum_bw) - 1)],
                     problem)

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
        grid=g, n=n, m=m, phi=phi, Q=Q, R=R, legacy_cost=legacy, E=E,
        memory_sums=memory_sums, Acal=Acal, Ccal=Ccal,
        source=problem,
    )


def lift_state(x_path: np.ndarray, problem: DelayLQProblem) -> np.ndarray:
    """Stack (state, delayed state, distributed-delay integral) per node.

    ``x_path`` has shape (N+1, n); the initial window comes from the
    problem's xi samples.
    """
    g = problem.grid
    n, nn, k, dt = problem.n, g.N + 1, g.delay_steps, g.dt
    x_path = np.asarray(x_path, dtype=float)
    if x_path.shape != (nn, n):
        raise ValueError(f"x_path must be ({nn},{n}), got {x_path.shape}")

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
