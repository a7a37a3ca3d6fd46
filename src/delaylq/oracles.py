"""Independent cross-checks for the general solver.

Three families: the classical no-delay Riccati/adjoint pair integrated
with fixed-step RK4 (fourth order, so its error is negligible next to
the first-order primary scheme); block extractions of the two-time
solution that must satisfy the specialized coupled Riccati equations of
the control-delay-only and state-delay-only models; and an exact convex
QP solve of the discretized deterministic problem.  Each oracle declares
what it needs of the data once (``CASES``, ``QP_ORACLE``), and
``reduced_case`` picks the special case a problem meets from its data.
Every case check reads the sweep's tables and replays no slice: g1
(``g1_table``), the adjoint's ``eta1``, and the g2 and control columns of
``H`` (case II's P3c, the case I window sums).

Everything here runs under ``delaylq verify``.  The paper's other forms
of the solver's quantities (star products, regrouped evaluators,
pointwise kernel forms) and the specialized feedback laws of the reduced
cases serve only the test suite and live beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import NumericalError, ProblemValidationError
from .problem import FREE_TERMS, DelayLQProblem
from .riccati import RiccatiSolution, _applied, _diagonal
from .simulate import (BrownianBatch, _cost_weight, _history_rows,
                       simulate_open_loop)
from .volterra import VolterraProblem, memory_kernel


# ----------------------------------------------------------------------
# What each oracle needs of the data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Requirement:
    """Fields that must vanish and fields that must not vary in time."""

    label: str
    zero: tuple[str, ...]
    constant: tuple[str, ...] = ()

    def violations(self, problem: DelayLQProblem) -> list[str]:
        varying = [nm for nm in self.constant
                   if np.any(getattr(problem, nm) != getattr(problem, nm)[0])]
        return [f"{self.label}: expected {kind} {', '.join(names)}"
                for kind, names in (("zero", problem.nonzero(*self.zero)),
                                    ("time-invariant", varying)) if names]

    def enforce(self, problem: DelayLQProblem) -> None:
        if violations := self.violations(problem):
            raise ProblemValidationError(violations)


#: The special cases of the Riccati system, most specific first: no delay,
#: control delay only, state delay only with time-invariant coefficients.
CASES = {
    "V": Requirement("case V (no delay)", zero=(
        "A2", "A3", "B2", "B3", "C2", "C3", "Q2", "Q3", "R2", "F", "Ftilde")),
    "I": Requirement("case I (control delay only)", zero=(
        "A2", "A3", "C2", "C3", "Q2", "Q3", "R2", "F", "varsigma",
        *FREE_TERMS)),
    "II": Requirement("case II (state delay only)", zero=(
        "A3", "B2", "B3", "C3", "Q2", "Q3", "R2", "F", "Ftilde", *FREE_TERMS),
        constant=("A1", "A2", "B1", "C1", "C2", "D1", "Q1", "R1")),
}

#: The QP oracle solves the deterministic problem.
QP_ORACLE = Requirement("QP oracle (zero diffusion)",
                        zero=("C1", "C2", "C3", "D1", "sigma"))


def reduced_case(problem: DelayLQProblem) -> str | None:
    """The first key of ``CASES`` whose requirement the data meet."""
    return next((name for name, case in CASES.items()
                 if not case.violations(problem)), None)


# ----------------------------------------------------------------------
# Classical no-delay oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalRiccatiPath:
    P: np.ndarray        # (N+1, n, n)
    eta_t: np.ndarray    # (N+1, n)


def _cho_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (low low^T) x = rhs by two solves against the Cholesky factor."""
    return np.linalg.solve(low.T, np.linalg.solve(low, rhs))


def classical_riccati(problem: DelayLQProblem) -> ClassicalRiccatiPath:
    """RK4 backward integration of the no-delay Riccati/adjoint pair."""
    CASES["V"].enforce(problem)
    g = problem.grid
    N, dt, n = g.N, g.dt, problem.n

    def coeffs(stage_t: float):
        # linear interpolation between node samples
        pos = (stage_t - g.t0) / dt
        j0 = min(max(int(np.floor(pos)), 0), N - 1)
        w = pos - j0

        def at(name):
            tab = getattr(problem, name)
            return (1 - w) * tab[j0] + w * tab[j0 + 1]

        return {nm: at(nm) for nm in
                ("A1", "B1", "C1", "D1", "Q1", "R1", "b", "sigma")}

    def rhs(stage_t: float, P: np.ndarray, eta: np.ndarray):
        c = coeffs(stage_t)
        A1, B1, C1, D1 = c["A1"], c["B1"], c["C1"], c["D1"]
        rc = c["R1"] + D1.T @ P @ D1
        if not np.isfinite(rc).all():
            raise NumericalError(
                f"oracle control weight non-finite near t={stage_t}")
        try:
            low = np.linalg.cholesky(0.5 * (rc + rc.T))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"oracle control weight lost positive definiteness near "
                f"t={stage_t}") from exc
        lhs = P @ B1 + C1.T @ P @ D1                     # (n, m)
        dP = -(P @ A1 + A1.T @ P + C1.T @ P @ C1 + c["Q1"]
               - lhs @ _cho_solve(low, lhs.T))
        closed_a = A1.T - lhs @ _cho_solve(low, B1.T)
        mix = C1.T - lhs @ _cho_solve(low, D1.T)
        deta = -(closed_a @ eta + mix @ (P @ c["sigma"]) + P @ c["b"])
        return dP, deta

    P = np.zeros((N + 1, n, n))
    eta = np.zeros((N + 1, n))
    for j in range(N - 1, -1, -1):
        t1 = g.time(j + 1)
        h = -dt
        p0, e0 = P[j + 1], eta[j + 1]
        k1p, k1e = rhs(t1, p0, e0)
        k2p, k2e = rhs(t1 + h / 2, p0 + h / 2 * k1p, e0 + h / 2 * k1e)
        k3p, k3e = rhs(t1 + h / 2, p0 + h / 2 * k2p, e0 + h / 2 * k2e)
        k4p, k4e = rhs(t1 + h, p0 + h * k3p, e0 + h * k3e)
        Pj = p0 + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        P[j] = 0.5 * (Pj + Pj.T)
        eta[j] = e0 + h / 6 * (k1e + 2 * k2e + 2 * k3e + k4e)

    return ClassicalRiccatiPath(P=P, eta_t=eta)


def classical_gains(problem: DelayLQProblem,
                    oracle: ClassicalRiccatiPath) -> tuple[np.ndarray, np.ndarray]:
    """No-delay feedback pair (state gain, offset) from the oracle path."""
    g = problem.grid
    N, n, m = g.N, problem.n, problem.m
    K1 = np.zeros((N + 1, m, n))
    v = np.zeros((N + 1, m))
    for j in range(N + 1):
        P = oracle.P[j]
        D1, B1, C1 = problem.D1[j], problem.B1[j], problem.C1[j]
        rc = problem.R1[j] + D1.T @ P @ D1
        low = np.linalg.cholesky(0.5 * (rc + rc.T))
        K1[j] = -_cho_solve(low, B1.T @ P + D1.T @ P @ C1)
        v[j] = -_cho_solve(low, B1.T @ oracle.eta_t[j]
                           + D1.T @ P @ problem.sigma[j])
    return K1, v


@dataclass(frozen=True)
class CaseVReport:
    """Max-norm gaps between the lifted solution's no-delay embedding
    and the classical oracle path/gains."""

    p_error: float
    eta_error: float
    k1_error: float
    v_error: float


def casev_consistency(P: RiccatiSolution, strategy,
                      oracle: ClassicalRiccatiPath,
                      vp: VolterraProblem) -> CaseVReport:
    # with the delay block dead and E = 0, the no-delay embeddings are the
    # selector sums g1 and eta1: U(r, l)^T eta(r, l) = eta(r, l)[:n]
    p_err = float(np.abs(P.g1_table - oracle.P).max())
    eta_err = float(np.abs(P.eta1 - oracle.eta_t).max())
    k1o, vo = classical_gains(vp.source, oracle)
    k1_err = float(np.abs(strategy.k1 - k1o).max())
    v_err = float(np.abs(strategy.v - vo).max())
    return CaseVReport(p_error=p_err, eta_error=eta_err,
                       k1_error=k1_err, v_error=v_err)


# ----------------------------------------------------------------------
# Case II: state delays only, time-invariant coefficients
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CaseIIExtraction:
    P2c: np.ndarray     # (N+1, n, n)
    P3c: np.ndarray     # (N+1, N+1, n, n); P3c[l, q] for l <= q <= l+k


@dataclass(frozen=True)
class CaseIIResiduals:
    ode_late: float         # value-kernel ODE on (T-delay, T]
    ode_early: float        # value-kernel ODE on [t0, T-delay]
    transport_late: float
    transport_early: float
    diagonal: float         # boundary relation at the diagonal


def caseii_extract(P: RiccatiSolution, vp: VolterraProblem) -> CaseIIExtraction:
    problem = vp.source
    CASES["II"].enforce(problem)
    g = vp.grid
    N, dt, n, k = g.N, g.dt, vp.n, g.delay_steps

    # P3c[l, q] for q = l..l+k is block (1, 2) of p1(q) U(q, l) plus the
    # slice at node l summed against the selector column U(., l): with
    # E = 0 that is the transpose of rows n:2n of g2(q, l), which the sweep
    # stored in H
    d = 3 * n
    P3c = np.zeros((N + 1, N + 1, n, n))
    for l in range(N + 1):
        Q = min(k, N - l) + 1
        g2 = P.row(l)[:n, :Q * d].reshape(n, Q, d)
        P3c[l, l:l + Q] = g2[..., n:2 * n].transpose(1, 0, 2)
    # P2c, the selector sandwich with E = 0, is the sweep's g1
    return CaseIIExtraction(P2c=P.g1_table, P3c=P3c)


def caseii_residual(ext: CaseIIExtraction,
                    problem: DelayLQProblem) -> CaseIIResiduals:
    g = problem.grid
    N, dt, k = g.N, g.dt, g.delay_steps
    A1, A2 = problem.A1[0], problem.A2[0]
    B1, C1, C2, D1 = problem.B1[0], problem.C1[0], problem.C2[0], problem.D1[0]
    Q1, R1 = problem.Q1[0], problem.R1[0]
    P2, P3 = ext.P2c, ext.P3c

    rci = np.linalg.inv(R1 + D1.T @ P2 @ D1)
    lhs = B1.T @ P2 + D1.T @ P2 @ C1
    dpc = D1.T @ P2 @ C2
    bp3 = B1.T @ P3                             # [s, q] = B1^T P3c(s, q)

    ode_late = ode_early = tr_late = tr_early = 0.0
    for l in range(1, N + 1):
        late, early = l >= N - k + 2, l <= N - k
        fd = -(P2[l] - P2[l - 1]) / dt
        rhs = (P2[l] @ A1 + A1.T @ P2[l] + C1.T @ P2[l] @ C1 + Q1
               - lhs[l].T @ rci[l] @ lhs[l])
        if late:
            ode_late = max(ode_late, float(np.abs(fd - rhs).max()))
        elif early:
            cross = D1.T @ P2[l + k] @ C2
            rhs = rhs + (C2.T @ P2[l + k] @ C2 + P3[l, l + k]
                         + P3[l, l + k].T - cross.T @ rci[l] @ cross)
            ode_early = max(ode_early, float(np.abs(fd - rhs).max()))

        # the transport over q = l+1..hi-1, all q of the node at once
        hi = min(l + k - 1, N) + 1
        if hi == l + 1 or not (late or early):
            continue
        qs = slice(l + 1, hi)
        fd = -(P3[l, qs] - P3[l - 1, qs]) / dt
        rhs = A1.T @ P3[l, qs] - (lhs[l].T @ rci[l]) @ bp3[l, qs]
        if late:
            tr_late = max(tr_late, float(np.abs(fd - rhs).max()))
            continue
        # [s, q] = (B1^T P3c(s, l+k))^T rci (B1^T P3c(s, q)) dt, s and q
        # in l+1..hi-1; its running sums over s add in a loop's order, and
        # the transport at q reads the sum up to s = q
        lead = bp3[qs, l + k].swapaxes(-1, -2) @ rci[l]
        s_sums = np.cumsum((lead[:, None] @ bp3[qs, qs]) * dt, axis=0)
        extra = (P3[qs, l + k].swapaxes(-1, -2) @ A2
                 - (bp3[qs, l + k].swapaxes(-1, -2) @ rci[l]) @ dpc[l])
        on = np.arange(hi - l - 1)
        rhs = rhs + extra - s_sums[on, on]
        tr_early = max(tr_early, float(np.abs(fd - rhs).max()))

    rel = (P2 @ A2 + C1.T @ P2 @ C2
           - lhs.swapaxes(-1, -2) @ rci @ dpc)
    diag = float(np.abs(P3[np.arange(N + 1), np.arange(N + 1)] - rel).max())

    return CaseIIResiduals(ode_late=ode_late, ode_early=ode_early,
                           transport_late=tr_late, transport_early=tr_early,
                           diagonal=diag)


# ----------------------------------------------------------------------
# Case I: control delays only
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CaseIExtraction:
    """First-block window sums of the solution at each base node l.

    With p1script(l, a, b) the (1,1)-block window sum for a, b >= l (the
    first kernel over s > max(a, b) plus the pair kernel over
    {s > b} x {alpha > a} at base node l), ``S0``, ``S1`` and ``S2`` are
    its contractions with the control columns B2 and B3 Ftilde, and
    ``p1row`` keeps the one part the boundary residual reads again.
    """

    S0: np.ndarray      # (N+1, n, n)
    S1: np.ndarray      # (N+1, k+1, m, n); lag index q: theta = (q-k)dt
    S2: np.ndarray      # (N+1, k+1, k+1, m, m)
    p1row: np.ndarray   # (N+1, N+1, n, n); [l, theta] = p1script(l, theta, l)


@dataclass(frozen=True)
class CaseIResiduals:
    ode: float          # pointwise-kernel ODE
    transport1: float   # single-lag transport
    transport2: float   # double-lag transport
    boundary: float     # lag-edge relation


def _shifted_memory_kernel(problem: DelayLQProblem) -> np.ndarray:
    """G[theta, s + k] = B3(theta) Ftilde(theta, s), zero for s < 0."""
    k = problem.grid.delay_steps
    return np.pad(memory_kernel(problem), ((0, 0), (k, 0), (0, 0), (0, 0)))


def _masked_max(err: np.ndarray, mask: np.ndarray) -> float:
    """Largest |entry| of the blocks selected by ``mask``; 0 if none.

    Works in place: ``err`` is overwritten.
    """
    err[~mask] = 0.0
    return float(np.abs(err, out=err).max(initial=0.0))


def casei_extract(P: RiccatiSolution, vp: VolterraProblem) -> CaseIExtraction:
    """Control-delay extraction from the factor table, no slice replayed.

    A case I problem keeps the solution on the first block, where the
    selector is the identity, so the g2 columns the sweep stored in H are
    the window sums' raw material.  p1script(l, a, b) is the sum over
    {s > b} x {alpha > a} of the kernel dt^2 p2(s, alpha, l) + dt p1(s)
    [s = alpha] on the first block, and:

    - ``p1row[l, theta]`` = dt sum_{a > theta} g2(a, l)^T, one suffix sum
      over H's first-block columns; S0 is the sweep's ``g1_table``;
    - ``S1[l, q]`` = B2(l+q)^T p1row[l, l+q]^T, and S2's lag-0 row and
      column are S1 times B2(l);
    - every other entry of S2 is carried along its diagonal: for q, p >= 1
      the slices differ by the Euler step of node l+1 alone, so
      S2[l, q, p] = S2[l+1, q-1, p-1] - dt^3 e(q) rcal_inv(l+1) e(p)^T,
      e(q) = B2(l+q)^T sum_{a > l+q} pb(a, l+1)[:n], the suffix sums of
      the control products' first rows.

    Time is O(N^2 n (n+m)) for the suffix sums and O(N k^2 m^2) for the
    window; besides S1 and S2 it keeps the O(N^2) table ``p1row``.  The
    memory channel adds the terms ``_memory_window_terms`` forms.
    """
    problem = vp.source
    CASES["I"].enforce(problem)
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    nn, w = N + 1, n + m

    # sums[l, :, j] = sum over a > j of the first-block columns of H's row
    # l, [g2 | pb](a, l)^T[:, :n], for j >= l; zero past the horizon
    sums = np.zeros((nn, w, nn + k, n))
    for r, rows in P.rows():
        nr = len(rows)
        np.cumsum(rows.reshape(nr, w, nn - r, 3 * n)[:, :, :0:-1, :n], axis=2,
                  out=sums[r:r + nr, :, r:N][:, :, ::-1])
    p1row = sums[:, :n, :nn].transpose(0, 2, 1, 3) * dt
    p1row[np.tril_indices(nn, -1)] = 0.0

    B2 = np.zeros((nn + k, n, m))                        # zero past t_N
    B2[:nn] = problem.B2
    window = np.arange(nn)[:, None] + np.arange(k + 1)
    Bw = B2[window]                                      # [l, q] = B2(l+q)
    # [l, q] = p1row[l, l+q], zero past the horizon
    lags = sums[np.arange(nn)[:, None], :n, window] * dt
    S1 = Bw.swapaxes(-1, -2) @ lags.swapaxes(-1, -2)

    S2 = np.zeros((nn, k + 1, k + 1, m, m))
    S2[:, :, 0] = S1 @ problem.B2[:, None]
    S2[:, 0, 1:] = S2[:, 1:, 0].swapaxes(-1, -2)
    for l in range(N - 1, -1, -1):
        tails = sums[l + 1, n:, l + 1:l + k + 1].transpose(1, 2, 0)
        e = Bw[l, 1:].swapaxes(-1, -2) @ tails
        step = ((e @ P.rcal_inv[l + 1]).reshape(k * m, m)
                @ e.reshape(k * m, m).T) * dt ** 3
        np.subtract(S2[l + 1, :-1, :-1],
                    step.reshape(k, m, k, m).transpose(0, 2, 1, 3),
                    out=S2[l, 1:, 1:])
    if problem.has_memory:
        _memory_window_terms(P, problem, p1row, Bw, S1, S2)
    return CaseIExtraction(S0=P.g1_table, S1=S1, S2=S2, p1row=p1row)


def _memory_window_terms(P: RiccatiSolution, problem: DelayLQProblem,
                         p1row: np.ndarray, Bw: np.ndarray, S1: np.ndarray,
                         S2: np.ndarray) -> None:
    """Add the memory channel's terms to S1 and S2 in place.

    At node l, with G_p(theta) = B3(theta) Ftilde(theta, l+p-k) and its
    prefix sums PG_p(s) = sum_{l < theta < s} G_p(theta), every sum of K
    against G becomes K applied to PG: Z_p = dt p1 PG_p + dt^2 p2 PG_p,
    the slice applied by the sweep's ``_applied``.  S1 gains
    dt sum_theta G_q(theta)^T p1row[l, theta]^T, S2 the cross term
    B2(l+q)^T dt sum_{s > l+q} Z_p(s), its swap transpose, and
    dt^2 sum_s Z_q(s)^T PG_p(s).  Each node applies one slice to (k+1) m
    columns, in blocks of nodes with at most 80 columns together (one node
    per block from (k+1) m = 41 on, where a node's columns alone fill a
    GEMM): O(N^3 k) time, O(N (k+1) m n) extra memory per node of a
    block.
    """
    N, dt, n, m = P.N, P.dt, P.n, P.m
    k = S1.shape[1] - 1
    G = _shifted_memory_kernel(problem)
    # the factors' first-block columns, in the stored blocks: every term of
    # the slice splits by blocks, so these apply its (1, 1) block, the only
    # live one
    H1 = tuple(np.ascontiguousarray(
        blk.reshape(blk.shape[:2] + (-1, 3 * n))[..., :n]).reshape(
            blk.shape[:2] + (-1,)) for blk in P.H)
    W1 = P.W[:, :, :n]
    corner = _diagonal(H1, n).swapaxes(-1, -2) @ W1      # H(l, l) W(l)
    corner = 0.5 * (corner + corner.swapaxes(-1, -2))
    cols = (k + 1) * m

    def fill(a: int, c: int, U: np.ndarray):
        # PG over nodes l+1..N, zero at l+1; rows up to l are not read
        for l in range(a, min(c, N)):
            u = U[l - a:, :, l - a]
            u[1] = 0.0
            np.cumsum(G[l + 1:N, l:l + k + 1].transpose(0, 2, 1, 3), axis=0,
                      out=u[2:].reshape(N - l - 1, n, k + 1, m))

    for l, u, Z in _applied(H1, W1, corner, P.rcal_inv, cols, fill, dt,
                            P.p1[:, :n, :n]):
        if l == N:
            continue
        M, PG = N - l, u[1:]
        Gw = G[l + 1:, l:l + k + 1]        # [theta, q] = G(theta, l+q-k)
        S1[l] += np.einsum("tqac,tba->qcb", Gw, p1row[l, l + 1:]) * dt
        Z *= dt
        tail = np.zeros((max(M, k + 1), n, cols))    # sum over s > l+q
        np.cumsum(Z[::-1], axis=0, out=tail[M - 1::-1])
        col_g = tail[:k + 1].reshape(k + 1, n, k + 1, m) * dt
        cross = np.einsum("qam,qapc->qpmc", Bw[l], col_g)
        double = (Z.reshape(M * n, cols).T @ PG.reshape(M * n, cols)
                  ) * (dt * dt)
        S2[l] += (cross + cross.transpose(1, 0, 3, 2)
                  + double.reshape(k + 1, m, k + 1, m).transpose(0, 2, 1, 3))


def casei_residual(ext: CaseIExtraction,
                   problem: DelayLQProblem) -> CaseIResiduals:
    """Finite-difference residuals of the control-delay equations.

    Transport residuals are evaluated along characteristics on interior
    lag nodes; when the memory channel is active the zero-lag row is
    skipped because its drift references the kernel diagonal, which has
    no discrete value.  All nodes and lags are evaluated at once; each
    maximum runs over the (l, q) or (l, q, p) with l + q - k >= 0
    (and l + p - k >= 0).  Terms are combined in the order of the
    per-node formulas, so without the memory channel a scalar problem
    gets the same bits as a node-by-node evaluation.
    """
    g = problem.grid
    N, dt, k = g.N, g.dt, g.delay_steps
    memory = problem.has_memory
    q_hi = k if not memory else k - 1
    S0, S1, S2 = ext.S0, ext.S1, ext.S2
    A1, B1, C1, D1 = problem.A1, problem.B1, problem.C1, problem.D1

    def tr(M):
        return M.swapaxes(-1, -2)

    rci = np.linalg.inv(problem.R1 + tr(D1) @ S0 @ D1)
    brace = tr(B1) @ S0 + S1[:, k] + tr(D1) @ S0 @ C1

    fd = (S0[1:] - S0[:-1]) / dt
    rhs = (tr(A1) @ S0 + S0 @ A1 + problem.Q1 + tr(C1) @ S0 @ C1
           - tr(brace) @ rci @ brace)
    ode = float(np.abs(fd + rhs[1:]).max())

    # transports at l = 0..N-1 over lags q, p = 1..q_hi
    lag, ahead = slice(1, q_hi + 1), slice(0, q_hi)
    valid = np.arange(N)[:, None] + np.arange(1, q_hi + 1) - k >= 0
    S1q = S1[:-1, lag]
    near = (S1q @ B1[:-1, None] + S2[:-1, lag, k]) @ rci[:-1, None]
    far = tr(B1[:-1, None]) @ tr(S1q) + S2[:-1, k, lag]
    err1 = (S1[1:, ahead] - S1q) / dt
    rhs = S1q @ A1[:-1, None]
    err2 = S2[1:, ahead, ahead] - S2[:-1, lag, lag]   # (N, q_hi, q_hi) blocks
    err2 /= dt
    prod = near[:, :, None] @ far[:, None, :]
    if memory:
        G = _shifted_memory_kernel(problem)
        nodes = np.arange(N)[:, None]
        Gl = G[nodes, nodes + np.arange(1, q_hi + 1)]
        rhs = tr(Gl) @ S0[:-1, None] + rhs
        mem = tr(Gl)[:, :, None] @ tr(S1q)[:, None, :]
        err2 += (mem + tr(mem).swapaxes(1, 2)) - prod
    else:
        err2 -= prod
    rhs = rhs - near @ brace[:-1, None]
    tr1 = _masked_max(err1 + rhs, valid)
    tr2 = _masked_max(err2, valid[:, :, None] & valid[:, None, :])

    edge = tr(problem.B2) @ S0
    edge_nodes = np.arange(N + 1) >= (k if memory else 0)
    if memory:
        # G(theta, l-k) against p1script(l, theta, l) over theta > l
        later = np.triu(np.ones((N + 1, N + 1), dtype=bool), 1)
        edge = edge + np.einsum("ltac,ltba->lcb", G[:, :N + 1].swapaxes(0, 1),
                                ext.p1row * later[:, :, None, None]) * dt
    bnd = _masked_max(S1[:, 0] - edge, edge_nodes)

    return CaseIResiduals(ode=ode, transport1=tr1, transport2=tr2, boundary=bnd)


# ----------------------------------------------------------------------
# Deterministic convex QP oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QpOracleResult:
    u_opt: np.ndarray      # (N+1, m); terminal node unused, kept zero
    cost_opt: float
    kkt_residual: float
    gradient_norm: float   # norm of the affine part, for relative checks


def _cost_integrand(problem: DelayLQProblem, u: np.ndarray) -> np.ndarray:
    """[x y z u nu] at nodes 0..N-1 of the noise-free open loops that the
    controls u (P, N+1, m) drive, (P, N, 3n+2m): y and nu are shifts of
    x and u behind the initial windows, z one product against F."""
    g = problem.grid
    N, n, m, k, P = g.N, problem.n, problem.m, g.delay_steps, u.shape[0]
    x = simulate_open_loop(problem, u, BrownianBatch(
        seed=0, n_paths=P, increments=np.zeros((P, N)))).x
    F = _history_rows(problem.F)[:N].transpose(1, 0, 2).reshape(-1, N * n)
    w = np.empty((P, N, 3 * n + 2 * m))
    head = min(k + 1, N)                      # y(t_j) = xi(t_j) for j <= k
    w[:, :head, n:2 * n] = problem.xi[:head]
    w[:, head:, n:2 * n] = x[:, 1:max(N - k, 1)]
    w[..., :n], w[..., 3 * n:3 * n + m] = x[:, :N], u[:, :N]
    w[..., 2 * n:3 * n] = (x.reshape(P, -1) @ F).reshape(P, N, n) * g.dt
    head = min(k, N)                          # nu(t_j) = varsigma(t_j), j < k
    w[:, :head, 3 * n + m:] = problem.varsigma[:head]
    w[:, head:, 3 * n + m:] = u[:, :max(N - k, 0)]
    return w


def _qp_terms(problem: DelayLQProblem):
    """The discrete cost as c0 + gvec.u + u.H.u/2 in the stacked control
    u = (u(t_0), .., u(t_{N-1})): H from the unit-impulse responses of the
    homogeneous dynamics, gvec and c0 from the zero-control response, all
    from one product of (w Qblk) against w."""
    N, m, dt = problem.grid.N, problem.m, problem.grid.dt
    nb = N * m
    impulses = np.zeros((nb, N + 1, m))
    impulses[:, :N] = np.eye(nb).reshape(nb, N, m)
    hom = replace(problem, b=np.zeros_like(problem.b),
                  xi=np.zeros_like(problem.xi),
                  varsigma=np.zeros_like(problem.varsigma))
    w = np.concatenate([_cost_integrand(hom, impulses),
                        _cost_integrand(problem, np.zeros((1, N + 1, m)))])
    q = w[:, :, None] @ _cost_weight(problem)[:N]
    G = (q.reshape(nb + 1, -1) @ w.reshape(nb + 1, -1).T) * dt
    return G[:nb, :nb] + G[:nb, :nb].T, 2.0 * G[:nb, nb], float(G[nb, nb])


def deterministic_qp_oracle(problem: DelayLQProblem) -> QpOracleResult:
    """Exact minimizer of the discretized deterministic problem.

    The discrete cost is an explicit convex quadratic in the stacked
    control; the Hessian is assembled from unit-impulse responses of
    the linear dynamics and factorized directly.
    """
    QP_ORACLE.enforce(problem)
    N, m = problem.grid.N, problem.m
    H, gvec, c0 = _qp_terms(problem)

    if not np.isfinite(H).all():
        raise NumericalError("QP Hessian is not finite")
    try:
        np.linalg.cholesky(H)                  # the convexity check
    except np.linalg.LinAlgError as exc:
        raise NumericalError("QP Hessian is not positive definite") from exc
    u_flat = np.linalg.solve(H, -gvec)
    kkt = float(np.linalg.norm(H @ u_flat + gvec))
    cost = float(c0 + gvec @ u_flat + 0.5 * u_flat @ H @ u_flat)
    u_opt = np.zeros((N + 1, m))
    u_opt[:N] = u_flat.reshape(N, m)
    return QpOracleResult(u_opt=u_opt, cost_opt=cost, kkt_residual=kkt,
                          gradient_norm=float(np.linalg.norm(gvec)))
