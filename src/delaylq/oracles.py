"""Independent cross-checks for the general solver.

Three families: the classical no-delay Riccati/adjoint pair integrated
with fixed-step RK4 (fourth order, so its error is negligible next to
the first-order primary scheme); block extractions of the two-time
solution that must satisfy the specialized coupled Riccati equations of
the control-delay-only and state-delay-only models; and an exact convex
QP solve of the discretized deterministic problem.

Also here: the pointwise reference forms the solver's tables are checked
against (``script_e``, ``bcal``), the star products over replayed slices
and the regrouped evaluators (pi_matrix, g1/g2/g3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import NumericalError, ProblemValidationError
from .grid import TimeGrid
from .problem import DelayLQProblem
from .riccati import RiccatiSolution
from .simulate import BrownianBatch, simulate_open_loop
from .volterra import VolterraProblem


# ----------------------------------------------------------------------
# Pointwise forms of the lifted kernels
# ----------------------------------------------------------------------

def script_e(F: np.ndarray, grid: TimeGrid, i: int, j: int) -> np.ndarray:
    """Running integral of the kernel row: int_{t_j}^{t_i} F(t_i, r) dr.

    Left-rectangle rule; zero matrix when j >= i.
    """
    d1, d2 = F.shape[2], F.shape[3]
    if j >= i:
        return np.zeros((d1, d2))
    return F[i, j:i].sum(axis=0) * grid.dt


def bcal(vp: VolterraProblem, theta: int, t: int) -> np.ndarray:
    """Stacked control column (B1(t); B2(t+delta); B3(theta)Ftilde(theta,t))."""
    p, g = vp.source, vp.grid
    n, m, k = vp.n, vp.m, g.delay_steps
    out = np.zeros((3 * n, m))
    out[:n] = p.B1[t]
    if t + k <= g.N:
        out[n:2 * n] = p.B2[t + k]
    if theta > t:
        out[2 * n:] = p.B3[theta] @ p.Ftilde[theta, t]
    return out


# ----------------------------------------------------------------------
# Star products over replayed slices (quadrature: right nodes {t+1..N})
# ----------------------------------------------------------------------

def star_left(M1: np.ndarray, P: RiccatiSolution, vp: VolterraProblem,
              s: int, t: int) -> np.ndarray:
    """M1(s,t) p1(s) + int_t^T M1(r,t) p2(r,s,t) dr for t < s."""
    if t >= s:
        raise ValueError(f"star_left needs t < s, got t={t}, s={s}")
    dt = vp.grid.dt
    sl = P.p2_slice(t)
    acc = M1[s, t] @ P.p1[s]
    acc = acc + np.einsum("rab,rbc->ac", M1[t + 1:, t], sl[1:, s - t]) * dt
    return acc


def star_right(P: RiccatiSolution, M2: np.ndarray, vp: VolterraProblem,
               s: int, t: int) -> np.ndarray:
    """p1(s) M2(s,t) + int_t^T p2(s,r,t) M2(r,t) dr for t < s."""
    if t >= s:
        raise ValueError(f"star_right needs t < s, got t={t}, s={s}")
    dt = vp.grid.dt
    sl = P.p2_slice(t)
    acc = P.p1[s] @ M2[s, t]
    acc = acc + np.einsum("rab,rbc->ac", sl[s - t, 1:], M2[t + 1:, t]) * dt
    return acc


def star_sandwich(M1: np.ndarray, P: RiccatiSolution, M2: np.ndarray,
                  vp: VolterraProblem, t: int) -> np.ndarray:
    """Double star product over (t, T)^2 with right-node weights."""
    dt = vp.grid.dt
    sl = P.p2_slice(t)
    M1f, M2f = M1[t + 1:, t], M2[t + 1:, t]
    single = np.einsum("sab,sbc,scd->ad", M1f, P.p1[t + 1:], M2f,
                       optimize=True) * dt
    inner = np.einsum("stab,tbc->sac", sl[1:, 1:], M2f, optimize=True) * dt
    double = np.einsum("sab,sbc->ac", M1f, inner) * dt
    return single + double


# ----------------------------------------------------------------------
# Regrouped evaluators
# ----------------------------------------------------------------------

def g1(P: RiccatiSolution, t: int) -> np.ndarray:
    """Selector sandwich at node t (n x n), as stored by the sweep."""
    return P.g1_table[t]


def g2(P: RiccatiSolution, vp: VolterraProblem, sbar: int, t: int) -> np.ndarray:
    """p1(sbar) U(sbar,t) + int_t^T p2(sbar,r,t) U(r,t) dr  (3n x n)."""
    if sbar < t:
        raise ValueError(f"g2 needs sbar >= t, got sbar={sbar}, t={t}")
    dt = vp.grid.dt
    sl = P.p2_slice(t)
    acc = P.p1[sbar] @ vp.U[sbar, t]
    acc = acc + np.einsum("rab,rbj->aj", sl[sbar - t, 1:], vp.U[t + 1:, t]) * dt
    return acc


def pi_matrix(vp: VolterraProblem, s: int, t: int, theta: int) -> np.ndarray:
    """Averaged selector block matrix (3n x 3n); requires s > t.

    The 1/(s-t) entries are exact averages over the theta nodes
    {t+1..s}; they are never evaluated at s = t.
    """
    if s <= t:
        raise ValueError(f"pi_matrix needs s > t, got s={s}, t={t}")
    g = vp.grid
    n, k, N = vp.n, g.delay_steps, g.N
    inv = 1.0 / ((s - t) * g.dt)
    eye = np.eye(n)
    out = np.zeros((3 * n, 3 * n))
    i1 = 1.0 if s - t > k else 0.0
    i2 = 1.0 if s - t > 2 * k else 0.0
    i3 = 1.0 if s - theta > k else 0.0
    out[:n, :n] = inv * eye
    out[:n, n:2 * n] = inv * i1 * eye
    out[:n, 2 * n:] = eye
    out[n:2 * n, :n] = inv * i1 * eye
    out[n:2 * n, n:2 * n] = inv * i2 * eye
    out[n:2 * n, 2 * n:] = i3 * eye
    out[2 * n:, :n] = inv * vp.E[s, t]
    out[2 * n:, n:2 * n] = inv * (vp.E[s, t + k] if t + k <= N else 0.0)
    out[2 * n:, 2 * n:] = vp.E[s, theta]
    return out


def g3(P: RiccatiSolution, vp: VolterraProblem, s: int, t: int,
       theta: int) -> np.ndarray:
    """Regrouped two-time evaluator (3n x 3n) at theta in {t+1..N}.

    The pointwise term is active for theta <= s; the tail integral runs
    over r in {theta..N} so that pairing with the theta nodes {t+1..s}
    reconstructs the control kernel exactly.
    """
    if not (t < theta <= vp.grid.N):
        raise ValueError(f"g3 needs t < theta <= N, got t={t}, theta={theta}")
    if s <= t:
        raise ValueError(f"g3 needs s > t, got s={s}, t={t}")
    dt = vp.grid.dt
    sl = P.p2_slice(t)
    acc = np.zeros((3 * vp.n, 3 * vp.n))
    if theta <= s:
        acc += P.p1[s] @ pi_matrix(vp, s, t, theta)
    for r in range(theta, vp.grid.N + 1):
        acc += sl[s - t, r - t] @ pi_matrix(vp, r, t, theta) * dt
    return acc


# ----------------------------------------------------------------------
# Classical no-delay oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalRiccatiPath:
    P: np.ndarray        # (N+1, n, n)
    eta_t: np.ndarray    # (N+1, n)


def _require_zero(problem: DelayLQProblem, names) -> None:
    bad = [nm for nm in names if np.abs(getattr(problem, nm)).max() > 0]
    if bad:
        raise ProblemValidationError(
            [f"preset mismatch: expected zero {', '.join(bad)}"])


def classical_riccati(problem: DelayLQProblem) -> ClassicalRiccatiPath:
    """RK4 backward integration of the no-delay Riccati/adjoint pair."""
    _require_zero(problem, ("A2", "A3", "B2", "B3", "C2", "C3",
                            "Q2", "Q3", "R2", "F", "Ftilde"))
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
        try:
            fac = cho_factor(0.5 * (rc + rc.T), lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"oracle control weight lost positive definiteness near "
                f"t={stage_t}") from exc
        lhs = P @ B1 + C1.T @ P @ D1                     # (n, m)
        dP = -(P @ A1 + A1.T @ P + C1.T @ P @ C1 + c["Q1"]
               - lhs @ cho_solve(fac, lhs.T))
        closed_a = A1.T - lhs @ cho_solve(fac, B1.T)
        mix = C1.T - lhs @ cho_solve(fac, D1.T)
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
        fac = cho_factor(0.5 * (rc + rc.T), lower=True)
        K1[j] = -cho_solve(fac, B1.T @ P + D1.T @ P @ C1)
        v[j] = -cho_solve(fac, B1.T @ oracle.eta_t[j]
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


def casev_consistency(P: RiccatiSolution, adjoint, strategy,
                      oracle: ClassicalRiccatiPath,
                      vp: VolterraProblem) -> CaseVReport:
    g = vp.grid
    N, dt, n = g.N, g.dt, vp.n
    p_err = eta_err = 0.0
    for l, sl in P.replay():
        emb = P.p1[l + 1:, :n, :n].sum(axis=0) * dt
        emb = emb + sl[1:, 1:, :n, :n].sum(axis=(0, 1)) * dt * dt
        p_err = max(p_err, float(np.abs(emb - oracle.P[l]).max()))
        eta_emb = adjoint.eta[l + 1:, l, :n].sum(axis=0) * dt
        eta_err = max(eta_err, float(np.abs(eta_emb - oracle.eta_t[l]).max()))
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


def _require_time_invariant(problem: DelayLQProblem, names) -> None:
    bad = [nm for nm in names
           if np.abs(getattr(problem, nm) - getattr(problem, nm)[0]).max() > 0]
    if bad:
        raise ProblemValidationError(
            [f"preset mismatch: expected time-invariant {', '.join(bad)}"])


def caseii_extract(P: RiccatiSolution, vp: VolterraProblem) -> CaseIIExtraction:
    problem = vp.source
    _require_zero(problem, ("A3", "B2", "B3", "C3", "Q2", "Q3", "R2",
                            "b", "sigma", "F", "Ftilde"))
    _require_time_invariant(problem, ("A1", "A2", "B1", "C1", "C2",
                                      "D1", "Q1", "R1"))
    g = vp.grid
    N, dt, n, k = g.N, g.dt, vp.n, g.delay_steps

    P2c = np.zeros((N + 1, n, n))
    P3c = np.zeros((N + 1, N + 1, n, n))
    for l, sl in P.replay():
        M = N - l
        if M > 0:
            sel = np.zeros((M, n, 3 * n))
            sel[:, :, :n] = np.eye(n)
            lag = np.arange(l + 1, N + 1) - l > k
            sel[lag, :, n:2 * n] = np.eye(n)
            pw = np.einsum("sab,sbc,sdc->ad", sel, P.p1[l + 1:], sel) * dt
            inner = np.einsum("stab,tcb->sac", sl[1:, 1:], sel,
                              optimize=True) * dt
            pw = pw + np.einsum("sab,sbc->ac", sel, inner) * dt
            P2c[l] = pw
        # P3c[l, q], q = l..l+k: p1(q)[:n, n:2n] plus, over r > l,
        # ((pair)^T)[:n, n:2n] = (pair[n:2n, :n])^T and, over r - l > k,
        # the lagged block
        Q = min(k, N - l) + 1
        P3c[l, l:l + Q] = (
            P.p1[l:l + Q, :n, n:2 * n]
            + sl[:Q, 1:, n:2 * n, :n].swapaxes(-1, -2).sum(axis=1) * dt
            + sl[:Q, k + 1:, n:2 * n, n:2 * n].swapaxes(-1, -2).sum(axis=1) * dt)
    return CaseIIExtraction(P2c=P2c, P3c=P3c)


def caseii_residual(ext: CaseIIExtraction,
                    problem: DelayLQProblem) -> CaseIIResiduals:
    g = problem.grid
    N, dt, n, k = g.N, g.dt, problem.n, g.delay_steps
    A1, A2 = problem.A1[0], problem.A2[0]
    B1, C1, C2, D1 = problem.B1[0], problem.C1[0], problem.C2[0], problem.D1[0]
    Q1, R1 = problem.Q1[0], problem.R1[0]

    def gain_parts(l: int):
        P2 = ext.P2c[l]
        rc = R1 + D1.T @ P2 @ D1
        rci = np.linalg.inv(rc)
        lhs = B1.T @ P2 + D1.T @ P2 @ C1
        return P2, rci, lhs

    ode_late = ode_early = tr_late = tr_early = diag = 0.0
    for l in range(1, N + 1):
        P2l, rci, lhs = gain_parts(l)
        fd = -(ext.P2c[l] - ext.P2c[l - 1]) / dt
        rhs = (P2l @ A1 + A1.T @ P2l + C1.T @ P2l @ C1 + Q1
               - lhs.T @ rci @ lhs)
        if l >= N - k + 2:
            ode_late = max(ode_late, float(np.abs(fd - rhs).max()))
        elif l <= N - k:
            P2d = ext.P2c[l + k]
            cross = D1.T @ P2d @ C2
            rhs = rhs + (C2.T @ P2d @ C2 + ext.P3c[l, l + k]
                         + ext.P3c[l, l + k].T - cross.T @ rci @ cross)
            ode_early = max(ode_early, float(np.abs(fd - rhs).max()))

    for l in range(1, N + 1):
        P2l, rci, lhs = gain_parts(l)
        for q in range(l + 1, min(l + k, N) + 1):
            if q > (l - 1) + k:
                continue
            fd = -(ext.P3c[l, q] - ext.P3c[l - 1, q]) / dt
            rhs = A1.T @ ext.P3c[l, q] - lhs.T @ rci @ (B1.T @ ext.P3c[l, q])
            if l >= N - k + 2:
                tr_late = max(tr_late, float(np.abs(fd - rhs).max()))
            elif l <= N - k:
                extra = (ext.P3c[q, l + k].T @ A2
                         - (B1.T @ ext.P3c[q, l + k]).T @ rci
                         @ (D1.T @ P2l @ C2))
                s_sum = np.zeros((n, n))
                for s in range(l + 1, q + 1):
                    s_sum += ((B1.T @ ext.P3c[s, l + k]).T @ rci
                              @ (B1.T @ ext.P3c[s, q])) * dt
                rhs = rhs + extra - s_sum
                tr_early = max(tr_early, float(np.abs(fd - rhs).max()))

    for l in range(N + 1):
        P2l, rci, lhs = gain_parts(l)
        rel = P2l @ A2 + C1.T @ P2l @ C2 - lhs.T @ rci @ (D1.T @ P2l @ C2)
        diag = max(diag, float(np.abs(ext.P3c[l, l] - rel).max()))

    return CaseIIResiduals(ode_late=ode_late, ode_early=ode_early,
                           transport_late=tr_late, transport_early=tr_early,
                           diagonal=diag)


def caseii_control(ext: CaseIIExtraction, problem: DelayLQProblem,
                   x: np.ndarray, u: np.ndarray, l: int) -> np.ndarray:
    """Specialized state-delay feedback law at node l along given paths."""
    g = problem.grid
    N, dt, k = g.N, g.dt, g.delay_steps
    B1, C1, C2, D1 = problem.B1[0], problem.C1[0], problem.C2[0], problem.D1[0]
    P2 = ext.P2c[l]
    rc = problem.R1[0] + D1.T @ P2 @ D1
    rci = np.linalg.inv(rc)
    y = problem.xi[l] if l <= k else x[:, l - k]
    acc = np.einsum("mn,pn->pm", B1.T @ P2 + D1.T @ P2 @ C1, x[:, l])
    acc = acc + np.einsum("mn,pn->pm", D1.T @ P2 @ C2,
                          np.broadcast_to(y, x[:, l].shape))
    for s in range(max(l, k), min(l + k, N)):
        acc = acc + np.einsum("mn,pn->pm", B1.T @ ext.P3c[l, s],
                              x[:, s - k]) * dt
    for s in range(l + 1, min(k, N) + 1):
        acc = acc + (B1.T @ ext.P3c[l, s] @ problem.xi[s]) * dt
    return -np.einsum("mq,pq->pm", rci, acc)


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


def _has_memory(problem: DelayLQProblem) -> bool:
    """Whether the control memory channel B3 Ftilde is active."""
    return bool(np.abs(problem.B3).max() > 0
                and np.abs(problem.Ftilde).max() > 0)


def _shifted_memory_kernel(problem: DelayLQProblem) -> np.ndarray:
    """G[theta, s + k] = B3(theta) Ftilde(theta, s), zero for s < 0."""
    k = problem.grid.delay_steps
    G = np.einsum("tab,tsbm->tsam", problem.B3, problem.Ftilde)
    return np.pad(G, ((0, 0), (k, 0), (0, 0), (0, 0)))


def _masked_max(err: np.ndarray, mask: np.ndarray) -> float:
    """Largest |entry| of the blocks selected by ``mask``; 0 if none.

    Works in place: ``err`` is overwritten.
    """
    err[~mask] = 0.0
    return float(np.abs(err, out=err).max(initial=0.0))


def casei_extract(P: RiccatiSolution, vp: VolterraProblem) -> CaseIExtraction:
    """Control-delay extraction, one replayed (1,1)-block slice at a time.

    At node l the table tab[i, j] = p1script(l, l+i, l+j) comes from the
    slice's 2-D suffix sums; S0, S1 and S2 contract its k+1 window with
    B2, and with the memory channel active its first column (the row
    p1script(l, theta, l)), its window columns and the whole table are
    contracted with G = B3 Ftilde over theta, then over beta.  Time is
    O(N^3 k); besides S1 and S2 it keeps the O(N^2) table ``p1row``.
    """
    problem = vp.source
    _require_zero(problem, ("A2", "A3", "C2", "C3", "Q2", "Q3", "R2",
                            "b", "sigma", "F"))
    if np.abs(problem.varsigma).max() > 0:
        raise ProblemValidationError(
            ["preset mismatch: control-delay-only check needs zero varsigma"])
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    first = slice(0, n)
    memory = _has_memory(problem)
    if memory:
        G = _shifted_memory_kernel(problem)

    sufp1 = np.zeros((N + 2, n, n))
    sufp1[:N + 1] = P.p1[:, first, first]
    sufp1 = np.cumsum(sufp1[::-1], axis=0)[::-1] * dt   # sum over s >= index
    B2 = np.zeros((N + 1 + k, n, m))                     # zero past t_N
    B2[:N + 1] = problem.B2

    S0 = np.zeros((N + 1, n, n))
    S1 = np.zeros((N + 1, k + 1, m, n))
    S2 = np.zeros((N + 1, k + 1, k + 1, m, m))
    p1row = np.zeros((N + 1, N + 1, n, n))
    for l, sl in P.replay(first):
        M = sl.shape[0]
        ss = np.zeros((M + 1, M + 1, n, n))
        ss[:M, :M] = sl
        ss = np.cumsum(np.cumsum(ss[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
        off = np.arange(M)
        tab = (sufp1[l + 1 + np.maximum.outer(off, off)]
               + ss[1:, 1:].swapaxes(0, 1) * dt * dt)
        cols = np.zeros((M + k, k + 1, n, n))  # lag columns; past T stay zero
        cols[:M, :min(M, k + 1)] = tab[:, :k + 1]
        Bw = B2[l:l + k + 1]
        p1row[l, l:] = tab[:, 0]
        S0[l] = tab[0, 0]
        S1[l] = np.einsum("qam,qab->qmb", Bw, cols[0])
        left = np.einsum("qam,qpba->qpmb", Bw, cols[:k + 1])
        S2[l] = np.einsum("qpmb,pbc->qpmc", left, Bw)
        if memory:
            Gw = G[l + 1:, l:l + k + 1]    # [theta, q] = G(theta, l+q-k)
            S1[l] += np.einsum("tqac,tba->qcb", Gw, tab[1:, 0]) * dt
            # sum over theta > l of p1script(l, theta, l+q) G(theta, l+p-k)
            col_g = np.einsum("tqab,tpbc->qpac", cols[1:M], Gw,
                              optimize=True) * dt
            cross = np.einsum("qam,qpac->qpmc", Bw, col_g)
            # sum over theta > l of p1script(l, theta, beta) G(theta, l+q-k),
            # then over beta > l of its transpose against G(beta, l+p-k)
            tab_g = np.einsum("tbax,tqxc->bqac", tab[1:, 1:], Gw,
                              optimize=True) * dt
            double = np.einsum("bqac,bpad->qpcd", tab_g, Gw,
                               optimize=True) * dt
            S2[l] += cross + cross.transpose(1, 0, 3, 2) + double
    return CaseIExtraction(S0=S0, S1=S1, S2=S2, p1row=p1row)


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
    memory = _has_memory(problem)
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


def casei_control(ext: CaseIExtraction, problem: DelayLQProblem,
                  x: np.ndarray, u: np.ndarray, l: int) -> np.ndarray:
    """Specialized control-delay feedback law at node l along paths.

    Supports presets with an inactive memory channel (B3 Ftilde = 0);
    the general memory correction term is exercised through the primary
    synthesis path instead.
    """
    if _has_memory(problem):
        raise ProblemValidationError(
            ["specialized control-delay law implemented for B3*Ftilde = 0"])
    g = problem.grid
    N, dt, k = g.N, g.dt, g.delay_steps
    S0 = ext.S0[l]
    D1, B1 = problem.D1[l], problem.B1[l]
    rc = problem.R1[l] + D1.T @ S0 @ D1
    rci = np.linalg.inv(rc)
    brace = B1.T @ S0 + ext.S1[l, k] + D1.T @ S0 @ problem.C1[l]
    acc = np.einsum("mn,pn->pm", brace, x[:, l])
    for r in range(max(l, k), min(l + k, N)):
        ker = B1.T @ ext.S1[l, r - l].T + ext.S2[l, k, r - l]
        acc = acc + np.einsum("mq,pq->pm", ker, u[:, r - k]) * dt
    return -np.einsum("mq,pq->pm", rci, acc)


# ----------------------------------------------------------------------
# Deterministic convex QP oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QpOracleResult:
    u_opt: np.ndarray      # (N+1, m); terminal node unused, kept zero
    cost_opt: float
    kkt_residual: float
    gradient_norm: float   # norm of the affine part, for relative checks


def _extended_cost_paths(problem: DelayLQProblem, x: np.ndarray,
                         u: np.ndarray, homogeneous: bool):
    """Per-path trajectories entering the cost at nodes 0..N-1."""
    g = problem.grid
    N, k, dt = g.N, g.delay_steps, g.dt
    P = x.shape[0]
    y = np.zeros((P, N, problem.n))
    nu = np.zeros((P, N, problem.m))
    z = np.zeros((P, N, problem.n))
    for j in range(N):
        if j >= k:
            y[:, j] = x[:, j - k]
            nu[:, j] = u[:, j - k]
        elif not homogeneous:
            y[:, j] = problem.xi[j]
            nu[:, j] = problem.varsigma[j]
        if j > 0:
            z[:, j] = np.einsum("lab,plb->pa", problem.F[j, :j], x[:, :j]) * dt
    return x[:, :N], y, z, u[:, :N], nu


def deterministic_qp_oracle(problem: DelayLQProblem) -> QpOracleResult:
    """Exact minimizer of the discretized deterministic problem.

    The discrete cost is an explicit convex quadratic in the stacked
    control; the Hessian is assembled from unit-impulse responses of
    the linear dynamics and factorized directly.
    """
    _require_zero(problem, ("C1", "C2", "C3", "D1", "sigma"))
    g = problem.grid
    N, m, dt = g.N, problem.m, g.dt
    nb = N * m

    zero_noise = BrownianBatch(seed=0, n_paths=nb,
                               increments=np.zeros((nb, N)))
    impulses = np.zeros((nb, N + 1, m))
    for j in range(N):
        for c in range(m):
            impulses[j * m + c, j, c] = 1.0
    hom = replace(problem,
                  b=np.zeros_like(problem.b),
                  xi=np.zeros_like(problem.xi),
                  varsigma=np.zeros_like(problem.varsigma))
    basis = simulate_open_loop(hom, impulses, zero_noise)
    tb = _extended_cost_paths(hom, basis.x, impulses, True)

    one_path = BrownianBatch(seed=0, n_paths=1, increments=np.zeros((1, N)))
    affine = simulate_open_loop(problem, np.zeros((N + 1, m)), one_path)
    ta = _extended_cost_paths(problem, affine.x,
                              np.zeros((1, N + 1, m)), False)

    def bilinear(t1, t2):
        x1, y1, z1, u1, nu1 = t1
        x2, y2, z2, u2, nu2 = t2
        return ((np.einsum("ija,jab,kjb->ik", x1, problem.Q1[:N], x2)
                 + np.einsum("ija,jab,kjb->ik", y1, problem.Q2[:N], y2)
                 + np.einsum("ija,jab,kjb->ik", z1, problem.Q3[:N], z2)
                 + np.einsum("ija,jab,kjb->ik", u1, problem.R1[:N], u2)
                 + np.einsum("ija,jab,kjb->ik", nu1, problem.R2[:N], nu2))
                * dt)

    H = 2.0 * bilinear(tb, tb)
    H = 0.5 * (H + H.T)
    gvec = 2.0 * bilinear(tb, ta)[:, 0]
    c0 = float(bilinear(ta, ta)[0, 0])

    try:
        fac = cho_factor(H, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("QP Hessian is not positive definite") from exc
    u_flat = cho_solve(fac, -gvec)
    kkt = float(np.linalg.norm(H @ u_flat + gvec))
    cost = float(c0 + gvec @ u_flat + 0.5 * u_flat @ H @ u_flat)
    u_opt = np.zeros((N + 1, m))
    u_opt[:N] = u_flat.reshape(N, m)
    return QpOracleResult(u_opt=u_opt, cost_opt=cost, kkt_residual=kkt,
                          gradient_norm=float(np.linalg.norm(gvec)))
