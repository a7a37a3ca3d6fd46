"""Reference evaluators the tests check the solver's tables against.

The solver works in the star-product form and stores the two-time kernel
through the factor table H and the closed-loop row W.  These are the
paper's other forms of the same quantities, which no solver path reads:

- the border values p2(i, j, min(i, j)) as one dense table
  (``frontier``), the matrix the sweep once stored;
- the pointwise reference forms of the lifted kernels (``script_e``,
  ``bcal``);
- the two-time kernel at one triple in closed form (``p2``) and a whole
  slice replayed from the terminal node (``p2_slice``);
- the star products over replayed slices (``star_left``, ``star_right``,
  ``star_sandwich``);
- the regrouped evaluators through the averaged selector (``pi_matrix``,
  ``g2``, ``g3``; the selector sandwich g1 is the solver's ``g1_table``);
- the specialized feedback laws of the control-delay and state-delay
  cases (``casei_control``, ``caseii_control``), read off the case
  extractions of ``delaylq.oracles``;
- the perturbed inputs the optimality and invariance tests compare
  against: a problem with every cost weight scaled
  (``with_scaled_weights``) and a strategy with its current-state gain
  scaled (``scaled``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from delaylq.adjoint import FeedbackStrategy
from delaylq.cli import replay
from delaylq.exceptions import ProblemValidationError
from delaylq.problem import DelayLQProblem
from loop_oracles import dense_factor, selector


# ----------------------------------------------------------------------
# Perturbed problems and strategies
# ----------------------------------------------------------------------

def with_scaled_weights(problem: DelayLQProblem, c: float) -> DelayLQProblem:
    """Multiply every cost weight by c > 0 (dynamics untouched)."""
    return replace(
        problem,
        Q1=c * problem.Q1, Q2=c * problem.Q2, Q3=c * problem.Q3,
        R1=c * problem.R1, R2=c * problem.R2, lam=c * problem.lam,
    )


def scaled(strategy: FeedbackStrategy, factor: float) -> FeedbackStrategy:
    """The strategy with its current-state gain k1 scaled by ``factor``."""
    return replace(strategy, k1=factor * strategy.k1)


# ----------------------------------------------------------------------
# Pointwise forms of the lifted kernels
# ----------------------------------------------------------------------

def script_e(F, grid, i: int, j: int) -> np.ndarray:
    """Running integral of the kernel row: int_{t_j}^{t_i} F(t_i, r) dr.

    Left-rectangle rule; zero matrix when j >= i.
    """
    d1, d2 = F.shape[2], F.shape[3]
    if j >= i:
        return np.zeros((d1, d2))
    return F[i, j:i].sum(axis=0) * grid.dt


def bcal(vp, theta: int, t: int) -> np.ndarray:
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
# The two-time kernel
# ----------------------------------------------------------------------

def frontier(P) -> np.ndarray:
    """(N+1, N+1, 3n, 3n): [i, j] = p2(i, j, min(i, j)), the border column
    ``P.border(j)`` for i >= j and its transpose above the diagonal."""
    N, d = P.N, 3 * P.n
    out = np.zeros((N + 1, N + 1, d, d))
    for j in range(N + 1):
        out[j:, j] = P.border(j).reshape(-1, d, d)
        out[j, j + 1:] = out[j + 1:, j].transpose(0, 2, 1)
    return out


def p2(P, i: int, j: int, l: int) -> np.ndarray:
    """Two-time kernel at (t_i, t_j, t_l); requires l <= min(i, j).

    The border value at q = min(i, j), H(max, q) W(q) (symmetrized on the
    diagonal), less the rank-m updates of the nodes l+1..q:

        p2(i, j, l) = p2(i, j, q) - dt sum_{r=l+1}^{q} pb(i, r) rcal_inv(r) pb(j, r)^T
    """
    if l > min(i, j):
        raise ValueError(f"p2 needs l <= min(i, j), got ({i},{j},{l})")
    q, d = min(i, j), 3 * P.n
    far = max(i, j)
    H, pb = dense_factor(P)
    base = H[q, :, far * d:(far + 1) * d].T @ P.W[q]
    if i == j:
        base = 0.5 * (base + base.T)
    elif i < j:
        base = base.T
    rs = slice(l + 1, q + 1)
    return base - P.dt * np.einsum(
        "ram,rmk,rbk->ab", pb[i, rs], P.rcal_inv[rs], pb[j, rs])


def p2_slice(P, l: int) -> np.ndarray:
    """The whole slice at node l, replayed from the terminal node."""
    for node, sl in replay(P):
        if node == l:
            return sl
    raise ValueError(f"p2_slice needs 0 <= l <= N, got l={l}")


def value_on_slice0(P, vp) -> float:
    """The value function as the quadratic form of the free term on p1 and
    the replayed slice 0, left-rectangle over nodes 0..N-1."""
    N, dt, phi = P.N, P.dt, vp.phi[:P.N]
    s0 = p2_slice(P, 0)[:N, :N]
    return (np.einsum("ja,jab,jb->", phi, P.p1[:N], phi) * dt
            + np.einsum("ia,ijab,jb->", phi, s0, phi) * dt * dt)


# ----------------------------------------------------------------------
# Star products over replayed slices (quadrature: right nodes {t+1..N})
# ----------------------------------------------------------------------

def star_left(M1, P, vp, s: int, t: int) -> np.ndarray:
    """M1(s,t) p1(s) + int_t^T M1(r,t) p2(r,s,t) dr for t < s."""
    if t >= s:
        raise ValueError(f"star_left needs t < s, got t={t}, s={s}")
    dt = vp.grid.dt
    sl = p2_slice(P, t)
    acc = M1[s, t] @ P.p1[s]
    acc = acc + np.einsum("rab,rbc->ac", M1[t + 1:, t], sl[1:, s - t]) * dt
    return acc


def star_right(P, M2, vp, s: int, t: int) -> np.ndarray:
    """p1(s) M2(s,t) + int_t^T p2(s,r,t) M2(r,t) dr for t < s."""
    if t >= s:
        raise ValueError(f"star_right needs t < s, got t={t}, s={s}")
    dt = vp.grid.dt
    sl = p2_slice(P, t)
    acc = P.p1[s] @ M2[s, t]
    acc = acc + np.einsum("rab,rbc->ac", sl[s - t, 1:], M2[t + 1:, t]) * dt
    return acc


def star_sandwich(M1, P, M2, vp, t: int) -> np.ndarray:
    """Double star product over (t, T)^2 with right-node weights."""
    dt = vp.grid.dt
    sl = p2_slice(P, t)
    M1f, M2f = M1[t + 1:, t], M2[t + 1:, t]
    single = np.einsum("sab,sbc,scd->ad", M1f, P.p1[t + 1:], M2f,
                       optimize=True) * dt
    inner = np.einsum("stab,tbc->sac", sl[1:, 1:], M2f, optimize=True) * dt
    double = np.einsum("sab,sbc->ac", M1f, inner) * dt
    return single + double


# ----------------------------------------------------------------------
# Regrouped evaluators
# ----------------------------------------------------------------------

def g2(P, vp, sbar: int, t: int) -> np.ndarray:
    """p1(sbar) U(sbar,t) + int_t^T p2(sbar,r,t) U(r,t) dr  (3n x n)."""
    if sbar < t:
        raise ValueError(f"g2 needs sbar >= t, got sbar={sbar}, t={t}")
    dt = vp.grid.dt
    sl, sel = p2_slice(P, t), selector(vp, t)
    acc = P.p1[sbar] @ sel[sbar - t]
    acc = acc + np.einsum("rab,rbj->aj", sl[sbar - t, 1:], sel[1:]) * dt
    return acc


def pi_matrix(vp, s: int, t: int, theta: int) -> np.ndarray:
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


def g3(P, vp, s: int, t: int, theta: int) -> np.ndarray:
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
    sl = p2_slice(P, t)
    acc = np.zeros((3 * vp.n, 3 * vp.n))
    if theta <= s:
        acc += P.p1[s] @ pi_matrix(vp, s, t, theta)
    for r in range(theta, vp.grid.N + 1):
        acc += sl[s - t, r - t] @ pi_matrix(vp, r, t, theta) * dt
    return acc


# ----------------------------------------------------------------------
# Specialized feedback laws of the reduced cases
# ----------------------------------------------------------------------

def caseii_control(ext, problem, x: np.ndarray, u: np.ndarray,
                   l: int) -> np.ndarray:
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


def casei_control(ext, problem, x: np.ndarray, u: np.ndarray,
                  l: int) -> np.ndarray:
    """Specialized control-delay feedback law at node l along paths.

    Supports presets with an inactive memory channel (B3 Ftilde = 0);
    the general memory correction term is exercised through the primary
    synthesis path instead.
    """
    if problem.has_memory:
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
