"""Closed-loop gain synthesis and the value function.

With deterministic free terms the backward pair system reduces to a
deterministic recursion (the martingale part is identically zero); the
Riccati sweep runs it one column of the pair at a time and stores the
pair's selector sum ``eta1`` and the offset ``omega`` of the causal
feedback.  The closed-loop gains come from the causal pair: the
pointwise gain Xi on the lifted state, the rows of ``W``, and the
history gain Gamma(s, t) = -rcal_inv(t) (P*B)(s, t)^T, the control rows
of the factor table ``H`` scaled once per node.  Gamma is formed once,
in H's own [t, m, s, a] layout, and every table derived from it (its
suffix sums over the future index s, its products against the memory
kernel, the control impulse's history gain) keeps that layout.  The
history kernel is collected against the lifted state's reconstruction
in terms of the original trajectories.  The current-state gain, the
delay-shifted and memory channels of the control gain and the offset's
initial windows are read off or contracted against the suffix tables,
with no loop over nodes: Gamma summed against the selector column
U(., t) is the control impulse's history gain at its own node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ProblemValidationError
from .riccati import RiccatiSolution
from .volterra import VolterraProblem, _node_product, memory_kernel


@dataclass(frozen=True)
class FeedbackStrategy:
    """Closed-loop strategy: current gain, history kernels, offset.

    u(t) = k1(t) x(t) + int k2(t,s) x(s) ds + k3(t) x(t - delay)
         + int k4(t,s) u(s) ds + v(t); k2/k4 vanish for s >= t.
    """

    k1: np.ndarray      # (N+1, m, n)
    k2: np.ndarray      # (N+1, N+1, m, n)
    k3: np.ndarray      # (N+1, m, n)
    k4: np.ndarray      # (N+1, N+1, m, m)
    v: np.ndarray       # (N+1, m)


def synthesize_feedback(P: RiccatiSolution,
                        vp: VolterraProblem) -> FeedbackStrategy:
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    nn, d = N + 1, 3 * n
    src = vp.source
    Xi = P.W[:, n:]
    nodes = np.arange(nn)
    later = np.tri(nn, k=-1, dtype=bool)    # [t, s]: t > s
    # pairs t > s within one delay of each other, where the delay-shifted
    # channel of the state and control gains reads the node s + k
    ts, ss = np.nonzero((nodes[None, :] + k >= nodes[:, None])
                        & (nodes[None, :] + k <= N) & later)
    # the history gain gam[t, :, s] = Gamma(s, t) from H's control rows,
    # zero for s < t as they are
    gam = np.einsum("tiq,tqsa->tisa", P.rcal_inv,
                    P.H[:, n:].reshape(nn, m, nn, d), order="C")
    np.negative(gam, out=gam)
    # the state gain reads Gamma(s + k, t) on the diagonal too: take it
    # before the history gain loses its diagonal, which is scaled by 0.0
    # to keep the sign of its zeros
    shifted = gam[ts, :, ss + k, n:2 * n]
    gam[nodes, :, nodes] *= 0.0
    gam2, gam3 = gam[..., n:2 * n], gam[..., 2 * n:]

    # distributed-state gain, with the history term
    # sum_{alpha>t} Gamma3(alpha, t) F[alpha, beta] dt
    k2 = np.einsum("tmx,tsxy->tsmy", Xi[:, :, 2 * n:], src.F)
    k2 += _node_product(gam3, src.F.transpose(0, 2, 1, 3), dt)
    if ts.size:
        k2[ts, ss] += shifted
    k2 *= later[:, :, None, None]

    # suffix sums of the first two history-gain blocks over the future
    # index, suf[t, :, q] = sum_{r >= q} gam[t, :, r] dt with
    # suf[:, :, nn] = 0, and s3[t, :, p] = sum_{r > t} gam3[t, :, r] E[r, p] dt
    suf = np.zeros((nn, m, nn + 1, 2 * n))
    suf[:, :, :nn] = gam[..., :2 * n]
    np.cumsum(suf[:, :, ::-1], axis=2, out=suf[:, :, ::-1])
    suf *= dt
    suf1, suf2 = suf[..., :n], suf[..., n:]
    s3 = _node_product(gam3, vp.E.transpose(0, 2, 1, 3), dt).transpose(
        0, 2, 1, 3)

    # i1grid[t, :, p] = sum_{r > p} Gamma(r, t) U(r, p) dt: future history
    # gain seen by a control impulse that enters through the delay-shifted
    # channel at node p >= t
    i1grid = suf1[:, :, 1:] + suf2[:, :, np.minimum(nodes + k + 1, nn)]
    i1grid += s3

    # current-state gain: the pointwise part plus the history gain against
    # the selector column U(., t), i1grid's diagonal p = t
    k1 = Xi[:, :, :n] + i1grid[nodes, :, nodes]
    k3 = Xi[:, :, n:2 * n].copy()

    # distributed-control gain: shifted channel plus the memory channel
    k4 = np.zeros((nn, nn, m, m))
    if ts.size:
        k4[ts, ss] += np.einsum("pmx,pxq->pmq", i1grid[ts, :, ss + k],
                                src.B2[ss + k])
    if src.has_memory:
        # u(s) reaches the state at theta > t through B3(theta)
        # Ftilde(theta, s); w[t, :, theta] is the history gain seen there
        bf = memory_kernel(src)                       # (theta, s, n, m)
        w = suf1[:, :, :nn] + suf2[:, :, np.minimum(nodes + k, nn)]
        w += s3
        w *= later.T[:, None, :, None]
        k4 += _node_product(w, bf.transpose(0, 2, 1, 3), dt)
    k4 *= later[:, :, None, None]

    # offset: adjoint part, initial-state window (t < a <= lim) and
    # initial-control window (t <= p < lim; shifted-channel nodes beyond
    # the horizon contribute nothing).  The stack is summed along its
    # leading axis, which numpy does term by term in this order, and in
    # the order of the stack's layout: both windows are C-ordered.
    lim = min(k, N)
    init = np.einsum("tmax,ax->atm", gam2[:, :, 1:lim + 1],
                     src.xi[1:lim + 1], order="C") * dt
    ctrl = np.einsum("ptmq,pq->ptm", np.einsum(
        "tmpx,pxq->ptmq", i1grid[:, :, :lim], src.B2[:lim]),
        src.varsigma[:lim], order="C") * dt
    ctrl *= (nodes[None, :] <= nodes[:lim, None])[:, :, None]
    v = np.concatenate([P.omega[None], init, ctrl]).sum(axis=0)

    return FeedbackStrategy(k1=k1, k2=k2, k3=k3, k4=k4, v=v)


def value_function(P: RiccatiSolution, vp: VolterraProblem) -> float:
    """Quadratic form of the free term; homogeneous problems only."""
    src = vp.source
    if not src.homogeneous:
        raise ProblemValidationError(
            ["value_function applies to homogeneous problems (b = sigma = 0)"])
    N, dt = vp.grid.N, vp.grid.dt
    phi = vp.phi[:N]
    single = np.einsum("ja,jab,jb->", phi, P.p1[:N], phi) * dt
    # p2(i, j, 0) is F less the rank-m updates of nodes 1..N, and
    # F(i, j) = H(i, j) W(j) below the diagonal, sym(H(j, j) W(j)) on it:
    # phi^T F phi = sum_j (2 h_j - c_j)^T W(j) phi_j, h_j = sum_{i >= j}
    # H(i, j)^T phi_i, c_j its i = j term; less dt sum_r y_r^T rcal_inv(r) y_r,
    # y_r = sum_i pb(i, r)^T phi_i the control rows of h_r (y_N = 0)
    nn, d, n = N + 1, 3 * vp.n, vp.n
    H = P.H.reshape(nn, -1, nn, d)[:N, :, :N]
    h = np.einsum("jcia,ia->jc", H, phi)
    c = np.einsum("jcja,ja->jc", H, phi)
    quad = np.einsum("jc,jca,ja->", 2.0 * h - c, P.W[:N], phi)
    y = h[1:, n:]
    quad -= np.einsum("rm,rmq,rq->", y, P.rcal_inv[1:N], y) * dt
    return float(single + quad * dt * dt)
