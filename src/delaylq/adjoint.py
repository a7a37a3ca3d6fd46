"""Closed-loop gain synthesis and the value function.

With deterministic free terms the backward pair system reduces to a
deterministic recursion (the martingale part is identically zero); the
Riccati sweep runs it one column of the pair at a time and stores the
pair's selector sum ``eta1`` and the offset ``omega`` of the causal
feedback.  The closed-loop gains come from the causal pair: the
pointwise gain Xi on the lifted state, the rows of ``W``, and the
history gain Gamma(s, t) = -rcal_inv(t) (P*B)(s, t)^T, the control rows
of the factor table ``H`` scaled per node.  The synthesis loops over
blocks of nodes t: a block forms its rows of Gamma, in H's [t, m, s, a]
layout from the stored blocks of H it meets, and of every table derived
from them (suffix sums over the
future index s, products against F, E and the memory kernel, the
control impulse's history gain, whose diagonal gives the current-state
gain), then writes its rows of the gains and the offset.  Only the
results and the products' fixed operands span the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import riccati
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
    nn, d, lim = N + 1, 3 * n, min(k, N)
    src, Xi, nodes = vp.source, P.W[:, n:], np.arange(nn)
    # the products' fixed right-hand operands, contiguous once (views for
    # n = m = 1): F, E and the memory column B3 Ftilde as [r, x, s, y]
    Ft, Et = (np.ascontiguousarray(x.transpose(0, 2, 1, 3))
              for x in (src.F, vp.E))
    bft = (np.ascontiguousarray(memory_kernel(src).transpose(0, 2, 1, 3))
           if src.has_memory else None)
    k1, v = np.empty((nn, m, n)), np.empty((nn, m))
    k2, k4 = np.empty((nn, nn, m, n)), np.zeros((nn, nn, m, m))

    def history_gain(a, c, cols, out):
        # gam[t, :, s] = Gamma(s, t), t = a..c-1, on the lifted columns
        # cols, from H's control rows a stored block at a time into out,
        # zero for s < t as they are
        for r, rows in P.rows(a, c):
            nr, nc = len(rows), nn - r
            np.einsum("tiq,tqsa->tisa", P.rcal_inv[r:r + nr], rows[:, n:]
                      .reshape(nr, m, nc, d)[..., cols],
                      out=out[r - a:r - a + nr, :, r:])
        return np.negative(out, out=out)

    # a block's numpy calls cost the same at any size, and it reads the
    # fixed operands whole, which outgrow the cache from N ~ 500 on: it is
    # at least two _BLOCKs and 1/8 of the grid, in whole _BLOCKs
    b = riccati._BLOCK * max(2, -(-nn // (8 * riccati._BLOCK)))
    for a in range(0, nn, b):
        t = nodes[a:a + b]
        c, rows = t[-1] + 1, t - a
        later = t[:, None] > nodes          # [t, s]: t > s
        # pairs t > s within a delay (ts from a): shifted channel at s + k
        ts, ss = np.nonzero((nodes + k >= t[:, None]) & (nodes + k <= N)
                            & later)

        # k2 = Xi3(t) F(t, s) + sum_{r>t} Gamma3(r, t) F(r, s) dt, and
        # s3[t, :, p] = sum_{r>t} Gamma3(r, t) E(r, p) dt; Gamma's
        # diagonal is scaled by 0.0 to keep the sign of its zeros
        gam3 = history_gain(a, c, slice(2 * n, d),
                            np.zeros((c - a, m, nn, n)))
        gam3[rows, :, t] *= 0.0
        k2b, k4b = k2[a:c], k4[a:c]
        np.einsum("tmx,tsxy->tsmy", Xi[a:c, :, 2 * n:], src.F[a:c], out=k2b)
        k2b += _node_product(gam3, Ft, dt)
        s3 = _node_product(gam3, Et, dt).transpose(0, 2, 1, 3)
        del gam3
        # suf[t, :, q] = sum_{r >= q} Gamma12(r, t) dt, suf[:, :, nn] = 0,
        # in place of Gamma12 once k2's shifted channel (Gamma2(s + k, t),
        # diagonal included) and v's window t < a <= lim have read it
        suf = np.zeros((c - a, m, nn + 1, 2 * n))
        gam = history_gain(a, c, slice(0, 2 * n), suf[:, :, :nn])
        k2b[ts, ss] += gam[ts, :, ss + k, n:]
        k2b *= later[:, :, None, None]
        gam[rows, :, t] *= 0.0
        init = np.einsum("tmax,ax->atm", gam[:, :, 1:lim + 1, n:],
                         src.xi[1:lim + 1], order="C") * dt
        np.cumsum(suf[:, :, ::-1], axis=2, out=suf[:, :, ::-1])
        suf *= dt
        j = max(nn + 1 - k, 0)      # suf1(q) += suf2(min(q + k, nn))
        suf[:, :, :j, :n] += suf[:, :, k:, n:]
        suf[:, :, j:, :n] += suf[:, :, nn:, n:]
        # i1grid[t, :, p] = sum_{r>p} Gamma(r, t) U(r, p) dt, the history
        # gain a control impulse entering the shifted channel at p >= t
        # sees; in place of s3, the one seen where the memory channel
        # reaches the state at theta > t
        i1grid = suf[:, :, 1:, :n] + s3
        if bft is not None:
            s3 += suf[:, :, :nn, :n]
            s3 *= (nodes > t[:, None])[:, None, :, None]
        del gam, suf
        # current-state gain: i1grid's diagonal p = t is the history gain
        # against the selector column U(., t)
        k1[a:c] = Xi[a:c, :, :n] + i1grid[rows, :, t]
        # distributed-control gain: shifted channel, then the memory
        # channel, u(s) reaching the state at theta > t
        k4b[ts, ss] += np.einsum("pmx,pxq->pmq", i1grid[ts, :, ss + k],
                                 src.B2[ss + k])
        # offset: adjoint part and the initial windows (t < a <= lim,
        # t <= p < lim), summed term by term along the stack's first axis
        ctrl = np.einsum("ptmq,pq->ptm", np.einsum(
            "tmpx,pxq->ptmq", i1grid[:, :, :lim], src.B2[:lim]),
            src.varsigma[:lim], order="C") * dt
        ctrl *= (t <= nodes[:lim, None])[:, :, None]
        v[a:c] = np.concatenate([P.omega[None, a:c], init, ctrl]).sum(axis=0)
        if bft is not None:
            k4b += _node_product(s3, bft, dt)
        k4b *= later[:, :, None, None]

    return FeedbackStrategy(k1, k2, Xi[:, :, n:2 * n].copy(), k4, v)


def value_function(P: RiccatiSolution, vp: VolterraProblem) -> float:
    """Quadratic form of the free term; homogeneous problems only."""
    src = vp.source
    if not src.homogeneous:
        raise ProblemValidationError(
            ["value_function applies to homogeneous problems (b = sigma = 0)"])
    N, dt, n = vp.grid.N, vp.grid.dt, vp.n
    phi = vp.phi[:N]
    single = np.einsum("ja,jab,jb->", phi, P.p1[:N], phi) * dt
    # p2(i, j, 0) is F less the rank-m updates of nodes 1..N, and
    # F(i, j) = H(i, j) W(j) below the diagonal, the corner C(j) on it:
    # phi^T F phi = sum_j 2 h_j^T W(j) phi_j - phi_j^T C(j) phi_j, h_j =
    # sum_{i >= j} H(i, j)^T phi_i; less dt sum_r y_r^T rcal_inv(r) y_r,
    # y_r = sum_i pb(i, r)^T phi_i the control rows of h_r (y_N = 0).  The
    # sums over i stop at N - 1: node N's phi enters as zeros
    u = np.zeros((N + 1, 3 * n, 1))
    u[:N, :, 0] = phi
    h = riccati._by_rows(P.rows(0, N), u)[..., 0]
    quad = (2.0 * np.einsum("jc,jca,ja->", h, P.W[:N], phi)
            - np.einsum("ja,jab,jb->", phi, P.corner[:N], phi))
    y = h[1:, n:]
    quad -= np.einsum("rm,rmq,rq->", y, P.rcal_inv[1:N], y) * dt
    return float(single + quad * dt * dt)
