"""Deterministic-data adjoint sweep and closed-loop gain synthesis.

With deterministic free terms the backward pair system reduces to a
deterministic recursion (the martingale part is identically zero), and
the offset control follows from the same regrouped star products the
Riccati sweep stores.  The closed-loop gains come from the causal pair
(pointwise gain on the lifted state, history gain on its forward
representation) by collecting the history kernel against the lifted
state's reconstruction in terms of the original trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ProblemValidationError
from .problem import DelayLQProblem
from .riccati import RiccatiSolution
from .volterra import VolterraProblem


@dataclass(frozen=True)
class CausalGains:
    """Feedback on the lifted state: u = Xi X + int Gamma Theta + offset.

    ``Gamma[s, t]`` is meaningful for s >= t; the diagonal holds the
    limiting value used when shifted indices collide with the current
    node.  Entries with s < t are zero.
    """

    Xi: np.ndarray      # (N+1, m, 3n)
    Gamma: np.ndarray   # (N+1, N+1, m, 3n)


@dataclass(frozen=True)
class AdjointSolution:
    """Backward pair table and the optimal offset.

    ``eta[i, j]`` approximates the pair solution at (t_i, t_j), j <= i,
    diagonal included; the martingale component is identically zero
    under the deterministic-data restriction and is not stored, and
    ``omega`` is the offset of the causal feedback.
    """

    eta: np.ndarray     # (N+1, N+1, 3n)
    omega: np.ndarray   # (N+1, m)


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

    def scaled(self, factor: float) -> "FeedbackStrategy":
        return FeedbackStrategy(k1=factor * self.k1, k2=self.k2,
                                k3=self.k3, k4=self.k4, v=self.v)


def _pointwise_gain(P: RiccatiSolution, vp: VolterraProblem) -> np.ndarray:
    """Xi: the causal feedback's gain on the current lifted state."""
    dgc = np.einsum("tam,tab,tbc->tmc", vp.source.D1, P.g1_table, vp.Ccal)
    return -np.einsum("tmq,tqc->tmc", P.rcal_inv, dgc)


def causal_gains(P: RiccatiSolution, vp: VolterraProblem) -> CausalGains:
    Xi = _pointwise_gain(P, vp)
    Gamma = -np.einsum("tiq,stjq->stij", P.rcal_inv, P.pb)
    nn = vp.grid.N + 1
    ii, jj = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    Gamma[ii < jj] = 0.0
    return CausalGains(Xi=Xi, Gamma=Gamma)


def solve_adjoint(P: RiccatiSolution, vp: VolterraProblem,
                  problem: DelayLQProblem) -> AdjointSolution:
    g = vp.grid
    N, dt, n, m = g.N, g.dt, vp.n, vp.m
    d = 3 * n
    Xi = _pointwise_gain(P, vp)

    eta = np.zeros((N + 1, N + 1, d))
    omega = np.zeros((N + 1, m))
    kvec = np.zeros((N + 1, m))

    def diagonal_and_kvec(l: int) -> None:
        g1sig = P.g1_table[l] @ problem.sigma[l]
        mix = vp.Ccal[l] + problem.D1[l] @ Xi[l]     # (n, 3n)
        diag = mix.T @ g1sig
        kv = problem.D1[l].T @ g1sig
        if l < N:
            closed = vp.a_column(l)[1:] + np.einsum(
                "rbm,mc->rbc", vp.B[l + 1:, l], Xi[l])
            diag = diag + np.einsum("rba,rb->a", closed, eta[l + 1:, l]) * dt
            kv = kv + np.einsum("rbm,rb->m", vp.B[l + 1:, l], eta[l + 1:, l]) * dt
        eta[l, l] = diag
        kvec[l] = kv
        omega[l] = -P.rcal_inv[l] @ kv

    diagonal_and_kvec(N)
    for l in range(N - 1, -1, -1):
        s = l + 1
        # drift of eta(., second argument) frozen at the known node s; the
        # free-term star product comes from the Riccati sweep
        y = P.rcal_inv[s] @ kvec[s]
        drift = P.pfree[s:, s] - np.einsum("ram,m->ra", P.pb[s:, s], y)
        eta[l + 1:, l] = eta[l + 1:, l + 1] + dt * drift
        diagonal_and_kvec(l)

    return AdjointSolution(eta=eta, omega=omega)


def synthesize_feedback(P: RiccatiSolution, adjoint: AdjointSolution,
                        vp: VolterraProblem,
                        problem: DelayLQProblem) -> FeedbackStrategy:
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    nn = N + 1
    src = problem
    gains = causal_gains(P, vp)
    ii, jj = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    strict = (ii > jj).astype(float)
    gam_strict = gains.Gamma * strict[:, :, None, None]
    gam1 = gam_strict[..., :n]          # [s, t] blocks of the history gain
    gam2 = gam_strict[..., n:2 * n]
    gam3 = gam_strict[..., 2 * n:]

    # current-state gain: pointwise part plus the history gain summed
    # against the stacked selector
    k1 = gains.Xi[:, :, :n] + np.einsum(
        "stab,stbc->tac", gam_strict, vp.U, optimize=True) * dt
    k3 = gains.Xi[:, :, n:2 * n].copy()

    # gf[t, beta] = sum_{alpha>t} gam3[alpha, t] F[alpha, beta] dt; this
    # is both the distributed-state history term and the kernel that
    # collects the memory channel inside k4
    gf = np.einsum("atmx,abxy->tbmy", gam3, src.F, optimize=True) * dt

    # distributed-state gain
    k2 = np.einsum("tmx,tsxy->tsmy", gains.Xi[:, :, 2 * n:], src.F)
    k2 += gf
    shift_ok = (jj + k >= ii) & (jj + k <= N) & (jj < ii)
    ts, ss = np.nonzero(shift_ok)
    if ts.size:
        k2[ts, ss] += gains.Gamma[ss + k, ts][:, :, n:2 * n]
    k2 *= strict[:, :, None, None]

    # suffix sums of the history gain over its first (future) index:
    # suf*[q, t] = sum_{r >= q} gam*[r, t] dt, with suf*[nn] = 0
    def suffix(blocks: np.ndarray) -> np.ndarray:
        out = np.zeros((nn + 1,) + blocks.shape[1:])
        out[:nn] = blocks
        return np.cumsum(out[::-1], axis=0)[::-1] * dt

    suf1 = suffix(gam1)
    suf2 = suffix(gam2)
    s3 = np.einsum("rtmx,rpxy->tpmy", gam3, vp.E, optimize=True) * dt

    # i1grid[t, p]: future history gain seen by a control impulse that
    # enters through the delay-shifted channel at node p >= t
    i1grid = suf1[1:nn + 1].transpose(1, 0, 2, 3).copy()
    shifted = np.stack([suf2[min(p + k + 1, nn)] for p in range(nn)], axis=0)
    i1grid += shifted.transpose(1, 0, 2, 3)
    i1grid += s3

    # distributed-control gain: shifted channel plus the memory channel
    k4 = np.zeros((nn, nn, m, m))
    mask_b2 = (jj >= ii - k) & (jj <= N - k) & (jj < ii)
    ts, ss = np.nonzero(mask_b2)
    if ts.size:
        k4[ts, ss] += np.einsum("pmx,pxq->pmq", i1grid[ts, ss + k],
                                src.B2[ss + k])
    has_memory = np.abs(src.B3).max() > 0 and np.abs(src.Ftilde).max() > 0
    if has_memory:
        bf = np.einsum("tab,tsbm->tsam", src.B3, src.Ftilde)  # (theta, s, n, m)
        for t in range(N):
            cf = np.cumsum(bf[t + 1:], axis=0) * dt   # cumulative from t+1
            cf_shift = np.zeros_like(cf)
            if cf.shape[0] > k:
                cf_shift[k:] = cf[:-k]
            term = np.einsum("amx,asxq->smq", gam1[t + 1:, t], cf) * dt
            term += np.einsum("amx,asxq->smq", gam2[t + 1:, t], cf_shift) * dt
            term += np.einsum("bmx,bsxq->smq", gf[t, t + 1:], cf) * dt
            k4[t] += term
    k4 *= strict[:, :, None, None]

    # offset: adjoint part, initial-state window, initial-control window
    v = adjoint.omega.copy()
    lim = min(k, N)
    for t in range(nn):
        for a in range(t + 1, lim + 1):
            v[t] += gains.Gamma[a, t][:, n:2 * n] @ src.xi[a] * dt
        if t <= k:
            # shifted-channel nodes beyond the horizon contribute nothing
            for p in range(t, min(k, N)):
                v[t] += i1grid[t, p] @ src.B2[p] @ src.varsigma[p] * dt

    return FeedbackStrategy(k1=k1, k2=k2, k3=k3, k4=k4, v=v)


def value_function(P: RiccatiSolution, vp: VolterraProblem) -> float:
    """Quadratic form of the free term; homogeneous problems only."""
    src = vp.source
    if np.abs(src.b).max() > 0 or np.abs(src.sigma).max() > 0:
        raise ProblemValidationError(
            ["value_function applies to homogeneous problems (b = sigma = 0)"])
    N, dt = vp.grid.N, vp.grid.dt
    phi = vp.phi[:N]
    single = np.einsum("ja,jab,jb->", phi, P.p1[:N], phi) * dt
    # slice0 is a strided view and einsum sums in memory order: a C-ordered
    # copy keeps the value the same to the last bit whatever the layout
    s0 = np.ascontiguousarray(P.slice0[:N, :N])
    double = np.einsum("ia,ijab,jb->", phi, s0, phi) * dt * dt
    return float(single + double)
