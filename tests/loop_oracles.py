"""Loop forms of the case I oracle and the case II P3c, kept as a reference.

These are the original per-node, per-lag Python loops that
``delaylq.oracles`` replaced with array code.  They are slow (the case I
extraction is O(N^3 k^2) Python iterations with the memory channel
active) and serve only to pin the vectorized oracles to 1e-12.

One correction against the original loops: three memory-channel
products (the two inner theta/beta sums of S2 and ``mem2`` of the
double-lag transport) read B3(theta)^T Ftilde(theta, s) where the
control column is B3(theta) Ftilde(theta, s).  The two agree for a
symmetric B3 (every scalar problem); for a non-symmetric one the
original S2 lost its swap symmetry.  Both forms here use B3 Ftilde.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from delaylq.oracles import CaseIResiduals, _require_zero
from delaylq.exceptions import ProblemValidationError


@dataclass(frozen=True)
class LoopCaseIExtraction:
    S0: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    p1script: object    # callable (l, a, b) -> n x n window sum


def loop_p3c(P, vp) -> np.ndarray:
    """P3c of the case II extraction, one (q, r) pair at a time."""
    g = vp.grid
    N, dt, n, k = g.N, g.dt, vp.n, g.delay_steps
    P3c = np.zeros((N + 1, N + 1, n, n))
    for l, sl in P.replay():
        for q in range(l, min(l + k, N) + 1):
            acc = P.p1[q][:n, n:2 * n].copy()
            for r in range(l + 1, N + 1):
                pair = sl[q - l, r - l]
                # ((pair)^T)[:n, n:2n] = (pair[n:2n, :n])^T
                acc = acc + pair[n:2 * n, :n].T * dt
                if r - l > k:
                    acc = acc + pair[n:2 * n, n:2 * n].T * dt
            P3c[l, q] = acc
    return P3c


def casei_extract(P, vp) -> LoopCaseIExtraction:
    problem = vp.source
    _require_zero(problem, ("A2", "A3", "C2", "C3", "Q2", "Q3", "R2",
                            "b", "sigma", "F"))
    if np.abs(problem.varsigma).max() > 0:
        raise ProblemValidationError(
            ["preset mismatch: control-delay-only check needs zero varsigma"])
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    first = slice(0, n)

    sufp1 = np.zeros((N + 2, n, n))
    sufp1[:N + 1] = P.p1[:, first, first]
    sufp1 = np.cumsum(sufp1[::-1], axis=0)[::-1] * dt   # sum over s >= index
    suf2 = [None] * (N + 1)
    for l, sl in P.replay(first):
        M = sl.shape[0]
        ss = np.zeros((M + 1, M + 1, n, n))
        ss[:M, :M] = sl
        ss = np.cumsum(np.cumsum(ss[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
        suf2[l] = ss

    def p1script(l: int, a: int, b: int) -> np.ndarray:
        """(1,1)-block window sum: first kernel over s > max(a,b) plus
        the pair kernel over {s > b} x {alpha > a} at base node l."""
        out = sufp1[min(max(a, b) + 1, N + 1)].copy()
        ss = suf2[l]
        ib, ia = b - l + 1, a - l + 1
        if 0 <= ib < ss.shape[0] and 0 <= ia < ss.shape[1]:
            out = out + ss[ib, ia] * dt * dt
        return out

    has_memory = np.abs(problem.B3).max() > 0 and np.abs(problem.Ftilde).max() > 0
    S0 = np.zeros((N + 1, n, n))
    S1 = np.zeros((N + 1, k + 1, m, n))
    S2 = np.zeros((N + 1, k + 1, k + 1, m, m))
    for l in range(N + 1):
        S0[l] = p1script(l, l, l)
        for q in range(k + 1):
            sq = l + q
            val = np.zeros((m, n))
            if sq <= N:
                val += problem.B2[sq].T @ p1script(l, l, sq)
            if has_memory and l + q - k >= 0:
                sarg = l + q - k
                for th in range(max(l, sarg) + 1, N + 1):
                    val += (problem.Ftilde[th, sarg].T @ problem.B3[th].T
                            @ p1script(l, th, l).T) * dt
            S1[l, q] = val
        for q in range(k + 1):
            for p in range(k + 1):
                sq, sp = l + q, l + p
                val = np.zeros((m, m))
                if sq <= N and sp <= N:
                    val += (problem.B2[sq].T @ p1script(l, sq, sp).T
                            @ problem.B2[sp])
                if has_memory:
                    if sq <= N and l + p - k >= 0:
                        sargp = l + p - k
                        inner = np.zeros((n, m))
                        for th in range(max(l, sargp) + 1, N + 1):
                            inner += (p1script(l, th, sq) @ problem.B3[th]
                                      @ problem.Ftilde[th, sargp]) * dt
                        val += problem.B2[sq].T @ inner
                    if l + q - k >= 0:
                        sargq = l + q - k
                        for th in range(max(l, sargq) + 1, N + 1):
                            row = problem.Ftilde[th, sargq].T @ problem.B3[th].T
                            if sp <= N:
                                val += (row @ p1script(l, th, sp).T
                                        @ problem.B2[sp]) * dt
                            if l + p - k >= 0:
                                sargp = l + p - k
                                inner = np.zeros((n, m))
                                for be in range(max(l, sargp) + 1, N + 1):
                                    inner += (p1script(l, th, be).T
                                              @ problem.B3[be]
                                              @ problem.Ftilde[be, sargp]) * dt
                                val += row @ inner * dt
                S2[l, q, p] = val
    return LoopCaseIExtraction(S0=S0, S1=S1, S2=S2, p1script=p1script)


def casei_residual(ext: LoopCaseIExtraction, problem) -> CaseIResiduals:
    """Finite-difference residuals of the control-delay equations.

    Transport residuals are evaluated along characteristics on interior
    lag nodes; when the memory channel is active the zero-lag row is
    skipped because its drift references the kernel diagonal, which has
    no discrete value.
    """
    g = problem.grid
    N, dt, n, k = g.N, g.dt, problem.n, g.delay_steps
    has_memory = np.abs(problem.B3).max() > 0 and np.abs(problem.Ftilde).max() > 0
    q_hi = k if not has_memory else k - 1

    def gain_parts(l: int):
        S0 = ext.S0[l]
        D1, B1, C1 = problem.D1[l], problem.B1[l], problem.C1[l]
        rc = problem.R1[l] + D1.T @ S0 @ D1
        rci = np.linalg.inv(rc)
        brace = B1.T @ S0 + ext.S1[l, k] + D1.T @ S0 @ C1
        return S0, rci, brace

    ode = tr1 = tr2 = bnd = 0.0
    for l in range(1, N + 1):
        S0l, rci, brace = gain_parts(l)
        fd = (ext.S0[l] - ext.S0[l - 1]) / dt
        rhs = (problem.A1[l].T @ S0l + S0l @ problem.A1[l] + problem.Q1[l]
               + problem.C1[l].T @ S0l @ problem.C1[l] - brace.T @ rci @ brace)
        ode = max(ode, float(np.abs(fd + rhs).max()))

    for l in range(N):
        S0l, rci, brace = gain_parts(l)
        for q in range(1, q_hi + 1):
            if l + q - k < 0:
                continue
            fd = (ext.S1[l + 1, q - 1] - ext.S1[l, q]) / dt
            memory = np.zeros((problem.m, n))
            if has_memory and l > l + q - k >= 0:
                memory = problem.Ftilde[l, l + q - k].T @ problem.B3[l].T @ S0l
            rhs = (memory + ext.S1[l, q] @ problem.A1[l]
                   - (ext.S1[l, q] @ problem.B1[l] + ext.S2[l, q, k])
                   @ rci @ brace)
            tr1 = max(tr1, float(np.abs(fd + rhs).max()))

    for l in range(N):
        S0l, rci, brace = gain_parts(l)
        for q in range(1, q_hi + 1):
            for p in range(1, q_hi + 1):
                if l + q - k < 0 or l + p - k < 0:
                    continue
                fd = (ext.S2[l + 1, q - 1, p - 1] - ext.S2[l, q, p]) / dt
                mem1 = np.zeros((problem.m, problem.m))
                mem2 = np.zeros((problem.m, problem.m))
                if has_memory:
                    if l > l + q - k:
                        mem1 = (problem.Ftilde[l, l + q - k].T
                                @ problem.B3[l].T @ ext.S1[l, p].T)
                    if l > l + p - k:
                        mem2 = (ext.S1[l, q] @ problem.B3[l]
                                @ problem.Ftilde[l, l + p - k])
                rhs = (mem1 + mem2
                       - (ext.S1[l, q] @ problem.B1[l] + ext.S2[l, q, k])
                       @ rci
                       @ (problem.B1[l].T @ ext.S1[l, p].T + ext.S2[l, k, p]))
                tr2 = max(tr2, float(np.abs(fd + rhs).max()))

    for l in range(N + 1):
        S0l, _, _ = gain_parts(l)
        if has_memory and l - k < 0:
            continue
        edge = problem.B2[l].T @ S0l
        if has_memory:
            for th in range(max(l, l - k) + 1, N + 1):
                edge += (problem.Ftilde[th, l - k].T @ problem.B3[th].T
                         @ ext.p1script(l, th, l).T) * dt
        bnd = max(bnd, float(np.abs(ext.S1[l, 0] - edge).max()))

    return CaseIResiduals(ode=ode, transport1=tr1, transport2=tr2, boundary=bnd)
