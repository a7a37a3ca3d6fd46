"""Loop forms of the case I oracle, the case II P3c and residual and the
feedback synthesis's distributed-state gain, memory channel and offset,
kept as a reference, the Riccati sweep that advanced every slice and its
full-width Euler step, the Riccati residual and the case V/II sandwich
as they read the replayed slices, the dense selector table with the
products the lifting once formed against it, and the lifting's per-node
loop over the memory channel of the control kernel.

These are the original per-node, per-lag Python loops that
``delaylq.oracles`` and ``delaylq.adjoint.synthesize_feedback`` replaced
with array code.  They are slow (the case I extraction is O(N^3 k^2)
Python iterations with the memory channel active) and serve only to pin
the array forms to 1e-12.  ``euler_sweep`` is the Riccati sweep as it
ran before it applied the two-time kernel through its frontier and the
control products: it advanced the interior of every slice by one
explicit Euler step per node and formed its products against the slice.
``adjoint_sweep`` is the adjoint's backward loop as it ran after the
Riccati sweep, reading the free-term products that sweep stored, and
keeping the whole pair table; fed by ``euler_sweep``'s tables it pins
the adjoint the sweep now carries, whose selector sums
``pair_selector_sums`` forms from that table.
``advance_full_width`` is the replay's Euler step on every entry, as it
ran beside the step that skipped the dead lifted blocks; swapped in for
``delaylq.cli._euler`` it pins that step bit for bit, and
``evolution_profile_full_width``, the
residual's evolution check over every row of the control products, does
the same for the check's live rows.  ``riccati_residual`` is the
residual as it ran on the replayed slices, with the selector column
``selector`` and the slice product ``apply_slice``; ``replayed_g1`` is
the selector sandwich the case V and II checks summed from the slices,
and ``caseii_residual`` the state-delay residual with its gain parts
formed per use and its sums over s accumulated term by term.
``live_blocks`` is the rule on
the data that the live set ``RiccatiSolution`` reads off its tables must
follow.  ``dense_selector`` is the (N+1, N+1, 3n, n) table the lifting
stored before it built one selector column at a time;
``dense_lifted_kernel`` and ``dense_k1`` are the kernel tables and the
current-state gain summed against it.  ``causal_gains`` is the history
gain Gamma as the synthesis formed it before it worked in the factor
table's layout, one (N+1, N+1, m, 3n) table in [s, t] order beside the
pointwise gain Xi; ``dense_k1``, ``synthesis_k2`` and ``synthesis_k4_v``
read it, and ``synthesis_k2`` is the distributed-state gain one pair
(t, s) at a time.  ``whole_grid_synthesis`` is the synthesis as it ran
before it went a block of nodes at a time: Gamma, its suffix sums and
every table derived from them formed for all nodes at once, in the
factor table's layout.  ``memory_control_kernel`` is the
B3 part of the control kernel, built one column at a time, and
``dense_control_kernel`` the whole control kernel as the lifting stored
it before it wrote the columns a block of nodes at a time.
``a_column`` is the column of the state kernel that the sweep formed at
each node, and ``write_pair_table_rows`` is the CLI's pair-table writer
as it formatted one row at a time.  ``simulate`` is the Euler-Maruyama
loop as it stepped before it stacked the coefficients: ``euler_step``
forms drift and diffusion one einsum per coefficient,
``memory_integral`` sums z and mu per node, and the closed loop's
feedback applies one einsum per gain.  ``qp_terms`` is the QP oracle's
Hessian, gradient and constant as ``extended_cost_paths`` and
``bilinear`` assembled them from that stepper's runs.  ``per_node_sweep``
and ``per_node_residual`` are the Riccati sweep and residual as they ran
before they applied the slices to blocks of nodes: one slice product
per node over all of its future rows; the residual's evolution line
forms each node's D whole (``_live_rows``) and takes its max in row
blocks (``_evolution_max``).  They keep the factor table dense, as the
sweep did before it stored the lower half only: ``dense_factor`` is
that table (and its control rows pb) read off a solution, the one way
the tests read the factor table, ``stored_factor`` puts a dense table
back into the solver's blocks, and ``dense_interior`` is the slice
product over the dense table, whose products against H halve the node
range recursively and skip the zero quarter (``by_triangle``).

One correction against the original loops: three memory-channel
products (the two inner theta/beta sums of S2 and ``mem2`` of the
double-lag transport) read B3(theta)^T Ftilde(theta, s) where the
control column is B3(theta) Ftilde(theta, s).  The two agree for a
symmetric B3 (every scalar problem); for a non-symmetric one the
original S2 lost its swap symmetry.  Both forms here use B3 Ftilde.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from delaylq import cli
from delaylq.adjoint import FeedbackStrategy
from delaylq.cli import replay
from delaylq.oracles import CASES, CaseIIResiduals, CaseIResiduals
from delaylq.exceptions import NumericalError
from delaylq.riccati import (_EVOLUTION_BLOCK, RiccatiResiduals,
                             RiccatiSolution, _block_nodes,
                             _lost_definiteness, _partition, _sym)
from delaylq.simulate import BLOWUP_THRESHOLD, BrownianBatch, SimulationBatch
from delaylq import volterra
from delaylq.volterra import _by_node_rows, _node_product, memory_kernel


@dataclass(frozen=True)
class LoopCaseIExtraction:
    S0: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    p1script: object    # callable (l, a, b) -> n x n window sum


def live_blocks(vp) -> slice:
    """The lifted blocks the data reads, as a slice of the block axis: the
    live set ``RiccatiSolution`` should read off the solver's tables.

    Block 1 is always live; block 2 iff its columns of Acal or Ccal or its
    rows of Q hold a nonzero entry (A2, C2, Q2), block 3 likewise (A3, C3,
    Q3).  The result is one of 0:1, 0:2, 0::2 and 0:3.
    """
    n = vp.n

    def reads(b: int) -> bool:
        cols = slice(b * n, (b + 1) * n)
        return bool(vp.Acal[..., cols].any() or vp.Ccal[..., cols].any()
                    or vp.Q[:, cols].any())

    delay, memory = reads(1), reads(2)
    if memory and not delay:
        return slice(0, 3, 2)
    return slice(0, 1 + delay + memory)


def advance_full_width(X, pb_next, rinv_next, dt, work, live=None):
    """One Euler step of the rank-m drift on every entry of slice X."""
    pbf = pb_next.reshape(X.shape[0], -1)
    np.matmul((pb_next @ rinv_next).reshape(pbf.shape), pbf.T, out=work)
    work *= dt
    np.subtract(X, work, out=work)
    np.add(work, work.T, out=X)
    X *= 0.5


def selector(vp, l: int) -> np.ndarray:
    """Selector column U(t_r, t_l) for r >= l, as (N+1-l, 3n, n)."""
    n, M = vp.n, vp.grid.N + 1 - l
    # node stride twice the block: einsum fuses the axes of a contiguous
    # column and then sums g1 in another order
    col = np.zeros((M, 2, 3 * n, n))[:, 0]
    col[:, :n] = np.eye(n)
    col[vp.grid.delay_steps + 1:, n:2 * n] = np.eye(n)
    col[:, 2 * n:] = vp.E[l:, l]
    return col


def apply_slice(u, X):
    """sum_{t,b} X[(s,a), (t,b)] u[t, b, :] as an (M, d, k) array.  X is
    exactly symmetric, so the row product u^T X serves; it sums in the
    order of einsum's ``stab,tbj->saj`` plan, bit for bit, and X @ u not."""
    M, d, k = u.shape
    return (u.reshape(M * d, k).T @ X).T.reshape(M, d, k)


def a_column(vp, l, sel):
    """State kernel column U(., t_l) Acal(t_l) from sel = selector(vp, l)."""
    return np.einsum("rab,bc->rac", sel, vp.Acal[l])


def euler_sweep(vp) -> dict:
    """The tables of the sweep that advanced every slice: p1, the
    frontier (lower triangle, zero above), pb, the free-term products
    pfree, g1_table, rcal, rcal_inv and the pointwise gain Xi."""
    N, dt, n, m = vp.grid.N, vp.grid.dt, vp.n, vp.m
    d = 3 * n
    p1 = np.zeros((N + 1, d, d))
    g1_table = np.zeros((N + 1, n, n))
    rcal = np.zeros((N + 1, m, m))
    rcal_inv = np.zeros((N + 1, m, m))
    pb = np.zeros((N + 1, N + 1, d, m))
    frontier = np.zeros((N + 1, N + 1, d, d))
    pfree = np.zeros((N + 1, N + 1, d))
    Xi = np.zeros((N + 1, m, d))

    def factor_rcal(l, mat):
        mat = _sym(mat)
        rcal[l] = mat
        linv = np.linalg.inv(np.linalg.cholesky(mat))
        rcal_inv[l] = linv.T @ linv

    def free_term(l, X, sel):
        if vp.source.b[l].any():
            ub = np.einsum("rab,b->ra", sel, vp.source.b[l])
            w_free = np.einsum("rab,rb->ra", p1[l:], ub)
            pfree[l:, l] = w_free + (ub[1:].ravel() @ X[d:]).reshape(-1, d) * dt

    buf = np.empty(((N + 1) * d,) * 2)
    work = np.empty(N * N * d * d)
    for l in range(N, -1, -1):
        X, M = buf[l * d:, l * d:], N - l
        sel = selector(vp, l)
        if l == N:
            p1[N] = _sym(vp.Q[N])
            factor_rcal(N, vp.R[N])
            X[:] = _sym(p1[N] @ a_column(vp, N, sel)[0])
            frontier[N, N] = X
            pb[N, N] = p1[N] @ vp.lifted_columns(N)[0, 0, :, n:]
            free_term(N, X, sel)
            continue
        cli._euler(X[d:, d:], pb[l + 1:, l + 1], rcal_inv[l + 1], dt,
                   work[:(M * d) ** 2].reshape(M * d, M * d))
        interior, ups = X[d:, d:], sel[1:]
        p1_fut = p1[l + 1:]
        pu = np.einsum("sab,sbj->saj", p1_fut, ups)
        g1_val = np.einsum("sai,saj->ij", ups, pu) * dt
        v_in = apply_slice(ups, interior) * dt
        g1_val += np.einsum("sai,saj->ij", ups, v_in) * dt
        g1_val = _sym(g1_val)
        g1_table[l] = g1_val
        D1l = vp.source.D1[l]
        factor_rcal(l, vp.R[l] + D1l.T @ g1_val @ D1l)
        cgd = vp.Ccal[l].T @ g1_val @ D1l
        dgc = D1l.T @ g1_val @ vp.Ccal[l]
        p1[l] = _sym(vp.Q[l] + vp.Ccal[l].T @ g1_val @ vp.Ccal[l]
                     - cgd @ rcal_inv[l] @ dgc)
        Xi[l] = -rcal_inv[l] @ dgc
        bcol = vp.lifted_columns(l, l + 1)[1:, 0, :, n:]
        pa_col = np.einsum("saj,jc->sac", pu + v_in, vp.Acal[l])
        pb_col = (np.einsum("sab,sbm->sam", p1_fut, bcol)
                  + apply_slice(bcol, interior) * dt)
        bnd = pa_col - np.einsum("sam,mq,qc->sac", pb_col, rcal_inv[l], dgc)
        X[d:, :d] = bnd.reshape(-1, d)
        X[:d, d:] = X[d:, :d].T
        row0 = np.ascontiguousarray(bnd.transpose(0, 2, 1))
        acol = a_column(vp, l, sel)
        pa_corner = p1[l] @ acol[0] + np.einsum("rab,rbc->ac", row0, acol[1:]) * dt
        pb_corner = p1[l] @ vp.lifted_columns(l, l + 1)[0, 0, :, n:] + np.einsum("rab,rbm->am", row0, bcol) * dt
        X[:d, :d] = _sym(pa_corner - pb_corner @ rcal_inv[l] @ dgc)
        frontier[l:, l] = X[:, :d].reshape(M + 1, d, d)
        free_term(l, X, sel)
        pb[l + 1:, l] = pb_col
        pb[l, l] = pb_corner
    return dict(p1=p1, frontier=frontier, pb=pb, pfree=pfree,
                g1_table=g1_table, rcal=rcal, rcal_inv=rcal_inv, Xi=Xi)


def adjoint_sweep(vp, ref) -> tuple:
    """The adjoint's pair table eta and offset omega by the separate
    backward loop that read the stored free-term products, fed by the
    tables of ``euler_sweep``."""
    g = vp.grid
    problem = vp.source
    N, dt, n, m = g.N, g.dt, vp.n, vp.m
    d = 3 * n
    W = np.concatenate([vp.Acal, ref["Xi"]], axis=1)     # [Acal; Xi]

    eta = np.zeros((N + 1, N + 1, d))
    omega = np.zeros((N + 1, m))
    # the diagonal and kvec less their sums over eta, every node at once
    g1sig = ref["g1_table"] @ problem.sigma[:, :, None]         # (N+1, n, 1)
    mix = vp.Ccal + problem.D1 @ ref["Xi"]                      # (N+1, n, 3n)
    diag = (mix.transpose(0, 2, 1) @ g1sig)[..., 0]
    kvec = (problem.D1.transpose(0, 2, 1) @ g1sig)[..., 0]

    y = np.zeros(m)                              # rcal_inv kvec at node l + 1
    for l in range(N, -1, -1):
        if l < N:
            s, M = l + 1, N - l
            # drift of eta(., second argument) frozen at the known node s
            drift = ref["pfree"][s:, s] - (ref["pb"][s:, s].reshape(-1, m)
                                           @ y).reshape(M, d)
            col = eta[s:, l]
            np.add(eta[s:, s], dt * drift, out=col)
            # the selector and control columns U(., t_l), B(., t_l)
            u = vp.lifted_columns(l, l + 1)[1:, 0]
            # sum_r U(r, l)^T eta(r, l) and sum_r B(r, l)^T eta(r, l): the
            # state kernel's column is U(., l) Acal(l), closed by Xi(l): W(l)
            c = (u.reshape(M * d, n + m).T @ col.reshape(-1)) * dt
            diag[l] += W[l].T @ c
            kvec[l] += c[n:]
        eta[l, l] = diag[l]
        y = ref["rcal_inv"][l] @ kvec[l]
        omega[l] = -y
    return eta, omega


def pair_selector_sums(vp, eta) -> np.ndarray:
    """eta1(l) = dt sum_{r>l} U(r, l)^T eta(r, l) from the pair table,
    one selector column at a time; row N is 0."""
    N, dt = vp.grid.N, vp.grid.dt
    out = np.zeros((N + 1, vp.n))
    for l in range(N):
        out[l] = np.einsum("rab,ra->b", selector(vp, l)[1:],
                           eta[l + 1:, l]) * dt
    return out


def evolution_profile_full_width(P, vp) -> np.ndarray:
    """The evolution line of ``riccati_residual`` over every row of the
    control products, the smooth pairs picked by boolean row and column
    selection."""
    N, k, d = P.N, vp.grid.delay_steps, 3 * P.n
    prof, pb = np.zeros(N), dense_factor(P)[1]
    for l in range(N - 1, -1, -1):
        if l == N - k - 1 and vp.source.nonzero("R2"):
            continue
        M = N - l
        nxt = pb[l + 1:, l + 1].reshape(M * d, -1)
        cur = pb[l + 1:, l].reshape(M * d, -1)
        fd = (_sym((nxt @ P.rcal_inv[l + 1]) @ nxt.T)
              - (cur @ P.rcal_inv[l]) @ cur.T)
        idx = np.arange(1, M + 1)
        smooth = (np.abs(idx - k) > 1) & (np.abs(idx - 2 * k) > 1)
        if smooth.any():
            rows = np.repeat(smooth, d)
            prof[l] = np.abs(fd[rows][:, rows]).max()
    return prof


def live_view(X, M: int, live: slice):
    """The live entries of the flat slice X over M nodes, a strided
    (M, L, n, M, L, n) view."""
    n = X.shape[0] // (3 * M)
    return X.reshape(M, 3, n, M, 3, n)[:, live, :, :, live, :]


def riccati_residual(P, vp) -> RiccatiResiduals:
    """The three-line residual as it ran on the replayed slices: the
    selector sandwich and the control column applied to each whole slice
    with six einsums and two slice products, and the evolution line as
    the finite difference of consecutive slices."""
    g, src, d = vp.grid, vp.source, 3 * vp.n
    N, dt, k = g.N, g.dt, g.delay_steps
    pb = dense_factor(P)[1]

    res_rcal = 0.0
    for l in range(N + 1):
        D1l = src.D1[l]
        res_rcal = max(res_rcal, float(np.abs(
            P.rcal[l] - vp.R[l] - D1l.T @ P.g1_table[l] @ D1l).max()))

    prof_point = np.zeros(N + 1)
    prof_bound, prof_evol = np.zeros(N), np.zeros(N)
    prev = None                                   # copy of flat slice l+1
    for l, sl in replay(P):
        M = N - l
        # the flat slice behind the replay's view
        X = sl.transpose(0, 2, 1, 3).reshape((M + 1) * d, (M + 1) * d)
        w = np.full(M + 1, dt if l < N else 0.0)
        w[[0, -1]] *= 0.5
        ups = selector(vp, l)
        pu = np.einsum("sab,sbj->saj", P.p1[l:], ups)
        g1t = np.einsum("s,sai,saj->ij", w, ups, pu)
        v_in = apply_slice(w[:, None, None] * ups, X)
        g1t += np.einsum("s,sai,saj->ij", w, ups, v_in)
        g1t = _sym(g1t)
        D1l = src.D1[l]
        rct_inv = np.linalg.inv(vp.R[l] + D1l.T @ g1t @ D1l)
        cgd = vp.Ccal[l].T @ g1t @ D1l
        dgc = D1l.T @ g1t @ vp.Ccal[l]
        lhs1 = P.p1[l] - (vp.Q[l] + vp.Ccal[l].T @ g1t @ vp.Ccal[l]
                          - cgd @ rct_inv @ dgc)
        prof_point[l] = float(np.abs(lhs1).max())

        if l < N:
            g2t = pu + v_in                       # trapezoid-weighted
            pa = np.einsum("saj,jc->sac", g2t[1:], vp.Acal[l])
            bker = vp.lifted_columns(l, l + 1)[:, 0, :, vp.n:]
            pbt = (np.einsum("sab,sbm->sam", P.p1[l:], bker)
                   + apply_slice(w[:, None, None] * bker, X))
            lhs3 = X[d:, :d].reshape(M, d, d) - (pa - np.einsum(
                "sam,mq,qc->sac", pbt[1:], rct_inv, dgc))
            prof_bound[l] = float(np.abs(lhs3).max())

            if not (l == N - k - 1 and src.nonzero("R2")):
                pb_rows = _live_rows(pb[l + 1:, l], P.live)
                fd = np.subtract(prev, live_view(X[d:, d:], M, P.live),
                                 out=prev).reshape(pb_rows.shape[0], -1)
                fd /= dt
                fd -= (pb_rows @ P.rcal_inv[l]) @ pb_rows.T
                idx = np.arange(1, M + 1)
                rough = (np.abs(idx - k) <= 1) | (np.abs(idx - 2 * k) <= 1)
                rough = np.repeat(rough, fd.shape[0] // M)
                fd[rough] = 0.0
                fd[:, rough] = 0.0
                prof_evol[l] = float(np.abs(fd, out=fd).max())
        # a copy, not np.ascontiguousarray: a one-entry view is contiguous
        prev = live_view(X, M + 1, P.live).copy() if l > 0 else None

    return RiccatiResiduals(
        pointwise=float(prof_point.max()),
        evolution=float(prof_evol.max()) if N > 0 else 0.0,
        boundary=float(prof_bound.max()) if N > 0 else 0.0,
        rcal_identity=res_rcal, pointwise_profile=prof_point,
        evolution_profile=prof_evol, boundary_profile=prof_bound)


def replayed_g1(P, vp) -> np.ndarray:
    """The selector sandwich summed over the replayed slices, as the case V
    embedding and the case II extraction summed it: at node l, over
    s, t > l, sum_s U^T p1(s) U dt + sum_{s,t} U(s)^T p2(s, t, l) U(t) dt^2,
    U = U(., t_l)."""
    N, dt = P.N, P.dt
    out = np.zeros((N + 1, P.n, P.n))
    for l, sl in replay(P):
        if l < N:
            sel = selector(vp, l)[1:].swapaxes(-1, -2)
            pw = np.einsum("sab,sbc,sdc->ad", sel, P.p1[l + 1:], sel) * dt
            inner = np.einsum("stab,tcb->sac", sl[1:, 1:], sel,
                              optimize=True) * dt
            out[l] = pw + np.einsum("sab,sbc->ac", sel, inner) * dt
    return out


def loop_p3c(P, vp) -> np.ndarray:
    """P3c of the case II extraction, one (q, r) pair at a time."""
    g = vp.grid
    N, dt, n, k = g.N, g.dt, vp.n, g.delay_steps
    P3c = np.zeros((N + 1, N + 1, n, n))
    for l, sl in replay(P):
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
    CASES["I"].enforce(problem)
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    first = slice(0, n)

    sufp1 = np.zeros((N + 2, n, n))
    sufp1[:N + 1] = P.p1[:, first, first]
    sufp1 = np.cumsum(sufp1[::-1], axis=0)[::-1] * dt   # sum over s >= index
    suf2 = [None] * (N + 1)
    for l, sl in replay(P):
        M = sl.shape[0]
        ss = np.zeros((M + 1, M + 1, n, n))
        ss[:M, :M] = sl[:, :, first, first]
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


def caseii_residual(ext, problem) -> CaseIIResiduals:
    """The state-delay residuals with the gain parts formed per use and the
    transport's sums over s accumulated one term at a time."""
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
        for q in range(l + 1, min(l + k - 1, N) + 1):
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


@dataclass(frozen=True)
class CausalGains:
    """Feedback on the lifted state: u = Xi X + int Gamma Theta + offset.

    ``Gamma[s, t]`` is meaningful for s >= t; the diagonal holds the
    limiting value used when shifted indices collide with the current
    node.  Entries with s < t are zero.
    """

    Xi: np.ndarray      # (N+1, m, 3n)
    Gamma: np.ndarray   # (N+1, N+1, m, 3n)


def causal_gains(P, vp) -> CausalGains:
    # C order: pb is a transposed view, and the history gain's sums
    # follow the layout of what they read
    Gamma = np.einsum("tiq,stjq->stij", P.rcal_inv, dense_factor(P)[1],
                      order="C")
    np.negative(Gamma, out=Gamma)
    Gamma[~np.tri(vp.grid.N + 1, dtype=bool)] = 0.0      # s < t
    return CausalGains(Xi=P.W[:, P.n:], Gamma=Gamma)


def synthesis_k2(P, vp, problem):
    """k2 of the feedback synthesis one pair t > s at a time: Xi3(t)
    F(t, s), plus sum_{alpha>t} Gamma3(alpha, t) F(alpha, s) dt, plus the
    shifted channel Gamma2(s + k, t) on t - k <= s < t, s + k <= N (its
    diagonal value at s + k = t included)."""
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    gains = causal_gains(P, vp)
    k2 = np.zeros((N + 1, N + 1, m, n))
    for t in range(N + 1):
        for s in range(t):
            acc = gains.Xi[t][:, 2 * n:] @ problem.F[t, s]
            for alpha in range(t + 1, N + 1):
                acc = acc + (gains.Gamma[alpha, t][:, 2 * n:]
                             @ problem.F[alpha, s]) * dt
            if s >= t - k and s + k <= N:
                acc = acc + gains.Gamma[s + k, t][:, n:2 * n]
            k2[t, s] = acc
    return k2


def synthesis_k4_v(P, vp, problem):
    """k4 and v of the feedback synthesis: the memory channel one node at
    a time, with its cumulative sums rebuilt per node, and the offset's
    double loop over (t, a) and (t, p)."""
    g = vp.grid
    N, dt, n, m, k = g.N, g.dt, vp.n, vp.m, g.delay_steps
    nn = N + 1
    src = problem
    gains = causal_gains(P, vp)
    ii, jj = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    strict = (ii > jj).astype(float)
    gam_strict = gains.Gamma * strict[:, :, None, None]
    gam1 = gam_strict[..., :n]
    gam2 = gam_strict[..., n:2 * n]
    gam3 = gam_strict[..., 2 * n:]
    gf = np.einsum("atmx,abxy->tbmy", gam3, src.F, optimize=True) * dt

    def suffix(blocks: np.ndarray) -> np.ndarray:
        out = np.zeros((nn + 1,) + blocks.shape[1:])
        out[:nn] = blocks
        return np.cumsum(out[::-1], axis=0)[::-1] * dt

    suf1 = suffix(gam1)
    suf2 = suffix(gam2)
    s3 = np.einsum("rtmx,rpxy->tpmy", gam3, vp.E, optimize=True) * dt
    i1grid = suf1[1:nn + 1].transpose(1, 0, 2, 3).copy()
    shifted = np.stack([suf2[min(p + k + 1, nn)] for p in range(nn)], axis=0)
    i1grid += shifted.transpose(1, 0, 2, 3)
    i1grid += s3

    k4 = np.zeros((nn, nn, m, m))
    mask_b2 = (jj >= ii - k) & (jj <= N - k) & (jj < ii)
    ts, ss = np.nonzero(mask_b2)
    if ts.size:
        k4[ts, ss] += np.einsum("pmx,pxq->pmq", i1grid[ts, ss + k],
                                src.B2[ss + k])
    has_memory = np.abs(src.B3).max() > 0 and np.abs(src.Ftilde).max() > 0
    if has_memory:
        bf = np.einsum("tab,tsbm->tsam", src.B3, src.Ftilde)
        for t in range(N):
            cf = np.cumsum(bf[t + 1:], axis=0) * dt
            cf_shift = np.zeros_like(cf)
            if cf.shape[0] > k:
                cf_shift[k:] = cf[:-k]
            term = np.einsum("amx,asxq->smq", gam1[t + 1:, t], cf) * dt
            term += np.einsum("amx,asxq->smq", gam2[t + 1:, t], cf_shift) * dt
            term += np.einsum("bmx,bsxq->smq", gf[t, t + 1:], cf) * dt
            k4[t] += term
    k4 *= strict[:, :, None, None]

    v = P.omega.copy()
    lim = min(k, N)
    for t in range(nn):
        for a in range(t + 1, lim + 1):
            v[t] += gains.Gamma[a, t][:, n:2 * n] @ src.xi[a] * dt
        if t <= k:
            for p in range(t, min(k, N)):
                v[t] += i1grid[t, p] @ src.B2[p] @ src.varsigma[p] * dt
    return k4, v


def whole_grid_synthesis(P, vp) -> FeedbackStrategy:
    """``synthesize_feedback`` with every table over all nodes at once:
    the history gain, its suffix sums, s3, i1grid and w, each N^2 sized,
    alive together."""
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
                    dense_factor(P)[0][:, n:].reshape(nn, m, nn, d),
                    order="C")
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


def dense_selector(vp) -> np.ndarray:
    """U[i, j] = (I; 1{i-j>k} I; E[i, j]) for every pair, above the
    diagonal included."""
    n, nn, k = vp.n, vp.grid.N + 1, vp.grid.delay_steps
    eye = np.eye(n)
    U = np.zeros((nn, nn, 3 * n, n))
    U[:, :, :n, :] = eye
    idx_i, idx_j = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    U[:, :, n:2 * n, :] = ((idx_i - idx_j) > k)[:, :, None, None] * eye
    U[:, :, 2 * n:, :] = vp.E
    return U


def dense_lifted_kernel(U, row) -> np.ndarray:
    """U(t_i, t_j) row(t_j) for j <= i from the dense selector, zero above
    the diagonal."""
    sub = "ijab,jb->ija" if row.ndim == 2 else "ijab,jbc->ijac"
    out = np.einsum(sub, U, row)
    out[np.triu_indices(U.shape[0], 1)] = 0.0
    return out


def dense_k1(P, vp) -> np.ndarray:
    """Current-state gain: the pointwise gain plus the history gain summed
    against the dense selector over s > t."""
    gains = causal_gains(P, vp)
    nn, n, dt = vp.grid.N + 1, vp.n, vp.grid.dt
    strict = np.tril(np.ones((nn, nn)), -1)
    gam_strict = gains.Gamma * strict[:, :, None, None]
    return gains.Xi[:, :, :n] + np.einsum(
        "stab,stbc->tac", gam_strict, dense_selector(vp), optimize=True) * dt


def memory_control_kernel(problem, E) -> np.ndarray:
    """The B3 Ftilde part of the control kernel, column j at a time: the
    running sums of B3(theta) Ftilde(theta, j) dt in the first row, the
    same one delay short in the second, and their E-weighted sum in the
    third."""
    g = problem.grid
    nn, n, m, k, dt = g.N + 1, problem.n, problem.m, g.delay_steps, g.dt
    out = np.zeros((nn, nn, 3 * n, m))
    for j in range(nn - 1):
        W = np.einsum("tab,tbm->tam", problem.B3[j + 1:],
                      problem.Ftilde[j + 1:, j])
        CW = np.cumsum(W, axis=0) * dt
        out[j + 1:, j, :n] += CW
        if j + k + 2 < nn:
            out[j + k + 2:, j, n:2 * n] += CW[:nn - (j + k + 2)]
        out[j + 1:, j, 2 * n:] += np.einsum(
            "itab,tbm->iam", E[j + 1:, j + 1:], W) * dt
    return out


def dense_control_kernel(problem, E) -> np.ndarray:
    """The control kernel B as the lifting stored it, one (N+1, N+1, 3n, m)
    table from (N+1)^2 index grids; E is the running integral table."""
    g = problem.grid
    n, m = problem.n, problem.m
    nn, k, dt = g.N + 1, g.delay_steps, g.dt

    idx_i, idx_j = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    delayed = (idx_i - idx_j) > k

    # control kernel rows; B2 shifted by the delay, B3 routed through Ftilde
    B = np.zeros((nn, nn, 3 * n, m))
    ind2 = (idx_i - idx_j) > 2 * k
    B2s = np.zeros((nn, n, m))
    B2s[: max(nn - k, 0)] = problem.B2[k:]
    B[:, :, :n, :] = problem.B1[None, :, :, :] + delayed[:, :, None, None] * B2s[None]
    B[:, :, n:2 * n, :] = (
        delayed[:, :, None, None] * problem.B1[None]
        + ind2[:, :, None, None] * B2s[None]
    )
    E2 = np.zeros((nn, nn, n, n))
    if k < nn:
        E2[:, : nn - k] = E[:, k:]
    B[:, :, 2 * n:, :] = (
        np.einsum("ijab,jbm->ijam", E, problem.B1)
        + np.einsum("ijab,jbm->ijam", E2, B2s)
    )
    if problem.has_memory:
        # W[t, j] = B3(t) Ftilde(t, j) for t > j, and its running sums
        # CW[i, j] = sum_{theta=j+1}^{i} W[theta, j] dt, added where i > j
        later = idx_i > idx_j
        W = np.einsum("tab,tjbm->tjam", problem.B3, problem.Ftilde)
        W[~later] = 0.0
        CW = np.cumsum(W, axis=0) * dt
        blk = B[:, :, :n, :]
        np.add(blk, CW, out=blk, where=later[:, :, None, None])
        # second row stops one delay short of the evaluation time
        if k + 1 < nn:
            blk = B[k + 1:, :, n:2 * n, :]
            np.add(blk, CW[:nn - k - 1], out=blk,
                   where=later[:nn - k - 1, :, None, None])
        # third row: sum_{t>j} E[i, t] W[t, j] dt
        EW = _node_product(E.transpose(0, 2, 1, 3), W.transpose(0, 2, 1, 3),
                           dt)
        blk = B[:, :, 2 * n:, :]
        np.add(blk, EW, out=blk, where=later[:, :, None, None])
    B[idx_j > idx_i] = 0.0
    return B


def write_pair_table_rows(path, table) -> None:
    """The pair-table writer as it formatted one row at a time: rows
    "i,j,<floats at 17 digits>" for j < i."""
    rows = table.reshape(table.shape[:2] + (-1,))
    fmt = "%d,%d," + ",".join(["%.17g"] * rows.shape[2]) + "\n"
    with open(path, "w") as fh:
        for i in range(rows.shape[0]):
            fh.writelines(fmt % (i, j, *row)
                          for j, row in enumerate(rows[i, :i].tolist()))


# ----------------------------------------------------------------------
# The Euler-Maruyama step one coefficient at a time, and the QP assembly
# ----------------------------------------------------------------------

def delayed_state(problem, x: np.ndarray, j: int) -> np.ndarray:
    k = problem.grid.delay_steps
    if j <= k:
        return np.broadcast_to(problem.xi[j], x.shape[0:1] + (problem.n,))
    return x[:, j - k]


def delayed_control(problem, u: np.ndarray, j: int) -> np.ndarray:
    k = problem.grid.delay_steps
    if j < k:
        return np.broadcast_to(problem.varsigma[j], u.shape[0:1] + (problem.m,))
    return u[:, j - k]


def memory_integral(kernel: np.ndarray, history: np.ndarray, j: int,
                    dt: float) -> np.ndarray:
    """Distributed-delay integral of ``history`` (paths, nodes, dim) against
    the kernel row j, by left-rectangle quadrature: z_j for the state and
    F, mu_j for the control and Ftilde.

    At j = 0 the sum is empty and the integral an exact zero.
    """
    return np.einsum("lab,plb->pa", kernel[j, :j], history[:, :j]) * dt


def euler_step(problem, j: int, x: np.ndarray,
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


def simulate(problem, batch: BrownianBatch,
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
        y = delayed_state(problem, x, j)
        u[:, j] = u_j = control(j, x, u, y)
        if j == N:
            break
        nu = delayed_control(problem, u, j)
        z = memory_integral(problem.F, x, j, dt)
        mu = memory_integral(problem.Ftilde, u, j, dt)
        costs += (np.einsum("pa,ab,pb->p", x[:, j], problem.Q1[j], x[:, j])
                  + np.einsum("pa,ab,pb->p", y, problem.Q2[j], y)
                  + np.einsum("pa,ab,pb->p", z, problem.Q3[j], z)
                  + np.einsum("pa,ab,pb->p", u[:, j], problem.R1[j], u[:, j])
                  + np.einsum("pa,ab,pb->p", nu, problem.R2[j], nu)) * dt
        x[:, j + 1] = euler_step(problem, j, x[:, j], y, z, u_j, nu, mu,
                                 batch.increments[:, j])

    flagged = (np.abs(x).max(axis=(1, 2)) > BLOWUP_THRESHOLD) | ~np.isfinite(
        x.reshape(P, -1)).all(axis=1)
    return SimulationBatch(x=x, u=u, cost_samples=costs, flagged=flagged)


def simulate_open_loop(problem, u_paths: np.ndarray,
                       batch: BrownianBatch) -> SimulationBatch:
    """The reference stepper driven by the given controls, (n_paths, N+1,
    m) or (N+1, m) broadcast to all paths."""
    N, m, P = problem.grid.N, problem.m, batch.n_paths
    u_paths = np.broadcast_to(np.asarray(u_paths, dtype=float), (P, N + 1, m))
    return simulate(problem, batch, lambda j, x, u, y: u_paths[:, j])


def simulate_closed_loop(problem, strategy, batch: BrownianBatch
                         ) -> SimulationBatch:
    """The reference stepper under the feedback, one einsum per gain."""
    dt = problem.grid.dt

    def feedback(j, x, u, y):
        u_j = (np.einsum("ma,pa->pm", strategy.k1[j], x[:, j])
               + np.einsum("ma,pa->pm", strategy.k3[j], y)
               + strategy.v[j])
        if j > 0:
            u_j += np.einsum("sma,psa->pm", strategy.k2[j, :j], x[:, :j]) * dt
            u_j += np.einsum("smq,psq->pm", strategy.k4[j, :j], u[:, :j]) * dt
        return u_j

    return simulate(problem, batch, feedback)


def extended_cost_paths(problem, x: np.ndarray, u: np.ndarray):
    """Per-path trajectories entering the cost at nodes 0..N-1, formed as
    the simulator forms them."""
    N, dt = problem.grid.N, problem.grid.dt
    y = np.stack([delayed_state(problem, x, j) for j in range(N)], axis=1)
    nu = np.stack([delayed_control(problem, u, j) for j in range(N)], axis=1)
    z = np.stack([memory_integral(problem.F, x, j, dt) for j in range(N)],
                 axis=1)
    return x[:, :N], y, z, u[:, :N], nu


def bilinear(problem, t1, t2):
    """The cost's bilinear form between two sets of extended paths."""
    N, dt = problem.grid.N, problem.grid.dt
    x1, y1, z1, u1, nu1 = t1
    x2, y2, z2, u2, nu2 = t2
    return ((np.einsum("ija,jab,kjb->ik", x1, problem.Q1[:N], x2)
             + np.einsum("ija,jab,kjb->ik", y1, problem.Q2[:N], y2)
             + np.einsum("ija,jab,kjb->ik", z1, problem.Q3[:N], z2)
             + np.einsum("ija,jab,kjb->ik", u1, problem.R1[:N], u2)
             + np.einsum("ija,jab,kjb->ik", nu1, problem.R2[:N], nu2))
            * dt)


def qp_terms(problem):
    """The QP oracle's Hessian, gradient and constant, assembled from the
    reference stepper's unit-impulse responses by ``bilinear``."""
    g = problem.grid
    N, m = g.N, problem.m
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
    tb = extended_cost_paths(hom, basis.x, impulses)

    one_path = BrownianBatch(seed=0, n_paths=1, increments=np.zeros((1, N)))
    affine = simulate_open_loop(problem, np.zeros((N + 1, m)), one_path)
    ta = extended_cost_paths(problem, affine.x, np.zeros((1, N + 1, m)))

    H = 2.0 * bilinear(problem, tb, tb)
    H = 0.5 * (H + H.T)
    gvec = 2.0 * bilinear(problem, tb, ta)[:, 0]
    c0 = float(bilinear(problem, ta, ta)[0, 0])
    return H, gvec, c0


def _live_rows(pb: np.ndarray, live: slice) -> np.ndarray:
    """The live rows of the control products pb (M, 3n, m), as (M L n, m)."""
    M, d, m = pb.shape
    return pb.reshape(M, 3, d // 3, m)[:, live].reshape(-1, m)


def _evolution_max(nxt: np.ndarray, D: np.ndarray, M: int, k: int) -> float:
    """max |sym(nxt) - D| over pairs of smooth nodes, D = D(l) on the nodes
    l+1..N (offsets 1..M) and nxt = D(l+1) there.  A node is rough within
    one node of offset k or 2k.  Taken over row blocks: each element is
    0.5 (nxt[i, j] + nxt[j, i]) - D[i, j] as ``_sym`` forms it, and the
    rough rows and columns of a block are zeroed through slices."""
    ln = nxt.shape[0] // M                  # live rows per node
    bands = [(max(c - 2, 0) * ln, min(c + 1, M) * ln) for c in (k, 2 * k)
             if c - 2 < M]
    rows = nxt.shape[0]
    step = max(1, _EVOLUTION_BLOCK // rows)
    worst = 0.0
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        blk = nxt[r0:r1] + nxt[:, r0:r1].T
        blk *= 0.5
        blk -= D[ln + r0:ln + r1, ln:]
        for a, b in bands:
            blk[:, a:b] = 0.0
            if a < r1 and b > r0:
                blk[max(a - r0, 0):b - r0] = 0.0
        worst = max(worst, float(np.abs(blk, out=blk).max()))
    return worst


def per_node_sweep(vp) -> RiccatiSolution:
    """The sweep as it ran before it applied the slice to blocks of nodes:
    one ``dense_interior`` call per node over all of its future rows, on
    the dense factor table, stored by blocks at the end."""
    N, dt, n, m = vp.grid.N, vp.grid.dt, vp.n, vp.m
    nn, d, w = N + 1, 3 * n, n + m

    p1 = np.zeros((nn, d, d))
    g1_table = np.zeros((nn, n, n))
    rcal = np.zeros((nn, m, m))
    rcal_inv = np.zeros((nn, m, m))
    H = np.zeros((nn, w, nn * d))         # [g2 | pb] in the [t, n+m, (s, a)] layout
    W = np.zeros((nn, w, d))              # [Acal; Xi]
    W[:, :n] = vp.Acal
    corner = np.empty((nn, d, d))         # sym(H(l, l) W(l)), kept for _interior
    # columns over nodes l..N at offsets 0..N-l: the selector U(., t_l),
    # the control column B(., t_l) and the free-term column U(., t_l) b(l)
    stack = np.zeros((nn, d, n + m + 1))

    def factor_rcal(l: int, mat: np.ndarray):
        mat = _sym(mat)
        if not np.isfinite(mat).all():
            raise NumericalError(f"effective control weight non-finite at node {l}")
        try:
            linv = np.linalg.inv(np.linalg.cholesky(mat))
        except np.linalg.LinAlgError:
            raise _lost_definiteness(l, np.linalg.eigvalsh(mat)) from None
        rcal[l] = mat
        rcal_inv[l] = linv.T @ linv

    # where b(l) = 0 the free-term column is left out and node l's free
    # column stays +0.0
    free = vp.source.b.any(axis=1).tolist()
    eta1 = np.zeros((nn, n))
    omega = np.zeros((nn, m))
    # node l+1's free column, the pair's column eta(., l+1) and rcal_inv
    # kvec there, which the adjoint's step at node l reads
    fcol = np.zeros((nn, d))
    eta = np.zeros((nn, d))
    y = np.zeros(m)

    for l in range(N, -1, -1):
        M = N - l
        k = n + m + free[l]
        u = stack[:M + 1, :, :k]
        u[:, :, :n + m] = vp.lifted_columns(l, l + 1)[:, 0]
        if free[l]:
            u[:, :, -1] = (u[:, :, :n].reshape(-1, n)
                           @ vp.source.b[l]).reshape(M + 1, d)
        if l < N:
            # the columns against the slice at node l over pairs r, s > l:
            # the selector-weighted g2 (:n), the control products (n:n+m)
            # and the free-term products (n+m)
            v = u[1:].reshape(M * d, k)
            G = dense_interior(H, W, corner, rcal_inv, l + 1, u[1:], dt)
            G *= dt
            G += p1[l + 1:] @ u[1:]
            G2 = G.reshape(M * d, k)
            g1_table[l] = _sym((v[:, :n].T @ G2[:, :n]) * dt)
        g1_val = g1_table[l]                     # zero at node N

        D1l = vp.source.D1[l]
        factor_rcal(l, vp.R[l] + D1l.T @ g1_val @ D1l)

        cgd = vp.Ccal[l].T @ g1_val @ D1l        # (3n, m)
        dgc = D1l.T @ g1_val @ vp.Ccal[l]        # (m, 3n)
        rdgc = rcal_inv[l] @ dgc
        np.negative(rdgc, out=W[l, n:])          # Xi(l)
        p1[l] = _sym(vp.Q[l] + vp.Ccal[l].T @ g1_val @ vp.Ccal[l]
                     - cgd @ rdgc)

        # the adjoint's step (iv): the diagonal and kvec start from their
        # sigma terms; pb(., l+1) and the stack's selector and control
        # columns enter as contiguous (M d, m) and (M d, n+m) operands,
        # so the sums do not depend on the stack's width
        g1sig = g1_val @ vp.source.sigma[l][:, None]
        diag = ((vp.Ccal[l] + D1l @ W[l, n:]).T @ g1sig)[:, 0]
        kvec = (D1l.T @ g1sig)[:, 0]
        if l < N:
            s = l + 1
            pbs = np.ascontiguousarray(H[s, n:, s * d:].T)
            col = eta[s:]
            col += dt * (fcol[s:] - (pbs @ y).reshape(M, d))
            c = (np.ascontiguousarray(v[:, :n + m]).T @ col.reshape(-1)) * dt
            eta1[l] = c[:n]
            diag += W[l].T @ c
            kvec += c[n:]
        eta[l] = diag
        y = rcal_inv[l] @ kvec
        omega[l] = -y

        head = p1[l] @ u[0]
        if l < N:
            H[l, :, (l + 1) * d:] = G2[:, :w].T
            # the corner sums: W(l)^T against one product of the column
            # just written with the stack (see the module docstring for
            # its thread bound)
            head += (W[l].T @ (G2[:, :w].T @ v)) * dt
            fcol[l + 1:] = G[..., -1] if free[l] else 0.0
        H[l, :, l * d:(l + 1) * d] = head[:, :w].T
        corner[l] = _sym(head[:, :w] @ W[l])
        fcol[l] = head[:, -1] if free[l] else 0.0
        # the interior reached factor_rcal through G; only the column
        # and the corner are new
        if not (np.isfinite(H[l, :, l * d:]).all()
                and np.isfinite(corner[l]).all()):
            raise NumericalError(f"two-time kernel non-finite at node {l}")

    # the weight's eigenvalue floor in one call: a node whose factorization
    # succeeded may still hold an eigenvalue <= 0 at rounding level
    floors = np.linalg.eigvalsh(rcal).min(axis=1)
    if (floors <= 0.0).any():
        l = int(np.nonzero(floors <= 0.0)[0][-1])
        raise _lost_definiteness(l, floors[l:l + 1])

    return RiccatiSolution(
        n=n, m=m, dt=dt, p1=p1,
        H=stored_factor(H, d, _block_nodes(n + m + any(free), N)), W=W,
        g1_table=g1_table, rcal=rcal, rcal_inv=rcal_inv, eta1=eta1,
        omega=omega, lambda_floor=float(floors.min()),
    )


def per_node_residual(P, vp) -> RiccatiResiduals:
    """The residual from the sweep's tables as it ran before it applied
    the slices to blocks of nodes: one ``dense_interior`` call per node,
    on the dense factor table."""
    g, src, n = vp.grid, vp.source, vp.n
    N, dt, k, d = g.N, g.dt, g.delay_steps, 3 * n

    D1 = src.D1
    res_rcal = float(np.abs(
        P.rcal - vp.R - D1.transpose(0, 2, 1) @ P.g1_table @ D1).max())

    corner = np.empty((N + 1, d, d))
    H, pb = dense_factor(P)

    prof_point = np.zeros(N + 1)
    prof_bound, prof_evol = np.zeros(N), np.zeros(N)
    D, jump = None, bool(src.nonzero("R2"))
    for l in range(N, -1, -1):
        M = N - l
        w = np.full(M + 1, dt if l < N else 0.0)
        w[[0, -1]] *= 0.5
        u = vp.lifted_columns(l, l + 1)[:, 0]
        wu = w[:, None, None] * u
        # p1 u plus slice l against the weighted stack: g2 (:n) and the
        # control products (n:), trapezoid-weighted; the slice's border
        # column at l is the stored left-rectangle H(., l) W(l)
        col = P.border(l)
        corner[l] = col[:d]
        G = P.p1[l:] @ u
        G += (col @ wu[0]).reshape(M + 1, d, -1)
        if M:
            G[0] += P.W[l].T @ (H[l, :, (l + 1) * d:]
                                @ wu[1:].reshape(M * d, -1))
            G[1:] += dense_interior(H, P.W, corner, P.rcal_inv, l + 1,
                                    wu[1:], dt)
        g1t = _sym(wu[..., :n].reshape(-1, n).T @ G[..., :n].reshape(-1, n))
        D1l = D1[l]
        rct_inv = np.linalg.inv(vp.R[l] + D1l.T @ g1t @ D1l)
        cgd = vp.Ccal[l].T @ g1t @ D1l
        dgc = D1l.T @ g1t @ vp.Ccal[l]
        lhs1 = P.p1[l] - (vp.Q[l] + vp.Ccal[l].T @ g1t @ vp.Ccal[l]
                          - cgd @ rct_inv @ dgc)
        prof_point[l] = float(np.abs(lhs1).max())
        # live rows only: the dead ones are 0.0 in both drifts
        cur = _live_rows(pb[l:, l], P.live)
        nxt, D = D, (cur @ P.rcal_inv[l]) @ cur.T
        if l == N:
            continue

        lhs3 = col[d:].reshape(M, d, d) - (G[1:, :, :n] @ vp.Acal[l]
                                           - G[1:, :, n:] @ (rct_inv @ dgc))
        prof_bound[l] = float(np.abs(lhs3).max())

        # effective weight jumps one delay before the horizon
        if not (l == N - k - 1 and jump):
            prof_evol[l] = _evolution_max(nxt, D, M, k)

    return RiccatiResiduals(
        pointwise=float(prof_point.max()),
        evolution=float(prof_evol.max()) if N > 0 else 0.0,
        boundary=float(prof_bound.max()) if N > 0 else 0.0,
        rcal_identity=res_rcal, pointwise_profile=prof_point,
        evolution_profile=prof_evol, boundary_profile=prof_bound)


# ----------------------------------------------------------------------
# The factor table in its dense layout
# ----------------------------------------------------------------------

def dense_factor(P) -> tuple[np.ndarray, np.ndarray]:
    """The factor table as the sweep stored it before it kept the lower
    half only: H (N+1, n+m, (N+1) 3n), [t, :, (s, x)] = H(s, t)[x], zero
    for s < t, and its last m rows as pb (N+1, N+1, 3n, m), pb[s, t] =
    (P*B)(t_s, t_t), a view.  Every test reads the table through this."""
    nn, d = P.N + 1, 3 * P.n
    H = np.zeros((nn, P.n + P.m, nn * d))
    for r, rows in P.rows():
        H[r:r + len(rows), :, r * d:] = rows
    return H, H[:, P.n:].reshape(nn, P.m, nn, d).transpose(2, 0, 3, 1)


def stored_factor(H: np.ndarray, d: int, b: int) -> tuple:
    """The dense factor table H in the solver's layout: one array per
    block [a, c) of b nodes (``_partition``), each holding its
    rows from its first node's column on."""
    return tuple(H[a:c, :, a * d:].copy()
                 for a, c in _partition(H.shape[0], b))


def by_triangle(A, B, w: int, v: int, upper: bool, out=None) -> np.ndarray:
    """A @ B for A (M w, M v) in node blocks of w x v that vanish below
    the block diagonal if ``upper``, above it if not, as the products
    against the dense table ran: the node range halved recursively, the
    two diagonal halves recursing, the one nonzero off-diagonal quarter a
    product of ``_by_node_rows``; a range of one node or a product within
    2 _CALL_MACS multiply-adds goes to ``_by_node_rows`` whole."""
    if out is None:
        out = np.empty((A.shape[0], B.shape[1]))
    if A.shape[0] <= w or A.size * B.shape[1] <= 2 * volterra._CALL_MACS:
        return _by_node_rows(A, B, w, out)
    h = A.shape[0] // w // 2
    r, c = h * w, h * v
    by_triangle(A[:r, :c], B[:c], w, v, upper, out[:r])
    by_triangle(A[r:, c:], B[c:], w, v, upper, out[r:])
    if upper:
        out[:r] += _by_node_rows(A[:r, c:], B[c:], w)
    else:
        out[r:] += _by_node_rows(A[r:, :c], B[:c], w)
    return out


def dense_interior(H, W, C, rcal_inv, lo: int, u, dt: float, hi=None,
                   first=None) -> np.ndarray:
    """``delaylq.riccati._interior`` on the dense factor table H, as it ran
    before H was stored by blocks: the rows lo..hi-1 in one slice of H,
    all of them through ``by_triangle``, a block's own through
    ``_by_node_rows``."""
    M, d, k = u.shape
    w, m = W.shape[1], rcal_inv.shape[-1]
    t = M if hi is None else hi - lo
    Hl = H[lo:lo + t, :, lo * d:].reshape(t * w, M * d)
    Wl = W[lo:lo + t]
    product = by_triangle if t == M else (
        lambda A, B, rows, _, upper: _by_node_rows(A, B, rows))
    hu = product(Hl, u.reshape(M * d, k), w, d, True).reshape(t, w, k)
    if first is not None:
        above = np.arange(lo, lo + t)[:, None] < first
        np.copyto(hu, 0.0, where=above[:, None])
    x = Wl @ u[:t]
    x[:, w - m:] -= dt * (rcal_inv[lo:lo + t] @ hu[:, w - m:])
    out = product(Hl.T, x.reshape(t * w, k), d, w, False).reshape(M, d, k)
    out[:t] += Wl.transpose(0, 2, 1) @ hu
    out[:t] -= C[lo:lo + t] @ u[:t]
    return out
