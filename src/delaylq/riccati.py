"""Backward-in-time solver for the lifted Riccati system.

The sweep works in the star-product form, which only touches the
regular lifted kernels.  The averaged-selector evaluators in
``oracles`` (pi_matrix, g1/g2/g3) reproduce the same quantities through the
singular-looking regrouped form; with the shared quadrature conventions
the two routes agree to roundoff, which the tests pin at 1e-10.

Sweep at node t_l (l = N..0):
  (i)   advance every interior pair one explicit Euler step with the
        drift frozen at t_{l+1};
  (ii)  form the selector sandwich over future nodes {l+1..N};
  (iii) set the effective control weight and the pointwise kernel;
  (iv)  fill the boundary column/row and the symmetrized corner;
  (v)   record the frontier column and the adjoint's free-term product.
Only the running slice is held, so storage is O(N^2 (3n)^2); time is
O(N^3 (3n)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import NumericalError
from .volterra import VolterraProblem


@dataclass(frozen=True)
class RiccatiSolution:
    """Pointwise kernel p1, factored two-time kernel, derived tables.

    The two-time kernel p2(i, j, l) (i, j >= l) is not stored slice by
    slice.  The sweep advances the interior of each slice by a rank-m
    update, so every entry is its frontier value minus a sum of those
    updates:

        p2(i, j, l) = p2(i, j, q) - dt sum_{r=l+1}^{q} pb(i, r) rcal_inv(r) pb(j, r)^T,
        q = min(i, j),

    and ``p2`` evaluates that closed form.  ``frontier[r, l]`` holds
    p2(r, l, l) for r >= l (the boundary column and the corner the sweep
    writes at node l; p2(l, r, l) is its transpose).  Readers that need
    whole slices get them from ``replay``, which re-runs the sweep's own
    recurrence backwards from the terminal corner and reproduces the
    sweep's slices bit for bit.  ``slice0`` is the slice at node 0.

    ``pb[s, t]`` holds the control-kernel star product (P*B)(t_s, t_t)
    for s >= t (the diagonal carries the limiting corner value), and
    ``pfree[r, s]`` the free-term star product
    p1(r) ub(r) + dt sum_{q>s} p2(r, q, s) ub(q) with ub = U[., s] b(s),
    which drives the adjoint sweep.  Storage is O(N^2 (3n)^2).
    """

    n: int
    m: int
    dt: float
    p1: np.ndarray              # (N+1, 3n, 3n)
    frontier: np.ndarray        # (N+1, N+1, 3n, 3n); [r, l] = p2(r, l, l)
    slice0: np.ndarray          # (N+1, N+1, 3n, 3n); [i, j] = p2(i, j, 0)
    g1_table: np.ndarray        # (N+1, n, n)
    rcal: np.ndarray            # (N+1, m, m)
    rcal_inv: np.ndarray        # (N+1, m, m)
    pb: np.ndarray              # (N+1, N+1, 3n, m)
    pfree: np.ndarray           # (N+1, N+1, 3n)
    lambda_floor: float

    def p2(self, i: int, j: int, l: int) -> np.ndarray:
        """Two-time kernel at (t_i, t_j, t_l); requires l <= min(i, j)."""
        if l > min(i, j):
            raise ValueError(f"p2 needs l <= min(i, j), got ({i},{j},{l})")
        q = min(i, j)
        base = self.frontier[i, j] if i >= j else self.frontier[j, i].T
        rs = slice(l + 1, q + 1)
        return base - self.dt * np.einsum(
            "ram,rmk,rbk->ab", self.pb[i, rs], self.rcal_inv[rs], self.pb[j, rs])

    def replay(self, block: slice = slice(None)):
        """Yield (l, slice_l) for l = N, N-1, ..., 0.

        ``slice_l`` covers grid pairs (i, j) with i, j >= l (local index
        0 is global l) and the lifted components ``block`` on both sides.
        The recurrence is blockwise, so a block replay costs its share
        of the full one.  Only the current slice is held, and it seeds
        the next step, so callers must not modify it in place.
        """
        N = self.N
        frontier = self.frontier[:, :, block, block]
        pb = self.pb[:, :, block, :]
        cur = frontier[N, N][None, None].copy()
        yield N, cur
        for l in range(N - 1, -1, -1):
            interior = _advance(cur, pb[l + 1:, l + 1], self.rcal_inv[l + 1],
                                self.dt)
            cur = _bordered(interior, frontier[l + 1:, l])
            cur[0, 0] = frontier[l, l]
            yield l, cur

    def p2_slice(self, l: int) -> np.ndarray:
        """The whole slice at node l, replayed from the terminal node."""
        for node, sl in self.replay():
            if node == l:
                return sl
        raise ValueError(f"p2_slice needs 0 <= l <= N, got l={l}")

    @property
    def N(self) -> int:
        return self.p1.shape[0] - 1


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _advance(prev: np.ndarray, pb_next: np.ndarray, rinv_next: np.ndarray,
             dt: float) -> np.ndarray:
    """Interior of slice l from slice l+1: one Euler step of the rank-m drift."""
    gain_next = pb_next @ rinv_next
    interior = prev - dt * np.einsum(
        "iaq,jbq->ijab", gain_next, pb_next, optimize=True
    )
    # elementwise averaging keeps the swap-transpose symmetry exact
    return 0.5 * (interior + interior.transpose(1, 0, 3, 2))


def _bordered(interior: np.ndarray, bnd: np.ndarray) -> np.ndarray:
    """Slice l from its interior and boundary column; the corner is unset."""
    M = interior.shape[0]
    cur = np.empty((M + 1, M + 1) + interior.shape[2:])
    cur[1:, 1:] = interior
    cur[1:, 0] = bnd
    cur[0, 1:] = bnd.transpose(0, 2, 1)
    return cur


def solve_riccati(vp: VolterraProblem) -> RiccatiSolution:
    g = vp.grid
    N, dt, n, m = g.N, g.dt, vp.n, vp.m
    d = 3 * n
    b = vp.source.b

    p1 = np.zeros((N + 1, d, d))
    g1_table = np.zeros((N + 1, n, n))
    rcal = np.zeros((N + 1, m, m))
    rcal_inv = np.zeros((N + 1, m, m))
    pb = np.zeros((N + 1, N + 1, d, m))
    frontier = np.zeros((N + 1, N + 1, d, d))
    pfree = np.zeros((N + 1, N + 1, d))
    eye_m = np.eye(m)
    lambda_floor = np.inf

    def factor_rcal(l: int, mat: np.ndarray):
        nonlocal lambda_floor
        mat = _sym(mat)
        if not np.isfinite(mat).all():
            raise NumericalError(f"effective control weight non-finite at node {l}")
        w = np.linalg.eigvalsh(mat)
        lambda_floor = min(lambda_floor, float(w.min()))
        if w.min() <= 0.0:
            raise NumericalError(
                f"effective control weight lost positive definiteness at node {l} "
                f"(min eigenvalue {w.min():.6e})"
            )
        rcal[l] = mat
        rcal_inv[l] = cho_solve(cho_factor(mat, lower=True), eye_m)

    def free_term(l: int, sl: np.ndarray) -> None:
        ub = np.einsum("rab,b->ra", vp.U[l:, l], b[l])
        w_free = np.einsum("rab,rb->ra", p1[l:], ub)
        pfree[l:, l] = w_free + np.einsum("rqab,qb->ra", sl[:, 1:], ub[1:]) * dt

    # terminal node: empty future, sandwich vanishes
    p1[N] = _sym(vp.Q[N])
    factor_rcal(N, vp.R[N])
    corner = _sym(p1[N] @ vp.a_column(N)[0])
    cur = corner[None, None]
    frontier[N, N] = corner
    pb[N, N] = p1[N] @ vp.B[N, N]
    free_term(N, cur)

    for l in range(N - 1, -1, -1):
        # the running slice over {l+1..N}^2 is advanced, not kept
        interior = _advance(cur, pb[l + 1:, l + 1], rcal_inv[l + 1], dt)

        ups = vp.U[l + 1:, l]                    # (N-l, d, n)
        p1_fut = p1[l + 1:]
        pu = np.einsum("sab,sbj->saj", p1_fut, ups)
        g1_val = np.einsum("sai,saj->ij", ups, pu) * dt
        v_in = np.einsum("stab,tbj->saj", interior, ups, optimize=True) * dt
        g1_val += np.einsum("sai,saj->ij", ups, v_in) * dt
        g1_val = _sym(g1_val)
        g1_table[l] = g1_val

        D1l = vp.source.D1[l]
        factor_rcal(l, vp.R[l] + D1l.T @ g1_val @ D1l)

        cgd = vp.Ccal[l].T @ g1_val @ D1l        # (3n, m)
        dgc = D1l.T @ g1_val @ vp.Ccal[l]        # (m, 3n)
        p1[l] = _sym(vp.Q[l] + vp.Ccal[l].T @ g1_val @ vp.Ccal[l]
                     - cgd @ rcal_inv[l] @ dgc)

        # boundary column (i, l, l) for i > l, then the symmetrized corner
        bcol = vp.B[l + 1:, l]                   # (N-l, d, m)
        g2col = pu + v_in                        # (N-l, d, n), selector-weighted
        pa_col = np.einsum("saj,jc->sac", g2col, vp.Acal[l])
        pb_col = (np.einsum("sab,sbm->sam", p1_fut, bcol)
                  + np.einsum("srab,rbm->sam", interior, bcol, optimize=True) * dt)
        bnd = pa_col - np.einsum("sam,mq,qc->sac", pb_col, rcal_inv[l], dgc)

        cur = _bordered(interior, bnd)
        row0 = cur[0, 1:]                        # (N-l, d, d) = p2(l, r, l)
        acol = vp.a_column(l)                    # (N-l+1, d, d) = A(r, l)
        pa_corner = p1[l] @ acol[0] + np.einsum("rab,rbc->ac", row0, acol[1:]) * dt
        pb_corner = p1[l] @ vp.B[l, l] + np.einsum("rab,rbm->am", row0, bcol) * dt
        cur[0, 0] = _sym(pa_corner - pb_corner @ rcal_inv[l] @ dgc)
        if not np.isfinite(cur).all():
            raise NumericalError(f"two-time kernel non-finite at node {l}")
        frontier[l:, l] = cur[:, 0]
        free_term(l, cur)

        pb[l + 1:, l] = pb_col
        pb[l, l] = pb_corner

    return RiccatiSolution(
        n=n, m=m, dt=dt, p1=p1, frontier=frontier, slice0=cur,
        g1_table=g1_table, rcal=rcal, rcal_inv=rcal_inv, pb=pb, pfree=pfree,
        lambda_floor=float(lambda_floor),
    )


# ----------------------------------------------------------------------
# Residuals of the three-line system
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RiccatiResiduals:
    """Max-norm residuals per line, plus the exact weight identity.

    The evolution line compares the Euler increment against the drift
    re-evaluated at the left node.  The drift is genuinely discontinuous
    in time where a pair index sits exactly one or two delays ahead of
    the current node (the shifted control channel switches on), so the
    max excludes the two-node bands around those lines; on them a
    pointwise residual measures the jump size, not scheme error.
    """

    pointwise: float     # algebraic line, trapezoid re-quadrature
    evolution: float     # Euler drift re-evaluated at the left node
    boundary: float      # boundary line, trapezoid re-quadrature
    rcal_identity: float  # stored weight vs stored sandwich (exact 0)
    pointwise_profile: np.ndarray   # (N+1,) per base node
    evolution_profile: np.ndarray   # (N,)
    boundary_profile: np.ndarray    # (N,)


def riccati_residual(P: RiccatiSolution, vp: VolterraProblem) -> RiccatiResiduals:
    g = vp.grid
    N, dt, n = g.N, g.dt, vp.n
    src = vp.source

    res_rcal = 0.0
    for l in range(N + 1):
        D1l = src.D1[l]
        res_rcal = max(res_rcal, float(np.abs(
            P.rcal[l] - vp.R[l] - D1l.T @ P.g1_table[l] @ D1l).max()))

    prof_point = np.zeros(N + 1)
    prof_bound = np.zeros(N)
    prof_evol = np.zeros(N)
    k = g.delay_steps
    nxt = None                                    # slice l+1 of the replay
    for l, sl in P.replay():
        w = np.full(N + 1 - l, dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        if l == N:
            w[:] = 0.0
        ups = vp.U[l:, l]
        pu = np.einsum("sab,sbj->saj", P.p1[l:], ups)
        g1t = np.einsum("s,sai,saj->ij", w, ups, pu)
        v_in = np.einsum("t,stab,tbj->saj", w, sl, ups, optimize=True)
        g1t += np.einsum("s,sai,saj->ij", w, ups, v_in)
        g1t = _sym(g1t)
        D1l = src.D1[l]
        rct = vp.R[l] + D1l.T @ g1t @ D1l
        rct_inv = np.linalg.inv(rct)
        cgd = vp.Ccal[l].T @ g1t @ D1l
        dgc = D1l.T @ g1t @ vp.Ccal[l]
        lhs1 = P.p1[l] - (vp.Q[l] + vp.Ccal[l].T @ g1t @ vp.Ccal[l]
                          - cgd @ rct_inv @ dgc)
        prof_point[l] = float(np.abs(lhs1).max())

        if l < N:
            g2t = pu + v_in                       # trapezoid-weighted
            pa = np.einsum("saj,jc->sac", g2t[1:], vp.Acal[l])
            bker = vp.B[l:, l]
            pbt = (np.einsum("sab,sbm->sam", P.p1[l:], bker)
                   + np.einsum("t,stab,tbm->sam", w, sl, bker, optimize=True))
            lhs3 = sl[1:, 0] - (pa - np.einsum(
                "sam,mq,qc->sac", pbt[1:], rct_inv, dgc))
            prof_bound[l] = float(np.abs(lhs3).max())

            # effective weight jumps one delay before the horizon
            if not (l == N - k - 1 and np.abs(src.R2).max() > 0):
                fd = (nxt - sl[1:, 1:]) / dt
                pb_rows = P.pb[l + 1:, l]
                drift = np.einsum("iam,mq,jbq->ijab", pb_rows, P.rcal_inv[l],
                                  pb_rows, optimize=True)
                idx = np.arange(l + 1, N + 1) - l
                smooth = (np.abs(idx - k) > 1) & (np.abs(idx - 2 * k) > 1)
                mask = smooth[:, None] & smooth[None, :]
                if mask.any():
                    per_pair = np.abs(fd - drift).max(axis=(2, 3))
                    prof_evol[l] = float(per_pair[mask].max())
        nxt = sl

    return RiccatiResiduals(
        pointwise=float(prof_point.max()),
        evolution=float(prof_evol.max()) if N > 0 else 0.0,
        boundary=float(prof_bound.max()) if N > 0 else 0.0,
        rcal_identity=res_rcal,
        pointwise_profile=prof_point,
        evolution_profile=prof_evol,
        boundary_profile=prof_bound,
    )
