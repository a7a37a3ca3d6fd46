"""Backward-in-time solver for the lifted Riccati system.

The sweep works in the star-product form, which only touches the
regular lifted kernels.  The paper's averaged-selector evaluators
(pi_matrix, g2/g3) reproduce the same quantities through the
singular-looking regrouped form; they live beside the tests, and with
the shared quadrature conventions the two routes agree to roundoff,
which the tests pin at 1e-10.

The two-time kernel is held as the frontier matrix F, one flat symmetric
((N+1) d)^2 buffer indexed by global node, d = 3n: entry [(i, a), (j, b)]
holds p2(i, j, min(i, j))[a, b], the value written when the sweep reached
the earlier of the two nodes.  Between that node and node l the interior
moves by the rank-m Euler drift only, so

    p2(i, j, l) = F(i, j) - dt sum_{r=l+1}^{min(i,j)} pb(i, r) rcal_inv(r) pb(j, r)^T

and the sweep never forms a slice.  Sweep at node t_l (l = N..0):
  (i)   write the selector column U(., t_l) into a template built once per
        solve (its identity blocks do not move with l), beside the control
        column B(., t_l) and, where b(l) != 0, the free-term column
        U(., t_l) b(l);
  (ii)  apply the slice at node l over the future nodes to that stack:
        p1 u + dt (F u - dt P^T (rcal_inv (P u))), with P the control
        products pb(., r), r > l, in the [r, m, (s, a)] layout; one pass
        over F and two thin products give the selector-weighted column
        g2, the control products and the free-term products together;
  (iii) form g1 as one product of the selector against g2, factor the
        effective control weight (a Cholesky factor and its inverse) and
        form the pointwise kernel;
  (iv)  write the boundary column g2 Acal - pb rcal_inv dgc (two products)
        and its transposed row, then each corner sum as one product of
        that row against the stack;
  (v)   record the control products and the adjoint's free-term products.
The weight's eigenvalue floor comes from one call over every node after
the sweep.  Each product over the future nodes runs as BLAS calls over
whole node blocks of rows, each small enough for one thread: a single
product over the whole interior is split across threads from side ~500
on, and its sums then change with the thread count.  The corner's
products are single calls of d (N - l) d k multiply-adds, k <= n + m + 1
columns, on one thread while that stays under 2^18 (N up to ~9700 at
n = m = 1, ~1450 at n = m = 2).  Storage is O(N^2 d^2); the sweep
allocates nothing of a slice's size besides F.

``riccati_residual`` re-checks the three lines from the same tables: it
applies each slice to the selector and control columns through F and
the control products as step (ii) does, and takes the evolution line's
increment as the drift itself.  Whole slices come only from
``RiccatiSolution.replay``, for the readers that need them (the case I
window sums, case II's P3c, the CLI's dump).  It re-runs the explicit
Euler recurrence from the terminal corner with F's borders and advances
only the live lifted blocks, which ``RiccatiSolution`` reads off its own
tables: block 1 (the current state) always, block 2 (the delayed state)
or 3 (the memory integral) iff its rows of the frontier or of the
control products hold a nonzero entry.  A block with neither stays
exactly zero under the Euler step; on the solver's output that is a
block the data never reads (A2, C2 and Q2 zero for block 2; A3, C3 and Q3
for block 3).  The live set is the slice 0:1, 0:2, 0::2 or 0:3 of the
block axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericalError
from .volterra import VolterraProblem, _by_node_rows

@dataclass(frozen=True)
class RiccatiSolution:
    """Pointwise kernel p1, factored two-time kernel, derived tables.

    The two-time kernel p2(i, j, l) (i, j >= l) is not stored slice by
    slice.  Each slice's interior is the next slice less a rank-m update,
    so every entry is its frontier value minus a sum of those updates:

        p2(i, j, l) = p2(i, j, q) - dt sum_{r=l+1}^{q} pb(i, r) rcal_inv(r) pb(j, r)^T,
        q = min(i, j).

    ``frontier[i, j]`` holds p2(i, j, min(i, j)): for i >= j the boundary
    column and the corner the sweep wrote at node j, above the diagonal
    their transposes.  It is an (N+1, N+1, d, d) view of the sweep's
    frontier matrix F, the flat buffer with entry [(i, a), (j, b)] =
    frontier[i, j][a, b].  Readers that need whole slices get them from
    ``replay``, which re-runs the explicit Euler recurrence backwards from
    the terminal corner on the same flat layout.

    ``pb[s, t]`` holds the control-kernel star product (P*B)(t_s, t_t)
    for s >= t (the diagonal carries the limiting corner value); it is a
    view of the sweep's [t, m, (s, a)] buffer.  ``pfree[r, s]`` holds the
    free-term star product p1(r) ub(r) + dt sum_{q>s} p2(r, q, s) ub(q)
    with ub = U(., t_s) b(s), which drives the adjoint sweep.  Storage is
    O(N^2 (3n)^2).  ``live``, the blocks the replay advances, is derived
    from ``frontier`` and ``pb`` once per solution and cannot be set.
    """

    n: int
    m: int
    dt: float
    p1: np.ndarray              # (N+1, 3n, 3n)
    frontier: np.ndarray        # (N+1, N+1, 3n, 3n); [i, j] = p2(i, j, min(i, j))
    g1_table: np.ndarray        # (N+1, n, n)
    rcal: np.ndarray            # (N+1, m, m)
    rcal_inv: np.ndarray        # (N+1, m, m)
    pb: np.ndarray              # (N+1, N+1, 3n, m)
    pfree: np.ndarray           # (N+1, N+1, 3n)
    lambda_floor: float
    # lifted blocks the replay advances, read off the tables, see
    # ``_live_blocks``
    live: slice = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "live", _live_blocks(self.frontier, self.pb))

    def replay(self):
        """Yield (l, slice_l) for l = N, N-1, ..., 0.

        ``slice_l`` covers grid pairs (i, j) with i, j >= l (local index
        0 is global l): its interior is slice l+1 advanced by one Euler
        step of the rank-m drift, its border column, row and corner come
        from the frontier.  Only the ``live`` blocks are advanced, so a
        replay of a problem with dead blocks costs their share less.
        Each slice is an (M, M, d, d) view into one flat buffer that the
        next step updates in place: copy it to keep it past the step, and
        do not modify it.
        """
        N, d = self.N, 3 * self.n
        # slice and scratch are allocated once: arrays grown per node left
        # the peak RSS to the heap's fragmentation
        buf = np.empty(((N + 1) * d,) * 2)
        work = np.empty(N * N * d * d)
        for l in range(N, -1, -1):
            X, Md = buf[l * d:, l * d:], (N - l) * d
            if l < N:
                _advance(X[d:, d:], self.pb[l + 1:, l + 1], self.rcal_inv[l + 1],
                         self.dt, work[:Md * Md].reshape(Md, Md), self.live)
                X[d:, :d] = self.frontier[l + 1:, l].reshape(-1, d)
                X[:d, d:] = X[d:, :d].T
            X[:d, :d] = self.frontier[l, l]
            yield l, _blocks(X, N + 1 - l)

    @property
    def N(self) -> int:
        return self.p1.shape[0] - 1


def _live_blocks(frontier: np.ndarray, pb: np.ndarray) -> slice:
    """The lifted blocks the replay advances, as a slice of the block axis.

    Block 1 (the current state) always; block 2 or 3 iff its rows of the
    frontier or of the control products hold a nonzero entry.  Every
    slice is the frontier less products of the control rows, so a block
    with neither stays exactly zero under the Euler step, and skipping it
    is exact.  The result is one of 0:1, 0:2, 0::2 and 0:3.
    """
    n = frontier.shape[-1] // 3

    def holds(b: int) -> bool:
        rows = slice(b * n, (b + 1) * n)
        return bool(frontier[:, :, rows].any() or pb[:, :, rows].any())

    delay, memory = holds(1), holds(2)
    if memory and not delay:
        return slice(0, 3, 2)
    return slice(0, 1 + delay + memory)


def _lost_definiteness(l: int, eigenvalues: np.ndarray) -> NumericalError:
    return NumericalError(
        f"effective control weight lost positive definiteness at node {l} "
        f"(min eigenvalue {eigenvalues.min():.6e})")


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _blocks(X: np.ndarray, M: int) -> np.ndarray:
    """The flat slice X over M nodes as an (M, M, d, d) view."""
    d = X.shape[0] // M
    return X.reshape(M, d, M, d).transpose(0, 2, 1, 3)


def _interior(F: np.ndarray, pb_rows: np.ndarray, rcal_inv: np.ndarray,
              lo: int, u: np.ndarray, dt: float) -> np.ndarray:
    """The slice at node lo - 1 on pairs i, j >= lo, applied to the stacked
    columns u (M, d, k) over nodes lo..N: F u - dt P^T (rcal_inv (P u)),
    with P = pb_rows[lo:] the control products pb(., r), r >= lo."""
    M, d, k = u.shape
    m, i0 = pb_rows.shape[1], lo * d
    u2 = u.reshape(M * d, k)
    out = _by_node_rows(F[i0:, i0:], u2, d).reshape(M, d, k)
    P = pb_rows[lo:, :, i0:].reshape(M * m, M * d)
    z = rcal_inv[lo:] @ _by_node_rows(P, u2, m).reshape(M, m, k)
    out -= dt * _by_node_rows(P.T, z.reshape(M * m, k), d).reshape(M, d, k)
    return out


def _euler(X: np.ndarray, pb_next: np.ndarray, rinv_next: np.ndarray,
           dt: float, work: np.ndarray) -> None:
    """X less dt pb_next rinv_next pb_next^T, symmetrized, in place.
    ``work`` is contiguous scratch of X's shape."""
    pbf = pb_next.reshape(X.shape[0], -1)
    np.matmul((pb_next @ rinv_next).reshape(pbf.shape), pbf.T, out=work)
    work *= dt
    np.subtract(X, work, out=work)
    # averaging with the transpose keeps the swap-transpose symmetry exact
    np.add(work, work.T, out=X)
    X *= 0.5


def _live_rows(pb: np.ndarray, live: slice) -> np.ndarray:
    """The live rows of the control products pb (M, 3n, m), as (M L n, m)."""
    M, d, m = pb.shape
    return pb.reshape(M, 3, d // 3, m)[:, live].reshape(-1, m)


def _advance(X: np.ndarray, pb_next: np.ndarray, rinv_next: np.ndarray,
             dt: float, work: np.ndarray, live: slice) -> None:
    """Slice l+1 becomes the interior of slice l, in place: one Euler step
    of the rank-m drift on the live blocks; dead entries are 0.0 and stay
    so.  ``work`` is contiguous scratch of X's shape.  A partial live set
    is gathered into compact scratch carved from ``work`` and scattered
    back: the arithmetic on the strided (M, L, n, M, L, n) view of the
    live entries itself is slower."""
    if live == slice(0, 3):                 # every block live
        _euler(X, pb_next, rinv_next, dt, work)
        return
    M = pb_next.shape[0]
    n = X.shape[0] // (3 * M)
    view = X.reshape(M, 3, n, M, 3, n)[:, live, :, :, live, :]
    K = view.shape[0] * view.shape[1] * view.shape[2]
    xc, wc = work.reshape(-1)[:2 * K * K].reshape(2, K, K)
    xc.reshape(view.shape)[...] = view
    _euler(xc, _live_rows(pb_next, live), rinv_next, dt, wc)
    view[...] = xc.reshape(view.shape)


def solve_riccati(vp: VolterraProblem) -> RiccatiSolution:
    N, dt, n, m = vp.grid.N, vp.grid.dt, vp.n, vp.m
    nn, d = N + 1, 3 * n

    p1 = np.zeros((nn, d, d))
    g1_table = np.zeros((nn, n, n))
    rcal = np.zeros((nn, m, m))
    rcal_inv = np.zeros((nn, m, m))
    pfree = np.zeros((nn, nn, d))
    F = np.zeros((nn * d, nn * d))        # frontier matrix
    pb_rows = np.zeros((nn, m, nn * d))   # pb in the [t, m, (s, a)] layout
    # columns over nodes l..N at offsets 0..N-l: the selector U(., t_l),
    # the control column B(., t_l) and the free-term column U(., t_l) b(l)
    stack = vp.selector_stack(n + m + 1)

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

    # where b(l) = 0 the free-term column is left out and pfree[l:, l]
    # stays +0.0
    free = vp.source.b.any(axis=1).tolist()

    for l in range(N, -1, -1):
        X, M = F[l * d:, l * d:], N - l          # frontier block of node l
        k = n + m + free[l]
        u = stack[:M + 1, :, :k]
        u[:, 2 * n:, :n] = vp.E[l:, l]
        u[:, :, n:n + m] = vp.B[l:, l]
        if free[l]:
            u[:, :, -1] = (u[:, :, :n].reshape(-1, n)
                           @ vp.source.b[l]).reshape(M + 1, d)
        if l == N:                               # empty future
            p1[N] = _sym(vp.Q[N])
            factor_rcal(N, vp.R[N])
            head = p1[N] @ u[0]
            X[:] = _sym(head[:, :n] @ vp.Acal[N])
            if not np.isfinite(X).all():
                raise NumericalError(f"two-time kernel non-finite at node {N}")
            pb_rows[N, :, N * d:] = head[:, n:n + m].T
            if free[N]:
                pfree[N, N] = head[:, -1]
            continue
        # the columns against the slice at node l over pairs r, s > l: the
        # selector-weighted g2 (:n), the control products (n:n+m) and the
        # free-term products (n+m)
        v = u[1:].reshape(M * d, k)
        G = _interior(F, pb_rows, rcal_inv, l + 1, u[1:], dt)
        G *= dt
        G += p1[l + 1:] @ u[1:]
        G2 = G.reshape(M * d, k)

        g1_val = _sym((v[:, :n].T @ G2[:, :n]) * dt)
        g1_table[l] = g1_val

        D1l = vp.source.D1[l]
        factor_rcal(l, vp.R[l] + D1l.T @ g1_val @ D1l)

        cgd = vp.Ccal[l].T @ g1_val @ D1l        # (3n, m)
        dgc = D1l.T @ g1_val @ vp.Ccal[l]        # (m, 3n)
        rdgc = rcal_inv[l] @ dgc
        p1[l] = _sym(vp.Q[l] + vp.Ccal[l].T @ g1_val @ vp.Ccal[l]
                     - cgd @ rdgc)

        # boundary column p2(i, l, l), i > l, and its transposed row
        bnd = X[d:, :d]
        bnd[:] = _by_node_rows(G2[:, :n], vp.Acal[l], d)
        bnd -= _by_node_rows(G2[:, n:n + m], rdgc, d)
        X[:d, d:] = bnd.T
        # the corner sums as one product of the row just written against
        # the stack (see the module docstring for its thread bound)
        head = p1[l] @ u[0] + (X[:d, d:] @ v) * dt
        X[:d, :d] = _sym(head[:, :n] @ vp.Acal[l] - head[:, n:n + m] @ rdgc)
        # the interior reached factor_rcal through G; only the border
        # column and the corner are new
        if not np.isfinite(X[:, :d]).all():
            raise NumericalError(f"two-time kernel non-finite at node {l}")
        if free[l]:
            pfree[l, l] = head[:, -1]
            pfree[l + 1:, l] = G[..., -1]

        pb_rows[l, :, (l + 1) * d:] = G2[:, n:n + m].T
        pb_rows[l, :, l * d:(l + 1) * d] = head[:, n:n + m].T

    # the weight's eigenvalue floor in one call: a node whose factorization
    # succeeded may still hold an eigenvalue <= 0 at rounding level
    floors = np.linalg.eigvalsh(rcal).min(axis=1)
    if (floors <= 0.0).any():
        l = int(np.nonzero(floors <= 0.0)[0][-1])
        raise _lost_definiteness(l, floors[l:l + 1])

    return RiccatiSolution(
        n=n, m=m, dt=dt, p1=p1, frontier=_blocks(F, nn), g1_table=g1_table,
        rcal=rcal, rcal_inv=rcal_inv,
        pb=pb_rows.reshape(nn, m, nn, d).transpose(2, 0, 3, 1), pfree=pfree,
        lambda_floor=float(floors.min()),
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
    """The three lines from the sweep's tables, no slice replayed.  The
    replay's Euler step subtracts dt D(l+1), D(r) = pb(., r) rcal_inv(r)
    pb(., r)^T, and symmetrizes: the evolution line compares sym(D(l+1))
    with D(l) on the live rows."""
    g, src, n = vp.grid, vp.source, vp.n
    N, dt, k, d = g.N, g.dt, g.delay_steps, 3 * n

    D1 = src.D1
    res_rcal = float(np.abs(
        P.rcal - vp.R - D1.transpose(0, 2, 1) @ P.g1_table @ D1).max())

    # the sweep's flat buffers behind frontier and pb (views of them)
    F = P.frontier.transpose(0, 2, 1, 3).reshape((N + 1) * d, -1)
    pb_rows = P.pb.transpose(1, 3, 0, 2).reshape(N + 1, P.m, -1)
    stack = vp.selector_stack(n + P.m)

    prof_point = np.zeros(N + 1)
    prof_bound, prof_evol = np.zeros(N), np.zeros(N)
    for l in range(N, -1, -1):
        M = N - l
        w = np.full(M + 1, dt if l < N else 0.0)
        w[[0, -1]] *= 0.5
        u = stack[:M + 1]
        u[:, 2 * n:, :n] = vp.E[l:, l]
        u[:, :, n:] = vp.B[l:, l]
        wu = w[:, None, None] * u
        # p1 u plus slice l against the weighted stack: g2 (:n) and the
        # control products (n:), trapezoid-weighted
        G = P.p1[l:] @ u
        G += (F[l * d:, l * d:(l + 1) * d] @ wu[0]).reshape(M + 1, d, -1)
        if M:
            G[0] += F[l * d:(l + 1) * d, (l + 1) * d:] @ wu[1:].reshape(M * d, -1)
            G[1:] += _interior(F, pb_rows, P.rcal_inv, l + 1, wu[1:], dt)
        g1t = _sym(wu[..., :n].reshape(-1, n).T @ G[..., :n].reshape(-1, n))
        D1l = D1[l]
        rct_inv = np.linalg.inv(vp.R[l] + D1l.T @ g1t @ D1l)
        cgd = vp.Ccal[l].T @ g1t @ D1l
        dgc = D1l.T @ g1t @ vp.Ccal[l]
        lhs1 = P.p1[l] - (vp.Q[l] + vp.Ccal[l].T @ g1t @ vp.Ccal[l]
                          - cgd @ rct_inv @ dgc)
        prof_point[l] = float(np.abs(lhs1).max())
        if l == N:
            continue

        lhs3 = P.frontier[l + 1:, l] - (G[1:, :, :n] @ vp.Acal[l]
                                        - G[1:, :, n:] @ (rct_inv @ dgc))
        prof_bound[l] = float(np.abs(lhs3).max())

        # effective weight jumps one delay before the horizon
        if not (l == N - k - 1 and src.nonzero("R2")):
            # live rows only: the dead ones are 0.0 in both drifts
            nxt = _live_rows(P.pb[l + 1:, l + 1], P.live)
            cur = _live_rows(P.pb[l + 1:, l], P.live)
            fd = _sym((nxt @ P.rcal_inv[l + 1]) @ nxt.T)
            fd -= (cur @ P.rcal_inv[l]) @ cur.T
            # max over pairs with both nodes smooth: zero the others
            idx = np.arange(1, M + 1)
            rough = (np.abs(idx - k) <= 1) | (np.abs(idx - 2 * k) <= 1)
            rough = np.repeat(rough, fd.shape[0] // M)
            fd[rough] = 0.0
            fd[:, rough] = 0.0
            prof_evol[l] = float(np.abs(fd, out=fd).max())

    return RiccatiResiduals(
        pointwise=float(prof_point.max()),
        evolution=float(prof_evol.max()) if N > 0 else 0.0,
        boundary=float(prof_bound.max()) if N > 0 else 0.0,
        rcal_identity=res_rcal, pointwise_profile=prof_point,
        evolution_profile=prof_evol, boundary_profile=prof_bound)
