"""Backward-in-time solver for the lifted Riccati system and its adjoint.

The sweep works in the star-product form, which only touches the
regular lifted kernels.  The paper's averaged-selector evaluators
(pi_matrix, g2/g3) reproduce the same quantities through the
singular-looking regrouped form; they live beside the tests, and with
the shared quadrature conventions the two routes agree to roundoff,
which the tests pin at 1e-10.

The two-time kernel is held as the factors of its border values (see
``RiccatiSolution``): p2(i, l, l) = H(i, l) W(l) for i > l, with
H(i, l) = [g2 | pb](i, l) the columns the sweep forms at node l and
W(l) = [Acal(l); Xi(l)], and the corner C(l) = sym(H(l, l) W(l)).  An
entry moves from its border value only by the rank-m Euler drift, so the
sweep forms neither a slice nor the border matrix F.  Sweep at node t_l
(l = N..0):
  (i)   take the selector and control columns [U | B](., t_l) of a block
        of nodes from ``VolterraProblem.lifted_columns`` and, where b != 0,
        form the free-term columns U(., t_l) b(l) of the whole block in one
        product, in a buffer shared by the block;
  (ii)  apply the slice at node l over the future nodes to that stack u:
        p1 u + dt (H^T x + W^T (H u) - C u), x = W u - dt [0; rcal_inv P u],
        with P u the control rows of H u: two products against H give g2,
        the control products and the free-term products together.  Nodes
        run in blocks of 16 (``_applied``): the part over the rows of H
        finished before a block is one such product for all of its nodes,
        their stacks side by side; only the block's own rows are applied
        node by node;
  (iii) form g1 as one product of the selector against g2, and its four
        sandwiches by D1 and Ccal as one product by [D1 | Ccal], stacked
        for every node before the sweep; factor the effective control
        weight (a Cholesky factor and its inverse) by the LAPACK gufuncs
        that np.linalg.cholesky and np.linalg.inv wrap, with the wrappers
        run only where a factor comes out non-finite, to say why; form
        the pointwise kernel and Xi(l);
  (iv)  take the adjoint's step in one (N+1, 3n) column: eta(., l+1) plus
        dt times the drift frozen at node l+1 (its free column less
        pb(., l+1) rcal_inv(l+1) kvec(l+1)) is eta(., l) on rows l+1..N;
        its sums against the stack's selector and control columns, closed
        by W(l), give eta1(l), eta(l, l) (row l), kvec(l) and omega(l);
  (v)   write [g2 | pb] into H's row l, then each corner sum as
        W(l)^T times one product of that block against the stack, and
        keep node l's free column for the next node's step.
With deterministic free terms the martingale part of the adjoint pair is
identically zero, so the pair is this one backward recursion.  The
weight's eigenvalue floor comes from one call over every node after the
sweep.  Each product over the future nodes runs as BLAS calls over
whole node blocks of rows, each small enough for one thread: a single
product over the whole interior is split across threads from side ~500
on, and its sums then change with the thread count.  H is stored as
its lower half, one array per block [a, c) of the sweep holding rows
a..c-1 over columns a..N (``_rows``), so the products against H run a
stored block at a time: its rows against the stack from its first node
on, and the transpose, one ``_by_node_rows`` product each.  Per block of
b nodes they read the finished rows of H once against b k columns,
where a per-node product read them twice per node against k: the same
O(N^3) multiply-adds, in GEMMs b times as wide.  The block's own rows
add O(N^2 b) over the sweep.  The corner's product is a single call of
(n + m) (N - l) 3n k multiply-adds, k <= n + m + 1 columns, on one
thread while that stays under 2^18 (N up to ~14500 at n = m = 1, ~2180
at n = m = 2).  Storage is H, sum over blocks of (c-a)(N+1-a) 3n (n+m)
numbers, about (N+1)(N+1+b)/2 node blocks: the lower half of (N+1)^2
and each block's diagonal triangle, plus per-node tables and a block's
stacks; the free and pair columns pass from one node to the next in
(N+1, 3n) buffers.

``riccati_residual`` re-checks the three lines from the same tables.  It
runs after the sweep, when every row is final, so nothing in it is
sequential: it takes the sweep's blocks of nodes one at a time, and one
``_interior`` product over rows a+1..N applies the slices of all of a
block's nodes to their selector and control columns, each node's rows
up to its own zeroed; the rest of the two algebraic lines is batched
over the block.  It takes the evolution line's increment as the drift
itself, from the rank-m factors of pb in tiles of at most 2^15 entries,
on the live lifted blocks only (``VolterraProblem.live``): a dead block
is one the data never reads (A2, C2 and Q2 zero for block 2; A3, C3 and
Q3 for block 3), and it stays exactly zero.  That line is O(N^3 (L n)^2)
elementwise work for L live blocks, outside BLAS.  No reader in this
module forms a whole slice; the CLI's ``--dump-riccati`` replays them
(``delaylq.cli.replay``), re-running the explicit Euler recurrence from
the terminal corner with the border columns H W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky, inv as _inv

from .exceptions import NumericalError
from .volterra import VolterraProblem, _by_node_rows


@dataclass(frozen=True)
class RiccatiSolution:
    """Pointwise kernel p1, factored two-time kernel, adjoint, derived
    tables.

    The two-time kernel p2(i, j, l) (i, j >= l) is not stored slice by
    slice.  Each slice's interior is the next slice less a rank-m update,
    so every entry is its border value less a sum of those updates:

        p2(i, j, l) = p2(i, j, q) - dt sum_{r=l+1}^{q} pb(i, r) rcal_inv(r) pb(j, r)^T,
        q = min(i, j).

    Only the factors of the border values are stored: p2(i, j, j) =
    H(i, j) W(j) for i > j, and the corner p2(j, j, j) = sym(H(j, j) W(j))
    as ``corner[j]``, which the sweep forms for its own products.
    Row t of the factor table holds H(s, t)^T = [g2 | pb](s, t)^T for
    s >= t, the selector-weighted column g2 and the control products
    (P*B)(t_s, t_t) the sweep formed at node t; s < t is zero and not
    stored.  ``H`` is a tuple with one array per block [a, c) of the
    sweep, from node 0 on: ``H[i][t - a, :, (s - a)*3n:(s - a + 1)*3n]`` =
    H(s, t)^T for rows t = a..c-1 and columns s = a..N, zero for s < t.
    ``rows`` hands out its rows a stored block at a time, ``row(t)`` one
    row and ``pb_column(t)`` its last m rows as pb(s, t), views all.
    ``W[t]`` = [Acal(t); Xi(t)], Xi the causal feedback's pointwise gain.
    ``border(l)`` forms the column at node l.
    The adjoint pair eta(i, j), j <= i, is not stored, only ``eta1[l]`` =
    dt sum_{r>l} U(r, l)^T eta(r, l), its g1 (0 at l = N), and
    ``omega``, the causal feedback's offset.  Its drift
    at node s reads the free-term star product p1(r) ub(r) + dt sum_{q>s}
    p2(r, q, s) ub(q), ub = U(., t_s) b(s), formed at node s and not
    kept.
    """

    n: int
    m: int
    dt: float
    p1: np.ndarray              # (N+1, 3n, 3n)
    H: tuple[np.ndarray, ...]   # per block [a, c): (c-a, n+m, (N+1-a) 3n)
    W: np.ndarray               # (N+1, n+m, 3n); [Acal; Xi]
    corner: np.ndarray          # (N+1, 3n, 3n); sym(H(l, l) W(l))
    g1_table: np.ndarray        # (N+1, n, n)
    rcal: np.ndarray            # (N+1, m, m)
    rcal_inv: np.ndarray        # (N+1, m, m)
    eta1: np.ndarray            # (N+1, n)
    omega: np.ndarray           # (N+1, m)
    lambda_floor: float

    @property
    def N(self) -> int:
        return self.p1.shape[0] - 1

    def rows(self, lo: int = 0, hi: int | None = None):
        """Rows lo..hi-1 of the factor table, as ``_rows`` lists them."""
        return _rows(self.H, 3 * self.n, lo, self.N + 1 if hi is None else hi)

    def row(self, t: int) -> np.ndarray:
        """(n+m, (N+1-t) 3n): H(s, t)^T for s = t..N, a view."""
        return _row(self.H, 3 * self.n, t)

    def pb_column(self, t: int) -> np.ndarray:
        """(N+1-t, 3n, m): pb(s, t) = (P*B)(t_s, t_t) for s = t..N, a view."""
        return self.row(t)[self.n:].reshape(self.m, -1, 3 * self.n).transpose(
            1, 2, 0)

    def border(self, l: int) -> np.ndarray:
        """p2(i, l, l) for i >= l as one flat ((N+1-l) 3n, 3n) column:
        H(i, l) W(l), the corner symmetrized."""
        col = self.row(l).T @ self.W[l]
        col[:3 * self.n] = self.corner[l]
        return col


def _partition(nn: int, b: int) -> list:
    """The blocks [a, c) of b nodes over nodes 0..nn-1, counted from the
    horizon back (the first one short), listed from node 0 on: the nodes
    of ``_applied``'s blocks and the rows of H's stored blocks."""
    return [(max(c - b, 0), c) for c in range(nn % b or b, nn + 1, b)]


def _block(H: tuple, d: int, t: int) -> tuple:
    """(i, a): H[i] is the stored block of the factor table H that holds
    row t, a its first node.  H holds one array per block of
    ``_partition``, its rows over the columns from its first node on."""
    nn = H[0].shape[2] // d
    i = len(H) - 1 - (nn - 1 - t) // len(H[-1])
    return i, nn - H[i].shape[2] // d


def _rows(H: tuple, d: int, lo: int, hi: int) -> list:
    """(r, rows) for rows lo..hi-1 of the factor table H: per stored block
    they meet, its rows r..(up to hi-1) over columns r..N as (rows, n+m,
    (N+1-r) d), a view.  Rows and columns of a block start at its first
    node, so a row's zero head from there to its diagonal is stored."""
    if lo >= hi:
        return []
    i, a = _block(H, d, lo)
    out, r = [], lo
    while r < hi:
        blk = H[i]
        out.append((r, blk[r - a:hi - a, :, (r - a) * d:]))
        i, a = i + 1, a + len(blk)
        r = a
    return out


def _row(H: tuple, d: int, t: int) -> np.ndarray:
    """Row t of the factor table H over columns t..N, a view."""
    i, a = _block(H, d, t)
    return H[i][t - a, :, (t - a) * d:]


def _block_nodes(k: int, N: int) -> int:
    """Nodes per block of ``_applied`` for stacks of k columns."""
    return max(1, min(_BLOCK, _BLOCK_COLUMNS // k, N + 1))


def _lost_definiteness(l: int, eigenvalues: np.ndarray) -> NumericalError:
    return NumericalError(
        f"effective control weight lost positive definiteness at node {l} "
        f"(min eigenvalue {eigenvalues.min():.6e})")


@np.errstate(invalid="ignore")
def _inverse_factor(mat: np.ndarray) -> np.ndarray:
    """inv(cholesky(mat)) from the LAPACK gufuncs that np.linalg.cholesky
    and np.linalg.inv wrap: the same bits at a third of the cost.  Where
    the wrappers raise, these fill NaN and flag an invalid value, which is
    not warned of here."""
    return _inv(_cholesky(mat, signature="d->d"), signature="d->d")


def _sym(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(M + M.swapaxes(-1, -2), 0.5, out=out)


def _by_rows(blocks: list, u: np.ndarray) -> np.ndarray:
    """(t, n+m, k): H u on the rows lo..lo+t-1 of the factor table H that
    ``blocks`` lists (``_rows``), row r sum_{s >= r} H(s, r)^T u(s) for the
    stacked columns u (M, d, k) over nodes lo..N, one ``_by_node_rows``
    product per stored block against u from its first row's node on.  A
    single block's product is the result itself."""
    (lo, first), k = blocks[0], u.shape[-1]
    w = first.shape[1]
    if len(blocks) == 1:
        return _by_node_rows(first.reshape(-1, first.shape[-1]),
                             u.reshape(-1, k), w).reshape(-1, w, k)
    hu = np.empty((sum(len(rows) for _, rows in blocks), w, k))
    for r, rows in blocks:
        q = r - lo
        _by_node_rows(rows.reshape(-1, rows.shape[-1]), u[q:].reshape(-1, k),
                      w, hu[q:q + len(rows)].reshape(-1, k))
    return hu


def _interior(H: tuple, W: np.ndarray, C: np.ndarray, rcal_inv: np.ndarray,
              lo: int, u: np.ndarray, dt: float, hi: int | None = None,
              first: np.ndarray | None = None) -> np.ndarray:
    """The slice at node lo - 1 on pairs i, j >= lo, applied to the stacked
    columns u (M, d, k) over nodes lo..N: F u - dt P^T (rcal_inv (P u)),
    P the control products pb(., r), r >= lo, as H^T x + W^T (H u) - C u,
    x = W u - dt [0; rcal_inv (P u)], C the corners.  (H u)(t) holds P u in
    its last m rows; H^T x and W^T (H u) each hold the diagonal term
    H(i, i) W(i) u(i) or its transpose, so one corner C(i) u(i) comes off.
    Row t of the tables enters only through row t of H u and of x, so the
    sum splits by rows: with ``hi`` given it reads rows lo..hi-1 only, a
    block's own rows in ``_applied``.  The rows go a stored block at a
    time (``_rows``): a block's H u is one ``_by_node_rows`` product
    against u from its first row's node on (``_by_rows``), its part of
    H^T x one of the transpose against its rows of x.  W^T (H u) is
    formed and H u freed first, so that the blocks' parts and their
    temporaries do not meet H u.  The result starts as the first block's
    part, which covers every row, with W^T (H u) added to its rows
    lo..hi-1, then the later blocks' parts in turn: each row's sum is
    W^T (H u) + the parts in turn, as a + b = b + a exactly, though a -0.0
    of the first part on rows from hi on stays -0.0, where a sum from +0.0
    would give +0.0.  With
    ``first`` (k,) given, column j's rows of H u below first[j] are zeroed
    before x is formed; where u's column is zero there too, those rows add
    exact zeros, and the column gets the slice at node first[j] - 1 on
    rows first[j]..N (zeros above): ``riccati_residual`` applies a block
    of nodes' slices in one call."""
    M, d, k = u.shape
    w, m = W.shape[1], rcal_inv.shape[-1]
    t = M if hi is None else hi - lo       # the rows read
    blocks = _rows(H, d, lo, lo + t)
    hu = _by_rows(blocks, u)
    if first is not None:
        above = np.arange(lo, lo + t)[:, None] < first
        np.copyto(hu, 0.0, where=above[:, None])
    Wl = W[lo:lo + t]
    x = Wl @ u[:t]
    x[:, w - m:] -= dt * (rcal_inv[lo:lo + t] @ hu[:, w - m:])

    def part(r: int, rows: np.ndarray) -> np.ndarray:
        # a stored block's part of H^T x, on rows r..N
        q, nr = r - lo, len(rows)
        return _by_node_rows(rows.reshape(nr * w, -1).T,
                             x[q:q + nr].reshape(-1, k), d).reshape(-1, d, k)

    whu = Wl.transpose(0, 2, 1) @ hu
    del hu
    (r, rows), *later = blocks
    out = part(r, rows)     # the first block's covers every row
    out[:t] += whu
    del whu
    for r, rows in later:
        out[r - lo:] += part(r, rows)
    del x                   # before the next temporary: u may be wide
    out[:t] -= C[lo:lo + t] @ u[:t]
    return out


#: base nodes and columns per block of ``_applied``, which reads the rows
#: of H finished before a block once for all of its nodes: 16 sweep stacks
#: of n + m + 1 <= 5 columns; wider stacks (case I's memory window) take
#: fewer nodes, and from 41 columns on, where one fills a GEMM, one each
_BLOCK, _BLOCK_COLUMNS = 16, 80


def _applied(H: tuple, W: np.ndarray, C: np.ndarray, rcal_inv: np.ndarray,
             k: int, fill, dt: float, p1: np.ndarray):
    """Yield (l, u, out) for l = N..0: u (N+1-l, d, k) node l's stack over
    nodes l..N, which ``fill`` writes, and out (N-l, d, k) dt times the
    slice at node l applied to u[1:], as ``_interior`` forms it, plus
    p1 u[1:].

    The nodes run in blocks [a, c) from the horizon back, and ``fill(a, c,
    U)`` writes a block's stacks before its first node, node l's over nodes
    a..N as U[:, :, l - a] (its rows below l are not read).  Rows c..N of
    the tables are finished then: their part of every node's product is
    one ``_interior`` call over the block's stacks side by side.
    Only rows l+1..c-1 are left per node, so a caller may write row l of
    H, W, C and rcal_inv after node l's yield, as the sweep does.  The
    blocks are ``_block_nodes(k, N)`` nodes; the sweep stores H in the
    same blocks, so each far call reads whole stored blocks and each
    node's rows lie in its own."""
    N, d = W.shape[0] - 1, W.shape[-1]
    b = _block_nodes(k, N)
    X = np.zeros((N + 1, d, b, k))
    for a, c in reversed(_partition(N + 1, b)):
        fill(a, c, X[a:, :, c - a - 1::-1])   # node l at column c - 1 - l
        far = None                      # the last block's, freed first
        if c <= N:
            U = X[c:, :, :c - a].reshape(N + 1 - c, d, -1)
            far = _interior(H, W, C, rcal_inv, c, U, dt)
            far *= dt
            far += p1[c:] @ U
        for j, l in enumerate(range(c - 1, a - 1, -1)):
            u, M, t = X[l:, :, j], N - l, c - 1 - l
            out = (_interior(H, W, C, rcal_inv, l + 1, u[1:], dt, c) if t
                   else np.zeros((M, d, k)))
            out *= dt
            out[:t] += p1[l + 1:c] @ u[1:t + 1]
            if far is not None:
                out[t:] += far[:, :, j * k:(j + 1) * k]
            yield l, u, out


def solve_riccati(vp: VolterraProblem) -> RiccatiSolution:
    N, dt, n, m = vp.grid.N, vp.grid.dt, vp.n, vp.m
    nn, d, w = N + 1, 3 * n, n + m

    p1 = np.zeros((nn, d, d))
    g1_table = np.zeros((nn, n, n))
    rcal = np.zeros((nn, m, m))
    rcal_inv = np.zeros((nn, m, m))
    W = np.zeros((nn, w, d))              # [Acal; Xi]
    W[:, :n] = vp.Acal
    corner = np.empty((nn, d, d))         # sym(H(l, l) W(l))
    # where b = 0 throughout the free-term column is left out, and where
    # b(l) = 0 it is zero and node l's free column stays +0.0
    free = vp.source.b.any(axis=1).tolist()
    k = w + any(free)
    # [g2 | pb], the lower half in _applied's blocks [a, c), from node 0 on
    b = _block_nodes(k, N)
    H = tuple(np.zeros((c - a, w, (nn - a) * d)) for a, c in _partition(nn, b))

    def fill(a: int, c: int, u: np.ndarray):
        # node l's columns: the selector U(., t_l), the control column
        # B(., t_l) and the free-term column U(., t_l) b(l)
        u[..., :w] = vp.lifted_columns(a, c).transpose(0, 2, 1, 3)
        if k > w:
            # each node's column as its own matrix-vector product, all in
            # one call; the rows below a node are not read
            u[..., w] = (u[..., :n].transpose(2, 0, 1, 3)
                         @ vp.source.b[a:c, None, :, None])[..., 0].transpose(
                             1, 2, 0)

    def factor_rcal(l: int, mat: np.ndarray):
        mat = _sym(mat, rcal[l])
        if not np.isfinite(mat).all():
            raise NumericalError(f"effective control weight non-finite at node {l}")
        linv = _inverse_factor(mat)
        if not np.isfinite(linv).all():
            # NaN where np.linalg's wrappers raise: they tell why
            try:
                linv = np.linalg.inv(np.linalg.cholesky(mat))
            except np.linalg.LinAlgError:
                raise _lost_definiteness(l, np.linalg.eigvalsh(mat)) from None
        np.matmul(linv.T, linv, out=rcal_inv[l])

    R, Q, Ccal, D1 = vp.R, vp.Q, vp.Ccal, vp.source.D1
    DC = np.concatenate([D1, Ccal], axis=2)             # [D1 | Ccal]
    sigma = vp.source.sigma[:, :, None]
    eta1 = np.zeros((nn, n))
    omega = np.zeros((nn, m))
    # node l+1's free column, the pair's column eta(., l+1) and rcal_inv
    # kvec there, which the adjoint's step at node l reads
    fcol = np.zeros((nn, d))
    eta = np.zeros((nn, d))
    y = np.zeros(m)

    # G: the columns against the slice at node l over pairs r, s > l, the
    # selector-weighted g2 (:n), the control products (n:n+m) and the
    # free-term products (n+m)
    for l, u, G in _applied(H, W, corner, rcal_inv, k, fill, dt, p1):
        M, Wl, D1l = N - l, W[l], D1[l]
        if l < N:
            v, G2 = u[1:].reshape(M * d, k), G.reshape(M * d, k)
            _sym((v[:, :n].T @ G2[:, :n]) * dt, g1_table[l])
        g1_val = g1_table[l]                     # zero at node N

        # the four sandwiches of g1 by D1 and Ccal in one product:
        # [D1^T g1 D1, D1^T g1 Ccal; Ccal^T g1 D1, Ccal^T g1 Ccal]
        S = (DC[l].T @ g1_val) @ DC[l]
        factor_rcal(l, R[l] + S[:m, :m])

        rdgc = rcal_inv[l] @ S[:m, m:]
        np.negative(rdgc, out=Wl[n:])            # Xi(l)
        _sym(Q[l] + S[m:, m:] - S[m:, :m] @ rdgc, p1[l])

        # the adjoint's step (iv): the diagonal and kvec start from their
        # sigma terms; the stack's selector and control columns enter as
        # a contiguous (M d, n+m) operand, so the sums do not depend on
        # the stack's width
        g1sig = g1_val @ sigma[l]
        diag = ((Ccal[l] + D1l @ Wl[n:]).T @ g1sig)[:, 0]
        kvec = (D1l.T @ g1sig)[:, 0]
        if l < N:
            s = l + 1
            # pb(., s) y from row s of H, written at node s
            col = eta[s:]
            col += dt * (fcol[s:] - (y @ row[n:]).reshape(M, d))
            c = (np.ascontiguousarray(v[:, :w]).T @ col.reshape(-1)) * dt
            eta1[l] = c[:n]
            diag += Wl.T @ c
            kvec += c[n:]
        eta[l] = diag
        y = rcal_inv[l] @ kvec
        np.negative(y, out=omega[l])

        head, row = p1[l] @ u[0], _row(H, d, l)
        if l < N:
            row[:, d:] = G2[:, :w].T
            # the corner sums: W(l)^T against one product of the column
            # just written with the stack (see the module docstring for
            # its thread bound)
            head += (Wl.T @ (G2[:, :w].T @ v)) * dt
            fcol[l + 1:] = G[..., -1] if free[l] else 0.0
        row[:, :d] = head[:, :w].T
        _sym(head[:, :w] @ Wl, corner[l])
        fcol[l] = head[:, -1] if free[l] else 0.0
        # the interior reached factor_rcal through G; only the column
        # and the corner are new
        if not (np.isfinite(row).all()
                and np.isfinite(corner[l]).all()):
            raise NumericalError(f"two-time kernel non-finite at node {l}")

    # the weight's eigenvalue floor in one call: a node whose factorization
    # succeeded may still hold an eigenvalue <= 0 at rounding level
    floors = np.linalg.eigvalsh(rcal).min(axis=1)
    if (floors <= 0.0).any():
        l = int(np.nonzero(floors <= 0.0)[0][-1])
        raise _lost_definiteness(l, floors[l:l + 1])

    return RiccatiSolution(
        n=n, m=m, dt=dt, p1=p1, H=H, W=W, corner=corner,
        g1_table=g1_table, rcal=rcal, rcal_inv=rcal_inv, eta1=eta1,
        omega=omega, lambda_floor=float(floors.min()),
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


#: entries per tile of the evolution line: a tile's products and D's
#: factors stay in cache between the passes
_EVOLUTION_BLOCK = 1 << 15


def _evolution_profile(P: RiccatiSolution, k: int, live: slice) -> np.ndarray:
    """max |sym(D(l+1)) - D(l)| per node l < N over pairs of smooth nodes
    l+1..N, D(r) = pb(., r) rcal_inv(r) pb(., r)^T on the ``live`` rows.  A
    node is rough within one node of offset k or 2k from l.

    No D is formed.  The nodes go in tiles of at most _EVOLUTION_BLOCK
    entries over the rows of nodes l0+1..N, l0 the tile's first node:
    several nodes a tile where the rows are few, several tiles a node
    where they are many.  Each entry is 0.5 (D(l+1)[i, j] + D(l+1)[j, i])
    - D(l)[i, j] as ``_sym`` forms it, each D entry a product of the
    rank-m factors Q = pb rcal_inv and pb.  The factors are zero on node
    l's rough rows and on rows of nodes up to l, so the pairs left out
    are exact zeros.  At m = 1 they carry a zero column: numpy's own
    product of one column is several times slower than a BLAS GEMM of
    two, and each entry is still the one rounded product."""
    N, n, m = P.N, P.n, P.m
    ln = len(range(3)[live]) * n          # live rows per node
    prof = np.zeros(N)
    # 1.0 where node l keeps the rows of the node at offset o from it, 0.0
    # where not, at o + N; a tile's row i is at offset 1 + i // ln from its
    # first node, so at kept[row_at[i]]
    o = np.arange(-N, N + 2)
    kept = ((o > 0) & (np.abs(o - k) > 1) & (np.abs(o - 2 * k) > 1)).astype(
        float)
    row_at = np.arange(N * ln) // ln + 1 + N
    # every tile and its scratch in one buffer: a fresh one per tile costs
    # its page faults again
    buf = np.empty((2, max(_EVOLUTION_BLOCK, N * ln)))
    l0 = 0
    while l0 < N:
        nc = (N - l0) * ln                  # the live rows of nodes l0+1..N
        rows = max(1, _EVOLUTION_BLOCK // nc)
        g = min(max(1, rows // nc), N - l0)  # nodes per tile
        rows = min(rows, nc)
        # the factors of nodes l0..l0+g on those rows, from their rows of
        # H (zero above each node's own)
        F = np.zeros((g + 1, N - l0, ln // n, n, max(m, 2)))
        for r, Hr in P.rows(l0, l0 + g + 1):
            s, nr = max(r, l0 + 1), len(Hr)
            F[r - l0:r - l0 + nr, s - l0 - 1:, ..., :m] = Hr[:, n:].reshape(
                nr, m, -1, 3, n)[:, :, s - r:, live].transpose(0, 2, 3, 4, 1)
        F = F.reshape(g + 1, nc, -1)
        Q = np.zeros_like(F)
        Q[..., :m] = F[..., :m] @ P.rcal_inv[l0:l0 + g + 1]
        # the rows node l = l0 + i keeps, as 1.0 and 0.0, by their offset
        keep = kept[row_at[:nc] - np.arange(g)[:, None], None]
        # D(l+1)'s half taken on its factor: a power of two, so the sum
        # of the halved products is 0.5 (D(l+1)[i, j] + D(l+1)[j, i])
        Qh, F1 = 0.5 * Q[1:] * keep, F[1:] * keep
        Q0, F0 = Q[:-1] * keep, F[:-1] * keep
        F1t, Qht, F0t = (np.ascontiguousarray(X.transpose(0, 2, 1))
                         for X in (F1, Qh, F0))
        e, t = buf[:, :g * rows * nc].reshape(2, g, rows, nc)
        worst = prof[l0:l0 + g]             # zeros until now
        for r0 in range(0, nc, rows):
            r1 = min(r0 + rows, nc)
            if r1 - r0 < rows:
                e, t = e[:, :r1 - r0], t[:, :r1 - r0]
            np.matmul(Qh[:, r0:r1], F1t, out=e)
            e += np.matmul(F1[:, r0:r1], Qht, out=t)
            e -= np.matmul(Q0[:, r0:r1], F0t, out=t)
            np.maximum(worst, np.abs(e, out=e).max(axis=(1, 2)), out=worst)
        l0 += g
    return prof


def riccati_residual(P: RiccatiSolution, vp: VolterraProblem) -> RiccatiResiduals:
    """The three lines from the sweep's tables, no slice replayed.

    The nodes run in the stored blocks [a, c), all of a block at once:
    every table is final, so nothing is sequential.  Node l's
    trapezoid-weighted stack u of selector and control columns, zero on
    rows below l, gives p1 u plus the slice at node l applied to u: its
    border column H(., l) W(l) against u(l), row l against the rows
    r > l, and the interior over pairs r, s > l.  The interiors of the
    whole block are one ``_interior`` call over rows a+1..N, node l's
    stack and its rows of H u zeroed on rows up to l, so those rows add
    exact zeros.  The algebraic and boundary lines are batched over the
    block, one ``np.linalg.inv`` for its weights.  The replay's Euler
    step subtracts dt D(l+1), D(r) = pb(., r) rcal_inv(r) pb(., r)^T, and
    symmetrizes: the evolution line compares sym(D(l+1)) with D(l) on the
    live rows, in tiles from the factors (``_evolution_profile``)."""
    g, src, n, m = vp.grid, vp.source, vp.n, P.m
    N, dt, d, w = g.N, g.dt, 3 * n, n + m
    H, W, corner = P.H, P.W, P.corner

    D1 = src.D1
    res_rcal = float(np.abs(
        P.rcal - vp.R - D1.transpose(0, 2, 1) @ P.g1_table @ D1).max())

    weight = np.full(N + 1, dt)
    weight[N] = 0.0

    prof_point, prof_bound = np.zeros(N + 1), np.zeros(N)
    for a, blk in reversed(_rows(H, d, 0, N + 1)):
        nb, M = len(blk), N + 1 - a
        c, ls, q = a + nb, slice(a, a + nb), np.arange(nb)
        # node l's columns on rows a..N, zero below l, as [r, :, l, :],
        # and the trapezoid-weighted stack: rows l and N halved
        u = vp.lifted_columns(a, c).transpose(0, 2, 1, 3)
        wu = u * weight[ls, None]
        wu[q, :, q] *= 0.5
        wu[-1] *= 0.5
        # the border columns H(., l) W(l) on rows a..N, corners symmetrized
        col = (blk.transpose(0, 2, 1) @ W[ls]).reshape(nb, M, d, d)
        col[q, q] = corner[ls]

        # G = p1 u plus slice l against the weighted stack: g2 (:n) and
        # the control products (n:), trapezoid-weighted; the border
        # column, then row l and the interior against rows l+1..N
        G = (P.p1[a:] @ u.reshape(M, d, nb * w)).reshape(M, d, nb, w)
        G += (col.reshape(nb, M * d, d) @ wu[q, :, q]).reshape(
            nb, M, d, w).transpose(1, 2, 0, 3)
        if M > 1:
            v = wu[1:].copy()
            v[q[1:] - 1, :, q[1:]] = 0.0
            G[q, :, q] += W[ls].transpose(0, 2, 1) @ (
                blk[:, :, d:]
                @ v.transpose(2, 0, 1, 3).reshape(nb, (M - 1) * d, w))
            G[1:] += _interior(
                H, W, corner, P.rcal_inv, a + 1, v.reshape(M - 1, d, nb * w),
                dt, first=np.repeat(np.arange(a + 1, c + 1), w)
            ).reshape(M - 1, d, nb, w)
            del v
        # node by node: G and the stack's selector columns as (nb, M d, .)
        G = G.transpose(2, 0, 1, 3).reshape(nb, M * d, w)
        wu = wu[..., :n].transpose(2, 0, 1, 3).reshape(nb, M * d, n)

        g1t = _sym(wu.transpose(0, 2, 1) @ G[..., :n])
        D1b, Cb = D1[ls], vp.Ccal[ls]
        D1bT, CbT = D1b.transpose(0, 2, 1), Cb.transpose(0, 2, 1)
        rct_inv = np.linalg.inv(vp.R[ls] + D1bT @ g1t @ D1b)
        cgd = CbT @ g1t @ D1b
        dgc = D1bT @ g1t @ Cb
        lhs1 = P.p1[ls] - (vp.Q[ls] + CbT @ g1t @ Cb - cgd @ rct_inv @ dgc)
        prof_point[ls] = np.abs(lhs1).max(axis=(1, 2))

        # the boundary line on rows r > l: node l's row is its corner
        lhs3 = G @ np.concatenate([vp.Acal[ls], -(rct_inv @ dgc)], axis=1)
        np.subtract(col.reshape(nb, M * d, d), lhs3, out=lhs3)
        lhs3 = np.abs(lhs3, out=lhs3).reshape(nb, M, d, d)
        lhs3[q, q] = 0.0
        if a < N:
            top = min(c, N)
            prof_bound[a:top] = lhs3[:top - a].max(axis=(1, 2, 3))

    prof_evol = _evolution_profile(P, g.delay_steps, vp.live)
    # effective weight jumps one delay before the horizon
    if src.nonzero("R2") and 0 <= N - g.delay_steps - 1:
        prof_evol[N - g.delay_steps - 1] = 0.0

    return RiccatiResiduals(
        pointwise=float(prof_point.max()),
        evolution=float(prof_evol.max()) if N > 0 else 0.0,
        boundary=float(prof_bound.max()) if N > 0 else 0.0,
        rcal_identity=res_rcal, pointwise_profile=prof_point,
        evolution_profile=prof_evol, boundary_profile=prof_bound)
