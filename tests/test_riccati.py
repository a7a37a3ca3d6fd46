"""Backward solver: fixed points, symmetry, star products, evaluators."""

import dataclasses
import hashlib
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

import delaylq as dl
from delaylq import cli, oracles, riccati, volterra
from delaylq.cli import main as cli_main, replay
from delaylq.riccati import RiccatiSolution
from evaluators import (bcal, frontier, g2, g3, p2, p2_slice, star_left,
                        star_right, star_sandwich, value_on_slice0)
from loop_oracles import (adjoint_sweep, advance_full_width, dense_factor,
                          diagonal, evolution_profile_full_width,
                          live_blocks, pair_selector_sums, stored_factor)
from test_multidim import planar_problem, planar_state_delay_problem


def zero_weight_solution(N=16):
    g = dl.TimeGrid(0.0, 1.0, N, 0.25)
    p = dl.empty_problem(g, 1, 1)
    p.R1[:] = 1.0
    p.A1[:] = -0.4
    p.B1[:] = 1.0
    p.C1[:] = 0.3
    vp = dl.build_volterra(p)
    return vp, dl.solve_riccati(vp)


def rich_no_delay(N):
    p = dl.preset_problem("tanh", N)
    p.A1[:] = -0.3
    p.C1[:] = 0.4
    p.D1[:] = 0.3
    return p


class TestFixedPointsAndSymmetry:
    def test_zero_weights_give_zero_solution_exactly(self):
        vp, P = zero_weight_solution()
        assert np.abs(P.p1).max() == 0.0
        assert max(np.abs(s).max() for _, s in replay(P)) == 0.0
        np.testing.assert_array_equal(P.rcal, vp.R)

    def test_p1_symmetry_exact(self, solve_preset):
        for name in dl.PRESET_NAMES:
            P = solve_preset(name, 20).P
            assert np.abs(P.p1 - P.p1.transpose(0, 2, 1)).max() == 0.0

    def test_p2_swap_transpose_symmetry_exact(self, solve_preset):
        for name in dl.PRESET_NAMES:
            P = solve_preset(name, 20).P
            worst = max(
                np.abs(sl - sl.transpose(1, 0, 3, 2)).max()
                for _, sl in replay(P))
            assert worst == 0.0

    def test_weight_floor_holds_on_all_presets(self, solve_preset):
        for name in dl.PRESET_NAMES:
            s = solve_preset(name, 20)
            assert s.P.lambda_floor >= 0.5 * s.problem.lam

    def test_pd_loss_aborts_with_node_index(self):
        p = dl.preset_problem("tanh", 16)
        vp = dl.build_volterra(p)
        vp.R[:] = -1.0  # bypass validation to hit the numerical guard
        with pytest.raises(dl.NumericalError, match="node 16"):
            dl.solve_riccati(vp)

    def test_singular_weight_with_a_cholesky_factor_aborts_at_its_node(self):
        # this weight factors, but its smallest eigenvalue comes out 0.0:
        # the floor taken over every node after the sweep names the node
        vp = dl.build_volterra(planar_problem(16, m=2, diffusive=False))
        vp.R[5] = [[0.1153417500028081, 0.14392123035159224],
                   [0.14392123035159224, 0.17958215949915615]]
        np.linalg.cholesky(vp.R[5])
        with pytest.raises(dl.NumericalError, match=(
                r"lost positive definiteness at node 5 \(min eigenvalue "
                r"0.000000e\+00\)")):
            dl.solve_riccati(vp)

    @pytest.mark.parametrize("name", ["full", "tanh"])
    def test_overflowing_kernel_aborts_at_its_node(self, name):
        # bypass validation: the border overflows at 9, the terminal
        # corner at 16
        for table, node in (("Acal", 9), ("Acal", 16), ("Q", 16)):
            vp = dl.build_volterra(dl.preset_problem(name, 16))
            getattr(vp, table)[node] = 1e308
            with np.errstate(all="ignore"), pytest.raises(
                    dl.NumericalError,
                    match=f"two-time kernel non-finite at node {node}$"):
                dl.solve_riccati(vp)


#: sha256 of ``solve --dump-riccati --n-steps 16`` per preset, re-made when
#: the sweep stopped advancing slices: against the solver that stored every
#: slice, each moved by at most 2.4e-16 relative to its largest entry.
#: distributed, full, pointwise and state-delay re-made again when the sweep
#: formed g1 from one product against g2 and each corner sum from one
#: product over the border row: moves of at most 1.3e-16 relative to the
#: largest entry.  The same four re-made again when the sweep stored the
#: border as the factors H and W and applied the slice through them:
#: moves of at most 2.2e-16 relative to the largest entry.
DUMP16_SHA256 = {
    "tanh": "bed8ecd126b410eac25725d3fc042f962afec90ca37956e9c8a32e2862affc62",
    "input-delay": "8c0758e612275c015c783d708cf1af976f018276026fcbc7c0f304cc8a17f499",
    "state-delay": "48792916693f8c9224f145bcd5b274de0fc7721fd38f0b107b483643a6353642",
    "distributed": "268fd0650f21fd5d66d3a0b463f2c1432b81cc76567585702a84ec472bf3bc33",
    "pointwise": "999bd4c5fbc4e24bde40360ea11bee927057d21698f4586f9e9cd3b9b39be4bf",
    "full": "42b9f214ef90d665400bfadf79b6e29c20c60c9c5e4bedffe29808a5963d4683",
}


@lru_cache(maxsize=1)
def planar_solutions():
    """The n = 2 problems of test_multidim: d = 6 blocks in the flat slice."""
    problems = {"planar-m1": planar_problem(16, m=1),
                "planar-m2": planar_problem(16, m=2),
                "planar-state-delay": planar_state_delay_problem(16)}
    return tuple((name, dl.solve_riccati(dl.build_volterra(p)))
                 for name, p in problems.items())


class TestFactoredKernel:
    def test_closed_form_matches_replay_on_all_presets(self, solve_preset):
        presets = [(name, solve_preset(name, 24).P) for name in dl.PRESET_NAMES]
        for name, P in presets + list(planar_solutions()):
            worst = 0.0
            for l, sl in replay(P):
                for i in range(l, P.N + 1):
                    for j in range(l, P.N + 1):
                        worst = max(worst, float(np.abs(
                            p2(P, i, j, l) - sl[i - l, j - l]).max()))
            assert worst <= 1e-12, (name, worst)

    def test_replay_reproduces_stored_tables_exactly(self, solve_preset):
        presets = [solve_preset(name, 24).P for name in dl.PRESET_NAMES]
        for P in presets + [P for _, P in planar_solutions()]:
            F = frontier(P)
            for l, sl in replay(P):
                assert sl.shape == (P.N + 1 - l,) * 2 + (3 * P.n,) * 2
                np.testing.assert_array_equal(sl[:, 0], F[l:, l])

    def test_free_term_table_is_the_star_product(self, solve_preset):
        # node s's free column is p1 ub + dt sum p2 ub, ub = U(., t_s) b(s),
        # the regrouped star product g2(., s) b(s): the separate adjoint
        # loop fed that table and the sweep's own factors gives back the
        # sweep's offset and the pair's selector sums
        s = solve_preset("full", 24)
        P, vp, b = s.P, s.vp, s.problem.b
        N, n = P.N, P.n
        pfree = np.zeros((N + 1, N + 1, 3 * n))
        for sn in range(N + 1):
            for r in range(sn, N + 1):
                pfree[r, sn] = g2(P, vp, r, sn) @ b[sn]
        ref = dict(pfree=pfree, pb=dense_factor(P)[1], g1_table=P.g1_table,
                   Xi=P.W[:, n:], rcal_inv=P.rcal_inv)
        eta, omega = adjoint_sweep(vp, ref)
        np.testing.assert_allclose(P.omega, omega, rtol=0, atol=1e-12)
        np.testing.assert_allclose(P.eta1, pair_selector_sums(vp, eta),
                                   rtol=0, atol=1e-12)

    def test_stored_tables_are_quadratic_in_the_horizon(self, solve_preset):
        # the one pair table is the factor H's lower half: per block
        # [a, c) of the sweep, rows a..c-1 over columns a..N, (c - a)
        # (N + 1 - a) node blocks of 3n (n+m) numbers; the rest is
        # O(N (3n)^2)
        P = solve_preset("full", 48).P
        d, nn, w, b = 3 * P.n, P.N + 1, P.n + P.m, riccati._BLOCK
        stored = sum((c - a) * (nn - a) for c in range(nn, 0, -b)
                     for a in [max(c - b, 0)]) * d * w
        arrays = [v for v in vars(P).values() if isinstance(v, np.ndarray)]
        assert sum(a.size for a in P.H) == stored
        assert sum(a.nbytes for a in arrays) <= 4 * nn * d * d * 8

    def test_lifting_stores_no_control_kernel_table(self):
        # build_volterra keeps the running integrals E, the memory rows'
        # sums over E where the memory channel is live, and per-node rows:
        # no (N+1)^2 3n m table of the control kernel
        problems = [dl.preset_problem(name, 48)
                    for name in ("full", "input-delay", "state-delay")]
        for p in problems + [planar_problem(48, m=2)]:
            vp = dl.build_volterra(p)
            nn, d = vp.grid.N + 1, 3 * vp.n
            arrays = [v for name, v in vars(vp).items()
                      if name != "source" and isinstance(v, np.ndarray)]
            sums = nn * nn * vp.n * vp.m if p.has_memory else 0
            assert sum(a.size for a in arrays) <= (
                vp.E.size + sums + 4 * nn * d * d), p.grid.N

    def test_sweep_allocates_no_hidden_slice_sized_temporary(self):
        # the stored tables plus half a slice of slack for small
        # temporaries; one slice-sized temporary in the loop exceeds it
        for name in ("full", "state-delay"):
            vp = dl.build_volterra(dl.preset_problem(name, 120))
            tracemalloc.start()
            try:
                P = dl.solve_riccati(vp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            stored = sum(a.nbytes for a in vars(P).values()
                         if isinstance(a, np.ndarray))
            stored += sum(a.nbytes for a in P.H)
            slice_bytes = (P.N + 1) ** 2 * (3 * P.n) ** 2 * 8
            assert peak <= stored + 0.5 * slice_bytes, (
                name, (peak - stored) / slice_bytes)

    def test_sweep_splits_a_node_past_the_call_bound(self, monkeypatch):
        # at a bound of 8 multiply-adds one node's block of H against the
        # sweep's columns exceeds a call's share: the products against H
        # go to single nodes and split them, and the sweep and the
        # residual agree with the whole calls at rounding level
        vp = dl.build_volterra(dl.preset_problem("full", 8))
        P = dl.solve_riccati(vp)
        res = dl.riccati_residual(P, vp)
        monkeypatch.setattr(volterra, "_CALL_MACS", 8)
        Ps = dl.solve_riccati(vp)
        for table in ("p1", "H", "W", "eta1", "omega"):
            a, b = (dense_factor(S)[0] if table == "H" else getattr(S, table)
                    for S in (Ps, P))
            np.testing.assert_allclose(a, b, rtol=0,
                                       atol=1e-13 * np.abs(b).max())
        res_s = dl.riccati_residual(Ps, vp)
        for line in ("pointwise", "evolution", "boundary"):
            assert getattr(res_s, line) == pytest.approx(
                getattr(res, line), rel=1e-12)

    def test_value_function_is_the_quadratic_form_on_slice0(self,
                                                           solve_preset):
        cases = [solve_preset(name, 24) for name in dl.PRESET_NAMES]
        cases = [(s.vp, s.P) for s in cases if s.problem.homogeneous]
        vp = dl.build_volterra(planar_problem(24, m=2, diffusive=False))
        cases.append((vp, dl.solve_riccati(vp)))
        for vp, P in cases:
            assert abs(dl.value_function(P, vp)
                       - value_on_slice0(P, vp)) <= 1e-12

    def test_corner_is_the_symmetrized_diagonal_factor(self, solve_preset):
        # bit for bit the corner its readers took from H's diagonal before
        # the sweep kept it; N = 40 spans three stored blocks
        cases = [solve_preset(name, 40).P for name in dl.PRESET_NAMES]
        cases += [dl.solve_riccati(dl.build_volterra(planar_problem(40, m=m)))
                  for m in (1, 2)]
        for P in cases:
            np.testing.assert_array_equal(P.corner, riccati._sym(
                diagonal(P.H, 3 * P.n).swapaxes(-1, -2) @ P.W))

    def test_domain_errors(self, solve_preset):
        P = solve_preset("tanh", 16).P
        with pytest.raises(ValueError):
            p2(P, 3, 5, 4)
        with pytest.raises(ValueError):
            p2_slice(P, 17)

    @pytest.mark.parametrize("name", sorted(DUMP16_SHA256))
    def test_dump_riccati_output_is_pinned(self, name, tmp_path):
        out = tmp_path / "run"
        assert cli_main(["solve", "--preset", name, "--n-steps", "16",
                         "--dump-riccati", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "riccati_p2.csv").read_bytes())
        assert digest.hexdigest() == DUMP16_SHA256[name]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["summary.json", "feedback_k1.csv", "feedback_k2.csv",
             "feedback_k3.csv", "feedback_k4.csv", "feedback_v.csv",
             "riccati_p1.csv", "riccati_p2.csv"])


#: lifted blocks the data never reads (0 current state, 1 delayed state,
#: 2 memory integral), per preset
DEAD_BLOCKS = {"tanh": (1, 2), "input-delay": (1, 2), "state-delay": (2,),
               "pointwise": (2,), "distributed": (1,), "full": ()}


class TestLiveBlocks:
    def test_live_set_follows_the_data(self, solve_preset):
        solved = {name: solve_preset(name, 16) for name in DEAD_BLOCKS}
        cases = [(name, s.vp, s.P) for name, s in solved.items()]
        vp = dl.build_volterra(planar_state_delay_problem(16))
        cases.append(("planar-state-delay", vp, dl.solve_riccati(vp)))
        for name, vp, P in cases:
            dead = DEAD_BLOCKS.get(name, (2,))
            assert list(range(3)[vp.live]) == [
                b for b in range(3) if b not in dead], name
            # on the presets the tables hold every live block
            assert live_blocks(P) == vp.live, name

    def test_live_set_is_read_off_the_data(self):
        # a block is live iff one of its coefficients or its weight holds a
        # nonzero entry, however small; the set cannot be set
        vp, Z = zero_weight_solution(8)
        assert vp.live == live_blocks(Z) == slice(0, 1)
        with pytest.raises(AttributeError):
            vp.live = slice(0, 3)
        dense = {"H": dense_factor(Z)[0], "W": Z.W}
        for b, names, want in ((1, ("A2", "C2", "Q2"), slice(0, 2)),
                               (2, ("A3", "C3", "Q3"), slice(0, 3, 2))):
            for name in names:
                hot = getattr(vp.source, name).copy()
                hot[3, 0, 0] = 1e-300
                p = dataclasses.replace(vp.source, **{name: hot})
                assert dl.build_volterra(p).live == want, name
            # the tables' rule, the oracle: n = 1, so row or column b is
            # block b; H[3, :, 15 + b] is H(5, 3)[b] in the dense layout
            for label, at in (("H", (3, 0, 15)), ("H", (3, 1, 15)),
                              ("W", (3, 0, 0))):
                hot = dense[label].copy()
                hot[at[:2] + (at[2] + b,)] = 1e-300
                if label == "H":
                    hot = stored_factor(hot, 3, len(Z.H[-1]))
                assert live_blocks(dataclasses.replace(
                    Z, **{label: hot})) == want, (label, at, b)

    def test_dead_blocks_are_exactly_zero(self, solve_preset):
        cases = [(name, solve_preset(name, 24).P, dead)
                 for name, dead in DEAD_BLOCKS.items() if dead]
        cases += [(name, P, (2,)) for name, P in planar_solutions()
                  if name == "planar-state-delay"]
        for name, P, dead in cases:
            F = frontier(P)
            for b in dead:
                blk = slice(b * P.n, (b + 1) * P.n)
                for label, rows in (("p1", P.p1[:, blk]),
                                    ("p1", P.p1[:, :, blk]),
                                    ("frontier", F[..., blk, :]),
                                    ("frontier", F[..., blk]),
                                    ("pb", dense_factor(P)[1][..., blk, :])):
                    assert not rows.any(), (name, b, label)

    @staticmethod
    def _live_and_full_width(P, vp, monkeypatch):
        """The replayed slice 0 and the residual profiles of the live
        replay and check, then of the replay and the evolution check run
        over every entry."""
        def tables(P, res):
            return {"slice0": p2_slice(P, 0).copy(),
                    **{f: getattr(res, f) for f in (
                        "pointwise_profile", "evolution_profile",
                        "boundary_profile")}}

        live = tables(P, dl.riccati_residual(P, vp))
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_euler", advance_full_width)
            res = dataclasses.replace(
                dl.riccati_residual(P, vp),
                evolution_profile=evolution_profile_full_width(P, vp))
            return live, tables(P, res)

    def test_live_replay_is_bit_identical_to_full_width(self, monkeypatch):
        for name in dl.PRESET_NAMES:
            vp = dl.build_volterra(dl.preset_problem(name, 24))
            live, full = self._live_and_full_width(dl.solve_riccati(vp), vp,
                                                   monkeypatch)
            for f in live:
                np.testing.assert_array_equal(live[f], full[f],
                                              err_msg=f"{name} {f}")

    def test_planar_live_replay_moves_at_rounding_level(self, monkeypatch):
        # n = m = 2: the k = 2 GEMM over the compact rows may group a sum
        # differently from the one over all rows
        for N in (24, 40):
            vp = dl.build_volterra(planar_state_delay_problem(N))
            live, full = self._live_and_full_width(dl.solve_riccati(vp), vp,
                                                   monkeypatch)
            for f in live:
                gap = np.abs(live[f] - full[f])
                assert gap.max() <= 1e-15, (N, f, gap.max(),
                                            np.count_nonzero(gap))

    def test_weak_delay_channel_converges_linearly(self, monkeypatch):
        # A2 = eps makes the delay block live.  p1 is Q on input-delay
        # (C1 = D1 = 0), so the gap is read on the first blocks of the
        # two-time kernel: slice0 and the sandwich g1.  It shrinks tenfold
        # per decade; the live replay must match the full-width one on the
        # whole slice, which a liveness rule that lost the channel misses
        # in the delay block
        def first_blocks(eps):
            p = dl.preset_problem("input-delay", 24)
            p.A2[:] = eps
            vp = dl.build_volterra(p)
            assert vp.live == (slice(0, 2) if eps else slice(0, 1))
            P = dl.solve_riccati(vp)
            assert live_blocks(P) == vp.live
            live, full = self._live_and_full_width(P, vp, monkeypatch)
            for f in live:
                np.testing.assert_array_equal(live[f], full[f],
                                              err_msg=f"eps={eps} {f}")
            return live["slice0"][..., :p.n, :p.n], P.g1_table

        base = first_blocks(0.0)
        gaps = np.array([[np.abs(a - b).max()
                          for a, b in zip(first_blocks(eps), base)]
                         for eps in (1e-3, 1e-4)])
        assert (gaps[1] > 0).all(), gaps
        ratio = gaps[0] / gaps[1]
        assert ((5.0 <= ratio) & (ratio <= 20.0)).all(), ratio


class TestClosedFormAnchor:
    def test_no_delay_embedding_approaches_tanh(self):
        errs = {}
        for N in (40, 80):
            p = dl.preset_problem("tanh", N)
            vp = dl.build_volterra(p)
            P = dl.solve_riccati(vp)
            dt = p.grid.dt
            emb = (P.p1[1:, 0, 0].sum() * dt
                   + p2_slice(P, 0)[1:, 1:, 0, 0].sum() * dt * dt)
            errs[N] = abs(emb - np.tanh(1.0))
        assert errs[40] < 0.02
        ratio = errs[40] / errs[80]
        assert 1.4 < ratio < 2.6

    def test_weight_scaling_covariance_is_exact(self, solve_preset):
        base = solve_preset("pointwise", 20)
        scaled = solve_preset("pointwise", 20, 3.0)
        np.testing.assert_allclose(scaled.P.p1, 3.0 * base.P.p1,
                                   rtol=0, atol=1e-12)
        for (_, a), (_, b) in zip(replay(scaled.P), replay(base.P)):
            np.testing.assert_allclose(a, 3.0 * b, rtol=0, atol=1e-12)


class TestStarProducts:
    def test_zero_solution_annihilates(self):
        vp, P = zero_weight_solution()
        D = dl.lifted_kernel(vp, vp.source.D1)
        B = vp.lifted_columns()[..., vp.n:]
        assert np.abs(star_left(np.transpose(B, (0, 1, 3, 2)), P, vp,
                                8, 3)).max() == 0.0
        assert np.abs(star_right(P, B, vp, 8, 3)).max() == 0.0
        assert np.abs(star_sandwich(np.transpose(D, (0, 1, 3, 2)), P,
                                    D, vp, 3)).max() == 0.0

    def test_zero_kernel_annihilates(self, solve_preset):
        s = solve_preset("full", 16)
        zero = np.zeros_like(s.vp.lifted_columns()[..., s.vp.n:])
        assert np.abs(star_right(s.P, zero, s.vp, 8, 3)).max() == 0.0

    def test_degenerate_star_returns_pointwise_kernel(self):
        # p2 = 0, M1 = identity kernel: the product collapses to p1(s)
        g = dl.TimeGrid(0.0, 1.0, 8, 0.25)
        p = dl.empty_problem(g, 1, 1)
        p.R1[:] = 1.0
        vp = dl.build_volterra(p)
        d = 3
        p1 = np.tile(np.diag([2.0, 3.0, 4.0]), (9, 1, 1))
        # zero factors: p2 = 0 and pb = 0
        zero_h = stored_factor(np.zeros((9, 2, 9 * d)), d, 9)
        zero_w, zero_c = np.zeros((9, 2, d)), np.zeros((9, d, d))
        P = RiccatiSolution(n=1, m=1, dt=g.dt, p1=p1, H=zero_h, W=zero_w,
                            corner=zero_c, g1_table=np.zeros((9, 1, 1)),
                            rcal=np.tile(np.eye(1), (9, 1, 1)),
                            rcal_inv=np.tile(np.eye(1), (9, 1, 1)),
                            eta1=np.zeros((9, 1)), omega=np.zeros((9, 1)),
                            lambda_floor=1.0)
        ident = np.tile(np.eye(d), (9, 9, 1, 1))
        np.testing.assert_array_equal(star_left(ident, P, vp, 5, 2), p1[5])
        np.testing.assert_array_equal(star_right(P, ident, vp, 5, 2), p1[5])
        # sandwich of the identity against constant p1 integrates exactly
        const = RiccatiSolution(n=1, m=1, dt=g.dt,
                                p1=np.tile(np.eye(d), (9, 1, 1)),
                                H=zero_h, W=zero_w, corner=zero_c,
                                g1_table=np.zeros((9, 1, 1)),
                                rcal=P.rcal, rcal_inv=P.rcal_inv,
                                eta1=P.eta1, omega=P.omega, lambda_floor=1.0)
        val = star_sandwich(ident, const, ident, vp, 2)
        np.testing.assert_allclose(val, (1.0 - g.time(2)) * np.eye(d),
                                   atol=1e-14)

    def test_star_right_with_state_kernel_matches_g2_regrouping(self, solve_preset):
        s = solve_preset("full", 16)
        A = dl.lifted_kernel(s.vp, s.vp.Acal)
        for (sb, t) in [(8, 3), (16, 0), (5, 4)]:
            lhs = star_right(s.P, A, s.vp, sb, t)
            rhs = g2(s.P, s.vp, sb, t) @ s.vp.Acal[t]
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_star_product_equals_stored_control_table(self, solve_preset):
        s = solve_preset("full", 16)
        for (sb, t) in [(8, 3), (16, 0), (5, 4)]:
            B = s.vp.lifted_columns()[..., s.vp.n:]
            np.testing.assert_allclose(star_right(s.P, B, s.vp, sb, t),
                                       dense_factor(s.P)[1][sb, t],
                                       atol=1e-13)

    def test_domain_errors(self, solve_preset):
        s = solve_preset("tanh", 16)
        A = dl.lifted_kernel(s.vp, s.vp.Acal)
        with pytest.raises(ValueError):
            star_left(A, s.P, s.vp, 3, 3)
        with pytest.raises(ValueError):
            star_right(s.P, A, s.vp, 2, 7)


class TestEvaluators:
    def test_zero_solution_evaluators_vanish(self):
        vp, P = zero_weight_solution()
        assert np.abs(P.g1_table[3]).max() == 0.0
        assert np.abs(g2(P, vp, 8, 3)).max() == 0.0
        assert np.abs(g3(P, vp, 8, 3, 5)).max() == 0.0

    def test_sandwich_definitional_identity(self, solve_preset):
        s = solve_preset("full", 16)
        D = dl.lifted_kernel(s.vp, s.problem.D1)
        DT = np.transpose(D, (0, 1, 3, 2))
        for t in (0, 5, 12):
            sw = star_sandwich(DT, s.P, D, s.vp, t)
            direct = s.problem.D1[t].T @ s.P.g1_table[t] @ s.problem.D1[t]
            np.testing.assert_allclose(sw, direct, atol=1e-14)

    def test_no_delay_g1_embeds_classical_kernel(self, solve_preset):
        s = solve_preset("tanh", 40)
        dt = s.problem.grid.dt
        for l in (0, 10, 30):
            emb = (s.P.p1[l + 1:, 0, 0].sum() * dt
                   + p2_slice(s.P, l)[1:, 1:, 0, 0].sum() * dt * dt)
            assert s.P.g1_table[l, 0, 0] == pytest.approx(emb, abs=1e-13)

    def test_g3_regrouping_matches_star_product(self, solve_preset):
        # summing the control column against the two-time evaluator must
        # reproduce the stored star product to near machine precision
        s = solve_preset("full", 16)
        N, dt = s.vp.grid.N, s.vp.grid.dt
        for (sb, t) in [(5, 2), (16, 0), (10, 9)]:
            acc = np.zeros((s.problem.m, 3 * s.problem.n))
            for th in range(t + 1, N + 1):
                acc += bcal(s.vp, th, t).T @ g3(s.P, s.vp, sb, t, th).T * dt
            ref = dense_factor(s.P)[1][sb, t].T
            scale = max(np.abs(ref).max(), 1e-30)
            assert np.abs(acc - ref).max() / scale < 1e-10

    def test_evaluator_domain_errors(self, solve_preset):
        s = solve_preset("tanh", 16)
        with pytest.raises(ValueError):
            g2(s.P, s.vp, 2, 5)
        with pytest.raises(ValueError):
            g3(s.P, s.vp, 5, 5, 6)
        with pytest.raises(ValueError):
            g3(s.P, s.vp, 8, 3, 3)


class TestResiduals:
    def test_zero_weights_all_residuals_zero(self):
        vp, P = zero_weight_solution()
        res = dl.riccati_residual(P, vp)
        assert res.pointwise == 0.0
        assert res.evolution == 0.0
        assert res.boundary == 0.0
        assert res.rcal_identity == 0.0

    def test_residual_and_case_v_check_replay_no_slice(self, solve_preset,
                                                       monkeypatch):
        # both read the sweep's tables: a replay, or its Euler step, fails
        def refuse(*args, **kwargs):
            raise AssertionError("a slice was replayed")

        solved = {name: solve_preset(name, 24) for name in dl.PRESET_NAMES}
        monkeypatch.setattr(cli, "replay", refuse)
        monkeypatch.setattr(cli, "_euler", refuse)
        for s in solved.values():
            dl.riccati_residual(s.P, s.vp)
        s = solved["tanh"]
        oracles.casev_consistency(s.P, s.strategy,
                                  oracles.classical_riccati(s.problem), s.vp)

    @pytest.mark.parametrize("name", ["input-delay", "full"])
    def test_residual_makes_one_slice_product_per_block(self, name,
                                                        monkeypatch):
        # every row of the tables is final when the residual runs, so one
        # product over rows a+1..N applies the slices of a whole block of
        # nodes [a, c); a node-by-node schedule makes about N of them
        vp = dl.build_volterra(dl.preset_problem(name, 120))
        P = dl.solve_riccati(vp)
        product, calls = riccati._interior, []

        def counted(*args, **kwargs):
            calls.append(args[4])
            return product(*args, **kwargs)

        monkeypatch.setattr(riccati, "_interior", counted)
        dl.riccati_residual(P, vp)
        assert 0 < len(calls) <= -(-(P.N + 1) // 16), calls

    def test_residual_allocates_a_block_and_a_tile(self):
        # the bound, in doubles, from what the residual holds at once:
        # - the evolution line's tile and its scratch, 2 _EVOLUTION_BLOCK;
        # - a block's arrays of stack size, (N+1) d b w: the lifted
        #   columns, the weighted stack, G, the stack on rows past l, and
        #   _interior's H u, x, result and one product temporary, eight;
        # - of border size, (N+1) b d^2: the border columns, the boundary
        #   line and the last block's boundary line, three;
        # - the drift factors: F and Q of a tile's two nodes, the four
        #   masked factors, three transposes and the mask, twelve rows of
        #   (N+1) L n max(m, 2).
        # One drift matrix D(l) is (M L n)^2 doubles: 4.1 MB on full and
        # 0.46 MB on input-delay at M = N = 240.  Keeping D(l) and D(l+1)
        # on full, or those of a chunk of 16 nodes on input-delay, exceeds
        # the bound (about 2.9 MB on both)
        for name in ("full", "input-delay"):
            vp = dl.build_volterra(dl.preset_problem(name, 240))
            P = dl.solve_riccati(vp)
            N, n, m = P.N, P.n, P.m
            d, w, b = 3 * n, n + m, riccati._BLOCK
            L = len(range(3)[vp.live])
            bound = 8 * (2 * riccati._EVOLUTION_BLOCK
                         + 8 * (N + 1) * d * b * w
                         + 3 * (N + 1) * b * d * d
                         + 12 * (N + 1) * L * n * max(m, 2))
            tracemalloc.start()
            try:
                dl.riccati_residual(P, vp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (name, peak, bound)

    def test_boundary_line_checks_the_stored_factors(self, solve_preset):
        # one stored g2 entry of node l moved by delta moves the boundary
        # line at l by about |delta Acal(l)|: the line compares the stored
        # left-rectangle factors with its trapezoid recomputation, not
        # with themselves.  Later nodes do not read node l's column
        s = solve_preset("full", 24)
        P, vp = s.P, s.vp
        base = dl.riccati_residual(P, vp).boundary_profile
        d, l, delta = 3 * P.n, 10, 100.0
        H = dense_factor(P)[0]
        H[l, 0, (l + 5) * d] += delta           # g2(l + 5, l)[0, 0]
        moved = dl.riccati_residual(
            dataclasses.replace(P, H=stored_factor(H, d, len(P.H[-1]))),
            vp).boundary_profile
        want = abs(delta) * np.abs(vp.Acal[l][0]).max()
        assert abs(moved[l] - base[l] - want) <= 0.1 * want, (
            moved[l], base[l], want)
        np.testing.assert_array_equal(moved[l + 1:], base[l + 1:])

    def test_rcal_identity_exact_on_presets(self, solve_preset):
        for name in dl.PRESET_NAMES:
            s = solve_preset(name, 20)
            res = dl.riccati_residual(s.P, s.vp)
            assert res.rcal_identity < 1e-12

    def test_residual_lines_halve_under_refinement(self):
        vals = {}
        for N in (40, 80):
            p = rich_no_delay(N)
            vp = dl.build_volterra(p)
            P = dl.solve_riccati(vp)
            vals[N] = dl.riccati_residual(P, vp)
        for line in ("pointwise", "evolution", "boundary"):
            ratio = getattr(vals[40], line) / getattr(vals[80], line)
            assert 1.4 < ratio < 2.6, (line, ratio)

    def test_evolution_residual_halves_on_delayed_presets(self):
        for name in ("input-delay", "pointwise"):
            vals = {}
            for N in (40, 80):
                p = dl.preset_problem(name, N)
                vp = dl.build_volterra(p)
                vals[N] = dl.riccati_residual(dl.solve_riccati(vp), vp)
            ratio = vals[40].evolution / vals[80].evolution
            assert 1.4 < ratio < 2.6, (name, ratio)

    def test_monotonicity_in_state_weight(self):
        p = dl.preset_problem("pointwise", 20)
        vp = dl.build_volterra(p)
        v_base = dl.value_function(dl.solve_riccati(vp), vp)
        p.Q1[:] += 1.0
        vp2 = dl.build_volterra(p)
        v_big = dl.value_function(dl.solve_riccati(vp2), vp2)
        assert v_big >= v_base
