"""Lifting: kernel assembly, free term, running integrals, cost identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaylq as dl
import loop_oracles
from delaylq import volterra
from evaluators import bcal, pi_matrix, script_e


def scalar_grid(N=20):
    return dl.TimeGrid(t0=0.0, T=1.0, N=N, delay=0.25)


class TestScriptE:
    def test_constant_kernel_is_exact(self):
        g = scalar_grid()
        p = dl.empty_problem(g, 1, 1)
        for i in range(1, g.N + 1):
            p.F[i, :i] = np.eye(1)
        # t - s = 0.3 spans 6 steps of 0.05
        val = script_e(p.F, g, 10, 4)
        assert val[0, 0] == pytest.approx(0.3, abs=1e-14)

    def test_empty_and_reversed_ranges_are_zero(self):
        g = scalar_grid()
        p = dl.empty_problem(g, 1, 1)
        for i in range(1, g.N + 1):
            p.F[i, :i] = 1.0
        assert np.all(script_e(p.F, g, 5, 5) == 0.0)
        assert np.all(script_e(p.F, g, 3, 9) == 0.0)

    def test_table_matches_pointwise_rule(self):
        p = dl.preset_problem("distributed", 16)
        vp = dl.build_volterra(p)
        for i in range(0, 17, 3):
            for j in range(0, 17, 2):
                np.testing.assert_allclose(
                    vp.E[i, j], script_e(p.F, p.grid, i, j), atol=1e-15)


class TestFreeTerm:
    def test_zero_dynamics_constant_window(self):
        g = scalar_grid()
        p = dl.empty_problem(g, 1, 1)
        p.Q1[:] = 1.0
        p.R1[:] = 1.0
        p.xi[:] = 3.0
        vp = dl.build_volterra(p)
        np.testing.assert_allclose(vp.phi[:, 0], 3.0)
        np.testing.assert_allclose(vp.phi[:, 1], 3.0)
        np.testing.assert_allclose(vp.phi[:, 2], 0.0)

    def test_control_window_enters_first_component(self):
        # B2 = 1, varsigma = c: phi_1(t0 + 0.1) = x0 + 0.1 c
        g = scalar_grid()
        p = dl.empty_problem(g, 1, 1)
        p.Q1[:] = 1.0
        p.R1[:] = 1.0
        p.B2[:] = 1.0
        p.xi[:] = 1.0
        p.varsigma[:] = 0.7
        vp = dl.build_volterra(p)
        i = round(0.1 / g.dt)
        assert vp.phi[i, 0] == pytest.approx(1.0 + 0.1 * 0.7, abs=1e-14)

    def test_second_component_continuous_at_one_delay(self):
        p = dl.preset_problem("input-delay", 20)
        vp = dl.build_volterra(p)
        k = p.grid.delay_steps
        # constant window, zero varsigma: both branches give xi(0)
        assert vp.phi[k, 1] == vp.phi[k + 1, 1] == pytest.approx(1.0)

    def test_legacy_cost_is_window_quadrature(self):
        p = dl.preset_problem("pointwise", 20)
        vp = dl.build_volterra(p)
        k, dt = p.grid.delay_steps, p.grid.dt
        expected = sum(float(p.varsigma[j] @ p.R2[j] @ p.varsigma[j]) * dt
                       for j in range(k))
        assert vp.legacy_cost == pytest.approx(expected, rel=1e-14)


class TestKernelStructure:
    def test_rows_of_state_kernel_follow_selector(self):
        p = dl.preset_problem("full", 16)
        vp = dl.build_volterra(p)
        A = dl.lifted_kernel(vp, vp.Acal)
        n, k = p.n, p.grid.delay_steps
        for i in range(1, 17, 3):
            for j in range(i):
                row1 = A[i, j, :n, :]
                ind = 1.0 if i - j > k else 0.0
                np.testing.assert_allclose(A[i, j, n:2 * n, :], ind * row1,
                                           atol=1e-15)
                np.testing.assert_allclose(A[i, j, 2 * n:, :],
                                           vp.E[i, j] @ row1, atol=1e-15)

    def test_state_kernel_column_is_the_dense_table_column(self):
        # the sweep and the adjoint take the selector column from
        # ``lifted_columns``; with Acal it must give the dense table's
        # column bit for bit, n = 2 included
        grid = scalar_grid(12)
        planar = dl.empty_problem(grid, 2, 2)
        planar.A1[:] = [[-0.4, 0.2], [0.1, -0.5]]
        planar.A2[:] = [[0.2, 0.0], [0.1, 0.1]]
        planar.A3[:] = [[0.1, 0.05], [0.0, 0.2]]
        planar.R1[:] = np.eye(2)
        for i in range(1, 13):
            planar.F[i, :i] = [[0.4, 0.1], [0.0, 0.3]]
        problems = [dl.preset_problem(name, 16) for name in dl.PRESET_NAMES]
        for p in problems + [planar]:
            vp = dl.build_volterra(p)
            U = loop_oracles.dense_selector(vp)
            A = loop_oracles.dense_lifted_kernel(U, vp.Acal)
            cols = vp.lifted_columns()
            for l in range(p.grid.N + 1):
                col = cols[l:, l, :, :p.n]
                np.testing.assert_array_equal(col, U[l:, l])
                np.testing.assert_array_equal(
                    np.einsum("rab,bc->rac", col, vp.Acal[l]), A[l:, l])

    def test_delay_indicator_boundary_is_strict(self):
        p = dl.preset_problem("full", 16)
        vp = dl.build_volterra(p)
        A = dl.lifted_kernel(vp, vp.Acal)
        n, k = p.n, p.grid.delay_steps
        i = 2 * k  # i - j = k exactly at j = k
        assert np.abs(A[i, k, n:2 * n, :]).max() == 0.0
        assert np.abs(A[i, k - 1, n:2 * n, :]).max() > 0.0

    def test_control_kernel_reconstructs_from_selector_blocks(self):
        # the averaged-selector pairing must rebuild B exactly; this is
        # the identity every regrouped evaluator relies on
        p = dl.preset_problem("full", 16)
        vp = dl.build_volterra(p)
        dt, N = p.grid.dt, p.grid.N
        B = vp.lifted_columns()[..., p.n:]
        worst = 0.0
        for t in range(N):
            for s in range(t + 1, N + 1):
                acc = np.zeros((3 * p.n, p.m))
                for th in range(t + 1, s + 1):
                    acc += pi_matrix(vp, s, t, th) @ bcal(vp, th, t) * dt
                worst = max(worst, np.abs(acc - B[s, t]).max())
        assert worst < 1e-13

    def test_selector_first_block_is_identity(self):
        p = dl.preset_problem("full", 16)
        vp = dl.build_volterra(p)
        n = p.n
        eye = np.eye(n)
        for j in range(17):
            for col in loop_oracles.selector(vp, j):
                np.testing.assert_array_equal(col[:n, :], eye)

    def test_diagonal_carries_limiting_values(self):
        p = dl.preset_problem("full", 16)
        vp = dl.build_volterra(p)
        A = dl.lifted_kernel(vp, vp.Acal)
        n = p.n
        for i in (0, 5, 16):
            B = vp.lifted_columns(i, i + 1)[0, 0, :, n:]
            np.testing.assert_allclose(B[:n, :], p.B1[i], atol=1e-15)
            assert np.abs(B[n:, :]).max() == 0.0
            np.testing.assert_allclose(A[i, i, :n, :], vp.Acal[i], atol=1e-15)
            assert np.abs(A[i, i, n:, :]).max() == 0.0


@pytest.mark.parametrize("macs", [2 ** 17, 420, 200, 64, 16])
def test_node_row_products_cover_every_call_split(monkeypatch, macs):
    # 5 node blocks of 3 rows against 7 columns (210 multiply-adds a
    # block): the tail call alone, node blocks in pairs plus a tail, one
    # block a call, and past twice the bound B's columns in chunks of 2
    # (the last one short) and of 1
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((15, 10)), rng.standard_normal((10, 7))
    monkeypatch.setattr(volterra, "_CALL_MACS", macs)
    np.testing.assert_allclose(volterra._by_node_rows(A, B, 3), A @ B,
                               rtol=1e-13, atol=1e-13)



@pytest.mark.parametrize("upper", [True, False])
@pytest.mark.parametrize("macs", [2 ** 17, 60, 12, 8])
def test_triangle_products_cover_every_split(monkeypatch, macs, upper):
    # the dense reference the blocked products are pinned to: 5 nodes of
    # 3 x 2 blocks, zero on one side of the block diagonal, against 4
    # columns (24 multiply-adds a node block): one whole call, halving
    # down to ranges of 2 or 3 nodes, down to single nodes that fit the
    # bound, and single nodes past it, which go whole
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5, 3, 2))
    i, j = np.indices((5, 5))
    A[(i > j) if upper else (i < j)] = 0.0
    A = A.transpose(0, 2, 1, 3).reshape(15, 10)
    B = rng.standard_normal((10, 4))
    monkeypatch.setattr(volterra, "_CALL_MACS", macs)
    np.testing.assert_allclose(loop_oracles.by_triangle(A, B, 3, 2, upper),
                               A @ B, rtol=1e-13, atol=1e-13)

class TestLiftAndCost:
    def test_zero_memory_kernel_gives_zero_third_block(self):
        p = dl.preset_problem("pointwise", 16)
        x = np.ones((17, 1))
        X = dl.lift_state(x, p)
        assert np.abs(X[:, 2]).max() == 0.0

    def test_window_lookup_matches_initial_trajectory(self):
        p = dl.preset_problem("pointwise", 16)  # ramp window
        x = np.ones((17, 1))
        X = dl.lift_state(x, p)
        k = p.grid.delay_steps
        for j in range(k + 1):
            assert X[j, 1] == p.xi[j, 0]
        assert X[k + 1, 1] == x[1, 0]

    def test_constant_state_unit_kernel_quadrature_is_exact(self):
        g = scalar_grid(16)
        p = dl.empty_problem(g, 1, 1)
        p.Q1[:] = 1.0
        p.R1[:] = 1.0
        for i in range(1, 17):
            p.F[i, :i] = 1.0
        x = np.ones((17, 1))
        X = dl.lift_state(x, p)
        for j in range(17):
            assert X[j, 2] == pytest.approx(j * g.dt, abs=1e-14)

    def test_cost_of_zeros_is_zero(self):
        p = dl.preset_problem("tanh", 16)
        vp = dl.build_volterra(p)
        assert dl.cost_volterra(np.zeros((17, 3)), np.zeros((17, 1)), vp) == 0.0

    def test_constant_integrand_cost(self):
        g = scalar_grid(16)
        p = dl.empty_problem(g, 1, 1)
        p.Q1[:] = 1.0
        p.R1[:] = 1.0
        vp = dl.build_volterra(p)
        X = np.zeros((17, 3))
        X[:, 0] = 1.0
        u = np.ones((17, 1))
        assert dl.cost_volterra(X, u, vp) == pytest.approx(2.0, abs=1e-14)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**30),
           name=st.sampled_from(dl.PRESET_NAMES))
    def test_cost_bridge_against_simulator(self, seed, name):
        p = dl.preset_problem(name, 16)
        vp = dl.build_volterra(p)
        batch = dl.gen_brownian(p.grid, 3, seed)
        u = np.random.default_rng(seed).standard_normal((3, 17, 1))
        sim = dl.simulate_open_loop(p, u, batch)
        for q in range(3):
            X = dl.lift_state(sim.x[q], p)
            lifted = dl.cost_volterra(X, sim.u[q], vp)
            original = float(sim.cost_samples[q])
            assert lifted == pytest.approx(original, rel=1e-10, abs=1e-12)

    def test_build_is_linear_in_free_data(self):
        base = dl.preset_problem("full", 12)
        vp0 = dl.build_volterra(base)
        import dataclasses
        doubled = dataclasses.replace(
            base, b=2 * base.b, sigma=2 * base.sigma,
            xi=2 * base.xi, varsigma=2 * base.varsigma)
        vp2 = dl.build_volterra(doubled)
        np.testing.assert_allclose(vp2.phi, 2 * vp0.phi, atol=1e-13)
        np.testing.assert_allclose(dl.lifted_kernel(vp2, doubled.b),
                                   2 * dl.lifted_kernel(vp0, base.b),
                                   atol=1e-13)
        np.testing.assert_allclose(dl.lifted_kernel(vp2, doubled.sigma),
                                   2 * dl.lifted_kernel(vp0, base.sigma),
                                   atol=1e-13)
        np.testing.assert_array_equal(dl.lifted_kernel(vp2, vp2.Acal),
                                      dl.lifted_kernel(vp0, vp0.Acal))

    def test_invalid_problem_rejected(self):
        p = dl.preset_problem("tanh", 16)
        p.R1[:] = 0.0
        with pytest.raises(dl.ProblemValidationError):
            dl.build_volterra(p)
