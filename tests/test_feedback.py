"""Adjoint sweep, causal gains, strategy synthesis, value function."""

import tracemalloc

import numpy as np
import pytest

import delaylq as dl
from delaylq import oracles
from evaluators import bcal, g3
from loop_oracles import causal_gains, selector


def with_free_terms(name, N, b=0.3, sigma=0.4):
    p = dl.preset_problem(name, N)
    p.b[:] = b
    p.sigma[:] = sigma
    return p


def solve(problem):
    vp = dl.build_volterra(problem)
    P = dl.solve_riccati(vp)
    strat = dl.synthesize_feedback(P, vp)
    return vp, P, strat


class TestCausalGains:
    def test_zero_solution_gives_zero_gains(self):
        g = dl.TimeGrid(0.0, 1.0, 12, 0.25)
        p = dl.empty_problem(g, 1, 1)
        p.R1[:] = 1.0
        p.A1[:] = 0.5
        p.C1[:] = 0.2
        p.D1[:] = 0.1
        vp = dl.build_volterra(p)
        P = dl.solve_riccati(vp)
        gains = causal_gains(P, vp)
        assert np.abs(gains.Xi).max() == 0.0
        assert np.abs(gains.Gamma).max() == 0.0

    def test_pointwise_gain_identity_holds_by_construction(self, solve_preset):
        s = solve_preset("full", 16)
        gains = causal_gains(s.P, s.vp)
        for t in (0, 7, 16):
            expected = -s.P.rcal_inv[t] @ (
                s.problem.D1[t].T @ s.P.g1_table[t] @ s.vp.Ccal[t])
            np.testing.assert_array_equal(gains.Xi[t], expected)

    def test_history_gain_is_the_star_product(self, solve_preset):
        s = solve_preset("full", 16)
        gains = causal_gains(s.P, s.vp)
        for (sb, t) in [(9, 2), (16, 0), (4, 3)]:
            expected = -s.P.rcal_inv[t] @ s.P.pb[sb, t].T
            np.testing.assert_allclose(gains.Gamma[sb, t], expected,
                                       atol=1e-15)

    def test_delay_free_reduction_concentrates_on_first_block(self, solve_preset):
        s = solve_preset("tanh", 24)
        gains = causal_gains(s.P, s.vp)
        n = s.problem.n
        assert np.abs(gains.Xi).max() == 0.0      # D1 = 0 on this preset
        assert np.abs(gains.Gamma[:, :, :, n:]).max() == 0.0


class TestAdjoint:
    def test_zero_free_terms_give_zero_adjoint(self, solve_preset):
        s = solve_preset("pointwise", 16)
        assert np.abs(s.P.eta1).max() == 0.0
        assert np.abs(s.P.omega).max() == 0.0

    def test_adjoint_is_linear_in_free_terms(self):
        p1 = with_free_terms("pointwise", 16, b=0.3, sigma=0.4)
        p2 = with_free_terms("pointwise", 16, b=0.6, sigma=0.8)
        _, a1, _ = solve(p1)
        _, a2, _ = solve(p2)
        np.testing.assert_allclose(a2.eta1, 2.0 * a1.eta1, atol=1e-13)
        np.testing.assert_allclose(a2.omega, 2.0 * a1.omega, atol=1e-13)

    def test_delay_free_offset_matches_classical_pair(self):
        # the no-delay reduction with deterministic free terms: compare
        # the synthesized offset against the RK4 oracle offset
        errs = {}
        for N in (40, 80):
            p = with_free_terms("tanh", N)
            p.C1[:] = 0.3
            p.D1[:] = 0.2
            _, _, strat = solve(p)
            oracle = oracles.classical_riccati(p)
            _, v_oracle = oracles.classical_gains(p, oracle)
            errs[N] = np.abs(strat.v - v_oracle).max()
        assert errs[40] < 0.05
        assert errs[80] < 0.6 * errs[40]


class TestSynthesis:
    def test_zero_data_strategy_vanishes(self):
        g = dl.TimeGrid(0.0, 1.0, 12, 0.25)
        p = dl.empty_problem(g, 1, 1)
        p.R1[:] = 1.0
        p.A1[:] = 0.4
        p.B1[:] = 1.0
        _, _, strat = solve(p)
        for arr in (strat.k1, strat.k2, strat.k3, strat.k4, strat.v):
            assert np.abs(arr).max() == 0.0

    def test_gains_invariant_under_weight_scaling(self, solve_preset):
        base = solve_preset("full", 16)
        scaled = solve_preset("full", 16, 3.0)
        for name in ("k1", "k2", "k3", "k4", "v"):
            a = getattr(base.strategy, name)
            b = getattr(scaled.strategy, name)
            scale = max(np.abs(a).max(), 1e-30)
            assert np.abs(a - b).max() / scale < 1e-10

    def test_delay_free_strategy_matches_classical_gain(self):
        errs = {}
        for N in (40, 80):
            p = dl.preset_problem("tanh", N)
            _, _, strat = solve(p)
            oracle = oracles.classical_riccati(p)
            k1o, _ = oracles.classical_gains(p, oracle)
            errs[N] = np.abs(strat.k1 - k1o).max()
            assert np.abs(strat.k2).max() == 0.0
            assert np.abs(strat.k3).max() == 0.0
            assert np.abs(strat.k4).max() == 0.0
            assert np.abs(strat.v).max() == 0.0
        assert errs[80] < 0.7 * errs[40]

    def test_history_kernels_vanish_on_or_after_diagonal(self, solve_preset):
        s = solve_preset("full", 16)
        nn = s.problem.grid.N + 1
        ii, jj = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
        mask = jj >= ii
        assert np.abs(s.strategy.k2[mask]).max() == 0.0
        assert np.abs(s.strategy.k4[mask]).max() == 0.0

    def test_offset_window_support(self, solve_preset):
        # zero free terms: the offset lives only on [t0, t0+delta]
        s = solve_preset("pointwise", 20)
        k = s.problem.grid.delay_steps
        assert np.abs(s.strategy.v[k + 1:]).max() == 0.0
        assert np.abs(s.strategy.v[:k]).max() > 0.0

    def test_k1_matches_double_integral_form(self, solve_preset):
        # the pointwise gain re-derived through the two-time evaluator
        s = solve_preset("full", 12)
        vp, P, problem = s.vp, s.P, s.problem
        N, dt = vp.grid.N, vp.grid.dt
        for t in (0, 4, 9):
            acc = problem.D1[t].T @ P.g1_table[t] @ problem.C1[t]
            for th in range(t + 1, N + 1):
                for al in range(t + 1, N + 1):
                    acc = acc + (bcal(vp, th, t).T
                                 @ g3(P, vp, al, t, th).T
                                 @ selector(vp, t)[al - t]) * dt * dt
            k1_form = -P.rcal_inv[t] @ acc
            scale = max(np.abs(s.strategy.k1[t]).max(), 1e-12)
            assert np.abs(k1_form - s.strategy.k1[t]).max() / scale < 1e-10

    def test_synthesis_builds_no_lifted_columns(self, monkeypatch):
        # k1 comes from the synthesis' own suffix table, not from the
        # selector columns; N = 40 spans two of the synthesis' blocks
        vp = dl.build_volterra(dl.preset_problem("full", 40))
        P = dl.solve_riccati(vp)
        calls = []
        columns = dl.VolterraProblem.lifted_columns

        def counted(self, *args, **kwargs):
            calls.append(args)
            return columns(self, *args, **kwargs)

        monkeypatch.setattr(dl.VolterraProblem, "lifted_columns", counted)
        dl.synthesize_feedback(P, vp)
        assert calls == []

    def test_synthesis_peak_is_a_few_times_its_result(self, solve_preset):
        # the synthesis works a block of nodes at a time: beside its
        # results it holds the products' fixed operands (here the memory
        # column, half a history kernel) and one block's tables.  With
        # every table over the whole grid at once it peaks at 6.5x
        s = solve_preset("full", 240)
        tracemalloc.start()
        try:
            strat = dl.synthesize_feedback(s.P, s.vp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(getattr(strat, name).nbytes
                     for name in ("k1", "k2", "k3", "k4", "v"))
        assert peak <= 3 * result, (peak, result)

    def test_k4_matches_stacked_cumulative_form(self, solve_preset):
        # the distributed-control gain re-derived from the shifted-channel
        # stack and the memory cumulative, paired against the history gain
        s = solve_preset("full", 12)
        vp, P, problem = s.vp, s.P, s.problem
        g = problem.grid
        N, dt, k, n = g.N, g.dt, g.delay_steps, problem.n
        gains = causal_gains(P, vp)
        bf = np.einsum("tab,tsbm->tsam", problem.B3, problem.Ftilde)
        for (t, sarg) in [(5, 2), (9, 1), (11, 8)]:
            acc = np.zeros((problem.m, problem.m))
            cf = np.zeros((N + 1, n, problem.m))
            for th in range(t + 1, N + 1):
                cf[th] = cf[th - 1] + bf[th, sarg] * dt
            for al in range(t + 1, N + 1):
                stack = np.zeros((3 * n, problem.m))
                if (sarg >= t - k and sarg <= N - k and al > sarg + k):
                    block = np.zeros((3 * n, n))
                    block[:n] = np.eye(n)
                    if al > sarg + 2 * k:
                        block[n:2 * n] = np.eye(n)
                    block[2 * n:] = vp.E[al, sarg + k]
                    stack = stack + block @ problem.B2[sarg + k]
                mem = np.zeros((3 * n, problem.m))
                mem[:n] = cf[al]
                if al - k > t:
                    mem[n:2 * n] = cf[al - k]
                third = np.zeros((n, problem.m))
                for be in range(t + 1, al):
                    third = third + problem.F[al, be] @ cf[be] * dt
                mem[2 * n:] = third
                acc = acc + gains.Gamma[al, t] @ (stack + mem) * dt
            scale = max(np.abs(s.strategy.k4[t, sarg]).max(), 1e-12)
            assert np.abs(acc - s.strategy.k4[t, sarg]).max() / scale < 1e-10


class TestValueFunction:
    def test_zero_free_term_gives_zero_value(self):
        g = dl.TimeGrid(0.0, 1.0, 12, 0.25)
        p = dl.empty_problem(g, 1, 1)
        p.R1[:] = 1.0
        p.Q1[:] = 1.0
        p.A1[:] = -0.2
        vp = dl.build_volterra(p)
        P = dl.solve_riccati(vp)
        assert dl.value_function(P, vp) == 0.0

    def test_tanh_value_first_order(self):
        errs = {}
        for N in (40, 80):
            p = dl.preset_problem("tanh", N)
            vp = dl.build_volterra(p)
            errs[N] = abs(dl.value_function(dl.solve_riccati(vp), vp)
                          - np.tanh(1.0))
        assert errs[40] < 0.02
        assert 1.4 < errs[40] / errs[80] < 2.6

    def test_value_nonnegative_on_homogeneous_presets(self, solve_preset):
        for name in ("tanh", "input-delay", "state-delay", "distributed",
                     "pointwise"):
            s = solve_preset(name, 20)
            assert dl.value_function(s.P, s.vp) >= 0.0

    def test_rejects_inhomogeneous_problems(self):
        p = with_free_terms("tanh", 12)
        vp, P, _ = solve(p)
        with pytest.raises(dl.ProblemValidationError):
            dl.value_function(P, vp)
