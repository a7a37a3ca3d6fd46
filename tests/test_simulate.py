"""Simulator: scheme exactness, reproducibility, MC statistics, CRN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaylq as dl
from delaylq.simulate import default_direction_scale
from evaluators import scaled


def scalar_grid(N=20):
    return dl.TimeGrid(0.0, 1.0, N, 0.25)


class TestBrownian:
    def test_same_seed_is_bitwise_identical(self):
        g = scalar_grid()
        a = dl.gen_brownian(g, 16, seed=123)
        b = dl.gen_brownian(g, 16, seed=123)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_path_streams_do_not_depend_on_batch_size(self):
        g = scalar_grid()
        small = dl.gen_brownian(g, 4, seed=9)
        big = dl.gen_brownian(g, 64, seed=9)
        np.testing.assert_array_equal(small.increments, big.increments[:4])

    def test_moments(self):
        g = scalar_grid()
        batch = dl.gen_brownian(g, 5000, seed=77)
        draws = batch.increments.ravel()
        se = np.sqrt(g.dt / draws.size)
        assert abs(draws.mean()) < 4 * se
        assert abs(draws.var() - g.dt) < 0.05 * g.dt

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            dl.gen_brownian(scalar_grid(), 0, seed=1)


class TestOpenLoop:
    def test_frozen_dynamics_keep_initial_state(self):
        p = dl.empty_problem(scalar_grid(), 1, 1)
        p.R1[:] = 1.0
        p.xi[:] = 2.5
        batch = dl.gen_brownian(p.grid, 4, seed=3)
        sim = dl.simulate_open_loop(p, np.zeros((21, 1)), batch)
        np.testing.assert_array_equal(sim.x, 2.5 * np.ones_like(sim.x))

    def test_exponential_growth_matches_euler_product(self):
        N = 50
        p = dl.empty_problem(dl.TimeGrid(0.0, 1.0, N, 0.25), 1, 1)
        p.R1[:] = 1.0
        p.A1[:] = 1.0
        p.xi[:] = 1.0
        batch = dl.gen_brownian(p.grid, 1, seed=3)
        sim = dl.simulate_open_loop(p, np.zeros((N + 1, 1)), batch)
        assert sim.x[0, N, 0] == pytest.approx((1 + 1 / N) ** N, rel=1e-12)
        assert abs(sim.x[0, N, 0] - np.e) < 3.0 / N

    def test_delayed_drift_uses_window_before_one_delay(self):
        p = dl.empty_problem(scalar_grid(), 1, 1)
        p.R1[:] = 1.0
        p.A2[:] = 1.0
        p.xi[:] = 1.0
        batch = dl.gen_brownian(p.grid, 1, seed=3)
        sim = dl.simulate_open_loop(p, np.zeros((21, 1)), batch)
        k, dt = p.grid.delay_steps, p.grid.dt
        for j in range(k + 1):
            assert sim.x[0, j, 0] == pytest.approx(1.0 + j * dt, abs=1e-14)

    def test_blowup_paths_are_flagged_and_excluded(self):
        p = dl.empty_problem(scalar_grid(), 1, 1)
        p.R1[:] = 1.0
        p.A1[:] = 5000.0
        p.xi[:] = 1.0
        batch = dl.gen_brownian(p.grid, 3, seed=4)
        sim = dl.simulate_open_loop(p, np.zeros((21, 1)), batch)
        assert sim.flagged.all()
        est = dl.estimate_cost(sim)
        assert est.n_paths == 0
        assert est.n_flagged == 3


class TestClosedLoop:
    def test_zero_strategy_zero_data(self):
        p = dl.empty_problem(scalar_grid(), 1, 1)
        p.R1[:] = 1.0
        p.xi[:] = 1.0
        nn = 21
        strat = dl.FeedbackStrategy(
            k1=np.zeros((nn, 1, 1)), k2=np.zeros((nn, nn, 1, 1)),
            k3=np.zeros((nn, 1, 1)), k4=np.zeros((nn, nn, 1, 1)),
            v=np.zeros((nn, 1)))
        batch = dl.gen_brownian(p.grid, 2, seed=5)
        sim = dl.simulate_closed_loop(p, strat, batch)
        assert np.abs(sim.u).max() == 0.0
        np.testing.assert_array_equal(sim.x, np.ones_like(sim.x))

    def test_replay_through_open_loop_is_exact(self, solve_preset):
        s = solve_preset("full", 20)
        batch = dl.gen_brownian(s.problem.grid, 6, seed=5)
        cl = dl.simulate_closed_loop(s.problem, s.strategy, batch)
        re = dl.simulate_open_loop(s.problem, cl.u, batch)
        assert np.abs(re.x - cl.x).max() < 1e-12

    def test_control_is_adapted(self, solve_preset):
        s = solve_preset("full", 20)
        batch = dl.gen_brownian(s.problem.grid, 4, seed=6)
        cl = dl.simulate_closed_loop(s.problem, s.strategy, batch)
        cut = 8
        tweaked = dl.BrownianBatch(
            seed=0, n_paths=4,
            increments=np.concatenate(
                [batch.increments[:, :cut],
                 batch.increments[:, cut:] + 7.0], axis=1))
        cl2 = dl.simulate_closed_loop(s.problem, s.strategy, tweaked)
        assert np.abs(cl2.u[:, :cut + 1] - cl.u[:, :cut + 1]).max() == 0.0
        assert np.abs(cl2.u[:, cut + 1:] - cl.u[:, cut + 1:]).max() > 0.0

    def test_delay_free_closed_loop_matches_classical_simulation(self):
        # classical gains from the RK4 oracle driven through the same
        # stepper on common noise: pathwise agreement at first order
        from delaylq import oracles
        errs = {}
        for N in (40, 80):
            p = dl.preset_problem("tanh", N)
            vp = dl.build_volterra(p)
            P = dl.solve_riccati(vp)
            strat = dl.synthesize_feedback(P, vp)
            oracle = oracles.classical_riccati(p)
            k1o, vo = oracles.classical_gains(p, oracle)
            nn = N + 1
            strat_o = dl.FeedbackStrategy(
                k1=k1o, k2=np.zeros((nn, nn, 1, 1)),
                k3=np.zeros((nn, 1, 1)), k4=np.zeros((nn, nn, 1, 1)), v=vo)
            batch = dl.gen_brownian(p.grid, 8, seed=21)
            a = dl.simulate_closed_loop(p, strat, batch)
            b = dl.simulate_closed_loop(p, strat_o, batch)
            errs[N] = np.abs(a.x - b.x).max()
        assert errs[40] < 0.05
        assert errs[80] < 0.7 * errs[40]


class TestCostEstimate:
    def test_zero_paths_of_zero(self):
        p = dl.empty_problem(scalar_grid(), 1, 1)
        p.R1[:] = 1.0
        batch = dl.gen_brownian(p.grid, 4, seed=5)
        sim = dl.simulate_open_loop(p, np.zeros((21, 1)), batch)
        est = dl.estimate_cost(sim)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_constant_integrand(self):
        p = dl.empty_problem(scalar_grid(), 1, 1)
        p.R1[:] = 1.0
        p.Q1[:] = 1.0
        p.xi[:] = 1.0
        batch = dl.gen_brownian(p.grid, 2, seed=5)
        sim = dl.simulate_open_loop(p, np.zeros((21, 1)), batch)
        est = dl.estimate_cost(sim)
        assert est.mean == pytest.approx(1.0, abs=1e-13)
        assert est.stderr == 0.0

    def test_deterministic_problem_has_zero_stderr(self, solve_preset):
        s = solve_preset("input-delay", 20)
        batch = dl.gen_brownian(s.problem.grid, 16, seed=5)
        sim = dl.simulate_closed_loop(s.problem, s.strategy, batch)
        est = dl.estimate_cost(sim)
        assert est.stderr == 0.0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**30))
    def test_bridge_identity_per_path(self, seed):
        p = dl.preset_problem("full", 16)
        vp = dl.build_volterra(p)
        batch = dl.gen_brownian(p.grid, 2, seed)
        u = np.random.default_rng(seed).standard_normal((2, 17, 1))
        sim = dl.simulate_open_loop(p, u, batch)
        for q in range(2):
            X = dl.lift_state(sim.x[q], p)
            assert dl.cost_volterra(X, sim.u[q], vp) == pytest.approx(
                float(sim.cost_samples[q]), rel=1e-10)


class TestStationarity:
    def test_zero_strategy_on_zero_data_has_zero_derivative(self):
        p = dl.empty_problem(scalar_grid(), 1, 1)
        p.R1[:] = 0.0
        p.R2[:] = 0.0
        # zero weights: direct simulation calls only, no validation
        nn = 21
        strat = dl.FeedbackStrategy(
            k1=np.zeros((nn, 1, 1)), k2=np.zeros((nn, nn, 1, 1)),
            k3=np.zeros((nn, 1, 1)), k4=np.zeros((nn, nn, 1, 1)),
            v=np.zeros((nn, 1)))
        batch = dl.gen_brownian(p.grid, 8, seed=2)
        w = np.ones((nn, 1))
        [der] = dl.stationarity_test(p, strat, w[None], batch)
        assert der.estimate == 0.0
        assert der.stderr == 0.0

    def test_step_is_sized_from_the_unflagged_paths(self, solve_preset):
        # the tanh feedback under C1 = 25 blows up most paths; their
        # controls, up to 1e18, once set a step that flagged every run
        strat = solve_preset("tanh", 40).strategy
        p = dl.preset_problem("tanh", 40)
        p.C1[:] = 25.0
        batch = dl.gen_brownian(p.grid, 200, seed=0)
        base = dl.simulate_closed_loop(p, strat, batch)
        good = ~base.flagged
        assert 0 < good.sum() < 100
        w = np.zeros((1, p.grid.N + 1, 1))
        w[0, :p.grid.N] = 1.0
        [der] = dl.stationarity_test(p, strat, w, batch)
        assert der.eps == 1e-3 * default_direction_scale(base.u[good])
        assert der.n_paths > 0
        assert np.isfinite(der.estimate)

    def test_step_scale_without_paths_is_one(self):
        assert default_direction_scale(np.zeros((0, 21, 1))) == 1.0

    def test_optimum_passes_detuned_fails(self, solve_preset):
        s = solve_preset("full", 32)
        g = s.problem.grid
        batch = dl.gen_brownian(g, 2000, seed=31)
        rng = np.random.default_rng(17)
        slack = 10.0 * g.dt
        detuned = scaled(s.strategy, 1.5)
        ws = []
        for _ in range(6):
            w = rng.standard_normal((g.N + 1, 1))
            w[g.N] = 0.0
            w /= np.sqrt((w[:g.N] ** 2).sum() * g.dt)
            ws.append(w)
        n_pass = sum(der.passes(slack) for der in
                     dl.stationarity_test(s.problem, s.strategy, ws, batch))
        n_fail = sum(not der.passes(slack) for der in
                     dl.stationarity_test(s.problem, detuned, ws, batch))
        assert n_pass >= 5
        assert n_fail >= 1

    def test_common_random_numbers_shrink_the_stderr(self, solve_preset):
        # paired differencing vs independent-noise differencing of the
        # same two cost evaluations
        s = solve_preset("full", 20)
        g = s.problem.grid
        n_paths, eps = 400, 1e-2
        w = np.ones((g.N + 1, 1))
        batch = dl.gen_brownian(g, n_paths, seed=8)
        base = dl.simulate_closed_loop(s.problem, s.strategy, batch)
        up = dl.simulate_open_loop(s.problem, base.u + eps * w, batch)
        dn = dl.simulate_open_loop(s.problem, base.u - eps * w, batch)
        paired = (up.cost_samples - dn.cost_samples) / (2 * eps)
        other = dl.gen_brownian(g, n_paths, seed=9)
        base2 = dl.simulate_closed_loop(s.problem, s.strategy, other)
        dn_ind = dl.simulate_open_loop(s.problem, base2.u - eps * w, other)
        independent_var = (up.cost_samples.var(ddof=1)
                           + dn_ind.cost_samples.var(ddof=1)) / (2 * eps) ** 2
        assert paired.var(ddof=1) < 0.05 * independent_var

    def test_closed_loop_beats_zero_control_and_perturbations(self, solve_preset):
        s = solve_preset("full", 20)
        g = s.problem.grid
        batch = dl.gen_brownian(g, 3000, seed=14)
        cl = dl.simulate_closed_loop(s.problem, s.strategy, batch)
        est_cl = dl.estimate_cost(cl)
        zero = dl.simulate_open_loop(s.problem,
                                     np.zeros((g.N + 1, 1)), batch)
        est_zero = dl.estimate_cost(zero)
        assert est_cl.mean <= est_zero.mean + 3 * (est_cl.stderr
                                                   + est_zero.stderr)
        rng = np.random.default_rng(4)
        for _ in range(3):
            w = 0.2 * rng.standard_normal((g.N + 1, 1))
            pert = dl.simulate_open_loop(s.problem, cl.u + w, batch)
            est_p = dl.estimate_cost(pert)
            assert est_cl.mean <= est_p.mean + 3 * (est_cl.stderr
                                                    + est_p.stderr)

    def test_value_dominates_suboptimal_controls(self, solve_preset):
        s = solve_preset("pointwise", 20)
        v0 = dl.value_function(s.P, s.vp)
        batch = dl.gen_brownian(s.problem.grid, 4000, seed=12)
        zero = dl.simulate_open_loop(
            s.problem, np.zeros((s.problem.grid.N + 1, 1)), batch)
        est_zero = dl.estimate_cost(zero)
        assert v0 <= est_zero.mean + 3 * est_zero.stderr
        detuned = scaled(s.strategy, 1.7)
        sub = dl.simulate_closed_loop(s.problem, detuned, batch)
        est_sub = dl.estimate_cost(sub)
        assert v0 <= est_sub.mean + 3 * est_sub.stderr
