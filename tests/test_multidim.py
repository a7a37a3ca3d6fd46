"""Non-scalar dimensions: every preset is scalar, so exercise n=2 here."""

import numpy as np
import pytest

import delaylq as dl
from delaylq import oracles


def planar_problem(N=24, m=2, diffusive=True):
    g = dl.TimeGrid(0.0, 1.0, N, 0.25)
    p = dl.empty_problem(g, 2, m)
    p.A1[:] = [[-0.4, 0.2], [0.1, -0.5]]
    p.A2[:] = [[0.2, 0.0], [0.1, 0.1]]
    p.A3[:] = [[0.1, 0.05], [0.0, 0.2]]
    p.B1[:] = np.ones((2, m)) * 0.8
    p.B2[:] = np.ones((2, m)) * 0.3
    p.B3[:] = [[0.2, 0.0], [0.1, 0.1]]
    if diffusive:
        p.C1[:] = [[0.2, 0.05], [0.0, 0.15]]
        p.C2[:] = [[0.1, 0.0], [0.05, 0.1]]
        p.C3[:] = [[0.05, 0.0], [0.0, 0.05]]
        p.D1[:] = np.ones((2, m)) * 0.15
        p.sigma[:] = [0.2, 0.1]
        p.b[:] = [0.1, 0.0]
    p.Q1[:] = [[1.0, 0.2], [0.2, 0.8]]
    p.Q2[:] = 0.3 * np.eye(2)
    p.Q3[:] = 0.2 * np.eye(2)
    p.R1[:] = np.eye(m)
    p.R2[:] = 0.2 * np.eye(m)
    for i in range(1, N + 1):
        for j in range(i):
            p.F[i, j] = (0.4 * np.exp(-(i - j) * g.dt)
                         * np.array([[1.0, 0.1], [0.0, 0.8]]))
            p.Ftilde[i, j] = 0.3 * np.ones((2, m))
    p.xi[:] = [1.0, -0.5]
    p.varsigma[:] = 0.1 * np.ones(m)
    return p


def pipeline(p):
    vp = dl.build_volterra(p)
    P = dl.solve_riccati(vp)
    adj = dl.solve_adjoint(P, vp, p)
    strat = dl.synthesize_feedback(P, adj, vp, p)
    return vp, P, adj, strat


@pytest.mark.parametrize("m", [1, 2])
def test_full_pipeline_with_planar_state(m):
    p = planar_problem(m=m)
    assert dl.validate(p).ok
    vp, P, adj, strat = pipeline(p)
    assert P.lambda_floor >= 0.5 * p.lam
    assert max(np.abs(sl - sl.transpose(1, 0, 3, 2)).max()
               for _, sl in P.replay()) == 0.0

    batch = dl.gen_brownian(p.grid, 4, seed=3)
    u = np.random.default_rng(1).standard_normal((4, p.grid.N + 1, m))
    sim = dl.simulate_open_loop(p, u, batch)
    for q in range(4):
        X = dl.lift_state(sim.x[q], sim.u[q], p)
        assert dl.cost_volterra(X, sim.u[q], vp) == pytest.approx(
            float(sim.cost_samples[q]), rel=1e-10)

    closed = dl.simulate_closed_loop(p, strat, batch)
    replay = dl.simulate_open_loop(p, closed.u, batch)
    assert np.abs(replay.x - closed.x).max() < 1e-12


def test_planar_deterministic_qp_gap():
    p = planar_problem(m=2, diffusive=False)
    vp, P, adj, strat = pipeline(p)
    qp = oracles.deterministic_qp_oracle(p)
    batch = dl.gen_brownian(p.grid, 1, seed=1)
    cl = float(dl.simulate_closed_loop(p, strat, batch).cost_samples[0])
    gap = (cl - qp.cost_opt) / abs(qp.cost_opt)
    assert -1e-12 <= gap <= 5.0 / p.grid.N


def test_planar_delay_free_matches_classical_oracle():
    g = dl.TimeGrid(0.0, 1.0, 40, 0.25)
    p = dl.empty_problem(g, 2, 2)
    p.A1[:] = [[-0.3, 0.2], [0.0, -0.4]]
    p.B1[:] = np.eye(2)
    p.C1[:] = [[0.2, 0.0], [0.1, 0.1]]
    p.D1[:] = 0.1 * np.eye(2)
    p.Q1[:] = [[1.0, 0.3], [0.3, 2.0]]
    p.R1[:] = np.eye(2)
    p.xi[:] = [1.0, -1.0]
    p.sigma[:] = [0.1, 0.2]
    p.b[:] = [0.05, 0.0]
    vp, P, adj, strat = pipeline(p)
    oracle = oracles.classical_riccati(p)
    k1o, vo = oracles.classical_gains(p, oracle)
    assert np.abs(strat.k1 - k1o).max() < 2.0 / g.N
    assert np.abs(strat.v - vo).max() < 2.0 / g.N
    assert np.abs(strat.k2).max() == 0.0
    assert np.abs(strat.k3).max() == 0.0
    assert np.abs(strat.k4).max() == 0.0


def test_planar_control_delay_reduction_residuals_halve():
    res = {}
    for N in (40, 80):
        g = dl.TimeGrid(0.0, 1.0, N, 0.25)
        p = dl.empty_problem(g, 2, 1)
        p.A1[:] = [[-0.3, 0.2], [0.1, -0.4]]
        p.B1[:] = [[1.0], [0.5]]
        p.B2[:] = [[0.6], [0.8]]
        p.C1[:] = [[0.2, 0.1], [0.0, 0.15]]
        p.D1[:] = [[0.2], [0.1]]
        p.Q1[:] = [[1.0, 0.3], [0.3, 0.8]]
        p.R1[:] = 1.0
        p.xi[:] = [1.0, -0.5]
        vp, P, adj, strat = pipeline(p)
        res[N] = oracles.casei_residual(oracles.casei_extract(P, vp), p)
    for field in ("ode", "transport1", "transport2"):
        ratio = getattr(res[40], field) / getattr(res[80], field)
        assert 1.3 < ratio < 2.7, (field, ratio)
    assert res[80].boundary < 1e-12


def planar_state_delay_problem(N):
    g = dl.TimeGrid(0.0, 1.0, N, 0.25)
    p = dl.empty_problem(g, 2, 2)
    p.A1[:] = [[-0.3, 0.2], [0.0, -0.4]]
    p.A2[:] = [[0.3, 0.1], [0.0, 0.2]]
    p.B1[:] = [[1.0, 0.0], [0.3, 0.8]]
    p.C1[:] = [[0.2, 0.0], [0.1, 0.1]]
    p.C2[:] = [[0.1, 0.05], [0.0, 0.1]]
    p.D1[:] = [[0.15, 0.0], [0.0, 0.1]]
    p.Q1[:] = [[1.0, 0.2], [0.2, 0.7]]
    p.R1[:] = np.eye(2)
    p.xi[:] = [1.0, -0.5]
    return p


def test_planar_state_delay_reduction_residuals_halve():
    res = {}
    for N in (40, 80):
        p = planar_state_delay_problem(N)
        vp, P, adj, strat = pipeline(p)
        res[N] = oracles.caseii_residual(oracles.caseii_extract(P, vp), p)
    for field in ("ode_late", "ode_early", "transport_early"):
        ratio = getattr(res[40], field) / getattr(res[80], field)
        assert 1.3 < ratio < 2.7, (field, ratio)
    assert res[80].diagonal < 1e-12
