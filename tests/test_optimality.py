"""Whole-pipeline optimality against the exact discrete QP minimizer.

Any error in the lifted kernels, the free term, the backward sweeps, or
the gain/offset assembly shows up here as a cost gap above the exact
convex minimum of the same discretized problem, so these are the
sharpest end-to-end checks in the suite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import delaylq as dl
from delaylq import oracles


def windowed_deterministic(N):
    """Every channel active: both pointwise delays, both memory kernels,
    free drift, ramp state window, decaying control window."""
    g = dl.TimeGrid(0.0, 1.0, N, 0.25)
    p = dl.empty_problem(g, 1, 1)
    k = g.delay_steps
    p.A1[:] = -0.3
    p.A2[:] = 0.4
    p.A3[:] = 0.3
    p.B1[:] = 1.0
    p.B2[:] = 0.7
    p.B3[:] = 0.3
    p.Q1[:] = 1.5
    p.Q2[:] = 0.4
    p.Q3[:] = 0.3
    p.R1[:] = 1.0
    p.R2[:] = 0.4
    p.b[:] = 0.15
    nodes = g.nodes()
    for i in range(1, N + 1):
        gap = nodes[i] - nodes[:i]
        p.F[i, :i] = (0.5 * np.exp(-gap) * (1 + 0.3 * nodes[:i]))[:, None, None]
        p.Ftilde[i, :i] = (0.4 * np.exp(-0.5 * gap))[:, None, None]
    p.xi[:] = (1.0 + 0.6 * np.arange(k + 1) / k)[:, None]
    p.varsigma[:] = (0.3 - 0.2 * np.arange(k) / k)[:, None]
    return p


def closed_loop_gap(p):
    vp = dl.build_volterra(p)
    P = dl.solve_riccati(vp)
    strat = dl.synthesize_feedback(P, vp)
    qp = oracles.deterministic_qp_oracle(p)
    batch = dl.BrownianBatch(seed=0, n_paths=1,
                             increments=np.zeros((1, p.grid.N)))
    cl = float(dl.simulate_closed_loop(p, strat, batch).cost_samples[0])
    return (cl - qp.cost_opt) / abs(qp.cost_opt)


def test_all_channels_active_gap_shrinks_quadratically():
    gaps = {N: closed_loop_gap(windowed_deterministic(N)) for N in (40, 80)}
    assert -1e-12 <= gaps[40] <= 1e-2
    assert gaps[80] <= 0.4 * gaps[40]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**30))
def test_randomized_deterministic_problems_are_solved_to_optimality(seed):
    rng = np.random.default_rng(seed)
    N = 24
    g = dl.TimeGrid(0.0, 1.0, N, 0.25)
    p = dl.empty_problem(g, 1, 1)
    k = g.delay_steps

    def coef(scale):
        return float(rng.uniform(-scale, scale))

    p.A1[:] = coef(0.6)
    p.A2[:] = coef(0.6)
    p.A3[:] = coef(0.6)
    p.B1[:] = coef(1.0)
    p.B2[:] = coef(1.0)
    p.B3[:] = coef(0.5)
    p.Q1[:] = float(rng.uniform(0.0, 2.0))
    p.Q2[:] = float(rng.uniform(0.0, 1.0))
    p.Q3[:] = float(rng.uniform(0.0, 1.0))
    p.R1[:] = 1.0
    p.R2[:] = float(rng.uniform(0.0, 0.5))
    p.b[:] = coef(0.3)
    for i in range(1, N + 1):
        p.F[i, :i] = coef(0.6)
        p.Ftilde[i, :i] = coef(0.6)
    p.xi[:] = rng.uniform(-1.5, 1.5, (k + 1, 1))
    p.varsigma[:] = rng.uniform(-0.5, 0.5, (k, 1))
    assert dl.validate(p).ok

    gap = closed_loop_gap(p)
    assert -1e-10 <= gap <= 5.0 / N
