"""The array forms of the case I and case II oracles against their loops."""

import numpy as np
import pytest

import delaylq as dl
from delaylq import oracles
import loop_oracles
from test_multidim import planar_state_delay_problem
from test_oracles import control_delay_preset


def planar_memory_problem(N):
    """n = m = 2 control delay with an active memory channel, a
    non-symmetric B3 (so B3 Ftilde and B3^T Ftilde differ) and a kernel
    Ftilde(theta, s) that does not split into a function of theta times
    a function of s."""
    g = dl.TimeGrid(0.0, 1.0, N, 0.25)
    p = dl.empty_problem(g, 2, 2)
    p.A1[:] = [[-0.3, 0.2], [0.1, -0.4]]
    p.B1[:] = [[1.0, 0.0], [0.5, 0.7]]
    p.B2[:] = [[0.6, 0.1], [0.2, 0.8]]
    p.B3[:] = [[0.3, 0.15], [-0.1, 0.2]]
    p.C1[:] = [[0.2, 0.1], [0.0, 0.15]]
    p.D1[:] = [[0.2, 0.0], [0.1, 0.1]]
    p.Q1[:] = [[1.0, 0.3], [0.3, 0.8]]
    p.R1[:] = np.eye(2)
    p.xi[:] = [1.0, -0.5]
    nodes = g.nodes()
    mix = np.array([[1.0, 0.3], [-0.2, 0.6]])
    for i in range(1, N + 1):
        # 1/(1 + theta - s) is not a product f(theta) g(s), so the sum of
        # G(theta)^T P(theta, beta)^T G(beta) differs from the one with P
        weight = 0.5 / (1.0 + nodes[i] - nodes[:i])
        p.Ftilde[i, :i] = weight[:, None, None] * mix
    return p


CASE_I = {
    "scalar": lambda: control_delay_preset(24),
    "scalar-memory": lambda: control_delay_preset(24, with_memory=True),
    "planar-memory": lambda: planar_memory_problem(16),
}

CASE_II = {
    "state-delay": lambda: dl.preset_problem("state-delay", 24),
    "planar": lambda: planar_state_delay_problem(24),
}


def solved(problem):
    vp = dl.build_volterra(problem)
    return vp, dl.solve_riccati(vp)


@pytest.mark.parametrize("case", sorted(CASE_I))
def test_case_i_matches_loops(case):
    p = CASE_I[case]()
    vp, P = solved(p)
    ext = oracles.casei_extract(P, vp)
    ref = loop_oracles.casei_extract(P, vp)
    for field in ("S0", "S1", "S2"):
        np.testing.assert_allclose(getattr(ext, field), getattr(ref, field),
                                   rtol=0, atol=1e-12, err_msg=field)
    N = p.grid.N
    for l in range(N + 1):
        for th in range(l, N + 1):
            np.testing.assert_allclose(ext.p1row[l, th], ref.p1script(l, th, l),
                                       rtol=0, atol=1e-12)
    assert np.abs(ext.p1row[np.tril_indices(N + 1, -1)]).max() == 0.0
    res = oracles.casei_residual(ext, p)
    res_ref = loop_oracles.casei_residual(ref, p)
    for field in ("ode", "transport1", "transport2", "boundary"):
        assert abs(getattr(res, field) - getattr(res_ref, field)) <= 1e-12, field


@pytest.mark.parametrize("case", sorted(CASE_II))
def test_case_ii_matches_loops(case):
    p = CASE_II[case]()
    vp, P = solved(p)
    P3c = oracles.caseii_extract(P, vp).P3c
    np.testing.assert_allclose(P3c, loop_oracles.loop_p3c(P, vp),
                               rtol=0, atol=1e-12)


def test_double_lag_swap_symmetry_with_non_symmetric_memory_input():
    # the control column is B3 Ftilde; reading B3^T Ftilde on one side
    # of S2 breaks this symmetry by about 1e-2 here
    p = planar_memory_problem(16)
    vp, P = solved(p)
    S2 = oracles.casei_extract(P, vp).S2
    assert np.abs(S2 - S2.transpose(0, 2, 1, 4, 3)).max() < 1e-12

