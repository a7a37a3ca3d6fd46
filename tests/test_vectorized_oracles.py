"""The array forms of the case I and case II oracles and of the feedback
synthesis against their loops, the Riccati residual and the case V/II
sandwich read off the sweep's tables against their replays, the stacked
Euler-Maruyama step and QP assembly against the step one coefficient at
a time, and the sweep and residual over blocks of nodes against their
per-node forms."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delaylq as dl
from delaylq import cli, oracles, riccati
from delaylq.problem import field_shapes
import loop_oracles
from evaluators import frontier, value_on_slice0
from test_multidim import planar_problem, planar_state_delay_problem
from strategies import admissible_problems, unsolvable_draw
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


def short_control_delay_problem(steps):
    """A case I problem on N = 8 with C1, D1 and the memory channel live
    and a delay of ``steps`` nodes: from steps = N - 1 on, the lag window
    of every node reaches past the horizon."""
    g = dl.TimeGrid(0.0, 1.0, 8, steps / 8)
    p = dl.empty_problem(g, 1, 1)
    for name, value in (("A1", -0.4), ("B1", 1.0), ("B2", 0.5), ("B3", 0.4),
                        ("C1", 0.2), ("D1", 0.2), ("Q1", 1.0), ("R1", 1.0)):
        getattr(p, name)[:] = value
    nodes = g.nodes()
    for i in range(1, g.N + 1):
        p.Ftilde[i, :i] = (0.3 / (1.0 + nodes[i] - nodes[:i]))[:, None, None]
    p.xi[:] = np.linspace(1.0, 1.4, g.delay_steps + 1)[:, None]
    return p


CASE_I = {
    "scalar": lambda: control_delay_preset(24),
    "scalar-memory": lambda: control_delay_preset(24, with_memory=True),
    "planar-memory": lambda: planar_memory_problem(16),
    **{f"delay-{steps}-of-8": (lambda steps=steps:
                               short_control_delay_problem(steps))
       for steps in (7, 8, 10)},
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


@pytest.mark.parametrize("case", sorted(CASE_I))
def test_case_i_replays_no_slice(case, monkeypatch):
    # the window sums come from the factor table: a replay, or its Euler
    # step, fails
    def refuse(*args, **kwargs):
        raise AssertionError("a slice was replayed")

    p = CASE_I[case]()
    vp, P = solved(p)
    monkeypatch.setattr(cli, "replay", refuse)
    monkeypatch.setattr(cli, "_euler", refuse)
    ext = oracles.casei_extract(P, vp)
    res = oracles.casei_residual(ext, p)
    assert all(np.isfinite(v) for v in vars(res).values())


@pytest.mark.parametrize("case", sorted(CASE_II))
def test_case_ii_matches_loops(case):
    p = CASE_II[case]()
    vp, P = solved(p)
    P3c = oracles.caseii_extract(P, vp).P3c
    np.testing.assert_allclose(P3c, loop_oracles.loop_p3c(P, vp),
                               rtol=0, atol=1e-12)


#: the case II problems the residual is pinned to its loop on, with the
#: relative gap allowed: n = 2 may group a product's sums differently
CASE_II_RESIDUAL = {
    "state-delay-40": (lambda: dl.preset_problem("state-delay", 40), 0.0),
    "state-delay-120": (lambda: dl.preset_problem("state-delay", 120), 0.0),
    "planar": (lambda: planar_state_delay_problem(24), 1e-15),
}


@pytest.mark.parametrize("case", sorted(CASE_II_RESIDUAL))
def test_case_ii_residual_matches_loop(case):
    make, rtol = CASE_II_RESIDUAL[case]
    p = make()
    vp, P = solved(p)
    ext = oracles.caseii_extract(P, vp)
    res = oracles.caseii_residual(ext, p)
    ref = loop_oracles.caseii_residual(ext, p)
    for field, want in vars(ref).items():
        assert abs(getattr(res, field) - want) <= rtol * abs(want), field


#: case V (tanh) and case II problems: the sandwich their checks once
#: summed from the replayed slices is the sweep's g1
CASE_G1 = {
    "tanh": lambda: dl.preset_problem("tanh", 24),
    "state-delay": lambda: dl.preset_problem("state-delay", 24),
    "planar-state-delay": lambda: planar_state_delay_problem(16),
}


@pytest.mark.parametrize("case", sorted(CASE_G1))
def test_case_sandwich_is_the_stored_g1(case):
    vp, P = solved(CASE_G1[case]())
    np.testing.assert_allclose(P.g1_table, loop_oracles.replayed_g1(P, vp),
                               rtol=0, atol=1e-14)


def test_double_lag_swap_symmetry_with_non_symmetric_memory_input():
    # the control column is B3 Ftilde; reading B3^T Ftilde on one side
    # of S2 breaks this symmetry by about 1e-2 here
    p = planar_memory_problem(16)
    vp, P = solved(p)
    S2 = oracles.casei_extract(P, vp).S2
    assert np.abs(S2 - S2.transpose(0, 2, 1, 4, 3)).max() < 1e-12



def scalar_all_channels_problem(delay):
    """Every coefficient, kernel and initial window nonzero on N = 8 with
    a delay at or beyond the horizon, so k >= N clamps every shifted
    index."""
    g = dl.TimeGrid(0.0, 1.0, 8, delay)
    p = dl.empty_problem(g, 1, 1)
    for name, value in (("A1", -0.4), ("A2", 0.3), ("A3", 0.2), ("B1", 1.0),
                        ("B2", 0.5), ("B3", 0.4), ("C1", 0.2), ("C2", 0.1),
                        ("C3", 0.1), ("D1", 0.2), ("Q1", 1.0), ("Q2", 0.3),
                        ("Q3", 0.2), ("R1", 1.0), ("R2", 0.3), ("b", 0.1),
                        ("sigma", 0.2)):
        getattr(p, name)[:] = value
    nodes = g.nodes()
    for i in range(1, g.N + 1):
        gap = nodes[i] - nodes[:i]
        p.F[i, :i] = (0.5 * np.exp(-gap))[:, None, None]
        p.Ftilde[i, :i] = (0.3 / (1.0 + gap))[:, None, None]
    p.xi[:] = np.linspace(1.0, 1.4, g.delay_steps + 1)[:, None]
    p.varsigma[:] = np.linspace(0.2, -0.1, g.delay_steps)[:, None]
    return p


SYNTHESIS = {
    **{name: (lambda name=name: dl.preset_problem(name, 24))
       for name in dl.PRESET_NAMES},
    "planar-memory": lambda: planar_memory_problem(16),
    "planar-m1": lambda: planar_problem(24, m=1),
    "planar-m2": lambda: planar_problem(24, m=2),
    "delay-at-horizon": lambda: scalar_all_channels_problem(1.0),
    "delay-past-horizon": lambda: scalar_all_channels_problem(1.5),
}


@pytest.mark.parametrize("case", sorted(SYNTHESIS))
def test_synthesis_matches_loops(case):
    p = SYNTHESIS[case]()
    vp, P = solved(p)
    strat = dl.synthesize_feedback(P, vp)
    k4, v = loop_oracles.synthesis_k4_v(P, vp, p)
    np.testing.assert_allclose(strat.k4, k4, rtol=0, atol=1e-12)
    np.testing.assert_allclose(strat.v, v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", sorted(SYNTHESIS))
def test_k2_matches_pair_loop(case):
    p = SYNTHESIS[case]()
    vp, P = solved(p)
    strat = dl.synthesize_feedback(P, vp)
    np.testing.assert_allclose(strat.k2, loop_oracles.synthesis_k2(P, vp, p),
                               rtol=0, atol=1e-12)


#: the presets and the three planar problems the selector is pinned on
SELECTOR = {
    **{name: (lambda name=name: dl.preset_problem(name, 16))
       for name in dl.PRESET_NAMES},
    "planar-m1": lambda: planar_problem(16, m=1),
    "planar-m2": lambda: planar_problem(16, m=2),
    "planar-state-delay": lambda: planar_state_delay_problem(16),
    "delay-past-horizon": lambda: scalar_all_channels_problem(1.5),
}


@pytest.mark.parametrize("case", sorted(SELECTOR))
def test_selector_columns_and_kernels_match_dense_table(case):
    p = SELECTOR[case]()
    vp = dl.build_volterra(p)
    U = loop_oracles.dense_selector(vp)
    cols = vp.lifted_columns()[..., :p.n]
    for l in range(p.grid.N + 1):
        col = cols[l:, l]
        np.testing.assert_array_equal(col, U[l:, l], err_msg=l)
    for row in (vp.Acal, vp.Ccal, p.D1, p.b, p.sigma):
        np.testing.assert_array_equal(dl.lifted_kernel(vp, row),
                                      loop_oracles.dense_lifted_kernel(U, row))


def assert_k1_matches_dense(p):
    # k1 is read off the suffix table i1grid, whose sequential sums over
    # the future index round apart from the dense contraction's
    vp, P = solved(p)
    got = dl.synthesize_feedback(P, vp).k1
    want = loop_oracles.dense_k1(P, vp)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("case", sorted(SYNTHESIS))
def test_k1_matches_dense_selector_sum(case):
    assert_k1_matches_dense(SYNTHESIS[case]())


@settings(max_examples=25, deadline=None)
@given(p=admissible_problems())
def test_k1_matches_dense_selector_sum_on_admissible_draws(p):
    assert_k1_matches_dense(p)


def assert_blocked_synthesis_matches_whole_grid(p, exact):
    # the synthesis a block of nodes at a time against every table over
    # all nodes at once: bit for bit, zero signs included, where the
    # blocks' BLAS calls are the whole grid's, else to 1e-12
    vp, P = solved(p)
    got = dl.synthesize_feedback(P, vp)
    want = loop_oracles.whole_grid_synthesis(P, vp)
    for name in ("k1", "k2", "k3", "k4", "v"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        if exact:
            assert a.tobytes() == b.tobytes(), name
        else:
            np.testing.assert_allclose(
                a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()),
                err_msg=name)


#: the problems the blocked synthesis is pinned bit for bit on: at N = 40
#: its blocks are [0, 32) and [32, 41)
BLOCKED_SYNTHESIS = {
    **{name: (lambda name=name: dl.preset_problem(name, 40))
       for name in dl.PRESET_NAMES},
    "planar-m2": lambda: planar_problem(40, m=2),
    "planar-memory": lambda: planar_memory_problem(40),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_SYNTHESIS))
def test_blocked_synthesis_is_the_whole_grid_bit_for_bit(case):
    assert_blocked_synthesis_matches_whole_grid(BLOCKED_SYNTHESIS[case](),
                                                exact=True)


@settings(max_examples=25, deadline=None)
@given(p=admissible_problems(), block=st.integers(1, 9))
def test_blocked_synthesis_matches_whole_grid_on_admissible_draws(p, block):
    # a _BLOCK of 1 to 4 makes blocks of 2 to 8 nodes, most with a short
    # last one; from 5 on one block holds every node of N <= 8; the draws'
    # delays reach k = N
    with mock.patch.object(riccati, "_BLOCK", block):
        if solvable(p):
            assert_blocked_synthesis_matches_whole_grid(p, exact=False)


#: the problems the sweep is pinned to the Euler sweep on
SWEEP = {
    **{f"{name}-{N}": (lambda name=name, N=N: dl.preset_problem(name, N))
       for name in dl.PRESET_NAMES for N in (24, 120)},
    "planar-m1": lambda: planar_problem(24, m=1),
    "planar-m2": lambda: planar_problem(24, m=2),
    "planar-state-delay": lambda: planar_state_delay_problem(24),
    "delay-at-horizon": lambda: scalar_all_channels_problem(1.0),
    "delay-past-horizon": lambda: scalar_all_channels_problem(1.5),
}


@pytest.mark.parametrize("case", sorted(SWEEP))
def test_sweep_matches_euler_sweep(case):
    # the border values H W and the control products against the sweep
    # that advanced every slice; above the diagonal its frontier held zeros
    vp, P = solved(SWEEP[case]())
    ref = loop_oracles.euler_sweep(vp)
    eta, ref["omega"] = loop_oracles.adjoint_sweep(vp, ref)
    ref["eta1"] = loop_oracles.pair_selector_sums(vp, eta)
    got = dict(vars(P), pb=loop_oracles.dense_factor(P)[1])
    for f in ("p1", "pb", "eta1", "omega", "g1_table", "rcal"):
        np.testing.assert_allclose(got[f], ref[f], rtol=0, atol=1e-12,
                                   err_msg=f)
    low = np.tril_indices(P.N + 1)
    np.testing.assert_allclose(frontier(P)[low], ref["frontier"][low],
                               rtol=0, atol=1e-12)


#: problems with the memory channel B3 Ftilde of the control kernel
MEMORY = {
    "distributed": lambda: dl.preset_problem("distributed", 24),
    "full": lambda: dl.preset_problem("full", 24),
    "planar-m2": lambda: planar_problem(24, m=2),
    "planar-memory": lambda: planar_memory_problem(16),
    "delay-at-horizon": lambda: scalar_all_channels_problem(1.0),
    "delay-past-horizon": lambda: scalar_all_channels_problem(1.5),
}


@pytest.mark.parametrize("case", sorted(MEMORY))
def test_memory_control_kernel_matches_loop(case):
    p = MEMORY[case]()
    assert p.has_memory
    vp = dl.build_volterra(p)
    rest = dl.build_volterra(dataclasses.replace(p, B3=np.zeros_like(p.B3)))
    np.testing.assert_allclose(vp.lifted_columns()[..., p.n:]
                               - rest.lifted_columns()[..., p.n:],
                               loop_oracles.memory_control_kernel(p, vp.E),
                               rtol=0, atol=1e-12)


RESIDUAL_PROFILES = ("pointwise_profile", "evolution_profile",
                     "boundary_profile")


@pytest.mark.parametrize("case", sorted(SWEEP))
def test_residual_matches_replay(case):
    # tanh and input-delay have Acal = Ccal = 0: their pointwise and
    # boundary lines are exact zeros, and the evolution line's maxima
    # fall on entries both forms compute alike
    vp, P = solved(SWEEP[case]())
    res = dl.riccati_residual(P, vp)
    ref = loop_oracles.riccati_residual(P, vp)
    exact = case.startswith(("tanh-", "input-delay-"))
    for field in RESIDUAL_PROFILES + ("rcal_identity",):
        got, want = getattr(res, field), getattr(ref, field)
        if exact:
            np.testing.assert_array_equal(got, want, err_msg=field)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=field)


@settings(max_examples=25, deadline=None)
@given(p=admissible_problems())
def test_tables_match_replay_on_admissible_draws(p):
    vp, P = solved(p)
    res = dl.riccati_residual(P, vp)
    ref = loop_oracles.riccati_residual(P, vp)
    for field in RESIDUAL_PROFILES:
        got, want = getattr(res, field), getattr(ref, field)
        assert (np.abs(got - want)
                <= 1e-12 * np.maximum(1.0, np.abs(want))).all(), field
    np.testing.assert_allclose(P.g1_table, loop_oracles.replayed_g1(P, vp),
                               rtol=0, atol=1e-12)


def without_diffusion(p):
    """The problem with C1, C2, C3, D1 and sigma zeroed: the QP oracle's."""
    return dataclasses.replace(p, **{nm: np.zeros_like(getattr(p, nm))
                                     for nm in oracles.QP_ORACLE.zero})


#: the problems the stacked Euler-Maruyama step is pinned to the step one
#: coefficient at a time on; k >= N clamps every shifted index
STEPPER = {
    "full": lambda: dl.preset_problem("full", 24),
    "input-delay": lambda: dl.preset_problem("input-delay", 24),
    "planar-m2": lambda: planar_problem(24, m=2),
    "delay-at-horizon": lambda: scalar_all_channels_problem(1.0),
    "delay-past-horizon": lambda: scalar_all_channels_problem(1.5),
}


def assert_runs_match(got, want):
    # relative to each array's max: the stacked products sum in another
    # order than the per-term einsums
    for field in ("x", "u", "cost_samples"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), field
    np.testing.assert_array_equal(got.flagged, want.flagged)


def assert_stepper_matches_loop(p, n_paths):
    vp, P = solved(p)
    strat = dl.synthesize_feedback(P, vp)
    batch = dl.gen_brownian(p.grid, n_paths, seed=11)
    assert_runs_match(dl.simulate_closed_loop(p, strat, batch),
                      loop_oracles.simulate_closed_loop(p, strat, batch))
    u = np.random.default_rng(5).standard_normal(
        (n_paths, p.grid.N + 1, p.m))
    assert_runs_match(dl.simulate_open_loop(p, u, batch),
                      loop_oracles.simulate_open_loop(p, u, batch))


@pytest.mark.parametrize("case", sorted(STEPPER))
def test_stepper_matches_loop(case):
    assert_stepper_matches_loop(STEPPER[case](), 8)


@settings(max_examples=10, deadline=None)
@given(p=admissible_problems())
def test_stepper_matches_loop_on_admissible_draws(p):
    assert_stepper_matches_loop(p, 4)


@pytest.mark.parametrize("case", sorted(STEPPER))
def test_qp_terms_match_loop(case):
    p = without_diffusion(STEPPER[case]())
    for got, want in zip(oracles._qp_terms(p), loop_oracles.qp_terms(p)):
        assert np.abs(np.subtract(got, want)).max() <= (
            1e-12 * np.abs(want).max())


def truncated(p, N):
    """p on its first N steps: the horizon moves to t_N, the step and the
    delay stay, so any N keeps the delay on the grid."""
    g = p.grid
    fields = {name: getattr(p, name)[tuple(slice(0, n) for n in shape)]
              for name, shape in field_shapes(p.n, p.m, N + 1,
                                              g.delay_steps).items()}
    return dl.DelayLQProblem(grid=dl.TimeGrid(g.t0, g.time(N), N, g.delay),
                             n=p.n, m=p.m, lam=p.lam, **fields)


def solvable(p):
    """Whether the per-node sweep solves p; where it stops, the blocked
    sweep must stop with the same message.  The explicit sweep can lose
    the effective control weight's definiteness on a draw whose weights
    meet ``admissible_problems``' bounds in continuous time
    (``unsolvable_draw``)."""
    vp = dl.build_volterra(p)
    try:
        loop_oracles.per_node_sweep(vp)
    except dl.NumericalError as ref:
        with pytest.raises(dl.NumericalError) as got:
            dl.solve_riccati(vp)
        assert str(got.value) == str(ref)
        return False
    return True


def assert_blocked_matches_per_node(p):
    vp = dl.build_volterra(p)
    P, ref = dl.solve_riccati(vp), loop_oracles.per_node_sweep(vp)
    for table in ("p1", "H", "W", "g1_table", "rcal", "rcal_inv", "eta1",
                  "omega"):
        got, want = (loop_oracles.dense_factor(S)[0] if table == "H"
                     else getattr(S, table) for S in (P, ref))
        np.testing.assert_allclose(
            got, want, rtol=0,
            atol=1e-12 * max(1.0, np.abs(want).max()), err_msg=table)
    res = dl.riccati_residual(P, vp)
    ref_res = loop_oracles.per_node_residual(P, vp)
    for field in RESIDUAL_PROFILES:
        got, want = getattr(res, field), getattr(ref_res, field)
        assert (np.abs(got - want)
                <= 1e-12 * np.maximum(1.0, np.abs(want))).all(), field


#: the problems the sweep over blocks of nodes is pinned to the per-node
#: sweep on, each cut to N steps
BLOCKED = {
    **{name: (lambda N, name=name: truncated(dl.preset_problem(name, 40), N))
       for name in dl.PRESET_NAMES},
    "planar-m2": lambda N: truncated(planar_problem(40, m=2), N),
    "planar-memory": lambda N: truncated(planar_memory_problem(40), N),
}
B = riccati._BLOCK


# one node short of a block, one block, one node past it, and two blocks
# with a part-block of four nodes at the start
@pytest.mark.parametrize("N", [B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("case", sorted(BLOCKED))
def test_blocked_sweep_matches_per_node(case, N):
    assert_blocked_matches_per_node(BLOCKED[case](N))


@pytest.mark.parametrize("block", [3, B])
@pytest.mark.parametrize("steps", [8, 10])
def test_blocked_sweep_matches_per_node_past_the_horizon(steps, block,
                                                         monkeypatch):
    # k >= N: every node's delayed channels reach past the horizon
    monkeypatch.setattr(riccati, "_BLOCK", block)
    assert_blocked_matches_per_node(short_control_delay_problem(steps))


@settings(max_examples=25, deadline=None)
@given(p=admissible_problems(), block=st.integers(1, 9))
def test_blocked_sweep_matches_per_node_on_admissible_draws(p, block):
    with mock.patch.object(riccati, "_BLOCK", block):
        if solvable(p):
            assert_blocked_matches_per_node(p)


@pytest.mark.parametrize("block", [1, 3, B])
def test_blocked_sweep_loses_definiteness_where_per_node_does(block,
                                                              monkeypatch):
    # a draw the explicit sweep cannot solve: every block size stops at
    # the node, with the eigenvalue, where the per-node sweep stops
    vp = dl.build_volterra(unsolvable_draw())
    with pytest.raises(dl.NumericalError) as ref:
        loop_oracles.per_node_sweep(vp)
    monkeypatch.setattr(riccati, "_BLOCK", block)
    with pytest.raises(dl.NumericalError) as got:
        dl.solve_riccati(vp)
    assert str(got.value) == str(ref.value) == (
        "effective control weight lost positive definiteness at node 1 "
        "(min eigenvalue -1.437500e+00)")


def assert_blocked_products_match_dense(P, rng):
    # every row range lo..hi-1 of the stored factor table applied to
    # random stacks, with and without the residual's zeroed heads, against
    # the products over the dense table
    H = loop_oracles.dense_factor(P)[0]
    N, d = P.N, 3 * P.n
    C = rng.standard_normal((N + 1, d, d))
    for lo in range(N + 1):
        u = rng.standard_normal((N + 1 - lo, d, 3))
        for hi in range(lo + 1, N + 2):
            for first in (None, rng.integers(lo, N + 2, size=3)):
                args = (P.W, C, P.rcal_inv, lo, u, P.dt, hi, first)
                want = loop_oracles.dense_interior(H, *args)
                np.testing.assert_allclose(
                    riccati._interior(P.H, *args), want, rtol=0,
                    atol=1e-12 * max(1.0, np.abs(want).max()),
                    err_msg=(lo, hi, first))


# a _BLOCK of 3 at N = 7 or 4 leaves a short block at node 0, 16 exceeds
# every N + 1, and at 2 the delay reaches the horizon, k = N
@pytest.mark.parametrize("block, steps, full_delay", [
    (3, st.sampled_from([4, 7]), False), (16, st.integers(4, 8), False),
    (2, st.integers(4, 8), True)], ids=["short-block", "one-block", "k-is-N"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_stored_factor_matches_dense_on_admissible_draws(block, steps,
                                                         full_delay, data):
    p = data.draw(admissible_problems(steps, full_delay))
    with mock.patch.object(riccati, "_BLOCK", block):
        if not solvable(p):
            return
        vp = dl.build_volterra(p)
        P = dl.solve_riccati(vp)
        b = len(P.H[-1])
        assert [len(x) for x in P.H] == [
            c - max(c - b, 0) for c in range(P.N + 1, 0, -b)][::-1]
        assert_blocked_products_match_dense(
            P, np.random.default_rng(p.grid.N))
        assert_blocked_matches_per_node(p)
        # the corner bit for bit as its readers took it from H's diagonal,
        # and the value function, which reads it and the stored blocks
        np.testing.assert_array_equal(P.corner, riccati._sym(
            loop_oracles.diagonal(P.H, 3 * P.n).swapaxes(-1, -2) @ P.W))
        if p.homogeneous:
            want = value_on_slice0(P, vp)
            assert abs(dl.value_function(P, vp) - want) <= 1e-12 * max(
                1.0, abs(want))


@settings(max_examples=25, deadline=None)
@given(p=admissible_problems())
def test_dead_blocks_are_exactly_zero_on_admissible_draws(p):
    # a block outside vp.live is skipped by the residual's evolution line,
    # exact only if the sweep leaves its rows of H and its columns of W at
    # 0.0; the tables' rule then finds no block the data does not read
    if not solvable(p):
        return
    vp = dl.build_volterra(p)
    P = dl.solve_riccati(vp)
    nn, n, w = P.N + 1, P.n, P.n + P.m
    H = loop_oracles.dense_factor(P)[0].reshape(nn, w, nn, 3, n)
    W = P.W.reshape(nn, w, 3, n)
    live = set(range(3)[vp.live])
    for b in set(range(3)) - live:
        assert not H[..., b, :].any(), b
        assert not W[..., b, :].any(), b
    assert set(range(3)[loop_oracles.live_blocks(P)]) <= live


def assert_control_columns_match_dense(p):
    # every block of the sweep's partition, single columns and the whole
    # range equal the dense table, the signs of its zeros included
    vp = dl.build_volterra(p)
    dense = loop_oracles.dense_control_kernel(p, vp.E)
    nn = p.grid.N + 1
    for b in (1, B, nn):
        for c in range(nn, 0, -b):
            a = max(c - b, 0)
            got, want = vp.lifted_columns(a, c)[..., p.n:], dense[a:, a:c]
            np.testing.assert_array_equal(got, want, err_msg=(a, c))
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want),
                                          err_msg=(a, c))


#: the problems the control columns are pinned to the dense table on
CONTROL = {
    **{f"{name}-{N}": (lambda name=name, N=N:
                       truncated(dl.preset_problem(name, 40), N))
       for name in dl.PRESET_NAMES for N in (B - 1, B, B + 1, 35)},
    **{f"{name}-240": (lambda name=name: dl.preset_problem(name, 240))
       for name in dl.PRESET_NAMES},
    "planar-m1": lambda: planar_problem(24, m=1),
    "planar-m2": lambda: planar_problem(40, m=2),
    "planar-m2-200": lambda: planar_problem(200, m=2),
    "planar-memory": lambda: planar_memory_problem(40),
    **{f"delay-{steps}-of-8": (lambda steps=steps:
                               short_control_delay_problem(steps))
       for steps in (7, 8, 10)},
}


@pytest.mark.parametrize("case", sorted(CONTROL))
def test_control_columns_match_dense_table(case):
    assert_control_columns_match_dense(CONTROL[case]())


@settings(max_examples=25, deadline=None)
@given(p=admissible_problems())
def test_control_columns_match_dense_table_on_admissible_draws(p):
    assert_control_columns_match_dense(p)
