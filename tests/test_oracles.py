"""Oracle cross-checks: classical pair, case reductions, QP minimizer."""

import numpy as np
import pytest

import delaylq as dl
from delaylq import oracles
from evaluators import casei_control, caseii_control, with_scaled_weights


def solve(problem):
    vp = dl.build_volterra(problem)
    P = dl.solve_riccati(vp)
    strat = dl.synthesize_feedback(P, vp)
    return vp, P, strat


class TestClassicalRiccati:
    def test_tanh_closed_form_to_fourth_order(self):
        p = dl.preset_problem("tanh", 100)
        oracle = oracles.classical_riccati(p)
        assert abs(oracle.P[0, 0, 0] - np.tanh(1.0)) < 1e-6
        mid = oracle.P[50, 0, 0]
        assert abs(mid - np.tanh(0.5)) < 1e-6

    def test_zero_weights_give_zero_path(self):
        p = dl.preset_problem("tanh", 20)
        p.Q1[:] = 0.0
        oracle = oracles.classical_riccati(p)
        assert np.abs(oracle.P).max() == 0.0
        assert np.abs(oracle.eta_t).max() == 0.0

    def test_path_is_symmetric(self):
        p = dl.preset_problem("tanh", 40)
        p.C1[:] = 0.3
        p.D1[:] = 0.2
        oracle = oracles.classical_riccati(p)
        assert np.abs(oracle.P - oracle.P.transpose(0, 2, 1)).max() < 1e-12

    def test_rejects_delayed_presets(self):
        p = dl.preset_problem("input-delay", 20)
        with pytest.raises(dl.ProblemValidationError):
            oracles.classical_riccati(p)

    def test_indefinite_control_weight_raises(self):
        p = dl.preset_problem("tanh", 20)
        p.R1[:] = -1.0
        with pytest.raises(dl.NumericalError, match=(
                r"^oracle control weight lost positive definiteness "
                r"near t=1\.0$")):
            oracles.classical_riccati(p)

    def test_overflowing_path_raises(self):
        p = dl.preset_problem("tanh", 20)
        p.Q1[:] = 1e308
        with np.errstate(all="ignore"), pytest.raises(
                dl.NumericalError,
                match="^oracle control weight non-finite near t="):
            oracles.classical_riccati(p)


class TestCaseV:
    def test_zero_data_has_zero_errors(self):
        g = dl.TimeGrid(0.0, 1.0, 16, 0.25)
        p = dl.empty_problem(g, 1, 1)
        p.R1[:] = 1.0
        p.B1[:] = 1.0
        vp, P, strat = solve(p)
        oracle = oracles.classical_riccati(p)
        rep = oracles.casev_consistency(P, strat, oracle, vp)
        assert rep.p_error == 0.0
        assert rep.eta_error == 0.0
        assert rep.k1_error == 0.0
        assert rep.v_error == 0.0

    def test_tanh_errors_halve_under_refinement(self):
        reports = {}
        for N in (48, 96):
            p = dl.preset_problem("tanh", N)
            vp, P, strat = solve(p)
            oracle = oracles.classical_riccati(p)
            reports[N] = oracles.casev_consistency(P, strat, oracle, vp)
        ratio = reports[48].p_error / reports[96].p_error
        assert 1.4 < ratio < 2.6
        gain_ratio = reports[48].k1_error / reports[96].k1_error
        assert 1.4 < gain_ratio < 2.6


class TestCaseII:
    def test_zero_state_weight_gives_zero_extraction(self):
        p = dl.preset_problem("state-delay", 20)
        p.Q1[:] = 0.0
        vp, P, _ = solve(p)
        ext = oracles.caseii_extract(P, vp)
        assert np.abs(ext.P2c).max() == 0.0
        assert np.abs(ext.P3c).max() == 0.0
        res = oracles.caseii_residual(ext, p)
        for field in ("ode_late", "ode_early", "transport_late",
                      "transport_early", "diagonal"):
            assert getattr(res, field) == 0.0

    def test_terminal_value_is_zero_exactly(self, solve_preset):
        s = solve_preset("state-delay", 20)
        ext = oracles.caseii_extract(s.P, s.vp)
        assert np.abs(ext.P2c[-1]).max() == 0.0

    def test_residuals_halve_under_refinement(self):
        res = {}
        for N in (40, 80):
            p = dl.preset_problem("state-delay", N)
            vp, P, _ = solve(p)
            res[N] = oracles.caseii_residual(oracles.caseii_extract(P, vp), p)
        for field in ("ode_late", "ode_early", "transport_early"):
            ratio = getattr(res[40], field) / getattr(res[80], field)
            assert 1.3 < ratio < 2.7, (field, ratio)
        assert res[80].diagonal < 1e-12

    def test_specialized_control_matches_general_synthesis(self):
        errs = {}
        for N in (40, 80):
            p = dl.preset_problem("state-delay", N)
            vp, P, strat = solve(p)
            batch = dl.gen_brownian(p.grid, 4, seed=11)
            sim = dl.simulate_closed_loop(p, strat, batch)
            ext = oracles.caseii_extract(P, vp)
            worst = 0.0
            for l in range(p.grid.N):
                u_spec = caseii_control(ext, p, sim.x, sim.u, l)
                worst = max(worst, np.abs(u_spec - sim.u[:, l]).max())
            errs[N] = worst
        assert errs[40] < 5.0 / 40
        assert errs[80] <= errs[40]

    def test_preset_mismatch_rejected(self, solve_preset):
        s = solve_preset("full", 16)
        with pytest.raises(dl.ProblemValidationError):
            oracles.caseii_extract(s.P, s.vp)
        # time-varying coefficients also rejected
        p = dl.preset_problem("state-delay", 16)
        p.A1[:] = np.linspace(0, 1, 17)[:, None, None]
        vp, P, _ = solve(p)
        with pytest.raises(dl.ProblemValidationError):
            oracles.caseii_extract(P, vp)


def control_delay_preset(N, with_memory=False):
    p = dl.preset_problem("input-delay", N)
    p.B1[:] = 1.0
    if with_memory:
        p.B3[:] = 0.4
        nodes = p.grid.nodes()
        for i in range(1, N + 1):
            p.Ftilde[i, :i] = (0.5 * np.exp(-(nodes[i] - nodes[:i]))
                               )[:, None, None]
    return p


class TestCaseI:
    def test_zero_state_weight_gives_zero_extraction(self):
        p = control_delay_preset(20)
        p.Q1[:] = 0.0
        vp, P, _ = solve(p)
        ext = oracles.casei_extract(P, vp)
        assert np.abs(ext.S0).max() == 0.0
        assert np.abs(ext.S1).max() == 0.0
        assert np.abs(ext.S2).max() == 0.0
        res = oracles.casei_residual(ext, p)
        assert res.ode == res.transport1 == res.transport2 == 0.0

    def test_terminal_values_are_zero_exactly(self):
        p = control_delay_preset(20)
        vp, P, _ = solve(p)
        ext = oracles.casei_extract(P, vp)
        assert np.abs(ext.S0[-1]).max() == 0.0
        assert np.abs(ext.S1[-1]).max() == 0.0
        assert np.abs(ext.S2[-1]).max() == 0.0

    def test_pointwise_kernel_equals_selector_sandwich(self):
        # in the control-delay-only regime the solution concentrates on
        # the first block, so the extraction equals the stored sandwich
        p = control_delay_preset(20)
        vp, P, _ = solve(p)
        ext = oracles.casei_extract(P, vp)
        np.testing.assert_allclose(ext.S0, P.g1_table, atol=1e-13)

    def test_residuals_halve_under_refinement(self):
        res = {}
        for N in (40, 80):
            p = control_delay_preset(N)
            vp, P, _ = solve(p)
            res[N] = oracles.casei_residual(oracles.casei_extract(P, vp), p)
        for field in ("ode", "transport1", "transport2"):
            ratio = getattr(res[40], field) / getattr(res[80], field)
            assert 1.3 < ratio < 2.7, (field, ratio)
        assert res[80].boundary < 1e-12

    def test_memory_channel_extraction_residuals_converge(self):
        res = {}
        for N in (24, 48):
            p = control_delay_preset(N, with_memory=True)
            vp, P, _ = solve(p)
            res[N] = oracles.casei_residual(oracles.casei_extract(P, vp), p)
        for field in ("ode", "transport1"):
            ratio = getattr(res[24], field) / getattr(res[48], field)
            assert 1.2 < ratio < 2.8, (field, ratio)

    def test_specialized_control_matches_general_synthesis(self):
        errs = {}
        for N in (40, 80):
            p = control_delay_preset(N)
            vp, P, strat = solve(p)
            batch = dl.gen_brownian(p.grid, 4, seed=11)
            sim = dl.simulate_closed_loop(p, strat, batch)
            ext = oracles.casei_extract(P, vp)
            worst = 0.0
            for l in range(p.grid.N):
                u_spec = casei_control(ext, p, sim.x, sim.u, l)
                worst = max(worst, np.abs(u_spec - sim.u[:, l]).max())
            errs[N] = worst
        assert errs[40] < 5.0 / 40
        assert errs[80] <= max(errs[40], 1e-12)

    def test_double_lag_extraction_swap_symmetry(self):
        for with_memory in (False, True):
            p = control_delay_preset(24, with_memory=with_memory)
            vp, P, _ = solve(p)
            ext = oracles.casei_extract(P, vp)
            swapped = ext.S2.transpose(0, 2, 1, 4, 3)
            assert np.abs(ext.S2 - swapped).max() < 1e-12

    def test_extraction_is_linear_in_solution(self):
        p = control_delay_preset(16)
        vp, P, _ = solve(p)
        ext1 = oracles.casei_extract(P, vp)
        p3 = with_scaled_weights(p, 3.0)
        vp3, P3, _ = solve(p3)
        ext3 = oracles.casei_extract(P3, vp3)
        np.testing.assert_allclose(ext3.S0, 3.0 * ext1.S0, atol=1e-12)
        np.testing.assert_allclose(ext3.S1, 3.0 * ext1.S1, atol=1e-12)
        np.testing.assert_allclose(ext3.S2, 3.0 * ext1.S2, atol=1e-12)

    def test_preset_mismatch_rejected(self, solve_preset):
        s = solve_preset("state-delay", 16)
        with pytest.raises(dl.ProblemValidationError):
            oracles.casei_extract(s.P, s.vp)


class TestReducedCase:
    @pytest.mark.parametrize("name, case", [
        ("tanh", "V"), ("input-delay", "I"), ("state-delay", "II"),
        ("distributed", None), ("pointwise", None), ("full", None)])
    def test_presets_meet_the_most_specific_case(self, name, case):
        assert oracles.reduced_case(dl.preset_problem(name, 16)) == case

    def test_structure_not_name_decides(self):
        p = dl.preset_problem("tanh", 16)
        p.B2[:] = 0.5                     # a control delay: no longer case V
        assert oracles.reduced_case(p) == "I"
        p.A1[:] = np.linspace(0, 1, 17)[:, None, None]
        assert oracles.reduced_case(p) == "I"   # case I allows time variation
        p.varsigma[:] = 0.1               # initial control window: none
        assert oracles.reduced_case(p) is None

    def test_violations_name_the_offending_fields(self):
        p = dl.preset_problem("state-delay", 16)
        p.A1[:] = np.linspace(0, 1, 17)[:, None, None]
        assert oracles.CASES["II"].violations(p) == [
            "case II (state delay only): expected time-invariant A1"]
        assert oracles.CASES["V"].violations(p) == [
            "case V (no delay): expected zero A2"]


class TestQpOracle:
    def test_zero_weights_give_zero_control(self):
        g = dl.TimeGrid(0.0, 1.0, 16, 0.25)
        p = dl.empty_problem(g, 1, 1)
        p.R1[:] = 1.0
        p.B1[:] = 1.0
        p.xi[:] = 1.0
        res = oracles.deterministic_qp_oracle(p)
        assert np.abs(res.u_opt).max() == 0.0
        assert res.cost_opt == 0.0

    def test_tanh_preset_value(self):
        p = dl.preset_problem("tanh", 80)
        res = oracles.deterministic_qp_oracle(p)
        assert abs(res.cost_opt - np.tanh(1.0)) < 4.0 / 80

    def test_kkt_residual_small_on_deterministic_presets(self):
        for name in ("tanh", "input-delay", "state-delay"):
            p = dl.preset_problem(name, 32)
            res = oracles.deterministic_qp_oracle(p)
            assert res.kkt_residual <= 1e-8 * res.gradient_norm

    def test_quadratic_model_matches_resimulated_cost(self):
        p = dl.preset_problem("input-delay", 32)
        res = oracles.deterministic_qp_oracle(p)
        batch = dl.BrownianBatch(seed=0, n_paths=1,
                                 increments=np.zeros((1, 32)))
        sim = dl.simulate_open_loop(p, res.u_opt, batch)
        assert float(sim.cost_samples[0]) == pytest.approx(res.cost_opt,
                                                           rel=1e-10)

    def test_oracle_beats_zero_control(self):
        p = dl.preset_problem("input-delay", 32)
        res = oracles.deterministic_qp_oracle(p)
        batch = dl.BrownianBatch(seed=0, n_paths=1,
                                 increments=np.zeros((1, 32)))
        zero = dl.simulate_open_loop(p, np.zeros((33, 1)), batch)
        assert res.cost_opt <= float(zero.cost_samples[0])

    def test_closed_loop_gap_is_small_and_shrinks(self):
        gaps = {}
        for N in (40, 80):
            p = dl.preset_problem("input-delay", N)
            vp, P, strat = solve(p)
            qp = oracles.deterministic_qp_oracle(p)
            batch = dl.gen_brownian(p.grid, 1, seed=1)
            sim = dl.simulate_closed_loop(p, strat, batch)
            cl = float(sim.cost_samples[0])
            gaps[N] = (cl - qp.cost_opt) / abs(qp.cost_opt)
            assert gaps[N] >= -1e-12      # the QP is the exact discrete min
            assert gaps[N] <= 5.0 / N
        assert gaps[80] < gaps[40]

    def test_requires_zero_diffusion(self, solve_preset):
        p = dl.preset_problem("full", 16)
        with pytest.raises(dl.ProblemValidationError):
            oracles.deterministic_qp_oracle(p)

    def test_indefinite_hessian_raises(self):
        g = dl.TimeGrid(0.0, 1.0, 16, 0.25)
        p = dl.empty_problem(g, 1, 1)
        p.R1[:] = -1.0
        p.B1[:] = 1.0
        p.Q1[:] = 1.0
        p.xi[:] = 1.0
        with pytest.raises(dl.NumericalError,
                           match="^QP Hessian is not positive definite$"):
            oracles.deterministic_qp_oracle(p)

    def test_overflowing_hessian_raises(self):
        p = dl.preset_problem("tanh", 16)
        p.A1[:] = 1e20
        with np.errstate(all="ignore"), pytest.raises(
                dl.NumericalError, match="^QP Hessian is not finite$"):
            oracles.deterministic_qp_oracle(p)
