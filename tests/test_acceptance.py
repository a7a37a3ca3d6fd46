"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one CRITERION {k}: PASS/FAIL line; the assertions pin
the stated tolerances (nothing deferred to calibration).
"""

import time

import numpy as np

import delaylq as dl
from delaylq import oracles
from delaylq.cli import main as cli_main, replay
from evaluators import (casei_control, caseii_control, p2_slice, scaled,
                        with_scaled_weights)

TANH1 = float(np.tanh(1.0))


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _solve(problem):
    vp = dl.build_volterra(problem)
    P = dl.solve_riccati(vp)
    strat = dl.synthesize_feedback(P, vp)
    return vp, P, strat


def _embedded_value_kernel_at_start(P, vp):
    dt = vp.grid.dt
    return (P.p1[1:, 0, 0].sum() * dt
            + p2_slice(P, 0)[1:, 1:, 0, 0].sum() * dt * dt)


class TestCriterion1DelayFreeConsistency:
    def test_tanh_value_and_embedding(self):
        start = time.time()
        errs_v, errs_p = {}, {}
        for N in (100, 200):
            p = dl.preset_problem("tanh", N)
            vp = dl.build_volterra(p)
            P = dl.solve_riccati(vp)
            errs_v[N] = abs(dl.value_function(P, vp) - TANH1)
            errs_p[N] = abs(_embedded_value_kernel_at_start(P, vp) - TANH1)
        elapsed = time.time() - start
        ratio_v = errs_v[100] / errs_v[200]
        ratio_p = errs_p[100] / errs_p[200]
        ok = (errs_v[100] <= 5e-2 and errs_p[100] <= 5e-2
              and 1.4 <= ratio_v <= 2.6 and 1.4 <= ratio_p <= 2.6
              and elapsed <= 60.0)
        _report(1, ok,
                f"value err {errs_v[100]:.2e} -> {errs_v[200]:.2e}, "
                f"embedding err {errs_p[100]:.2e} -> {errs_p[200]:.2e}, "
                f"{elapsed:.1f}s")


class TestCriterion2DeterministicOptimality:
    def test_input_delay_gap_to_qp_oracle(self):
        start = time.time()
        gaps = {}
        for N in (80, 160):
            p = dl.preset_problem("input-delay", N)
            _, P, strat = _solve(p)
            qp = oracles.deterministic_qp_oracle(p)
            batch = dl.gen_brownian(p.grid, 1, seed=1)
            sim = dl.simulate_closed_loop(p, strat, batch)
            cl = float(sim.cost_samples[0])
            gaps[N] = abs(cl - qp.cost_opt) / abs(qp.cost_opt)
        elapsed = time.time() - start
        ok = (gaps[80] <= 5.0 / 80 and gaps[160] < gaps[80]
              and elapsed <= 120.0)
        _report(2, ok, f"rel gap {gaps[80]:.2e} -> {gaps[160]:.2e} "
                       f"(5dt={5 / 80:.2e}), {elapsed:.1f}s")


class TestCriterion3StochasticStationarity:
    def test_directional_derivatives_at_optimum_and_detuned(self):
        start = time.time()
        p = dl.preset_problem("full", 60)
        _, P, strat = _solve(p)
        g = p.grid
        batch = dl.gen_brownian(g, 10_000, seed=42)
        rng = np.random.Generator(np.random.Philox(key=[42, 2 ** 32]))
        slack = 10.0 * g.dt
        detuned = scaled(strat, 1.5)
        ws = []
        for _ in range(20):
            w = rng.standard_normal((g.N + 1, p.m))
            w[g.N] = 0.0
            w /= np.sqrt((w[:g.N] ** 2).sum() * g.dt)
            ws.append(w)
        n_pass = sum(der.passes(slack) for der in
                     dl.stationarity_test(p, strat, ws, batch))
        n_fail = sum(not der.passes(slack) for der in
                     dl.stationarity_test(p, detuned, ws, batch))
        elapsed = time.time() - start
        ok = n_pass >= 18 and n_fail >= 1 and elapsed <= 300.0
        _report(3, ok, f"optimum passes {n_pass}/20, detuned fails "
                       f"{n_fail}/20, {elapsed:.1f}s")


class TestCriterion4RiccatiStructuralInvariants:
    def test_symmetries_floor_and_zero_fixed_point(self):
        sym_p1 = sym_p2 = 0.0
        floor_ok = True
        for name in dl.PRESET_NAMES:
            p = dl.preset_problem(name, 40)
            vp = dl.build_volterra(p)
            P = dl.solve_riccati(vp)
            sym_p1 = max(sym_p1,
                         np.abs(P.p1 - P.p1.transpose(0, 2, 1)).max())
            sym_p2 = max(sym_p2,
                         max(np.abs(sl - sl.transpose(1, 0, 3, 2)).max()
                             for _, sl in replay(P)))
            floor_ok &= P.lambda_floor >= 0.5 * p.lam
        pz = dl.empty_problem(dl.TimeGrid(0.0, 1.0, 40, 0.25), 1, 1)
        pz.R1[:] = 1.0
        pz.A1[:] = -0.4
        pz.B1[:] = 1.0
        pz.C1[:] = 0.3
        Pz = dl.solve_riccati(dl.build_volterra(pz))
        zero_ok = (np.abs(Pz.p1).max() == 0.0
                   and max(np.abs(sl).max() for _, sl in replay(Pz)) == 0.0)
        ok = sym_p1 == 0.0 and sym_p2 == 0.0 and floor_ok and zero_ok
        _report(4, ok, f"p1 asym {sym_p1}, p2 asym {sym_p2}, "
                       f"floor>=0.5lam {floor_ok}, zero fixed point {zero_ok}")


class TestCriterion5CostBridge:
    def test_bridge_on_every_preset_with_100_random_controls(self):
        worst = 0.0
        rng = np.random.default_rng(2024)
        for name in dl.PRESET_NAMES:
            p = dl.preset_problem(name, 32)
            vp = dl.build_volterra(p)
            n_ctrl = 100
            batch = dl.gen_brownian(p.grid, n_ctrl, seed=5)
            u = rng.standard_normal((n_ctrl, p.grid.N + 1, p.m))
            sim = dl.simulate_open_loop(p, u, batch)
            for q in range(n_ctrl):
                X = dl.lift_state(sim.x[q], p)
                lifted = dl.cost_volterra(X, sim.u[q], vp)
                original = float(sim.cost_samples[q])
                rel = abs(lifted - original) / max(abs(original), 1e-30)
                worst = max(worst, rel)
        ok = worst <= 1e-10
        _report(5, ok, f"worst relative gap {worst:.2e}")


class TestCriterion6CaseReductions:
    def test_residuals_halve_and_controls_match(self):
        p40 = dl.preset_problem("input-delay", 40)
        p40.B1[:] = 1.0
        p80 = dl.preset_problem("input-delay", 80)
        p80.B1[:] = 1.0
        res_i = {}
        match_i = {}
        for p in (p40, p80):
            vp, P, strat = _solve(p)
            ext = oracles.casei_extract(P, vp)
            res_i[p.grid.N] = oracles.casei_residual(ext, p)
            batch = dl.gen_brownian(p.grid, 4, seed=11)
            sim = dl.simulate_closed_loop(p, strat, batch)
            worst = max(
                np.abs(casei_control(ext, p, sim.x, sim.u, l)
                       - sim.u[:, l]).max()
                for l in range(p.grid.N))
            match_i[p.grid.N] = worst
        res_ii = {}
        match_ii = {}
        for N in (40, 80):
            p = dl.preset_problem("state-delay", N)
            vp, P, strat = _solve(p)
            ext = oracles.caseii_extract(P, vp)
            res_ii[N] = oracles.caseii_residual(ext, p)
            batch = dl.gen_brownian(p.grid, 4, seed=11)
            sim = dl.simulate_closed_loop(p, strat, batch)
            worst = max(
                np.abs(caseii_control(ext, p, sim.x, sim.u, l)
                       - sim.u[:, l]).max()
                for l in range(p.grid.N))
            match_ii[N] = worst

        halving = True
        for field in ("ode", "transport1", "transport2"):
            ratio = getattr(res_i[40], field) / getattr(res_i[80], field)
            halving &= 1.3 < ratio < 2.7
        for field in ("ode_late", "ode_early", "transport_early"):
            ratio = getattr(res_ii[40], field) / getattr(res_ii[80], field)
            halving &= 1.3 < ratio < 2.7
        controls = (match_i[40] <= 5.0 / 40 and match_i[80] <= 5.0 / 80
                    and match_ii[40] <= 5.0 / 40 and match_ii[80] <= 5.0 / 80)
        ok = halving and controls
        _report(6, ok,
                f"halving {halving}; control match I "
                f"{match_i[40]:.1e}/{match_i[80]:.1e}, II "
                f"{match_ii[40]:.1e}/{match_ii[80]:.1e}")


class TestCriterion7ScaleInvariance:
    def test_gains_unchanged_value_scales(self):
        worst_gain = 0.0
        value_ok = True
        for name in ("pointwise", "full"):
            p = dl.preset_problem(name, 32)
            vp, P, strat = _solve(p)
            p3 = with_scaled_weights(p, 3.0)
            vp3, P3, strat3 = _solve(p3)
            for field in ("k1", "k2", "k3", "k4", "v"):
                a, b = getattr(strat, field), getattr(strat3, field)
                scale = max(np.abs(a).max(), 1e-30)
                worst_gain = max(worst_gain, np.abs(a - b).max() / scale)
            if name == "pointwise":           # homogeneous: value defined
                v1 = dl.value_function(P, vp)
                v3 = dl.value_function(P3, vp3)
                value_ok &= abs(v3 - 3.0 * v1) <= 1e-10 * abs(3.0 * v1)
        ok = worst_gain <= 1e-10 and value_ok
        _report(7, ok, f"worst gain drift {worst_gain:.2e}, "
                       f"value x3 exact {value_ok}")


class TestCriterion8Reproducibility:
    def test_cli_summaries_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = cli_main(["simulate", "--preset", "full", "--n-steps",
                             "24", "--n-paths", "128", "--seed", "7",
                             "--out", str(out)])
            assert code == 0
            blobs.append((out / "summary.json").read_bytes())
        ok = blobs[0] == blobs[1]
        _report(8, ok, f"{len(blobs[0])} bytes compared")
