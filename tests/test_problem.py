"""Problem model: validation diagnostics, window reduction, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaylq as dl
from delaylq.cli import main as cli_main
from delaylq.problem import ExtendedSddeSpec, from_extended_sdde


def scalar_grid(N=20, delay=0.25):
    return dl.TimeGrid(t0=0.0, T=1.0, N=N, delay=delay)


def admissible_problem():
    p = dl.empty_problem(scalar_grid(), 1, 1)
    p.Q1[:] = 1.0
    p.R1[:] = 1.0
    p.xi[:] = 1.0
    return p


class TestValidate:
    def test_admissible_problem_has_empty_report(self):
        report = dl.validate(admissible_problem())
        assert report.ok
        assert report.violations == ()

    def test_zero_control_weight_fails_coercivity_at_every_node(self):
        p = admissible_problem()
        p.R1[:] = 0.0
        report = dl.validate(p)
        coercivity = [v for v in report.violations if "coercivity" in v]
        assert len(coercivity) == p.grid.N + 1

    def test_delay_off_grid_is_flagged(self):
        grid = dl.TimeGrid(t0=0.0, T=1.2, N=20, delay=0.25)  # dt = 0.06
        p = dl.empty_problem(grid, 1, 1)
        p.Q1[:] = 1.0
        p.R1[:] = 1.0
        report = dl.validate(p)
        assert any("delay not a grid multiple" in v for v in report.violations)

    def test_non_psd_state_weight_flagged_with_node(self):
        p = admissible_problem()
        p.Q1[7] = -0.5
        report = dl.validate(p)
        assert any("Q1" in v and "node 7" in v for v in report.violations)

    def test_dimension_mismatch_flagged(self):
        p = admissible_problem()
        bad = dict(p.__dict__)
        bad["A1"] = np.zeros((3, 1, 1))
        report = dl.validate(dl.DelayLQProblem(**bad))
        assert any("A1" in v and "shape" in v for v in report.violations)

    def test_non_finite_entries_flagged(self):
        p = admissible_problem()
        p.b[3] = np.nan
        report = dl.validate(p)
        assert any("b: non-finite" in v for v in report.violations)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**30), r_scale=st.floats(0.0, 2.0))
    def test_validate_is_pure_and_idempotent(self, seed, r_scale):
        rng = np.random.default_rng(seed)
        p = dl.empty_problem(scalar_grid(N=8), 1, 1)
        p.Q1[:] = rng.uniform(-0.1, 1.0, (9, 1, 1))
        p.R1[:] = r_scale
        first = dl.validate(p)
        second = dl.validate(p)
        assert first.violations == second.violations


class TestExtendedSddeReduction:
    def _spec(self, G1=None, G2=None, xi0=2.0):
        g = scalar_grid()
        k, nn = g.delay_steps, g.N + 1
        base = dl.empty_problem(g, 1, 1)
        return ExtendedSddeSpec(
            grid=g, n=1, m=1,
            A1=base.A1, A2=base.A2, A3=np.ones((nn, 1, 1)),
            B1=base.B1, B2=base.B2, B3=base.B3,
            C1=base.C1, C2=base.C2, C3=base.C3, D1=base.D1,
            Q1=np.ones((nn, 1, 1)), Q2=base.Q2, Q3=base.Q3,
            R1=np.ones((nn, 1, 1)), R2=base.R2,
            btilde=np.zeros((nn, 1)), sigtilde=np.zeros((nn, 1)),
            G1=G1 if G1 is not None else np.zeros((nn, k + 1, 1, 1)),
            G2=G2 if G2 is not None else np.zeros((nn, k + 1, 1, 1)),
            xi=xi0 * np.ones((k + 1, 1)), varsigma=np.zeros((k, 1)),
            lam=1.0)

    def test_zero_window_kernels_reduce_to_identity(self):
        spec = self._spec()
        prob = from_extended_sdde(spec)
        assert np.abs(prob.F).max() == 0
        assert np.abs(prob.Ftilde).max() == 0
        np.testing.assert_array_equal(prob.b, spec.btilde)
        np.testing.assert_array_equal(prob.sigma, spec.sigtilde)

    def test_constant_window_kernel_matches_analytic_integral(self):
        # G1 = I, xi = x0: the drift gains A3(t)(t0 - t + delta)x0 on
        # [t0, t0+delta), the exact value of the left-rectangle sum
        g = scalar_grid()
        k, nn = g.delay_steps, g.N + 1
        spec = self._spec(G1=np.ones((nn, k + 1, 1, 1)))
        prob = from_extended_sdde(spec)
        for i in range(k):
            expected = (0.25 - i * g.dt) * 2.0
            assert prob.b[i, 0] == pytest.approx(expected, abs=1e-14)
        assert np.abs(prob.b[k:]).max() == 0

    def test_window_mask_zeroes_kernel_beyond_one_delay(self):
        g = scalar_grid()
        k, nn = g.delay_steps, g.N + 1
        spec = self._spec(G1=np.ones((nn, k + 1, 1, 1)))
        prob = from_extended_sdde(spec)
        for i in range(1, nn):
            for j in range(i):
                expected = 1.0 if i - j <= k else 0.0
                assert prob.F[i, j, 0, 0] == expected

    def test_zero_kernels_give_same_lift_as_direct_canonical_problem(self):
        spec = self._spec()
        reduced = from_extended_sdde(spec)
        direct = dl.empty_problem(scalar_grid(), 1, 1)
        direct.A3[:] = 1.0
        direct.Q1[:] = 1.0
        direct.R1[:] = 1.0
        direct.xi[:] = 2.0
        vr, vd = dl.build_volterra(reduced), dl.build_volterra(direct)
        for name in ("B", "phi", "Q", "R"):
            np.testing.assert_array_equal(getattr(vr, name), getattr(vd, name))
        for row in (lambda vp: vp.Acal, lambda vp: vp.Ccal,
                    lambda vp: vp.source.D1):
            np.testing.assert_array_equal(dl.lifted_kernel(vr.U, row(vr)),
                                          dl.lifted_kernel(vd.U, row(vd)))


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        p = dl.preset_problem("full", 16)
        path = tmp_path / "problem.json"
        dl.save_problem(p, path)
        q = dl.load_problem(path)
        assert q.grid.N == p.grid.N
        assert q.grid.delay_steps == p.grid.delay_steps
        assert q.lam == p.lam
        for name in ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3",
                     "D1", "Q1", "Q2", "Q3", "R1", "R2", "b", "sigma",
                     "F", "Ftilde", "xi", "varsigma"):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_field_names_follow_the_interface(self, tmp_path):
        p = dl.preset_problem("tanh", 8)
        path = tmp_path / "problem.json"
        dl.save_problem(p, path)
        doc = json.loads(path.read_text())
        for key in ("t0", "T", "N", "delay_steps", "n", "m", "lambda",
                    "A1", "R2", "F", "Ftilde", "xi", "varsigma", "b", "sigma"):
            assert key in doc
        # kernels are triangular: row i holds i entries
        assert [len(row) for row in doc["F"]] == list(range(p.grid.N + 1))

    @pytest.mark.parametrize("field", ["F", "Ftilde"])
    def test_overlong_kernel_row_names_the_field(self, tmp_path, field):
        doc = dl.problem_to_dict(dl.preset_problem("tanh", 8))
        doc[field][3] = [[[0.0]]] * 20
        with pytest.raises(ValueError, match=f"^{field}: row 3 has 20"):
            dl.problem_from_dict(doc)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", "--problem", str(path),
                            "--out", str(tmp_path / "o")]) == 1

    def test_too_many_kernel_rows_names_the_field(self):
        doc = dl.problem_to_dict(dl.preset_problem("tanh", 8))
        doc["F"] = doc["F"] + [[]]
        with pytest.raises(ValueError, match="^F: 10 rows"):
            dl.problem_from_dict(doc)


class TestStructure:
    def test_nonzero_names_fields_in_order(self):
        p = dl.preset_problem("full", 8)
        assert p.nonzero("Ftilde", "B3", "A2") == ("Ftilde", "B3", "A2")
        q = dl.preset_problem("input-delay", 8)
        assert q.nonzero("A2", "B2", "F", "xi") == ("B2", "xi")
        assert q.nonzero() == ()

    def test_memory_channel_needs_both_factors(self):
        p = dl.preset_problem("distributed", 8)
        assert p.has_memory
        p.B3[:] = 0.0
        assert not p.has_memory
        q = dl.preset_problem("tanh", 8)
        q.B3[:] = 1.0
        assert not q.has_memory

    def test_homogeneous_means_zero_free_terms(self):
        assert dl.preset_problem("pointwise", 8).homogeneous
        assert not dl.preset_problem("full", 8).homogeneous
        p = dl.preset_problem("tanh", 8)
        p.sigma[3] = -1e-300
        assert not p.homogeneous


class TestTimeGrid:
    def test_nodes_and_steps(self):
        g = scalar_grid()
        assert g.dt == pytest.approx(0.05)
        assert g.delay_steps == 5
        assert g.delay_is_grid_multiple
        np.testing.assert_allclose(g.nodes()[[0, -1]], [0.0, 1.0])

    def test_invalid_construction_raises(self):
        with pytest.raises(ValueError):
            dl.TimeGrid(t0=1.0, T=0.0, N=10, delay=0.1)
        with pytest.raises(ValueError):
            dl.TimeGrid(t0=0.0, T=1.0, N=1, delay=0.1)
        with pytest.raises(ValueError):
            dl.TimeGrid(t0=0.0, T=1.0, N=10, delay=-0.1)
