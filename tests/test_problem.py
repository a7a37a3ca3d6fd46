"""Problem model: validation diagnostics, window reduction, serialization."""

import dataclasses
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import delaylq as dl
from delaylq.cli import main as cli_main
from delaylq.problem import KERNELS, field_shapes, from_extended_sdde


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
    def _base(self):
        base = dl.empty_problem(scalar_grid(), 1, 1)
        base.A3[:] = 1.0
        base.Q1[:] = 1.0
        base.R1[:] = 1.0
        base.xi[:] = 2.0
        return base

    def _window(self, value=0.0):
        g = scalar_grid()
        return np.full((g.N + 1, g.delay_steps + 1, 1, 1), value)

    def test_zero_window_kernels_reduce_to_identity(self):
        base = self._base()
        prob = from_extended_sdde(base, self._window(), self._window())
        assert np.abs(prob.F).max() == 0
        assert np.abs(prob.Ftilde).max() == 0
        np.testing.assert_array_equal(prob.b, base.b)
        np.testing.assert_array_equal(prob.sigma, base.sigma)

    def test_constant_window_kernel_matches_analytic_integral(self):
        # G1 = I, xi = x0: the drift gains A3(t)(t0 - t + delta)x0 on
        # [t0, t0+delta), the exact value of the left-rectangle sum
        g = scalar_grid()
        k = g.delay_steps
        prob = from_extended_sdde(self._base(), self._window(1.0),
                                  self._window())
        for i in range(k):
            expected = (0.25 - i * g.dt) * 2.0
            assert prob.b[i, 0] == pytest.approx(expected, abs=1e-14)
        assert np.abs(prob.b[k:]).max() == 0

    def test_window_mask_zeroes_kernel_beyond_one_delay(self):
        g = scalar_grid()
        k, nn = g.delay_steps, g.N + 1
        prob = from_extended_sdde(self._base(), self._window(1.0),
                                  self._window())
        for i in range(1, nn):
            for j in range(i):
                expected = 1.0 if i - j <= k else 0.0
                assert prob.F[i, j, 0, 0] == expected

    def test_zero_kernels_give_same_lift_as_direct_canonical_problem(self):
        reduced = from_extended_sdde(self._base(), self._window(),
                                     self._window())
        direct = dl.empty_problem(scalar_grid(), 1, 1)
        direct.A3[:] = 1.0
        direct.Q1[:] = 1.0
        direct.R1[:] = 1.0
        direct.xi[:] = 2.0
        vr, vd = dl.build_volterra(reduced), dl.build_volterra(direct)
        np.testing.assert_array_equal(vr.lifted_columns(), vd.lifted_columns())
        for name in ("phi", "Q", "R"):
            np.testing.assert_array_equal(getattr(vr, name), getattr(vd, name))
        for row in (lambda vp: vp.Acal, lambda vp: vp.Ccal,
                    lambda vp: vp.source.D1):
            np.testing.assert_array_equal(dl.lifted_kernel(vr, row(vr)),
                                          dl.lifted_kernel(vd, row(vd)))

    def test_base_kernels_and_window_shapes_are_checked_together(self):
        # a nonzero base kernel is rejected, not added to the window one
        base = self._base()
        base.F[3, 1] = 0.5
        base.Ftilde[2, 0] = -1.0
        with pytest.raises(dl.ProblemValidationError) as info:
            from_extended_sdde(base, self._window(), np.zeros((21, 6, 1, 2)))
        assert [v.split(":")[0] for v in info.value.violations] == [
            "F", "Ftilde", "G2"]
        assert info.value.violations[2] == (
            "G2: expected shape (21, 6, 1, 1), got (21, 6, 1, 2)")


# sha256 of save_problem(preset_problem(name, 8)), pinned from the writer
# that listed every field by hand
SAVED8_SHA256 = {
    "tanh": "5bce9c6c35a50582ee718a6df174910c66abc21db2ee20fbce66ae62eff6cbba",
    "input-delay":
        "9c5a5c103720870967be7f0cdf98d7bf9fcdb73da6187797bee18282cfa627d6",
    "state-delay":
        "104251f883e6b840f89eef601a48b50a4fa04c60a0eaab4d1f2081be55f891bf",
    "distributed":
        "c37ce72b07c786535dc374ed7edae4895c22421538597320550c7befd1759eab",
    "pointwise":
        "ea29a48e7e1938710e07f84590618d8f42e90d0c6a57daf698ab3d1ce0c4988e",
    "full": "985aa276a05a6f12713872fa918132d44a1c34941a8ee9d00b27411d6134cb8d",
}


@st.composite
def random_problems(draw):
    """Any n, m in {1, 2} on a short grid, every array field drawn from
    its shape in field_shapes, kernels strictly lower-triangular."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    N = draw(st.integers(2, 5))
    k = draw(st.integers(1, N))
    grid = dl.TimeGrid(t0=0.0, T=1.0, N=N, delay=k / N)
    values = st.floats(allow_nan=False, allow_infinity=False)
    fields = {}
    for name, shape in field_shapes(n, m, N + 1, grid.delay_steps).items():
        arr = draw(arrays(np.float64, shape, elements=values))
        if name in KERNELS:
            arr[np.triu_indices(N + 1)] = 0.0
        fields[name] = arr
    lam = draw(st.floats(1e-3, 1e3))
    return dl.DelayLQProblem(grid=grid, n=n, m=m, lam=lam, **fields)


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        p = dl.preset_problem("full", 16)
        path = tmp_path / "problem.json"
        dl.save_problem(p, path)
        q = dl.load_problem(path)
        assert q.grid.N == p.grid.N
        assert q.grid.delay_steps == p.grid.delay_steps
        assert q.lam == p.lam
        for name in field_shapes(p.n, p.m, p.grid.N + 1, p.grid.delay_steps):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    @settings(max_examples=25, deadline=None)
    @given(p=random_problems())
    def test_random_problems_round_trip_byte_for_byte(self, p):
        with tempfile.TemporaryDirectory() as tmp:
            first = pathlib.Path(tmp, "first.json")
            second = pathlib.Path(tmp, "second.json")
            dl.save_problem(p, first)
            q = dl.load_problem(first)
            dl.save_problem(q, second)
            assert second.read_bytes() == first.read_bytes()
        assert (q.n, q.m, q.grid.N, q.grid.delay_steps, q.lam) == (
            p.n, p.m, p.grid.N, p.grid.delay_steps, p.lam)
        for name in field_shapes(p.n, p.m, p.grid.N + 1, p.grid.delay_steps):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_shape_table_lists_the_array_fields_in_order(self):
        declared = [f.name for f in dataclasses.fields(dl.DelayLQProblem)
                    if f.type == "np.ndarray"]
        assert list(field_shapes(1, 1, 3, 1)) == declared
        assert set(KERNELS) <= set(declared)

    @pytest.mark.parametrize("name", dl.PRESET_NAMES)
    def test_saved_presets_are_pinned(self, tmp_path, name):
        path = tmp_path / "problem.json"
        dl.save_problem(dl.preset_problem(name, 8), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            SAVED8_SHA256[name]

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
