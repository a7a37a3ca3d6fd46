"""Command-line front end: artifacts, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import delaylq as dl
from delaylq.cli import main


def run(args):
    return main([str(a) for a in args])


class TestSolve:
    def test_tanh_summary_contains_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["solve", "--preset", "tanh", "--n-steps", "100",
                    "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["value_function"] == pytest.approx(0.7616, abs=8e-3)
        assert (out / "feedback_k1.csv").exists()
        assert (out / "feedback_k2.csv").exists()
        assert (out / "riccati_p1.csv").exists()

    def test_zero_data_solve_produces_zero_artifacts(self, tmp_path):
        p = dl.empty_problem(dl.TimeGrid(0.0, 1.0, 12, 0.25), 1, 1)
        p.R1[:] = 1.0
        path = tmp_path / "zero.json"
        dl.save_problem(p, path)
        out = tmp_path / "run"
        assert run(["solve", "--problem", path, "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["value_function"] == 0.0
        k1 = np.loadtxt(out / "feedback_k1.csv", delimiter=",")
        assert np.abs(k1[:, 2:]).max() == 0.0

    def test_malformed_json_exits_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--problem", bad, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_is_io_failure(self, tmp_path):
        assert run(["solve", "--problem", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 3

    def test_invalid_problem_reports_violations(self, tmp_path, capsys):
        p = dl.empty_problem(dl.TimeGrid(0.0, 1.0, 12, 0.25), 1, 1)
        path = tmp_path / "bad.json"
        dl.save_problem(p, path)  # R = 0: coercivity fails
        assert run(["solve", "--problem", path, "--out", tmp_path / "o"]) == 1
        assert "coercivity" in capsys.readouterr().err

    def test_kernel_dump_flag(self, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--preset", "distributed", "--n-steps", "16",
                    "--out", out, "--dump-kernels"]) == 0
        for name in ("A", "B", "C", "D"):
            assert (out / f"kernel_{name}.csv").exists()


class TestSimulate:
    def test_summary_and_paths(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--preset", "full", "--n-steps", "24",
                    "--n-paths", "100", "--seed", "3", "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["n_paths"] == 100
        assert doc["cost_stderr"] > 0.0
        assert doc["flagged_paths"] == 0
        x = np.loadtxt(out / "paths_x.csv", delimiter=",")
        assert x.shape[0] == 25


class TestVerify:
    def test_residuals_on_zero_weight_problem_are_zero(self, tmp_path):
        p = dl.empty_problem(dl.TimeGrid(0.0, 1.0, 12, 0.25), 1, 1)
        p.R1[:] = 1.0
        p.A1[:] = 0.3
        path = tmp_path / "zero.json"
        dl.save_problem(p, path)
        out = tmp_path / "run"
        assert run(["verify", "--problem", path, "--verify", "residuals",
                    "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        for key in ("residual_pointwise", "residual_evolution",
                    "residual_boundary", "residual_rcal_identity"):
            assert doc[key] == 0.0

    def test_qp_oracle_gate_passes_on_deterministic_preset(self, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        assert run(["verify", "--preset", "input-delay", "--n-steps", "40",
                    "--verify", "qp-oracle", "--out", out]) == 0
        assert "gap <= 5*dt: PASS" in capsys.readouterr().out
        doc = json.loads((out / "summary.json").read_text())
        assert doc["qp_gap_within_5dt"] is True

    def test_qp_oracle_rejects_diffusion(self, tmp_path, capsys):
        assert run(["verify", "--preset", "full", "--n-steps", "16",
                    "--verify", "qp-oracle", "--out", tmp_path / "o"]) == 1
        assert "zero diffusion" in capsys.readouterr().err

    def test_case_verification_runs_per_preset(self, tmp_path):
        out = tmp_path / "run"
        assert run(["verify", "--preset", "state-delay", "--n-steps", "24",
                    "--verify", "residuals,cases", "--out", out]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert "caseii_ode_late" in doc
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "node,pointwise,evolution,boundary"
        assert len(lines) == 26

    def test_unknown_toggle_rejected(self, tmp_path, capsys):
        assert run(["verify", "--preset", "tanh", "--verify", "bogus",
                    "--out", tmp_path / "o"]) == 1


class TestArgumentChecks:
    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "full", "--n-steps", "10"],
        ["solve", "--preset", "full", "--n-steps", "0"],
        ["solve", "--n-steps", "-4"],
        ["simulate", "--preset", "full", "--n-steps", "8", "--n-paths", "0"],
    ])
    def test_bad_arguments_exit_one_without_traceback(self, argv, tmp_path):
        # a separate interpreter, so an escaping exception would show up
        # on stderr as it does for a user
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(dl.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "delaylq.cli", *argv,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("validation: ")
        assert not (tmp_path / "o").exists()


class TestReproducibility:
    def test_identical_config_and_seed_byte_identical_summary(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["simulate", "--preset", "full", "--n-steps", "24",
                        "--n-paths", "64", "--seed", "99", "--out", out]) == 0
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]
