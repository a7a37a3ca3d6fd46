"""Shared fixtures: memoized solve pipelines so test modules reuse work."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

import delaylq as dl
from evaluators import with_scaled_weights


@dataclass(frozen=True)
class Solved:
    problem: dl.DelayLQProblem
    vp: dl.VolterraProblem
    P: dl.RiccatiSolution
    strategy: dl.FeedbackStrategy


@lru_cache(maxsize=32)
def _solve_preset(name: str, n_steps: int, weight_scale: float = 1.0) -> Solved:
    problem = dl.preset_problem(name, n_steps)
    if weight_scale != 1.0:
        problem = with_scaled_weights(problem, weight_scale)
    vp = dl.build_volterra(problem)
    P = dl.solve_riccati(vp)
    strategy = dl.synthesize_feedback(P, vp)
    return Solved(problem=problem, vp=vp, P=P, strategy=strategy)


@pytest.fixture(scope="session")
def solve_preset():
    return _solve_preset


def random_controls(problem, n_paths: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_paths, problem.grid.N + 1, problem.m))
