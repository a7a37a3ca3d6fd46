"""Named problem instances covering every solver regime.

All presets are scalar (n = m = 1) on [0, 1] with delay 0.25 so that
each acceptance check runs without hand-written configs.  Step counts
are divisible by 4 to keep the delay on the grid.
"""

from __future__ import annotations

import numpy as np

from .grid import TimeGrid
from .problem import DelayLQProblem, empty_problem

#: Preset step counts must be multiples of this (delay 0.25 on [0, 1]).
STEP_MULTIPLE = 4

PRESET_NAMES = ("tanh", "input-delay", "state-delay", "distributed",
                "pointwise", "full")

_DEFAULT_STEPS = {
    "tanh": 100,
    "input-delay": 80,
    "state-delay": 80,
    "distributed": 60,
    "pointwise": 60,
    "full": 60,
}


def _scalar_grid(n_steps: int) -> TimeGrid:
    if n_steps % STEP_MULTIPLE != 0:
        raise ValueError(f"preset step counts must be divisible by "
                         f"{STEP_MULTIPLE} (delay 0.25 on [0, 1])")
    return TimeGrid(t0=0.0, T=1.0, N=n_steps, delay=0.25)


def _fill(problem: DelayLQProblem, **constants) -> DelayLQProblem:
    for name, value in constants.items():
        getattr(problem, name)[:] = value
    return problem


def _kernel_fill(problem: DelayLQProblem, name: str, scale: float) -> None:
    """Two-time kernel scale * exp(-(t-s)) * (1 + 0.5 s) on s < t."""
    g = problem.grid
    nodes = g.nodes()
    kern = getattr(problem, name)
    for i in range(1, g.N + 1):
        gap = nodes[i] - nodes[:i]
        vals = scale * np.exp(-gap) * (1.0 + 0.5 * nodes[:i])
        kern[i, :i] = vals[:, None, None]


def _ramp_window(problem: DelayLQProblem, lo: float, hi: float) -> None:
    k = problem.grid.delay_steps
    ramp = lo + (hi - lo) * np.arange(k + 1) / k
    problem.xi[:] = ramp[:, None]


def preset_problem(name: str, n_steps: int | None = None) -> DelayLQProblem:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    N = n_steps if n_steps is not None else _DEFAULT_STEPS[name]
    grid = _scalar_grid(N)
    p = empty_problem(grid, n=1, m=1, lam=1.0)

    if name == "tanh":
        _fill(p, B1=1.0, Q1=1.0, R1=1.0)
        p.xi[:] = 1.0
    elif name == "input-delay":
        _fill(p, B2=1.0, Q1=1.0, R1=1.0)
        p.xi[:] = 1.0
    elif name == "state-delay":
        _fill(p, A2=0.5, B1=1.0, Q1=1.0, R1=1.0)
        p.xi[:] = 1.0
    elif name == "distributed":
        _fill(p, A1=-0.3, A3=0.8, B1=1.0, B3=0.4, C1=0.2, C3=0.1,
              D1=0.2, Q1=1.0, Q3=0.4, R1=1.0)
        _kernel_fill(p, "F", 0.6)
        _kernel_fill(p, "Ftilde", 0.5)
        p.xi[:] = 1.0
    elif name == "pointwise":
        _fill(p, A1=-0.2, A2=0.4, B1=1.0, B2=0.5, C1=0.2, C2=0.1,
              D1=0.2, Q1=1.0, Q2=0.3, R1=1.0, R2=0.2)
        _ramp_window(p, 1.0, 1.3)
        p.varsigma[:] = 0.1
    else:  # full
        _fill(p, A1=-0.5, A2=0.4, A3=0.3, B1=1.0, B2=0.6, B3=0.4,
              C1=0.25, C2=0.15, C3=0.1, D1=0.2,
              Q1=3.0, Q2=0.3, Q3=0.2, R1=1.0, R2=0.3,
              b=0.1, sigma=0.25)
        _kernel_fill(p, "F", 0.5)
        _kernel_fill(p, "Ftilde", 0.3)
        _ramp_window(p, 1.0, 1.4)
        p.varsigma[:] = 0.2
    return p
