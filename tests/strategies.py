"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import delaylq as dl
from delaylq.problem import KERNELS, field_shapes

#: the weights drawn as Gram matrices, so they are symmetric PSD
_GRAM = ("Q1", "Q2", "Q3", "R1", "R2")


@st.composite
def admissible_problems(draw, n_steps=st.integers(4, 8), full_delay=False):
    """An admissible problem on a short grid: n, m in {1, 2}, N from
    ``n_steps`` (in [4, 8]), k in [1, N] delay steps (k = N, the delay at
    the horizon, with ``full_delay``), every field of ``field_shapes``
    drawn with entries in [-1, 1], the kernels strictly below the
    diagonal, and the
    weights Q_i = L L^T, R1 = lam I + M M^T and R2 = K K^T, so that
    R1(t) + R2(t + delay) >= lam I."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    N = draw(n_steps)
    k = N if full_delay else draw(st.integers(1, N))
    grid = dl.TimeGrid(t0=0.0, T=1.0, N=N, delay=k / N)
    lam = draw(st.floats(0.5, 2.0))
    values = st.floats(-1.0, 1.0)
    fields = {}
    for name, shape in field_shapes(n, m, N + 1, k).items():
        arr = draw(arrays(np.float64, shape, elements=values))
        if name in KERNELS:
            arr[np.triu_indices(N + 1)] = 0.0
        if name in _GRAM:
            arr = arr @ arr.transpose(0, 2, 1)
        fields[name] = arr
    fields["R1"] += lam * np.eye(m)
    return dl.DelayLQProblem(grid=grid, n=n, m=m, lam=lam, **fields)


def unsolvable_draw() -> dl.DelayLQProblem:
    """A draw of ``admissible_problems``' fields that the explicit sweep
    cannot solve, although its weights meet the bounds in continuous time:
    on N = 4 with k = 1, A2 = B1 = D1 all ones, Q1 = 2 (all
    ones) and R1 = I, the effective control weight at node 1 has the
    eigenvalue -1.4375."""
    N, k, n, m = 4, 1, 2, 2
    grid = dl.TimeGrid(t0=0.0, T=1.0, N=N, delay=k / N)
    fields = {name: np.zeros(shape)
              for name, shape in field_shapes(n, m, N + 1, k).items()}
    for name in ("A2", "B1", "D1"):
        fields[name][:] = 1.0
    fields["Q1"][:] = 2.0
    fields["R1"][:] = np.eye(m)
    return dl.DelayLQProblem(grid=grid, n=n, m=m, lam=1.0, **fields)
