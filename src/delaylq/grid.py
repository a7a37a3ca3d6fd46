"""Uniform time grid with an integer-multiple delay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Relative tolerance for "delay is an integer multiple of the step".
_DELAY_MULTIPLE_RTOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Nodes t_j = t0 + j*dt, j = 0..N, with delay = delay_steps*dt.

    The delay is supplied as a duration; ``delay_steps`` is the rounded
    multiple and ``delay_is_grid_multiple`` records whether the rounding
    was exact.  Operations that need exact delayed-index lookups must
    check the flag (validate() reports it as a violation).
    """

    t0: float
    T: float
    N: int
    delay: float

    dt: float = field(init=False)
    delay_steps: int = field(init=False)
    delay_is_grid_multiple: bool = field(init=False)

    def __post_init__(self):
        if self.T <= self.t0:
            raise ValueError(f"need t0 < T, got t0={self.t0}, T={self.T}")
        if self.N < 2:
            raise ValueError(f"need N >= 2, got N={self.N}")
        if self.delay <= 0:
            raise ValueError(f"need delay > 0, got {self.delay}")
        dt = (self.T - self.t0) / self.N
        k = max(1, int(round(self.delay / dt)))
        exact = abs(k * dt - self.delay) <= _DELAY_MULTIPLE_RTOL * max(1.0, self.delay)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "delay_steps", k)
        object.__setattr__(self, "delay_is_grid_multiple", exact)

    def nodes(self) -> np.ndarray:
        """All N+1 grid nodes."""
        return self.t0 + self.dt * np.arange(self.N + 1)

    def time(self, j: int) -> float:
        return self.t0 + j * self.dt
