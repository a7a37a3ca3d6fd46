"""Delayed LQ problem instances: construction, validation, serialization.

Coefficients are node samples on the uniform grid (piecewise constant on
[t_j, t_{j+1})).  Two-time kernels are dense (N+1, N+1, ...) arrays whose
meaningful entries sit strictly below the diagonal (second index < first).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ProblemValidationError
from .grid import TimeGrid

_PSD_TOL = 1e-10
_SYM_TOL = 1e-12

#: The deterministic free terms of the drift and the diffusion.
FREE_TERMS = ("b", "sigma")

#: The two-time kernels, meaningful only strictly below the diagonal.
KERNELS = ("F", "Ftilde")


def field_shapes(n: int, m: int, nn: int, k: int) -> dict:
    """Every array field of DelayLQProblem with its shape, in declaration
    order, for state dimension n, control dimension m, nn = N+1 grid
    nodes and k delay steps."""
    sq, mix, ctrl = (nn, n, n), (nn, n, m), (nn, m, m)
    return {
        "A1": sq, "A2": sq, "A3": sq, "B1": mix, "B2": mix, "B3": sq,
        "C1": sq, "C2": sq, "C3": sq, "D1": mix,
        "Q1": sq, "Q2": sq, "Q3": sq, "R1": ctrl, "R2": ctrl,
        "b": (nn, n), "sigma": (nn, n),
        "F": (nn, nn, n, n), "Ftilde": (nn, nn, n, m),
        "xi": (k + 1, n), "varsigma": (k, m),
    }


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics from validate(); empty violations means admissible."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            raise ProblemValidationError(self.violations)


@dataclass(frozen=True)
class DelayLQProblem:
    """All data of the delayed LQ control problem, sampled on the grid.

    State dimension n, control dimension m.  Shapes:

    - A1,A2,A3,C1,C2,C3,Q1,Q2,Q3: (N+1, n, n)
    - B1,B2,D1: (N+1, n, m); B3: (N+1, n, n) (it multiplies the
      distributed control-delay vector, which is n-dimensional)
    - R1,R2: (N+1, m, m)
    - b, sigma: (N+1, n) deterministic free terms
    - F: (N+1, N+1, n, n), Ftilde: (N+1, N+1, n, m), entries for s < t
    - xi: (k+1, n) initial state trajectory on [t0-delay, t0]
    - varsigma: (k, m) initial control trajectory on [t0-delay, t0)
    - lam: declared coercivity constant for R1(t) + R2(t+delay)
    """

    grid: TimeGrid
    n: int
    m: int
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B3: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    C3: np.ndarray
    D1: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    Q3: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    F: np.ndarray
    Ftilde: np.ndarray
    xi: np.ndarray
    varsigma: np.ndarray
    lam: float

    def nonzero(self, *names: str) -> tuple[str, ...]:
        """The fields among ``names`` that hold a nonzero entry, in order."""
        return tuple(nm for nm in names if np.any(getattr(self, nm)))

    @property
    def homogeneous(self) -> bool:
        """Whether the free terms vanish."""
        return not self.nonzero(*FREE_TERMS)

    @property
    def has_memory(self) -> bool:
        """Whether the control memory channel B3 Ftilde is live."""
        return len(self.nonzero("B3", "Ftilde")) == 2


def empty_problem(grid: TimeGrid, n: int, m: int, lam: float = 1.0) -> DelayLQProblem:
    """Problem with every coefficient, kernel, and trajectory zero."""
    shapes = field_shapes(n, m, grid.N + 1, grid.delay_steps)
    return DelayLQProblem(grid=grid, n=n, m=m, lam=lam,
                          **{name: np.zeros(shape)
                             for name, shape in shapes.items()})


def validate(problem: DelayLQProblem) -> ValidationReport:
    """Check every admissibility invariant; diagnostics, never raises."""
    v: list[str] = []
    g = problem.grid
    n, m, nn, k = problem.n, problem.m, g.N + 1, g.delay_steps

    if not g.delay_is_grid_multiple:
        v.append(
            f"delay not a grid multiple: delay={g.delay}, dt={g.dt} "
            f"(nearest multiple {g.delay_steps}*dt={g.delay_steps * g.dt})"
        )
    lam_ok = 0 < problem.lam < np.inf       # False for NaN
    if not lam_ok:
        v.append(f"coercivity constant must be positive and finite, got "
                 f"lam={problem.lam}")

    shapes = field_shapes(n, m, nn, k)
    bad_shapes = [
        f"{name}: expected shape {shape}, got {np.shape(getattr(problem, name))}"
        for name, shape in shapes.items()
        if np.shape(getattr(problem, name)) != shape
    ]
    if bad_shapes:
        return ValidationReport(tuple(v + bad_shapes))

    for name in shapes:
        if not np.isfinite(getattr(problem, name)).all():
            v.append(f"{name}: non-finite entries")

    # two-time kernels live strictly below the diagonal
    triu = np.triu_indices(nn)
    for name in KERNELS:
        kern = getattr(problem, name)
        if np.abs(kern[triu]).max() > 0:
            v.append(f"{name}: nonzero entries on or above the diagonal "
                     f"(kernels are defined only for s < t)")

    for name in ("Q1", "Q2", "Q3"):
        q = getattr(problem, name)
        asym = np.abs(q - q.transpose(0, 2, 1)).max()
        if asym > _SYM_TOL:
            v.append(f"{name}: not symmetric (max asymmetry {asym:.3e})")
        else:
            mins = np.linalg.eigvalsh(q).min(axis=-1)
            bad = np.where(mins < -_PSD_TOL)[0]
            if bad.size:
                j = int(bad[0])
                v.append(
                    f"{name}: not positive semidefinite at node {j} "
                    f"(min eigenvalue {mins[j]:.3e})"
                )

    for name in ("R1", "R2"):
        r = getattr(problem, name)
        asym = np.abs(r - r.transpose(0, 2, 1)).max()
        if asym > _SYM_TOL:
            v.append(f"{name}: not symmetric (max asymmetry {asym:.3e})")

    # effective control weight R1(t_j) + R2(t_{j+k}) while j < N-k
    reff = problem.R1.copy()
    if k < g.N:
        reff[: g.N - k] += problem.R2[k : g.N]
    reff = 0.5 * (reff + reff.transpose(0, 2, 1))
    mins = np.linalg.eigvalsh(reff).min(axis=-1)
    bad = np.where(mins < problem.lam - _PSD_TOL)[0] if lam_ok else ()
    for j in bad:
        v.append(
            f"coercivity failure at node {int(j)}: min eigenvalue "
            f"{mins[j]:.6e} < lam={problem.lam}"
        )

    return ValidationReport(tuple(v))


def from_extended_sdde(base: DelayLQProblem, G1, G2) -> DelayLQProblem:
    """Reduce the moving-window form to the canonical delayed problem.

    The window kernels G1 (N+1, k+1, n, n) and G2 (N+1, k+1, n, m) act on
    [t-delay, t] and are stored lag-indexed: G1[i, d] multiplies the
    state at t_i - d*dt, d = 0..k (the second argument may precede t0).
    ``base`` holds every other coefficient; its free terms b and sigma
    stand for the window form's btilde and sigtilde, and its own kernels
    F and Ftilde must be zero.

    The window integrals over the initial segment are absorbed into the
    free terms by left-rectangle quadrature; the kernels are restricted
    to second arguments in [t0, t) intersected with the window.
    """
    g = base.grid
    n, m, nn, k, dt = base.n, base.m, g.N + 1, g.delay_steps, g.dt
    problems = [f"{name}: the base problem's kernel must be zero (the "
                f"window kernels G1, G2 replace it)"
                for name in base.nonzero(*KERNELS)]
    for name, window, shape in (("G1", G1, (nn, k + 1, n, n)),
                                ("G2", G2, (nn, k + 1, n, m))):
        if np.shape(window) != shape:
            problems.append(f"{name}: expected shape {shape}, "
                            f"got {np.shape(window)}")
    if problems:
        raise ProblemValidationError(problems)

    # initial-window integrals: gw1[i] = sum_{p=i..k-1} G1(t_i, t0+(p-k)dt) xi[p] dt
    gw1 = np.zeros((nn, n))
    gw2 = np.zeros((nn, n))
    for i in range(min(k, nn)):
        acc1 = np.zeros(n)
        acc2 = np.zeros(n)
        for p in range(i, k):
            d = i - (p - k)  # lag steps of the sample at t0+(p-k)dt behind t_i
            acc1 += G1[i, d] @ base.xi[p] * dt
            acc2 += G2[i, d] @ base.varsigma[p] * dt
        gw1[i] = acc1
        gw2[i] = acc2

    b = base.b + np.einsum("jab,jb->ja", base.A3, gw1) \
        + np.einsum("jab,jb->ja", base.B3, gw2)
    sigma = base.sigma + np.einsum("jab,jb->ja", base.C3, gw1)

    i, j = np.tril_indices(nn, -1)
    i, j = i[i - j <= k], j[i - j <= k]
    F = np.zeros((nn, nn, n, n))
    Ftilde = np.zeros((nn, nn, n, m))
    F[i, j] = G1[i, i - j]
    Ftilde[i, j] = G2[i, i - j]

    return replace(base, b=b, sigma=sigma, F=F, Ftilde=Ftilde)


# ----------------------------------------------------------------------
# JSON serialization.  Scalars, coefficient tables as arrays of row-major
# matrices, kernels as triangular arrays, trajectories as arrays.
# ----------------------------------------------------------------------

def _kernel_to_triangular(kern: np.ndarray) -> list:
    return [[kern[i, j].tolist() for j in range(i)] for i in range(kern.shape[0])]


def _kernel_from_triangular(name: str, rows: list, shape: tuple) -> np.ndarray:
    nn = shape[0]
    if len(rows) > nn:
        raise ValueError(f"{name}: {len(rows)} rows, more than the {nn} "
                         f"grid nodes")
    kern = np.zeros(shape)
    for i, row in enumerate(rows):
        if len(row) > nn:
            raise ValueError(f"{name}: row {i} has {len(row)} entries, more "
                             f"than the {nn} grid nodes")
        for j, mat in enumerate(row):
            kern[i, j] = np.asarray(mat, dtype=float)
    return kern


def problem_to_dict(problem: DelayLQProblem) -> dict:
    g = problem.grid
    doc = {
        "t0": g.t0, "T": g.T, "N": g.N, "delay_steps": g.delay_steps,
        "n": problem.n, "m": problem.m, "lambda": problem.lam,
    }
    for name in field_shapes(problem.n, problem.m, g.N + 1, g.delay_steps):
        arr = getattr(problem, name)
        doc[name] = (_kernel_to_triangular(arr) if name in KERNELS
                     else arr.tolist())
    return doc


def _whole(doc: dict, key: str) -> int:
    """The header field ``key`` as an int; a JSON number that is not a
    whole number is an error, not truncated."""
    value = doc[key]
    whole = (isinstance(value, int) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer())
    if not whole:
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def problem_from_dict(doc: dict) -> DelayLQProblem:
    """The problem a document describes; a non-kernel table whose shape the
    header contradicts is a parse error, raised before the kernels are sized."""
    N = _whole(doc, "N")
    k = _whole(doc, "delay_steps")
    n, m = _whole(doc, "n"), _whole(doc, "m")
    for key, value in (("N", N), ("n", n), ("m", m)):
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
    t0, T = float(doc["t0"]), float(doc["T"])
    dt = (T - t0) / N
    grid = TimeGrid(t0=t0, T=T, N=N, delay=k * dt)
    # the tables' shapes must match the header before it sizes the kernels
    shapes = field_shapes(n, m, N + 1, k)
    arrays = {name: np.asarray(doc[name], dtype=float)
              for name in shapes if name not in KERNELS}
    for name, arr in arrays.items():
        if arr.shape != shapes[name]:
            raise ValueError(f"{name}: the header declares shape "
                             f"{shapes[name]}, the table has shape {arr.shape}")
    for name in KERNELS:
        arrays[name] = _kernel_from_triangular(name, doc[name], shapes[name])
    return DelayLQProblem(grid=grid, n=n, m=m, lam=float(doc["lambda"]),
                          **arrays)


def save_problem(problem: DelayLQProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh)


def load_problem(path) -> DelayLQProblem:
    with open(path) as fh:
        doc = json.load(fh)
    return problem_from_dict(doc)
