"""Stochastic linear-quadratic optimal control with state and control
delays, solved through a delay-free stochastic Volterra lifting."""

from .adjoint import FeedbackStrategy, synthesize_feedback, value_function
from .exceptions import DelayLQError, NumericalError, ProblemValidationError
from .grid import TimeGrid
from .problem import (DelayLQProblem, ValidationReport, empty_problem,
                      from_extended_sdde, load_problem, problem_from_dict,
                      problem_to_dict, save_problem, validate)
from .presets import PRESET_NAMES, preset_problem
from .riccati import (RiccatiResiduals, RiccatiSolution, riccati_residual,
                      solve_riccati)
from .simulate import (BrownianBatch, CostEstimate, DerivativeEstimate,
                       SimulationBatch, estimate_cost, gen_brownian,
                       simulate_closed_loop, simulate_open_loop,
                       stationarity_test)
from .volterra import (VolterraProblem, build_volterra, cost_volterra,
                       lift_state, lifted_kernel)

__all__ = [
    "BrownianBatch", "CostEstimate",
    "DelayLQError", "DelayLQProblem", "DerivativeEstimate",
    "FeedbackStrategy", "NumericalError", "PRESET_NAMES",
    "ProblemValidationError", "RiccatiResiduals", "RiccatiSolution",
    "SimulationBatch", "TimeGrid", "ValidationReport", "VolterraProblem",
    "build_volterra", "cost_volterra",
    "empty_problem", "estimate_cost", "from_extended_sdde", "gen_brownian",
    "lift_state", "lifted_kernel", "load_problem", "preset_problem",
    "problem_from_dict", "problem_to_dict", "riccati_residual",
    "save_problem", "simulate_closed_loop", "simulate_open_loop",
    "solve_riccati", "stationarity_test",
    "synthesize_feedback", "validate", "value_function",
]

__version__ = "0.1.0"
