"""Public surface: what `import delaylq` re-exports."""

import delaylq as dl

PUBLIC_NAMES = [
    "AdjointSolution", "BrownianBatch", "CausalGains", "CostEstimate",
    "DelayLQError", "DelayLQProblem", "DerivativeEstimate",
    "FeedbackStrategy", "NumericalError", "PRESET_NAMES",
    "ProblemValidationError", "RiccatiResiduals", "RiccatiSolution",
    "SimulationBatch", "TimeGrid", "ValidationReport", "VolterraProblem",
    "build_volterra", "causal_gains", "cost_volterra",
    "empty_problem", "estimate_cost", "from_extended_sdde", "gen_brownian",
    "lift_state", "lifted_kernel", "load_problem", "preset_problem",
    "problem_from_dict", "problem_to_dict", "riccati_residual",
    "save_problem", "simulate_closed_loop", "simulate_open_loop",
    "solve_adjoint", "solve_riccati", "stationarity_test",
    "synthesize_feedback", "validate", "value_function",
]


def test_all_is_pinned_to_the_public_names():
    # verification helpers (star products, regrouped evaluators, pointwise
    # reference forms) live in delaylq.oracles and are not re-exported
    assert sorted(dl.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(dl.__all__)) == len(dl.__all__)
    for name in dl.__all__:
        assert hasattr(dl, name), name
