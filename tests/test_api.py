"""Public surface: what `import delaylq` re-exports and pulls in."""

import ast
import dataclasses
import os
import subprocess
import sys

import delaylq as dl

PUBLIC_NAMES = [
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


def test_all_is_pinned_to_the_public_names():
    # the oracles `verify` runs live in delaylq.oracles and are not
    # re-exported; the test-only evaluators (star products, regrouped
    # evaluators, pointwise reference forms) live in tests/evaluators.py
    assert sorted(dl.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(dl.__all__)) == len(dl.__all__)
    for name in dl.__all__:
        assert hasattr(dl, name), name


#: The lifted problem keeps every kernel as node data for the selector,
#: with only the memory rows' sums of the control kernel stored; a new
#: stored table shows up here.
VOLTERRA_FIELDS = ["grid", "n", "m", "phi", "Q", "R", "legacy_cost", "E",
                   "memory_sums", "Acal", "Ccal", "source"]


def test_volterra_problem_fields_are_pinned():
    fields = [f.name for f in dataclasses.fields(dl.VolterraProblem)]
    assert fields == VOLTERRA_FIELDS


def test_no_package_module_imports_from_tests():
    # reference forms live beside the tests; the package must not need them
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    test_modules = {"tests"} | {name[:-3] for name in os.listdir(tests_dir)
                                if name.endswith(".py")}
    package_dir = os.path.dirname(dl.__file__)
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in test_modules, (name, module)


def _package_references():
    """Each module-level definition of the package (function, class or
    assigned name), keyed by (module, name), with the identifiers its
    code refers to: names and attribute names.  Docstrings are string
    constants, so a name mentioned only there refers to nothing."""
    package_dir = os.path.dirname(dl.__file__)
    refs = {}
    for fname in sorted(os.listdir(package_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(package_dir, fname)) as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign):
                names = [stmt.target.id]
            else:
                continue
            used = {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt)
                    if isinstance(node, (ast.Name, ast.Attribute))}
            for name in names:
                refs[(fname[:-3], name)] = (stmt, used)
    return refs


def test_every_package_function_is_reachable_from_the_api_or_the_cli():
    # code that only the tests call belongs beside them; a name reached
    # through any definition of that name counts, so this over-approximates
    refs = _package_references()
    uses = {}
    for (_, name), (_, used) in refs.items():
        uses.setdefault(name, set()).update(used)
    seen, todo = set(), set(dl.__all__) | {"main"}
    while todo:
        name = todo.pop()
        seen.add(name)
        todo |= uses.get(name, set()) - seen
    unreachable = sorted(
        f"{module}.{name}" for (module, name), (stmt, _) in refs.items()
        if isinstance(stmt, ast.FunctionDef) and name not in seen)
    assert unreachable == []


# Each CLI command runs in a fresh process and pays for every module the
# package imports; importing scipy.linalg alone takes about 0.25 s.
NO_SCIPY_SCRIPT = """
import sys
import delaylq, delaylq.cli
for argv in (["solve", "--preset", "full", "--n-steps", "8"],
             ["verify", "--preset", "input-delay", "--n-steps", "8",
              "--verify", "residuals,cases,qp-oracle"]):
    code = delaylq.cli.main([*argv, "--out", sys.argv[1] + "/" + argv[0]])
    assert code == 0, (argv, code)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dl.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
