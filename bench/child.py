"""One benchmark operation: a fresh process that runs one delaylq CLI command.

Usage: python3 child.py --result RESULT.json [--trace spans|alloc] -- <cli argv...>

The process times ``import delaylq, delaylq.cli`` (set-up), then
``delaylq.cli.main(argv)`` (the operation), and writes a JSON record with
the exit code, both times, ``ru_maxrss`` and the bytes the command wrote
under its ``--out`` directory.

With ``--trace spans`` every public function of every ``delaylq`` module is
wrapped, at each module attribute that binds it, by a span recorder, so
calls made through ``from .x import f`` bindings are seen as well.  Spans
stay in memory until the command returns; the record then carries the
spans and the per-layer metrics derived from them.  ``--trace alloc``
also runs ``tracemalloc`` over each ``solve_riccati`` call for its peak
allocation; that slows the sweep severalfold in places, so the driver
takes timings only from ``spans`` operations.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
import tracemalloc

#: Per-layer timing metric -> the span ("module.function") it covers.
#: A span's self time (duration minus its child spans) is charged to the
#: nearest enclosing span named here, so ``simulate.closed_loop`` excludes
#: the ``path_costs`` it calls while ``problem.load`` keeps the parsing
#: helpers it calls.
NAMED_SPANS = {
    "problem.validate": "problem.validate",
    "problem.load": "problem.load_problem",
    "volterra.build": "volterra.build_volterra",
    "riccati.solve": "riccati.solve_riccati",
    "riccati.residual": "riccati.riccati_residual",
    "adjoint.solve": "adjoint.solve_adjoint",
    "adjoint.synth": "adjoint.synthesize_feedback",
    "adjoint.causal_gains": "adjoint.causal_gains",
    "simulate.brownian": "simulate.gen_brownian",
    "simulate.closed_loop": "simulate.simulate_closed_loop",
    "simulate.path_costs": "simulate.path_costs",
    "simulate.open_loop": "simulate.simulate_open_loop",
    "oracles.casei_extract": "oracles.casei_extract",
    "oracles.casei_residual": "oracles.casei_residual",
    "oracles.qp": "oracles.deterministic_qp_oracle",
}

#: Modules whose summed self time is reported as ``<module>.self_s``.
MODULES = ("cli", "problem", "presets", "volterra", "riccati", "adjoint",
           "simulate", "oracles")

_SPAN_TO_METRIC = {span: metric for metric, span in NAMED_SPANS.items()}
_MB = 1024.0 * 1024.0


def array_bytes(obj) -> int:
    """Computed nbytes of the arrays an object holds, each buffer once.

    Looks at the object's attributes and at tuples/lists among them; the
    ``source`` problem a lifted problem keeps is input, not result.
    """
    import numpy as np  # not at module level: set-up timing includes it

    seen: dict[int, int] = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            root = value
            while isinstance(root.base, np.ndarray):
                root = root.base
            seen[id(root)] = root.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit(item)

    for name, value in vars(obj).items():
        if name != "source":
            visit(value)
    return sum(seen.values())


class Tracer:
    """Span recorder installed over the public functions of ``delaylq``."""

    def __init__(self, measure_alloc: bool) -> None:
        self.measure_alloc = measure_alloc
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.riccati_peak_alloc = 0
        self.riccati_result_bytes = 0
        self.volterra_result_bytes = 0
        self.path_steps = 0
        self.closed_loop_paths = 0
        self.closed_loop_unflagged = 0

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "delaylq"
                                         or name.startswith("delaylq."))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap(self, name: str, fn):
        measure_alloc = self.measure_alloc and name == "riccati.solve_riccati"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            if measure_alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.riccati_peak_alloc = max(self.riccati_peak_alloc,
                                                  peak)
                self._stack.pop()
            try:
                self._record(name, result)
            except AttributeError:
                pass  # result type changed shape; its computed counts stay 0
            return result

        return wrapper

    def _record(self, name: str, result) -> None:
        if name == "riccati.solve_riccati":
            self.riccati_result_bytes += array_bytes(result)
        elif name == "volterra.build_volterra":
            self.volterra_result_bytes += array_bytes(result)
        elif name in ("simulate.simulate_closed_loop",
                      "simulate.simulate_open_loop"):
            n_paths, n_nodes = result.x.shape[:2]
            self.path_steps += n_paths * (n_nodes - 1)
            if name == "simulate.simulate_closed_loop":
                self.closed_loop_paths += n_paths
                self.closed_loop_unflagged += int((~result.flagged).sum())

    def layer_metrics(self, op_s: float) -> dict:
        """Per-layer metrics of one operation, from its spans."""
        spans = self.spans
        excl = [s["end"] - s["start"] for s in spans]
        for s in spans:
            if s["parent"] is not None:
                excl[s["parent"]] -= s["end"] - s["start"]
        metrics = {}
        for metric in NAMED_SPANS:
            metrics[metric + "_s"] = 0.0
            metrics[metric + "_calls"] = 0
        for module in MODULES:
            metrics[module + ".self_s"] = 0.0
        for i, s in enumerate(spans):
            metric = _SPAN_TO_METRIC.get(s["name"])
            if metric is not None:
                metrics[metric + "_calls"] += 1
            owner = i
            while owner is not None and spans[owner]["name"] not in _SPAN_TO_METRIC:
                owner = spans[owner]["parent"]
            if owner is not None:
                metrics[_SPAN_TO_METRIC[spans[owner]["name"]] + "_s"] += excl[i]
            module = s["name"].split(".", 1)[0]
            if module in MODULES:
                metrics[module + ".self_s"] += excl[i]
        for module in MODULES:
            metrics[module + ".share"] = metrics[module + ".self_s"] / op_s
        metrics["riccati.peak_alloc_mb"] = self.riccati_peak_alloc / _MB
        metrics["riccati.result_mb"] = self.riccati_result_bytes / _MB
        metrics["volterra.result_mb"] = self.volterra_result_bytes / _MB
        metrics["simulate.path_steps"] = self.path_steps
        metrics["simulate.unflagged_ratio"] = (
            self.closed_loop_unflagged / self.closed_loop_paths
            if self.closed_loop_paths else 1.0)
        metrics["trace.spans"] = len(spans)
        return metrics


def _bytes_under(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    trace = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    t0 = time.perf_counter()
    import delaylq.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace:
        tracer = Tracer(measure_alloc=trace == "alloc")
        tracer.install()
    t1 = time.perf_counter()
    code = delaylq.cli.main(argv)
    op_s = time.perf_counter() - t1

    record = {
        "exit_code": code,
        "setup_s": setup_s,
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": _bytes_under(argv[argv.index("--out") + 1]),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(op_s)
        record["layers"]["cli.bytes_written"] = record["bytes_written"]
        record["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
