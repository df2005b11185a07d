"""Traced CLI invocation: spans around the calls into each dlesim module.

    python3 bench/tracer.py SPANS.json <dlesim arguments...>

runs ``dlesim.cli.main`` in this process after replacing the module
attributes the pipelines call through (``cli.propagate``,
``engine.next_order``, ``model.HilbertSpace``, ...) with wrappers that
record a span (name, start, end, parent) per call.  Spans stay in memory
and are written to SPANS.json when the command ends.  ExpPoly
construction is too frequent for one span per call, so it is only counted
and timed at the outermost call.  The program itself is not changed.

``layer_metrics`` turns one spans file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

ORDERS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.exppoly_depth = 0
        self.exppoly_time = 0.0
        self.exppoly_constructs = 0

    def count(self, name: str, value: float, combine=lambda a, b: a + b) -> None:
        self.counters[name] = combine(self.counters[name], value) if name in self.counters else value

    def span(self, name, fn, after=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's arguments."""

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                label = name(*args) if callable(name) else name
                self.spans[sid] = (label, start, end, parent)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def exppoly(self, fn, counts_construct: bool):
        """Count ExpPoly constructions; time only the outermost call."""

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if counts_construct:
                self.exppoly_constructs += 1
            if self.exppoly_depth:
                return fn(*args, **kwargs)
            self.exppoly_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exppoly_time += perf_counter() - start
                self.exppoly_depth = 0

        return traced

    def install(self) -> None:
        from dlesim import cli, engine, exppoly, model, propagator

        def order_table(table) -> None:
            polys = table.coefficients.values()
            self.count(f"engine.order{table.order}_support", len(table.coefficients))
            self.count(f"engine.order{table.order}_terms", sum(len(p) for ps in polys for p in ps))

        cli.load_config = self.span("cli.load_config", cli.load_config)
        cli.write_csv = self.span(
            "cli.csv", cli.write_csv,
            lambda _, path, header, rows: self.count("cli.csv_rows", len(rows)))
        cli._sweep_point = self.span("cli.sweep_point", cli._sweep_point)
        cli._closedform_column = self.span("closedform2q.column", cli._closedform_column)
        closedform_state = cli.closedform_state

        def counted_closedform(*args):
            self.count("closedform2q.evals", 1)
            return closedform_state(*args)

        cli.closedform_state = counted_closedform
        cli.propagate = self.span(
            "propagator.propagate", cli.propagate,
            lambda traj, *_: self.count("propagator.samples", len(traj.times)))
        cli.run_to_order = self.span("engine.build", cli.run_to_order)
        model.HilbertSpace = self.span(
            "hilbert.space", model.HilbertSpace,
            lambda space, *_: self.count("hilbert.dim", space.dim, max))
        propagator.hamiltonian_matrix = self.span("model.hamiltonian", propagator.hamiltonian_matrix)
        grid = self.span(
            "model.grid", model.switching_grid,
            lambda edges, *_: self.count("model.segments", len(edges) - 1))
        propagator.switching_grid = engine.switching_grid = grid
        propagator._SegmentPropagator = self.span("propagator.decompose", propagator._SegmentPropagator)
        for method in ("excitation_probabilities", "photon_expectations", "norms"):
            setattr(propagator.Trajectory, method,
                    self.span("propagator.observables", getattr(propagator.Trajectory, method)))
        engine.zeroth_order = self.span(
            "engine.order0", engine.zeroth_order,
            lambda solution, *_: order_table(solution.tables[0]))
        engine.next_order = self.span(
            lambda prev: f"engine.order{prev.order + 1}", engine.next_order,
            lambda table, *_: order_table(table))
        engine.pert_excitation_probability = self.span("engine.eval", engine.pert_excitation_probability)
        exppoly.ExpPoly.__init__ = self.exppoly(exppoly.ExpPoly.__init__, True)
        engine.linear_combination = self.exppoly(engine.linear_combination, False)

    def dump(self, path: str) -> None:
        self.counters["exppoly.constructs"] = self.exppoly_constructs
        self.counters["exppoly.construct_s"] = self.exppoly_time
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation; 0 for a layer it never called."""
    durations: dict[str, list[float]] = {}
    for name, start, end, _ in trace["spans"]:
        durations.setdefault(name, []).append(end - start)
    counters = trace["counters"]

    def total(name: str) -> float:
        return float(sum(durations.get(name, ())))

    points = durations.get("cli.sweep_point", [])
    metrics = {
        "cli.load_config_s": total("cli.load_config"),
        "cli.csv_s": total("cli.csv"),
        "cli.csv_rows": counters.get("cli.csv_rows", 0),
        "cli.sweep_point_s": statistics.median(points) if points else 0.0,
        "cli.sweep_points_sum_s": total("cli.sweep_point"),
        "hilbert.space_s": total("hilbert.space"),
        "hilbert.dim": counters.get("hilbert.dim", 0),
        "model.hamiltonian_s": total("model.hamiltonian"),
        "model.grid_s": total("model.grid"),
        "model.segments": counters.get("model.segments", 0),
        "propagator.propagate_s": total("propagator.propagate"),
        "propagator.decompose_s": total("propagator.decompose"),
        "propagator.observables_s": total("propagator.observables"),
        "propagator.samples": counters.get("propagator.samples", 0),
    }
    for j in ORDERS:
        metrics[f"engine.order{j}_s"] = total(f"engine.order{j}")
    metrics["engine.build_s"] = total("engine.build")
    metrics["engine.self_s"] = metrics["engine.build_s"] - counters["exppoly.construct_s"]
    metrics["engine.eval_s"] = total("engine.eval")
    metrics["engine.evals"] = len(durations.get("engine.eval", ()))
    for j in ORDERS:
        metrics[f"engine.order{j}_terms"] = counters.get(f"engine.order{j}_terms", 0)
        metrics[f"engine.order{j}_support"] = counters.get(f"engine.order{j}_support", 0)
    metrics["exppoly.constructs"] = counters["exppoly.constructs"]
    metrics["exppoly.construct_s"] = counters["exppoly.construct_s"]
    metrics["closedform2q.column_s"] = total("closedform2q.column")
    metrics["closedform2q.evals"] = counters.get("closedform2q.evals", 0)
    return metrics


def main(argv: list[str]) -> int:
    spans_path, *cli_args = argv
    tracer = Tracer()
    tracer.install()
    from dlesim import cli

    status = cli.main(cli_args)
    tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
