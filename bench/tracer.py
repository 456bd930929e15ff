"""Spans around the public functions of proxdyn, installed from outside.

:meth:`Tracer.installed` replaces the module attributes the CLI calls
(``dynamics.integrate``, ``lyapunov.monitor``, ``params.derive_params``,
``proxdyn.cli.problem_from_json`` and the rest) with wrappers that record a
span ``[name, start, end, parent, attrs]`` in memory, and restores them on
exit.  The objective the wrapped loader returns gets wrapped oracles; oracle
calls are too many to keep one span each, so they are summed per parent span
as ``[parent, oracle, calls, rows, seconds]``.  :func:`layer_metrics` turns
the spans of the traced rounds into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import statistics
from time import perf_counter

import numpy as np

ROUND = "round"
CLI = "cli"
ORACLES = ("grad", "prox", "eval")


def _steps(args, traj):
    return {"steps": int(round(traj.times[-1] / traj.step)) if len(traj.times) > 1 else 0}


def _rows(args, trace):
    return {"rows": len(trace.times)}


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _iterations(args, history):
    return {"iterations": int(history.iterations)}


def _patch_table(cli):
    """(span name, module, attribute, span attributes from (args, result))."""
    # Imported here: run.py uses this module's metrics and must not import proxdyn.
    from proxdyn import discrete, dynamics, lyapunov, params, rates

    return [
        (CLI, cli, "main", None),
        ("params.derive", params, "derive_params", None),
        ("params.report", params, "params_report", None),
        ("dynamics.integrate", dynamics, "integrate", _steps),
        ("dynamics.write_csv", dynamics, "write_trajectory_csv", _bytes),
        ("dynamics.read_csv", dynamics, "read_trajectory_csv", None),
        ("lyapunov.monitor", lyapunov, "monitor", _rows),
        ("lyapunov.check", lyapunov, "check_monotone", None),
        ("lyapunov.write_csv", lyapunov, "write_energy_csv", None),
        ("rates.classify", rates, "classify_rate", None),
        ("discrete.run", discrete, "run_inertial", _iterations),
        ("discrete.write_csv", discrete, "write_history_csv", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.oracles = {}
        self._stack = [-1]

    def span(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1], None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        return wrapper

    def oracle(self, name, fn, dim):
        oracles = self.oracles
        stack = self._stack

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            key = (stack[-1], name)
            agg = oracles.get(key)
            if agg is None:
                agg = oracles[key] = [0, 0, 0.0]
            agg[0] += 1
            agg[1] += np.size(args[-1]) // dim
            agg[2] += elapsed
            return result

        return wrapper

    def wrap_objective(self, obj):
        f = dataclasses.replace(obj.f, prox=self.oracle("prox", obj.f.prox, obj.dim),
                                eval=self.oracle("eval", obj.f.eval, obj.dim))
        g = dataclasses.replace(obj.g, grad=self.oracle("grad", obj.g.grad, obj.dim),
                                eval=self.oracle("eval", obj.g.eval, obj.dim))
        return dataclasses.replace(obj, f=f, g=g)

    @contextlib.contextmanager
    def installed(self, cli):
        """Trace every call the CLI makes into the layers while the block runs."""
        table = _patch_table(cli)
        saved = [(module, attr, getattr(module, attr)) for _, module, attr, _ in table]
        saved.append((cli, "problem_from_json", cli.problem_from_json))
        load = cli.problem_from_json
        try:
            for name, module, attr, attrs in table:
                setattr(module, attr, self.span(name, getattr(module, attr), attrs))
            cli.problem_from_json = self.span(
                "problems.load", lambda source: self.wrap_objective(load(source)))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def round(self):
        """A span that parents every span of one round of commands."""
        index = len(self.spans)
        self.spans.append([ROUND, perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def dump(self):
        return {
            "spans": self.spans,
            "oracles": [[parent, name, *agg] for (parent, name), agg in self.oracles.items()],
        }


# ---------------------------------------------------------------------------
# per-layer metrics from a dump


LAYER_TIMES = {
    "dynamics.integrate_s": "dynamics.integrate",
    "dynamics.write_csv_s": "dynamics.write_csv",
    "dynamics.read_csv_s": "dynamics.read_csv",
    "problems.load_s": "problems.load",
    "lyapunov.monitor_s": "lyapunov.monitor",
    "lyapunov.check_s": "lyapunov.check",
    "lyapunov.write_csv_s": "lyapunov.write_csv",
    "params.derive_s": "params.derive",
    "params.report_s": "params.report",
    "rates.classify_s": "rates.classify",
    "discrete.run_s": "discrete.run",
    "discrete.write_csv_s": "discrete.write_csv",
    "cli.self_s": CLI,
}

UNITS = {
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.field_evals_per_step": "evals/step",
    "dynamics.write_csv_mb": "MB",
    "lyapunov.monitor_rows": "count",
    "params.derive_calls": "count",
    "discrete.iterations": "count",
    "discrete.field_evals_per_iter": "evals/iter",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}
for _oracle in ORACLES:
    UNITS["problems.%s_calls" % _oracle] = "count"
    UNITS["problems.%s_s" % _oracle] = "s"
UNITS["problems.grad_rows"] = "count"
UNITS.update({name: "s" for name in LAYER_TIMES})

# Counts that two traced runs of the same inputs must give exactly.
COUNTS = sorted(name for name, unit in UNITS.items() if unit in ("count", "evals/step", "evals/iter", "MB"))


def _ratio(num, den):
    return num / den if den else 0.0


def round_metrics(dump):
    """Per-layer metrics of each traced round in ``dump``, in round order.

    A layer's time is its self time: the duration of its spans minus the
    spans and oracle calls directly below them.  ``dynamics.us_per_step``
    is the whole time inside ``integrate``, oracles included, per RK4 step.
    """
    spans, oracles = dump["spans"], dump["oracles"]
    root = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        root.append(i if name == ROUND else root[parent])
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for parent, _, _, _, seconds in oracles:
        child_time[parent] += seconds

    rounds = {i: {"_wall": span[2] - span[1], "_oracles": {}} for i, span in enumerate(spans) if span[0] == ROUND}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == ROUND:
            continue
        acc = rounds[root[i]]
        key = name + "._self"
        acc[key] = acc.get(key, 0.0) + (end - start) - child_time[i]
        key = name + "._total"
        acc[key] = acc.get(key, 0.0) + (end - start)
        acc[name + "._calls"] = acc.get(name + "._calls", 0) + 1
        for attr, value in (attrs or {}).items():
            acc[name + "." + attr] = acc.get(name + "." + attr, 0) + value
    for parent, name, calls, rows, seconds in oracles:
        per = rounds[root[parent]]["_oracles"].setdefault((spans[parent][0], name), [0, 0, 0.0])
        per[0] += calls
        per[1] += rows
        per[2] += seconds

    out = []
    for acc in rounds.values():
        m = {metric: acc.get(span + "._self", 0.0) for metric, span in LAYER_TIMES.items()}
        for oracle in ORACLES:
            m["problems.%s_calls" % oracle] = sum(v[0] for (_, o), v in acc["_oracles"].items() if o == oracle)
            m["problems.%s_s" % oracle] = sum(v[2] for (_, o), v in acc["_oracles"].items() if o == oracle)
        m["problems.grad_rows"] = sum(v[1] for (_, o), v in acc["_oracles"].items() if o == "grad")
        steps = acc.get("dynamics.integrate.steps", 0)
        m["dynamics.steps"] = steps
        m["dynamics.us_per_step"] = 1e6 * _ratio(acc.get("dynamics.integrate._total", 0.0), steps)
        m["dynamics.field_evals_per_step"] = _ratio(
            acc["_oracles"].get(("dynamics.integrate", "grad"), [0, 0])[1], steps)
        m["dynamics.write_csv_mb"] = acc.get("dynamics.write_csv.bytes", 0) / 1e6
        m["lyapunov.monitor_rows"] = acc.get("lyapunov.monitor.rows", 0)
        m["params.derive_calls"] = acc.get("params.derive._calls", 0)
        iterations = acc.get("discrete.run.iterations", 0)
        m["discrete.iterations"] = iterations
        m["discrete.field_evals_per_iter"] = _ratio(
            acc["_oracles"].get(("discrete.run", "grad"), [0, 0])[1], iterations)
        m["trace.wall_s"] = acc["_wall"]
        out.append(m)
    return out


def layer_metrics(dump, untraced_walls):
    """Median of each per-layer metric over the traced rounds of ``dump``.

    Raises ValueError when a count differs between rounds, since every round
    runs the same commands on the same inputs.
    """
    per_round = round_metrics(dump)
    metrics = {}
    for name in UNITS:
        if name == "trace.overhead_pct":
            continue
        values = [m[name] for m in per_round]
        if name in COUNTS and len(set(values)) > 1:
            raise ValueError("count %s differs between rounds: %s" % (name, values))
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.wall_s"] / statistics.median(untraced_walls) - 1.0)
    return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
