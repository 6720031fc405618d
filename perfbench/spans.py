"""Outside-in span recorder for the solab benchmark.

The recorder wraps public functions of the `solab` package from the
outside.  Each wrapped call becomes one span (name, start, end, parent,
job).  Spans stay in memory until the benchmark writes them out.  Counters
(GridFn constructions, samples built, RK4 steps, suite timings) are kept
next to the spans and keyed by job.

A function is bound under its own name in its home module and under the
same name in every module that `from`-imported it.  `instrument` rebinds
the name in every loaded `solab.*` module namespace that holds the
original object.  Patching only the home module would miss those calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (metric name, home module, attribute).  Several attributes may share one
# metric name; their spans and self times add up.
TRACED_FUNCTIONS = (
    ("cli.main", "solab.cli", "main"),
    ("manifest.parse_manifest", "solab.manifest", "parse_manifest"),
    ("manifest.build_spec", "solab.manifest", "build_spec"),
    ("factory.build", "solab.factory", "build_gaussian"),
    ("factory.build", "solab.factory", "build_classified"),
    ("factory.build", "solab.factory", "build_einstein_family"),
    ("factory.build", "solab.factory", "build_general_family"),
    ("geometry.curvature_grids", "solab.geometry", "curvature_grids"),
    ("kernel.derivative", "solab.kernel", "derivative"),
    ("kernel.integrate_cumulative", "solab.kernel", "integrate_cumulative"),
    ("kernel.rk4", "solab.kernel", "solve_linear_ode2"),
    ("kernel.rk4", "solab.kernel", "solve_linear_ode2_with_derivative"),
    ("verify.soliton_residual", "solab.verify", "soliton_residual"),
    ("verify.identity_residual", "solab.verify", "identity_residual"),
    ("verify.audit_theorem", "solab.verify", "audit_theorem"),
    ("verify.check_OY_hypotheses", "solab.verify", "check_OY_hypotheses"),
    ("verify.classify_soliton", "solab.verify", "classify_soliton"),
    ("comparison.derive_setup", "solab.comparison", "derive_setup"),
    ("comparison.laplacian_comparison_check", "solab.comparison", "laplacian_comparison_check"),
    ("comparison.volume_bound_check", "solab.comparison", "volume_bound_check"),
    ("report.run_suite", "solab.report", "run_suite"),
    ("report.render_report", "solab.report", "render_report"),
    ("report.emit_report", "solab.report", "emit_report"),
)


class Recorder:
    """In-memory spans and counters for one traced benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counters = defaultdict(float)  # (job, counter name) -> value
        self._stack = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.job, name)] += amount

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """Return `fn` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        return functools.wraps(fn)(traced)

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")


def self_times(spans) -> list:
    """Self time of each span: its duration minus the time its children cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and their durations add up.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (name, start, end, parent, job) in enumerate(spans)]


def per_job_totals(recorder: Recorder) -> dict:
    """{job: {stat: value}} with `<name>.calls` and `<name>.self_s` per span
    name, plus every counter."""
    out = defaultdict(lambda: defaultdict(float))
    for (name, _s, _e, _p, job), own in zip(recorder.spans, self_times(recorder.spans)):
        out[job][f"{name}.calls"] += 1
        out[job][f"{name}.self_s"] += own
    for (job, name), value in recorder.counters.items():
        out[job][name] += value
    return out


def _count_rk4_steps(rec: Recorder, Q, *_args, **_kwargs) -> None:
    rec.count("kernel.rk4.steps", Q.values.size - 1)


def _keep_suite_timings(rec: Recorder, report) -> None:
    # the CLI drops RunReport.timings under --no-timings; read them first
    for suite, seconds in (report.timings or {}).items():
        rec.count(f"report.suite.{suite}_s", seconds)


_HOOKS = {
    ("solab.kernel", "solve_linear_ode2"): (_count_rk4_steps, None),
    ("solab.kernel", "solve_linear_ode2_with_derivative"): (_count_rk4_steps, None),
    ("solab.report", "run_suite"): (None, _keep_suite_timings),
}


def instrument(recorder: Recorder):
    """Wrap every traced function and GridFn; return a function that undoes it."""
    homes = {home: importlib.import_module(home) for _, home, _ in TRACED_FUNCTIONS}
    modules = [m for name, m in sys.modules.items() if name == "solab" or name.startswith("solab.")]
    undo = []
    for metric, home, attr in TRACED_FUNCTIONS:
        original = getattr(homes[home], attr)
        on_call, on_return = _HOOKS.get((home, attr), (None, None))
        wrapped = recorder.wrap(metric, original, on_call, on_return)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    grid_fn = homes["solab.kernel"].GridFn
    original_init, original_eval = grid_fn.__init__, grid_fn.eval

    def counted_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorder.count("kernel.GridFn.init.calls")
        recorder.count("kernel.bytes_computed", 8 * self.values.size)

    grid_fn.__init__ = counted_init
    grid_fn.eval = recorder.wrap("kernel.GridFn.eval", original_eval)
    undo += [(grid_fn, "__init__", original_init), (grid_fn, "eval", original_eval)]

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore
