"""Span tracing for the per-layer metrics.

The traced run wraps each listed nmqem function at every name it is bound
under in the package (for example ``recovery.population_channel``,
``expdata.predict_table``, ``kernel.integrate``), so nested calls get their
parent span.  Spans stay in memory as (name, start, end, parent, op, raised)
and are written out when the run ends; self times are computed from them.
Nothing is installed in the timed runs.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

# Layers are nmqem's modules; these are the functions traced in each.
LAYERS = {
    "linalg": ("det", "mat_inv", "solve_linear", "integrate"),
    "gamma": ("build_gamma_basis", "decompose", "reconstruct", "anticommutator"),
    "kernel": ("re_k_approx", "si_standard", "k_printed", "k_quadrature"),
    "channel": ("m_tensor", "population_channel", "predict_table"),
    "recovery": (
        "recovery_op",
        "recovery_numeric",
        "closed_form_swap",
        "closed_form_id",
        "cost_swap",
        "cost_id",
        "cost_from_decomposition",
    ),
    "expdata": (
        "load_counts",
        "normalize",
        "classify_cells",
        "estimate_re_k",
        "fit_coupling",
        "divergence_flags",
    ),
    "cli": ("main",),
}

FUNCTION_STATS = (("calls_per_op", "1/op"), ("self_ms_per_op", "ms/op"), ("call_p50_ms", "ms"))
LAYER_STATS = (("self_share", "ratio"), ("raised_per_op", "1/op"))


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, funcs in LAYERS.items():
        for fn in funcs:
            for stat, unit in FUNCTION_STATS:
                units[f"{layer}.{fn}.{stat}"] = unit
        for stat, unit in LAYER_STATS:
            units[f"{layer}.{stat}"] = unit
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, funcs in LAYERS.items() for fn in funcs]
        self.spans = []
        self.stack = []
        self.op = -1
        self._restore = []

    def _wrap(self, name_id, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op, raised)

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "nmqem" or name.startswith("nmqem.")]
        for name_id, name in enumerate(self.names):
            layer, fn = name.split(".")
            original = getattr(sys.modules[f"nmqem.{layer}"], fn)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name_id, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent, op, raised]) + "\n")

    def metrics(self, ops: int, op_wall_s: float) -> dict:
        """Per-function and per-layer statistics from the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, op, raised in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations = {name: [] for name in self.names}
        self_time = dict.fromkeys(self.names, 0.0)
        raised_count = dict.fromkeys(LAYERS, 0)
        for idx, (name_id, start, end, parent, op, raised) in enumerate(self.spans):
            name = self.names[name_id]
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[idx]
            raised_count[name.split(".")[0]] += raised
        out = {}
        for layer, funcs in LAYERS.items():
            layer_self = 0.0
            for fn in funcs:
                name = f"{layer}.{fn}"
                calls = durations[name]
                out[f"{name}.calls_per_op"] = len(calls) / ops
                out[f"{name}.self_ms_per_op"] = 1e3 * self_time[name] / ops
                out[f"{name}.call_p50_ms"] = 1e3 * statistics.median(calls) if calls else 0.0
                layer_self += self_time[name]
            out[f"{layer}.self_share"] = layer_self / op_wall_s
            out[f"{layer}.raised_per_op"] = raised_count[layer] / ops
        return out
