"""Every function the benchmark's tracer wraps must exist, so that deleting
one fails here instead of in a traced benchmark run."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layers_resolve():
    # exec'd from its source, so the benchmark directory gets no bytecode cache
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    for layer, names in namespace["LAYERS"].items():
        module = importlib.import_module(f"nmqem.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"nmqem.{layer}.{name}"
