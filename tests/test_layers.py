"""Every function the benchmark's tracer wraps and every name its ops call
must exist, so that deleting or renaming one fails here instead of in a
benchmark run."""

import importlib
import re
from pathlib import Path

import nmqem
import nmqem.cli
from nmqem.channel import GATES
from nmqem.gamma import BASIS_ORDER
from nmqem.recovery import _RECORD

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
OPS = PERFBENCH / "ops.py"


def exec_source(path, name):
    # exec'd from its source, so the benchmark directory gets no bytecode cache
    namespace = {"__name__": name}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_traced_layers_resolve():
    for layer, names in exec_source(TRACING, "perfbench_tracing")["LAYERS"].items():
        module = importlib.import_module(f"nmqem.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"nmqem.{layer}.{name}"


def test_ops_names_resolve():
    dotted = set(re.findall(r"\bnmqem\.(\w+(?:\.\w+)*)", OPS.read_text()))
    assert {"cli.main", "recovery_op", "KernelParams"} <= dotted
    for path in dotted:
        obj = nmqem
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
            assert obj is not None, f"nmqem.{path}"


def test_run_forward_gives_what_the_oracle_reads():
    run_forward = exec_source(OPS, "perfbench_ops")["run_forward"]
    for gate in GATES:
        res = run_forward({"gate": gate, "alpha": 0.05})
        rec = res["recovery"]
        assert len(rec.matrix.entries) == 16
        assert set(rec.coeffs) == {name for name, _ in _RECORD[gate]}
        assert set(rec.gamma.coeffs) == set(BASIS_ORDER)
        assert len(res["reconstructed"].entries) == 16
        assert len(res["table"]) == 4 and all(len(row) == 4 for row in res["table"])
        assert isinstance(res["cost"], float) and isinstance(res["cost_from_decomposition"], float)
        # ops.py restates recovery's printed cost per gate; the two agree on every gate
        assert res["cost"] == nmqem.recovery.printed_cost(gate)(0.05)
        assert res["warned"] is False
