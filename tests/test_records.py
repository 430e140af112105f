"""The package's records and its public names.

Each record the package returns is a named tuple whose fields cannot be
reassigned, and ``__all__`` of each module lists what it defines in public:
every listed name resolves, and every public function, class or named tuple
the module defines, a cached function included, is listed."""

import importlib
from importlib.resources import files

import pytest

from nmqem import expdata, recovery
from nmqem.channel import GATES, input_labels, predict_table

FIXTURE = (files("nmqem") / "fixtures" / "table2_ionq_swap.json").read_text()

FIELDS = {
    expdata.CountTable: ("gate", "device", "shots", "runs", "kind"),
    expdata.ProbTable: ("gate", "device", "matrix"),
    expdata.CellEstimate: ("input", "output", "role", "estimate"),
    expdata.RekEstimate: ("per_cell", "min", "max", "lsq", "residual"),
    recovery.RecoveryOp: ("gate", "alpha", "matrix", "coeffs", "gamma"),
}

# Every module that declares __all__; cli, the command line, declares none.
MODULES = ("channel", "expdata", "gamma", "kernel", "linalg", "recovery")


def returned_records():
    ct = expdata.load_counts(FIXTURE)
    pt = expdata.normalize(ct)
    est = expdata.estimate_re_k(pt)
    return [ct, pt, est, *est.per_cell, *(recovery.recovery_op(gate, 0.05) for gate in GATES)]


def test_fields_in_constructor_order():
    for record, fields in FIELDS.items():
        assert record._fields == fields, record.__name__


def test_returned_records_are_read_only():
    records = returned_records()
    assert {type(r) for r in records} == set(FIELDS)
    for r in records:
        for field in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.extra = None


def test_records_compare_field_by_field():
    # the expdata records hold only str, numbers, dicts, lists and tuples, so
    # two reads of one document are equal
    ct = expdata.load_counts(FIXTURE)
    assert ct == expdata.load_counts(FIXTURE) and ct is not expdata.load_counts(FIXTURE)
    est = expdata.estimate_re_k(expdata.normalize(ct))
    assert est == expdata.estimate_re_k(expdata.normalize(ct))
    assert est._replace(lsq=0.5) != est


def test_estimate_reads_the_tables_gate():
    for gate in GATES:
        pt = expdata.ProbTable(gate, "synthetic", predict_table(gate, 0.02))
        assert expdata.estimate_re_k(pt).per_cell[0].input == input_labels(gate)[0]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"nmqem.{name}")
    for entry in module.__all__:
        assert hasattr(module, entry), f"nmqem.{name}.{entry}"
    defined = {
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
    }
    assert defined - set(module.__all__) == set()
