"""Property tests over the numeric argv of ``kernel``, ``cost``, ``predict``
and ``decompose``, over the documents ``estimate`` reads, and over the CLI's
own JSON and CSV writers.

For any values of the float flags, extremes included, a small ``--steps`` and
any ``--gate``, ``main`` never raises, returns only 0, 2 or 3, never prints a
non-finite number and leaves no ``--out`` file after a failure. For any
counts or probs document, ``estimate`` returns only 0 or 3 under the same
checks.
"""

import contextlib
import io
import json
import math
import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nmqem.channel import input_labels  # noqa: E402
from nmqem.cli import _emit_csv, _emit_json, main  # noqa: E402
from nmqem.expdata import OUTCOMES  # noqa: E402
from test_cli import CASE_FILES  # noqa: E402

EXTREMES = (
    0.0, -0.0, 5e-324, 1e-308, 1e-300, 1e-10, 0.5, 1.0, 10.0, 1e3, 1e10, 1e150,
    1e300, 1e306, 1e307, 1e308, 1.7976931348623157e308, -1.0, -1e308,
    math.inf, -math.inf, math.nan,
)
# --alpha: non-finite, signed zero, tiny and huge, and at and just below 1/4,
# where the recovery operator diverges
ALPHAS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-300, 0.1, 1.0 / 3.0, 1e308,
    0.25, math.nextafter(0.25, 0.0), 0.2499999999, 0.24995,
)
NON_FINITE = re.compile(r"(?i)\b(inf|infinity|nan)\b")


def numbers(special=EXTREMES):
    # hypothesis's own floats lean to the boundaries too: 0, tiny, huge, inf, nan
    return st.one_of(st.sampled_from(special), st.floats()).map(repr)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("kernel", "cost")))
    argv = [command]
    if command == "cost":
        argv += ["--gate", draw(st.sampled_from(("swap", "identity")))]
    # kernel's --gamma0 sets the one coupling and refuses a --coupling beside it
    if command == "kernel" and draw(st.booleans()):
        argv += ["--gamma0", draw(numbers())]
    else:
        argv += ["--coupling", ",".join(draw(st.lists(numbers(), min_size=1, max_size=2)))]
    argv += ["--u-max", draw(numbers())]
    argv += ["--steps", str(draw(st.integers(min_value=-1, max_value=20)))]
    if command == "kernel":
        argv += ["--mode", draw(st.sampled_from(("approx", "printed", "quadrature")))]
        argv += ["--wc-ts", draw(numbers()), "--delta0", draw(numbers())]
    argv += ["--format", draw(st.sampled_from(("csv", "json", "table")))]
    return argv, draw(st.booleans())


@st.composite
def alpha_argvs(draw):
    argv = [draw(st.sampled_from(("predict", "decompose")))]
    argv += ["--gate", draw(st.sampled_from(("swap", "identity", "cnot")))]
    argv += ["--alpha=" + draw(numbers(ALPHAS))]  # one token, so that "-inf" is a value
    argv += ["--format", draw(st.sampled_from(("csv", "json", "table")))]
    return argv, draw(st.booleans())


# a document cell: extreme, boolean, NaN, huge-integer and ill-typed values
CELLS = (
    10 ** 400, int(1.7976931348623157e308) + 1, 10 ** 308, 2 ** 53 + 1, -1, 0, 1, True, False,
    0.0, -0.0, 5e-324, 0.5, 1.0, 1e308, math.inf, -math.inf, math.nan, None, "0.5",
)


def cell_values():
    return st.one_of(st.sampled_from(CELLS), st.integers(), st.floats())


@st.composite
def outcome_tables(draw, kind):
    """A valid table of its kind, or one whose total is zero, sometimes with
    its zero cells left out, which then read as 0."""
    weights = draw(st.lists(st.integers(0, 250), min_size=4, max_size=4))
    total = sum(weights)
    if kind == "probs":
        weights = [w / total if total else 0.0 for w in weights]
    table = dict(zip(OUTCOMES, weights))
    if draw(st.booleans()):
        table = {o: w for o, w in table.items() if w}
    return table


@st.composite
def estimate_cases(draw):
    """(document text, argv without --counts, with --out): a valid document
    of counts, of probs or of both kinds mixed, and then a few of its cells
    and its shots maybe replaced by arbitrary values."""
    gate = draw(st.sampled_from(("swap", "identity")))
    kind = draw(st.sampled_from(("counts", "probs", "mixed")))
    runs, tables = [], []
    for label in input_labels(gate):
        run_kind = draw(st.sampled_from(("counts", "probs"))) if kind == "mixed" else kind
        tables.append(draw(outcome_tables(run_kind)))
        runs.append({"input": label, run_kind: tables[-1]})
    for i, outcome, value in draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(OUTCOMES),
                                                     cell_values()), max_size=3)):
        tables[i][outcome] = value
    shots = 1000
    if draw(st.booleans()):
        shots = draw(st.one_of(st.sampled_from((1, 0, 10 ** 400, True, 1000.0)), st.integers()))
    device = draw(st.sampled_from(("IonQ", "ibm_guadalupe", "x")))
    document = json.dumps({"gate": gate, "device": device, "shots": shots, "runs": runs})
    argv = ["estimate"]
    if draw(st.booleans()):
        argv += ["--gate", draw(st.sampled_from(("swap", "identity")))]
    argv += ["--format", draw(st.sampled_from(("csv", "json", "table")))]
    return document, argv, draw(st.booleans())


def _identity_probs(outcome, value):
    """An Identity probs document with one cell of its first run set."""
    runs = [{"input": label, "probs": {label: 1.0}} for label in input_labels("identity")]
    runs[0]["probs"][outcome] = value
    return json.dumps({"gate": "identity", "device": "x", "shots": 1000, "runs": runs})


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


def run_cleanly(out_dir, case, codes=(0, 2, 3)):
    """Run one argv, check that its exit code is one of ``codes`` and that a
    failure prints nothing and leaves no --out file; return stdout, stderr
    and the written file."""
    argv, with_out = case
    target = out_dir / "out.txt"
    if with_out:
        argv = argv + ["--out", str(target)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, (argv, code)
    written = ""
    if with_out and code == 0:
        written = target.read_text()
        target.unlink()
    assert not target.exists(), argv
    if code != 0:
        assert out.getvalue() == "", argv
    return out.getvalue(), err.getvalue(), written


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=argvs())
# alpha, wc_ts * u and the u grid itself overflowing
@example(case=(["cost", "--gate", "swap", "--coupling", "1e308", "--u-max", "1e10"], False))
@example(case=(["kernel", "--mode", "printed", "--wc-ts", "1e308", "--u-max", "10"], True))
@example(case=(["kernel", "--mode", "printed", "--wc-ts", "1", "--u-max", "1e308", "--steps", "3"],
               False))
def test_numeric_argv_exit_cleanly(out_dir, case):
    out, err, written = run_cleanly(out_dir, case)
    for text in (out, err, written):
        assert not NON_FINITE.search(text), (case, text[:200])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=alpha_argvs())
# a non-finite alpha, a near-singular one that reports with a warning and one
# that exits 2
@example(case=(["predict", "--gate", "swap", "--alpha=nan"], True))
@example(case=(["decompose", "--gate", "identity", "--alpha=0.24995"], True))
@example(case=(["decompose", "--gate", "swap", "--alpha=0.2499999999"], True))
def test_alpha_argv_exit_cleanly(out_dir, case):
    # an error line may name the offending alpha; the report never holds one
    out, _, written = run_cleanly(out_dir, case)
    for text in (out, written):
        assert not NON_FINITE.search(text), (case, text[:200])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=estimate_cases())
# a probability written as a 401-digit integer, which no float holds, a run
# whose total is zero, arrays nested too deeply for the parser and shots
# written with more digits than Python reads
@example(case=(_identity_probs("01", 10 ** 400), ["estimate"], True))
@example(case=(_identity_probs("00", 0.0), ["estimate", "--format", "csv"], False))
@example(case=(CASE_FILES["deep.json"], ["estimate"], True))
@example(case=(CASE_FILES["long_shots.json"], ["estimate", "--format", "table"], False))
def test_estimate_documents_exit_cleanly(out_dir, case):
    document, argv, with_out = case
    path = out_dir / "document.json"
    path.write_text(document)
    out, err, written = run_cleanly(out_dir, (argv + ["--counts", str(path)], with_out), (0, 3))
    for text in (out, err, written):
        assert not NON_FINITE.search(text), (document[:200], text[:200])


# floats at the edges of what repr and the JSON writer handle: signed zero,
# non-finite, the subnormals and the largest finite values
EDGE_FLOATS = (
    -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    1e-308, 1e308, 1.7976931348623157e308, 1e16, 1e-7, 0.1,
)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from((2 ** 64, -(10 ** 400))),
    st.floats(), st.sampled_from(EDGE_FLOATS), st.text(),
)
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


def emitted_json(payload):
    out = io.StringIO()
    _emit_json(out, payload)
    return out.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(payload=JSON_PAYLOADS)
@example(payload={"": [], "é": {}, "a": ((),), "\u2028": [[{}]], "b": [-0.0, math.nan]})
def test_json_writer_equals_json_dumps(payload):
    assert emitted_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(payload=JSON_PAYLOADS, bad=st.sampled_from((1j, {1, 2}, frozenset(), object())),
       wrap=st.sampled_from((lambda p, b: [p, b], lambda p, b: {"k": p, "z": {"v": b}},
                             lambda p, b: (b,))))
def test_json_writer_raises_type_error_as_json_dumps(payload, bad, wrap):
    document = wrap(payload, bad)
    with pytest.raises(TypeError):
        json.dumps(document, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        emitted_json(document)


def csv_line(row):
    """A CSV row by the rule the writer keeps: a float at 10 significant
    digits, None as an empty cell, anything else as str()."""
    return ",".join(f"{v:.10g}" if isinstance(v, float) else "" if v is None else str(v)
                    for v in row)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(
    st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS), st.none(), st.text(),
              st.integers(), st.booleans()),
    min_size=n, max_size=n), max_size=8)))
def test_csv_rows_keep_the_cell_rule(rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    text = "\n".join([",".join(header)] + [csv_line(row) for row in rows])
    out = io.StringIO()
    _emit_csv(out, header, rows)
    assert out.getvalue() == text + ("" if text.endswith("\n") else "\n")
