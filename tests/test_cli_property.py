"""Property tests over the numeric argv of ``kernel``, ``cost``, ``predict``
and ``decompose``, over the documents ``estimate`` reads, over how argv is
parsed, and over the CLI's own JSON and CSV writers.

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

from nmqem.channel import NmqemError, input_labels  # noqa: E402
from nmqem.cli import (  # noqa: E402
    _DEFAULT_COUPLINGS, _emit_csv, _emit_json, _join_negative_values, _parse_args, _RowTable,
    build_parser, main,
)
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(payload=JSON_PAYLOADS)
@example(payload={"": [], "é": {}, "a": ((),), "\u2028": [[{}]], "b": [-0.0, math.nan]})
def test_json_writer_equals_json_dumps(payload):
    assert _emit_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(payload=JSON_PAYLOADS, bad=st.sampled_from((1j, {1, 2}, frozenset(), object())),
       wrap=st.sampled_from((lambda p, b: [p, b], lambda p, b: {"k": p, "z": {"v": b}},
                             lambda p, b: (b,))))
def test_json_writer_raises_type_error_as_json_dumps(payload, bad, wrap):
    document = wrap(payload, bad)
    with pytest.raises(TypeError):
        json.dumps(document, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _emit_json(document)


# row-table names: out of sorted order, non-ASCII, escaped, holding "%" (the
# row template's own escape), or "nan" and "inf", which send a table to the
# row dict writer
ROW_NAMES = st.one_of(
    st.sampled_from(("u", "coupling", "alpha", "é", "\u2028", 'a"b', "%s", "100%", "nan", "info")),
    st.text(max_size=4),
)
# cells of every JSON scalar type, and containers, which send their table to
# the recursive writer
ROW_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from(EDGE_FLOATS), st.text(),
    st.lists(st.floats(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def row_tables(draw):
    """(header, rows): a few names, repeats allowed, and up to six rows of one
    cell per name, drawn from one type per column or from any type."""
    header = draw(st.lists(ROW_NAMES, max_size=5))
    columns = [draw(st.sampled_from((ROW_CELLS, st.floats(), st.text(), st.booleans())))
               for _ in header]
    rows = draw(st.lists(st.tuples(*columns).map(list), max_size=6))
    return header, rows


def as_dicts(header, rows):
    return [dict(zip(header, row)) for row in rows]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=row_tables())
# a template reused, then rebuilt for a None, a str, a NaN and a bool cell
@example(table=(["u", "cost", "ok"], [[0.5, 1.25, True], [0.75, 2.5, True], [1.0, None, False],
                                       [1.0, "x", True], [1.0, math.nan, False]]))
@example(table=(["b", "a"], []))
# a row shorter than the header: its dict holds only the names it reaches
@example(table=(["a", "b"], [[1.0], [1.0, 2.0]]))
@example(table=([], [[], []]))
def test_row_table_writer_equals_json_dumps_of_its_dicts(table):
    header, rows = table
    assert _emit_json(_RowTable(header, rows)) == json.dumps(as_dicts(header, rows), indent=2,
                                                             sort_keys=True)
    nested = {"z": 0, "rows": _RowTable(header, rows), "a": [[_RowTable(header, rows)]]}
    expected = {"z": 0, "rows": as_dicts(header, rows), "a": [[as_dicts(header, rows)]]}
    assert _emit_json(nested) == json.dumps(expected, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [1j, {1, 2}, object(), [1j]])
def test_row_table_writer_raises_type_error_as_json_dumps(bad):
    header, rows = ["u", "k"], [[0.5, 1.0], [0.5, bad]]
    with pytest.raises(TypeError):
        json.dumps(as_dicts(header, rows), indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _emit_json(_RowTable(header, rows))


# Each subcommand's own flags; --format and --out belong to every one.
FLAGS = {
    "gamma-check": (),
    "kernel": ("--coupling", "--u-max", "--steps", "--mode", "--gamma0", "--delta0", "--wc-ts"),
    "cost": ("--gate", "--coupling", "--u-max", "--steps"),
    "predict": ("--gate", "--alpha"),
    "estimate": ("--counts", "--gate"),
    "decompose": ("--gate", "--alpha"),
}
VALID = {"--gate": "swap", "--format": "json", "--mode": "printed", "--coupling": "7e-4,7e-3",
         "--steps": "3", "--counts": "x.json", "--out": "x.txt"}
VALUES = ("swap", "cnot", "json", "table", "printed", "0.02", "3", "7e-4,7e-3", "x.json", "",
          "-1e-3", "-0.5", "-2", "-inf", "nan", "1e308")
REQUIRED = {
    "cost": ["--gate", "swap"],
    "predict": ["--gate", "swap", "--alpha", "0.02"],
    "estimate": ["--counts", "x.json"],
    "decompose": ["--gate", "identity", "--alpha", "0.05"],
}
STRAY = ("--", "-h", "--help", "--bogus", "-x", "fit", "kernel", "stray", "-1e-3", "-2")


@st.composite
def parser_argvs(draw):
    """argv that mostly starts with a subcommand, then its flags, whole or
    abbreviated (--coup), with a value, joined by "=", or none, among stray
    tokens: "--", help, unknown flags, positionals and negative numbers."""
    head = draw(st.sampled_from((*FLAGS, *FLAGS, None, "fit", "-h", "--", "-1e-3")))
    argv = [] if head is None else [head]
    if draw(st.booleans()):  # the required flags first, so that more argv parse
        argv += REQUIRED.get(head, [])
    flags = FLAGS.get(head, ()) + ("--format", "--out", "--alpha")
    for _ in range(draw(st.integers(0, 4))):
        full = draw(st.sampled_from(flags))
        flag = full[:draw(st.integers(3, len(full)))]
        value = draw(st.one_of(st.just(VALID.get(full, "0.02")), st.sampled_from(VALUES)))
        argv += draw(st.sampled_from(([flag, value], [flag, value], [f"{flag}={value}"], [flag],
                                      [draw(st.sampled_from(STRAY))])))
    return argv


def parse_outcome(parse, argv):
    """The namespace that parsing argv gives, as comparable text, or the exit
    code and the bytes that the parser printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(sorted(vars(parse(argv)).items()))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
        except NmqemError as exc:
            return "error", str(exc)


def top_level_parse(argv):
    """argv read by the top-level parser alone, then ``kernel --gamma0`` set
    as ``_parse_args`` sets it."""
    args = build_parser().parse_args(_join_negative_values(argv))
    if args.command == "kernel" and args.gamma0 is not None:
        if args.coupling is not _DEFAULT_COUPLINGS:
            raise NmqemError("--gamma0 sets the coupling (gamma0 * wc_ts); give it or --coupling, not both")
        args.coupling = [args.gamma0 * args.wc_ts]
    return args


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=parser_argvs())
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "stray"])
@example(argv=["kernel", "--coup", "7e-3", "--", "-h"])
@example(argv=["cost", "-h", "--gate", "cnot"])
@example(argv=["predict", "--gate=swap", "--alpha", "-1e-3"])
@example(argv=[])
# the shapes the option-table reader must match or leave to argparse: a
# repeated option, an empty joined value and one holding "=", a value that
# looks like an option, a bad choice before a good one, --gamma0 beside a
# --coupling list, help after valid options and a value of "--"
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "--alpha=0.03"])
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "--out="])
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "--out=a=b"])
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "--out", "-x"])
@example(argv=["predict", "--gate", "cnot", "--gate", "swap", "--alpha", "0.02"])
@example(argv=["kernel", "--gamma0", "1", "--coupling", "7e-4,7e-3"])
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "-h"])
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "--out=--"])
@example(argv=["predict", "--gate", "swap", "--alpha", "0.02", "--out", "--"])
def test_subcommand_dispatch_equals_the_top_level_parser(argv):
    assert parse_outcome(_parse_args, argv) == parse_outcome(top_level_parse, argv)


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(gate=st.sampled_from(("swap", "identity")), alpha=st.floats(0.0, 1.0 / 3.0))
# cells of 15 characters, which ran into their left neighbour in a 14-wide table
@example(gate="identity", alpha=1.234567891e-5)
@example(gate="swap", alpha=0.0001234567891)
def test_predict_table_rows_split_into_the_json_values(gate, alpha):
    argv = ["predict", "--gate", gate, "--alpha", repr(alpha)]
    columns = json.loads(cli_stdout(argv + ["--format", "json"]))["columns"]
    header, *rows = cli_stdout(argv).splitlines()
    assert header.split() == ["output", *input_labels(gate)]
    assert [line.split() for line in rows] == [
        [outcome] + [f"{columns[label][outcome]:.10g}" for label in input_labels(gate)]
        for outcome in OUTCOMES]


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
# cell types that change mid-table and change back, as a cost row's cell does
# past 1/4 (float, None, float); ragged rows; rows of no cells
@example(rows=[[7e-3, 0.5, 0.24, 25.5], [7e-3, 0.75, 0.26, None], [7e-3, 1.0, 0.2, 5.0]])
@example(rows=[[1.0, "a", None], [2.0], [], [None, 3, True, "%s", 0.1]])
@example(rows=[[], []])
def test_csv_rows_keep_the_cell_rule(rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    text = "\n".join([",".join(header)] + [csv_line(row) for row in rows])
    assert _emit_csv(header, rows) == text


def test_writers_keep_each_tables_bytes():
    # tables whose cells take other types, written one after the other in one
    # process: each keeps its own bytes, so no row template leaks between calls
    header = ["u", "cost"]
    tables = ([[0.5, 1.25], [0.75, None]], [["0.5", 1], [None, 0.25]], [[True, 2.5], [0.5, 1.25]])
    for rows in tables + tables[::-1]:
        assert _emit_csv(header, rows) == "\n".join([",".join(header)] + [csv_line(row) for row in rows])
        assert _emit_json(_RowTable(header, rows)) == json.dumps(as_dicts(header, rows), indent=2,
                                                                 sort_keys=True)
