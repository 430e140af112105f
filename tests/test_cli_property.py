"""Property test over the numeric argv of ``kernel`` and ``cost``.

For any values of the float flags, extremes included, and a small
``--steps``, ``main`` never raises, returns only 0, 2 or 3, never prints a
non-finite number and leaves no ``--out`` file after a failure.
"""

import contextlib
import io
import math
import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nmqem.cli import main  # noqa: E402

EXTREMES = (
    0.0, -0.0, 5e-324, 1e-308, 1e-300, 1e-10, 0.5, 1.0, 10.0, 1e3, 1e10, 1e150,
    1e300, 1e306, 1e307, 1e308, 1.7976931348623157e308, -1.0, -1e308,
    math.inf, -math.inf, math.nan,
)
NON_FINITE = re.compile(r"(?i)\b(inf|infinity|nan)\b")


def numbers():
    # hypothesis's own floats lean to the boundaries too: 0, tiny, huge, inf, nan
    return st.one_of(st.sampled_from(EXTREMES), st.floats()).map(repr)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("kernel", "cost")))
    argv = [command]
    if command == "cost":
        argv += ["--gate", draw(st.sampled_from(("swap", "identity")))]
    argv += ["--coupling", ",".join(draw(st.lists(numbers(), min_size=1, max_size=2)))]
    argv += ["--u-max", draw(numbers())]
    argv += ["--steps", str(draw(st.integers(min_value=-1, max_value=20)))]
    if command == "kernel":
        argv += ["--mode", draw(st.sampled_from(("approx", "printed", "quadrature")))]
        argv += ["--wc-ts", draw(numbers()), "--delta0", draw(numbers())]
        if draw(st.booleans()):
            argv += ["--gamma0", draw(numbers())]
    argv += ["--format", draw(st.sampled_from(("csv", "json", "table")))]
    return argv, draw(st.booleans())


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=argvs())
# alpha, wc_ts * u and the u grid itself overflowing
@example(case=(["cost", "--gate", "swap", "--coupling", "1e308", "--u-max", "1e10"], False))
@example(case=(["kernel", "--mode", "printed", "--wc-ts", "1e308", "--u-max", "10"], True))
@example(case=(["kernel", "--mode", "printed", "--wc-ts", "1", "--u-max", "1e308", "--steps", "3"],
               False))
def test_numeric_argv_exit_cleanly(out_dir, case):
    argv, with_out = case
    target = out_dir / "out.txt"
    if with_out:
        argv = argv + ["--out", str(target)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    written = ""
    if with_out and code == 0:
        written = target.read_text()
        target.unlink()
    assert not target.exists(), argv
    if code != 0:
        assert out.getvalue() == "", argv
    for text in (out.getvalue(), err.getvalue(), written):
        assert not NON_FINITE.search(text), (argv, text[:200])
