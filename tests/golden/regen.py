"""Rewrite the golden corpus from the current code.

    PYTHONPATH=src python3 tests/golden/regen.py

Run it only on purpose: the diff it leaves in ``tests/golden/`` is the list
of output changes a commit makes, byte for byte and bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from importlib.resources import files
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # as a script: import nmqem and the tests from this checkout
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from nmqem import channel, recovery  # noqa: E402
from nmqem.cli import main  # noqa: E402
from test_cli import BOUNDARY_CASES, _probs_document  # noqa: E402

CLI_PATH = HERE / "cli.txt"
DIGEST_PATH = HERE / "digest.json"
FIXTURES = str(files("nmqem") / "fixtures")
FORMATS = ("csv", "json", "table")

# The README's argv; "{gate}" runs once per gate.
README_ARGV = {
    "gamma-check": ["gamma-check"],
    "kernel": ["kernel", "--coupling", "7e-4,7e-3"],
    "kernel-printed": ["kernel", "--mode", "printed", "--gamma0", "1", "--wc-ts", "10", "--delta0", "0.5"],
    "cost": ["cost", "--gate", "{gate}", "--coupling", "7e-4,7e-3"],
    "predict": ["predict", "--gate", "{gate}", "--alpha", "0.02"],
    "estimate": ["estimate", "--counts", "{fixtures}/table3_ibm_swap.json"],
    "estimate-gate": ["estimate", "--counts", "{fixtures}/table3_ibm_swap.json", "--gate", "{gate}"],
    "decompose": ["decompose", "--gate", "{gate}", "--alpha", "0.05"],
}
# Three kernel parameter sets: Si's series and continued-fraction branches
# (wc_ts * u up to 10), the series alone (up to 3) and mostly the continued
# fraction (up to 120) with no Im k column.
KERNEL_PARAMS = {
    "a": ["--gamma0", "1", "--wc-ts", "10", "--delta0", "0.5", "--steps", "26"],
    "b": ["--coupling", "7e-3", "--wc-ts", "3", "--delta0", "0.2", "--steps", "21"],
    "c": ["--gamma0", "0.05", "--wc-ts", "60", "--u-max", "2", "--steps", "41"],
}
FIXTURE_NAMES = (
    "table2_ionq_swap",
    "table3_ibm_swap",
    "table5_ionq_identity",
    "table6_ibm_identity",
    "synthetic_swap",
    "synthetic_identity",
)
# Usage and choice errors, whose bytes carry the parser's gate choices.
PARSER_ARGV = {
    "predict-help": ["predict", "--help"],
    "cost-bad-gate": ["cost", "--gate", "cnot"],
    "predict-bad-gate": ["predict", "--gate", "cnot", "--alpha", "0.02"],
    "estimate-bad-gate": ["estimate", "--counts", "{fixtures}/table3_ibm_swap.json", "--gate", "cnot"],
    "decompose-bad-gate": ["decompose", "--gate", "cnot", "--alpha", "0.05"],
}


def cli_cases() -> dict:
    """{case id: argv template}; "{tmp}" and "{fixtures}" are placeholders."""
    cases = {}
    for name, argv in README_ARGV.items():
        for gate in ("swap", "identity") if "{gate}" in argv else (None,):
            for fmt in FORMATS:
                key = "-".join(filter(None, ("readme", name, gate, fmt)))
                cases[key] = [a.replace("{gate}", gate or "") for a in argv] + ["--format", fmt]
    for fixture in FIXTURE_NAMES:
        for fmt in FORMATS:
            cases[f"estimate-{fixture}-{fmt}"] = [
                "estimate", "--counts", f"{{fixtures}}/{fixture}.json", "--format", fmt]
    for mode in ("printed", "quadrature"):
        for name, params in KERNEL_PARAMS.items():
            for fmt in ("csv", "json"):
                cases[f"kernel-{mode}-{name}-{fmt}"] = ["kernel", "--mode", mode, *params, "--format", fmt]
    for kind, (argv, _) in BOUNDARY_CASES.items():
        cases[f"boundary-{kind}"] = list(argv)
    cases.update(PARSER_ARGV)
    cases["kernel-coupling-negative-zero"] = ["kernel", "--coupling", "-0", "--steps", "2"]
    return cases


def run_case(template, tmp: str) -> dict:
    """Run one argv in process through ``main``; placeholders are filled in
    for the run and put back into the captured text."""
    argv = [a.format(tmp=tmp, fixtures=FIXTURES) for a in template]
    stdout, stderr = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps usage and help to the terminal width
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns

    def text(stream):
        return stream.getvalue().replace(tmp, "{tmp}").replace(FIXTURES, "{fixtures}")

    return {"argv": list(template), "exit": code, "stdout": text(stdout), "stderr": text(stderr)}


# cli.txt holds one record per case, each stream as a line count and then
# its lines, so that a diff of the file shows the changed output lines:
#
#     === <case id>
#     argv: <JSON list>
#     exit: <code>
#     stdout: <n>
#     <n lines>
#     stderr: <m>
#     <m lines>


def dump_cli(results: dict) -> str:
    out = []
    for key, r in results.items():
        out += [f"=== {key}", f"argv: {json.dumps(r['argv'])}", f"exit: {r['exit']}"]
        for stream in ("stdout", "stderr"):
            text = r[stream]
            if text and not text.endswith("\n"):
                raise ValueError(f"{key}: {stream} does not end with a newline")
            lines = text.splitlines()
            out += [f"{stream}: {len(lines)}", *lines]
    return "\n".join(out) + "\n"


def load_cli(text: str) -> dict:
    lines = iter(text.splitlines())
    results = {}
    for header in lines:
        key = header.removeprefix("=== ")
        r = {"argv": json.loads(next(lines).removeprefix("argv: ")),
             "exit": int(next(lines).removeprefix("exit: "))}
        for stream in ("stdout", "stderr"):
            count = int(next(lines).removeprefix(f"{stream}: "))
            r[stream] = "".join(next(lines) + "\n" for _ in range(count))
        results[key] = r
    return results


def write_case_files(tmp: str):
    """The data files the boundary argv read."""
    Path(tmp, "nan_probs.json").write_text(_probs_document(float("nan")))
    Path(tmp, "bool_probs.json").write_text(_probs_document(False))


def _hex(v) -> str:
    """float.hex of a number; a complex one as "re,im" unless its imaginary
    part is +0.0."""
    if v.imag or math.copysign(1.0, v.imag) < 0:
        return f"{v.real.hex()},{v.imag.hex()}"
    return float(v.real).hex()


def _row(values) -> str:
    return " ".join(_hex(v) for v in values)


def digest_alphas():
    """About 100 alphas in [0, 1/4): a grid, then points packed below 1/4 as
    close as recovery_op's denominator check allows."""
    return [i / 400 for i in range(100)] + [0.25 - 2.0 ** -e for e in range(5, 17)]


def digest_blocks() -> dict:
    """{block name: hex lines}, one line per row or per alpha."""
    blocks = {}
    for gate in channel.GATES:
        basis = channel.basis_for_gate(gate)
        mt = channel.m_tensor(basis).m
        blocks[f"m_tensor/{gate}"] = [_row(mt[a][b][c][d] for c in range(4) for d in range(4))
                                      for a in range(4) for b in range(4)]
        blocks[f"rate_matrix/{gate}"] = [_row(row) for row in channel._RATE_MATRIX[gate]]
        blocks[f"population_weights/{gate}"] = [_row(row) for row in channel._population_weights(gate)]
        blocks[f"vectors/{gate}"] = [_row(v) for v in basis.vectors]
        blocks[f"predict_table/{gate}"] = [
            f"{alpha.hex()} {_row(v for row in channel.predict_table(gate, alpha) for v in row)}"
            for alpha in digest_alphas()]
        lines = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # nearly singular near 1/4
            for alpha in digest_alphas():
                op = recovery.recovery_op(gate, alpha)
                lines.append(f"{alpha.hex()} {_row(op.matrix.entries)} | {_row(op.gamma.coeffs.values())}")
        blocks[f"recovery_op/{gate}"] = lines
    return blocks


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        write_case_files(tmp)
        CLI_PATH.write_text(dump_cli({key: run_case(argv, tmp) for key, argv in cli_cases().items()}))
    DIGEST_PATH.write_text(json.dumps({name: {"sha256": sha256(lines), "hex": lines}
                                       for name, lines in digest_blocks().items()}, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
