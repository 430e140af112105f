"""Rewrite the golden corpus from the current code.

    PYTHONPATH=src python3 tests/golden/regen.py

Run it only on purpose: the diff it leaves in ``tests/golden/`` is the list
of output changes a commit makes, byte for byte and bit for bit. It prints
the key of each CLI case and digest block whose content changed, one per
line, as "changed <key>", "added <key>" or "removed <key>". A changed entry
whose text differs only in its numbers is sized: "changed k_printed/a: 14
values, max 3 ulp" counts the numbers that moved and gives the largest move
in units in the last place of a double.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import struct
import sys
import tempfile
import warnings
from importlib.resources import files
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # as a script: import nmqem and the tests from this checkout
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from nmqem import channel, gamma, kernel, recovery  # noqa: E402
from nmqem.cli import _kernel_params, _parse_args, _u_grid, main  # noqa: E402
from test_cli import BOUNDARY_CASES, write_case_files  # noqa: E402

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
# Three kernel parameter sets: Si's small-x polynomial and the cells of its
# table (wc_ts * u up to 10), the same below 3, and mostly the continued
# fraction above the table's top at 16.5 (up to 120) with no Im k column.
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
# cost couplings whose u = 1 row has alpha = 0.2499999999, inside the
# determinant guard below 1/4, and alpha = 0.250000025, past 1/4: either row
# is flagged out of domain
COST_EDGE_COUPLINGS = {"guard": "0.18963674817283932", "past": "0.18963676721236886"}


def cli_cases() -> dict:
    """{case id: argv template}; "{tmp}" and "{fixtures}" are placeholders."""
    cases = {}
    for name, argv in README_ARGV.items():
        for gate in channel.GATES if "{gate}" in argv else (None,):
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
    for name, coupling in COST_EDGE_COUPLINGS.items():
        for gate in channel.GATES:
            for fmt in ("csv", "json"):
                cases[f"cost-{name}-{gate}-{fmt}"] = [
                    "cost", "--gate", gate, "--coupling", coupling, "--u-max", "1", "--steps", "2",
                    "--format", fmt]
    cases["kernel-coupling-negative-zero"] = ["kernel", "--coupling", "-0", "--steps", "2"]
    # every float option reads -0 as 0; argparse names the type in its error
    cases["kernel-gamma0-negative-zero"] = ["kernel", "--gamma0", "-0", "--steps", "2"]
    cases["decompose-alpha-negative-zero-json"] = [
        "decompose", "--gate", "identity", "--alpha", "-0", "--format", "json"]
    cases["predict-alpha-not-a-number"] = ["predict", "--gate", "swap", "--alpha", "abc"]
    # table cells of 14 characters or more, which widen every column
    cases["predict-identity-wide-cells"] = ["predict", "--gate", "identity", "--alpha", "1.234567891e-5"]
    cases["predict-swap-wide-cells"] = ["predict", "--gate", "swap", "--alpha", "0.0001234567891"]
    # Identity's two costs, equal in exact arithmetic and about 8.3e7, a last-ulp apart
    cases["decompose-identity-equal-costs"] = ["decompose", "--gate", "identity", "--alpha", "0.249999997"]
    return cases


def run_case(template, tmp: str) -> dict:
    """Run one argv in process through ``main``; placeholders are filled in
    for the run and put back into the captured text."""
    argv = [a.format(tmp=tmp, fixtures=FIXTURES) for a in template]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)

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
        rates = [r for _, r in channel._CHANNEL[gate]]
        blocks[f"rate_matrix/{gate}"] = [_row(rates[4 * a:4 * a + 4]) for a in range(4)]
        blocks[f"population_weights/{gate}"] = [_row(row) for row in channel._weights(basis)]
        blocks[f"vectors/{gate}"] = [_row(v) for v in basis.vectors]
        blocks[f"predict_table/{gate}"] = [
            f"{alpha.hex()} {_row(v for row in channel.predict_table(gate, alpha) for v in row)}"
            for alpha in digest_alphas()]
        printed = recovery.printed_cost(gate)
        lines, costs, decomposition_costs, reconstructed = [], [], [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # nearly singular near 1/4
            for i, alpha in enumerate(digest_alphas()):
                op = recovery.recovery_op(gate, alpha)
                lines.append(f"{alpha.hex()} {_row(op.matrix.entries)} | {_row(op.gamma.coeffs.values())}")
                costs.append(f"{alpha.hex()} {printed(alpha).hex()}")
                decomposition_costs.append(f"{alpha.hex()} {recovery.cost_from_decomposition(op).hex()}")
                if i % 4 == 0:  # every fourth alpha, which keeps the corpus under 500 KB
                    entries = gamma.reconstruct(gamma.build_gamma_basis(), op.gamma).entries
                    reconstructed.append(f"{alpha.hex()} {_row(entries)}")
        blocks[f"recovery_op/{gate}"] = lines
        blocks[f"{printed.__name__}/{gate}"] = costs
        blocks[f"cost_from_decomposition/{gate}"] = decomposition_costs
        blocks[f"reconstruct/{gate}"] = reconstructed
    for name, argv in KERNEL_PARAMS.items():
        # the KernelParams and u grid that ``kernel --mode {printed,quadrature}`` evaluates
        args = _parse_args(["kernel", *argv])
        params = [(c, _kernel_params(args, c)) for c in args.coupling]
        for k in (kernel.k_printed, kernel.k_quadrature):
            blocks[f"{k.__name__}/{name}"] = [f"{c.hex()} {u.hex()} {_hex(k(p, u))}"
                                              for c, p in params for u in _u_grid(args.u_max, args.steps)]
    return blocks


def sweep_alphas():
    """4,330 alphas for the hashed sweep: the 0.001 grid over [0, 1/4], 4,000
    seeded uniform alphas in [0, 1/4), 1e-1 ... 1e-15, 1/4 - 1e-4 ... 1/4 -
    1e-16, 1/4 - 2^-12 ... 1/4 - 2^-59 (the last four round to 1/4) and
    0.2499, 0.24995, 0.249995."""
    rng = random.Random(20261019)
    return ([i / 1000 for i in range(251)] + [rng.uniform(0.0, 0.25) for _ in range(4000)]
            + [10.0 ** -e for e in range(1, 16)] + [0.25 - 10.0 ** -e for e in range(4, 17)]
            + [0.25 - 2.0 ** -e for e in range(12, 60)] + [0.2499, 0.24995, 0.249995])


def channel_alphas():
    """1/4, 1/3 and 2,000 seeded alphas between them, where predict_table and
    population_channel still answer and recovery_op refuses."""
    rng = random.Random(20261020)
    return [0.25, 1.0 / 3.0] + [rng.uniform(0.25, 1.0 / 3.0) for _ in range(2000)]


def _attempt(fn, *args):
    """fn(*args), or the class and text of the range or denominator error it
    raises."""
    try:
        return fn(*args)
    except (channel.AlphaOutOfRange, recovery.DenominatorNearZero) as e:
        return f"{type(e).__name__}: {e}"


def sweep_lines(gate: str) -> list:
    """One gate's forward half over sweep_alphas() and channel_alphas(), as
    text: predict_table and population_channel at every alpha; at the sweep
    alphas also the recovery_op matrix, weights with their types and closed-form
    record, the printed cost, cost_from_decomposition and reconstruct; every
    error's text and every RuntimeWarning's text and the file it points at."""
    printed = recovery.printed_cost(gate)
    basis = gamma.build_gamma_basis()
    lines = []

    def add(kind, alpha, value, show):
        lines.append(f"{kind} {alpha.hex()} {value if isinstance(value, str) else show(value)}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        sweep = sweep_alphas()
        for i, alpha in enumerate(sweep + channel_alphas()):
            add("predict", alpha, _attempt(channel.predict_table, gate, alpha),
                lambda t: _row(v for row in t for v in row))
            add("channel", alpha, _attempt(channel.population_channel, gate, alpha),
                lambda ch: f"{ch.basis} {_row(v for row in ch.matrix for v in row)}")
            if i >= len(sweep):
                continue
            op = _attempt(recovery.recovery_op, gate, alpha)
            add("recovery_op", alpha, op, lambda op: " | ".join((
                _row(op.matrix.entries),
                " ".join(f"{k}:{type(w).__name__}:{_hex(w)}" for k, w in op.gamma.coeffs.items()),
                " ".join(f"{k}={v.hex()}" for k, v in op.coeffs.items()))))
            add(printed.__name__, alpha, _attempt(printed, alpha), float.hex)
            if not isinstance(op, str):
                add("cost_from_decomposition", alpha, recovery.cost_from_decomposition(op), float.hex)
                add("reconstruct", alpha, gamma.reconstruct(basis, op.gamma), lambda m: _row(m.entries))
            for w in caught:
                lines.append(f"warning {w.category.__name__} {Path(w.filename).name}: {w.message}")
            caught.clear()
    return lines


def gamma_weight_lines() -> list:
    """reconstruct and abs_sum on 1,000 seeded weight sets, drawn from signed
    zeros of both types, dyadics and random floats and complexes."""
    rng = random.Random(20261021)
    draws = (0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
             0.5, -0.25, 1j, -2 + 0.5j)

    def draw():
        kind = rng.randrange(4)
        if kind < 2:
            return rng.choice(draws)
        if kind == 2:
            return rng.uniform(-4.0, 4.0)
        return complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))

    basis = gamma.build_gamma_basis()
    lines = []
    for _ in range(1000):
        c = gamma.GammaCoeffs({label: draw() for label in gamma.BASIS_ORDER})
        lines.append(f"{_row(c.coeffs.values())} | {c.abs_sum().hex()} | "
                     f"{_row(gamma.reconstruct(basis, c).entries)}")
    return lines


# Blocks too large to keep as text: the corpus stores only their sha256.
def hashed_blocks() -> dict:
    """{block name: lines} of the blocks stored as sha256 alone."""
    blocks = {f"sweep/{gate}": sweep_lines(gate) for gate in channel.GATES}
    blocks["sweep/gamma_weights"] = gamma_weight_lines()
    return blocks


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# A number as the corpus writes it: float.hex in the digest, repr or
# 10 significant digits in the CLI's output.
_NUMBER = re.compile(r"-?0x[0-9a-f]+\.[0-9a-f]*p[-+]\d+|-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|-?inf|nan")


def _ordinal(v: float) -> int:
    """v's position among the doubles, with -0.0 and 0.0 at 0."""
    i = struct.unpack("<q", struct.pack("<d", v))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def moved(old: str, new: str) -> str:
    """How many numbers differ between two texts and the largest difference
    in ulp, or a note that the text around the numbers differs."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return "text changed"
    parse = (lambda t: float.fromhex(t) if "x" in t else float(t))
    ulps = [abs(_ordinal(parse(a)) - _ordinal(parse(b)))
            for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)) if a != b]
    return f"{len(ulps)} value{'s' * (len(ulps) != 1)}, max {max(ulps, default=0)} ulp"


def changed_keys(old: dict, new: dict, text=None) -> list:
    """"<status> <key>" for each entry that differs between two versions of
    the corpus: changed, added or removed. With ``text``, which reads an
    entry's text or None, a changed entry is sized by ``moved``."""
    lines = []
    for key in {**old, **new}:
        if old.get(key) == new.get(key):
            continue
        line = f"{'added' if key not in old else 'removed' if key not in new else 'changed'} {key}"
        if key in old and key in new and text and text(old[key]) is not None:
            line += f": {moved(text(old[key]), text(new[key]))}"
        lines.append(line)
    return lines


def regenerate():
    """Rewrite both files and print the key of each CLI case and digest block
    whose content changed."""
    old_cli = load_cli(CLI_PATH.read_text()) if CLI_PATH.exists() else {}
    old_digest = json.loads(DIGEST_PATH.read_text()) if DIGEST_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        write_case_files(tmp)
        cli = {key: run_case(argv, tmp) for key, argv in cli_cases().items()}
    CLI_PATH.write_text(dump_cli(cli))
    digest = {name: {"sha256": sha256(lines), "hex": lines} for name, lines in digest_blocks().items()}
    digest.update((name, {"sha256": sha256(lines)}) for name, lines in hashed_blocks().items())
    DIGEST_PATH.write_text(json.dumps(digest, indent=1) + "\n")
    cli_text = (lambda r: f"{r['exit']}\n{r['stdout']}\n{r['stderr']}")
    digest_text = (lambda block: "\n".join(block["hex"]) if "hex" in block else None)
    for line in changed_keys(old_cli, cli, cli_text) + changed_keys(old_digest, digest, digest_text):
        print(line)


if __name__ == "__main__":
    regenerate()
