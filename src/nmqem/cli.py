"""Command-line front end.

Subcommands, and the layouts each builds::

    gamma-check   algebra self-test of the 16-matrix basis       json table
    kernel        Re k / Im k curves as figure-ready CSV         json csv
    cost          mitigation cost curves vs normalized time      json csv
    predict       predicted probability table at a given alpha   json csv table
    estimate      Re k estimation report from a counts file      json csv table
    decompose     Gamma expansion of a recovery operator         json table

Each ``cmd_*`` computes its report and returns its exit code and its layouts,
each built only when asked for: the JSON payload, whose row lists are
``_RowTable``s, the CSV (header, rows) and the table's lines. ``main`` alone
picks the one --format names and writes it through ``_WRITERS``; a
subcommand with a single row layout prints it for both csv and table. argv
is read off the one option table, ``_COMMANDS``, by a layer that knows no
subcommand's rules; argparse is imported only for what that declines: help,
usage errors and abbreviations. A CSV table is one %-format call on its
flattened cells. A JSON payload is one template, filled by one %-format call:
json's encoder writes every scalar. kernel and cost refuse a table of more
than ``MAX_ROWS`` rows, --steps per coupling, before building any row.

Exit codes, which ``main`` picks by the class of the failure alone: 0 success,
1 algebra self-check failure, 2 a usage error or any other ``NmqemError``,
3 an ``expdata.DataError``, an ``OSError`` or output that stdout cannot
encode (--out is written as UTF-8). Any other exception is a bug and
propagates. All output is deterministic; numbers have 10 significant digits.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import operator
import sys
import types
import warnings

from . import expdata, gamma, recovery
from .channel import COMPUTATIONAL_LABELS, GATES, NmqemError, input_labels, predict_table
from .kernel import KernelParams, k_printed, k_quadrature, re_k_approx
from .linalg import identity

EXIT_OK = 0
EXIT_SELF_CHECK = 1
EXIT_USAGE = 2
EXIT_DATA = 3

# kernel's and cost's default couplings; ``_kernel_couplings`` tells kernel's
# default from a --coupling list by identity
_DEFAULT_COUPLINGS = (7e-4, 7e-3)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{z.imag:+.10g}j"


@functools.lru_cache(maxsize=None)
def _csv_template(kinds: tuple) -> str:
    """The %-format of a CSV row of cell types ``kinds``: a float at 10
    significant digits, None as an empty cell ("%.0s" prints none of "None"),
    else str()."""
    return ",".join("%.10g" if issubclass(kind, float) else "%.0s" if kind is type(None) else "%s"
                    for kind in kinds)


def _emit_csv(header, rows) -> str:
    """One line per row, each through ``_csv_template``; the whole table is
    one %-format call on its flattened cells."""
    cells = tuple(itertools.chain.from_iterable(rows))
    kinds = zip(*[map(type, cells)] * len(header))
    return "\n".join([",".join(header).replace("%", "%%"), *map(_csv_template, kinds)]) % cells


_json_str = json.encoder.encode_basestring_ascii

# The scalar types json's encoder writes for a report, by exact type: a
# subclass, which no report holds, raises TypeError.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))

# A table of rows, as every command builds one for CSV and JSON: a header of
# two names or more, each name once, and rows of one cell per name. _emit_json
# writes it as json.dumps writes [dict(zip(header, row)) for row in rows]:
# one row template, repeated once per row in the payload's one template.
_RowTable = collections.namedtuple("_RowTable", "header rows")

# The JSON text of a list of scalars, its items parted by NUL: ensure_ascii
# escapes every NUL inside a str, so the text splits exactly at the items.
_json_items = json.JSONEncoder(separators=("\0", ":")).encode


def _append_json(parts: list, cells: list, value, pad: str):
    """Append json.dumps(value, indent=2, sort_keys=True) to parts as a
    template, a %s slot for each scalar and every key %-escaped, and the
    scalars in order to cells; ``pad`` is the newline and indent of value's
    own line. A ``_RowTable`` is one row template repeated once per row, or,
    with no rows or a cell that is no scalar, its list of dicts. A key that is
    no str, or a value of any other type, raises TypeError."""
    kind = type(value)
    if kind in _JSON_SCALARS:
        parts.append("%s")
        cells.append(value)
    elif kind is _RowTable:
        header, rows = value
        keys = sorted(header)
        # two names or more, so itemgetter returns each row's cells as a tuple
        table = list(itertools.chain.from_iterable(map(operator.itemgetter(*map(header.index, keys)), rows)))
        if rows and set(map(type, table)) <= _JSON_SCALARS:
            inner = pad + "  "
            row = ",".join([f"{inner}  {_json_str(key).replace('%', '%%')}: %s" for key in keys])
            parts.append("[" + inner + ("," + inner).join(["{" + row + inner + "}"] * len(rows)) + pad + "]")
            cells += table
        else:
            _append_json(parts, cells, [dict(zip(header, row)) for row in rows], pad)
    elif kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    elif not value:
        parts.append("{}" if kind is dict else "[]")
    else:
        inner = pad + "  "
        # a scalar item is a slot in place, a container is written by recursion
        if kind is dict:
            sep = "{" + inner
            for key, item in sorted(value.items()):
                head = f"{sep}{_json_str(key).replace('%', '%%')}: "
                if type(item) in _JSON_SCALARS:
                    parts.append(head + "%s")
                    cells.append(item)
                else:
                    parts.append(head)
                    _append_json(parts, cells, item, inner)
                sep = "," + inner
            parts.append(pad + "}")
        else:
            sep = "[" + inner
            for item in value:
                if type(item) in _JSON_SCALARS:
                    parts.append(sep + "%s")
                    cells.append(item)
                else:
                    parts.append(sep)
                    _append_json(parts, cells, item, inner)
                sep = "," + inner
            parts.append(pad + "]")


def _emit_json(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte, with each
    ``_RowTable`` written as its list of dicts: json's encoder writes every
    scalar, all in one call, and one %-format call puts them into the
    payload's one template. With an indent, CPython before 3.14 runs json's
    pure-Python encoder, which costs more than the rest of most commands."""
    parts, cells = [], []
    _append_json(parts, cells, payload, "\n")
    return "".join(parts) % tuple(_json_items(cells)[1:-1].split("\0") if cells else ())


# How ``main`` writes each format's layout: the JSON payload, the CSV
# (header, rows) and the table's lines.
_WRITERS = {"json": _emit_json, "csv": lambda layout: _emit_csv(*layout), "table": "\n".join}


# ---------------------------------------------------------------- gamma-check


# The entries of 2 g I for each metric entry g: -1, 1, and 0 off the diagonal.
_TWICE_G_I = {g: identity(4).scaled(2 * g).entries for g in (-1, 0, 1)}


def run_gamma_check(basis: gamma.GammaBasis) -> dict:
    """Run the algebra self-checks on a basis; returns a JSON-able report.
    Every product has a Gamma matrix as its left factor, so it sums over that
    matrix's nonzero entries alone (``GammaBasis.left_mul``)."""
    checks = []
    for mu in range(4):
        for nu in range(mu, 4):
            ac = gamma.anticommutator(basis, mu, nu)
            g = basis.metric[mu] if mu == nu else 0
            checks.append({"check": f"anticommutator({mu},{nu})", "expected": f"2*g[{mu}{nu}]*I",
                           "pass": ac.entries == _TWICE_G_I[g]})
    # trace orthogonality of all 16 matrices implies rank 16
    checks.append({"check": "rank16", "pass": gamma.is_orthogonal(basis)})
    product = basis.matrix("g3")  # g0 (g1 (g2 g3))
    for label in ("g2", "g1", "g0"):
        product = basis.left_mul(label, product)
    checks.append({"check": "g5_product", "pass": product.entries == basis.matrix("g5").entries})
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}


def cmd_gamma_check(args):
    report = run_gamma_check(gamma.build_gamma_basis())
    checks = report["checks"] + [{"check": "all", "pass": report["all_pass"]}]
    return EXIT_OK if report["all_pass"] else EXIT_SELF_CHECK, {
        "json": lambda: report,
        "table": lambda: [f"{c['check']:<22} {'PASS' if c['pass'] else 'FAIL'}" for c in checks],
    }


# --------------------------------------------------------------------- kernel


# The most rows a kernel or cost table may hold: --steps points per coupling.
# A longer table is refused before its u grid is built.
MAX_ROWS = 10 ** 6


def _u_grid(u_max: float, steps: int, curves: int):
    """The u grid of kernel and cost: steps points from 0 to u_max, for a
    table of ``curves`` curves of steps rows each."""
    if not (0.0 < u_max < math.inf) or steps < 2:
        raise NmqemError("--u-max must be finite and > 0 and --steps >= 2")
    if steps * curves > MAX_ROWS:
        raise NmqemError(f"--steps {steps} per coupling makes {steps * curves} rows, more than {MAX_ROWS}")
    grid = [u_max * i / (steps - 1) for i in range(steps)]
    if not math.isfinite(grid[-1]):  # u_max * (steps - 1) overflows
        raise NmqemError(f"the u grid overflows at --u-max {u_max} with --steps {steps}")
    grid[-1] = u_max  # u_max * (steps - 1) / (steps - 1) may round off u_max
    return grid


def _kernel_couplings(args):
    """kernel's couplings: the --coupling list, or with --gamma0 the one
    coupling gamma0 * wc_ts, which refuses a --coupling list beside it."""
    if args.gamma0 is not None and args.coupling is not _DEFAULT_COUPLINGS:
        raise NmqemError("--gamma0 sets the coupling (gamma0 * wc_ts); give it or --coupling, not both")
    return args.coupling if args.gamma0 is None else [args.gamma0 * args.wc_ts]


def _kernel_params(args, coupling: float) -> KernelParams:
    """One printed or quadrature curve's parameters: gamma0 is coupling / --wc-ts
    unless --gamma0 gives it. Cannot raise once ``cmd_kernel``'s checks pass."""
    gamma0 = coupling / args.wc_ts if args.gamma0 is None else args.gamma0
    return KernelParams(gamma0=gamma0, delta0=args.delta0, wc_ts=args.wc_ts)


def cmd_kernel(args):
    couplings = _kernel_couplings(args)
    if not 0.0 < args.wc_ts < math.inf:
        raise NmqemError("--wc-ts must be finite and > 0")
    if not 0.0 <= args.delta0 < math.inf:
        raise NmqemError("--delta0 must be finite and >= 0")
    if args.gamma0 is not None and not 0.0 <= args.gamma0 < math.inf:
        raise NmqemError("--gamma0 must be finite and >= 0")
    if not all(c < math.inf for c in couplings):
        raise NmqemError("--gamma0 * --wc-ts (the coupling) must be finite")
    if args.mode != "approx" and not all(c / args.wc_ts < math.inf for c in couplings):
        raise NmqemError("--coupling / --wc-ts (gamma0) must be finite")
    grid = _u_grid(args.u_max, args.steps, len(couplings))
    with_im = args.mode != "approx" and args.delta0 != 0.0
    header = ["coupling", "u", "re_k"] + (["im_k"] if with_im else [])
    rows = []
    for coupling in couplings:
        if args.mode != "approx":
            params = _kernel_params(args, coupling)
        for u in grid:
            if args.mode == "approx":
                rows.append([coupling, u, re_k_approx(coupling, u)])
            else:
                if not math.isfinite(args.wc_ts * u):
                    raise NmqemError(f"wc_ts * u overflows at wc_ts={args.wc_ts}, u={u}")
                k = k_printed(params, u) if args.mode == "printed" else k_quadrature(params, u)
                rows.append([coupling, u, k.real, k.imag] if with_im else [coupling, u, k.real])
    for row in rows:
        if not math.isfinite(row[2]) or with_im and not math.isfinite(row[3]):
            raise NmqemError(f"k overflows at coupling={row[0]}, u={row[1]}")
    return EXIT_OK, {
        "json": lambda: {"mode": args.mode, "rows": _RowTable(header, rows)},
        "csv": lambda: (header, rows),
    }


# ----------------------------------------------------------------------- cost


def cmd_cost(args):
    cost_fn = recovery.printed_cost(args.gate)
    header = ["coupling", "u", "alpha", "cost"]
    grid = _u_grid(args.u_max, args.steps, len(args.coupling))
    rows = []
    for coupling in args.coupling:
        for u in grid:
            alpha = re_k_approx(coupling, u)
            if not math.isfinite(alpha):
                raise NmqemError(f"alpha overflows at coupling={coupling}, u={u}")
            try:
                cost = cost_fn(alpha)
            except (recovery.AlphaOutOfRange, recovery.DenominatorNearZero):
                cost = None  # out of domain, flagged
            rows.append([coupling, u, alpha, cost])
    return EXIT_OK, {
        "json": lambda: {"gate": args.gate, "rows": _RowTable(
            header + ["in_domain"], [[*row, row[3] is not None] for row in rows])},
        "csv": lambda: (header, rows),
    }


# -------------------------------------------------------------------- predict


def cmd_predict(args):
    table = predict_table(args.gate, args.alpha)
    in_labels = input_labels(args.gate)

    def lines():
        cells = [[_fmt(x) for x in row] for row in table]
        # at least one space between cells, so each row splits into its five fields
        width = max(14, 1 + max(len(c) for row in cells for c in row))
        return ["".join([f"{label:<8}"] + [f"{c:>{width}}" for c in row])
                for label, row in zip(("output", *COMPUTATIONAL_LABELS), (in_labels, *cells))]

    return EXIT_OK, {
        "json": lambda: {
            "gate": args.gate,
            "alpha": args.alpha,
            "inputs": list(in_labels),
            "outputs": list(COMPUTATIONAL_LABELS),
            "columns": {label: dict(zip(COMPUTATIONAL_LABELS, column))
                        for label, column in zip(in_labels, zip(*table))},
        },
        "csv": lambda: (["output"] + [f"in_{l}" for l in in_labels],
                        [[label, *row] for label, row in zip(COMPUTATIONAL_LABELS, table)]),
        "table": lines,
    }


# ------------------------------------------------------------------- estimate


def cmd_estimate(args):
    with open(args.counts, "rb") as fh:
        ct = expdata.load_counts(fh)
    if args.gate is not None and args.gate != ct.gate:
        raise expdata.SchemaError(f"--gate {args.gate} disagrees with file gate {ct.gate}")
    est = expdata.estimate_re_k(expdata.normalize(ct))
    header = ["min", "max", "lsq", "residual", "coupling_at_u1"]
    coupling = expdata.fit_coupling(est.lsq, 1.0)
    values = [est.min, est.max, est.lsq, est.residual, coupling]
    ref = expdata.divergence_flags(est, ct.gate, ct.device)
    note = "least-squares estimator is an extension beyond the published ranges"

    def payload():
        report = dict(zip(header, values), gate=ct.gate, device=ct.device, lsq_note=note,
                      per_cell=_RowTable(expdata.CellEstimate._fields, est.per_cell))
        if ref is not None:
            report["reference_range"], report["divergence"] = list(ref[0]), ref[1]
        return report

    def lines():
        table = [
            f"gate:     {ct.gate}",
            f"device:   {ct.device}",
            f"min:      {_fmt(est.min)}",
            f"max:      {_fmt(est.max)}",
            f"lsq:      {_fmt(est.lsq)}  ({note})",
            f"residual: {_fmt(est.residual)}",
            f"coupling at u=1: {_fmt(coupling)}",
        ]
        if ref is not None:
            (lo, hi), flags = ref
            table.append(f"reference range: [{_fmt(lo)}, {_fmt(hi)}]")
            table += [f"  divergence: {flag}" for flag in flags]
        table.append("per-cell estimates:")
        table += [f"  in {c.input:<3} out {c.output}  {c.role:<18} {_fmt(c.estimate)}"
                  for c in est.per_cell]
        return table

    return EXIT_OK, {"json": payload, "csv": lambda: (header, [values]), "table": lines}


# ------------------------------------------------------------------ decompose


def cmd_decompose(args):
    op = recovery.recovery_op(args.gate, args.alpha)
    recon = gamma.reconstruct(gamma.build_gamma_basis(), op.gamma)
    residual = max(abs(a - b) for a, b in zip(recon.entries, op.matrix.entries))
    decomposition_cost = recovery.cost_from_decomposition(op)
    printed_cost = recovery.printed_cost(args.gate)(args.alpha)
    # relative: for Identity the two are equal in exact arithmetic, and near
    # 1/4, where the costs pass 1e7, they may still differ in the last ulp
    note = None
    if abs(decomposition_cost - printed_cost) > 1e-9 * max(1.0, printed_cost):
        note = ("decomposition cost differs from the closed-form combination for "
                "this gate; both values are reported")

    def payload():
        report = {
            "gate": args.gate,
            "alpha": args.alpha,
            "gamma_coefficients": {label: [z.real, z.imag] for label, z in op.gamma.coeffs.items()},
            "closed_form": op.coeffs,
            "reconstruction_residual": residual,
            "cost_from_decomposition": decomposition_cost,
            "cost_closed_form": printed_cost,
        }
        if note is not None:
            report["note"] = note
        return report

    def lines():
        table = [f"gate: {args.gate}  alpha: {_fmt(args.alpha)}"]
        for label in gamma.BASIS_ORDER:
            z = op.gamma.coeffs[label]
            if abs(z) > 1e-14:
                table.append(f"  {label:<6} {_fmt_complex(z)}")
        table.append(f"reconstruction residual: {residual:.3e}")
        table.append(f"cost (decomposition): {_fmt(decomposition_cost)}")
        table.append(f"cost (closed form):   {_fmt(printed_cost)}")
        if note is not None:
            table.append(f"note: {note}")
        return table

    return EXIT_OK, {"json": payload, "table": lines}


# ----------------------------------------------------------------------- main


def _float(text: str) -> float:
    """Every float option's type: -0 reads as 0, so it prints as 0, not -0."""
    return float(text) + 0.0


_float.__name__ = "float"  # the type's name in argparse's invalid-value error


def _coupling_list(text: str):
    try:
        values = [_float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = None
    if values and all(0.0 <= v < math.inf for v in values):
        return values
    import argparse  # a bad list is a usage error, which argparse reports
    raise argparse.ArgumentTypeError(f"bad coupling list {text!r}" if values is None
                                     else "couplings must be finite and nonnegative")


_GATE = {"choices": GATES, "required": True}
_AT_ALPHA = {"--gate": _GATE, "--alpha": {"type": _float, "required": True}}
_CURVES = {"--coupling": {"type": _coupling_list, "default": _DEFAULT_COUPLINGS},
           "--u-max": {"type": _float, "default": 1.0}, "--steps": {"type": int, "default": 101}}


def _command(help_text, func, default_format, options):
    common = {"--format": {"choices": ("csv", "json", "table"), "default": default_format},
              "--out": {"default": None, "help": "output path (default stdout)"}}
    return help_text, func, {**common, **options}


# The CLI's options, stated once: each subcommand's help, its ``cmd_*`` and its
# options in help order, as add_argument keywords. ``build_parser`` builds
# argparse's tree from it and ``_read_argv`` reads well-formed argv by it.
_COMMANDS = {
    "gamma-check": _command("verify the 16-matrix algebra", cmd_gamma_check, "table", {}),
    "kernel": _command("decoherence function curves", cmd_kernel, "csv", {
        **_CURVES, "--mode": {"choices": ("approx", "printed", "quadrature"), "default": "approx"},
        "--gamma0": {"type": _float, "default": None,
                     "help": "gamma0, in place of --coupling (otherwise coupling / wc-ts)"},
        "--delta0": {"type": _float, "default": 0.0}, "--wc-ts": {"type": _float, "default": 10.0}}),
    "cost": _command("mitigation cost curves", cmd_cost, "csv", {"--gate": _GATE, **_CURVES}),
    "predict": _command("predicted probability table", cmd_predict, "table", _AT_ALPHA),
    "estimate": _command("estimate Re k from a counts file", cmd_estimate, "json", {
        "--counts": {"required": True, "help": "path to a counts JSON file"},
        "--gate": {"choices": GATES, "default": None}}),
    "decompose": _command("Gamma expansion of a recovery operator", cmd_decompose, "table", _AT_ALPHA),
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """argparse's tree of ``_COMMANDS``, built once per process and only for
    the argv that ``_read_argv`` declines: it prints the help and the usage
    errors and reads an abbreviated option, so only these import argparse.
    parse_args leaves it unchanged and every default is immutable, so calls
    share nothing."""
    import argparse
    # usage and help wrapped at 78 columns, as at COLUMNS=80, whatever the
    # terminal's width, so that every byte of the output is deterministic
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="nmqem", description="Non-Markovian two-qubit noise channels and mitigation costs.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv):
    """argv as both readers take it. ``--alpha -1e-3`` becomes
    ``--alpha=-1e-3``: argparse takes -1e-3 and -inf for options. ``--out=--``
    becomes ``--out --``, which argparse refuses; joined, it sets []. --help
    and its abbreviations stay as typed. Nothing after "--" changes: argparse
    reads every token after it as a positional."""
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        name, _, value = token.partition("=")
        if "--" in joined:
            joined.append(token)
        elif value == "--" and name.startswith("--") and not "--help".startswith(name):
            joined += [name, "--"]
        elif (option.startswith("--") and "=" not in option and not "--help".startswith(option)
                and token.startswith("-") and _is_number(token)):
            joined[-1] = f"{option}={token}"
        else:
            joined.append(token)
    return joined


def _read_argv(argv):
    """The namespace argparse gives well-formed argv, read off ``_COMMANDS``:
    a subcommand, then its options by full name as ``--name value`` or
    ``--name=value``, each value passing its type and choices and the last
    repeat winning, with every required option given. None for other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, joined, value = token.partition("=")
        if not joined:
            value = next(tokens, "-")  # "-" if there is none
        option = options.get(name)
        if option is None or not joined and value.startswith("-"):  # argparse may take "-..." for an option
            return None
        try:
            given[name] = value = option.get("type", str)(value)
        except Exception:  # argparse reports the failed conversion
            return None
        if "choices" in option and value not in option["choices"]:
            return None
    values = {"command": argv[0], "func": func}
    for name, option in options.items():
        if name not in given and option.get("required"):
            return None
        values[name[2:].replace("-", "_")] = given.get(name, option.get("default"))
    return types.SimpleNamespace(**values)


def _parse_args(argv):
    """argv as a namespace: by ``_read_argv`` when it is well formed, else by
    argparse, which prints the help or the usage error, or reads an
    abbreviated option. A subcommand's own rules are its ``cmd_*``'s."""
    argv = _join_negative_values(argv)
    return _read_argv(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    # The command and its layout run before anything is written, so that a
    # failing command prints nothing and leaves no --out file behind. Warnings
    # are reported as one line each once the command has succeeded; a failure
    # reports only its error, and its class alone picks the exit code.
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:  # argparse printed the help or its usage error
            return EXIT_USAGE if exc.code not in (0, None) else 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, layouts = args.func(args)
            fmt = args.format
            if fmt not in layouts:  # a single row layout is printed for both csv and table
                fmt = "table" if fmt == "csv" else "csv"
            text = _WRITERS[fmt](layouts[fmt]()) + "\n"
        try:
            if args.out is None:
                sys.stdout.write(text)
            else:
                data = text.encode("utf-8")  # before the file is opened, so a failure leaves none
                with open(args.out, "wb") as fh:
                    fh.write(data)
        except UnicodeEncodeError as exc:  # a stdout whose encoding lacks a character of the text
            print(f"error: cannot write the output as {exc.encoding}: "
                  f"{exc.object[exc.start:exc.end]!a}", file=sys.stderr)
            return EXIT_DATA
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (NmqemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, (expdata.DataError, OSError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
