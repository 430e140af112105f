"""Command-line front end.

Subcommands, and the layouts each builds::

    gamma-check   algebra self-test of the 16-matrix basis       json table
    kernel        Re k / Im k curves as figure-ready CSV         json csv
    cost          mitigation cost curves vs normalized time      json csv
    predict       predicted probability table at a given alpha   json csv table
    estimate      Re k estimation report from a counts file      json csv table
    decompose     Gamma expansion of a recovery operator         json table

Each ``cmd_*`` computes its report and returns its exit code and its layouts,
each built only when asked for: the JSON payload, the CSV (header, rows) and
the table's lines. ``main`` alone picks the one --format names and writes it
through ``_WRITERS``; a subcommand with a single row layout prints it for both
csv and table.

Exit codes, which ``main`` picks by the class of the failure alone: 0 success,
1 algebra self-check failure, 2 a usage error or any other ``NmqemError``,
3 an ``expdata.DataError`` or an ``OSError``. Any other exception is a bug and
propagates. All output is deterministic; numbers have 10 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

from . import expdata, gamma, recovery
from .channel import COMPUTATIONAL_LABELS, GATES, NmqemError, input_labels, predict_table
from .kernel import KernelParams, k_printed, k_quadrature, re_k_approx
from .linalg import identity

EXIT_OK = 0
EXIT_SELF_CHECK = 1
EXIT_USAGE = 2
EXIT_DATA = 3

# kernel's and cost's default couplings; ``_parse_args`` tells kernel's
# default from a --coupling list by identity
_DEFAULT_COUPLINGS = (7e-4, 7e-3)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{z.imag:+.10g}j"


def _csv_cell(kind: type) -> str:
    """The %-format of a CSV cell of type ``kind``: a float at 10 significant
    digits, None as an empty cell ("%.0s" prints none of "None"), else str()."""
    return "%.10g" if issubclass(kind, float) else "%.0s" if kind is type(None) else "%s"


def _emit_csv(header, rows) -> str:
    """One line per row; a float at 10 significant digits, None as an empty
    cell, any other value as str(). Each row is one %-format call, through a
    template rebuilt only when the row's column types change."""
    lines = [",".join(header)]
    kinds = template = None
    for row in rows:
        row_kinds = tuple(map(type, row))
        if row_kinds != kinds:
            kinds = row_kinds
            template = ",".join(map(_csv_cell, kinds))
        lines.append(template % tuple(row))
    return "\n".join(lines)


_json_str = json.encoder.encode_basestring_ascii
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


# The JSON text of each scalar type, as json.dumps writes it. The lookup is
# by exact type: a subclass, which no report holds, raises TypeError.
_JSON_SCALAR = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _append_json(parts: list, value, pad: str):
    """Append the text of json.dumps(value, indent=2, sort_keys=True) to
    parts; ``pad`` is the newline and indent of value's own line. Dict keys
    must be str; any other key or value type raises TypeError."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        text = _JSON_SCALAR.get(kind)
        if text is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        parts.append(text(value))
    elif not value:
        parts.append("{}" if kind is dict else "[]")
    else:
        inner = pad + "  "
        # a scalar item is written in place, a container by recursion
        if kind is dict:
            sep = "{" + inner
            for key, item in sorted(value.items()):
                text = _JSON_SCALAR.get(type(item))
                if text is None:
                    parts.append(f"{sep}{_json_str(key)}: ")
                    _append_json(parts, item, inner)
                else:
                    parts.append(f"{sep}{_json_str(key)}: {text(item)}")
                sep = "," + inner
            parts.append(pad + "}")
        else:
            sep = "[" + inner
            for item in value:
                text = _JSON_SCALAR.get(type(item))
                if text is None:
                    parts.append(sep)
                    _append_json(parts, item, inner)
                else:
                    parts.append(sep + text(item))
                sep = "," + inner
            parts.append(pad + "]")


def _emit_json(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), byte for byte. With an
    indent, CPython before 3.14 runs json's pure-Python encoder, which costs
    more than the rest of most commands; this writer does the same in one
    recursive pass."""
    parts = []
    _append_json(parts, payload, "\n")
    return "".join(parts)


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
    ok = True
    for mu in range(4):
        for nu in range(mu, 4):
            ac = gamma.anticommutator(basis, mu, nu)
            g = basis.metric[mu] if mu == nu else 0
            passed = ac.entries == _TWICE_G_I[g]
            ok = ok and passed
            checks.append(
                {
                    "check": f"anticommutator({mu},{nu})",
                    "expected": f"2*g[{mu}{nu}]*I",
                    "pass": passed,
                }
            )
    # trace orthogonality of all 16 matrices implies rank 16
    rank_ok = gamma.is_orthogonal(basis)
    ok = ok and rank_ok
    checks.append({"check": "rank16", "pass": rank_ok})
    product = basis.matrix("g3")  # g0 (g1 (g2 g3))
    for label in ("g2", "g1", "g0"):
        product = basis.left_mul(label, product)
    g5_ok = product.entries == basis.matrix("g5").entries
    ok = ok and g5_ok
    checks.append({"check": "g5_product", "pass": g5_ok})
    return {"checks": checks, "all_pass": ok}


def cmd_gamma_check(args):
    report = run_gamma_check(gamma.build_gamma_basis())
    checks = report["checks"] + [{"check": "all", "pass": report["all_pass"]}]
    return EXIT_OK if report["all_pass"] else EXIT_SELF_CHECK, {
        "json": lambda: report,
        "table": lambda: [f"{c['check']:<22} {'PASS' if c['pass'] else 'FAIL'}" for c in checks],
    }


# --------------------------------------------------------------------- kernel


def _u_grid(u_max: float, steps: int):
    """The u grid of kernel and cost: steps points from 0 to u_max."""
    if not (0.0 < u_max < math.inf) or steps < 2:
        raise NmqemError("--u-max must be finite and > 0 and --steps >= 2")
    grid = [u_max * i / (steps - 1) for i in range(steps)]
    if not math.isfinite(grid[-1]):  # u_max * (steps - 1) overflows
        raise NmqemError(f"the u grid overflows at --u-max {u_max} with --steps {steps}")
    return grid


def _kernel_params(args, coupling: float) -> KernelParams:
    """One printed or quadrature curve's parameters: gamma0 is coupling / --wc-ts
    unless --gamma0 gives it. Cannot raise once ``cmd_kernel``'s checks pass."""
    gamma0 = coupling / args.wc_ts if args.gamma0 is None else args.gamma0
    return KernelParams(gamma0=gamma0, delta0=args.delta0, wc_ts=args.wc_ts)


def cmd_kernel(args):
    if not 0.0 < args.wc_ts < math.inf:
        raise NmqemError("--wc-ts must be finite and > 0")
    if not 0.0 <= args.delta0 < math.inf:
        raise NmqemError("--delta0 must be finite and >= 0")
    if args.gamma0 is not None and not 0.0 <= args.gamma0 < math.inf:
        raise NmqemError("--gamma0 must be finite and >= 0")
    if not all(c < math.inf for c in args.coupling):
        raise NmqemError("--gamma0 * --wc-ts (the coupling) must be finite")
    if args.mode != "approx" and not all(c / args.wc_ts < math.inf for c in args.coupling):
        raise NmqemError("--coupling / --wc-ts (gamma0) must be finite")
    grid = _u_grid(args.u_max, args.steps)
    with_im = args.mode != "approx" and args.delta0 != 0.0
    header = ["coupling", "u", "re_k"] + (["im_k"] if with_im else [])
    rows = []
    for coupling in args.coupling:
        if args.mode != "approx":
            params = _kernel_params(args, coupling)
        for u in grid:
            if args.mode == "approx":
                rows.append([coupling, u, re_k_approx(coupling, u)])
            else:
                if not math.isfinite(args.wc_ts * u):
                    raise NmqemError(f"wc_ts * u overflows at wc_ts={args.wc_ts}, u={u}")
                k = k_printed(params, u) if args.mode == "printed" else k_quadrature(params, u)
                row = [coupling, u, k.real]
                if with_im:
                    row.append(k.imag)
                rows.append(row)
    for row in rows:
        if not all(math.isfinite(v) for v in row[2:]):
            raise NmqemError(f"k overflows at coupling={row[0]}, u={row[1]}")
    return EXIT_OK, {
        "json": lambda: {"mode": args.mode, "rows": [dict(zip(header, row)) for row in rows]},
        "csv": lambda: (header, rows),
    }


# ----------------------------------------------------------------------- cost


def cmd_cost(args):
    cost_fn = recovery.printed_cost(args.gate)
    header = ["coupling", "u", "alpha", "cost"]
    grid = _u_grid(args.u_max, args.steps)
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
    # a dict literal per JSON row: dict(zip(header, row)) with in_domain made
    # the call about 6% slower, and cost's JSON calls set perfbench's cli tail
    return EXIT_OK, {
        "json": lambda: {"gate": args.gate, "rows": [
            {"coupling": coupling, "u": u, "alpha": alpha, "cost": cost, "in_domain": cost is not None}
            for coupling, u, alpha, cost in rows]},
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
    est = expdata.estimate_re_k(expdata.normalize(ct), ct.gate)
    header = ["min", "max", "lsq", "residual", "coupling_at_u1"]
    coupling = expdata.fit_coupling(est.lsq, 1.0)
    values = [est.min, est.max, est.lsq, est.residual, coupling]
    ref = expdata.divergence_flags(est, ct.gate, ct.device)
    note = "least-squares estimator is an extension beyond the published ranges"

    def payload():
        report = dict(zip(header, values), gate=ct.gate, device=ct.device, lsq_note=note, per_cell=[
            {"input": c.input, "output": c.output, "role": c.role, "estimate": c.estimate}
            for c in est.per_cell])
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
        raise argparse.ArgumentTypeError(f"bad coupling list {text!r}")
    if not values or not all(0.0 <= v < math.inf for v in values):
        raise argparse.ArgumentTypeError("couplings must be finite and nonnegative")
    return values


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged and every default is immutable, so calls share nothing."""
    # usage and help wrapped at 78 columns, as at COLUMNS=80, whatever the
    # terminal's width, so that every byte of the output is deterministic
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="nmqem",
        description="Non-Markovian two-qubit noise channels and mitigation costs.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_text, func, default_format):
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.add_argument("--format", choices=("csv", "json", "table"), default=default_format)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(func=func)
        return p

    add_parser("gamma-check", "verify the 16-matrix algebra", cmd_gamma_check, "table")

    p = add_parser("kernel", "decoherence function curves", cmd_kernel, "csv")
    p.add_argument("--coupling", type=_coupling_list, default=_DEFAULT_COUPLINGS)
    p.add_argument("--u-max", type=_float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--mode", choices=("approx", "printed", "quadrature"), default="approx")
    p.add_argument("--gamma0", type=_float, default=None,
                   help="gamma0, in place of --coupling (otherwise coupling / wc-ts)")
    p.add_argument("--delta0", type=_float, default=0.0)
    p.add_argument("--wc-ts", type=_float, default=10.0)

    p = add_parser("cost", "mitigation cost curves", cmd_cost, "csv")
    p.add_argument("--gate", choices=GATES, required=True)
    p.add_argument("--coupling", type=_coupling_list, default=_DEFAULT_COUPLINGS)
    p.add_argument("--u-max", type=_float, default=1.0)
    p.add_argument("--steps", type=int, default=101)

    p = add_parser("predict", "predicted probability table", cmd_predict, "table")
    p.add_argument("--gate", choices=GATES, required=True)
    p.add_argument("--alpha", type=_float, required=True)

    p = add_parser("estimate", "estimate Re k from a counts file", cmd_estimate, "json")
    p.add_argument("--counts", required=True, help="path to a counts JSON file")
    p.add_argument("--gate", choices=GATES, default=None)

    p = add_parser("decompose", "Gamma expansion of a recovery operator", cmd_decompose, "table")
    p.add_argument("--gate", choices=GATES, required=True)
    p.add_argument("--alpha", type=_float, required=True)

    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv):
    """argv with each option joined to a following negative number, so that
    ``--alpha -1e-3`` reads as ``--alpha=-1e-3``. argparse takes a token that
    starts with "-" for an option unless it looks like a plain negative
    number, which -1e-3 and -inf do not."""
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        if (option.startswith("--") and "=" not in option and option not in ("--", "--help")
                and token.startswith("-") and _is_number(token)):
            joined[-1] = f"{option}={token}"
        else:
            joined.append(token)
    return joined


def _parse_args(argv):
    """argv as ``main`` reads it: ``kernel --gamma0`` sets the one coupling,
    gamma0 * wc_ts, and refuses a --coupling list beside it."""
    args = build_parser().parse_args(_join_negative_values(argv))
    if args.command == "kernel" and args.gamma0 is not None:
        if args.coupling is not _DEFAULT_COUPLINGS:
            raise NmqemError("--gamma0 sets the coupling (gamma0 * wc_ts); give it or --coupling, not both")
        args.coupling = [args.gamma0 * args.wc_ts]
    return args


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
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (NmqemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, (expdata.DataError, OSError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
