"""Independent oracles for every op of the benchmark.

Nothing here calls nmqem.  The forward and cli oracles work in exact rational
arithmetic from the paper's symbolic channel tables; the kernel oracle uses
mpmath (Si for the printed form, one integral for the quadrature form).
Checks run after the timed loop, never inside it.

Each check returns a Verdict: whether the op passed, the largest deviation
of a checked number from its oracle (absolute below 1, relative above), and
the reasons it failed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction as Q
from functools import lru_cache

import mpmath

import workloads

mpmath.mp.dps = 30

# Channel entries as affine pairs (a, b), entry = a + b * alpha, matrix[out][in].
SWAP_CHANNEL = (
    ((1, -2), (0, 1), (0, 0), (0, 1)),
    ((0, 1), (1, -3), (0, 1), (0, 1)),
    ((0, 0), (0, 1), (1, -2), (0, 1)),
    ((0, 1), (0, 1), (0, 1), (1, -3)),
)
ID_CHANNEL = (
    ((1, -2), (0, 1), (0, 1), (0, 0)),
    ((0, 1), (1, -2), (0, 0), (0, 1)),
    ((0, 1), (0, 0), (1, -2), (0, 1)),
    ((0, 0), (0, 1), (0, 1), (1, -2)),
)
# The SWAP table is the channel read out in the computational basis; every
# cell is alpha, 1 - 2 alpha, (1 - 2 alpha) / 2 or 0.
SWAP_TABLE = (
    ((1, -2), (0, 1), (0, 0), (0, 1)),
    ((0, 1), (Q(1, 2), -1), (0, 1), (Q(1, 2), -1)),
    ((0, 1), (Q(1, 2), -1), (0, 1), (Q(1, 2), -1)),
    ((0, 0), (0, 1), (1, -2), (0, 1)),
)
CHANNELS = {"swap": SWAP_CHANNEL, "identity": ID_CHANNEL}
TABLES = {"swap": SWAP_TABLE, "identity": ID_CHANNEL}
INPUTS = {"swap": ("m1", "m2", "m3", "m4"), "identity": ("00", "01", "10", "11")}
OUTCOMES = ("00", "01", "10", "11")
ROLES = {(0, 1): "ALPHA", (1, -2): "ONE_MINUS_2A", (Q(1, 2), -1): "HALF_ONE_MINUS_2A", (0, 0): "ZERO"}

# Published per-device Re k ranges and the report's divergence tolerance.
REFERENCE_RANGES = {
    ("swap", "ionq"): (6.0e-3, 1.8e-2),
    ("swap", "ibm_guadalupe"): (1.5e-2, 5.6e-2),
    ("identity", "ionq"): (2.0e-3, 2.4e-2),
    ("identity", "ibm_guadalupe"): (6.0e-3, 2.8e-2),
}
DIVERGENCE_TOL = 5e-4

# Tolerances.  The forward half is compared with exact values; near
# alpha = 1/4 the inverse has condition number ~1/(1-4 alpha)^2, so the
# bound is relative to the largest exact entry.  kernel: the evaluators'
# default absolute quadrature tolerance.  cli: 10 significant digits.
FORWARD_RTOL = 1e-9
KERNEL_ATOL = 1e-10
CLI_RTOL = 1e-9

# k_quadrature's adaptive Simpson error estimate is not a bound: at the
# commit that added this benchmark it misses its requested 1e-10 tolerance at
# workloads.KERNEL_DEFECT_OPS, which every kernel round holds.  Such an op is
# a known defect only if it fails as recorded: the named part of k misses by
# at most the recorded miss (rounded up) and the other part passes.  Any other
# miss, at any input, is an unexpected failure.
KERNEL_MISS_SIGNATURES = (("Im k", 1.4e-9), ("Re k", 1.3e-10))
KNOWN_KERNEL_MISSES = {
    json.dumps(op, sort_keys=True): sig
    for op, sig in zip(workloads.KERNEL_DEFECT_OPS, KERNEL_MISS_SIGNATURES, strict=True)
}

EXIT_USAGE, EXIT_DATA = 2, 3

# Documented exit code of each invalid argv kind (see workloads.invalid_argv).
EXPECTED_EXIT = {
    "decompose-near-quarter": EXIT_USAGE,
    "kernel-wc-ts-zero": EXIT_USAGE,
    "kernel-wc-ts-negative": EXIT_USAGE,
    "kernel-u-max-nan": EXIT_USAGE,
    "kernel-quadrature-u-max-nan": EXIT_USAGE,
    "cost-out-missing-dir": EXIT_DATA,
    "estimate-nan-probs": EXIT_DATA,
    "estimate-bool-probs": EXIT_DATA,
    "predict-alpha-out-of-range": EXIT_USAGE,
    "decompose-alpha-out-of-range": EXIT_USAGE,
    "cost-u-max-zero": EXIT_USAGE,
    "predict-unknown-gate": EXIT_USAGE,
    "unknown-subcommand": EXIT_USAGE,
    "estimate-missing-file": EXIT_DATA,
    "estimate-malformed-json": EXIT_DATA,
    "estimate-gate-mismatch": EXIT_DATA,
}

class Verdict:
    """Collects comparisons for one op."""

    def __init__(self):
        self.reasons = []
        self.max_err = 0.0
        self.known = None  # the known defect a failure is, if it is one

    def close(self, what, got, want, rtol=0.0, atol=0.0, scale=None):
        """|got - want| <= atol + rtol * scale, scale defaulting to |want|."""
        want = float(want)
        scale = abs(want) if scale is None else scale
        try:
            dev = abs(float(got) - want)
        except (TypeError, ValueError):
            dev = math.inf
        if not dev <= atol + rtol * scale:  # also catches NaN
            self.reasons.append(f"{what}: got {got!r}, want {want!r}")
        err = dev / max(1.0, abs(want)) if math.isfinite(dev) else math.inf
        self.max_err = max(self.max_err, err)

    def require(self, what, cond):
        if not cond:
            self.reasons.append(what)

    @property
    def ok(self):
        return not self.reasons


# ------------------------------------------------------------ exact algebra


def affine(pattern, alpha: Q):
    return [[Q(a) + Q(b) * alpha for a, b in row] for row in pattern]


def inverse(m):
    """Exact Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(m)
    aug = [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _cmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _gamma_basis():
    """The 16 Gamma matrices (metric -+++) with exact entries in {0, +-1, +-i},
    built from the Pauli matrices as nmqem documents them."""
    pauli = {1: ((0, 1), (1, 0)), 2: ((0, -1j), (1j, 0)), 3: ((1, 0), (0, -1))}
    g = {}
    for k, s in pauli.items():
        m = [[0j] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                m[i][2 + j] = m[2 + i][j] = complex(s[i][j])
        g[f"g{k}"] = m
    g["g0"] = [[1j if i == j and i < 2 else -1j if i == j else 0j for j in range(4)] for i in range(4)]
    g["I"] = [[complex(i == j) for j in range(4)] for i in range(4)]
    for mu in range(4):
        for nu in range(mu + 1, 4):
            g[f"g{mu}g{nu}"] = _cmul(g[f"g{mu}"], g[f"g{nu}"])
    g["g5"] = _cmul(_cmul(g["g0"], g["g1"]), _cmul(g["g2"], g["g3"]))
    for mu in range(4):
        g[f"g5g{mu}"] = _cmul(g["g5"], g[f"g{mu}"])
    # tr(G_r^dagger G_s) = 4 delta_rs makes c_r = tr(G_r^dagger M) / 4.
    for a in g.values():
        for b in g.values():
            tr = sum(a[i][j].conjugate() * b[i][j] for i in range(4) for j in range(4))
            if tr != (4 if a is b else 0):
                raise AssertionError("Gamma basis is not trace-orthogonal")
    return g


GAMMA = _gamma_basis()


def gamma_coeffs(r):
    """Exact (re, im) expansion weights of a real Fraction matrix."""
    out = {}
    for label, m in GAMMA.items():
        re_part = sum(Q(int(m[i][j].real)) * r[i][j] for i in range(4) for j in range(4)) / 4
        im_part = -sum(Q(int(m[i][j].imag)) * r[i][j] for i in range(4) for j in range(4)) / 4
        out[label] = (re_part, im_part)
    return out


def closed_form(gate, r):
    """The recovery matrix's closed-form coefficients, read off the exact inverse."""
    if gate == "swap":
        return {"B": r[0][1], "C": r[0][0], "D": r[0][2], "E": r[1][1]}
    return {"F": r[0][0], "G": r[0][3], "H": r[0][1]}


def printed_cost(gate, alpha: Q, r):
    if gate == "identity":
        return 1 / (1 - 4 * alpha)
    c = closed_form(gate, r)
    return abs(c["C"] + c["E"]) / 2 + abs(c["C"] - c["E"]) / 2 + 3 * abs(c["B"]) + abs(c["D"])


def decomposition_cost(coeffs):
    return sum(math.hypot(float(re_), float(im)) for re_, im in coeffs.values())


@lru_cache(maxsize=256)
def exact_recovery(gate, alpha: Q):
    r = inverse(affine(CHANNELS[gate], alpha))
    coeffs = gamma_coeffs(r)
    return r, coeffs


# ----------------------------------------------------------------- forward


def check_forward(op, res) -> Verdict:
    v = Verdict()
    gate, alpha = op["gate"], Q(op["alpha"])
    table = affine(TABLES[gate], alpha)
    for i in range(4):
        for j in range(4):
            v.close(f"table[{i}][{j}]", res["table"][i][j], table[i][j], FORWARD_RTOL, scale=1.0)
    chan = [[float(x) for x in row] for row in affine(CHANNELS[gate], alpha)]
    r_exact, coeffs = exact_recovery(gate, alpha)
    scale = max(abs(float(x)) for row in r_exact for x in row)
    rec = res["recovery"]
    got = [[rec.matrix.entries[4 * i + j] for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            v.close(f"R[{i}][{j}]", got[i][j].real, r_exact[i][j], FORWARD_RTOL, scale=scale)
            v.require(f"R[{i}][{j}] not real", got[i][j].imag == 0)
            rv = sum(got[i][k] * chan[k][j] for k in range(4))
            v.close(f"(R V - I)[{i}][{j}]", abs(rv - (i == j)), 0.0, FORWARD_RTOL, scale=scale)
    for name, want in closed_form(gate, r_exact).items():
        v.close(f"closed form {name}", rec.coeffs[name], want, FORWARD_RTOL, scale=scale)
    for label, (re_, im) in coeffs.items():
        z = rec.gamma.coeffs[label]
        v.close(f"gamma[{label}].re", z.real, re_, FORWARD_RTOL, scale=scale)
        v.close(f"gamma[{label}].im", z.imag, im, FORWARD_RTOL, scale=scale)
    v.close("cost", res["cost"], printed_cost(gate, alpha, r_exact), FORWARD_RTOL)
    v.close("cost_from_decomposition", res["cost_from_decomposition"], decomposition_cost(coeffs), FORWARD_RTOL)
    recon = res["reconstructed"].entries
    for k in range(16):
        v.close(f"reconstruct residual [{k}]", abs(recon[k] - rec.matrix.entries[k]), 0.0, FORWARD_RTOL, scale=scale)
    return v


# ------------------------------------------------------------------ kernel


def _kernel_printed(g0, d0, wc, u):
    # Re: (2/pi) g0 [(pi/2) wc u + int_0^u (Si(wc s) - pi/2) ds], with
    # int_0^u Si(w s) ds = u Si(w u) + (cos(w u) - 1) / w.  Im: d0 (u - Si(wc u)/wc).
    x = wc * u
    integral = u * mpmath.si(x) + (mpmath.cos(x) - 1) / wc - mpmath.pi / 2 * u
    re_ = 2 / mpmath.pi * g0 * (mpmath.pi / 2 * wc * u + integral)
    return re_, d0 * (u - mpmath.si(x) / wc)


def _kernel_quadrature(g0, d0, wc, u):
    # Cauchy's formula folds the double integral into int_0^u (u - s) c(s) ds.
    def c_re(s):
        return mpmath.pi * g0 / 2 * wc * mpmath.sinc(wc * s)

    def c_im(s):
        x = wc * s
        if x < mpmath.mpf("1e-8"):
            return -d0 * wc * (x / 3 - x**3 / 30)
        return -d0 * (mpmath.sin(x) / (wc * s * s) - mpmath.cos(x) / s)

    pieces = int(wc * u / mpmath.pi) + 1  # one node per half period
    nodes = [u * k / pieces for k in range(pieces + 1)]
    re_ = mpmath.quad(lambda s: (u - s) * c_re(s), nodes)
    im = mpmath.quad(lambda s: (u - s) * c_im(s), nodes)
    return re_, im


def check_kernel(op, k) -> Verdict:
    v = Verdict()
    args = [mpmath.mpf(op[name]) for name in ("gamma0", "delta0", "wc_ts", "u")]
    oracle = _kernel_printed if op["mode"] == "printed" else _kernel_quadrature
    re_, im = oracle(*args)
    v.require("result is not complex", isinstance(k, complex))
    if not v.ok:
        return v
    v.close("Re k", k.real, re_, atol=KERNEL_ATOL)
    v.close("Im k", k.imag, im, atol=KERNEL_ATOL)
    signature = KNOWN_KERNEL_MISSES.get(json.dumps(op, sort_keys=True))
    if signature is not None and len(v.reasons) == 1:
        part, largest = signature
        if v.reasons[0].startswith(f"{part}:") and v.max_err <= largest:
            v.known = f"k_quadrature misses its 1e-10 tolerance on {part} by {v.max_err:.2g}"
    return v


# --------------------------------------------------------------------- cli


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _table_value(text, label):
    m = re.search(rf"^{re.escape(label)}\s*(\S+)", text, re.M)
    return m.group(1) if m else None


def _check_gamma_check(v, fmt, text):
    if fmt == "json":
        report = json.loads(text)
        v.require("gamma-check not all_pass", report["all_pass"] is True)
        v.require("gamma-check has 12 checks", len(report["checks"]) == 12)
        v.require("a gamma-check failed", all(c["pass"] for c in report["checks"]))
    else:
        lines = text.strip().split("\n")
        v.require("gamma-check has 13 lines", len(lines) == 13)
        v.require("a gamma-check line is not PASS", all(line.split()[-1] == "PASS" for line in lines))


def _kernel_rows(fmt, text):
    if fmt == "json":
        doc = json.loads(text)
        return doc["rows"]
    return _csv(text)[1]


@lru_cache(maxsize=None)
def _re_k(coupling: float, u: Q):
    c, u = mpmath.mpf(coupling), mpmath.mpf(u.numerator) / u.denominator
    return 2 / mpmath.pi * c * (mpmath.pi / 2 * u + u * u / 2)


def _grid(argv):
    couplings = [float(c) for c in _arg(argv, "--coupling").split(",")]
    steps = int(_arg(argv, "--steps", "101"))
    u_max = Q(_arg(argv, "--u-max", "1"))
    return [(c, u_max * i / (steps - 1)) for c in couplings for i in range(steps)]


def _check_kernel_cli(v, argv, fmt, text):
    rows = _kernel_rows(fmt, text)
    grid = _grid(argv)
    v.require(f"kernel has {len(rows)} rows, want {len(grid)}", len(rows) == len(grid))
    for row, (c, u) in zip(rows, grid):
        v.close("kernel coupling", row["coupling"], c, CLI_RTOL)
        v.close("kernel u", row["u"], u, CLI_RTOL, atol=1e-15)
        v.close("kernel re_k", row["re_k"], _re_k(c, u), CLI_RTOL, atol=1e-15)


@lru_cache(maxsize=None)
def _cost_at(gate, alpha: Q):
    return printed_cost(gate, alpha, exact_recovery(gate, alpha)[0] if gate == "swap" else None)


def _check_cost(v, argv, fmt, text):
    gate = _arg(argv, "--gate")
    if fmt == "json":
        rows = json.loads(text)["rows"]
    else:
        rows = _csv(text)[1]
    grid = _grid(argv)
    v.require(f"cost has {len(rows)} rows, want {len(grid)}", len(rows) == len(grid))
    for row, (c, u) in zip(rows, grid):
        alpha = _re_k(c, u)
        v.close("cost alpha", row["alpha"], alpha, CLI_RTOL, atol=1e-15)
        v.require("cost row out of domain", row["cost"] not in (None, ""))
        if row["cost"] not in (None, ""):
            v.close("cost", row["cost"], _cost_at(gate, Q(float(alpha))), CLI_RTOL)


def _check_predict(v, argv, fmt, text):
    gate = _arg(argv, "--gate")
    want = affine(TABLES[gate], Q(float(_arg(argv, "--alpha"))))
    labels = INPUTS[gate]
    if fmt == "json":
        cols = json.loads(text)["columns"]
        got = [[cols[labels[j]][OUTCOMES[i]] for j in range(4)] for i in range(4)]
    elif fmt == "csv":
        rows = _csv(text)[1]
        got = [[rows[i][f"in_{labels[j]}"] for j in range(4)] for i in range(4)]
    else:
        lines = text.strip().split("\n")[1:]
        got = [line.split()[1:] for line in lines]
        v.require("predict table has 4 rows", len(got) == 4 and all(len(r) == 4 for r in got))
        if not v.ok:
            return
    for i in range(4):
        for j in range(4):
            v.close(f"predict[{i}][{j}]", got[i][j], want[i][j], CLI_RTOL, atol=1e-15)


def _parse_complex(text):
    return complex(text.replace("+-", "-"))


def _check_decompose(v, argv, fmt, text):
    gate = _arg(argv, "--gate")
    alpha = Q(float(_arg(argv, "--alpha")))
    r, coeffs = exact_recovery(gate, alpha)
    scale = max(abs(float(x)) for row in r for x in row)
    want_cost = printed_cost(gate, alpha, r)
    want_dec = decomposition_cost(coeffs)
    if fmt == "json":
        doc = json.loads(text)
        got = {k: complex(*z) for k, z in doc["gamma_coefficients"].items()}
        v.require("decompose lists 16 coefficients", set(got) == set(coeffs))
        for name, want in closed_form(gate, r).items():
            v.close(f"closed form {name}", doc["closed_form"][name], want, CLI_RTOL, scale=scale)
        residual, cost_dec, cost = doc["reconstruction_residual"], doc["cost_from_decomposition"], doc["cost_closed_form"]
    else:
        got = {}
        for m in re.finditer(r"^  (\S+)\s+(\S+j)$", text, re.M):
            got[m.group(1)] = _parse_complex(m.group(2))
        nonzero = {k for k, (a, b) in coeffs.items() if a or b}
        v.require(f"decompose lists {sorted(got)}, want {sorted(nonzero)}", set(got) == nonzero)
        residual = _table_value(text, "reconstruction residual:")
        cost_dec = _table_value(text, "cost (decomposition):")
        cost = _table_value(text, "cost (closed form):")
    for label, z in got.items():
        re_, im = coeffs.get(label, (0, 0))
        v.close(f"gamma[{label}].re", z.real, re_, CLI_RTOL, scale=scale)
        v.close(f"gamma[{label}].im", z.imag, im, CLI_RTOL, scale=scale)
    v.close("reconstruction residual", residual, 0.0, CLI_RTOL, scale=scale)
    v.close("cost (decomposition)", cost_dec, want_dec, CLI_RTOL)
    v.close("cost (closed form)", cost, want_cost, CLI_RTOL)


@lru_cache(maxsize=None)
def _estimate_oracle(path):
    with open(path) as fh:
        doc = json.load(fh)
    gate = doc["gate"]
    # Counts, or probabilities as the bundled fixtures give them (booleans read as 0 and 1).
    runs = {run["input"]: run.get("counts") or run["probs"] for run in doc["runs"]}
    p = [[None] * 4 for _ in range(4)]
    for j, label in enumerate(INPUTS[gate]):
        total = sum(Q(w) for w in runs[label].values())
        for i, o in enumerate(OUTCOMES):
            p[i][j] = Q(runs[label].get(o, 0)) / total
    pattern = TABLES[gate]
    per_cell, alpha_cells = [], []
    num = den = Q(0)
    for i in range(4):
        for j in range(4):
            a, b = (Q(x) for x in pattern[i][j])
            num += b * (p[i][j] - a)
            den += b * b
            role = ROLES[pattern[i][j]]
            if role == "ZERO":
                continue
            est = {"ALPHA": p[i][j], "ONE_MINUS_2A": (1 - p[i][j]) / 2}.get(role, (1 - 2 * p[i][j]) / 2)
            per_cell.append((INPUTS[gate][j], OUTCOMES[i], role, est))
            if role == "ALPHA":
                alpha_cells.append(est)
    lsq = num / den
    ssr = sum((p[i][j] - Q(pattern[i][j][0]) - Q(pattern[i][j][1]) * lsq) ** 2 for i in range(4) for j in range(4))
    out = {
        "gate": gate,
        "per_cell": per_cell,
        "min": min(alpha_cells),
        "max": max(alpha_cells),
        "lsq": lsq,
        "residual": math.sqrt(ssr),
        "coupling_at_u1": mpmath.mpf(lsq.numerator) / lsq.denominator / (1 + 1 / mpmath.pi),
    }
    device = doc["device"].strip().lower().replace("-", "_").replace(" ", "_")
    ref = REFERENCE_RANGES.get((gate, device))
    if ref is not None:
        out["reference_range"] = ref
        out["divergences"] = (abs(out["min"] - Q(ref[0])) > DIVERGENCE_TOL) + (abs(out["max"] - Q(ref[1])) > DIVERGENCE_TOL)
    return out


def _check_estimate(v, argv, fmt, text):
    want = _estimate_oracle(_arg(argv, "--counts"))
    keys = ("min", "max", "lsq", "residual", "coupling_at_u1")
    if fmt == "json":
        doc = json.loads(text)
        got = {k: doc[k] for k in keys}
        cells = [(c["input"], c["output"], c["role"], c["estimate"]) for c in doc["per_cell"]]
        ref = doc.get("reference_range")
        divergences = len(doc["divergence"]) if "divergence" in doc else None
    elif fmt == "csv":
        got = _csv(text)[1][0]
        cells, ref, divergences = None, None, None
    else:
        labels = {"min": "min:", "max": "max:", "lsq": "lsq:", "residual": "residual:", "coupling_at_u1": "coupling at u=1:"}
        got = {k: _table_value(text, label) for k, label in labels.items()}
        cells = [
            (m.group(1), m.group(2), m.group(3), m.group(4))
            for m in re.finditer(r"^  in (\S+)\s+out (\S+)\s+(\S+)\s+(\S+)$", text, re.M)
        ]
        m = re.search(r"^reference range: \[(\S+), (\S+)\]$", text, re.M)
        ref = (m.group(1), m.group(2)) if m else None
        divergences = text.count("\n  divergence: ") if m else None
    for k in keys:
        v.close(f"estimate {k}", got[k], want[k], CLI_RTOL, atol=1e-15)
    if cells is not None:
        v.require("estimate per-cell labels", [c[:3] for c in cells] == [c[:3] for c in want["per_cell"]])
        for c, w in zip(cells, want["per_cell"]):
            v.close(f"estimate cell {c[:2]}", c[3], w[3], CLI_RTOL, atol=1e-15)
    if fmt != "csv":
        v.require("estimate reference range", (ref is None) == ("reference_range" not in want))
        if ref is not None and "reference_range" in want:
            for g, w in zip(ref, want["reference_range"]):
                v.close("estimate reference range", g, w, CLI_RTOL)
            v.require("estimate divergence count", divergences == want["divergences"])


_VALID_CHECKS = {
    "gamma-check": lambda v, argv, fmt, text: _check_gamma_check(v, fmt, text),
    "kernel": _check_kernel_cli,
    "cost": _check_cost,
    "predict": _check_predict,
    "decompose": _check_decompose,
    "estimate": _check_estimate,
}
_DEFAULT_FORMAT = {"gamma-check": "table", "kernel": "csv", "cost": "csv", "predict": "table", "estimate": "json", "decompose": "table"}


# ---------------------------------------------- known cli defects' signatures


def _escapes(start):
    """An exception whose "Type: message" text starts with `start` escaped main."""
    return lambda op, res: (res["exception"] or "").startswith(start)


def _quiet_exit_zero(res):
    return res["exception"] is None and res["rc"] == 0 and res["stderr"] == ""


def _prints_nan_grid(op, res):
    """Exit 0 with the default kernel grid, every u and re_k NaN."""
    header, rows = _csv(res["stdout"])
    return (
        _quiet_exit_zero(res)
        and header == ["coupling", "u", "re_k"]
        and len(rows) > 0
        and len(rows) % 101 == 0
        and all(row["u"] == row["re_k"] == "nan" for row in rows)
    )


def _reports_nan_column(op, res):
    """Exit 0 with a JSON report whose min, max and lsq are NaN, whose cells
    in the column holding the NaN probability are NaN, and whose other cells
    are those of the fixture the file copies (workloads.write_cli_inputs)."""
    if not _quiet_exit_zero(res):
        return False
    doc = json.loads(res["stdout"])
    with open(_arg(op["argv"], "--counts")) as fh:
        runs = json.load(fh)["runs"]
    nan_inputs = {run["input"] for run in runs if any(math.isnan(w) for w in run["probs"].values())}
    want = _estimate_oracle(f"{workloads.FIXTURES}/synthetic_swap.json")
    v = Verdict()
    v.require("min, max and lsq are NaN", all(math.isnan(doc[k]) for k in ("min", "max", "lsq")))
    v.require("no coupling", doc["coupling_at_u1"] is None)
    cells = [(c["input"], c["output"], c["role"], c["estimate"]) for c in doc["per_cell"]]
    v.require("per-cell labels", [c[:3] for c in cells] == [c[:3] for c in want["per_cell"]])
    for c, w in zip(cells, want["per_cell"]):
        if c[0] in nan_inputs:
            v.require("NaN cell", math.isnan(c[3]))
        else:
            v.close("cell", c[3], w[3], CLI_RTOL, atol=1e-15)
    return v.ok and bool(nan_inputs)


def _reports_bools_as_numbers(op, res):
    """Exit 0 with the JSON report of the file read with True as 1 and False as 0."""
    v = Verdict()
    _check_estimate(v, op["argv"], "json", res["stdout"])
    return _quiet_exit_zero(res) and v.ok


# The ROADMAP item-4 reproducers, which fail at the commit that added this
# benchmark, and how each fails there.  They count in `failed` like any other
# op.  A failing reproducer is a known defect only if it fails the recorded
# way; `correct` is false when any op fails in a way that is not recorded here.
KNOWN_DEFECTS = {
    "decompose-near-quarter": (
        "SingularMatrix escapes main for alpha inside [0, 0.25)",
        _escapes("SingularMatrix: determinant "),
    ),
    "kernel-wc-ts-zero": ("ZeroDivisionError escapes main", _escapes("ZeroDivisionError: float division by zero")),
    "kernel-wc-ts-negative": (
        "ValueError escapes main",
        _escapes("ValueError: gamma0 and delta0 must be nonnegative"),
    ),
    "kernel-u-max-nan": ("prints NaN rows and exits 0", _prints_nan_grid),
    "kernel-quadrature-u-max-nan": (
        "ValueError escapes main",
        _escapes("ValueError: integrand is not finite"),
    ),
    "cost-out-missing-dir": (
        "FileNotFoundError escapes main (open outside the try)",
        _escapes("FileNotFoundError: [Errno 2] No such file or directory: "),
    ),
    "estimate-nan-probs": ("NaN probability accepted; report is NaN, exit 0", _reports_nan_column),
    "estimate-bool-probs": ("boolean probabilities accepted, exit 0", _reports_bools_as_numbers),
}


def check_cli(op, res) -> Verdict:
    v = _check_cli(op, res)
    if not v.ok and op["kind"] in KNOWN_DEFECTS:
        description, fails_as_recorded = KNOWN_DEFECTS[op["kind"]]
        try:
            if fails_as_recorded(op, res):
                v.known = description
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            pass  # output the signature cannot read: not the recorded failure
    return v


def _check_cli(op, res) -> Verdict:
    v = Verdict()
    kind, argv = op["kind"], op["argv"]
    if res["exception"] is not None:
        v.require(f"exception escaped main: {res['exception']}", False)
        return v
    v.require("traceback on stderr", "Traceback" not in res["stderr"])
    if kind in EXPECTED_EXIT:
        v.require(f"exit {res['rc']}, want {EXPECTED_EXIT[kind]}", res["rc"] == EXPECTED_EXIT[kind])
        v.require("error exit wrote to stdout", res["stdout"] == "")
        v.require("failed command left an --out file", not res.get("out_exists", False))
        return v
    v.require(f"exit {res['rc']}, want 0", res["rc"] == 0)
    if "--out" in argv:
        v.require("--out run wrote to stdout", res["stdout"] == "")
        text = res.get("out_text", "")
    else:
        text = res["stdout"]
    fmt = _arg(argv, "--format", _DEFAULT_FORMAT[kind])
    # gamma-check and decompose print their table layout for csv; kernel and
    # cost print csv for table.
    if kind in ("gamma-check", "decompose") and fmt == "csv":
        fmt = "table"
    if kind in ("kernel", "cost") and fmt == "table":
        fmt = "csv"
    if v.ok:
        try:
            _VALID_CHECKS[kind](v, argv, fmt, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            v.require(f"unparsable {fmt} output: {type(exc).__name__}: {exc}", False)
    return v


CHECKS = {"forward": check_forward, "kernel": check_kernel, "cli": check_cli}


def describe(workload, op):
    """How the report names an op: its input or its argv."""
    if workload == "cli":
        return "nmqem " + " ".join(op["argv"])
    return json.dumps(op, sort_keys=True)
