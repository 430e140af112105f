"""Ingestion of device shot-count tables and Re k estimation.

A counts document is JSON with top-level fields ``gate`` ("swap" or
"identity"), ``device`` (free-form label), ``shots`` (positive integer) and
``runs``: one record per input state with an outcome->count map. A variant
with ``probs`` instead of ``counts`` accepts already-normalized tables
(row sums within +-0.02 of one, matching the rounding slack of published
device tables).

Estimation classifies every (input, output) cell by its symbolic role in the
predicted table -- alpha, 1-2*alpha, (1-2*alpha)/2 or zero -- and inverts
each non-zero cell for alpha. The reported min/max range over the
alpha-role cells reproduces the published per-device estimates; the
least-squares estimate over all cells is an extension beyond those ranges
so a single alpha can drive the coupling fit reproducibly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .channel import GATES, input_labels, predict_table
from .kernel import re_k_approx

__all__ = [
    "ParseError",
    "SchemaError",
    "EmptyRun",
    "CountTable",
    "ProbTable",
    "RekEstimate",
    "CellEstimate",
    "load_counts",
    "normalize",
    "classify_cells",
    "estimate_re_k",
    "fit_coupling",
    "REFERENCE_RANGES",
    "reference_range",
    "divergence_flags",
]

OUTCOMES = ("00", "01", "10", "11")

ROLE_ALPHA = "ALPHA"
ROLE_ONE_MINUS_2A = "ONE_MINUS_2A"
ROLE_HALF = "HALF_ONE_MINUS_2A"
ROLE_ZERO = "ZERO"

# Published per-device ranges for Re k at the switching time, keyed by
# (gate, normalized device label). Where the deterministic min/max over the
# alpha-role cells disagrees with these, the report flags the divergence.
REFERENCE_RANGES: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("swap", "ionq"): (6.0e-3, 1.8e-2),
    ("swap", "ibm_guadalupe"): (1.5e-2, 5.6e-2),
    ("identity", "ionq"): (2.0e-3, 2.4e-2),
    ("identity", "ibm_guadalupe"): (6.0e-3, 2.8e-2),
}


class ParseError(ValueError):
    """Document is not well-formed."""


class SchemaError(ValueError):
    """Document parses but violates the counts-table schema."""


class EmptyRun(ValueError):
    """A run has no recorded outcomes."""


@dataclass(frozen=True)
class CountTable:
    gate: str
    device: str
    shots: int
    # runs[input_label] -> outcome -> weight; ints for counts documents,
    # floats for the probability variant.
    runs: Dict[str, Dict[str, float]]
    kind: str = "counts"


@dataclass(frozen=True)
class ProbTable:
    gate: str
    device: str
    matrix: Tuple[Tuple[float, ...], ...]  # matrix[out][in]

    def cell(self, out_idx: int, in_idx: int) -> float:
        return self.matrix[out_idx][in_idx]


@dataclass(frozen=True)
class CellEstimate:
    input: str
    output: str
    role: str
    estimate: float


@dataclass(frozen=True)
class RekEstimate:
    per_cell: List[CellEstimate]
    min: float
    max: float
    lsq: float
    residual: float


def load_counts(source) -> CountTable:
    """Parse and validate a counts (or probs) document.

    ``source`` may be a file object, bytes or a string of JSON text.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="replace")
    if not raw.strip():
        raise ParseError("empty document")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")

    gate = doc.get("gate")
    if gate not in GATES:
        raise SchemaError(f"unknown gate {gate!r}")
    device = doc.get("device", "")
    if not isinstance(device, str):
        raise SchemaError("device must be a string")
    shots = doc.get("shots")
    if not isinstance(shots, int) or isinstance(shots, bool) or shots <= 0:
        raise SchemaError(f"shots must be a positive integer, got {shots!r}")
    runs_doc = doc.get("runs")
    if not isinstance(runs_doc, list):
        raise SchemaError("runs must be an array")

    expected_inputs = set(input_labels(gate))
    runs: Dict[str, Dict[str, float]] = {}
    kind = None
    for entry in runs_doc:
        if not isinstance(entry, dict):
            raise SchemaError("each run must be an object")
        label = entry.get("input")
        if label not in expected_inputs:
            raise SchemaError(f"unknown input label {label!r} for gate {gate!r}")
        if label in runs:
            raise SchemaError(f"duplicate input {label!r}")
        if "counts" in entry:
            entry_kind, table = "counts", entry["counts"]
        elif "probs" in entry:
            entry_kind, table = "probs", entry["probs"]
        else:
            raise SchemaError(f"run {label!r} has neither counts nor probs")
        if kind is None:
            kind = entry_kind
        elif kind != entry_kind:
            raise SchemaError("runs mix counts and probs")
        if not isinstance(table, dict):
            raise SchemaError(f"run {label!r}: outcome table must be an object")
        weights = {}
        for outcome, value in table.items():
            if outcome not in OUTCOMES:
                raise SchemaError(f"run {label!r}: unknown outcome {outcome!r}")
            if kind == "counts":
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise SchemaError(
                        f"run {label!r}: count for {outcome} must be a nonnegative integer"
                    )
            else:
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not 0.0 <= value < math.inf
                ):
                    raise SchemaError(
                        f"run {label!r}: probability for {outcome} must be a finite nonnegative number"
                    )
            weights[outcome] = value
        for outcome in OUTCOMES:
            weights.setdefault(outcome, 0)
        total = sum(weights.values())
        if kind == "counts" and total > shots:
            raise SchemaError(f"run {label!r}: counts sum {total} exceeds shots {shots}")
        if kind == "probs" and abs(total - 1.0) > 0.02:
            raise SchemaError(f"run {label!r}: probabilities sum to {total}")
        runs[label] = weights
    missing = expected_inputs - set(runs)
    if missing:
        raise SchemaError(f"missing runs for inputs {sorted(missing)}")
    return CountTable(gate, device, shots, runs, kind or "counts")


def normalize(ct: CountTable) -> ProbTable:
    """Column-normalized probability table, columns ordered by input label."""
    labels = input_labels(ct.gate)
    columns = []
    for label in labels:
        weights = ct.runs[label]
        total = sum(weights[o] for o in OUTCOMES)
        if total <= 0:
            raise EmptyRun(f"run {label!r} has zero total")
        columns.append([weights[o] / total for o in OUTCOMES])
    matrix = tuple(tuple(columns[j][i] for j in range(4)) for i in range(4))
    return ProbTable(ct.gate, ct.device, matrix)


# Affine model p_cell(alpha) = a + b * alpha for each role.
_ROLE_MODEL = {
    ROLE_ALPHA: (0.0, 1.0),
    ROLE_ONE_MINUS_2A: (1.0, -2.0),
    ROLE_HALF: (0.5, -1.0),
    ROLE_ZERO: (0.0, 0.0),
}


@lru_cache(maxsize=None)
def classify_cells(gate: str):
    """Symbolic role of every (output, input) cell, derived from the channel
    algebra by probing the predicted table at two alpha values. The roles
    depend only on the gate, so they are computed once per gate."""
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    probe = 0.1
    at0 = predict_table(gate, 0.0)
    at1 = predict_table(gate, probe)
    roles = []
    for i in range(4):
        row = []
        for j in range(4):
            a = at0[i][j]
            b = (at1[i][j] - a) / probe
            for role, (ra, rb) in _ROLE_MODEL.items():
                if abs(a - ra) < 1e-9 and abs(b - rb) < 1e-9:
                    row.append(role)
                    break
            else:
                raise AssertionError(f"cell ({i},{j}) does not match any role")
        roles.append(tuple(row))
    return tuple(roles)


def _invert_cell(role: str, p: float) -> float:
    if role == ROLE_ALPHA:
        return p
    if role == ROLE_ONE_MINUS_2A:
        return (1.0 - p) / 2.0
    if role == ROLE_HALF:
        return (1.0 - 2.0 * p) / 2.0
    raise ValueError(f"role {role} is not invertible")


def estimate_re_k(pt: ProbTable, gate: str) -> RekEstimate:
    """Per-cell estimates of alpha = Re k plus range and least squares.

    min/max range over the alpha-role cells only (the off-diagonal leakage
    cells); the least-squares estimate uses every cell's affine model.
    """
    if gate != pt.gate:
        raise ValueError(f"gate {gate!r} does not match table gate {pt.gate!r}")
    roles = classify_cells(gate)
    in_labels = input_labels(gate)
    per_cell = []
    alpha_cells = []
    num = 0.0
    den = 0.0
    for i in range(4):
        for j in range(4):
            role = roles[i][j]
            p = pt.cell(i, j)
            ra, rb = _ROLE_MODEL[role]
            num += rb * (p - ra)
            den += rb * rb
            if role == ROLE_ZERO:
                continue
            est = _invert_cell(role, p)
            per_cell.append(CellEstimate(in_labels[j], OUTCOMES[i], role, est))
            if role == ROLE_ALPHA:
                alpha_cells.append(est)
    # Every column adds a nonnegative amount to num in exact arithmetic (its
    # probabilities sum to one), so a negative quotient is rounding.
    lsq = max(0.0, num / den)
    ssr = 0.0
    for i in range(4):
        for j in range(4):
            ra, rb = _ROLE_MODEL[roles[i][j]]
            ssr += (pt.cell(i, j) - ra - rb * lsq) ** 2
    return RekEstimate(
        per_cell=per_cell,
        min=min(alpha_cells),
        max=max(alpha_cells),
        lsq=lsq,
        residual=math.sqrt(ssr),
    )


def fit_coupling(re_k: float, u: float) -> float:
    """Invert the quadratic Re k approximation for the coupling strength."""
    if u <= 0:
        raise ValueError("u must be positive")
    if re_k < 0:
        raise ValueError("re_k must be nonnegative")
    return re_k / re_k_approx(1.0, u)


def _normalize_device(device: str) -> str:
    return device.strip().lower().replace("-", "_").replace(" ", "_")


def reference_range(gate: str, device: str) -> Optional[Tuple[float, float]]:
    return REFERENCE_RANGES.get((gate, _normalize_device(device)))


def divergence_flags(est: RekEstimate, gate: str, device: str, tol: float = 5e-4):
    """Compare the deterministic min/max to the published reference range.

    Returns (reference_range, flags) where flags lists human-readable
    divergence notes, or None when no reference exists for the device.
    """
    ref = reference_range(gate, device)
    if ref is None:
        return None
    lo, hi = ref
    flags = []
    if abs(est.min - lo) > tol:
        flags.append(
            f"alpha-cell minimum {est.min:.4f} differs from published lower bound {lo:.4f}"
        )
    if abs(est.max - hi) > tol:
        flags.append(
            f"alpha-cell maximum {est.max:.4f} differs from published upper bound {hi:.4f}"
        )
    return ref, flags
