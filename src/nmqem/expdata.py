"""Ingestion of device shot-count tables and Re k estimation.

A counts document is JSON with top-level fields ``gate`` ("swap" or
"identity"), ``device`` (free-form label), ``shots`` (positive integer) and
``runs``: one record per input state with an outcome->count map. A variant
with ``probs`` instead of ``counts`` accepts already-normalized tables
(row sums within +-0.02 of one, matching the rounding slack of published
device tables).

Estimation reads every (output, input) cell of the predicted table as its
affine pair (a, b), p(alpha) = a + b alpha -- alpha, 1-2*alpha,
(1-2*alpha)/2 or zero for SWAP and Identity -- and inverts each cell with a
nonzero slope for alpha. The reported min/max range over the p = alpha cells
reproduces the published per-device estimates; the least-squares estimate
over all cells is an extension beyond those ranges so a single alpha can
drive the coupling fit reproducibly.

A document that cannot be read raises a ``DataError``: ``ParseError``,
``SchemaError`` or ``EmptyRun``. The records passed along the way,
``CountTable``, ``ProbTable``, ``CellEstimate`` and ``RekEstimate``, are
named tuples: read-only, and equal when their fields are. A ``ProbTable``
carries its gate, and ``estimate_re_k`` reads the cells of that gate.
"""

from __future__ import annotations

import collections
import json
import math
import sys
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .channel import (ALPHA_MAX, COMPUTATIONAL_LABELS as OUTCOMES, GATES, NmqemError, input_labels,
                      predict_table)
from .kernel import re_k_approx

__all__ = [
    "DataError",
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

ROLE_ALPHA = "ALPHA"
ROLE_ONE_MINUS_2A = "ONE_MINUS_2A"
ROLE_HALF = "HALF_ONE_MINUS_2A"
ROLE_ZERO = "ZERO"

# Published per-device ranges for Re k at the switching time, keyed by
# (gate, normalized device label). Where the deterministic min/max over the
# p = alpha cells differs from these by more than _DIVERGENCE_TOL, the report
# flags the divergence.
REFERENCE_RANGES: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("swap", "ionq"): (6.0e-3, 1.8e-2),
    ("swap", "ibm_guadalupe"): (1.5e-2, 5.6e-2),
    ("identity", "ionq"): (2.0e-3, 2.4e-2),
    ("identity", "ibm_guadalupe"): (6.0e-3, 2.8e-2),
}
_DIVERGENCE_TOL = 5e-4


class DataError(NmqemError):
    """An input document that cannot be read as a counts table."""


class ParseError(DataError):
    """Document is not well-formed."""


class SchemaError(DataError):
    """Document parses but violates the counts-table schema."""


class EmptyRun(DataError):
    """A run has no recorded outcomes."""


# runs[input_label] -> outcome -> weight; ints for counts documents, floats
# for the probability variant; kind is "counts" or "probs".
CountTable = collections.namedtuple("CountTable", "gate device shots runs kind")
ProbTable = collections.namedtuple("ProbTable", "gate device matrix")  # matrix[out][in]
CellEstimate = collections.namedtuple("CellEstimate", "input output role estimate")
RekEstimate = collections.namedtuple("RekEstimate", "per_cell min max lsq residual")


def _object(pairs) -> dict:
    """A JSON object as a dict; a repeated key raises SchemaError."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def load_counts(source) -> CountTable:
    """Parse and validate a counts (or probs) document.

    ``source`` may be a file object, bytes or a string of JSON text; bytes
    that are not UTF-8 raise ``ParseError``, a key repeated within one JSON
    object ``SchemaError``.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: byte 0x{raw[exc.start]:02x} at offset {exc.start}")
    if not raw.strip():
        raise ParseError("empty document")
    try:
        doc = json.loads(raw, object_pairs_hook=_object)
    except SchemaError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (RecursionError, ValueError) as exc:  # nested too deeply, an integer too long
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")

    gate = doc.get("gate")
    if gate not in GATES:
        raise SchemaError(f"unknown gate {gate!r}")
    device = doc.get("device", "")
    if not isinstance(device, str):
        raise SchemaError("device must be a string")
    try:
        device.encode("utf-8")
    except UnicodeEncodeError as exc:  # json reads "\ud800" as a lone surrogate
        raise SchemaError(f"device must be UTF-8 text, not {device[exc.start:exc.end]!a}")
    shots = doc.get("shots")
    if not isinstance(shots, int) or isinstance(shots, bool) or shots <= 0:
        raise SchemaError(f"shots must be a positive integer, got {shots!r}")
    runs_doc = doc.get("runs")
    if not isinstance(runs_doc, list):
        raise SchemaError("runs must be an array")

    # a tuple, whose "in" compares a label without hashing it: a label may
    # be any JSON value, an array or an object included
    expected_inputs = input_labels(gate)
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
                # an int compares exactly: one past the largest float is not finite
                if (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not 0.0 <= value <= sys.float_info.max
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
        # total - 1: an int total stays an exact int; a float one may round to inf
        if kind == "probs" and abs(total - 1) > 0.02:
            shown = total if total < math.inf else "more than the largest float"
            raise SchemaError(f"run {label!r}: probabilities sum to {shown}")
        runs[label] = weights
    missing = sorted(set(expected_inputs).difference(runs))
    if missing:
        raise SchemaError(f"missing runs for inputs {missing}")
    return CountTable(gate, device, shots, runs, kind)


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


# The display name of each affine pair (a, b), p_cell(alpha) = a + b * alpha.
_ROLE_NAME = {
    (0.0, 1.0): ROLE_ALPHA,
    (1.0, -2.0): ROLE_ONE_MINUS_2A,
    (0.5, -1.0): ROLE_HALF,
    (0.0, 0.0): ROLE_ZERO,
}


@lru_cache(maxsize=None)
def classify_cells(gate: str):
    """The affine pair (a, b) of every (output, input) cell, p(alpha) =
    a + b alpha, read from the predicted table at alpha = 0 and ALPHA_MAX, a
    power of 2: the intercept a and the slope (p(ALPHA_MAX) - a) / ALPHA_MAX,
    both exact in floats, once per gate, on which alone they depend."""
    at0 = predict_table(gate, 0.0)
    at_max = predict_table(gate, ALPHA_MAX)
    return tuple(
        tuple((a, (q - a) / ALPHA_MAX) for a, q in zip(row0, row_max))
        for row0, row_max in zip(at0, at_max)
    )


def estimate_re_k(pt: ProbTable) -> RekEstimate:
    """Per-cell estimates of alpha = Re k plus range and least squares.

    min/max range over the (0, 1) cells only, p = alpha (the off-diagonal
    leakage cells); the least-squares estimate uses every cell's affine pair.
    A cell with slope 0 carries no estimate. The cells are those of the
    table's own gate, ``pt.gate``.
    """
    cells = classify_cells(pt.gate)
    in_labels = input_labels(pt.gate)
    per_cell = []
    alpha_cells = []
    num = 0.0
    den = 0.0
    for i in range(4):
        for j in range(4):
            a, b = cells[i][j]
            p = pt.matrix[i][j]
            num += b * (p - a)
            den += b * b
            if b == 0.0:
                continue
            # + 0.0: a cell at its intercept estimates 0, never -0
            est = (p - a) / b + 0.0
            per_cell.append(CellEstimate(in_labels[j], OUTCOMES[i], _ROLE_NAME[a, b], est))
            if (a, b) == (0.0, 1.0):
                alpha_cells.append(est)
    # Every column adds a nonnegative amount to num in exact arithmetic (its
    # probabilities sum to one), so a negative quotient is rounding.
    lsq = max(0.0, num / den)
    ssr = 0.0
    for i in range(4):
        for j in range(4):
            a, b = cells[i][j]
            ssr += (pt.matrix[i][j] - a - b * lsq) ** 2
    return RekEstimate(per_cell, min(alpha_cells), max(alpha_cells), lsq, math.sqrt(ssr))


def fit_coupling(re_k: float, u: float) -> float:
    """Invert the quadratic Re k approximation for the coupling strength."""
    if not u > 0:  # NaN fails too
        raise ValueError("u must be positive")
    if not re_k >= 0:
        raise ValueError("re_k must be nonnegative")
    return re_k / re_k_approx(1.0, u)


def _normalize_device(device: str) -> str:
    return device.strip().lower().replace("-", "_").replace(" ", "_")


def reference_range(gate: str, device: str) -> Optional[Tuple[float, float]]:
    return REFERENCE_RANGES.get((gate, _normalize_device(device)))


def divergence_flags(est: RekEstimate, gate: str, device: str):
    """Compare the deterministic min/max to the published reference range.

    Returns (reference_range, flags) where flags lists human-readable
    divergence notes, or None when no reference exists for the device.
    """
    ref = reference_range(gate, device)
    if ref is None:
        return None
    lo, hi = ref
    flags = []
    if abs(est.min - lo) > _DIVERGENCE_TOL:
        flags.append(
            f"alpha-cell minimum {est.min:.4f} differs from published lower bound {lo:.4f}"
        )
    if abs(est.max - hi) > _DIVERGENCE_TOL:
        flags.append(
            f"alpha-cell maximum {est.max:.4f} differs from published upper bound {hi:.4f}"
        )
    return ref, flags
