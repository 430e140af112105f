"""Recovery operators and mitigation cost functions.

Each gate's population channel V and its inverse V^-1 are sums over
channel's Pauli-weight split, weighted by its noise model (``_RATES``); both
are stated there. ``_resolvent`` writes V^-1 as a linear form in I, R, P_1
and P_2, and its Gamma expansion weights are the same form in the constant
weights of those four. These rows, entries and weights, are read once per
process off channel's split (``_TABLE``), and stored column by column: per
gate, the labels with a nonzero weight and one (I, R, P_1, P_2) quadruple
per entry and weight. ``recovery_op`` evaluates the form in one pass over
the columns and inverts nothing. It computes the channel determinant, V's
eigenvalues multiplied tr P_w times each (``_FACTORS``), once, and reads its
closed-form record, (B, C, D, E) or (F, G, H), off the entries it computes,
at the positions ``_RECORD`` reads off the printed pattern (``_PRINTED``).
It returns a ``RecoveryOp``, a named tuple of the gate, alpha, V^-1, that
record and the Gamma weights.

Independent oracles, which the tests compare with the spectral route:
``recovery_numeric`` (LU), ``gamma.decompose`` (trace formula) and exact
rationals. ``swap_recovery_matrix`` / ``id_recovery_matrix`` fill the printed
pattern with recovery_op's own record, so they check only that pattern.

Costs come in two kinds:

* ``cost_swap`` / ``cost_id`` -- the printed absolute-value combinations of
  the closed-form coefficients (the canonical contract), returned in their
  reduced forms on the domain: (1 - 2a^2)/((1 - 2a)(1 - 4a)) for SWAP and
  1/(1 - 4a) for Identity. They read no record and check alpha and one
  determinant in line, which the tests pin bit for bit to ``_determinant``;
  ``printed_cost(gate)`` returns the gate's one.
* ``cost_from_decomposition`` -- sum of absolute Gamma expansion weights of
  the recovery matrix, equal to ||V^-1||_1->1 and so the optimal cost. For
  the identity gate this equals ``cost_id``; for SWAP it is smaller than the
  printed combination by exactly |D| (the unique expansion carries D with
  weight |D| where the printed combination counts it twice) and is reported
  as a separate diagnostic, never silently substituted.

The domain is channel's ``ALPHA_MAX``, alpha in [0, 1/4), where the map has
a finite inverse; its reason is stated there, beside the map's Pauli form.
"""

from __future__ import annotations

import collections
import warnings
from typing import Tuple

from . import gamma as gamma_mod
from .channel import (_CHANNEL, _PROJECTORS, _RATES, ALPHA_MAX, AlphaOutOfRange, Channel,
                      NmqemError, _gate_record)
from .linalg import CMat, det, mat_inv

__all__ = [
    "RecoveryOp",
    "AlphaOutOfRange",
    "DenominatorNearZero",
    "ALPHA_MAX",
    "recovery_numeric",
    "closed_form_swap",
    "closed_form_id",
    "swap_recovery_matrix",
    "id_recovery_matrix",
    "cost_swap",
    "cost_id",
    "printed_cost",
    "cost_from_decomposition",
    "recovery_op",
]

_DENOM_EPS = 1e-9


class DenominatorNearZero(NmqemError, ArithmeticError):
    """Closed-form denominator vanishes (alpha at a channel singularity)."""


def _check_alpha(alpha: float):
    if not (0.0 <= alpha < ALPHA_MAX):
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, {ALPHA_MAX})")


def _check_denominator(den: float, alpha: float):
    if abs(den) < _DENOM_EPS:
        raise DenominatorNearZero(f"denominator {den} at alpha={alpha}")


def _table(terms, p1, p2) -> tuple:
    """The labels and the rows I, R, P_1 and P_2 of one gate, column by column:
    I and R from the channel's (delta, R) pairs, P_1 and P_2 from its split.
    Each row holds its 16 row-major entries, then its Gamma weights
    tr(G_r^dagger M) / 4 on the labels nonzero in some row; all are small
    dyadics, exact in floats."""
    rows = [CMat(4, 4, m) for m in (*zip(*terms), p1, p2)]
    basis = gamma_mod.build_gamma_basis()
    weights = [gamma_mod.decompose(basis, m).coeffs for m in rows]
    labels = tuple(label for label in gamma_mod.BASIS_ORDER if any(c[label] for c in weights))
    return labels, tuple(zip(*(
        tuple(e.real for e in m.entries)
        # real weights as floats, so that recovery_op sums them in floats
        + tuple(c[label].real if not c[label].imag else c[label] for label in labels)
        for m, c in zip(rows, weights)
    )))


# Each gate's table, read off channel's split; the recovery tests check every
# row against m_tensor in rationals.
_TABLE = {gate: _table(_CHANNEL[gate], p1, p2) for gate, (_, p1, p2) in _PROJECTORS.items()}
# Each nonzero rate r_w, ascending, tr P_w times: V's eigenvalues 1 - r_w alpha.
_FACTORS = {gate: tuple(r for r, p in zip(_RATES, split) if r for _ in range(round(sum(p[::5]))))
            for gate, split in _PROJECTORS.items()}
_REMAINDERS = tuple(((r / 2) ** 2, r) for r in _RATES if r)
_ZERO_WEIGHTS = dict.fromkeys(gamma_mod.BASIS_ORDER, 0j)


def _resolvent(columns, alpha: float) -> list:
    """V^-1 = I + 2 alpha R + (2 alpha)^2 (s_1 P_1 + s_2 P_2), s_w = (r_w / 2)^2 /
    (1 - r_w alpha), entry by entry over the columns (I, R, P_1, P_2): the
    spectral sum sum_w P_w / (1 - r_w alpha) by 1/(1 - x) = 1 + x + x^2 / (1 - x).
    Grouped by powers of alpha, an entry of order alpha or alpha^2 keeps its
    relative precision, which the plain sum loses to cancellation at small alpha."""
    (h1, r1), (h2, r2) = _REMAINDERS
    a = 2.0 * alpha
    b = a * a
    s1 = h1 / (1.0 - r1 * alpha)
    s2 = h2 / (1.0 - r2 * alpha)
    # 0.0 + ...: the alpha^2 bracket of a zero entry is +0.0, never -0.0
    return [x + a * y + b * ((0.0 + s1 * z) + s2 * w) for x, y, z, w in columns]


def _determinant(gate: str, alpha: float) -> float:
    """The channel determinant, the product of V's eigenvalues 1 - r_w alpha
    over ``_FACTORS``. Multiplied in ascending rate, it is bit for bit the
    factored determinant that ``cost_swap`` / ``cost_id`` check in line."""
    den = 1.0
    for f in _FACTORS[gate]:
        den *= 1.0 - f * alpha
    return den


# Each gate's printed V^-1, the record name of each entry, row-major; its record
# is the names in alphabetical order, each at its first position. Beside it,
# the name of the gate's printed cost function (``printed_cost``).
_PRINTED = {gate: pattern.replace(" ", "") for gate, pattern in
            {"swap": "CBDB BEBB DBCB BBBE", "identity": "FHHG HFGH HGFH GHHF"}.items()}
_PRINTED_COST = {"swap": "cost_swap", "identity": "cost_id"}
_RECORD = {gate: tuple((name, p.index(name)) for name in sorted(set(p)))
           for gate, p in _PRINTED.items()}


def _closed_form(gate: str, alpha: float) -> tuple:
    """The gate's record in ``_RECORD``'s order, the entries recovery_op reads."""
    _check_alpha(alpha)
    _check_denominator(_determinant(gate, alpha), alpha)
    columns = _TABLE[gate][1]
    return tuple(_resolvent([columns[k] for _, k in _RECORD[gate]], alpha))


def closed_form_swap(alpha: float) -> Tuple[float, float, float, float]:
    """Coefficients (B, C, D, E) of the SWAP recovery matrix."""
    return _closed_form("swap", alpha)


def closed_form_id(alpha: float) -> Tuple[float, float, float]:
    """Coefficients (F, G, H) of the Identity recovery matrix; they equal
    (C, D, B) of the SWAP gate."""
    return _closed_form("identity", alpha)


def _printed_matrix(gate: str, alpha: float) -> CMat:
    record = dict(zip((name for name, _ in _RECORD[gate]), _closed_form(gate, alpha)))
    return CMat(4, 4, [record[name] for name in _PRINTED[gate]])


def swap_recovery_matrix(alpha: float) -> CMat:
    return _printed_matrix("swap", alpha)


def id_recovery_matrix(alpha: float) -> CMat:
    return _printed_matrix("identity", alpha)


def _warn_if_nearly_singular(determinant: float, alpha: float):
    if abs(determinant) < 1e-4:
        warnings.warn(
            f"channel nearly singular at alpha={alpha}; inverse is ill-conditioned",
            RuntimeWarning,
            stacklevel=3,
        )


def recovery_numeric(ch: Channel) -> CMat:
    """Numeric channel inverse by LU; R V = I to working precision. An
    oracle for ``recovery_op``, which nothing in the package calls.

    Checks in ``recovery_op``'s order, on the determinant of its own LU:
    warns when it is close to its alpha = 1/4 root, where the inverse
    entries blow up, and then raises DenominatorNearZero below 1e-9.
    """
    _check_alpha(ch.alpha)
    m = ch.to_cmat()
    den = det(m).real  # V is real, so its LU determinant is too
    _warn_if_nearly_singular(den, ch.alpha)
    _check_denominator(den, ch.alpha)
    return mat_inv(m)


def cost_swap(alpha: float) -> float:
    """Mitigation cost |C+E|/2 + |C-E|/2 + 3|B| + |D| for the SWAP gate. On
    [0, 1/4), C - E = -a/((1-2a)(1-4a)) <= 0, B <= 0 and D >= 0, so it is
    E - 3B + D = (1 - 2a^2)/((1-2a)(1-4a)), refused on the determinant (1-2a)(1-4a)^2."""
    if not 0.0 <= alpha < ALPHA_MAX:
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, {ALPHA_MAX})")
    p, q = 1.0 - 2.0 * alpha, 1.0 - 4.0 * alpha
    if abs(p * q * q) < _DENOM_EPS:
        raise DenominatorNearZero(f"denominator {p * q * q} at alpha={alpha}")
    return (1.0 - 2.0 * alpha * alpha) / (p * q)


def cost_id(alpha: float) -> float:
    """Mitigation cost |F| + |G| + 2|H| for the Identity gate; equals
    1/(1-4a) on the whole domain, refused on the determinant (1-2a)^2 (1-4a)."""
    if not 0.0 <= alpha < ALPHA_MAX:
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, {ALPHA_MAX})")
    p, q = 1.0 - 2.0 * alpha, 1.0 - 4.0 * alpha
    if abs(p * p * q) < _DENOM_EPS:
        raise DenominatorNearZero(f"denominator {p * p * q} at alpha={alpha}")
    return 1.0 / q


def printed_cost(gate: str):
    """The gate's printed cost function, ``cost_swap`` or ``cost_id``, looked
    up on this module when called, so that a wrapper set on the module sees
    the calls. Raises NmqemError for a gate with no printed cost."""
    name = _PRINTED_COST.get(gate)
    if name is None:
        raise NmqemError(f"no printed cost for gate {gate!r}")
    return globals()[name]


# A recovery operator with both coefficient records attached: the closed-form
# record (B, C, D, E) or (F, G, H) as coeffs, the Gamma weights as gamma.
RecoveryOp = collections.namedtuple("RecoveryOp", "gate alpha matrix coeffs gamma")


def recovery_op(gate: str, alpha: float) -> RecoveryOp:
    """Build the recovery operator for a gate: V^-1 and its Gamma weights
    from the gate's table in one pass, and the closed-form coefficient
    record. Warns as ``recovery_numeric`` does when the channel determinant
    falls below 1e-4, and then raises DenominatorNearZero below 1e-9, as
    ``closed_form_*`` do."""
    _gate_record(gate)
    _check_alpha(alpha)
    den = _determinant(gate, alpha)
    _warn_if_nearly_singular(den, alpha)
    _check_denominator(den, alpha)
    labels, columns = _TABLE[gate]
    values = _resolvent(columns, alpha)
    coeffs = {name: values[k] for name, k in _RECORD[gate]}
    matrix = CMat(4, 4, values[:16])
    weights = _ZERO_WEIGHTS.copy()
    weights.update(zip(labels, values[16:]))
    return RecoveryOp(gate, alpha, matrix, coeffs, gamma_mod.GammaCoeffs(weights))


def cost_from_decomposition(r: RecoveryOp) -> float:
    """Sum of absolute Gamma expansion weights of the recovery operator."""
    return r.gamma.abs_sum()
