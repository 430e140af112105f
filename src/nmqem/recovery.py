"""Recovery operators and mitigation cost functions.

A recovery operator is the matrix inverse of a noisy population channel. For
both gates it also has a closed rational form in alpha = Re k; the two routes
are kept separate so each validates the other. Costs come in three flavours:

* ``cost_swap`` / ``cost_id`` -- the printed absolute-value combinations of
  the closed-form coefficients (the canonical contract; the identity one
  simplifies to 1/(1-4a) on the whole domain).
* ``cost_from_decomposition`` -- sum of absolute Gamma expansion weights of
  the recovery matrix. For the identity gate this equals ``cost_id``; for
  SWAP it is smaller than the printed combination by exactly |D| (the unique
  expansion carries D with weight |D| where the printed combination counts
  it twice) and is reported as a separate diagnostic, never silently
  substituted.

Domain is alpha in [0, 0.25): both channel determinants have their first
root at 1/4, beyond which the quasi-probability reading of the expansion
breaks down.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Tuple

from . import gamma as gamma_mod
from .channel import AlphaOutOfRange, Channel, population_channel
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
    "cost_from_decomposition",
    "recovery_op",
]

ALPHA_MAX = 0.25

_DENOM_EPS = 1e-9


class DenominatorNearZero(ArithmeticError):
    """Closed-form denominator vanishes (alpha at a channel singularity)."""


def _check_alpha(alpha: float):
    if not (0.0 <= alpha < ALPHA_MAX):
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, {ALPHA_MAX})")


def _swap_denominator(alpha: float) -> float:
    # SWAP channel determinant (1 - 2a)(1 - 4a)^2
    q = 1.0 - 4.0 * alpha
    return (1.0 - 2.0 * alpha) * q * q


def _id_denominator(alpha: float) -> float:
    # Identity channel determinant (1 - 2a)^2 (1 - 4a)
    p = 1.0 - 2.0 * alpha
    return p * p * (1.0 - 4.0 * alpha)


def _check_denominator(den: float, alpha: float):
    if abs(den) < _DENOM_EPS:
        raise DenominatorNearZero(f"denominator {den} at alpha={alpha}")


def _coefficients(alpha: float) -> Tuple[float, float, float, float]:
    # Every coefficient factors over p = 1 - 2a and q = 1 - 4a:
    # B = -a/q, C = (1 - 4a + 2a^2)/(pq), D = 2a^2/(pq), E = (1 - a)/q.
    # Unlike the expanded cubics over the determinant, these keep full
    # relative precision as alpha -> 1/4.
    p = 1.0 - 2.0 * alpha
    q = 1.0 - 4.0 * alpha
    a2 = alpha * alpha
    return -alpha / q, (q + 2.0 * a2) / (p * q), 2.0 * a2 / (p * q), (1.0 - alpha) / q


def closed_form_swap(alpha: float) -> Tuple[float, float, float, float]:
    """Coefficients (B, C, D, E) of the SWAP recovery matrix."""
    _check_alpha(alpha)
    _check_denominator(_swap_denominator(alpha), alpha)
    return _coefficients(alpha)


def closed_form_id(alpha: float) -> Tuple[float, float, float]:
    """Coefficients (F, G, H) of the Identity recovery matrix; they equal
    (C, D, B) of the SWAP gate."""
    _check_alpha(alpha)
    _check_denominator(_id_denominator(alpha), alpha)
    b, c, d, _ = _coefficients(alpha)
    return c, d, b


def swap_recovery_matrix(alpha: float) -> CMat:
    b, c, d, e = closed_form_swap(alpha)
    return CMat.from_rows(
        [
            [c, b, d, b],
            [b, e, b, b],
            [d, b, c, b],
            [b, b, b, e],
        ]
    )


def id_recovery_matrix(alpha: float) -> CMat:
    f, g, h = closed_form_id(alpha)
    return CMat.from_rows(
        [
            [f, h, h, g],
            [h, f, g, h],
            [h, g, f, h],
            [g, h, h, f],
        ]
    )


def recovery_numeric(ch: Channel) -> CMat:
    """Numeric channel inverse; R V = I to working precision.

    Emits a warning when the channel determinant is close to its alpha = 1/4
    root, where the inverse entries blow up.
    """
    _check_alpha(ch.alpha)
    m = ch.to_cmat()
    if abs(det(m)) < 1e-4:
        warnings.warn(
            f"channel nearly singular at alpha={ch.alpha}; inverse is ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    return mat_inv(m)


def cost_swap(alpha: float) -> float:
    """Mitigation cost |C+E|/2 + |C-E|/2 + 3|B| + |D| for the SWAP gate."""
    b, c, d, e = closed_form_swap(alpha)
    return 0.5 * abs(c + e) + 0.5 * abs(c - e) + 3.0 * abs(b) + abs(d)


def cost_id(alpha: float) -> float:
    """Mitigation cost |F| + |G| + 2|H| for the Identity gate; equals
    1/(1-4a) on the whole domain."""
    f, g, h = closed_form_id(alpha)
    return abs(f) + abs(g) + 2.0 * abs(h)


@dataclass(frozen=True)
class RecoveryOp:
    """A recovery operator with both coefficient records attached."""

    gate: str
    alpha: float
    matrix: CMat
    coeffs: Dict[str, float]  # closed-form record (B,C,D,E) or (F,G,H)
    gamma: gamma_mod.GammaCoeffs


def recovery_op(gate: str, alpha: float, basis: gamma_mod.GammaBasis = None) -> RecoveryOp:
    """Build the recovery operator for a gate: numeric inverse of the
    population channel, closed-form coefficients and Gamma decomposition."""
    ch = population_channel(gate, alpha)
    matrix = recovery_numeric(ch)
    if gate == "swap":
        b, c, d, e = closed_form_swap(alpha)
        coeffs = {"B": b, "C": c, "D": d, "E": e}
    else:
        f, g, h = closed_form_id(alpha)
        coeffs = {"F": f, "G": g, "H": h}
    if basis is None:
        basis = gamma_mod.build_gamma_basis()
    gcoeffs = gamma_mod.decompose(basis, matrix)
    return RecoveryOp(gate, alpha, matrix, coeffs, gcoeffs)


def cost_from_decomposition(r: RecoveryOp) -> float:
    """Sum of absolute Gamma expansion weights of the recovery operator."""
    return r.gamma.abs_sum()
