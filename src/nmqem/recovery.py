"""Recovery operators and mitigation cost functions.

Each gate's population channel is V = delta - 2 alpha R (``channel``), and its
rate matrix R has the distinct eigenvalues l in {0, 1, 2}. With R's spectral
projectors P_l, V = sum_l (1 - 2 l alpha) P_l, so the recovery operator is

    V^-1 = P_0 + P_1 / (1 - 2 alpha) + P_2 / (1 - 4 alpha),

and its Gamma expansion weights are the same sum over the constant weights
c(P_l) of each projector. Both P_l and c(P_l) are derived once per process
from channel's R, which is the only per-gate literal (``_SPECTRUM``).
``recovery_op`` evaluates both sums grouped by powers of alpha so that
entries of order alpha^2 keep their relative precision (``_resolvent``); it
inverts nothing and takes no traces. Its closed-form record holds the
coefficients (B, C, D, E) or (F, G, H) in their factored forms over
1 - 2 alpha and 1 - 4 alpha, from which the printed costs are computed.

Independent oracles, which the tests compare with the spectral route:
``recovery_numeric`` (LU inverse of the channel matrix),
``swap_recovery_matrix`` / ``id_recovery_matrix`` (matrices assembled from the
closed-form coefficients) and ``gamma.decompose`` (trace formula).

Costs come in three flavours:

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
from .channel import _RATE_MATRIX, AlphaOutOfRange, Channel
from .linalg import CMat, det, identity, mat_inv, mat_mul

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


_DENOMINATOR = {"swap": _swap_denominator, "identity": _id_denominator}


def _check_denominator(den: float, alpha: float):
    if abs(den) < _DENOM_EPS:
        raise DenominatorNearZero(f"denominator {den} at alpha={alpha}")


def _spectrum(rate) -> tuple:
    """One row (l, P_l, c(P_l)) per eigenvalue l in {0, 1, 2} of the rate
    matrix R: the Lagrange projector P_l = (R - m I)(R - n I) / ((l - m)(l - n))
    over the other two eigenvalues m, n, as 16 row-major floats, and c(P_l)
    its nonzero Gamma weights tr(G_r^dagger P_l) / 4. R's entries are halves
    and (l - m)(l - n) is 2 or -1, so every entry is a small dyadic and the
    floats are exact; so are the traces, dyadics times {0, +-1, +-i}."""
    basis = gamma_mod.build_gamma_basis()
    r = CMat.from_rows(rate)
    shifted = [r.add(identity(4).scaled(-mu)) for mu in (0, 1, 2)]
    rows = []
    for lam in (0, 1, 2):
        m, n = (mu for mu in (0, 1, 2) if mu != lam)
        p = mat_mul(shifted[m], shifted[n]).scaled(1 / ((lam - m) * (lam - n)))
        weights = gamma_mod.decompose(basis, p).coeffs
        # real weights as floats, so that recovery_op sums them in floats
        weights = {k: w.real if not w.imag else w for k, w in weights.items() if w}
        rows.append((lam, tuple(e.real for e in p.entries), weights))
    return tuple(rows)


# Each gate's spectral table, derived once from channel's rate matrix R. The
# rows satisfy sum_l l P_l = R, sum_l P_l = I and P_l P_m = delta_lm P_l; the
# recovery tests check every entry against m_tensor in rationals.
_SPECTRUM = {gate: _spectrum(rate) for gate, rate in _RATE_MATRIX.items()}


def _moments(vectors):
    """(sum_l v_l, sum_l l v_l, the pairs (l, v_l) with l > 0) for the
    pairs (l, v_l) of one gate; sums of dyadic floats, so exact."""
    return (
        [sum(column) for column in zip(*(v for _, v in vectors))],
        [sum(column) for column in zip(*(tuple(lam * x for x in v) for lam, v in vectors))],
        tuple((lam, v) for lam, v in vectors if lam),
    )


def _weight_moments(spectrum):
    """The labels with a nonzero weight in some c(P_l), and the moments of
    the c(P_l) over those labels."""
    labels = tuple(
        label for label in gamma_mod.BASIS_ORDER if any(label in c for _, _, c in spectrum)
    )
    weights = [(lam, tuple(c.get(label, 0) for label in labels)) for lam, _, c in spectrum]
    return labels, _moments(weights)


# Per gate, the moments of the projectors and of their Gamma weights: the
# form _resolvent takes.
_MOMENTS = {
    gate: (_moments([(lam, p) for lam, p, _ in spectrum]), _weight_moments(spectrum))
    for gate, spectrum in _SPECTRUM.items()
}


def _resolvent(moments, alpha: float) -> list:
    """sum_l v_l / (1 - 2 l alpha), evaluated as
    sum_l v_l + 2 alpha sum_l l v_l + 4 alpha^2 sum_l l^2 v_l / (1 - 2 l alpha),
    the same sum by 1/(1 - x) = 1 + x + x^2 / (1 - x). Grouped by powers of
    alpha, an entry of order alpha or alpha^2 keeps its relative precision,
    which the plain sum loses to cancellation at small alpha."""
    v0, v1, tail = moments
    t = [0.0] * len(v0)
    for lam, v in tail:
        s = lam * lam / (1.0 - 2.0 * lam * alpha)
        t = [x + s * y for x, y in zip(t, v)]
    a = 2.0 * alpha
    b = a * a
    return [x + a * y + b * z for x, y, z in zip(v0, v1, t)]


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

    Emits a warning when the channel determinant is close to its alpha = 1/4
    root, where the inverse entries blow up.
    """
    _check_alpha(ch.alpha)
    m = ch.to_cmat()
    _warn_if_nearly_singular(det(m), ch.alpha)
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


def recovery_op(gate: str, alpha: float) -> RecoveryOp:
    """Build the recovery operator for a gate: the spectral sum
    sum_l P_l / (1 - 2 l alpha) for the matrix and its Gamma weights, and the
    closed-form coefficient record. Warns as ``recovery_numeric`` does when
    the channel determinant, the product of its eigenvalues 1 - 2 l alpha,
    falls below 1e-4."""
    moments = _MOMENTS.get(gate)
    if moments is None:
        raise ValueError(f"unknown gate {gate!r}")
    _check_alpha(alpha)
    _warn_if_nearly_singular(_DENOMINATOR[gate](alpha), alpha)
    if gate == "swap":
        coeffs = dict(zip("BCDE", closed_form_swap(alpha)))
    else:
        coeffs = dict(zip("FGH", closed_form_id(alpha)))
    matrix_moments, (labels, weight_moments) = moments
    matrix = CMat(4, 4, _resolvent(matrix_moments, alpha))
    weights = dict.fromkeys(gamma_mod.BASIS_ORDER, 0j)
    weights.update(zip(labels, _resolvent(weight_moments, alpha)))
    return RecoveryOp(gate, alpha, matrix, coeffs, gamma_mod.GammaCoeffs(weights))


def cost_from_decomposition(r: RecoveryOp) -> float:
    """Sum of absolute Gamma expansion weights of the recovery operator."""
    return r.gamma.abs_sum()
