"""Noisy two-qubit population-transfer channels.

Builds the tensor of pairwise Pauli matrix elements in an orthonormal
two-qubit basis exactly (``m_tensor``) and assembles the noisy evolution
operator element by element from it (``v_element``). The SWAP / Identity
population channels are affine in alpha = Re k, delta - 2 alpha R, with each
gate's rate matrix R a literal table of dyadic rationals that the tests
check against ``m_tensor``. Also produces the predicted probability tables,
including the conversion from the exchange-symmetric multiplet basis to the
computational basis.

Channel matrices are column stochastic: column c is the output population
distribution for pure input state c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Tuple

from .linalg import CMat

__all__ = [
    "Basis4",
    "MTensor",
    "Channel",
    "AlphaOutOfRange",
    "NotNormalized",
    "multiplet_basis",
    "computational_basis",
    "m_tensor",
    "v_element",
    "population_channel",
    "predict_table",
    "to_computational",
    "GATES",
]

GATES = ("swap", "identity")

COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
MULTIPLET_LABELS = ("m1", "m2", "m3", "m4")


class AlphaOutOfRange(ValueError):
    """alpha outside the validity domain of the requested operation."""


class NotNormalized(ValueError):
    """Population vector does not sum to one."""


# Exact scalars from the ring Q[sqrt2] + i Q[sqrt2], stored as four
# Fractions (ra, rb, ia, ib) meaning (ra + rb*sqrt2) + i*(ia + ib*sqrt2).
# Basis amplitudes (0, +-1, +-1/sqrt2) and Pauli entries (0, +-1, +-i) stay
# inside this ring, so matrix elements of the M tensor can be computed
# without rounding.
ExactScalar = Tuple[Fraction, Fraction, Fraction, Fraction]


def _ex(ra=0, rb=0, ia=0, ib=0) -> ExactScalar:
    return (Fraction(ra), Fraction(rb), Fraction(ia), Fraction(ib))


_EX_ZERO = _ex()


def _ex_add(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def _ex_mul(x: ExactScalar, y: ExactScalar) -> ExactScalar:
    def mul2(a, b, c, d):
        # (a + b*sqrt2)(c + d*sqrt2) = ac + 2bd + (ad + bc) sqrt2
        return a * c + 2 * b * d, a * d + b * c

    rr = mul2(x[0], x[1], y[0], y[1])
    ii = mul2(x[2], x[3], y[2], y[3])
    ri = mul2(x[0], x[1], y[2], y[3])
    ir = mul2(x[2], x[3], y[0], y[1])
    return (rr[0] - ii[0], rr[1] - ii[1], ri[0] + ir[0], ri[1] + ir[1])


def _ex_conj(x: ExactScalar) -> ExactScalar:
    return (x[0], x[1], -x[2], -x[3])


def _ex_to_complex(x: ExactScalar) -> complex:
    s2 = math.sqrt(2.0)
    return complex(float(x[0]) + float(x[1]) * s2, float(x[2]) + float(x[3]) * s2)


@dataclass(frozen=True)
class Basis4:
    """An orthonormal two-qubit basis over {|00>, |01>, |10>, |11>}.

    ``exact_vectors`` optionally carries the same amplitudes as exact
    Q[sqrt2] scalars; the M tensor is computed from them without rounding.
    """

    name: str
    vectors: Tuple[Tuple[complex, ...], ...]
    exact_vectors: Optional[Tuple[Tuple[ExactScalar, ...], ...]] = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if len(self.vectors) != 4 or any(len(v) != 4 for v in self.vectors):
            raise ValueError("need four amplitude 4-vectors")
        for i in range(4):
            for j in range(4):
                g = sum(self.vectors[i][p].conjugate() * self.vectors[j][p] for p in range(4))
                expected = 1.0 if i == j else 0.0
                if abs(g - expected) > 1e-12:
                    raise ValueError("basis vectors are not orthonormal")
        if self.exact_vectors is not None:
            for i in range(4):
                for p in range(4):
                    drift = abs(
                        _ex_to_complex(self.exact_vectors[i][p]) - self.vectors[i][p]
                    )
                    if drift > 1e-12:
                        raise ValueError("exact amplitudes disagree with float ones")


_S = 1.0 / math.sqrt(2.0)
_EX_S = _ex(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2 / 2
_EX_ONE = _ex(1)


def multiplet_basis() -> Basis4:
    """Exchange-symmetric basis diagonalizing the SWAP interaction:
    {|00>, (|01>+|10>)/sqrt2, |11>, (|01>-|10>)/sqrt2}."""
    neg_s = _ex(0, Fraction(-1, 2))
    return Basis4(
        "multiplet_swap",
        (
            (1.0, 0.0, 0.0, 0.0),
            (0.0, _S, _S, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (0.0, _S, -_S, 0.0),
        ),
        exact_vectors=(
            (_EX_ONE, _EX_ZERO, _EX_ZERO, _EX_ZERO),
            (_EX_ZERO, _EX_S, _EX_S, _EX_ZERO),
            (_EX_ZERO, _EX_ZERO, _EX_ZERO, _EX_ONE),
            (_EX_ZERO, _EX_S, neg_s, _EX_ZERO),
        ),
    )


def computational_basis() -> Basis4:
    return Basis4(
        "computational",
        (
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
        ),
        exact_vectors=tuple(
            tuple(_EX_ONE if p == i else _EX_ZERO for p in range(4)) for i in range(4)
        ),
    )


@lru_cache(maxsize=None)
def basis_for_gate(gate: str) -> Basis4:
    # The Identity gate's interaction eigenbasis coincides with the
    # computational basis; SWAP needs the multiplet basis.
    if gate == "swap":
        return multiplet_basis()
    if gate == "identity":
        return computational_basis()
    raise ValueError(f"unknown gate {gate!r}")


@dataclass(frozen=True)
class MTensor:
    """Pairwise Pauli matrix elements M[a][b][c][d], zero-indexed."""

    m: Tuple  # 4x4x4x4 nested tuples of floats

    def at(self, a: int, b: int, c: int, d: int) -> float:
        """One-indexed accessor matching the algebraic notation."""
        return self.m[a - 1][b - 1][c - 1][d - 1]

    def diag_sum(self, a: int, c: int) -> float:
        """sum over a' of M_{a a' a' c} (one-indexed a, c)."""
        return sum(self.m[a - 1][ap][ap][c - 1] for ap in range(4))


_EX_PAULI = {
    "X": ((_EX_ZERO, _ex(1)), (_ex(1), _EX_ZERO)),
    "Y": ((_EX_ZERO, _ex(0, 0, -1)), (_ex(0, 0, 1), _EX_ZERO)),
    "Z": ((_ex(1), _EX_ZERO), (_EX_ZERO, _ex(-1))),
}
_EX_I2 = ((_ex(1), _EX_ZERO), (_EX_ZERO, _ex(1)))


def _ex_kron(a, b):
    return tuple(
        tuple(_ex_mul(a[i // 2][j // 2], b[i % 2][j % 2]) for j in range(4))
        for i in range(4)
    )


def _exact_spin_operators():
    ops = []
    for p in ("X", "Y", "Z"):
        ops.append(_ex_kron(_EX_PAULI[p], _EX_I2))  # qubit 1
        ops.append(_ex_kron(_EX_I2, _EX_PAULI[p]))  # qubit 2
    return ops


def m_tensor(basis: Basis4) -> MTensor:
    """Pairwise Pauli matrix elements of a basis, computed without rounding
    from its exact Q[sqrt2] amplitudes."""
    vectors = basis.exact_vectors
    if vectors is None:
        raise ValueError(f"basis {basis.name!r} carries no exact amplitudes")
    elem = []
    for op in _exact_spin_operators():
        rows = []
        for a in range(4):
            va = vectors[a]
            row = []
            for b in range(4):
                vb = vectors[b]
                acc = _EX_ZERO
                for i in range(4):
                    for j in range(4):
                        if op[i][j] == _EX_ZERO:
                            continue
                        acc = _ex_add(acc, _ex_mul(_ex_mul(_ex_conj(va[i]), op[i][j]), vb[j]))
                row.append(acc)
            rows.append(row)
        elem.append(rows)
    quarter = _ex(Fraction(1, 4))
    out = []
    for a in range(4):
        ta = []
        for b in range(4):
            tb = []
            for c in range(4):
                tc = []
                for d in range(4):
                    acc = _EX_ZERO
                    for e in elem:
                        acc = _ex_add(acc, _ex_mul(e[a][b], e[c][d]))
                    acc = _ex_mul(quarter, acc)
                    if acc[2] != 0 or acc[3] != 0:
                        raise ValueError("M tensor entry is not real")
                    # entries are rational in both supplied bases; the sqrt2
                    # component survives only if it genuinely appears
                    tc.append(float(acc[0]) + float(acc[1]) * math.sqrt(2.0))
                tb.append(tuple(tc))
            ta.append(tuple(tb))
        out.append(tuple(ta))
    return MTensor(tuple(out))


def v_element(
    mt: MTensor,
    k: complex,
    a: int,
    b: int,
    c: int,
    d: int,
) -> complex:
    """Matrix element of the noisy evolution superoperator over the basis of
    ``mt``, one-indexed."""
    d_ac = 1.0 if a == c else 0.0
    d_bd = 1.0 if b == d else 0.0
    m_acdb = mt.at(a, c, d, b)
    return (
        d_ac * d_bd
        - (d_bd * mt.diag_sum(a, c) - m_acdb) * k
        - (d_ac * mt.diag_sum(a, b) - m_acdb) * k.conjugate()
    )


@dataclass(frozen=True)
class Channel:
    """Column-stochastic 4x4 population transfer matrix for one gate."""

    gate: str
    basis: str
    alpha: float
    matrix: Tuple[Tuple[float, ...], ...]  # matrix[out][in]

    def column(self, j: int) -> Tuple[float, ...]:
        return tuple(self.matrix[i][j] for i in range(4))

    def to_cmat(self) -> CMat:
        return CMat.from_rows([list(r) for r in self.matrix])


# Rate matrices R of the population channel, one per gate: with k = alpha
# real, v_element(a, a, c, c) = delta_ac - 2 alpha R[a][c], where
# R[a][c] = delta_ac * sum_a' M_{a a' a' a} - M_{a c c a} over the gate's
# basis. The entries are exact dyadic rationals of m_tensor, so the float
# table carries no rounding; the channel tests check it against m_tensor.
_RATE_MATRIX = {
    "swap": (
        (1.0, -0.5, 0.0, -0.5),
        (-0.5, 1.5, -0.5, -0.5),
        (0.0, -0.5, 1.0, -0.5),
        (-0.5, -0.5, -0.5, 1.5),
    ),
    "identity": (
        (1.0, -0.5, -0.5, 0.0),
        (-0.5, 1.0, 0.0, -0.5),
        (-0.5, 0.0, 1.0, -0.5),
        (0.0, -0.5, -0.5, 1.0),
    ),
}


def population_channel(gate: str, alpha: float) -> Channel:
    """Population block of the noisy evolution operator at alpha = Re k."""
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    if not (0.0 <= alpha < 0.5):
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, 0.5)")
    rows = tuple(
        tuple(
            # the k and conj(k) terms subtracted one at a time, as v_element
            # does, so every entry is bit-identical to it
            (1.0 if a == c else 0.0) - r * alpha - r * alpha
            for c, r in enumerate(row)
        )
        for a, row in enumerate(_RATE_MATRIX[gate])
    )
    return Channel(gate, basis_for_gate(gate).name, alpha, rows)


def to_computational(populations: Sequence[float], basis: Basis4):
    """Diagonal populations in the computational basis, given populations
    over `basis` states. Off-diagonal coherences are assumed absent."""
    total = sum(populations)
    if abs(total - 1.0) > 1e-9:
        raise NotNormalized(f"populations sum to {total}, expected 1")
    out = []
    for beta in range(4):
        out.append(
            sum(abs(basis.vectors[a][beta]) ** 2 * populations[a] for a in range(4))
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _population_weights(gate: str):
    """|<beta|a>|^2 for the gate's basis state a and computational state
    beta, indexed [beta][a]: the weights ``to_computational`` applies,
    computed once per gate from the exact amplitudes, so that (1/sqrt2)^2
    is 1/2 and not 0.4999999999999999."""
    vectors = basis_for_gate(gate).exact_vectors
    return tuple(
        tuple(_ex_to_complex(_ex_mul(vectors[a][beta], _ex_conj(vectors[a][beta]))).real
              for a in range(4))
        for beta in range(4)
    )


def predict_table(gate: str, alpha: float):
    """Output probabilities in the computational basis, one column per input
    state (multiplet inputs for SWAP, computational for Identity)."""
    if not (0.0 <= alpha <= 1.0 / 3.0):
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, 1/3]")
    ch = population_channel(gate, alpha)
    if gate == "identity":
        return ch.matrix
    # to_computational applied to each column, with the same products
    # summed in the same order
    columns = tuple(zip(*ch.matrix))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in columns)
        for row in _population_weights(gate)
    )


def input_labels(gate: str):
    return MULTIPLET_LABELS if gate == "swap" else COMPUTATIONAL_LABELS
