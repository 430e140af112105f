"""Noisy two-qubit population-transfer channels.

A gate is given by its interaction eigenbasis alone, written once as integer
vectors x with entries in {0, +-1, +-i}, state a being x_a / sqrt|x_a|^2
(``_GATES``). Everything per gate is derived from these vectors: the float
amplitudes, the tensor of pairwise Pauli matrix elements (``m_tensor``), the
Pauli-weight split and the weights that carry the gate's basis populations
to the computational basis. The Pauli matrix elements of integer vectors are
small Gaussian integers, which floats hold exactly, so each of these
quantities is rounded at most once. ``v_element`` assembles the noisy
evolution operator element by element from M. In Pauli-error form the map at
alpha = Re k is (1 - 3 alpha) rho + (alpha/2) sum_sigma sigma rho sigma over
the six weight-1 Paulis sigma: it multiplies a Pauli string of weight w by
1 - r_w alpha, with the rates r_w of ``_RATES``: the noise model, stated
once. Its bounds on alpha are ``ALPHA_CP``, where no Pauli error probability
is negative, which the tests check against the rates, and ``ALPHA_MAX``, the
least root of an eigenvalue 1 - r_w alpha, read off them: the domain
[0, ALPHA_CP] of the channel and [0, ALPHA_MAX) of its inverse. The split
P_w[a][c] = (1/4) sum over the strings P of weight w of <a|P|a><c|P|c>
(``_projectors``) makes the population channel sum_w (1 - r_w alpha) P_w
= delta - 2 alpha R, with delta = P_0 + P_1 + P_2 and the rate matrix
R = sum_w (r_w / 2) P_w. On a basis whose populations the map leaves closed,
as SWAP's and Identity's, the P_w are orthogonal idempotents, R's spectral
projectors. Also produces the predicted probability tables, including the
conversion from the exchange-symmetric multiplet basis to the computational
basis.

``_GATES``, the one per-gate record, holds each gate's basis, and each gate
has a forward plan built from it at import; a call makes one pass over it.
``_CHANNEL`` holds the 16 (delta_ac, R_ac) pairs read off the split
(``_PROJECTORS``), and each entry is delta - R alpha - R alpha, the k and
conj(k) terms subtracted one at a time as ``v_element`` does, so it is
bit-identical to it. ``_PREDICT_PLAN`` holds, per output row, only the
nonzero (input, weight) pairs of the population weights, in input order,
which predict_table mixes. That is exact: to_computational's sum starts from
0.0 and so never holds -0.0, and a left-out term is a signed zero, which
leaves such a sum unchanged. A row whose one weight is 1.0, a lone pair, is
the channel row as is, because no channel entry is -0.0.

A channel matrix is stochastic on its whole domain: column c is the output
population distribution for pure input state c. ``NmqemError``, defined
here, is the base of the errors the command line reports.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .linalg import PAULI, CMat, kron

__all__ = [
    "Basis4",
    "MTensor",
    "Channel",
    "NmqemError",
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
    "basis_for_gate",
    "input_labels",
    "ALPHA_CP",
    "ALPHA_MAX",
    "COMPUTATIONAL_LABELS",
]

_RATES = (0.0, 2.0, 4.0)  # the noise model: weight w is multiplied by 1 - _RATES[w] alpha
ALPHA_CP = 1.0 / 3.0  # completely positive exactly on [0, 1/3]: p_I = 1 - 3 alpha >= 0
ALPHA_MAX = 1.0 / _RATES[-1]  # a finite inverse exactly on [0, 1/4): every 1 - r_w alpha > 0

COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
MULTIPLET_LABELS = ("m1", "m2", "m3", "m4")


class NmqemError(ValueError):
    """An error the command line reports as one ``error:`` line: a bad input
    document (``expdata.DataError``), a bad argument or a value out of domain."""


class AlphaOutOfRange(NmqemError):
    """alpha outside the validity domain of the requested operation."""


class NotNormalized(ValueError):
    """Population vector does not sum to one."""


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


def _norms(vectors) -> Tuple[int, ...]:
    """|x|^2 of each integer vector x."""
    return tuple(round(sum(_abs2(x) for x in v)) for v in vectors)


class Basis4:
    """An orthonormal two-qubit basis over {|00>, |01>, |10>, |11>}, given
    by integer vectors x with entries in {0, +-1, +-i} whose states are
    x / sqrt|x|^2, checked exactly before any division: entries outside that
    set, or a Gram matrix <x_a|x_b> not 0 off the diagonal and nonzero on it,
    raise ValueError. The float amplitudes ``vectors`` are derived from the
    vectors, and ``m_tensor`` works from them without rounding.
    """

    __slots__ = ("name", "vectors", "integer_vectors")

    def __init__(self, name: str, integer_vectors: Tuple[Tuple[complex, ...], ...]):
        if len(integer_vectors) != 4 or any(len(v) != 4 for v in integer_vectors):
            raise ValueError("need four amplitude 4-vectors")
        if not all(x in (0, 1, -1, 1j, -1j) for v in integer_vectors for x in v):
            raise ValueError("basis vector entries must be 0, +-1 or +-i")
        for i, u in enumerate(integer_vectors):
            for j, w in enumerate(integer_vectors):
                if (sum(x.conjugate() * y for x, y in zip(u, w)) != 0) != (i == j):
                    raise ValueError("basis vectors are not orthonormal")
        vectors = tuple(tuple(x / math.sqrt(n) for x in v)
                        for v, n in zip(integer_vectors, _norms(integer_vectors)))
        self.name, self.vectors, self.integer_vectors = name, vectors, integer_vectors


def multiplet_basis() -> Basis4:
    """Exchange-symmetric basis diagonalizing the SWAP interaction:
    {|00>, (|01>+|10>)/sqrt2, |11>, (|01>-|10>)/sqrt2}."""
    return Basis4("multiplet_swap", integer_vectors=(
        (1, 0, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 0, 1),
        (0, 1, -1, 0),
    ))


def computational_basis() -> Basis4:
    return Basis4("computational", integer_vectors=(
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ))


# Each gate's basis, built once, and input labels: the one per-gate record,
# which every per-gate plan reads. The Identity gate's interaction eigenbasis
# coincides with the computational basis; SWAP needs the multiplet basis.
_GATES = {
    "swap": (multiplet_basis(), MULTIPLET_LABELS),
    "identity": (computational_basis(), COMPUTATIONAL_LABELS),
}
GATES = tuple(_GATES)


def _gate_record(gate: str):
    record = _GATES.get(gate)
    if record is None:
        raise NmqemError(f"unknown gate {gate!r}")
    return record


def basis_for_gate(gate: str) -> Basis4:
    return _gate_record(gate)[0]


def input_labels(gate: str):
    return _gate_record(gate)[1]


class MTensor:
    """Pairwise Pauli matrix elements M[a][b][c][d], zero-indexed."""

    __slots__ = ("m",)

    def __init__(self, m: Tuple):
        self.m = m  # 4x4x4x4 nested tuples of floats

    def at(self, a: int, b: int, c: int, d: int) -> float:
        """One-indexed accessor matching the algebraic notation."""
        return self.m[a - 1][b - 1][c - 1][d - 1]

    def diag_sum(self, a: int, c: int) -> float:
        """sum over a' of M_{a a' a' c} (one-indexed a, c)."""
        return sum(self.m[a - 1][ap][ap][c - 1] for ap in range(4))


# The 16 two-qubit Pauli strings P (x) Q as (weight, row-major entries); the
# six of weight 1, X, Y and Z on either qubit, are m_tensor's spin operators.
_PAULI_STRINGS = tuple(((p > 0) + (q > 0), kron(PAULI[p], PAULI[q]).entries)
                       for p in range(4) for q in range(4))


def _element(op, u, v):
    """<u|op|v> for an operator's row-major entries and integer vectors u, v:
    a small Gaussian integer, exact in floats."""
    return sum(u[k // 4].conjugate() * s * v[k % 4] for k, s in enumerate(op) if s)


def _pauli_elements(vectors):
    """<x_a|sigma|x_b> for each spin operator sigma and integer vectors x_a,
    x_b, indexed [sigma][a][b]."""
    return tuple(tuple(tuple(_element(op, va, vb) for vb in vectors) for va in vectors)
                 for w, op in _PAULI_STRINGS if w == 1)


def _m_entry(s, p: int) -> float:
    """s / (4 sqrt p) for an exact sum s of Pauli products over integer
    vectors whose norms multiply to p: rounded once where p is a square, and
    computed as (s / 8k) * sqrt2 where p = 2k^2."""
    if s.imag:
        raise ValueError("M tensor entry is not real")
    k = math.isqrt(p // 2)
    if 2 * k * k == p:
        return s.real / (8 * k) * math.sqrt(2.0) + 0.0
    return s.real / (4 * math.sqrt(p)) + 0.0  # + 0.0: a zero entry is +0.0


def m_tensor(basis: Basis4) -> MTensor:
    """Pairwise Pauli matrix elements of a basis, M_abcd =
    (1/4) sum_sigma <a|sigma|b><c|sigma|d>, from its integer vectors."""
    vectors = basis.integer_vectors
    elem = _pauli_elements(vectors)
    n = _norms(vectors)
    return MTensor(tuple(tuple(tuple(tuple(
        _m_entry(sum(e[a][b] * e[c][d] for e in elem), n[a] * n[b] * n[c] * n[d])
        for d in range(4)) for c in range(4)) for b in range(4)) for a in range(4)))


def v_element(
    mt: MTensor,
    k: complex,
    a: int,
    b: int,
    c: int,
    d: int,
) -> complex:
    """Element <a|L(|c><d|)|b> of the noisy evolution superoperator L, the
    second-order time-convolutionless map, over the basis of ``mt``, one-indexed."""
    d_ac = 1.0 if a == c else 0.0
    d_bd = 1.0 if b == d else 0.0
    m_acdb = mt.at(a, c, d, b)
    return (
        d_ac * d_bd
        - (d_bd * mt.diag_sum(a, c) - m_acdb) * k
        - (d_ac * mt.diag_sum(d, b) - m_acdb) * k.conjugate()
    )


class Channel:
    """4x4 population transfer matrix for one gate, column-stochastic."""

    __slots__ = ("gate", "basis", "alpha", "matrix")

    def __init__(self, gate: str, basis: str, alpha: float, matrix: Tuple[Tuple[float, ...], ...]):
        self.gate, self.basis, self.alpha = gate, basis, alpha
        self.matrix = matrix  # matrix[out][in]

    def column(self, j: int) -> Tuple[float, ...]:
        return tuple(self.matrix[i][j] for i in range(4))

    def to_cmat(self) -> CMat:
        return CMat.from_rows([list(r) for r in self.matrix])


def _projectors(basis: Basis4):
    """A basis's split P_0, P_1, P_2, each as its 16 row-major entries. Each
    diagonal <x|P|x> is an integer, computed once per string and vector, so
    every entry is an integer over a power of 2 and the floats are exact."""
    x, n = basis.integer_vectors, _norms(basis.integer_vectors)
    diagonals = [(w, [_element(op, v, v).real for v in x]) for w, op in _PAULI_STRINGS]
    return tuple(tuple(sum(d[a] * d[c] for v, d in diagonals if v == w) / (4 * n[a] * n[c])
                       for a in range(4) for c in range(4)) for w in range(3))


# Each gate's split, and its channel as the 16 (delta_ac, R_ac) pairs read off
# it, row-major: with k = alpha real, v_element(a, a, c, c) = delta_ac - 2 alpha R[a][c].
_PROJECTORS = {gate: _projectors(basis_for_gate(gate)) for gate in GATES}
_CHANNEL = {gate: tuple((sum(p), sum(r / 2 * x for r, x in zip(_RATES, p))) for p in zip(*split))
            for gate, split in _PROJECTORS.items()}


def _channel_rows(gate: str, alpha: float) -> list:
    """The gate's channel rows at alpha, in the map's domain [0, ALPHA_CP]."""
    _gate_record(gate)
    if not (0.0 <= alpha <= ALPHA_CP):
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, 1/3]")
    v = [d - r * alpha - r * alpha for d, r in _CHANNEL[gate]]
    return [tuple(v[0:4]), tuple(v[4:8]), tuple(v[8:12]), tuple(v[12:16])]


def population_channel(gate: str, alpha: float) -> Channel:
    """Population block of the noisy evolution operator at alpha = Re k."""
    return Channel(gate, basis_for_gate(gate).name, alpha, tuple(_channel_rows(gate, alpha)))


def _weights(basis: Basis4):
    """|<beta|a>|^2 for basis state a and computational state beta, indexed
    [beta][a]. From integer vectors x it is |x_a[beta]|^2 / |x_a|^2, rounded
    once, so that (1/sqrt2)^2 is 1/2 and not 0.4999999999999999."""
    vectors = basis.integer_vectors
    n = _norms(vectors)
    return tuple(tuple(_abs2(vectors[a][beta]) / n[a] for a in range(4)) for beta in range(4))


def to_computational(populations: Sequence[float], basis: Basis4):
    """Diagonal populations in the computational basis, given populations
    over `basis` states. Off-diagonal coherences are assumed absent. Raises
    ValueError unless there are four populations, and NotNormalized unless
    they sum to one."""
    if len(populations) != 4:
        raise ValueError(f"need four populations, got {len(populations)}")
    total = sum(populations)
    if not abs(total - 1.0) <= 1e-9:  # a NaN total fails too
        raise NotNormalized(f"populations sum to {total}, expected 1")
    return tuple(sum(row[a] * populations[a] for a in range(4)) for row in _weights(basis))


_PREDICT_PLAN = {gate: tuple(tuple((a, w) for a, w in enumerate(row) if w)
                             for row in _weights(basis_for_gate(gate))) for gate in GATES}


def _mix(terms, rows) -> tuple:
    acc = (0.0, 0.0, 0.0, 0.0)
    for a, w in terms:
        acc = [s + w * x for s, x in zip(acc, rows[a])]
    return tuple(acc)


def predict_table(gate: str, alpha: float):
    """Output probabilities in the computational basis, one column per input
    state (multiplet inputs for SWAP, computational for Identity): the
    channel's columns through ``to_computational``, bit for bit."""
    rows = _channel_rows(gate, alpha)
    return tuple([rows[terms[0][0]] if terms[0][1] == 1.0 else _mix(terms, rows)
                  for terms in _PREDICT_PLAN[gate]])
