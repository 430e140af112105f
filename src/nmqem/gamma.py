"""The 16 Dirac Gamma matrices and decomposition of 4x4 matrices in them.

The generators are phases times two-qubit Pauli strings (``linalg.kron`` of
``linalg.PAULI``): g_k = X (x) sigma_k (k = 1, 2, 3) and g0 = i Z (x) I.
Products, g5 and the g5*g_mu set are computed from these, never transcribed,
so each of the 16 is again a phase in {+-1, +-i} times a Pauli string, with
exact entries in {0, +-1, +-i}. The metric is g11 = g22 = g33 = 1, g00 = -1.

All 16 matrices are unitary and pairwise trace-orthogonal,
tr(G_r^dagger G_s) = 4 delta_rs, so the expansion weights of a 4x4 matrix M
are c_r = tr(G_r^dagger M) / 4.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul
from typing import Dict, Tuple

from .linalg import PAULI, CMat, identity, kron, mat_mul

__all__ = [
    "GammaBasis",
    "GammaCoeffs",
    "build_gamma_basis",
    "anticommutator",
    "decompose",
    "reconstruct",
    "is_orthogonal",
    "METRIC",
    "BASIS_ORDER",
]

# Diagonal of the metric tensor, indexed 0..3.
METRIC = (-1, 1, 1, 1)

# Canonical label order: fixes file and report output ordering.
BASIS_ORDER = (
    "I",
    "g0", "g1", "g2", "g3",
    "g0g1", "g0g2", "g0g3", "g1g2", "g1g3", "g2g3",
    "g5g0", "g5g1", "g5g2", "g5g3",
    "g5",
)
_LABELS = frozenset(BASIS_ORDER)


class GammaBasis:
    """The 16 basis matrices keyed by label, plus the metric diagonal.

    ``support`` lists, per matrix, its nonzero entries as (flat index, entry)
    pairs; every Gamma matrix is monomial, so each has four.
    """

    __slots__ = ("matrices", "metric", "support")

    def __init__(self, matrices: Tuple[CMat, ...], metric: Tuple[int, int, int, int]):
        self.matrices = matrices  # in BASIS_ORDER
        self.metric = metric
        self.support = tuple(
            tuple((k, e) for k, e in enumerate(m.entries) if e != 0) for m in matrices
        )

    def matrix(self, label: str) -> CMat:
        return self.matrices[BASIS_ORDER.index(label)]

    def generator(self, mu: int) -> CMat:
        """The single matrix g_mu for mu in 0..3."""
        return self.matrix(f"g{mu}")

    def left_mul(self, label: str, m: CMat) -> CMat:
        """G_label m for a 4x4 m, summed over G_label's nonzero entries
        (``support``) alone. Each product entry accumulates from 0j, so a
        row with several nonzeros is multiplied in full. For finite entries
        this equals ``mat_mul`` in ==: a term left out has a zero factor and
        is a signed zero."""
        acc = [0j] * 16
        b = m.entries
        for k, e in self.support[BASIS_ORDER.index(label)]:
            i, p = k - k % 4, k % 4 * 4  # G's (row, column) as flat offsets
            acc[i] += e * b[p]
            acc[i + 1] += e * b[p + 1]
            acc[i + 2] += e * b[p + 2]
            acc[i + 3] += e * b[p + 3]
        return CMat(4, 4, acc)


class GammaCoeffs:
    """Expansion weights keyed by the 16 basis labels."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[str, complex]):
        if coeffs.keys() != _LABELS:
            missing = _LABELS - coeffs.keys()
            if missing:
                raise ValueError(f"missing coefficients for {sorted(missing)}")
            unknown = sorted(coeffs.keys() - _LABELS, key=repr)
            raise ValueError(f"unknown coefficient labels {unknown}")
        self.coeffs = coeffs

    def abs_sum(self) -> float:
        return sum(map(abs, map(self.coeffs.__getitem__, BASIS_ORDER)))


@lru_cache(maxsize=None)
def build_gamma_basis() -> GammaBasis:
    g = {f"g{k}": kron(PAULI[1], PAULI[k]) for k in (1, 2, 3)}
    g["g0"] = kron(PAULI[3], PAULI[0]).scaled(1j)
    g["I"] = identity(4)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            g[f"g{mu}g{nu}"] = mat_mul(g[f"g{mu}"], g[f"g{nu}"])
    g5 = mat_mul(mat_mul(g["g0"], g["g1"]), mat_mul(g["g2"], g["g3"]))
    g["g5"] = g5
    for mu in range(4):
        g[f"g5g{mu}"] = mat_mul(g5, g[f"g{mu}"])
    return GammaBasis(tuple(g[label] for label in BASIS_ORDER), METRIC)


def anticommutator(basis: GammaBasis, mu: int, nu: int) -> CMat:
    """g_mu g_nu + g_nu g_mu; equals 2 g_{mu nu} I exactly."""
    if not (0 <= mu <= 3 and 0 <= nu <= 3):
        raise ValueError("indices must be in 0..3")
    a, b = f"g{mu}", f"g{nu}"
    return basis.left_mul(a, basis.matrix(b)).add(basis.left_mul(b, basis.matrix(a)))


def _trace_product(a: CMat, b: CMat) -> complex:
    """tr(a^dagger b)."""
    return sum(x.conjugate() * y for x, y in zip(a.entries, b.entries))


def is_orthogonal(basis: GammaBasis) -> bool:
    """Exact Gram check tr(G_r^dagger G_s) = 4 delta_rs over all 16 pairs;
    it implies that the 16 matrices span all 4x4 matrices. Each trace sums
    over G_r's nonzero entries alone (``basis.support``, derived from the
    entries): every term left out has a zero factor, and a non-finite entry
    of G_s still shows in tr(G_s^dagger G_s)."""
    for r, support in enumerate(basis.support):
        conj = [e.conjugate() for _, e in support]
        # two spare indices keep take's result a tuple at any support size;
        # map stops at the end of conj, so they are never multiplied
        take = itemgetter(*(k for k, _ in support), 0, 0)
        for s, b in enumerate(basis.matrices):
            if sum(map(mul, conj, take(b.entries))) != (4 if r == s else 0):
                return False
    return True


def decompose(basis: GammaBasis, m: CMat) -> GammaCoeffs:
    """Unique coefficients c with sum_r c_r gamma_r = m, c_r = tr(G_r^dagger m) / 4."""
    if (m.rows, m.cols) != (4, 4):
        raise ValueError("decompose expects a 4x4 matrix")
    return GammaCoeffs(
        {label: _trace_product(g, m) / 4 for label, g in zip(BASIS_ORDER, basis.matrices)}
    )


def reconstruct(basis: GammaBasis, c: GammaCoeffs) -> CMat:
    """sum_r c_r G_r, each entry accumulated from 0j over the nonzero weights
    in BASIS_ORDER. Only each matrix's nonzero entries are visited: for a
    finite weight the skipped terms are signed zeros, which leave a sum that
    started from 0j unchanged."""
    acc = [0j] * 16
    coeffs = c.coeffs
    for label, support in zip(BASIS_ORDER, basis.support):
        weight = coeffs[label]
        if weight:
            for k, e in support:
                acc[k] += weight * e
    return CMat(4, 4, acc)
