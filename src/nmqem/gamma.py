"""The 16 Dirac Gamma matrices and decomposition of 4x4 matrices in them.

The basis is built from the Pauli matrices: g_i (i = 1, 2, 3) places sigma_i
on the off-diagonal blocks and g0 = i * diag(I, -I). Products, g5 and the
g5*g_mu set are computed from these, never transcribed, so every entry is an
exact complex integer in {0, +-1, +-i}. The metric is g11 = g22 = g33 = 1,
g00 = -1.

All 16 matrices are unitary and pairwise trace-orthogonal,
tr(G_r^dagger G_s) = 4 delta_rs, so the expansion weights of a 4x4 matrix M
are c_r = tr(G_r^dagger M) / 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

from .linalg import CMat, mat_mul, identity

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

_SET_OF_LABEL = {
    "I": "G1",
    "g0": "G2", "g1": "G2", "g2": "G2", "g3": "G2",
    "g0g1": "G3", "g0g2": "G3", "g0g3": "G3",
    "g1g2": "G3", "g1g3": "G3", "g2g3": "G3",
    "g5g0": "G4", "g5g1": "G4", "g5g2": "G4", "g5g3": "G4",
    "g5": "G5",
}


@dataclass(frozen=True)
class GammaBasis:
    """The 16 basis matrices keyed by label, plus the metric diagonal.

    ``support`` lists, per matrix, its nonzero entries as (flat index, entry)
    pairs; every Gamma matrix is monomial, so each has four.
    """

    matrices: Tuple[CMat, ...]  # in BASIS_ORDER
    metric: Tuple[int, int, int, int]
    support: Tuple[Tuple[Tuple[int, complex], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        support = tuple(
            tuple((k, e) for k, e in enumerate(m.entries) if e != 0) for m in self.matrices
        )
        object.__setattr__(self, "support", support)

    def matrix(self, label: str) -> CMat:
        return self.matrices[BASIS_ORDER.index(label)]

    def set_of(self, label: str) -> str:
        return _SET_OF_LABEL[label]

    def generator(self, mu: int) -> CMat:
        """The single matrix g_mu for mu in 0..3."""
        return self.matrix(f"g{mu}")


@dataclass(frozen=True)
class GammaCoeffs:
    """Expansion weights keyed by the 16 basis labels."""

    coeffs: Dict[str, complex]

    def __post_init__(self):
        missing = set(BASIS_ORDER) - set(self.coeffs)
        if missing:
            raise ValueError(f"missing coefficients for {sorted(missing)}")

    def abs_sum(self) -> float:
        return sum(abs(self.coeffs[label]) for label in BASIS_ORDER)


_PAULI = {
    1: CMat.from_rows([[0, 1], [1, 0]]),
    2: CMat.from_rows([[0, -1j], [1j, 0]]),
    3: CMat.from_rows([[1, 0], [0, -1]]),
}


def _offdiag_blocks(sigma: CMat) -> CMat:
    rows = [[0.0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[i][2 + j] = sigma.at(i, j)
            rows[2 + i][j] = sigma.at(i, j)
    return CMat.from_rows(rows)


@lru_cache(maxsize=None)
def build_gamma_basis() -> GammaBasis:
    g = {f"g{i}": _offdiag_blocks(_PAULI[i]) for i in (1, 2, 3)}
    g["g0"] = CMat.from_rows(
        [[1j, 0, 0, 0], [0, 1j, 0, 0], [0, 0, -1j, 0], [0, 0, 0, -1j]]
    )
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
    a = basis.generator(mu)
    b = basis.generator(nu)
    return mat_mul(a, b).add(mat_mul(b, a))


def _trace_product(a: CMat, b: CMat) -> complex:
    """tr(a^dagger b)."""
    return sum(x.conjugate() * y for x, y in zip(a.entries, b.entries))


def is_orthogonal(basis: GammaBasis) -> bool:
    """Exact Gram check tr(G_r^dagger G_s) = 4 delta_rs over all 16 pairs;
    it implies that the 16 matrices span all 4x4 matrices."""
    return all(
        _trace_product(a, b) == (4 if r == s else 0)
        for r, a in enumerate(basis.matrices)
        for s, b in enumerate(basis.matrices)
    )


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
    for label, support in zip(BASIS_ORDER, basis.support):
        weight = c.coeffs[label]
        if weight != 0:
            for k, e in support:
                acc[k] += weight * e
    return CMat(4, 4, acc)
