"""Small dense complex linear algebra and adaptive quadrature.

Everything here works on tiny fixed-size matrices (2x2, 4x4, 16x16), which
is all the rest of the package ever needs. A matrix keeps its entries in a
tuple, and no function changes a matrix once it is built; all functions are
pure and thread-safe.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = [
    "CMat",
    "ShapeError",
    "SingularMatrix",
    "NonConvergence",
    "mat_mul",
    "mat_inv",
    "solve_linear",
    "integrate",
    "identity",
    "det",
]

_ALLOWED_SHAPES = {(2, 2), (4, 4), (16, 16)}

# Relative determinant threshold below which inversion refuses to proceed.
# The physical transfer matrices become exactly singular at alpha = 1/4 and
# 1/2, and we want a loud failure there instead of amplified noise.
SINGULARITY_THRESHOLD = 1e-10


class ShapeError(ValueError):
    """Matrix dimensions are unsupported or incompatible."""


class SingularMatrix(ArithmeticError):
    """Determinant is (numerically) zero relative to the entries."""


class NonConvergence(ArithmeticError):
    """Adaptive quadrature hit its recursion depth limit."""


class CMat:
    """Row-major complex matrix of shape 2x2, 4x4 or 16x16."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[complex]):
        if (rows, cols) not in _ALLOWED_SHAPES:
            raise ShapeError(f"unsupported shape {rows}x{cols}")
        entries = tuple(map(complex, entries))
        if len(entries) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows, self.cols, self.entries = rows, cols, entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "CMat":
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, [v for row in rows for v in row])  # __init__ converts each entry

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def scaled(self, factor: complex) -> "CMat":
        return CMat(self.rows, self.cols, tuple(factor * e for e in self.entries))

    def add(self, other: "CMat") -> "CMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        return CMat(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def max_abs(self) -> float:
        return max(abs(e) for e in self.entries)

    def isclose(self, other: "CMat", tol: float = 1e-12) -> bool:
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and max(
                abs(a - b) for a, b in zip(self.entries, other.entries)
            )
            <= tol
        )


def identity(n: int) -> CMat:
    return CMat(n, n, tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n)))


def mat_mul(a: CMat, b: CMat) -> CMat:
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    n, k, m = a.rows, a.cols, b.cols
    out = []
    for i in range(n):
        arow = a.row(i)
        for j in range(m):
            out.append(sum(arow[p] * b.entries[p * m + j] for p in range(k)))
    return CMat(n, m, tuple(out))


def _lu_decompose(a: CMat):
    """LU decomposition with partial pivoting.

    Returns (lu, perm, sign) where lu holds L (unit diagonal, below) and U
    (on and above the diagonal) and perm is the row permutation applied.
    """
    n = a.rows
    lu = [list(a.row(i)) for i in range(n)]
    perm = list(range(n))
    sign = 1
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(lu[r][col]))
        if pivot_row != col:
            lu[col], lu[pivot_row] = lu[pivot_row], lu[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
            sign = -sign
        pivot = lu[col][col]
        if pivot == 0:
            continue  # singular; caught by the determinant check
        for r in range(col + 1, n):
            factor = lu[r][col] / pivot
            lu[r][col] = factor
            for c in range(col + 1, n):
                lu[r][c] -= factor * lu[col][c]
    return lu, perm, sign


def _lu_det(lu, sign) -> complex:
    d = complex(sign)
    for i in range(len(lu)):
        d *= lu[i][i]
    return d


def _check_singular(a: CMat, lu, sign):
    d = _lu_det(lu, sign)
    scale = a.max_abs()
    if abs(d) <= SINGULARITY_THRESHOLD * scale**a.rows:
        raise SingularMatrix(
            f"determinant {abs(d):.3e} below threshold for {a.rows}x{a.cols} matrix"
        )
    return d


def _lu_solve(lu, perm, y: Sequence[complex]) -> list:
    n = len(lu)
    x = [complex(y[perm[i]]) for i in range(n)]
    for i in range(n):  # forward substitution, L has unit diagonal
        for j in range(i):
            x[i] -= lu[i][j] * x[j]
    for i in reversed(range(n)):  # back substitution
        for j in range(i + 1, n):
            x[i] -= lu[i][j] * x[j]
        x[i] /= lu[i][i]
    return x


def det(a: CMat) -> complex:
    if a.rows != a.cols:
        raise ShapeError("determinant requires a square matrix")
    lu, _, sign = _lu_decompose(a)
    return _lu_det(lu, sign)


def mat_inv(a: CMat) -> CMat:
    """Inverse via LU with partial pivoting; raises SingularMatrix when the
    determinant falls below the relative threshold."""
    if a.rows != a.cols:
        raise ShapeError("inverse requires a square matrix")
    n = a.rows
    lu, perm, sign = _lu_decompose(a)
    _check_singular(a, lu, sign)
    cols = []
    for j in range(n):
        e = [1.0 if i == j else 0.0 for i in range(n)]
        cols.append(_lu_solve(lu, perm, e))
    flat = tuple(cols[j][i] for i in range(n) for j in range(n))
    return CMat(n, n, flat)


def solve_linear(a: CMat, y: Sequence[complex]) -> list:
    """Solve a x = y for a 16x16 (or any square supported) system."""
    if a.rows != a.cols:
        raise ShapeError("solve requires a square matrix")
    if len(y) != a.rows:
        raise ShapeError(f"rhs length {len(y)} does not match {a.rows}")
    lu, perm, sign = _lu_decompose(a)
    _check_singular(a, lu, sign)
    return _lu_solve(lu, perm, y)


def _simpson(f, a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, m, fa, flm, fm)
    right = _simpson(f, m, b, fm, frm, fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise NonConvergence(f"quadrature depth limit reached on [{a}, {b}]")
    return _adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 60,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b] to absolute error tol."""
    if b < a:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    for v in (fa, fm, fb):
        if not math.isfinite(v):
            raise ValueError("integrand is not finite on the interval")
    whole = _simpson(f, a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, max_depth)
