import math
import random

import pytest

from nmqem.linalg import (
    PAULI,
    CMat,
    NonConvergence,
    ShapeError,
    SingularMatrix,
    det,
    identity,
    integrate,
    kron,
    mat_inv,
    mat_mul,
    solve_linear,
)

X2 = CMat.from_rows([[0, 1], [1, 0]])
I2 = identity(2)


def si_series(x):
    """Independent series oracle for the standard sine integral."""
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / ((2 * n) * (2 * n + 1))
    return total


def random_cmat(rng, n=4):
    return CMat(
        n,
        n,
        tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n * n)
        ),
    )


class TestCMat:
    def test_rejects_unsupported_shape(self):
        with pytest.raises(ShapeError):
            CMat(3, 3, (0,) * 9)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ShapeError):
            CMat(2, 2, (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_accepts_supported_shapes(self, n):
        assert identity(n).rows == n

    def test_from_rows_converts_each_entry_to_complex(self):
        m = CMat.from_rows([[1, -0.0], [2j, True]])
        assert (m.rows, m.cols) == (2, 2)
        assert [(type(e), e) for e in m.entries] == [(complex, 1), (complex, 0), (complex, 2j), (complex, 1)]
        assert str(m.entries[1]) == "(-0+0j)"  # the sign of a zero survives
        with pytest.raises(ShapeError):
            CMat.from_rows([[1, 2], [3]])
        with pytest.raises(TypeError):
            CMat.from_rows([[1, 2], [3, None]])


class TestKron:
    def test_pauli_matrices(self):
        assert [m.entries for m in PAULI] == [
            (1, 0, 0, 1), (0, 1, 1, 0), (0, -1j, 1j, 0), (1, 0, 0, -1)]
        assert all(type(e) is complex for m in PAULI for e in m.entries)

    def test_block_layout(self):
        # a (x) b is the 2x2 block matrix [[a00 b, a01 b], [a10 b, a11 b]]
        rng = random.Random(7)
        a, b = random_cmat(rng, 2), random_cmat(rng, 2)
        rows = [[a.at(r, c) * b.at(i, j) for c in range(2) for j in range(2)]
                for r in range(2) for i in range(2)]
        assert kron(a, b).entries == CMat.from_rows(rows).entries

    def test_mixed_product_on_paulis(self):
        # (A (x) B)(C (x) D) = AC (x) BD, exact on the Pauli matrices
        for a in PAULI:
            for b in PAULI:
                left = mat_mul(kron(a, b), kron(b, a))
                assert left.entries == kron(mat_mul(a, b), mat_mul(b, a)).entries

    def test_identity(self):
        assert kron(PAULI[0], PAULI[0]).entries == identity(4).entries

    def test_rejects_non_2x2(self):
        with pytest.raises(ShapeError):
            kron(identity(4), PAULI[0])
        with pytest.raises(ShapeError):
            kron(PAULI[0], identity(4))


class TestMatMul:
    def test_identity_case(self):
        rng = random.Random(1)
        m = random_cmat(rng)
        assert mat_mul(identity(4), m).isclose(m, 0.0)

    def test_pauli_x_squares_to_identity(self):
        assert mat_mul(X2, X2).entries == I2.entries

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(X2, identity(4))

    def test_associativity(self):
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = (random_cmat(rng) for _ in range(3))
            left = mat_mul(mat_mul(a, b), c)
            right = mat_mul(a, mat_mul(b, c))
            assert left.isclose(right, 1e-13)


class TestMatInv:
    def test_identity(self):
        assert mat_inv(identity(4)).isclose(identity(4), 0.0)

    def test_diagonal(self):
        d = identity(4).scaled(2.0)
        assert mat_inv(d).isclose(identity(4).scaled(0.5), 1e-15)

    def test_noisy_identity_channel_entry(self):
        # (1-2a)I + a(X (x) I + I (x) X) at a = 0.05; leading inverse entry
        # is 0.7245/0.648.
        a = 0.05
        m = CMat.from_rows(
            [
                [1 - 2 * a, a, a, 0],
                [a, 1 - 2 * a, 0, a],
                [a, 0, 1 - 2 * a, a],
                [0, a, a, 1 - 2 * a],
            ]
        )
        inv = mat_inv(m)
        assert inv.at(0, 0).real == pytest.approx(1.118056, abs=1e-6)
        assert mat_mul(m, inv).isclose(identity(4), 1e-12)

    def test_double_inverse(self):
        rng = random.Random(3)
        for _ in range(10):
            m = identity(4).add(random_cmat(rng).scaled(0.2))
            assert mat_inv(mat_inv(m)).isclose(m, 1e-10)

    def test_singular_raises(self):
        m = CMat.from_rows([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(SingularMatrix):
            mat_inv(m)


class TestSolveLinear:
    def test_identity(self):
        y = [complex(i) for i in range(16)]
        assert solve_linear(identity(16), y) == y

    def test_zero_rhs(self):
        x = solve_linear(identity(16), [0.0] * 16)
        assert all(v == 0 for v in x)

    def test_residual(self):
        rng = random.Random(5)
        a = identity(16).add(
            CMat(
                16,
                16,
                tuple(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
                    for _ in range(256)
                ),
            )
        )
        y = [complex(rng.uniform(-1, 1)) for _ in range(16)]
        x = solve_linear(a, y)
        resid = max(
            abs(sum(a.at(i, j) * x[j] for j in range(16)) - y[i]) for i in range(16)
        )
        ynorm = max(abs(v) for v in y)
        assert resid < 1e-12 * ynorm

    def test_singular(self):
        rows = [[0.0] * 16 for _ in range(16)]
        with pytest.raises(SingularMatrix):
            solve_linear(CMat.from_rows(rows), [1.0] * 16)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sinc_matches_series_oracle(self):
        got = integrate(lambda t: math.sin(t) / t if t else 1.0, 0.0, 1.0)
        assert got == pytest.approx(si_series(1.0), abs=1e-10)
        assert got == pytest.approx(0.9460830704, abs=1e-9)

    def test_empty_interval(self):
        assert integrate(lambda t: 99.0, 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda t: 1.0, 1.0, 0.0)

    def test_additive_over_subintervals(self):
        f = lambda t: math.exp(-t) * math.cos(5 * t)
        whole = integrate(f, 0.0, 2.0, tol=1e-11)
        parts = integrate(f, 0.0, 0.7, tol=1e-11) + integrate(f, 0.7, 2.0, tol=1e-11)
        assert whole == pytest.approx(parts, abs=1e-10)

    def test_depth_limit(self):
        with pytest.raises(NonConvergence):
            integrate(lambda t: math.sin(40 * t), 0.0, 10.0, tol=1e-14, max_depth=2)

    def test_determinant_helper(self):
        m = CMat.from_rows([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0], [0, 0, 0, 5]])
        assert det(m) == pytest.approx(120.0)
