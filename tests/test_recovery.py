import warnings
from fractions import Fraction

import pytest

from nmqem import channel
from nmqem.channel import population_channel
from nmqem.linalg import identity, mat_mul
from nmqem.recovery import (
    ALPHA_MAX,
    AlphaOutOfRange,
    DenominatorNearZero,
    closed_form_id,
    closed_form_swap,
    cost_from_decomposition,
    cost_id,
    cost_swap,
    id_recovery_matrix,
    recovery_numeric,
    recovery_op,
    swap_recovery_matrix,
)

GRID = [i * 0.01 for i in range(25)]  # 0.00 .. 0.24

# channel matrices as affine functions of alpha: matrix[out][in] = a + b*alpha
CHANNELS = {
    "swap": (
        ((1, -2), (0, 1), (0, 0), (0, 1)),
        ((0, 1), (1, -3), (0, 1), (0, 1)),
        ((0, 0), (0, 1), (1, -2), (0, 1)),
        ((0, 1), (0, 1), (0, 1), (1, -3)),
    ),
    "identity": (
        ((1, -2), (0, 1), (0, 1), (0, 0)),
        ((0, 1), (1, -2), (0, 0), (0, 1)),
        ((0, 1), (0, 0), (1, -2), (0, 1)),
        ((0, 0), (0, 1), (0, 1), (1, -2)),
    ),
}


def exact_inverse(gate, alpha):
    """Gauss-Jordan inverse of the channel in rationals, at the exact value
    of the float alpha."""
    a = Fraction(alpha)
    rows = [
        [p + q * a for p, q in CHANNELS[gate][i]] + [Fraction(int(i == j)) for j in range(4)]
        for i in range(4)
    ]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[4:] for row in rows]


class TestClosedForms:
    def test_noiseless_limit(self):
        assert closed_form_swap(0.0) == pytest.approx((0.0, 1.0, 0.0, 1.0))
        assert closed_form_id(0.0) == pytest.approx((1.0, 0.0, 0.0))

    def test_reference_point(self):
        b, c, d, e = closed_form_swap(0.05)
        assert b == pytest.approx(-0.0625, abs=1e-12)
        assert d == pytest.approx(0.0069444444, abs=1e-9)
        f, g, h = closed_form_id(0.05)
        assert f == pytest.approx(1.1180555556, abs=1e-9)
        assert g == pytest.approx(0.0069444444, abs=1e-9)
        assert h == pytest.approx(-0.0625, abs=1e-12)

    def test_off_diagonal_coefficients_coincide(self):
        # B (swap) and H (identity) are both -a / (1 - 4a)
        for alpha in GRID:
            b, _, _, _ = closed_form_swap(alpha)
            _, _, h = closed_form_id(alpha)
            assert b == pytest.approx(h, rel=1e-10, abs=1e-13)
            assert b == pytest.approx(-alpha / (1 - 4 * alpha), rel=1e-10, abs=1e-12)

    def test_denominators_factorize(self):
        from nmqem.recovery import _id_denominator, _swap_denominator

        for alpha in GRID:
            assert _swap_denominator(alpha) == pytest.approx(
                (1 - 2 * alpha) * (1 - 4 * alpha) ** 2, abs=1e-14
            )
            assert _id_denominator(alpha) == pytest.approx(
                (1 - 2 * alpha) ** 2 * (1 - 4 * alpha), abs=1e-14
            )

    def test_alpha_domain(self):
        for bad in (-0.01, 0.25, 0.3):
            with pytest.raises(AlphaOutOfRange):
                closed_form_swap(bad)
            with pytest.raises(AlphaOutOfRange):
                closed_form_id(bad)

    def test_single_alpha_error_class(self):
        assert AlphaOutOfRange is channel.AlphaOutOfRange

    @pytest.mark.parametrize("gate", ["swap", "identity"])
    def test_against_exact_inverse_near_quarter(self, gate):
        closed = swap_recovery_matrix if gate == "swap" else id_recovery_matrix
        near = [0.25 - 10.0 ** (-k / 4) for k in range(8, 17)] + [0.24989059404470026]
        for alpha in GRID + near:
            exact = exact_inverse(gate, alpha)
            scale = max(abs(float(x)) for row in exact for x in row)
            got = closed(alpha)
            for i in range(4):
                for j in range(4):
                    assert abs(got.at(i, j) - float(exact[i][j])) <= 1e-13 * scale

    def test_denominator_guard(self):
        # close enough to the 1/4 root that the cubic falls below the guard
        with pytest.raises(DenominatorNearZero):
            closed_form_id(0.25 - 1e-11)


class TestNumericInverse:
    @pytest.mark.parametrize("gate", ["swap", "identity"])
    def test_closed_form_equals_numeric_inverse(self, gate):
        closed = swap_recovery_matrix if gate == "swap" else id_recovery_matrix
        for alpha in GRID:
            ch = population_channel(gate, alpha)
            numeric = recovery_numeric(ch)
            assert numeric.isclose(closed(alpha), 1e-10)
            assert mat_mul(numeric, ch.to_cmat()).isclose(identity(4), 1e-10)

    def test_near_singular_warns(self):
        ch = population_channel("identity", 0.24999)
        with pytest.warns(RuntimeWarning):
            recovery_numeric(ch)

    def test_moderate_alpha_does_not_warn(self):
        ch = population_channel("identity", 0.24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recovery_numeric(ch)

    def test_domain(self):
        with pytest.raises(AlphaOutOfRange):
            recovery_numeric(population_channel("swap", 0.3))


class TestCosts:
    def test_noiseless_costs_are_one(self):
        assert cost_swap(0.0) == pytest.approx(1.0)
        assert cost_id(0.0) == pytest.approx(1.0)

    def test_reference_point(self):
        assert cost_swap(0.05) == pytest.approx(1.3819444444, abs=1e-9)
        assert cost_id(0.05) == pytest.approx(1.25, abs=1e-12)

    def test_id_cost_closed_form(self):
        for alpha in GRID:
            assert cost_id(alpha) == pytest.approx(1.0 / (1.0 - 4.0 * alpha), abs=1e-10)

    def test_monotone_increasing(self):
        for cost in (cost_swap, cost_id):
            values = [cost(a) for a in GRID]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_swap_at_least_id(self):
        for alpha in GRID[1:]:
            assert cost_swap(alpha) > cost_id(alpha)

    def test_domain(self):
        with pytest.raises(AlphaOutOfRange):
            cost_swap(ALPHA_MAX)


class TestRecoveryOp:
    def test_identity_decomposition_reference(self):
        op = recovery_op("identity", 0.05)
        c = op.gamma.coeffs
        assert c["I"] == pytest.approx(1.1180555556, abs=1e-9)
        assert c["g1"].real == pytest.approx(0.0069444444, abs=1e-9)
        assert c["g2g3"] == pytest.approx(0.0625j, abs=1e-9)
        assert c["g5g0"] == pytest.approx(0.0625j, abs=1e-9)
        nonzero = {k for k, v in c.items() if abs(v) > 1e-12}
        assert nonzero == {"I", "g1", "g2g3", "g5g0"}

    def test_identity_decomposition_cost_matches_closed_form(self):
        for alpha in (0.0, 0.02, 0.05, 0.1, 0.2):
            op = recovery_op("identity", alpha)
            assert cost_from_decomposition(op) == pytest.approx(
                cost_id(alpha), abs=1e-9
            )

    def test_swap_decomposition_cost_reported_separately(self):
        # unique expansion weights of the swap recovery carry |D| once where
        # the printed combination counts it twice; both numbers are exposed
        op = recovery_op("swap", 0.05)
        dec = cost_from_decomposition(op)
        printed = cost_swap(0.05)
        d = abs(op.coeffs["D"])
        assert dec == pytest.approx(1.375, abs=1e-9)
        assert printed == pytest.approx(dec + d, abs=1e-9)
        for alpha in GRID:
            op = recovery_op("swap", alpha)
            assert cost_swap(alpha) == pytest.approx(
                cost_from_decomposition(op) + abs(op.coeffs["D"]), abs=1e-9
            )

    def test_reconstruction_round_trip(self):
        from nmqem.gamma import build_gamma_basis, reconstruct

        basis = build_gamma_basis()
        for gate in ("swap", "identity"):
            op = recovery_op(gate, 0.1, basis=basis)
            assert reconstruct(basis, op.gamma).isclose(op.matrix, 1e-10)

    def test_closed_form_record(self):
        op = recovery_op("swap", 0.03)
        assert set(op.coeffs) == {"B", "C", "D", "E"}
        op = recovery_op("identity", 0.03)
        assert set(op.coeffs) == {"F", "G", "H"}
