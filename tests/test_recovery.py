import functools
import math
import random
import warnings
from fractions import Fraction

import pytest

from golden import regen
from nmqem import channel, recovery
from nmqem.channel import GATES, population_channel, predict_table
from nmqem.gamma import BASIS_ORDER, build_gamma_basis, decompose, reconstruct
from nmqem.linalg import CMat, identity, mat_mul
from nmqem.recovery import (
    _FACTORS,
    _TABLE,
    _determinant,
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
from test_channel import exact_rate_matrix

GRID = [i * 0.01 for i in range(25)]  # 0.00 .. 0.24
# 1/4 - 10^-2 ... 1/4 - 10^-4 in quarter decades, and one more point
APPROACH = [0.25 - 10.0 ** (-k / 4) for k in range(8, 17)] + [0.24989059404470026]

# Each gate's closed forms, picked by gate so that a gate with none of its
# own fails here instead of meeting another gate's
CLOSED_MATRIX = {"swap": swap_recovery_matrix, "identity": id_recovery_matrix}
CLOSED_RECORD = {"swap": closed_form_swap, "identity": closed_form_id}
PRINTED_COST = {"swap": cost_swap, "identity": cost_id}

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
        # the determinant over R's spectrum, bit for bit the factored products
        # (1 - 2a)(1 - 4a)^2 and (1 - 2a)^2 (1 - 4a) that it replaced
        for alpha in regen.sweep_alphas():
            p, q = 1.0 - 2.0 * alpha, 1.0 - 4.0 * alpha
            assert _determinant("swap", alpha) == p * q * q, alpha
            assert _determinant("identity", alpha) == p * p * q, alpha

    def test_determinant_factors_are_the_spectrum(self):
        # 2 l per nonzero eigenvalue l of R, with multiplicities tr P_1, tr P_2
        assert _FACTORS == {"swap": (2.0, 4.0, 4.0), "identity": (2.0, 2.0, 4.0)}

    @pytest.mark.parametrize("gate", GATES)
    def test_determinant_factors_are_the_projector_traces(self, gate):
        # the multiplicities against the traces of R's Lagrange projectors,
        # built in Fractions from m_tensor's R rather than the package's split
        rate = exact_rate_matrix(channel.basis_for_gate(gate))
        traces = [sum(exact_projector(rate, lam, [0, 1, 2])[i][i] for i in range(4))
                  for lam in (1, 2)]
        assert all(t.denominator == 1 for t in traces)
        assert _FACTORS[gate] == (2.0,) * int(traces[0]) + (4.0,) * int(traces[1])

    @pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
    def test_alpha_domain(self):
        # [0, 1/4), channel's ALPHA_MAX: 1/4 itself is out of range, and the
        # float below it is refused by the determinant check, which the LU
        # oracle makes on its own LU determinant
        assert ALPHA_MAX is channel.ALPHA_MAX
        readers = [closed_form_swap, closed_form_id, cost_swap, cost_id, swap_recovery_matrix,
                   id_recovery_matrix] + [functools.partial(recovery_op, gate) for gate in GATES]
        for read in readers:
            for bad in (-5e-324, -0.01, ALPHA_MAX, 0.3):
                with pytest.raises(AlphaOutOfRange, match=rf"^alpha={bad} outside \[0, 0\.25\)$"):
                    read(bad)
            with pytest.raises(DenominatorNearZero):
                read(math.nextafter(ALPHA_MAX, 0.0))
        for gate in GATES:
            with pytest.raises(AlphaOutOfRange):
                recovery_numeric(population_channel(gate, ALPHA_MAX))
            with pytest.warns(RuntimeWarning), pytest.raises(DenominatorNearZero):
                recovery_numeric(population_channel(gate, math.nextafter(ALPHA_MAX, 0.0)))

    def test_lu_oracle_reads_its_own_determinant(self, monkeypatch):
        # recovery_numeric refuses on the determinant of its LU, not on the
        # closed-form product that the other readers share
        def forbidden(*args):
            raise AssertionError("closed-form determinant read")

        monkeypatch.setattr(recovery, "_determinant", forbidden)
        ch = population_channel("identity", math.nextafter(ALPHA_MAX, 0.0))
        with pytest.warns(RuntimeWarning), pytest.raises(DenominatorNearZero, match=r"^denominator "):
            recovery_numeric(ch)
        recovery_numeric(population_channel("identity", 0.1))

    def test_single_alpha_error_class(self):
        assert AlphaOutOfRange is channel.AlphaOutOfRange

    @pytest.mark.parametrize("gate", GATES)
    def test_against_exact_inverse_near_quarter(self, gate):
        closed = CLOSED_MATRIX[gate]
        for alpha in GRID + APPROACH:
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


# The closed-form record's entries of V^-1, (row, column), written here apart
# from the package's table of positions.
RECORD_ENTRIES = {
    "swap": {"B": (0, 1), "C": (0, 0), "D": (0, 2), "E": (1, 1)},
    "identity": {"F": (0, 0), "G": (0, 3), "H": (0, 1)},
}


def exact_record(gate, alpha):
    """The record's entries of the exact inverse."""
    exact = exact_inverse(gate, alpha)
    return {name: exact[i][j] for name, (i, j) in RECORD_ENTRIES[gate].items()}


def factored_record(gate, alpha):
    """The record's factored forms over p = 1 - 2a and q = 1 - 4a, in
    rationals at the exact value of the float alpha."""
    a = Fraction(alpha)
    p, q = 1 - 2 * a, 1 - 4 * a
    b, c, d, e = -a / q, (q + 2 * a * a) / (p * q), 2 * a * a / (p * q), (1 - a) / q
    return {"swap": {"B": b, "C": c, "D": d, "E": e}, "identity": {"F": c, "G": d, "H": b}}[gate]


def printed_combination(gate, r):
    """The printed cost of an exact record."""
    combination = {
        "swap": lambda: abs(r["C"] + r["E"]) / 2 + abs(r["C"] - r["E"]) / 2 + 3 * abs(r["B"]) + abs(r["D"]),
        "identity": lambda: abs(r["F"]) + abs(r["G"]) + 2 * abs(r["H"]),
    }
    return combination[gate]()


def exact_cost(gate, alpha):
    """The printed cost's reduced closed form, in rationals."""
    a = Fraction(alpha)
    return {"swap": (1 - 2 * a * a) / ((1 - 2 * a) * (1 - 4 * a)), "identity": 1 / (1 - 4 * a)}[gate]


def in_domain(alphas, fn):
    """The alphas at which fn neither refuses alpha nor trips the guard."""
    kept = []
    for alpha in alphas:
        try:
            fn(alpha)
        except (AlphaOutOfRange, DenominatorNearZero):
            continue
        kept.append(alpha)
    return kept


@pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
class TestClosedFormRecord:
    """The record and the printed costs against exact rationals: the record
    is read off the spectral V^-1, the costs are their reduced forms."""

    @pytest.mark.parametrize("gate", GATES)
    def test_factored_forms_are_the_exact_inverse(self, gate):
        for alpha in GRID + APPROACH:
            assert exact_record(gate, alpha) == factored_record(gate, alpha), alpha

    @pytest.mark.parametrize("gate", GATES)
    def test_record_against_exact_inverse(self, gate):
        closed = CLOSED_RECORD[gate]
        for alpha in GRID + APPROACH:
            scale = max(abs(x) for row in exact_inverse(gate, alpha) for x in row)
            want = exact_record(gate, alpha)
            op = recovery_op(gate, alpha)
            assert list(op.coeffs) == list(want)
            for got in (dict(zip(want, closed(alpha))), op.coeffs):
                for name, value in got.items():
                    assert abs(Fraction(value) - want[name]) <= Fraction(1e-13) * scale, (alpha, name)

    @pytest.mark.parametrize("gate", GATES)
    def test_record_is_the_matrix_entries(self, gate):
        closed = CLOSED_RECORD[gate]
        for alpha in in_domain(regen.sweep_alphas(), closed):
            op = recovery_op(gate, alpha)
            for name, (i, j) in RECORD_ENTRIES[gate].items():
                entry = op.matrix.at(i, j)
                assert type(op.coeffs[name]) is float and entry.imag == 0.0
                assert op.coeffs[name].hex() == entry.real.hex(), (alpha, name)
            assert closed(alpha) == tuple(op.coeffs.values()), alpha

    @pytest.mark.parametrize("gate", GATES)
    def test_record_is_the_printed_pattern_read_alphabetically(self, gate):
        # each name of the printed V^-1, in alphabetical order, at its first
        # row-major position, which is the entry written apart above
        pattern = recovery._PRINTED[gate]
        assert len(pattern) == 16 and sorted(set(pattern)) == list(RECORD_ENTRIES[gate])
        assert recovery._RECORD[gate] == tuple((name, pattern.index(name))
                                               for name in sorted(set(pattern)))
        assert recovery._RECORD[gate] == tuple((name, 4 * i + j)
                                               for name, (i, j) in RECORD_ENTRIES[gate].items())

    @pytest.mark.parametrize("gate", GATES)
    def test_printed_matrix_is_recovery_op_bit_for_bit(self, gate):
        # the printed pattern is V^-1's structure: every entry, not only the
        # record's, equals the spectral route's
        closed = CLOSED_MATRIX[gate]
        alphas = in_domain(regen.sweep_alphas(), closed)
        assert len(alphas) > 4200
        for alpha in alphas:
            got, want = closed(alpha).entries, recovery_op(gate, alpha).matrix.entries
            assert [(z.real.hex(), z.imag.hex()) for z in got] == [
                (z.real.hex(), z.imag.hex()) for z in want], alpha

    @pytest.mark.parametrize("gate", GATES)
    def test_costs_against_exact_rationals(self, gate):
        cost = PRINTED_COST[gate]
        alphas = in_domain(regen.sweep_alphas(), cost)
        assert len(alphas) > 4200
        for alpha in alphas:
            want = exact_cost(gate, alpha)
            assert abs(Fraction(cost(alpha)) - want) <= Fraction(1e-15) * want, alpha

    @pytest.mark.parametrize("gate", GATES)
    def test_exact_costs_are_the_printed_combinations(self, gate):
        cost = PRINTED_COST[gate]
        for alpha in in_domain(regen.sweep_alphas(), cost):
            assert printed_combination(gate, factored_record(gate, alpha)) == exact_cost(gate, alpha)
        for alpha in GRID + APPROACH:
            assert printed_combination(gate, exact_record(gate, alpha)) == exact_cost(gate, alpha), alpha


class TestNumericInverse:
    @pytest.mark.parametrize("gate", GATES)
    def test_closed_form_equals_numeric_inverse(self, gate):
        closed = CLOSED_MATRIX[gate]
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

    def test_printed_cost_per_gate(self, monkeypatch):
        assert recovery.printed_cost("swap") is cost_swap
        assert recovery.printed_cost("identity") is cost_id
        # a gate with no printed cost, known to the channel or not, is refused
        monkeypatch.delitem(recovery._PRINTED_COST, "identity")
        for gate in ("identity", "cnot"):
            with pytest.raises(channel.NmqemError, match="no printed cost for gate"):
                recovery.printed_cost(gate)

    @pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
    @pytest.mark.parametrize("gate", GATES)
    def test_decomposition_cost_is_the_induced_one_norm(self, gate):
        # ||V^-1||_{1->1}, the largest column absolute sum of the recovery
        # matrix, is the least quasi-probability cost of any expansion of
        # V^-1; the Gamma weights' absolute sum attains it
        for i in range(2500):
            op = recovery_op(gate, 0.25 * i / 2500)
            e = op.matrix.entries
            norm = max(sum(abs(e[4 * r + c]) for r in range(4)) for c in range(4))
            assert cost_from_decomposition(op) == pytest.approx(norm, rel=1e-15, abs=0)


# The printed costs' reduced forms, as evaluated before each cost checked its
# domain in line: after _check_alpha and _check_denominator on _determinant.
REDUCED_COST = {
    "swap": lambda a: (1.0 - 2.0 * a * a) / ((1.0 - 2.0 * a) * (1.0 - 4.0 * a)),
    "identity": lambda a: 1.0 / (1.0 - 4.0 * a),
}
# the sweep, alpha within 1e-9 of 1/4 on both sides of the guard, the float
# below 1/4, a signed zero and the non-finite values
COST_ALPHAS = (regen.sweep_alphas() + [0.25 - k * 1e-11 for k in range(101)]
               + [math.nextafter(0.25, 0.0), -0.0, math.nan, math.inf, -math.inf])


def cost_outcome(cost, alpha):
    """The bits of cost(alpha), or the class and text of its domain error."""
    try:
        return cost(alpha).hex()
    except (AlphaOutOfRange, DenominatorNearZero) as exc:
        return type(exc), str(exc)


def checked_reduced_cost(gate, alpha):
    recovery._check_alpha(alpha)
    recovery._check_denominator(_determinant(gate, alpha), alpha)
    return REDUCED_COST[gate](alpha)


class TestInlineDomainCheck:
    """``cost_swap`` / ``cost_id`` check their domain in straight-line code;
    every value and every refusal stays that of the helpers' path."""

    @pytest.mark.parametrize("gate", channel.GATES)
    def test_bits_and_errors_are_the_helpers_path(self, gate):
        cost = recovery.printed_cost(gate)
        outcomes = [cost_outcome(cost, alpha) for alpha in COST_ALPHAS]
        assert outcomes == [cost_outcome(functools.partial(checked_reduced_cost, gate), alpha)
                            for alpha in COST_ALPHAS]
        refusals = {outcome[0] for outcome in outcomes if isinstance(outcome, tuple)}
        assert refusals == {AlphaOutOfRange, DenominatorNearZero}  # both are reached

    @pytest.mark.parametrize("gate", channel.GATES)
    def test_determinant_is_determinant(self, gate, monkeypatch):
        # with no denominator passing the guard, every in-range alpha's
        # refusal prints the straight-line determinant: it must be
        # _determinant's, bit for bit, for every gate with a printed cost
        monkeypatch.setattr(recovery, "_DENOM_EPS", math.inf)
        cost = recovery.printed_cost(gate)
        for alpha in COST_ALPHAS:
            if 0.0 <= alpha < ALPHA_MAX:
                with pytest.raises(DenominatorNearZero) as refused:
                    cost(alpha)
                assert str(refused.value) == f"denominator {_determinant(gate, alpha)} at alpha={alpha}"


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
        for gate in GATES:
            op = recovery_op(gate, 0.1)
            assert reconstruct(basis, op.gamma).isclose(op.matrix, 1e-10)

    def test_closed_form_record(self):
        op = recovery_op("swap", 0.03)
        assert set(op.coeffs) == {"B", "C", "D", "E"}
        op = recovery_op("identity", 0.03)
        assert set(op.coeffs) == {"F", "G", "H"}


def exact_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def exact_projector(rate, lam, spectrum):
    """P_lam = prod over the other eigenvalues mu of (R - mu I) / (lam - mu)."""
    p = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for mu in spectrum:
        if mu != lam:
            factor = [
                [(rate[i][j] - mu * (i == j)) / (lam - mu) for j in range(4)] for i in range(4)
            ]
            p = exact_product(p, factor)
    return p


def exact_weights(m):
    """{label: (re, im)} of c_r = tr(G_r^dagger M) / 4 in rationals, for a 4x4
    matrix M of Fractions; G_r entries are 0, +-1, +-i."""
    weights = {}
    for label, g in zip(BASIS_ORDER, build_gamma_basis().matrices):
        re = sum(int(e.real) * m[k // 4][k % 4] for k, e in enumerate(g.entries)) / 4
        im = -sum(int(e.imag) * m[k // 4][k % 4] for k, e in enumerate(g.entries)) / 4
        weights[label] = (re, im)
    return weights


ROW_NAMES = ("I", "R", "P1", "P2")


def table_rows(gate):
    """{name: (M, weights)} for the rows I, R, P_1, P_2 of the gate's table:
    M as 4x4 Fractions, weights as {label: complex} on all 16 labels."""
    labels, columns = _TABLE[gate]
    assert len(columns) == 16 + len(labels)
    assert all(len(column) == len(ROW_NAMES) for column in columns)
    out = {}
    for name, row in zip(ROW_NAMES, zip(*columns)):
        assert len(row) == 16 + len(labels)
        weights = dict.fromkeys(BASIS_ORDER, 0j)
        weights.update((label, complex(w)) for label, w in zip(labels, row[16:]))
        out[name] = ([[Fraction(row[4 * i + j]) for j in range(4)] for i in range(4)], weights)
    return out


def table_projectors(gate):
    """{l: P_l} from the table as 4x4 Fractions, with P_0 = I - P_1 - P_2."""
    rows = table_rows(gate)
    one, p1, p2 = rows["I"][0], rows["P1"][0], rows["P2"][0]
    p0 = [[one[i][j] - p1[i][j] - p2[i][j] for j in range(4)] for i in range(4)]
    return {0: p0, 1: p1, 2: p2}


def exact_rows(gate):
    """{name: M} of I, R, P_1, P_2 in Fractions from m_tensor, the projectors
    as Lagrange products."""
    rate = exact_rate_matrix(channel.basis_for_gate(gate))
    return {
        "I": [[Fraction(int(i == j)) for j in range(4)] for i in range(4)],
        "R": [list(row) for row in rate],
        "P1": exact_projector(rate, 1, [0, 1, 2]),
        "P2": exact_projector(rate, 2, [0, 1, 2]),
    }


# forward's near-1/4 slices (perfbench/workloads.py _NEAR_QUARTER)
NEAR_QUARTER = {"swap": (0.2466, 0.2499), "identity": (0.24991, 0.249995)}


def near_quarter_alphas(gate, n=500):
    rng = random.Random(20261018)
    lo, hi = NEAR_QUARTER[gate]
    return [rng.uniform(lo, hi) for _ in range(n)]


class TestSpectralTable:
    @pytest.mark.parametrize("gate", GATES)
    def test_resolves_rate_matrix_and_identity(self, gate):
        projectors = table_projectors(gate)
        rate = exact_rate_matrix(channel.basis_for_gate(gate))
        for i in range(4):
            for j in range(4):
                assert sum(lam * p[i][j] for lam, p in projectors.items()) == rate[i][j]
                assert sum(p[i][j] for p in projectors.values()) == int(i == j)
        # the I and R rows that recovery_op sums are these exactly
        rows = table_rows(gate)
        assert rows["I"][0] == [[int(i == j) for j in range(4)] for i in range(4)]
        assert rows["R"][0] == [list(row) for row in rate]

    @pytest.mark.parametrize("gate", GATES)
    def test_projectors_are_orthogonal_idempotents(self, gate):
        projectors = table_projectors(gate)
        zero = [[0] * 4 for _ in range(4)]
        for lam, p in projectors.items():
            assert p != zero
            for mu, q in projectors.items():
                assert exact_product(p, q) == (p if lam == mu else zero)

    @pytest.mark.parametrize("gate", GATES)
    def test_literals_equal_exact_projectors(self, gate):
        rate = exact_rate_matrix(channel.basis_for_gate(gate))
        for lam, p in table_projectors(gate).items():
            assert p == exact_projector(rate, lam, [0, 1, 2])

    @pytest.mark.parametrize("gate", GATES)
    def test_literal_weights_equal_decompose(self, gate):
        basis = build_gamma_basis()
        labels = _TABLE[gate][0]
        rows = table_rows(gate)
        for name, (m, weights) in rows.items():
            # dyadic entries times {0, +-1, +-i}: the trace formula is exact
            flat = [complex(x) for row in m for x in row]
            assert weights == decompose(basis, CMat(4, 4, flat)).coeffs, name
        # the table leaves out exactly the labels that are zero in every row
        assert set(labels) <= set(BASIS_ORDER)
        for label in BASIS_ORDER:
            nonzero = any(weights[label] for _, weights in rows.values())
            assert nonzero == (label in labels), label

    @pytest.mark.parametrize("gate", GATES)
    def test_weights_equal_exact_trace_formula(self, gate):
        # the table's weights against the trace formula in rationals on I, R
        # and the Lagrange projectors built from m_tensor, without decompose
        exact = exact_rows(gate)
        for name, (_, weights) in table_rows(gate).items():
            got = {label: (Fraction(w.real), Fraction(w.imag)) for label, w in weights.items()}
            assert got == exact_weights(exact[name]), name


def max_relative_error(got, exact):
    scale = max(abs(float(x)) for row in exact for x in row)
    return max(abs(got.at(i, j) - float(exact[i][j])) for i in range(4) for j in range(4)) / scale


@pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
class TestSpectralRecovery:
    @pytest.mark.parametrize("gate", GATES)
    def test_grid_against_exact_and_lu(self, gate):
        for alpha in GRID:
            exact = exact_inverse(gate, alpha)
            op = recovery_op(gate, alpha)
            assert max_relative_error(op.matrix, exact) <= 1e-13, alpha
            lu = recovery_numeric(population_channel(gate, alpha))
            scale = max(abs(e) for e in lu.entries)
            assert op.matrix.isclose(lu, 1e-13 * scale), alpha

    @pytest.mark.parametrize("gate", GATES)
    def test_near_quarter_against_exact_and_lu(self, gate):
        # Near 1/4 the LU inverse itself is off from the exact one by up to
        # about 5e-12 of the largest entry (Identity); the spectral sum must be
        # within 1e-13 of the exact inverse, and so its distance from the LU
        # inverse must be the LU's own error plus at most 1e-13.
        for alpha in near_quarter_alphas(gate):
            exact = exact_inverse(gate, alpha)
            op = recovery_op(gate, alpha)
            assert max_relative_error(op.matrix, exact) <= 1e-13, alpha
            lu = recovery_numeric(population_channel(gate, alpha))
            scale = max(abs(float(x)) for row in exact for x in row)
            gap = max(abs(a - b) for a, b in zip(op.matrix.entries, lu.entries)) / scale
            assert gap <= max_relative_error(lu, exact) + 1e-13, alpha

    @pytest.mark.parametrize("gate", GATES)
    def test_weights_against_decompose(self, gate):
        basis = build_gamma_basis()
        for alpha in GRID + near_quarter_alphas(gate, 50):
            op = recovery_op(gate, alpha)
            scale = op.matrix.max_abs()
            want = decompose(basis, op.matrix).coeffs
            for label in BASIS_ORDER:
                assert abs(op.gamma.coeffs[label] - want[label]) <= 1e-13 * scale, (alpha, label)

    @pytest.mark.parametrize("gate", GATES)
    def test_small_entries_keep_relative_precision(self, gate):
        # entries and weights of order alpha^2 (D, G) must not lose digits to
        # cancellation between the O(1) terms of the spectral sum
        for alpha in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.05):
            exact = exact_inverse(gate, alpha)
            op = recovery_op(gate, alpha)
            for i in range(4):
                for j in range(4):
                    got, want = Fraction(op.matrix.at(i, j).real), exact[i][j]
                    assert abs(got - want) <= 1e-14 * abs(want), (alpha, i, j)
            for label, (re, im) in exact_weights(exact).items():
                got = op.gamma.coeffs[label]
                assert abs(Fraction(got.real) - re) <= 1e-14 * abs(re), (alpha, label)
                assert abs(Fraction(got.imag) - im) <= 1e-14 * abs(im), (alpha, label)

    @pytest.mark.parametrize("gate", GATES)
    def test_checks_kept(self, gate):
        with pytest.raises(ValueError):
            recovery_op("cnot", 0.1)
        for bad in (-0.01, 0.25, 0.3, 0.6, float("nan")):
            with pytest.raises(AlphaOutOfRange):
                recovery_op(gate, bad)
        with pytest.raises(DenominatorNearZero):
            recovery_op(gate, 0.25 - 1e-11)

    @pytest.mark.parametrize("gate", GATES)
    def test_warning_matches_recovery_numeric(self, gate):
        # alpha* where the closed-form determinant crosses 1e-4, by bisection
        # in rationals; LU and closed form may round differently right at the
        # crossing, so alpha within 1e-12 of it is left out
        det = {"swap": lambda a: (1 - 2 * a) * (1 - 4 * a) ** 2,
               "identity": lambda a: (1 - 2 * a) ** 2 * (1 - 4 * a)}[gate]
        lo, hi = Fraction(1, 5), Fraction(1, 4)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if det(mid) > Fraction(1, 10**4) else (lo, mid)
        crossing = float(lo)
        alphas = [crossing + k * 1e-11 for k in range(-300, 301)]
        alphas += [crossing + k * 1e-7 for k in range(-300, 301)]
        alphas = [a for a in alphas if abs(a - crossing) > 1e-12 and a < ALPHA_MAX]
        warned = {True: 0, False: 0}
        for alpha in alphas:
            with warnings.catch_warnings(record=True) as spectral:
                warnings.simplefilter("always")
                recovery_op(gate, alpha)
            with warnings.catch_warnings(record=True) as numeric:
                warnings.simplefilter("always")
                recovery_numeric(population_channel(gate, alpha))
            assert [str(w.message) for w in spectral] == [str(w.message) for w in numeric], alpha
            warned[bool(spectral)] += 1
        assert warned[True] > 500 and warned[False] > 500


class TestClosedFormPath:
    """recovery_op, predict_table and reconstruct give the same results with
    the LU, trace and basis-conversion routes made to raise: the forward
    layers use none of them."""

    ALPHAS = (0.0, 0.03, 0.1, 0.2, 0.2468, 0.24992)

    @pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
    def test_no_lu_trace_or_conversion(self, monkeypatch):
        import sys

        from nmqem import gamma, linalg

        basis = build_gamma_basis()
        before = {
            (gate, alpha): (recovery_op(gate, alpha), predict_table(gate, alpha))
            for gate in GATES
            for alpha in self.ALPHAS
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("dense route called")

        def by_value(op):  # every field, with the matrix and the Gamma weights by value
            return (op.gate, op.alpha, op.matrix.rows, op.matrix.cols, op.matrix.entries,
                    op.coeffs, op.gamma.coeffs)

        for module, name in ((linalg, "det"), (linalg, "mat_inv"), (gamma, "decompose"),
                             (channel, "to_computational")):
            original = getattr(module, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "nmqem" or mod_name.startswith("nmqem."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, forbidden)
        with pytest.raises(AssertionError):
            recovery_numeric(population_channel("swap", 0.1))

        for (gate, alpha), (op_before, table_before) in before.items():
            op = recovery_op(gate, alpha)
            assert by_value(op) == by_value(op_before)
            assert max_relative_error(op.matrix, exact_inverse(gate, alpha)) <= 1e-13
            assert predict_table(gate, alpha) == table_before
            assert reconstruct(basis, op.gamma).isclose(op.matrix, 1e-13 * op.matrix.max_abs())
