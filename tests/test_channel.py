import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import nmqem
from golden import regen
from nmqem.channel import (
    _CHANNEL,
    _PREDICT_PLAN,
    _RATES,
    _projectors,
    _weights,
    ALPHA_CP,
    ALPHA_MAX,
    GATES,
    AlphaOutOfRange,
    Basis4,
    NotNormalized,
    basis_for_gate,
    computational_basis,
    input_labels,
    m_tensor,
    multiplet_basis,
    population_channel,
    predict_table,
    to_computational,
    v_element,
)
from nmqem.recovery import _FACTORS

MB = multiplet_basis()
CB = computational_basis()
MT_M = m_tensor(MB)
MT_C = m_tensor(CB)


def affine_coefficients(cells):
    """(a, b) per cell for cell(alpha) = a + b*alpha, probed at two alphas."""
    a0, a1 = cells
    out = []
    for x0, x1 in zip(a0, a1):
        b = (x1 - x0) / 0.1
        out.append((x0, b))
    return out


class TestBases:
    def test_orthonormal(self):
        # constructors run the orthonormality check themselves
        multiplet_basis()
        computational_basis()

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            Basis4("broken", ((1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_zero_vector_is_a_value_error(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Basis4("zero", ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    @pytest.mark.parametrize("entry", [0.7, 2, 1 + 1j, float("nan")])
    def test_undocumented_entry_rejected(self, entry):
        # each is refused before the Gram check, even where the basis would be
        # orthogonal (a lone 0.7 or 2 in place of a 1)
        with pytest.raises(ValueError, match="must be 0, \\+-1 or \\+-i"):
            Basis4("scaled", ((entry, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_gram_is_exact(self):
        # (1, 1j) and (1, -1j) are orthogonal: <u|w> = 1 + (-1j)(-1j) = 0
        basis = Basis4("circular", ((1, 1j, 0, 0), (1, -1j, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        assert basis.integer_vectors[1] == (1, -1j, 0, 0)
        with pytest.raises(ValueError, match="not orthonormal"):
            Basis4("skew", ((1, 1j, 0, 0), (1, 1j, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_basis_for_gate(self):
        assert basis_for_gate("swap").name == "multiplet_swap"
        assert basis_for_gate("identity").name == "computational"
        # built once, in the gate record
        assert all(basis_for_gate(gate) is basis_for_gate(gate) for gate in GATES)
        with pytest.raises(ValueError):
            basis_for_gate("cnot")

    def test_input_labels(self):
        assert input_labels("swap") == ("m1", "m2", "m3", "m4")
        assert input_labels("identity") == ("00", "01", "10", "11")
        with pytest.raises(ValueError):
            input_labels("cnot")

    def test_float_vectors_derived_from_integer_vectors(self):
        s = 1.0 / math.sqrt(2.0)
        assert MB.vectors == ((1.0, 0.0, 0.0, 0.0), (0.0, s, s, 0.0),
                              (0.0, 0.0, 0.0, 1.0), (0.0, s, -s, 0.0))
        assert CB.vectors == tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


class TestMTensor:
    def test_sum_rule(self):
        for mt in (MT_M, MT_C):
            for a in range(1, 5):
                for c in range(1, 5):
                    expected = 1.5 if a == c else 0.0
                    assert mt.diag_sum(a, c) == pytest.approx(expected, abs=1e-12)

    def test_exchange_symmetry(self):
        for mt in (MT_M, MT_C):
            for a in range(1, 5):
                for b in range(1, 5):
                    for c in range(1, 5):
                        for d in range(1, 5):
                            assert mt.at(a, b, c, d) == pytest.approx(
                                mt.at(c, d, a, b), abs=1e-13
                            )

    def test_multiplet_spot_values(self):
        assert MT_M.at(2, 1, 1, 2) == pytest.approx(0.5, abs=1e-13)
        assert MT_M.at(1, 1, 1, 1) == pytest.approx(0.5, abs=1e-13)
        assert MT_M.at(3, 1, 1, 3) == pytest.approx(0.0, abs=1e-13)


PAULI_2X2 = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
}


def kron(a, b):
    return [[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)] for i in range(4)]


# the six single-qubit Paulis on two qubits, built by Kronecker products
SPIN_OPS = [kron(PAULI_2X2[p], PAULI_2X2["I"]) for p in "XYZ"]
SPIN_OPS += [kron(PAULI_2X2["I"], PAULI_2X2[p]) for p in "XYZ"]


def element(op, u, v):
    """<u|op|v> for float amplitude vectors u, v."""
    return sum(u[i].conjugate() * op[i][j] * v[j] for i in range(4) for j in range(4))


def float_m_tensor(vectors):
    """M_abcd = (1/4) sum_sigma <a|sigma|b><c|sigma|d> in plain complex
    arithmetic over the float amplitudes, sigma the six Kronecker-built
    single-qubit Paulis."""
    elem = [[[element(op, u, v) for v in vectors] for u in vectors] for op in SPIN_OPS]
    return [[[[sum(e[a][b] * e[c][d] for e in elem) / 4 for d in range(4)] for c in range(4)]
             for b in range(4)] for a in range(4)]


class TestMTensorOracle:
    @pytest.mark.parametrize("gate", GATES)
    def test_matches_float_pauli_products(self, gate):
        basis = basis_for_gate(gate)
        want = float_m_tensor(basis.vectors)
        got = m_tensor(basis).m
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        assert abs(got[a][b][c][d] - want[a][b][c][d]) <= 1e-15, (a, b, c, d)


def matmul(a, b):
    return [[sum(a[i][m] * b[m][j] for m in range(4)) for j in range(4)] for i in range(4)]


def matsum(ms):
    return [[sum(m[i][j] for m in ms) for j in range(4)] for i in range(4)]


def tcl2_map(vectors, k):
    """<a|L(|c><d|)|b>, indexed [a][b][c][d], of the second-order
    time-convolutionless map
    L(rho) = rho - (k/4) sum_sigma (sigma sigma rho - sigma rho sigma)
                 - (conj(k)/4) sum_sigma (rho sigma sigma - sigma rho sigma)
    in plain complex arithmetic over the float amplitudes, sigma the six
    Kronecker-built single-qubit Paulis (Breuer and Petruccione, The Theory of
    Open Quantum Systems, OUP 2002)."""
    squares = matsum([matmul(op, op) for op in SPIN_OPS])
    out = [[[[None] * 4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for c, vc in enumerate(vectors):
        for d, vd in enumerate(vectors):
            rho = [[vc[i] * vd[j].conjugate() for j in range(4)] for i in range(4)]
            sandwiched = matsum([matmul(matmul(op, rho), op) for op in SPIN_OPS])
            left, right = matmul(squares, rho), matmul(rho, squares)
            mapped = [[rho[i][j] - k / 4 * (left[i][j] - sandwiched[i][j])
                       - k.conjugate() / 4 * (right[i][j] - sandwiched[i][j])
                       for j in range(4)] for i in range(4)]
            for a, va in enumerate(vectors):
                for b, vb in enumerate(vectors):
                    out[a][b][c][d] = element(mapped, va, vb)
    return out


INDICES = [(a, b, c, d) for a in range(4) for b in range(4) for c in range(4) for d in range(4)]


class TestVElementTCL2:
    """v_element against the full TCL2 map, coherences included."""

    @pytest.mark.parametrize("gate", GATES)
    def test_all_entries_match(self, gate):
        basis = basis_for_gate(gate)
        k = 0.03 + 0.011j
        want = tcl2_map(basis.vectors, k)
        mt = m_tensor(basis)
        for a, b, c, d in INDICES:
            got = v_element(mt, k, a + 1, b + 1, c + 1, d + 1)
            assert abs(got - want[a][b][c][d]) <= 1e-15, (a, b, c, d)

    @pytest.mark.parametrize("gate", GATES)
    def test_trace_preserved(self, gate):
        # tr L(|c><d|) = delta_cd: coherences map to trace 0, populations to 1
        mt = m_tensor(basis_for_gate(gate))
        for c in range(1, 5):
            for d in range(1, 5):
                trace = sum(v_element(mt, 0.03 + 0.011j, a, a, c, d) for a in range(1, 5))
                if c == d:
                    assert abs(trace - 1.0) <= 1e-15, (c, d)
                else:
                    assert trace == 0.0, (c, d)

    @pytest.mark.parametrize("gate", GATES)
    def test_imaginary_part_of_k_has_no_effect(self, gate):
        mt = m_tensor(basis_for_gate(gate))
        for a, b, c, d in INDICES:
            want = v_element(mt, 0.03 + 0.0j, a + 1, b + 1, c + 1, d + 1)
            for im in (0.011, -0.7, 5.0):
                assert v_element(mt, complex(0.03, im), a + 1, b + 1, c + 1, d + 1) == want


class TestVElement:
    def test_diagonal_real_for_complex_k(self):
        k = 0.03 + 0.7j
        for a in range(1, 5):
            for c in range(1, 5):
                v = v_element(MT_M, k, a, a, c, c)
                assert abs(v.imag) < 1e-12

    def test_k_zero_is_identity(self):
        for a in range(1, 5):
            for c in range(1, 5):
                v = v_element(MT_M, 0.0 + 0.0j, a, a, c, c)
                assert v == pytest.approx(1.0 if a == c else 0.0, abs=1e-13)


# channel matrices as affine functions of alpha: matrix[out][in] = a + b*alpha
SWAP_CHANNEL = (
    ((1, -2), (0, 1), (0, 0), (0, 1)),
    ((0, 1), (1, -3), (0, 1), (0, 1)),
    ((0, 0), (0, 1), (1, -2), (0, 1)),
    ((0, 1), (0, 1), (0, 1), (1, -3)),
)
ID_CHANNEL = (
    ((1, -2), (0, 1), (0, 1), (0, 0)),
    ((0, 1), (1, -2), (0, 0), (0, 1)),
    ((0, 1), (0, 0), (1, -2), (0, 1)),
    ((0, 0), (0, 1), (0, 1), (1, -2)),
)


class TestPopulationChannel:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_swap_matrix(self, alpha):
        ch = population_channel("swap", alpha)
        for i in range(4):
            for j in range(4):
                a, b = SWAP_CHANNEL[i][j]
                assert ch.matrix[i][j] == pytest.approx(a + b * alpha, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_identity_matrix(self, alpha):
        ch = population_channel("identity", alpha)
        for i in range(4):
            for j in range(4):
                a, b = ID_CHANNEL[i][j]
                assert ch.matrix[i][j] == pytest.approx(a + b * alpha, abs=1e-14)

    def test_columns_stochastic(self):
        for gate in GATES:
            ch = population_channel(gate, 0.07)
            for j in range(4):
                assert sum(ch.column(j)) == pytest.approx(1.0, abs=1e-12)
                assert all(v >= 0 for v in ch.column(j))

    def test_determinants_factorize(self):
        from nmqem.linalg import det

        alpha = 0.06
        d_swap = det(population_channel("swap", alpha).to_cmat())
        d_id = det(population_channel("identity", alpha).to_cmat())
        assert d_swap == pytest.approx((1 - 2 * alpha) * (1 - 4 * alpha) ** 2, abs=1e-13)
        assert d_id == pytest.approx((1 - 2 * alpha) ** 2 * (1 - 4 * alpha), abs=1e-13)

    @pytest.mark.parametrize("gate", GATES)
    def test_entries_nonnegative_through_one_third(self, gate):
        # completely positive on [0, 1/3]: p_I = 1 - 3 alpha and alpha/2 per Pauli
        for alpha in [i / 300 for i in range(101)] + [1.0 / 3.0]:
            ch = population_channel(gate, alpha)
            assert all(v >= 0 for row in ch.matrix for v in row), alpha

    def test_swap_block_reaches_zero_at_one_third(self):
        # SWAP's m2 -> m2 and m4 -> m4 entries are 1 - 3 alpha = p_I, exactly 0
        # at the end of the domain; at 0.4, where they would be -0.2, and
        # anywhere past 1/3, the map is not completely positive and is refused
        ch = population_channel("swap", ALPHA_CP)
        assert (ch.matrix[1][1], ch.matrix[3][3]) == (0.0, 0.0)
        assert min(v for row in ch.matrix for v in row) == 0.0
        assert [sum(ch.column(j)) for j in range(4)] == pytest.approx([1.0] * 4, abs=1e-15)
        for gate in GATES:
            with pytest.raises(AlphaOutOfRange):
                population_channel(gate, 0.4)

    def test_alpha_domain(self):
        # the map's domain [0, 1/3] is one check that both forward readers
        # share: the ends are in, the adjacent floats out, with one text
        assert ALPHA_CP == 1.0 / 3.0
        for gate in GATES:
            for read in (population_channel, predict_table):
                read(gate, 0.0)
                read(gate, ALPHA_CP)
                for bad in (math.nextafter(ALPHA_CP, 1.0), -5e-324, -0.01, 0.5):
                    with pytest.raises(AlphaOutOfRange) as info:
                        read(gate, bad)
                    assert str(info.value) == f"alpha={bad} outside [0, 1/3]"

    def test_unknown_gate(self):
        for read in (population_channel, predict_table):
            with pytest.raises(ValueError, match="^unknown gate 'cz'$"):
                read("cz", 0.1)


@functools.lru_cache(maxsize=None)
def exact_rate_matrix(basis):
    """R[a][c] = delta_ac * sum_a' M_{a a' a' a} - M_{a c c a} in Fractions,
    from m_tensor over the basis (these entries are exact dyadics). The
    package derives its R from the Pauli-weight split instead, so this is an
    independent oracle for it."""
    mt = m_tensor(basis)
    return tuple(
        tuple(
            (Fraction(mt.diag_sum(a, a)) if a == c else 0) - Fraction(mt.at(a, c, c, a))
            for c in range(1, 5)
        )
        for a in range(1, 5)
    )


def abs2(z):
    """|z|^2 of a Gaussian integer z, as an exact Fraction."""
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


class TestPauliErrorForm:
    """The population transfer of (1 - 3 alpha) rho + (alpha/2) sum_sigma
    sigma rho sigma, over the six Kronecker-built weight-1 Paulis, is
    delta - 2 alpha R, with R from m_tensor, in exact Fractions."""

    @pytest.mark.parametrize("gate", GATES)
    def test_transfer_equals_delta_minus_two_alpha_r(self, gate):
        basis = basis_for_gate(gate)
        x = basis.integer_vectors
        norms = [sum(abs2(e) for e in v) for v in x]
        # <x_a|sigma|x_c> of integer vectors is a Gaussian integer, exact in floats
        sandwich = [[sum(abs2(element(op, x[a], x[c])) for op in SPIN_OPS)
                     / (norms[a] * norms[c]) for c in range(4)] for a in range(4)]
        rates = exact_rate_matrix(basis)
        # both sides are affine in alpha, so two points would do
        for alpha in (Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(2, 5)):
            for a in range(4):
                for c in range(4):
                    delta = int(a == c)
                    pauli = (1 - 3 * alpha) * delta + alpha / 2 * sandwich[a][c]
                    assert pauli == delta - 2 * alpha * rates[a][c], (alpha, a, c)


def channel_alphas():
    """A grid over the map's domain [0, 1/3], 1/3 included, with points
    packed on both sides of 1/4."""
    rng = random.Random(20231)
    grid = [i / 1000 for i in range(334)] + [ALPHA_CP]
    grid += [0.25 - 2.0 ** -e for e in range(3, 54)]
    grid += [0.25 + 2.0 ** -e for e in range(4, 54)]
    grid += [math.nextafter(0.25, 0.0), math.nextafter(0.25, 1.0)]
    grid += [rng.uniform(0.0, ALPHA_CP) for _ in range(500)]
    return grid


# The rate matrices as they were once transcribed by hand, an oracle for the
# ones derived from the basis vectors.
RATE_TABLE = {
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
# |<beta|a>|^2, indexed [beta][a]
POPULATION_WEIGHTS = {
    "swap": ((1, 0, 0, 0), (0, 0.5, 0, 0.5), (0, 0.5, 0, 0.5), (0, 0, 1, 0)),
    "identity": tuple(tuple(int(i == j) for j in range(4)) for i in range(4)),
}


def rate_matrix(gate):
    """R as 4x4 rows, read off the channel's (delta, R) pairs."""
    rates = [r for _, r in _CHANNEL[gate]]
    return tuple(tuple(rates[4 * a:4 * a + 4]) for a in range(4))


# per output row, the nonzero (input, weight) pairs: SWAP's rows 01 and 10
# are each a mix of m2 and m4
PREDICT_PLANS = {
    "swap": (((0, 1.0),), ((1, 0.5), (3, 0.5)), ((1, 0.5), (3, 0.5)), ((2, 1.0),)),
    "identity": tuple(((beta, 1.0),) for beta in range(4)),
}


class TestRateMatrix:
    @pytest.mark.parametrize("gate", GATES)
    def test_table_equals_m_tensor_derivation(self, gate):
        assert rate_matrix(gate) == exact_rate_matrix(basis_for_gate(gate))

    @pytest.mark.parametrize("gate", GATES)
    def test_equals_transcribed_table(self, gate):
        assert [[x.hex() for x in row] for row in rate_matrix(gate)] == [
            [x.hex() for x in row] for row in RATE_TABLE[gate]]

    @pytest.mark.parametrize("gate", GATES)
    def test_delta_is_the_identity_pattern(self, gate):
        deltas = [d.hex() for d, _ in _CHANNEL[gate]]
        assert deltas == [(1.0 if a == c else 0.0).hex() for a in range(4) for c in range(4)]

    @pytest.mark.parametrize("gate", GATES)
    def test_population_weights_are_exact(self, gate):
        weights = _weights(basis_for_gate(gate))
        assert weights == POPULATION_WEIGHTS[gate]
        assert {w for row in weights for w in row} <= {0.0, 0.5, 1.0}
        assert all(type(w) is float for row in weights for w in row)

    @pytest.mark.parametrize("gate", GATES)
    def test_predict_plan_holds_the_nonzero_weights(self, gate):
        # per output row, the nonzero (input, weight) pairs in input order
        plan = _PREDICT_PLAN[gate]
        assert plan == tuple(tuple((a, w) for a, w in enumerate(row) if w)
                             for row in POPULATION_WEIGHTS[gate])
        assert all(type(w) is float for terms in plan for _, w in terms)
        assert plan == PREDICT_PLANS[gate]

    @pytest.mark.parametrize("gate", GATES)
    def test_channel_bit_identical_to_v_element(self, gate):
        basis = basis_for_gate(gate)
        mt = m_tensor(basis)
        for alpha in channel_alphas():
            matrix = population_channel(gate, alpha).matrix
            for a in range(1, 5):
                for c in range(1, 5):
                    expected = v_element(mt, complex(alpha), a, a, c, c).real
                    assert matrix[a - 1][c - 1].hex() == expected.hex(), (alpha, a, c)


# Bases beyond the package's gates, as integer vectors: the Bell states, the
# product states |++>, |+->, |-+>, |--> and CNOT's eigenbasis |00>, |01>, |1+>, |1->.
SPLIT_BASES = {
    "bell": Basis4("bell", ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))),
    "plus_minus": Basis4("plus_minus",
                         ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))),
    "cnot": Basis4("cnot", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
}
SPLIT_BASES.update((gate, basis_for_gate(gate)) for gate in GATES)
# tr P_0, tr P_1, tr P_2 where the split is R's spectral decomposition; CNOT's
# basis is not closed under the map, and its split is no set of projectors
SPLIT_TRACES = {"bell": (1, 0, 3), "plus_minus": (1, 2, 1), "swap": (1, 1, 2),
                "identity": (1, 2, 1), "cnot": None}


def exact_split(basis):
    """The Pauli-weight split P_0, P_1, P_2 of ``_projectors`` as 4x4 Fractions."""
    return [[[Fraction(p[4 * a + c]) for c in range(4)] for a in range(4)]
            for p in _projectors(basis)]


def exact_matmul(p, q):
    return [[sum(p[i][k] * q[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


class TestPauliWeightSplit:
    """The split P_w[a][c] = (1/4) sum over the strings P of weight w of
    <a|P|a><c|P|c>, in exact Fractions, on the gates' bases and beyond."""

    @pytest.mark.parametrize("name", SPLIT_BASES)
    def test_rate_matrix_and_identity(self, name):
        # R = P_1 + 2 P_2 against m_tensor's R, and P_0 + P_1 + P_2 = I, on
        # every basis, closed under the map or not
        p0, p1, p2 = exact_split(SPLIT_BASES[name])
        rate = exact_rate_matrix(SPLIT_BASES[name])
        for a in range(4):
            for c in range(4):
                assert p1[a][c] + 2 * p2[a][c] == rate[a][c], (a, c)
                assert p0[a][c] + p1[a][c] + p2[a][c] == int(a == c), (a, c)

    @pytest.mark.parametrize("name", SPLIT_BASES)
    def test_closure_is_idempotence(self, name):
        # the map leaves the populations closed, <a|L(|c><d|)|a> = 0 for
        # c != d, exactly where the split is a set of orthogonal idempotents
        basis = SPLIT_BASES[name]
        mt = m_tensor(basis)
        closed = all(mt.at(a, c, d, a) == 0.0
                     for a in range(1, 5) for c in range(1, 5) for d in range(1, 5) if c != d)
        split = exact_split(basis)
        zero = [[0] * 4 for _ in range(4)]
        idempotent = all(exact_matmul(p, q) == (p if w == v else zero)
                         for w, p in enumerate(split) for v, q in enumerate(split))
        assert closed == idempotent == (SPLIT_TRACES[name] is not None)
        if idempotent:
            traces = tuple(sum(p[i][i] for i in range(4)) for p in split)
            assert traces == SPLIT_TRACES[name]


# The 16 two-qubit Pauli strings as index pairs (p, q) over I, X, Y, Z. Two
# strings anticommute when an odd number of their positions hold two
# different non-identity Paulis.
PAULI_PAIRS = [(p, q) for p in range(4) for q in range(4)]


def pauli_weight(s):
    return sum(x > 0 for x in s)


def anticommute(s, t):
    return sum(x and y and x != y for x, y in zip(s, t)) % 2


def error_probabilities(alpha):
    """The Pauli error probability of each string at alpha, in Fractions: the
    Walsh-Hadamard transform p_s = (1/16) sum_t (-1)^<s,t> lambda_t of the
    eigenvalues lambda_t = 1 - r_w alpha, w the weight of t, read off
    ``_RATES`` alone."""
    rates = [Fraction(r) for r in _RATES]
    eigenvalues = {t: 1 - rates[pauli_weight(t)] * alpha for t in PAULI_PAIRS}
    return {s: sum((-1) ** anticommute(s, t) * eigenvalues[t] for t in PAULI_PAIRS) / 16
            for s in PAULI_PAIRS}


class TestNoiseModel:
    """Every bound and table the package derives from ``_RATES``, the
    noise model, against an exact oracle built from the rates alone."""

    @pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 1000)])
    def test_error_probabilities_are_the_pauli_form(self, alpha):
        # (1 - 3 alpha) rho + (alpha/2) sum_sigma sigma rho sigma over the six
        # weight-1 strings: the map TestPauliErrorForm checks against m_tensor
        expected = {0: 1 - 3 * alpha, 1: alpha / 2, 2: Fraction(0)}
        assert error_probabilities(alpha) == {s: expected[pauli_weight(s)] for s in PAULI_PAIRS}

    def test_alpha_cp_is_the_largest_alpha_with_probabilities_nonnegative(self):
        # each probability is affine in alpha; the nonnegative ones end at the
        # least root of those that fall, 1/3, and ALPHA_CP is that bound rounded
        at0, at1 = error_probabilities(Fraction(0)), error_probabilities(Fraction(1))
        bound = min(-at0[s] / (at1[s] - at0[s]) for s in PAULI_PAIRS if at1[s] < at0[s])
        assert bound == Fraction(1, 3) and ALPHA_CP == float(bound)
        assert min(error_probabilities(Fraction(ALPHA_CP)).values()) >= 0
        assert min(error_probabilities(Fraction(math.nextafter(ALPHA_CP, 1.0))).values()) < 0

    def test_alpha_max_is_the_least_root_of_an_eigenvalue(self):
        roots = [1 / Fraction(r) for r in _RATES if r]
        assert Fraction(ALPHA_MAX) == min(roots) == Fraction(1, 4)

    @pytest.mark.parametrize("gate", GATES)
    def test_rate_matrix_and_factors_are_read_off_the_rates(self, gate):
        # R = sum_w (r_w / 2) P_w and delta = sum_w P_w, entry by entry; the
        # determinant factors are each nonzero rate, tr P_w times, ascending
        split = exact_split(basis_for_gate(gate))
        rates = [Fraction(r) for r in _RATES]
        for k, (delta, rate) in enumerate(_CHANNEL[gate]):
            a, c = divmod(k, 4)
            assert delta == sum(p[a][c] for p in split)
            assert rate == sum(r / 2 * p[a][c] for r, p in zip(rates, split))
        traces = [sum(p[i][i] for i in range(4)) for p in split]
        assert [Fraction(f) for f in _FACTORS[gate]] == [
            r for r, t in zip(rates, traces) if r for _ in range(int(t))]
        assert list(_FACTORS[gate]) == sorted(_FACTORS[gate])


class TestToComputational:
    def test_multiplet_mixing(self):
        # a pure central-multiplet population splits evenly over 01 and 10,
        # by the exact weight 1/2 of the integer vectors
        assert to_computational((0, 1, 0, 0), MB) == (0.0, 0.5, 0.5, 0.0)
        assert to_computational((0, 0, 0, 1), MB) == (0.0, 0.5, 0.5, 0.0)

    @pytest.mark.parametrize("gate", GATES)
    def test_columns_match_predict_table(self, gate):
        # the public conversion and predict_table agree bit for bit
        basis = basis_for_gate(gate)
        for alpha in regen.digest_alphas():
            ch = population_channel(gate, alpha)
            columns = [to_computational(ch.column(j), basis) for j in range(4)]
            table = predict_table(gate, alpha)
            assert [[v.hex() for v in row] for row in zip(*columns)] == [
                [v.hex() for v in row] for row in table], alpha

    def test_extremal_states_pass_through(self):
        assert to_computational((1, 0, 0, 0), MB) == pytest.approx((1, 0, 0, 0))
        assert to_computational((0, 0, 1, 0), MB) == pytest.approx((0, 0, 0, 1))

    def test_computational_basis_is_identity_map(self):
        p = (0.1, 0.2, 0.3, 0.4)
        assert to_computational(p, CB) == pytest.approx(p)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            to_computational((0.5, 0.5, 0.5, 0.0), MB)

    @pytest.mark.parametrize("populations", [
        (math.nan,) * 4, (math.inf, -math.inf, 1.0, 0.0), (math.nan, 0.0, 0.0, 1.0)])
    def test_nan_total_is_not_normalized(self, populations):
        # a NaN total compares false with everything, so it must fail the check
        with pytest.raises(NotNormalized, match=r"^populations sum to nan, expected 1$"):
            to_computational(populations, MB)

    @pytest.mark.parametrize("populations", [(0.5, 0.25, 0.25), (0.5, 0.25, 0, 0, 0.25), ()])
    def test_needs_four_populations(self, populations):
        # checked before the sum: the 5-vector's first four entries are
        # not normalised, and the 3-vector sums to one
        with pytest.raises(ValueError, match="need four populations") as raised:
            to_computational(populations, MB)
        assert type(raised.value) is ValueError


# predicted tables as affine functions: table[out][in] = a + b*alpha
SWAP_TABLE = (
    ((1, -2), (0, 1), (0, 0), (0, 1)),
    ((0, 1), (0.5, -1), (0, 1), (0.5, -1)),
    ((0, 1), (0.5, -1), (0, 1), (0.5, -1)),
    ((0, 0), (0, 1), (1, -2), (0, 1)),
)


class TestPredictTable:
    @pytest.mark.parametrize("alpha", [0.0, 0.02, 0.1, 1.0 / 3.0])
    def test_swap_table(self, alpha):
        table = predict_table("swap", alpha)
        for i in range(4):
            for j in range(4):
                a, b = SWAP_TABLE[i][j]
                assert table[i][j] == pytest.approx(a + b * alpha, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    @pytest.mark.parametrize("gate", GATES)
    def test_exact_at_zero_and_quarter(self, gate, alpha):
        # the points classify_cells reads; every product there is dyadic
        model = {"swap": SWAP_TABLE, "identity": ID_CHANNEL}[gate]
        table = predict_table(gate, alpha)
        assert table == tuple(tuple(a + b * alpha for a, b in row) for row in model)

    def test_swap_weights_are_exact(self):
        # |<beta|a>|^2 from the exact amplitudes: (1/sqrt2)^2 is 1/2, so at
        # alpha = 0.02 the cells are 0.48 and 0.02, not 0.47999999999999987
        table = predict_table("swap", 0.02)
        assert [table[i][1] for i in range(4)] == [0.02, 0.48, 0.48, 0.02]
        assert [sum(row[j] for row in table) for j in range(4)] == [1.0] * 4

    @pytest.mark.parametrize("alpha", [0.0, 0.02, 0.1])
    def test_identity_table_is_channel_matrix(self, alpha):
        table = predict_table("identity", alpha)
        ch = population_channel("identity", alpha)
        for i in range(4):
            for j in range(4):
                assert table[i][j] == pytest.approx(ch.matrix[i][j], abs=1e-15)

    def test_columns_sum_to_one(self):
        for gate in GATES:
            table = predict_table(gate, 0.08)
            for j in range(4):
                assert sum(table[i][j] for i in range(4)) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(AlphaOutOfRange):
            predict_table("swap", 0.34)
        with pytest.raises(AlphaOutOfRange):
            predict_table("identity", -1e-9)


def test_cli_import_leaves_out_fractions():
    # a fresh interpreter that finds nmqem where this one does
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nmqem.__file__)))
    code = "import sys, nmqem.cli; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "False\n"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses, and the inspect it imports, were the largest part of the import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nmqem.__file__)))
    code = "import sys, nmqem.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "False False\n"
