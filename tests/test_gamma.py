import random

import pytest

from nmqem.gamma import (
    BASIS_ORDER,
    METRIC,
    GammaCoeffs,
    anticommutator,
    build_gamma_basis,
    decompose,
    is_orthogonal,
    reconstruct,
)
from nmqem.linalg import PAULI, CMat, identity, kron, mat_mul, solve_linear

BASIS = build_gamma_basis()

I = 1j

# Hand-derived block forms: g_i = offdiag(sigma_i, sigma_i), g0 = i diag(I, -I),
# products computed by 2x2 block multiplication.
EXPECTED = {
    "I": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "g0": [[I, 0, 0, 0], [0, I, 0, 0], [0, 0, -I, 0], [0, 0, 0, -I]],
    "g1": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    "g2": [[0, 0, 0, -I], [0, 0, I, 0], [0, -I, 0, 0], [I, 0, 0, 0]],
    "g3": [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
    "g0g1": [[0, 0, 0, I], [0, 0, I, 0], [0, -I, 0, 0], [-I, 0, 0, 0]],
    "g0g2": [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
    "g0g3": [[0, 0, I, 0], [0, 0, 0, -I], [-I, 0, 0, 0], [0, I, 0, 0]],
    "g1g2": [[I, 0, 0, 0], [0, -I, 0, 0], [0, 0, I, 0], [0, 0, 0, -I]],
    "g1g3": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    "g2g3": [[0, I, 0, 0], [I, 0, 0, 0], [0, 0, 0, I], [0, 0, I, 0]],
    "g5g0": [[0, 0, I, 0], [0, 0, 0, I], [I, 0, 0, 0], [0, I, 0, 0]],
    "g5g1": [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "g5g2": [[0, I, 0, 0], [-I, 0, 0, 0], [0, 0, 0, -I], [0, 0, I, 0]],
    "g5g3": [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    "g5": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
}

# The paper's five sets of Gamma matrices: the identity, the generators, their
# products in pairs, g5 times a generator, and g5.
SET_OF_LABEL = {
    "I": "G1",
    "g0": "G2", "g1": "G2", "g2": "G2", "g3": "G2",
    "g0g1": "G3", "g0g2": "G3", "g0g3": "G3",
    "g1g2": "G3", "g1g3": "G3", "g2g3": "G3",
    "g5g0": "G4", "g5g1": "G4", "g5g2": "G4", "g5g3": "G4",
    "g5": "G5",
}


def random_cmat(rng):
    return CMat(
        4,
        4,
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)),
    )


class TestBasisMatrices:
    def test_metric_signature(self):
        assert METRIC == (-1, 1, 1, 1)
        assert BASIS.metric == METRIC

    def test_order(self):
        assert len(BASIS_ORDER) == 16
        assert BASIS_ORDER[0] == "I"
        assert BASIS_ORDER[-1] == "g5"

    @pytest.mark.parametrize("label", BASIS_ORDER)
    def test_entries_are_exact_complex_integers(self, label):
        allowed = {0, 1, -1, 1j, -1j}
        for z in BASIS.matrix(label).entries:
            assert complex(z) in allowed

    @pytest.mark.parametrize("label", BASIS_ORDER)
    def test_matches_hand_derived_blocks(self, label):
        expected = CMat.from_rows(EXPECTED[label])
        assert BASIS.matrix(label).entries == expected.entries

    def test_set_membership(self):
        counts = {}
        for label in BASIS_ORDER:
            counts[SET_OF_LABEL[label]] = counts.get(SET_OF_LABEL[label], 0) + 1
        assert counts == {"G1": 1, "G2": 4, "G3": 6, "G4": 4, "G5": 1}

    def test_pairwise_distinct(self):
        seen = {BASIS.matrix(label).entries for label in BASIS_ORDER}
        assert len(seen) == 16


def pauli_strings(m):
    """Every (phase, p, q) with m = phase * PAULI[p] (x) PAULI[q] exactly,
    phase in {+-1, +-i}."""
    return [(phase, p, q) for phase in (1, -1, 1j, -1j) for p in range(4) for q in range(4)
            if kron(PAULI[p], PAULI[q]).scaled(phase).entries == m.entries]


class TestPauliStrings:
    """Each Gamma matrix is a phase times a two-qubit Pauli string, so the
    Gamma expansion is the Pauli expansion up to phases."""

    @pytest.mark.parametrize("label", BASIS_ORDER)
    def test_one_phase_times_one_string(self, label):
        assert len(pauli_strings(BASIS.matrix(label))) == 1

    def test_strings_are_distinct(self):
        strings = {pauli_strings(BASIS.matrix(label))[0][1:] for label in BASIS_ORDER}
        assert len(strings) == 16

    def test_generators(self):
        assert pauli_strings(BASIS.matrix("g0")) == [(1j, 3, 0)]
        for k in (1, 2, 3):
            assert pauli_strings(BASIS.generator(k)) == [(1, 1, k)]


class TestAlgebra:
    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("nu", range(4))
    def test_anticommutators_exact(self, mu, nu):
        expected = identity(4).scaled(2 * METRIC[mu] if mu == nu else 0)
        assert anticommutator(BASIS, mu, nu).entries == expected.entries

    @pytest.mark.parametrize("label", BASIS_ORDER)
    def test_left_mul_equals_mat_mul(self, label):
        # every pair of labels, then dense random right factors
        rng = random.Random(BASIS_ORDER.index(label))
        rights = list(BASIS.matrices) + [random_cmat(rng) for _ in range(4)]
        for m in rights:
            assert BASIS.left_mul(label, m).entries == mat_mul(BASIS.matrix(label), m).entries

    def test_left_mul_sums_a_row_of_several_nonzeros(self):
        matrices = list(BASIS.matrices)
        entries = list(BASIS.matrix("g0").entries)
        entries[4] = 2  # row 1 now holds 2 and i
        matrices[BASIS_ORDER.index("g0")] = CMat(4, 4, entries)
        bad = type(BASIS)(tuple(matrices), BASIS.metric)
        m = random_cmat(random.Random(7))
        assert bad.left_mul("g0", m).entries == mat_mul(bad.matrix("g0"), m).entries

    def test_anticommutator_index_range(self):
        with pytest.raises(ValueError):
            anticommutator(BASIS, 0, 4)

    def test_g5_is_generator_product(self):
        product = BASIS.matrix("g0")
        for mu in (1, 2, 3):
            product = mat_mul(product, BASIS.generator(mu))
        assert product.entries == BASIS.matrix("g5").entries

    def test_g5_squares_to_minus_identity(self):
        sq = mat_mul(BASIS.matrix("g5"), BASIS.matrix("g5"))
        assert sq.entries == identity(4).scaled(-1).entries

    def test_products_consistent(self):
        for mu in range(4):
            for nu in range(mu + 1, 4):
                prod = mat_mul(BASIS.generator(mu), BASIS.generator(nu))
                assert prod.entries == BASIS.matrix(f"g{mu}g{nu}").entries
        for mu in range(4):
            prod = mat_mul(BASIS.matrix("g5"), BASIS.generator(mu))
            assert prod.entries == BASIS.matrix(f"g5g{mu}").entries


class TestDecompose:
    @pytest.mark.parametrize("label", BASIS_ORDER)
    def test_basis_matrix_is_unit_coefficient(self, label):
        c = decompose(BASIS, BASIS.matrix(label))
        for other in BASIS_ORDER:
            expected = 1.0 if other == label else 0.0
            assert c.coeffs[other] == pytest.approx(expected, abs=1e-13)

    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(100):
            m = random_cmat(rng)
            c = decompose(BASIS, m)
            assert reconstruct(BASIS, c).isclose(m, 1e-12)

    def test_linearity(self):
        rng = random.Random(9)
        a, b = random_cmat(rng), random_cmat(rng)
        ca = decompose(BASIS, a)
        cb = decompose(BASIS, b)
        csum = decompose(BASIS, a.add(b.scaled(2.5)))
        for label in BASIS_ORDER:
            expected = ca.coeffs[label] + 2.5 * cb.coeffs[label]
            assert csum.coeffs[label] == pytest.approx(expected, abs=1e-12)

    def test_gram_matrix_is_four_identity(self):
        assert is_orthogonal(BASIS)
        matrices = list(BASIS.matrices)
        matrices[BASIS_ORDER.index("g1")] = BASIS.matrix("g2")
        assert not is_orthogonal(type(BASIS)(tuple(matrices), BASIS.metric))

    @pytest.mark.parametrize("label", ["I", "g2", "g5"])
    def test_extra_entry_breaks_gram_matrix(self, label):
        # one more nonzero entry, where the matrix has a zero, enters its
        # support and so its trace with itself
        matrices = list(BASIS.matrices)
        r = BASIS_ORDER.index(label)
        k = next(k for k, e in enumerate(matrices[r].entries) if e == 0)
        entries = list(matrices[r].entries)
        entries[k] = 1
        matrices[r] = CMat(4, 4, entries)
        assert not is_orthogonal(type(BASIS)(tuple(matrices), BASIS.metric))

    @pytest.mark.parametrize("kept", [0, 1])
    def test_sparse_matrix_breaks_gram_matrix(self, kept):
        # a support of zero or one entries is judged too, not an error
        matrices = list(BASIS.matrices)
        entries = [0] * 16
        entries[:kept] = [1] * kept
        matrices[BASIS_ORDER.index("g3")] = CMat(4, 4, entries)
        assert not is_orthogonal(type(BASIS)(tuple(matrices), BASIS.metric))

    def test_trace_weights_match_linear_solve(self):
        # independent oracle: the 16x16 system whose column r is the
        # flattened r-th basis matrix
        flat = [g.entries for g in BASIS.matrices]
        system = CMat(16, 16, tuple(flat[r][pos] for pos in range(16) for r in range(16)))
        rng = random.Random(7)
        for _ in range(20):
            m = random_cmat(rng)
            solved = solve_linear(system, m.entries)
            c = decompose(BASIS, m)
            for label, want in zip(BASIS_ORDER, solved):
                assert c.coeffs[label] == pytest.approx(want, abs=1e-14)

    def test_zero_matrix(self):
        c = decompose(BASIS, CMat(4, 4, (0.0,) * 16))
        assert c.abs_sum() == pytest.approx(0.0, abs=1e-14)

    def test_rejects_non_4x4(self):
        with pytest.raises(ValueError):
            decompose(BASIS, identity(2))

    def test_coeffs_require_all_labels(self):
        with pytest.raises(ValueError):
            GammaCoeffs({"I": 1.0})

    def test_coeffs_reject_unknown_labels(self):
        # abs_sum and reconstruct would drop the unknown weight without a word
        with pytest.raises(ValueError, match="unknown coefficient labels \\['g6'\\]"):
            GammaCoeffs({label: 0.0 for label in BASIS_ORDER} | {"g6": 5})

    def test_abs_sum(self):
        c = GammaCoeffs({label: 0.0 for label in BASIS_ORDER} | {"g5": 3 + 4j, "I": 1.0})
        assert c.abs_sum() == pytest.approx(6.0)


def reconstruct_by_matrix_sums(basis, c):
    """The reference fold: one scaled matrix added per nonzero weight."""
    out = CMat(4, 4, (0.0,) * 16)
    for label, matrix in zip(BASIS_ORDER, basis.matrices):
        weight = c.coeffs[label]
        if weight != 0:
            out = out.add(matrix.scaled(weight))
    return out


def entry_bits(m):
    return [(z.real.hex(), z.imag.hex()) for z in m.entries]


class TestReconstruct:
    @pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
    @pytest.mark.parametrize("gate", ["swap", "identity"])
    def test_equals_matrix_sum_fold_on_recovery_operators(self, gate):
        from nmqem.recovery import recovery_op

        alphas = [i / 400 for i in range(100)] + [0.249, 0.2495, 0.2499]
        for alpha in alphas:
            c = recovery_op(gate, alpha).gamma
            assert entry_bits(reconstruct(BASIS, c)) == entry_bits(
                reconstruct_by_matrix_sums(BASIS, c)
            ), alpha

    def test_equals_matrix_sum_fold_on_mixed_weights(self):
        rng = random.Random(11)
        cases = [
            {label: rng.choice([0, 0.0, 1.5, complex(rng.gauss(0, 1), rng.gauss(0, 1))])
             for label in BASIS_ORDER}
            for _ in range(50)
        ]
        # one negative weight: where its matrix is zero the product is -0.0,
        # so these cases show the sign of the 0j each entry starts from
        cases += [{other: -1.5 if other == label else 0 for other in BASIS_ORDER}
                  for label in BASIS_ORDER]
        for coeffs in cases:
            c = GammaCoeffs(coeffs)
            assert entry_bits(reconstruct(BASIS, c)) == entry_bits(
                reconstruct_by_matrix_sums(BASIS, c)
            )
