import json
import math
import sys
from importlib.resources import files

import pytest

from nmqem.channel import GATES, input_labels, predict_table
from nmqem.expdata import (
    OUTCOMES,
    ROLE_ALPHA,
    ROLE_HALF,
    ROLE_ONE_MINUS_2A,
    ROLE_ZERO,
    CountTable,
    EmptyRun,
    ParseError,
    SchemaError,
    classify_cells,
    divergence_flags,
    estimate_re_k,
    fit_coupling,
    load_counts,
    normalize,
    reference_range,
)
from nmqem.kernel import re_k_approx

FIXTURES = files("nmqem") / "fixtures"


def load_fixture(name):
    return load_counts((FIXTURES / name).read_text())


def prob_table_from_predicted(gate, alpha, device="synthetic"):
    table = predict_table(gate, alpha)
    from nmqem.expdata import ProbTable

    return ProbTable(gate, device, table)


class TestLoadCounts:
    def test_counts_fixture(self):
        ct = load_fixture("table2_ionq_swap.json")
        assert ct.gate == "swap"
        assert ct.device == "IonQ"
        assert ct.shots == 1000
        assert ct.kind == "counts"
        assert set(ct.runs) == {"m1", "m2", "m3", "m4"}
        assert ct.runs["m1"]["00"] == 955

    def test_probs_fixture(self):
        ct = load_fixture("synthetic_identity.json")
        assert ct.kind == "probs"

    def test_accepts_file_object(self):
        with open(str(FIXTURES / "table5_ionq_identity.json"), "rb") as fh:
            ct = load_counts(fh)
        assert ct.gate == "identity"

    def test_empty_document(self):
        with pytest.raises(ParseError):
            load_counts("   ")

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError, match="line"):
            load_counts('{"gate": "swap",')

    @pytest.mark.parametrize("text, message", [
        ("[" * 200_000, "maximum recursion depth exceeded"),
        ('{"gate": "swap", "shots": ' + "1" * 5001 + "}", "integer string conversion"),
    ])
    def test_unreadable_json_is_a_parse_error(self, text, message):
        # json.loads raises RecursionError and a plain ValueError here, not JSONDecodeError
        with pytest.raises(ParseError, match=f"^invalid JSON: .*{message}"):
            load_counts(text)

    def test_non_utf8_bytes_are_a_parse_error(self):
        text = b'{"gate": "swap", "device": "\xff\xfeIonQ", "shots": 1, "runs": []}'
        with pytest.raises(ParseError, match="^not UTF-8: byte 0xff at offset 28$"):
            load_counts(text)

    def test_non_object_top_level(self):
        with pytest.raises(ParseError):
            load_counts("[1, 2]")

    def base_doc(self):
        return {
            "gate": "identity",
            "device": "dev",
            "shots": 100,
            "runs": [
                {"input": label, "counts": {label: 100}}
                for label in ("00", "01", "10", "11")
            ],
        }

    def test_valid_base_doc(self):
        ct = load_counts(json.dumps(self.base_doc()))
        assert normalize(ct).matrix[0][0] == 1.0

    def test_unknown_gate(self):
        doc = self.base_doc()
        doc["gate"] = "cnot"
        with pytest.raises(SchemaError, match="gate"):
            load_counts(json.dumps(doc))

    def test_bad_shots(self):
        for shots in (0, -5, "many", 1.5, True):
            doc = self.base_doc()
            doc["shots"] = shots
            with pytest.raises(SchemaError, match="shots"):
                load_counts(json.dumps(doc))

    def test_duplicate_input(self):
        doc = self.base_doc()
        doc["runs"].append({"input": "00", "counts": {"00": 1}})
        with pytest.raises(SchemaError, match="duplicate"):
            load_counts(json.dumps(doc))

    @pytest.mark.parametrize("old, new, key", [
        ('"00": 936,', '"00": 936, "00": 5,', "00"),  # read alone, the last value moves max to 0.3478
        ('"gate": "swap",', '"gate": "swap", "gate": "identity",', "gate"),
    ])
    def test_repeated_key(self, old, new, key):
        text = (FIXTURES / "table3_ibm_swap.json").read_text()
        assert text.count(old) == 1
        with pytest.raises(SchemaError, match=f"^repeated key '{key}'$"):
            load_counts(text.replace(old, new))

    def test_missing_input(self):
        doc = self.base_doc()
        doc["runs"] = doc["runs"][:3]
        with pytest.raises(SchemaError, match="missing"):
            load_counts(json.dumps(doc))

    def test_unknown_input_label(self):
        doc = self.base_doc()
        doc["runs"][0]["input"] = "m1"  # multiplet label on an identity table
        with pytest.raises(SchemaError, match="input"):
            load_counts(json.dumps(doc))

    @pytest.mark.parametrize("label", [["00"], {"00": 1}])
    def test_unhashable_input_label(self, label):
        # an array or an object is an unknown label, not a TypeError
        doc = self.base_doc()
        doc["runs"][0]["input"] = label
        with pytest.raises(SchemaError, match="^unknown input label"):
            load_counts(json.dumps(doc))

    def test_lone_surrogate_device(self):
        doc = self.base_doc()
        doc["device"] = "\ud800"
        with pytest.raises(SchemaError, match="^device must be UTF-8 text"):
            load_counts(json.dumps(doc))

    def test_unknown_outcome(self):
        doc = self.base_doc()
        doc["runs"][0]["counts"]["22"] = 1
        with pytest.raises(SchemaError, match="outcome"):
            load_counts(json.dumps(doc))

    def test_counts_exceed_shots(self):
        doc = self.base_doc()
        doc["runs"][0]["counts"]["00"] = 101
        with pytest.raises(SchemaError, match="exceeds"):
            load_counts(json.dumps(doc))

    def test_negative_count(self):
        doc = self.base_doc()
        doc["runs"][0]["counts"]["00"] = -1
        with pytest.raises(SchemaError, match="nonnegative"):
            load_counts(json.dumps(doc))

    def test_fractional_count(self):
        doc = self.base_doc()
        doc["runs"][0]["counts"]["00"] = 0.5
        with pytest.raises(SchemaError, match="integer"):
            load_counts(json.dumps(doc))

    def test_probs_sum_slack(self):
        doc = self.base_doc()
        for run in doc["runs"]:
            run["probs"] = {run["input"]: 0.99, "00": 0.0}
            run["probs"][run["input"]] = 0.99
            del run["counts"]
        ct = load_counts(json.dumps(doc))  # 0.99 is within the 0.02 slack
        assert ct.kind == "probs"
        doc["runs"][0]["probs"]["00"] = 0.5
        with pytest.raises(SchemaError, match="sum"):
            load_counts(json.dumps(doc))

    def probs_doc(self, value):
        doc = self.base_doc()
        for run in doc["runs"]:
            run["probs"] = {"00": 0.0, run["input"]: 1.0}
            del run["counts"]
        doc["runs"][0]["probs"]["01"] = value
        return json.dumps(doc)

    def test_huge_integer_probability(self):
        # json reads these literals as ints; the first rounds to the largest
        # float but exceeds it, the second does not convert to a float at all
        for value in (int(sys.float_info.max) + 1, 10 ** 400):
            with pytest.raises(SchemaError, match="must be a finite nonnegative number"):
                load_counts(self.probs_doc(value))

    def test_integer_probabilities_summing_past_the_largest_float(self):
        # each is a finite float, and their int sum is compared exactly
        doc = json.loads(self.probs_doc(10 ** 308))
        doc["runs"][0]["probs"]["10"] = 10 ** 308
        with pytest.raises(SchemaError, match="sum to"):
            load_counts(json.dumps(doc))

    def test_float_probabilities_summing_past_the_largest_float(self):
        doc = json.loads(self.probs_doc(1e308))
        doc["runs"][0]["probs"]["10"] = 1e308
        with pytest.raises(SchemaError, match="sum to more than the largest float$"):
            load_counts(json.dumps(doc))

    def test_mixed_counts_and_probs(self):
        doc = self.base_doc()
        doc["runs"][1]["probs"] = doc["runs"][1].pop("counts")
        with pytest.raises(SchemaError, match="mix"):
            load_counts(json.dumps(doc))


class TestNormalize:
    def test_published_column(self):
        pt = normalize(load_fixture("table2_ionq_swap.json"))
        assert pt.matrix[0][0] == pytest.approx(0.955)
        assert pt.matrix[1][0] == pytest.approx(0.017)
        assert pt.matrix[2][0] == pytest.approx(0.018)
        assert pt.matrix[3][0] == pytest.approx(0.010)

    def test_columns_sum_to_one(self):
        for name in ("table3_ibm_swap.json", "table6_ibm_identity.json"):
            pt = normalize(load_fixture(name))
            for j in range(4):
                assert sum(pt.matrix[i][j] for i in range(4)) == pytest.approx(1.0)

    def test_empty_run(self):
        ct = CountTable(
            "identity",
            "dev",
            10,
            {
                "00": {"00": 0, "01": 0, "10": 0, "11": 0},
                "01": {"00": 10, "01": 0, "10": 0, "11": 0},
                "10": {"00": 10, "01": 0, "10": 0, "11": 0},
                "11": {"00": 10, "01": 0, "10": 0, "11": 0},
            },
            "counts",
        )
        with pytest.raises(EmptyRun):
            normalize(ct)


# the affine pairs (a, b), p(alpha) = a + b alpha, of the readout cells
ALPHA = (0.0, 1.0)
ONE_MINUS_2A = (1.0, -2.0)
HALF = (0.5, -1.0)
ZERO = (0.0, 0.0)
ROLE_NAMES = {ALPHA: ROLE_ALPHA, ONE_MINUS_2A: ROLE_ONE_MINUS_2A, HALF: ROLE_HALF, ZERO: ROLE_ZERO}


def count_pairs(cells):
    counts = {}
    for row in cells:
        for pair in row:
            counts[pair] = counts.get(pair, 0) + 1
    return counts


class TestClassifyCells:
    def test_swap_roles(self):
        cells = classify_cells("swap")
        assert cells[0][0] == ONE_MINUS_2A
        assert cells[1][1] == HALF
        assert cells[2][1] == HALF
        assert cells[0][2] == ZERO
        assert cells[1][0] == ALPHA
        assert count_pairs(cells) == {ONE_MINUS_2A: 2, HALF: 4, ZERO: 2, ALPHA: 8}

    def test_identity_roles(self):
        cells = classify_cells("identity")
        assert count_pairs(cells) == {ONE_MINUS_2A: 4, ZERO: 4, ALPHA: 8}
        for i in range(4):
            assert cells[i][i] == ONE_MINUS_2A

    def test_unknown_gate(self):
        for _ in range(3):  # on every call, not only the first
            with pytest.raises(ValueError):
                classify_cells("cnot")

    @pytest.mark.parametrize("gate", GATES)
    def test_cached_roles_equal_the_probe(self, gate):
        # the exact pairs against a probe of the table at alpha = 0 and 0.1,
        # matched to the known pairs within 1e-9
        at0, at1 = predict_table(gate, 0.0), predict_table(gate, 0.1)
        probed = tuple(
            tuple(
                next(
                    (a, b)
                    for a, b in ROLE_NAMES
                    if abs(at0[i][j] - a) < 1e-9 and abs((at1[i][j] - at0[i][j]) / 0.1 - b) < 1e-9
                )
                for j in range(4)
            )
            for i in range(4)
        )
        cells = classify_cells(gate)
        assert cells == probed
        assert cells == classify_cells.__wrapped__(gate)
        assert classify_cells(gate) is cells
        assert all(isinstance(row, tuple) for row in cells)
        assert all(type(x) is float for row in cells for pair in row for x in pair)


class TestEstimate:
    @pytest.mark.parametrize("gate", GATES)
    @pytest.mark.parametrize("alpha", [0.005, 0.01, 0.02, 0.05])
    def test_round_trip_on_exact_tables(self, gate, alpha):
        pt = prob_table_from_predicted(gate, alpha)
        est = estimate_re_k(pt)
        assert est.min == pytest.approx(alpha, abs=1e-12)
        assert est.max == pytest.approx(alpha, abs=1e-12)
        assert est.lsq == pytest.approx(alpha, abs=1e-12)
        assert est.residual == pytest.approx(0.0, abs=1e-10)

    def test_published_swap_tables(self):
        est = estimate_re_k(normalize(load_fixture("table2_ionq_swap.json")))
        assert est.min == pytest.approx(0.006, abs=1e-12)
        assert est.max == pytest.approx(0.023, abs=1e-12)
        est = estimate_re_k(normalize(load_fixture("table3_ibm_swap.json")))
        assert est.min == pytest.approx(0.016, abs=1e-12)
        assert est.max == pytest.approx(0.056, abs=1e-12)

    def test_published_identity_tables(self):
        est = estimate_re_k(normalize(load_fixture("table5_ionq_identity.json")))
        assert est.min == pytest.approx(0.001, abs=1e-12)
        assert est.max == pytest.approx(0.024, abs=1e-12)
        est = estimate_re_k(normalize(load_fixture("table6_ibm_identity.json")))
        assert est.min == pytest.approx(0.004, abs=1e-12)
        assert est.max == pytest.approx(0.028, abs=1e-12)

    def test_per_cell_covers_nonzero_roles(self):
        pt = prob_table_from_predicted("swap", 0.02)
        est = estimate_re_k(pt)
        assert len(est.per_cell) == 14  # 16 cells minus the 2 structural zeros
        alpha_cells = [c for c in est.per_cell if c.role == ROLE_ALPHA]
        assert len(alpha_cells) == 8

    @pytest.mark.parametrize("gate", GATES)
    def test_each_role_names_its_cell_pair(self, gate):
        cells = classify_cells(gate)
        inputs = input_labels(gate)
        est = estimate_re_k(prob_table_from_predicted(gate, 0.02))
        assert [(c.input, c.output, c.role) for c in est.per_cell] == [
            (inputs[j], OUTCOMES[i], ROLE_NAMES[cells[i][j]])
            for i in range(4)
            for j in range(4)
            if cells[i][j] != ZERO
        ]

    def test_cell_estimates_invert_each_role_bit_for_bit(self):
        # (p - a) / b + 0.0 against each role's own inversion, by float.hex,
        # on random tables and at the cells' intercepts, where a bare
        # (p - a) / b would give -0.0
        import random

        from nmqem.expdata import ProbTable

        inverse = {
            ALPHA: lambda p: p,
            ONE_MINUS_2A: lambda p: (1.0 - p) / 2.0,
            HALF: lambda p: (1.0 - 2.0 * p) / 2.0,
        }
        rng = random.Random(14)
        tables = [[[rng.random() for _ in range(4)] for _ in range(4)] for _ in range(200)]
        tables += [[[v] * 4 for _ in range(4)] for v in (0.0, 0.5, 1.0, 0.25)]
        for gate in GATES:
            cells = classify_cells(gate)
            for table in tables:
                est = estimate_re_k(ProbTable(gate, "synthetic", table))
                want = [
                    inverse[cells[i][j]](table[i][j])
                    for i in range(4)
                    for j in range(4)
                    if cells[i][j] != ZERO
                ]
                assert [c.estimate.hex() for c in est.per_cell] == [w.hex() for w in want]

    def test_lsq_perturbation_bound(self):
        # symmetric noise of size eps moves the least-squares estimate O(eps)
        import random

        eps = 1e-3
        rng = random.Random(13)
        from nmqem.expdata import ProbTable

        base = predict_table("swap", 0.02)
        noise = [[rng.choice([-1.0, 1.0]) * eps for _ in range(4)] for _ in range(4)]
        noisy = tuple(
            tuple(base[i][j] + noise[i][j] for j in range(4)) for i in range(4)
        )
        est = estimate_re_k(ProbTable("swap", "synthetic", noisy))
        assert abs(est.lsq - 0.02) <= 2 * eps


class TestFitCoupling:
    def test_round_trip(self):
        for coupling in (7e-4, 7e-3, 0.05):
            for u in (0.3, 1.0, 2.0):
                re_k = re_k_approx(coupling, u)
                assert fit_coupling(re_k, u) == pytest.approx(coupling, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_coupling(0.01, 0.0)
        with pytest.raises(ValueError):
            fit_coupling(-0.01, 1.0)

    @pytest.mark.parametrize("re_k, u, message", [
        (math.nan, 1.0, "re_k must be nonnegative"),
        (0.01, math.nan, "u must be positive"),
        (math.nan, math.nan, "u must be positive"),
    ])
    def test_rejects_nan(self, re_k, u, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_coupling(re_k, u)


class TestReferenceRanges:
    def test_known_devices(self):
        assert reference_range("swap", "IonQ") == (6.0e-3, 1.8e-2)
        assert reference_range("swap", "ibm-guadalupe") == (1.5e-2, 5.6e-2)
        assert reference_range("identity", "IBM Guadalupe") == (6.0e-3, 2.8e-2)
        assert reference_range("swap", "mystery-device") is None

    def test_divergences_flagged(self):
        expectations = {
            "table2_ionq_swap.json": ("swap", 1),  # max 0.023 vs 0.018
            "table3_ibm_swap.json": ("swap", 1),  # min 0.016 vs 0.015
            "table5_ionq_identity.json": ("identity", 1),  # min 0.001 vs 0.002
            "table6_ibm_identity.json": ("identity", 1),  # min 0.004 vs 0.006
        }
        for name, (gate, n_flags) in expectations.items():
            ct = load_fixture(name)
            est = estimate_re_k(normalize(ct))
            result = divergence_flags(est, gate, ct.device)
            assert result is not None
            _, flags = result
            assert len(flags) == n_flags, name

    def test_no_reference_returns_none(self):
        pt = prob_table_from_predicted("swap", 0.02)
        est = estimate_re_k(pt)
        assert divergence_flags(est, "swap", "synthetic") is None

    def test_matching_range_has_no_flags(self):
        # boundaries equal to the published values, within tolerance
        pt = prob_table_from_predicted("swap", 0.02)
        est = estimate_re_k(pt)
        fixed = est.__class__(est.per_cell, 6.0e-3, 1.8e-2, est.lsq, est.residual)
        _, flags = divergence_flags(fixed, "swap", "ionq")
        assert flags == []
