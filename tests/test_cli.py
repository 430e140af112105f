import argparse
import json
from importlib.resources import files
from pathlib import Path

import pytest

from nmqem import cli, gamma
from nmqem.channel import AlphaOutOfRange, NmqemError
from nmqem.cli import build_parser, main, run_gamma_check
from nmqem.expdata import DataError, EmptyRun, ParseError, SchemaError
from nmqem.kernel import KernelParams, k_printed, k_quadrature
from nmqem.linalg import CMat
from nmqem.recovery import DenominatorNearZero

FIXTURES = files("nmqem") / "fixtures"
SWAP_IBM = str(FIXTURES / "table3_ibm_swap.json")
ID_IONQ = str(FIXTURES / "table5_ionq_identity.json")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGammaCheck:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(["gamma-check"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 13  # 10 anticommutators + 2 checks + summary

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["gamma-check", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert len(report["checks"]) == 12

    def test_corrupted_basis_fails(self):
        good = gamma.build_gamma_basis()
        matrices = list(good.matrices)
        idx = gamma.BASIS_ORDER.index("g1")
        matrices[idx] = good.matrix("g2")  # duplicate entry breaks the algebra
        bad = gamma.GammaBasis(tuple(matrices), good.metric)
        report = run_gamma_check(bad)
        assert report["all_pass"] is False

    def test_extra_entry_fails_rank_check(self):
        good = gamma.build_gamma_basis()
        matrices = list(good.matrices)
        idx = gamma.BASIS_ORDER.index("g5g1")
        entries = list(matrices[idx].entries)
        entries[entries.index(0)] = 1j  # one extra nonzero entry
        matrices[idx] = CMat(4, 4, entries)
        report = run_gamma_check(gamma.GammaBasis(tuple(matrices), good.metric))
        assert {c["check"]: c["pass"] for c in report["checks"]}["rank16"] is False
        assert report["all_pass"] is False

    def test_row_of_two_nonzeros_fails_g5_check(self):
        # row 1 of g0 gains an entry before its own: a product that kept only
        # a row's last nonzero term would still find g0 g1 g2 g3 = g5
        good = gamma.build_gamma_basis()
        matrices = list(good.matrices)
        idx = gamma.BASIS_ORDER.index("g0")
        entries = list(matrices[idx].entries)
        assert entries[4:8] == [0, 1j, 0, 0]
        entries[4] = 1
        matrices[idx] = CMat(4, 4, entries)
        report = run_gamma_check(gamma.GammaBasis(tuple(matrices), good.metric))
        assert {c["check"]: c["pass"] for c in report["checks"]}["g5_product"] is False
        assert report["all_pass"] is False


class TestKernel:
    def test_default_csv(self, capsys):
        code, out, _ = run_cli(["kernel"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "coupling,u,re_k"
        assert len(lines) == 1 + 2 * 101  # two default couplings, 101 steps
        last = lines[-1].split(",")
        assert last[0] == "0.007"
        assert last[1] == "1"
        assert float(last[2]) == pytest.approx(9.228169203e-3, abs=1e-11)

    def test_ten_significant_digits(self, capsys):
        _, out, _ = run_cli(
            ["kernel", "--coupling", "7e-3", "--steps", "2", "--u-max", "1"], capsys
        )
        value = out.strip().split("\n")[-1].split(",")[2]
        assert value == "0.009228169203"

    def test_printed_mode_with_imag(self, capsys):
        code, out, _ = run_cli(
            [
                "kernel",
                "--mode",
                "printed",
                "--gamma0",
                "1",
                "--wc-ts",
                "10",
                "--delta0",
                "0.5",
                "--steps",
                "2",
                "--u-max",
                "1",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "coupling,u,re_k,im_k"
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(9.93865793811711, abs=1e-7)
        assert float(last[3]) == pytest.approx(0.41708262028906, abs=1e-9)

    def test_quadrature_mode(self, capsys):
        code, out, _ = run_cli(
            [
                "kernel",
                "--mode",
                "quadrature",
                "--gamma0",
                "1",
                "--wc-ts",
                "10",
                "--steps",
                "2",
                "--u-max",
                "1",
            ],
            capsys,
        )
        assert code == 0
        last = out.strip().split("\n")[-1].split(",")
        assert float(last[2]) == pytest.approx(2.3160456292895, abs=1e-8)

    @pytest.mark.parametrize("mode, k", [("printed", k_printed), ("quadrature", k_quadrature)])
    def test_gamma0_passes_through_unchanged(self, mode, k, capsys):
        # (0.1 * 3) / 3 is 0.10000000000000002, which moves Re k at u = 0.5 by
        # an ulp; the coupling column stays gamma0 * wc_ts
        code, out, _ = run_cli(["kernel", "--mode", mode, "--gamma0", "0.1", "--wc-ts", "3",
                                "--steps", "3", "--u-max", "1", "--format", "json"], capsys)
        assert code == 0
        params = KernelParams(0.1, 0.0, 3.0)
        rows = json.loads(out)["rows"]
        assert [row["coupling"].hex() for row in rows] == [(0.1 * 3.0).hex()] * 3
        want = [k(params, u).real.hex() for u in (0.0, 0.5, 1.0)]
        assert [row["re_k"].hex() for row in rows] == want

    @pytest.mark.parametrize("coupling", ["5", "7e-4,7e-3"])  # the second is the default's value
    def test_gamma0_with_coupling_is_a_usage_error(self, coupling, capsys):
        code, out, err = run_cli(["kernel", "--gamma0", "0.001", "--coupling", coupling, "--steps", "2"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == "error: --gamma0 sets the coupling (gamma0 * wc_ts); give it or --coupling, not both\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["kernel", "--format", "json", "--steps", "3", "--coupling", "7e-4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "approx"
        assert len(payload["rows"]) == 3

    def test_bad_steps(self, capsys):
        code, _, err = run_cli(["kernel", "--steps", "1"], capsys)
        assert code == 2
        assert "steps" in err

    def test_negative_coupling(self, capsys):
        code, _, _ = run_cli(["kernel", "--coupling", "-1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", [["kernel"], ["cost", "--gate", "swap"]])
    def test_row_limit_counts_steps_times_couplings(self, command, capsys, monkeypatch):
        # at a lowered limit, a table of exactly MAX_ROWS rows is written and
        # one row more is refused
        monkeypatch.setattr(cli, "MAX_ROWS", 6)
        code, out, _ = run_cli(command + ["--steps", "3"], capsys)  # two default couplings
        assert (code, len(out.splitlines())) == (0, 1 + 6)
        code, out, _ = run_cli(command + ["--coupling", "7e-3", "--steps", "6"], capsys)
        assert (code, len(out.splitlines())) == (0, 1 + 6)
        for argv in (["--steps", "4"], ["--coupling", "7e-3", "--steps", "7"]):
            code, out, err = run_cli(command + argv, capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: --steps ") and "more than 6" in err

    @pytest.mark.parametrize("mode, built", [("approx", 0), ("printed", 2), ("quadrature", 2)])
    def test_one_params_per_curve(self, mode, built, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "KernelParams", lambda **kw: calls.append(kw) or KernelParams(**kw))
        code, out, _ = run_cli(["kernel", "--mode", mode, "--steps", "11"], capsys)
        assert (code, len(out.splitlines()), len(calls)) == (0, 1 + 2 * 11, built)


class TestPrintedCost:
    """cost and decompose look the printed cost up on ``recovery`` per call,
    so that a traced run sees cost_swap and cost_id."""

    @pytest.mark.parametrize("gate, name", [("swap", "cost_swap"), ("identity", "cost_id")])
    @pytest.mark.parametrize("argv", [["cost", "--steps", "3"], ["decompose", "--alpha", "0.05"]])
    def test_looked_up_per_call(self, gate, name, argv, capsys, monkeypatch):
        calls = []
        real = getattr(cli.recovery, name)
        monkeypatch.setattr(cli.recovery, name, lambda alpha: calls.append(alpha) or real(alpha))
        code, _, _ = run_cli(argv + ["--gate", gate], capsys)
        assert code == 0 and calls


class TestCost:
    def test_identity_cost_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "cost",
                "--gate",
                "identity",
                "--coupling",
                "0.05",
                "--steps",
                "2",
                "--u-max",
                "1",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "coupling,u,alpha,cost"
        last = lines[-1].split(",")
        alpha = float(last[2])
        assert float(last[3]) == pytest.approx(1.0 / (1.0 - 4.0 * alpha), rel=1e-9)

    def test_out_of_domain_cell_left_empty(self, capsys):
        code, out, _ = run_cli(
            [
                "cost",
                "--gate",
                "swap",
                "--coupling",
                "0.3",
                "--steps",
                "2",
                "--u-max",
                "1",
            ],
            capsys,
        )
        assert code == 0
        last = out.strip().split("\n")[-1]
        assert last.endswith(",")  # cost column empty beyond alpha = 1/4

    def test_out_of_domain_json_flag(self, capsys):
        code, out, _ = run_cli(
            [
                "cost",
                "--gate",
                "swap",
                "--coupling",
                "0.3",
                "--steps",
                "2",
                "--u-max",
                "1",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["in_domain"] is True
        assert payload["rows"][-1]["in_domain"] is False
        assert payload["rows"][-1]["cost"] is None

    # u = 1 rows at alpha = 0.2499999999, inside the determinant guard below
    # 1/4, and at alpha = 0.250000025, past 1/4
    @pytest.mark.parametrize("coupling", ["0.18963674817283932", "0.18963676721236886"])
    @pytest.mark.parametrize("gate", ["swap", "identity"])
    def test_row_at_the_singularity_is_flagged(self, gate, coupling, capsys):
        argv = ["cost", "--gate", gate, "--coupling", coupling, "--u-max", "1", "--steps", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].endswith(",")
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert (code, err) == (0, "")
        row = json.loads(out)["rows"][-1]
        assert row["alpha"] >= 0.2499999999
        assert row["cost"] is None and row["in_domain"] is False


class TestZeroCoupling:
    """At zero coupling alpha and Re k are exactly 0 at every u, also where
    u * u overflows; a positive coupling there still overflows."""

    def test_cost_is_one(self, capsys):
        code, out, err = run_cli(
            ["cost", "--gate", "swap", "--coupling", "0", "--u-max", "1e200", "--steps", "2"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.split("\n")[1:] == ["0,0,0,1", "0,1e+200,0,1", ""]

    def test_kernel_re_k_is_zero(self, capsys):
        code, out, err = run_cli(
            ["kernel", "--coupling", "0", "--u-max", "1e200", "--steps", "2"], capsys
        )
        assert (code, err) == (0, "")
        assert out.split("\n")[1:] == ["0,0,0", "0,1e+200,0", ""]

    def test_negative_zero_coupling_prints_as_zero(self, capsys):
        code, out, err = run_cli(["kernel", "--coupling", "-0", "--steps", "2"], capsys)
        assert (code, err) == (0, "")
        assert out == "coupling,u,re_k\n0,0,0\n0,1,0\n"

    @pytest.mark.parametrize("command", [["cost", "--gate", "swap"], ["kernel"]])
    def test_positive_coupling_still_overflows(self, command, capsys):
        argv = command + ["--coupling", "1e-3", "--u-max", "1e200", "--steps", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestPredict:
    def test_csv_cells(self, capsys):
        code, out, _ = run_cli(
            ["predict", "--gate", "swap", "--alpha", "0.02", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "output,in_m1,in_m2,in_m3,in_m4"
        first = lines[1].split(",")
        assert first[0] == "00"
        assert float(first[1]) == pytest.approx(0.96)
        assert float(first[3]) == pytest.approx(0.0, abs=1e-14)

    def test_json_columns(self, capsys):
        code, out, _ = run_cli(
            ["predict", "--gate", "identity", "--alpha", "0.05", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"]["01"]["01"] == pytest.approx(0.9)
        assert payload["columns"]["01"]["10"] == pytest.approx(0.0, abs=1e-12)

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(
            ["predict", "--gate", "swap", "--alpha", "0.4"], capsys
        )
        assert code == 2
        assert "alpha" in err


class TestEstimate:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(["estimate", "--counts", SWAP_IBM], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["gate"] == "swap"
        assert report["min"] == pytest.approx(0.016, abs=1e-12)
        assert report["max"] == pytest.approx(0.056, abs=1e-12)
        assert report["reference_range"] == [1.5e-2, 5.6e-2]
        assert len(report["divergence"]) == 1
        assert "lsq_note" in report
        assert report["coupling_at_u1"] == pytest.approx(
            report["lsq"] / (1 + 1 / 3.141592653589793), rel=1e-9
        )

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--counts", ID_IONQ, "--format", "table"], capsys
        )
        assert code == 0
        assert "max:      0.024" in out
        assert "divergence" in out

    def test_gate_flag_agreement(self, capsys):
        code, _, err = run_cli(
            ["estimate", "--counts", SWAP_IBM, "--gate", "identity"], capsys
        )
        assert code == 3
        assert "disagrees" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(["estimate", "--counts", "/no/such/file.json"], capsys)
        assert code == 3

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(["estimate", "--counts", str(bad)], capsys)
        assert code == 3

    def test_huge_integer_probability_is_a_data_error(self, capsys, tmp_path):
        # json reads a 401-digit literal as an int, which no float holds
        path = tmp_path / "huge.json"
        path.write_text(_probs_document(10 ** 400))
        code, out, err = run_cli(["estimate", "--counts", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == "error: run 'm1': probability for 01 must be a finite nonnegative number\n"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(["estimate", "--counts", SWAP_IBM], capsys)
        _, second, _ = run_cli(["estimate", "--counts", SWAP_IBM], capsys)
        assert first == second

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_rounding_never_makes_lsq_negative(self, fmt, capsys, tmp_path):
        # in floats num rounds to -5.55e-18 on this table; exactly it is >= 0
        runs = {"m1": {"00": 100}, "m2": {"10": 100}, "m3": {"11": 100},
                "m4": {"01": 7, "10": 93}}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "gate": "swap", "device": "test", "shots": 100,
            "runs": [{"input": k, "counts": v} for k, v in runs.items()],
        }))
        code, out, err = run_cli(["estimate", "--counts", str(path), "--format", fmt], capsys)
        assert code == 0 and err == ""
        assert "None" not in out and "null" not in out
        if fmt == "csv":
            row = dict(zip(*(line.split(",") for line in out.splitlines())))
            lsq, coupling = float(row["lsq"]), float(row["coupling_at_u1"])
        elif fmt == "json":
            report = json.loads(out)
            lsq, coupling = report["lsq"], report["coupling_at_u1"]
        else:
            fields = dict(line.split(":", 1) for line in out.splitlines()[:7])
            lsq = float(fields["lsq"].split()[0])
            coupling = float(fields["coupling at u=1"])
        assert lsq >= 0 and coupling >= 0


class TestDecompose:
    def test_identity_json(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--gate", "identity", "--alpha", "0.05", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["cost_from_decomposition"] == pytest.approx(1.25, abs=1e-9)
        assert report["cost_closed_form"] == pytest.approx(1.25, abs=1e-9)
        assert report["reconstruction_residual"] < 1e-10
        assert "note" not in report
        assert report["gamma_coefficients"]["I"][0] == pytest.approx(
            1.1180555556, abs=1e-9
        )

    def test_swap_reports_both_costs(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--gate", "swap", "--alpha", "0.05", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["cost_from_decomposition"] == pytest.approx(1.375, abs=1e-9)
        assert report["cost_closed_form"] == pytest.approx(1.3819444444, abs=1e-9)
        assert "note" in report

    @pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
    @pytest.mark.parametrize("gate, alpha, noted", [
        ("swap", "0.05", True),
        ("swap", "0.24995", True),
        # equal in exact arithmetic; about 8.3e7 each, a last-ulp apart
        ("identity", "0.249999997", False),
    ])
    def test_note_only_where_the_costs_differ(self, gate, alpha, noted, capsys):
        code, out, _ = run_cli(["decompose", "--gate", gate, "--alpha", alpha], capsys)
        assert code == 0
        assert ("note: decomposition cost differs" in out) is noted

    def test_alpha_out_of_domain(self, capsys):
        code, _, _ = run_cli(["decompose", "--gate", "swap", "--alpha", "0.3"], capsys)
        assert code == 2

    def test_near_singular_warning_is_one_stderr_line(self, capsys, tmp_path):
        argv = ["decompose", "--gate", "identity", "--alpha", "0.24995"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert out.startswith("gate: identity")
        want = "warning: channel nearly singular at alpha=0.24995; inverse is ill-conditioned\n"
        assert err == want
        target = tmp_path / "decompose.txt"
        code, out_with_file, err_with_file = run_cli(argv + ["--out", str(target)], capsys)
        assert (code, out_with_file, err_with_file) == (0, "", want)
        assert target.read_text() == out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run_cli([], capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["predict", "--gate", "swap", "--alpha", "0.02", "--format", "csv",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("output,in_m1")


def _probs_document(value):
    runs = [
        {"input": label, "probs": {"00": 1.0, "01": 0.0, "10": 0.0, "11": 0.0}}
        for label in ("m1", "m2", "m3", "m4")
    ]
    runs[0]["probs"]["01"] = value
    return json.dumps({"gate": "swap", "device": "x", "shots": 1000, "runs": runs})


# The documents that BOUNDARY_CASES read from "{tmp}", by file name: a NaN and
# a boolean probability; arrays nested deeper than the parser recurses, and
# shots written as an integer literal of 5,001 digits, more than Python reads.
CASE_FILES = {
    "nan_probs.json": _probs_document(float("nan")),
    "bool_probs.json": _probs_document(False),
    "deep.json": "[" * 200_000,
    "long_shots.json": _probs_document(0.0).replace('"shots": 1000', '"shots": ' + "1" * 5001),
}


def write_case_files(directory):
    for name, text in CASE_FILES.items():
        Path(directory, name).write_text(text)


# Each invalid argv with its documented exit code: 2 usage error, 3 data error.
BOUNDARY_CASES = {
    "decompose-near-quarter": (
        ["decompose", "--gate", "swap", "--alpha", "0.2499999999", "--format", "json"], 2),
    "kernel-wc-ts-zero": (["kernel", "--mode", "printed", "--wc-ts", "0"], 2),
    "kernel-wc-ts-negative": (["kernel", "--mode", "printed", "--wc-ts", "-1"], 2),
    # two errors: kernel's own flags are checked before the u grid
    "kernel-wc-ts-and-u-max-zero": (["kernel", "--wc-ts", "0", "--u-max", "0"], 2),
    "kernel-u-max-nan": (["kernel", "--u-max", "nan"], 2),
    "kernel-quadrature-u-max-nan": (["kernel", "--mode", "quadrature", "--u-max", "nan"], 2),
    "cost-out-missing-dir": (["cost", "--gate", "swap", "--out", "{tmp}/missing/x.csv"], 3),
    "estimate-nan-probs": (["estimate", "--counts", "{tmp}/nan_probs.json"], 3),
    "estimate-bool-probs": (["estimate", "--counts", "{tmp}/bool_probs.json"], 3),
    "estimate-deep-nesting": (["estimate", "--counts", "{tmp}/deep.json"], 3),
    "estimate-long-shots": (["estimate", "--counts", "{tmp}/long_shots.json"], 3),
    "kernel-printed-gamma0-overflow": (["kernel", "--mode", "printed", "--gamma0", "1e308"], 2),
    "kernel-printed-coupling-overflow": (
        ["kernel", "--mode", "printed", "--coupling", "1e308", "--wc-ts", "1e-308"], 2),
    "kernel-approx-gamma0-overflow": (["kernel", "--gamma0", "1e308"], 2),
    # --gamma0 sets the one coupling, so a --coupling beside it is refused
    "kernel-gamma0-with-coupling": (["kernel", "--gamma0", "0.001", "--coupling", "5", "--steps", "2"], 2),
    # finite gamma0 and coupling whose Re k overflows
    "kernel-quadrature-re-k-overflow": (
        ["kernel", "--mode", "quadrature", "--gamma0", "1e307", "--steps", "3"], 2),
    "kernel-approx-re-k-overflow": (
        ["kernel", "--gamma0", "1e306", "--u-max", "1e3", "--steps", "3"], 2),
    # finite Re k and an Im k that overflows, in the fourth column alone
    "kernel-printed-im-k-overflow": (
        ["kernel", "--mode", "printed", "--gamma0", "1e-3", "--delta0", "1e308", "--wc-ts", "1e-3",
         "--u-max", "1000", "--steps", "2"], 2),
    # alpha overflows (out of domain, so the cost cell alone would be empty)
    "cost-alpha-overflow": (
        ["cost", "--gate", "swap", "--coupling", "1e308", "--u-max", "1e10", "--steps", "2"], 2),
    # finite wc_ts and u whose product, the sine integral's argument, overflows
    "kernel-printed-wc-ts-u-overflow": (
        ["kernel", "--mode", "printed", "--wc-ts", "1e308", "--u-max", "10", "--steps", "2"], 2),
    # a table of more than cli.MAX_ROWS (10^6) rows, steps times the couplings,
    # refused before any row is built: one row over, and an unbounded --steps
    "kernel-steps-over-row-limit": (["kernel", "--coupling", "7e-3", "--steps", "1000001"], 2),
    "cost-steps-over-row-limit": (["cost", "--gate", "swap", "--steps", "500001"], 2),
    "kernel-steps-unbounded": (["kernel", "--steps", "10000000000"], 2),
    "cost-steps-unbounded": (["cost", "--gate", "identity", "--steps", "10000000000"], 2),
}


class TestBoundary:
    @pytest.mark.filterwarnings("ignore:channel nearly singular:RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(BOUNDARY_CASES))
    def test_invalid_argv_exits_cleanly(self, kind, capsys, tmp_path):
        write_case_files(tmp_path)
        template, expected = BOUNDARY_CASES[kind]
        argv = [arg.format(tmp=tmp_path) for arg in template]
        runs = [(argv, argv[argv.index("--out") + 1] if "--out" in argv else None)]
        if "--out" not in argv:
            target = str(tmp_path / "out.txt")
            runs.append((argv + ["--out", target], target))
        for args, target in runs:
            code, out, err = run_cli(args, capsys)
            assert code == expected
            assert out == ""
            assert err.startswith("error: ")
            if target is not None:
                assert not (tmp_path / target).exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--u-max", "inf"],
            ["kernel", "--coupling", "nan"],
            ["kernel", "--mode", "printed", "--wc-ts", "inf"],
            ["kernel", "--mode", "printed", "--delta0", "-0.5"],
            ["kernel", "--mode", "printed", "--gamma0", "nan"],
            ["cost", "--gate", "identity", "--u-max", "nan"],
        ],
    )
    def test_non_finite_and_negative_parameters_are_usage_errors(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 2
        assert out == ""


class TestNegativeNumbers:
    """A negative number in exponent form or an infinity is an option's
    value, as in its "=" form, not an unknown option."""

    @pytest.mark.parametrize(
        "command, option, value",
        [
            (["predict", "--gate", "swap"], "--alpha", "-1e-3"),
            (["kernel"], "--u-max", "-inf"),
            (["kernel"], "--coupling", "-1e-3"),
            (["predict", "--gate", "swap"], "--alpha", "-0.001"),
        ],
    )
    def test_same_error_as_joined_form(self, command, option, value, capsys):
        spaced = run_cli(command + [option, value], capsys)
        joined = run_cli(command + [f"{option}={value}"], capsys)
        assert spaced == joined
        code, out, err = spaced
        assert (code, out) == (2, "")
        assert "error: " in err.splitlines()[-1]

    def test_negative_counts_path_is_a_missing_file(self, capsys):
        code, out, err = run_cli(["estimate", "--counts", "-1e3"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: [Errno 2] No such file or directory: '-1e3'\n"

    def test_help_is_not_joined(self, capsys):
        code, out, _ = run_cli(["predict", "--help", "-1"], capsys)
        assert code == 0
        assert out.startswith("usage: nmqem predict")

    def test_nothing_after_double_dash_is_joined(self, capsys):
        # argparse reads every token after "--" as a positional, so the error
        # names them as typed, as the top-level parser does
        argv = ["predict", "--gate", "swap", "--alpha", "0.02", "--", "--alpha", "-1"]
        code, out, err = run_cli(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert (code, out, err) == (exc.value.code, "", capsys.readouterr().err)
        assert err.endswith("error: unrecognized arguments: -- --alpha -1\n")


@pytest.mark.parametrize("argv", [["predict", "--gate", "cnot", "--alpha", "0.02"], ["predict", "--help"]])
def test_usage_and_help_ignore_the_terminal_width(argv, capsys, monkeypatch):
    outputs = []
    for columns in (None, "50", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        outputs.append(run_cli(argv, capsys))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestParserReuse:
    SEQUENCE = [
        ["kernel", "--gamma0", "1", "--wc-ts", "10", "--mode", "printed"],
        ["fit", "--alpha", "0.02"],
        ["kernel"],
        ["cost", "--gate", "swap"],
        ["estimate", "--counts", SWAP_IBM],
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        build_parser.cache_clear()
        reused = [run_cli(argv, capsys) for argv in self.SEQUENCE]
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0]
        assert reused == fresh


class ReachedArgparse(Exception):
    pass


class TestOptionTable:
    """Well-formed argv is read off the option table; argparse reads only the
    help, usage errors and abbreviations."""

    @pytest.fixture
    def no_argparse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise ReachedArgparse

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)

    def test_golden_argv_that_succeed_never_reach_argparse(self, no_argparse, tmp_path):
        from golden import regen  # here, not at the top: regen imports this module

        regen.write_case_files(str(tmp_path))
        cases = [case for case in regen.load_cli(regen.CLI_PATH.read_text()).values()
                 if case["exit"] == 0 and "--help" not in case["argv"]]  # argparse prints the help
        assert len(cases) > 50
        for case in cases:
            assert regen.run_case(case["argv"], str(tmp_path)) == case

    @pytest.mark.parametrize("argv", [["predict", "--gate", "swap", "--alph", "0.02"],
                                      ["predict", "--gate", "swap", "--alpha", "0.02", "-h"]])
    def test_abbreviation_and_help_reach_argparse(self, no_argparse, argv):
        with pytest.raises(ReachedArgparse):
            main(argv)


class TestErrorHierarchy:
    def test_classes(self):
        data = (ParseError, SchemaError, EmptyRun)
        for cls in (AlphaOutOfRange, DenominatorNearZero) + data:
            assert issubclass(cls, NmqemError) and issubclass(cls, ValueError)
            assert issubclass(cls, DataError) is (cls in data)
        assert issubclass(DenominatorNearZero, ArithmeticError)

    def test_stray_overflow_is_not_a_usage_error(self, monkeypatch):
        # only an NmqemError or an OSError is reported with an exit code
        def overflow(*args):
            raise OverflowError("stray")

        monkeypatch.setattr(cli, "predict_table", overflow)
        with pytest.raises(OverflowError, match="stray"):
            main(["predict", "--gate", "swap", "--alpha", "0.02"])
