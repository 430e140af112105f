"""Acceptance gate: one test per contract criterion, each printing a single
PASS/FAIL line (run with -s or look at captured stdout).

Criterion 7 pins the quadratic kernel approximation at coupling 7e-3, u = 1
to the value of its defining formula (2/pi) * c * (pi/2 * u + u^2 / 2), which
is 7e-3 * (1 + 1/pi) = 9.2281692032865347e-3 (mpmath, 40 digits). The
criterion once stated this as the literal 9.2275e-3, a transcription of that
value that no reading of the formula reaches within its +-1e-7 tolerance; the
check now uses the formula's value at the same tolerance.
"""

import math
import random
from importlib.resources import files

import pytest

from nmqem import cli, expdata, gamma, kernel, recovery
from nmqem.channel import population_channel, predict_table
from nmqem.linalg import CMat, det, identity, mat_mul

FIXTURES = files("nmqem") / "fixtures"


def _finish(num, title, failures):
    status = "FAIL" if failures else "PASS"
    detail = f"  [{'; '.join(failures)}]" if failures else ""
    print(f"[acceptance {num:02d}] {status}  {title}{detail}")
    assert not failures, f"criterion {num}: {failures}"


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_01_clifford_algebra():
    failures = []
    basis = gamma.build_gamma_basis()
    for mu in range(4):
        for nu in range(4):
            ac = gamma.anticommutator(basis, mu, nu)
            g = basis.metric[mu] if mu == nu else 0
            expected = identity(4).scaled(2 * g)
            _check(
                failures,
                ac.entries == expected.entries,
                f"anticommutator ({mu},{nu}) not exactly 2*g*I",
            )
    try:
        c = gamma.decompose(basis, basis.matrix("g5"))
        _check(
            failures,
            abs(c.coeffs["g5"] - 1.0) < 1e-12
            and all(abs(c.coeffs[l]) < 1e-12 for l in gamma.BASIS_ORDER if l != "g5"),
            "16x16 flatten system is not rank 16",
        )
    except Exception as exc:  # singular system means rank deficiency
        failures.append(f"decomposition failed: {exc}")
    product = basis.matrix("g0")
    for mu in (1, 2, 3):
        product = mat_mul(product, basis.generator(mu))
    _check(
        failures,
        product.entries == basis.matrix("g5").entries,
        "generator product differs from stored g5",
    )
    _finish(1, "Clifford algebra holds exactly", failures)


def test_criterion_02_m_tensor():
    failures = []
    from nmqem.channel import computational_basis, m_tensor, multiplet_basis

    mt_m = m_tensor(multiplet_basis())
    _check(failures, mt_m.at(2, 1, 1, 2) == 0.5, "M_2112 != 1/2 exactly")
    for name, mt in (("multiplet", mt_m), ("computational", m_tensor(computational_basis()))):
        for a in range(1, 5):
            for c in range(1, 5):
                expected = 1.5 if a == c else 0.0
                _check(
                    failures,
                    abs(mt.diag_sum(a, c) - expected) <= 1e-12,
                    f"sum rule broken at ({a},{c}) in {name} basis",
                )
    _finish(2, "M-tensor spot value and sum rule", failures)


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


def test_criterion_03_channel_fidelity():
    failures = []
    for gate, symbolic in (("swap", SWAP_CHANNEL), ("identity", ID_CHANNEL)):
        for alpha in (0.01, 0.05, 0.1):
            ch = population_channel(gate, alpha)
            for i in range(4):
                for j in range(4):
                    a, b = symbolic[i][j]
                    _check(
                        failures,
                        abs(ch.matrix[i][j] - (a + b * alpha)) <= 1e-14,
                        f"{gate} cell ({i},{j}) off at alpha={alpha}",
                    )
            for j in range(4):
                _check(
                    failures,
                    abs(sum(ch.column(j)) - 1.0) <= 1e-12,
                    f"{gate} column {j} does not sum to 1",
                )
    for alpha in [k * 0.03 for k in range(11)]:  # 0 .. 0.3
        d_swap = det(population_channel("swap", alpha).to_cmat())
        d_id = det(population_channel("identity", alpha).to_cmat())
        _check(
            failures,
            abs(d_swap - (1 - 2 * alpha) * (1 - 4 * alpha) ** 2) <= 1e-12,
            f"swap determinant identity fails at alpha={alpha}",
        )
        _check(
            failures,
            abs(d_id - (1 - 2 * alpha) ** 2 * (1 - 4 * alpha)) <= 1e-12,
            f"identity determinant identity fails at alpha={alpha}",
        )
    _finish(3, "channel matrices, column sums, determinant identities", failures)


SWAP_TABLE = (
    ((1, -2), (0, 1), (0, 0), (0, 1)),
    ((0, 1), (0.5, -1), (0, 1), (0.5, -1)),
    ((0, 1), (0.5, -1), (0, 1), (0.5, -1)),
    ((0, 0), (0, 1), (1, -2), (0, 1)),
)


def test_criterion_04_prediction_tables():
    failures = []
    for alpha in (0.0, 0.02, 0.1):
        table = predict_table("swap", alpha)
        for i in range(4):
            for j in range(4):
                a, b = SWAP_TABLE[i][j]
                _check(
                    failures,
                    abs(table[i][j] - (a + b * alpha)) <= 1e-14,
                    f"swap table cell ({i},{j}) off at alpha={alpha}",
                )
        table = predict_table("identity", alpha)
        for i in range(4):
            for j in range(4):
                a, b = ID_CHANNEL[i][j]
                _check(
                    failures,
                    abs(table[i][j] - (a + b * alpha)) <= 1e-14,
                    f"identity table cell ({i},{j}) off at alpha={alpha}",
                )
        for gate in ("swap", "identity"):
            t = predict_table(gate, alpha)
            for j in range(4):
                _check(
                    failures,
                    abs(sum(t[i][j] for i in range(4)) - 1.0) <= 1e-12,
                    f"{gate} table column {j} does not sum to 1",
                )
    _finish(4, "prediction tables match the symbolic cells", failures)


def test_criterion_05_recovery():
    failures = []
    for alpha in [k * 0.01 for k in range(25)]:
        for gate, closed in (
            ("swap", recovery.swap_recovery_matrix),
            ("identity", recovery.id_recovery_matrix),
        ):
            ch = population_channel(gate, alpha)
            numeric = recovery.recovery_numeric(ch)
            _check(
                failures,
                numeric.isclose(closed(alpha), 1e-10),
                f"{gate} closed form != numeric inverse at alpha={alpha:.2f}",
            )
            _check(
                failures,
                mat_mul(numeric, ch.to_cmat()).isclose(identity(4), 1e-10),
                f"{gate} R*V != I at alpha={alpha:.2f}",
            )
    _finish(5, "closed-form recovery equals the numeric inverse", failures)


def test_criterion_06_cost_identities():
    failures = []
    for alpha in [k * 0.01 for k in range(25)]:
        _check(
            failures,
            abs(recovery.cost_id(alpha) - 1.0 / (1.0 - 4.0 * alpha)) <= 1e-12,
            f"cost_id != 1/(1-4a) at alpha={alpha:.2f}",
        )
    _check(failures, recovery.cost_swap(0.0) == pytest.approx(1.0, abs=1e-14), "cost_swap(0) != 1")
    _check(failures, recovery.cost_id(0.0) == pytest.approx(1.0, abs=1e-14), "cost_id(0) != 1")
    grid = [k * 0.01 for k in range(21)]  # 0 .. 0.2
    for cost, name in ((recovery.cost_swap, "cost_swap"), (recovery.cost_id, "cost_id")):
        values = [cost(a) for a in grid]
        _check(
            failures,
            all(b > a for a, b in zip(values, values[1:])),
            f"{name} not strictly increasing on (0, 0.2]",
        )
    _check(
        failures,
        abs(recovery.cost_swap(0.05) - 1.381944) <= 1e-6,
        "cost_swap(0.05) != 1.381944 +- 1e-6",
    )
    for alpha in (0.0, 0.02, 0.05, 0.1, 0.2):
        op = recovery.recovery_op("identity", alpha)
        _check(
            failures,
            abs(recovery.cost_from_decomposition(op) - recovery.cost_id(alpha)) <= 1e-10,
            f"identity decomposition cost != cost_id at alpha={alpha}",
        )
    _finish(6, "cost identities", failures)


def test_criterion_07_kernel():
    failures = []
    _check(
        failures,
        abs(kernel.si_shifted(1.0) - (-0.6247132564)) <= 1e-9,
        "si_shifted(1) != -0.6247132564 +- 1e-9",
    )
    p = kernel.KernelParams(1.0, 0.5, 10.0)
    _check(failures, kernel.re_k_approx(7e-3, 0.0) == 0.0, "re_k_approx(_, 0) != 0")
    _check(failures, kernel.k_printed(p, 0.0) == 0.0, "k_printed(0) != 0")
    _check(failures, kernel.k_quadrature(p, 0.0) == 0.0, "k_quadrature(0) != 0")
    for evaluator in (kernel.k_printed, kernel.k_quadrature):
        one = evaluator(kernel.KernelParams(1.0, 0.0, 10.0), 0.8).real
        three = evaluator(kernel.KernelParams(3.0, 0.0, 10.0), 0.8).real
        _check(
            failures,
            abs(three - 3.0 * one) <= 1e-12 * max(1.0, abs(three)),
            f"{evaluator.__name__} real part not linear in gamma0",
        )
    for u in (0.002, 0.005, 0.01):  # wc' u <= 0.1 at wc' = 10
        got = kernel.k_quadrature(kernel.KernelParams(1.0, 0.0, 10.0), u).real
        expected = 0.25 * math.pi * 10.0 * u * u
        _check(
            failures,
            abs(got - expected) <= 0.01 * expected,
            f"small-time quadrature off by >1% at u={u}",
        )
    # (2/pi) * c * (pi/2 * u + u^2/2) at c = 7e-3, u = 1 is 7e-3 * (1 + 1/pi)
    # = 9.2281692032865347e-3 (mpmath). The criterion's former literal
    # 9.2275e-3 was a transcription of this value.
    _check(
        failures,
        abs(kernel.re_k_approx(7e-3, 1.0) - 7e-3 * (1 + 1 / math.pi)) <= 1e-7,
        "re_k_approx(7e-3, 1) != 7e-3 * (1 + 1/pi) = 9.228169e-3 +- 1e-7",
    )
    _finish(7, "kernel evaluators", failures)


def test_criterion_08_estimation_vs_published_tables():
    failures = []
    expectations = [
        ("table3_ibm_swap.json", "swap", "max", 0.056),
        ("table5_ionq_identity.json", "identity", "max", 0.024),
        ("table6_ibm_identity.json", "identity", "max", 0.028),
        ("table2_ionq_swap.json", "swap", "min", 0.006),
    ]
    for name, gate, field, value in expectations:
        ct = expdata.load_counts((FIXTURES / name).read_text())
        est = expdata.estimate_re_k(expdata.normalize(ct))
        got = getattr(est, field)
        _check(
            failures,
            abs(got - value) <= 1e-12,
            f"{name}: {field} = {got}, expected {value}",
        )
        # every bound that differs from the published range must be flagged;
        # a silent mismatch fails, a flagged divergence passes
        ref = expdata.divergence_flags(est, gate, ct.device)
        _check(failures, ref is not None, f"{name}: no reference range found")
        if ref is None:
            continue
        (lo, hi), flags = ref
        tol = 5e-4
        expected_flags = int(abs(est.min - lo) > tol) + int(abs(est.max - hi) > tol)
        _check(
            failures,
            len(flags) == expected_flags,
            f"{name}: {expected_flags} divergences expected, {len(flags)} flagged",
        )
    _finish(8, "estimation arithmetic matches the published bounds or flags", failures)


def test_criterion_09_round_trips():
    failures = []
    for gate in ("swap", "identity"):
        for alpha in (0.005, 0.01, 0.02, 0.05):
            pt = expdata.ProbTable(gate, "synthetic", predict_table(gate, alpha))
            est = expdata.estimate_re_k(pt)
            for field in ("min", "max", "lsq"):
                _check(
                    failures,
                    abs(getattr(est, field) - alpha) <= 1e-12,
                    f"{gate} {field} round trip off at alpha={alpha}",
                )
    for coupling in (7e-4, 7e-3, 0.05):
        for u in (0.5, 1.0):
            back = expdata.fit_coupling(kernel.re_k_approx(coupling, u), u)
            _check(
                failures,
                abs(back - coupling) <= 1e-12 * max(1.0, coupling),
                f"fit_coupling round trip off at coupling={coupling}, u={u}",
            )
    basis = gamma.build_gamma_basis()
    rng = random.Random(2024)
    for trial in range(100):
        m = CMat(
            4,
            4,
            tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)
            ),
        )
        c = gamma.decompose(basis, m)
        _check(
            failures,
            gamma.reconstruct(basis, c).isclose(m, 1e-12),
            f"decompose/reconstruct round trip failed on trial {trial}",
        )
    _finish(9, "round trips", failures)


def test_criterion_10_figure_data(capsys):
    failures = []
    for gate in ("swap", "identity"):
        code = cli.main(
            ["cost", "--gate", gate, "--coupling", "7e-4,7e-3", "--steps", "51"]
        )
        out = capsys.readouterr().out
        _check(failures, code == 0, f"cost command failed for {gate}")
        curves = {}
        for line in out.strip().split("\n")[1:]:
            coupling, u, _alpha, cost = line.split(",")
            curves.setdefault(float(coupling), []).append((float(u), float(cost)))
        for coupling, points in curves.items():
            _check(
                failures,
                points[0][1] == pytest.approx(1.0, abs=1e-12),
                f"{gate} cost(u=0) != 1 at coupling {coupling}",
            )
            costs = [c for _, c in points]
            _check(
                failures,
                all(b >= a for a, b in zip(costs, costs[1:])),
                f"{gate} cost not monotone in u at coupling {coupling}",
            )
        weak = [c for _, c in sorted(curves[7e-4])]
        strong = [c for _, c in sorted(curves[7e-3])]
        _check(
            failures,
            all(s >= w for s, w in zip(strong[1:], weak[1:])),
            f"{gate} curves not ordered by coupling",
        )
    _finish(10, "figure-ready cost curves", failures)
