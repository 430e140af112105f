"""Seeded inputs for the three benchmark workloads.

Every workload is a closed loop with one caller.  Its ops come in rounds; a
round always holds the same mix of op kinds, and the seed only changes the
values drawn inside each kind.  The timed loop stops at a round boundary, so
two runs with different seeds measure the same mix.

Why each workload exists (BENCHMARK.json's `why` fields say it in one line):

* forward -- the forward half of the pipeline (population channel, recovery
  operator, Gamma expansion, cost) for one (gate, alpha) per op.  Every alpha
  is distinct, so only per-gate constants can be reused.  channel, recovery,
  gamma and the linalg LU do almost all of the work; kernel does none.
* kernel -- one k_printed or k_quadrature point per op, on both sides of
  si_standard's series/auxiliary switch at wc_ts * u = 4.  kernel and
  linalg.integrate do all of the work; channel does none, so a channel change
  should leave this workload unchanged except possibly setup_s.
* cli -- one in-process nmqem.cli.main(argv) call per op over all six
  subcommands at the README arguments, plus a small share of invalid argv.
  channel is reached only at a few repeated alpha (0.02, 0.05 and
  classify_cells' probes at 0 and 0.1), unlike forward's sweep, so a per-alpha
  memo shows here and not there.  It is also the only workload that runs cli,
  expdata and file I/O.

This module does not import nmqem: the generated ops are plain data, so the
set-up child can time its own import of the package.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("forward", "kernel", "cli")

GATES = ("swap", "identity")
FORMATS = ("csv", "json", "table")

# Workspace for the cli workload, relative to the checkout root (the
# benchmark runs from there), so the same seed gives the same argv.
CLI_TMP = "perfbench/out/tmp"
FIXTURES = "src/nmqem/fixtures"
FIXTURE_NAMES = (
    "table2_ionq_swap",
    "table3_ibm_swap",
    "table5_ionq_identity",
    "table6_ibm_identity",
    "synthetic_swap",
    "synthetic_identity",
)
RESAMPLES_PER_FIXTURE = 4
SHOTS = 1000


def rng_for(workload: str, seed: int, stream: str = "ops") -> random.Random:
    return random.Random(f"nmqem-perfbench/{workload}/{stream}/{seed}")


def _dyadic(x: float) -> float:
    # alpha on a 2**-32 grid is exact in binary, which keeps the exact
    # rational oracle cheap without changing the distribution.
    return math.floor(x * 2**32) / 2**32


# ---------------------------------------------------------------- forward

# recovery_numeric warns once det(channel) < 1e-4: above alpha ~ 0.2465 for
# SWAP and ~ 0.2499 for Identity.  Each slice stops short of the point where
# the closed form refuses (SWAP, alpha > 0.249988) or the LU refuses
# (Identity, 1 - 4 alpha < 3e-10), so no forward op fails.
_UNIFORM_TOP = 0.2466
_NEAR_QUARTER = {"swap": (0.2466, 0.2499), "identity": (0.24991, 0.249995)}


def forward_rounds(seed: int):
    """Rounds of 8 ops: per gate, one alpha in each third of [0, 0.2466)
    and one in the near-1/4 slice.  No alpha repeats within a run."""
    rng = rng_for("forward", seed)
    seen = set()
    while True:
        ops = []
        for gate in GATES:
            strata = [(_UNIFORM_TOP * i / 3, _UNIFORM_TOP * (i + 1) / 3) for i in range(3)]
            for lo, hi in strata + [_NEAR_QUARTER[gate]]:
                alpha = _dyadic(rng.uniform(lo, hi))
                while alpha in seen or not lo <= alpha < hi:
                    alpha = _dyadic(rng.uniform(lo, hi))
                seen.add(alpha)
                ops.append({"gate": gate, "alpha": alpha})
        rng.shuffle(ops)
        yield ops


# ----------------------------------------------------------------- kernel

_U_STRATA = 10
_README_PARAMS = {"gamma0": 1.0, "delta0": 0.5}

# Inputs at which k_quadrature misses its requested 1e-10 absolute tolerance
# at the commit that added this benchmark: Im k by 1.3e-9 (wc_ts * u in about
# [2.50873, 2.50897] misses for any wc_ts near 10) and Re k by 1.2e-10.  Every
# round holds both, so the defect counts in every run; the oracle names them
# in oracle.KERNEL_MISS_SIGNATURES.
KERNEL_DEFECT_OPS = (
    {"mode": "quadrature", "gamma0": 1.0, "delta0": 0.5, "wc_ts": 10.45, "u": 0.24008},
    {"mode": "quadrature", "gamma0": 6.7e-5, "delta0": 0.5, "wc_ts": 10.75, "u": 0.964},
)


def kernel_rounds(seed: int):
    """Rounds of 25 ops: per mode, one u in each tenth of (0, 1], plus a
    second printed point in the first tenth, two more quadrature points
    near u = 0.45 and the two KERNEL_DEFECT_OPS.

    Per-op cost runs from 0.1 ms to 2 s and rises steeply with u, so u is
    drawn within +-0.01 of each tenth's midpoint and wc_ts within 1% of 10:
    a round then costs about the same for every seed, and the median and
    tail latencies fall on the same kinds of op.  The midpoints 0.35 and
    0.45 put wc_ts * u on either side of si_standard's switch at 4.  Even
    tenths use the README's gamma0 = 1, odd ones a coupling gamma0 * wc_ts
    drawn log-uniformly from [7e-4, 7e-3]; delta0 = 0.5 throughout.  The
    five extra ops make eleven ops cheaper and eleven dearer than three of
    one kind (quadrature near u = 0.45, gamma0 = 1), so the median op is the
    middle one of that kind in every run rather than the edge between two
    kinds.  The third tenth's draws still reach the band where k_quadrature
    misses on Im k; a draw there fails the run as an unexpected failure.
    """
    rng = rng_for("kernel", seed)

    def draw(mode, i, readme):
        u = (i + 0.5 + rng.uniform(-0.1, 0.1)) / _U_STRATA
        wc_ts = rng.uniform(9.9, 10.1)
        if readme:
            gamma0 = _README_PARAMS["gamma0"]
        else:
            gamma0 = math.exp(rng.uniform(math.log(7e-4), math.log(7e-3))) / wc_ts
        return {"mode": mode, "gamma0": gamma0, "delta0": _README_PARAMS["delta0"], "wc_ts": wc_ts, "u": u}

    while True:
        ops = [draw(mode, i, i % 2 == 0) for mode in ("printed", "quadrature") for i in range(_U_STRATA)]
        ops += [draw("printed", 0, False), draw("quadrature", 4, True), draw("quadrature", 4, True)]
        ops += [dict(op) for op in KERNEL_DEFECT_OPS]
        rng.shuffle(ops)
        yield ops


# -------------------------------------------------------------------- cli

# Valid subcommand slots of one round (20 ops).
_VALID_SLOTS = (
    ("gamma-check",) * 2
    + ("kernel",) * 3
    + ("cost",) * 3
    + ("predict",) * 4
    + ("decompose",) * 4
    + ("estimate",) * 4
)
_OUT_SHARE = 0.25

# Invalid argv.  Every round holds the three costly ROADMAP item-4
# reproducers, one cheap reproducer, one usage error and one data error,
# rotating through each list from a seeded offset: 6 of 26 ops.
_COSTLY_DEFECTS = ("decompose-near-quarter", "estimate-nan-probs", "estimate-bool-probs")
_CHEAP_DEFECTS = (
    "kernel-wc-ts-zero",
    "kernel-wc-ts-negative",
    "kernel-u-max-nan",
    "kernel-quadrature-u-max-nan",
    "cost-out-missing-dir",
)
_USAGE_ERRORS = (
    "predict-alpha-out-of-range",
    "decompose-alpha-out-of-range",
    "cost-u-max-zero",
    "predict-unknown-gate",
    "unknown-subcommand",
)
_DATA_ERRORS = ("estimate-missing-file", "estimate-malformed-json", "estimate-gate-mismatch")

COUPLINGS = "7e-4,7e-3"


def _resample_path(index: int) -> str:
    name = FIXTURE_NAMES[index % len(FIXTURE_NAMES)]
    return f"{CLI_TMP}/{name}-r{(index // len(FIXTURE_NAMES)) % RESAMPLES_PER_FIXTURE}.json"


def invalid_argv(kind: str) -> list:
    tmp = CLI_TMP
    return {
        "decompose-near-quarter": ["decompose", "--gate", "swap", "--alpha", "0.2499999999", "--format", "json"],
        "estimate-nan-probs": ["estimate", "--counts", f"{tmp}/nan_probs.json"],
        "estimate-bool-probs": ["estimate", "--counts", f"{tmp}/bool_probs.json"],
        "kernel-wc-ts-zero": ["kernel", "--mode", "printed", "--wc-ts", "0"],
        "kernel-wc-ts-negative": ["kernel", "--mode", "printed", "--wc-ts", "-1"],
        "kernel-u-max-nan": ["kernel", "--u-max", "nan"],
        "kernel-quadrature-u-max-nan": ["kernel", "--mode", "quadrature", "--u-max", "nan"],
        "cost-out-missing-dir": ["cost", "--gate", "swap", "--out", f"{tmp}/missing/x.csv"],
        "predict-alpha-out-of-range": ["predict", "--gate", "swap", "--alpha", "0.5"],
        "decompose-alpha-out-of-range": ["decompose", "--gate", "identity", "--alpha", "0.6"],
        "cost-u-max-zero": ["cost", "--gate", "identity", "--u-max", "0"],
        "predict-unknown-gate": ["predict", "--gate", "cnot", "--alpha", "0.02"],
        "unknown-subcommand": ["fit", "--alpha", "0.02"],
        "estimate-missing-file": ["estimate", "--counts", f"{tmp}/missing.json"],
        "estimate-malformed-json": ["estimate", "--counts", f"{tmp}/malformed.json"],
        "estimate-gate-mismatch": ["estimate", "--counts", _resample_path(0), "--gate", "identity"],
    }[kind]


def _valid_argv(kind: str, gate: str, rng: random.Random, estimate_index: int) -> list:
    if kind == "gamma-check":
        argv = ["gamma-check"]
    elif kind == "kernel":
        argv = ["kernel", "--coupling", COUPLINGS]
    elif kind == "cost":
        argv = ["cost", "--gate", gate, "--coupling", COUPLINGS]
    elif kind == "predict":
        argv = ["predict", "--gate", gate, "--alpha", "0.02"]
    elif kind == "decompose":
        argv = ["decompose", "--gate", gate, "--alpha", "0.05"]
    else:
        argv = ["estimate", "--counts", _resample_path(estimate_index)]
    return argv + ["--format", rng.choice(FORMATS)]


def cli_rounds(seed: int):
    rng = rng_for("cli", seed)
    offsets = [rng.randrange(len(kinds)) for kinds in (_CHEAP_DEFECTS, _USAGE_ERRORS, _DATA_ERRORS)]
    r = 0
    estimates = 0
    while True:
        ops = []
        for slot, kind in enumerate(_VALID_SLOTS):
            # Gates alternate slot by slot, so every round runs both equally.
            argv = _valid_argv(kind, GATES[slot % 2], rng, estimates)
            if kind == "estimate":
                estimates += 1
            if rng.random() < _OUT_SHARE:
                argv += ["--out", f"{CLI_TMP}/out-{slot}.txt"]
            ops.append({"kind": kind, "argv": argv})
        invalid = list(_COSTLY_DEFECTS) + [
            kinds[(off + r) % len(kinds)]
            for kinds, off in zip((_CHEAP_DEFECTS, _USAGE_ERRORS, _DATA_ERRORS), offsets)
        ]
        ops += [{"kind": kind, "argv": invalid_argv(kind)} for kind in invalid]
        rng.shuffle(ops)
        r += 1
        yield ops


def write_cli_inputs(root: Path, seed: int) -> None:
    """Write the cli workload's input files: seeded multinomial resamplings
    (1000 shots) of the six bundled fixtures, plus the malformed, NaN and
    boolean documents the invalid argv point at."""
    rng = rng_for("cli", seed, "files")
    tmp = root / CLI_TMP
    tmp.mkdir(parents=True, exist_ok=True)
    n = len(FIXTURE_NAMES) * RESAMPLES_PER_FIXTURE
    for index in range(n):
        name = FIXTURE_NAMES[index % len(FIXTURE_NAMES)]
        doc = json.loads((root / FIXTURES / f"{name}.json").read_text())
        runs = []
        for run in doc["runs"]:
            weights = run.get("counts") or run.get("probs")
            outcomes = sorted(weights)
            draws = rng.choices(outcomes, weights=[weights[o] for o in outcomes], k=SHOTS)
            runs.append({"input": run["input"], "counts": {o: draws.count(o) for o in outcomes}})
        out = {"gate": doc["gate"], "device": doc["device"], "shots": SHOTS, "runs": runs}
        (root / _resample_path(index)).write_text(json.dumps(out, indent=1))
    synthetic = json.loads((root / FIXTURES / "synthetic_swap.json").read_text())
    nan_doc = json.loads(json.dumps(synthetic))
    nan_doc["runs"][1]["probs"]["01"] = float("nan")
    (tmp / "nan_probs.json").write_text(json.dumps(nan_doc))
    bool_doc = json.loads(json.dumps(synthetic))
    bool_doc["runs"][0]["probs"] = {"00": True, "01": False, "10": False, "11": False}
    (tmp / "bool_probs.json").write_text(json.dumps(bool_doc))
    (tmp / "malformed.json").write_text('{"gate": "swap", "runs": [')


# ---------------------------------------------------------------- common

ROUNDS = {"forward": forward_rounds, "kernel": kernel_rounds, "cli": cli_rounds}


def setup_op(workload: str, seed: int) -> dict:
    """The op a fresh interpreter runs to measure setup_s.  It is of one
    fixed kind per workload so that set-up cost does not depend on the
    seed's op order."""
    rng = rng_for(workload, seed, "setup")
    if workload == "forward":
        return {"gate": "swap", "alpha": _dyadic(rng.uniform(0.05, 0.06))}
    if workload == "kernel":
        # wc_ts * u ~ 4.5: past the series switch, so Si's auxiliary path runs.
        return {"mode": "printed", "gamma0": 1.0, "delta0": 0.5, "wc_ts": 10.0,
                "u": rng.uniform(0.45, 0.452)}
    return {"kind": "estimate", "argv": ["estimate", "--counts", _resample_path(rng.randrange(2)), "--format", "json"]}
