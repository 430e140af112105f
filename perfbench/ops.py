"""Runs one op of a workload through nmqem's public functions.

Each runner returns what the oracle needs and nothing is checked here: the
caller times the call and checks the result afterwards.  Every nmqem name is
looked up on its module at call time, so the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import os
import warnings

import nmqem


def run_forward(op: dict) -> dict:
    gate, alpha = op["gate"], op["alpha"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = nmqem.predict_table(gate, alpha)
        rec = nmqem.recovery_op(gate, alpha)
        cost = nmqem.cost_swap(alpha) if gate == "swap" else nmqem.cost_id(alpha)
        cost_dec = nmqem.cost_from_decomposition(rec)
        recon = nmqem.reconstruct(nmqem.build_gamma_basis(), rec.gamma)
    return {
        "table": table,
        "recovery": rec,
        "cost": cost,
        "cost_from_decomposition": cost_dec,
        "reconstructed": recon,
        "warned": bool(caught),
    }


def run_kernel(op: dict) -> complex:
    params = nmqem.KernelParams(gamma0=op["gamma0"], delta0=op["delta0"], wc_ts=op["wc_ts"])
    fn = nmqem.k_printed if op["mode"] == "printed" else nmqem.k_quadrature
    return fn(params, op["u"])


def _out_path(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_cli(op: dict) -> dict:
    """nmqem.cli.main(argv) with stdout and stderr captured.  An exception
    that escapes main is returned, not raised, so that the loop goes on."""
    import nmqem.cli  # imported by the cli workload only, so setup_s stays per workload

    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = nmqem.cli.main(list(op["argv"]))
        except Exception as e:  # an escaped exception is the op's failure
            exc = f"{type(e).__name__}: {e}"
    return {"rc": rc, "exception": exc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def collect_cli_file(op: dict, result: dict) -> None:
    """Move an --out file's text into the result and delete the file, so
    the next round starts from an empty slot.  Runs outside the timed call."""
    path = _out_path(op["argv"])
    if path is None:
        return
    result["out_exists"] = os.path.exists(path)
    if result["out_exists"]:
        with open(path) as fh:
            result["out_text"] = fh.read()
        os.remove(path)


RUNNERS = {"forward": run_forward, "kernel": run_kernel, "cli": run_cli}
